"""Scenario runner: validation, command dispatch, bundled reproductions.

One JSON scenario format feeds every command; constraint and formula
fields are DSL strings inside the JSON.  Exit codes: 0 all checks hold,
1 some check failed (or a violation was found / expected), 2 validation
or domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .constraints import TrueExpr, parse_constraint
from .corpus import klm_corpus
from .embeddings import (Embedding, from_interpretation, from_surjection, is_faithful,
                         permutation_embedding, product_embedding)
from .entail import satisfiable
from .errors import CredalError
from .harness import (
    tuple_cover_gadget,
    bootstrap_check,
    gadget_counts,
    gadget_feasible,
    gadget_witnesses,
    invariance_check,
    default_independence_gadget,
    rep_independence_falsify,
)
from .measures import Measure
from .optimize import maxent
from .procedures import InferenceProcedure, PriorFunction, infers, klm_properties_check
from .spaces import Space, atoms_over, enumerate_worlds, event_of, product_space

# Procedures named by a scenario's `procedure.kind`; `_PROCS` adds the
# command-line-only name `product-prior`.
_KINDS = {
    "entailment": InferenceProcedure.entailment,
    "maxent": InferenceProcedure.maxent,
    "i0": InferenceProcedure.i0,
    "i1": InferenceProcedure.i1,
    "broken": InferenceProcedure.broken,
}


@dataclass(frozen=True)
class Scenario:
    """A scenario file with every name resolved and every object built."""

    space: Space  # `main`, else the first declared space
    kb: str
    queries: tuple[str, ...]
    procedure: InferenceProcedure
    embeddings: tuple[tuple[str, Embedding], ...]  # (JSON kind, embedding)


class _At:
    """A JSON value and its path in the scenario file.  Every shape check
    of the format is a method here, and every error names its path."""

    def __init__(self, value, path: str = ""):
        self.value, self.path = value, path

    def error(self, message: str) -> CredalError:
        return CredalError(f"{self.path or '/'}: {message}")

    def require(self, kind, what: str):
        if isinstance(self.value, bool) or not isinstance(self.value, kind):
            raise self.error(f"{what} is required")
        return self.value

    def string(self) -> str:
        return self.require(str, "a string")

    def integer(self) -> int:
        return self.require(int, "an integer")

    def items(self, nonempty: bool = False) -> list["_At"]:
        if not self.require(list, "a list") and nonempty:
            raise self.error("a nonempty list is required")
        return [_At(v, f"{self.path}/{i}") for i, v in enumerate(self.value)]

    def entries(self) -> list[tuple["_At", "_At"]]:
        """(key, value) pairs of an object; both carry the entry's path."""
        return [(_At(k, f"{self.path}/{k}"), _At(v, f"{self.path}/{k}"))
                for k, v in self.require(dict, "an object").items()]

    def get(self, key: str, *default) -> "_At":
        """The field `key`; a field without a default must be present."""
        obj = self.require(dict, "an object")
        if key not in obj and not default:
            raise _At(None, f"{self.path}/{key}").error("missing")
        return _At(obj.get(key, *default), f"{self.path}/{key}")

    def only(self, *keys: str) -> "_At":
        """This object, once every key it has is one of `keys`."""
        for key in self.require(dict, "an object"):
            if key not in keys:
                raise _At(None, f"{self.path}/{key}").error("unknown key")
        return self

    def lookup(self, table, what: str):
        if self.string() not in table:
            raise self.error(f"unknown {what} {self.value!r}")
        return table[self.value]

    @contextmanager
    def blame(self):
        """Re-raise a builder's error at this path."""
        try:
            yield
        except (CredalError, ValueError, KeyError, ZeroDivisionError) as exc:
            raise self.error(exc.args[0] if isinstance(exc, KeyError) else str(exc)) from None


_PRIORS = {"uniform": PriorFunction.uniform, "product_family": PriorFunction.product_family}


def _read_procedure(node: _At, spaces: dict[str, Space]) -> InferenceProcedure:
    kind = node.only("kind", "prior").get("kind", "maxent")
    if kind.value != "prior_based":
        return kind.lookup(_KINDS, "kind")()
    prior = node.get("prior", "uniform")
    if isinstance(prior.value, str):
        return InferenceProcedure.prior_based(prior.lookup(_PRIORS, "prior")())
    assignment = {}
    for name, rows in prior.entries():
        space = name.lookup(spaces, "space")
        assignment[space] = []
        for row in rows.items(nonempty=True):
            weights = [w.require((int, float, str), "a number or a rational string")
                       for w in row.items()]
            with row.blame():  # a weight is the decimal as written: 0.1 is 1/10
                mu = Measure.rational(space, [Fraction(str(w)) for w in weights])
            assignment[space].append(mu)
    return InferenceProcedure.prior_based(PriorFunction.of(assignment))


def _read_embedding(node: _At, spaces: dict[str, Space]) -> Embedding:
    kind = node.get("kind").string()
    if kind == "product":
        node.only("kind", "parts")
        parts = [_read_embedding(p, spaces) for p in node.get("parts").items(nonempty=True)]
        with node.blame():
            return product_embedding(parts)
    if kind == "permutation":
        node.only("kind", "space", "pi")
        space = node.get("space").lookup(spaces, "space")
        pi = [i.integer() for i in node.get("pi").items()]
        with node.blame():
            return permutation_embedding(space, pi)
    if kind not in ("surjection", "interpretation"):
        raise node.get("kind").error(f"unknown embedding kind {kind!r}")
    node.only("kind", "src", "dst", "map")
    src, dst = (node.get(end).lookup(spaces, "space") for end in ("src", "dst"))
    if kind == "interpretation":
        mapping = {k.value: v.string() for k, v in node.get("map").entries()}
        with node.blame():
            return from_interpretation(mapping, src, dst)
    world_map = {k.value: v.integer() for k, v in node.get("map").entries()}
    targets = [str(j) for j in range(len(dst.worlds))]
    if set(world_map) != set(targets):
        raise node.error(f"map keys must be the target world indices 0..{len(targets) - 1}")
    with node.blame():
        return from_surjection(src, dst, [world_map[j] for j in targets])


def read_scenario(doc) -> Scenario:
    """Resolve a parsed scenario file in one pass; a malformed field
    raises `CredalError` naming its JSON path."""
    root = _At(doc).only("spaces", "main", "kb", "queries", "procedure", "embeddings")
    spaces: dict[str, Space] = {}
    for entry in root.get("spaces").items(nonempty=True):
        name = entry.get("name")
        if name.string() in spaces:
            raise name.error(f"duplicate space name {name.value!r}")
        if "factors" in entry.value:
            entry.only("name", "factors")
            parts = [f.lookup(spaces, "space") for f in entry.get("factors").items()]
            with entry.blame():
                spaces[name.value] = product_space(parts)
            continue
        if "vocabulary" not in entry.value:
            raise entry.error("needs vocabulary or factors")
        entry.only("name", "vocabulary", "restriction")
        vocabulary = [s.string() for s in entry.get("vocabulary").items()]
        restriction = entry.get("restriction", "true").string()
        with entry.blame():
            spaces[name.value] = enumerate_worlds(vocabulary, restriction)
    return Scenario(
        space=root.get("main", next(iter(spaces))).lookup(spaces, "space"),
        kb=root.get("kb", "true").string(),
        queries=tuple(q.string() for q in root.get("queries", []).items()),
        procedure=_read_procedure(root.get("procedure", {}), spaces),
        embeddings=tuple((e.get("kind").value, _read_embedding(e, spaces))
                         for e in root.get("embeddings", []).items()),
    )


def load_scenario(path: str) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return read_scenario(json.load(fh))


# -- output ----------------------------------------------------------------


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
        return
    for line in _as_lines(payload):
        print(line)


def _as_lines(payload, prefix=""):
    lines = []
    if isinstance(payload, dict):
        for k, v in payload.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{prefix}{k}:")
                lines.extend(_as_lines(v, prefix + "  "))
            else:
                lines.append(f"{prefix}{k}: {v}")
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)):
                lines.extend(_as_lines(v, prefix + "  "))
            else:
                lines.append(f"{prefix}- {v}")
    else:
        lines.append(f"{prefix}{payload}")
    return lines


# -- commands ---------------------------------------------------------------


def cmd_infer(args) -> int:
    scenario = load_scenario(args.scenario)
    space, proc = scenario.space, scenario.procedure
    kb = parse_constraint(scenario.kb, space)
    payload: dict = {"procedure": proc.name, "queries": []}
    if not satisfiable(kb, space).feasible:
        payload["consistency"] = "violated: kb unsatisfiable, selection empty"
        _emit(payload, args.format)
        return 1
    exit_code = 0
    for q in scenario.queries:
        theta = parse_constraint(q, space)
        v = infers(proc, kb, theta, space, seed=args.seed)
        payload["queries"].append({"query": q, "holds": v.holds, "mode": v.mode})
        if not v.holds:
            exit_code = 1
    _emit(payload, args.format)
    return exit_code


def cmd_check_embedding(args) -> int:
    payload = {"embeddings": []}
    all_faithful = True
    for kind, emb in load_scenario(args.scenario).embeddings:
        faithful = is_faithful(emb)
        all_faithful &= faithful
        payload["embeddings"].append({
            "kind": kind,
            "faithful": faithful,
            "source_worlds": len(emb.source.worlds),
            "target_worlds": len(emb.target.worlds),
        })
    _emit(payload, args.format)
    return 0 if all_faithful else 1


def cmd_check_invariance(args) -> int:
    scenario = load_scenario(args.scenario)
    proc = scenario.procedure
    payload = {"procedure": proc.name, "checks": []}
    violations = 0
    for k, (_, emb) in enumerate(scenario.embeddings):
        if not is_faithful(emb):
            raise _At(None, f"/embeddings/{k}").error(
                "invariance is defined against faithful embeddings")
        kb = parse_constraint(scenario.kb, emb.source)
        for q in scenario.queries:
            theta = parse_constraint(q, emb.source)
            rep = invariance_check(proc, emb, kb, theta, seed=args.seed)
            entry = {"embedding": k, "query": q, "invariant": rep.invariant}
            if rep.violations:
                v = rep.violations[0]
                entry["verdict_x"] = v.verdict_x
                entry["verdict_y"] = v.verdict_y
                entry["kind"] = v.kind
                violations += 1
            payload["checks"].append(entry)
    _emit(payload, args.format)
    return 1 if violations else 0


_PROCS = {
    **_KINDS,
    "product-prior": lambda: InferenceProcedure.prior_based(PriorFunction.product_family()),
}


def cmd_falsify(args) -> int:
    proc = _PROCS[args.procedure]()
    templates = "objective" if args.procedure == "i0" else "general"
    rep = rep_independence_falsify(proc, budget=args.budget, seed=args.seed,
                                   max_worlds=args.max_worlds, templates=templates)
    payload = {
        "procedure": rep.procedure,
        "trials": rep.trials,
        "seed": rep.seed,
        "violation_found": rep.found,
    }
    if rep.found:
        v = rep.violation.violations[0]
        payload["violation"] = {
            "trial": rep.violation.trial,
            "embedding": rep.violation.embedding,
            "kind": v.kind,
            "verdict_x": v.verdict_x,
            "verdict_y": v.verdict_y,
        }
    _emit(payload, args.format)
    return 1 if rep.found else 0


def cmd_klm_check(args) -> int:
    proc = _PROCS[args.procedure]()
    kbs, thetas, lle = klm_corpus()
    report = klm_properties_check(proc, kbs, thetas, lle_pairs=lle)
    payload = {
        "procedure": report.procedure,
        "kbs_checked": report.checked,
        "violations": report.by_property(),
        "all_pass": report.all_pass,
    }
    _emit(payload, args.format)
    return 0 if report.all_pass else 1


# -- bundled reproductions ---------------------------------------------------


def _reproduce_colorful() -> dict:
    coarse = enumerate_worlds(["colorful"])
    fine = enumerate_worlds(["red", "blue", "green"])
    r1 = maxent(TrueExpr(), coarse)
    r2 = maxent(TrueExpr(), fine)
    p_coarse = float(r1.measures[0].prob(event_of(coarse, "colorful")))
    p_fine = float(r2.measures[0].prob(event_of(fine, "red | blue | green")))
    emb = from_surjection(coarse, fine, [0 if w.bits == 0 else 1 for w in fine.worlds])
    theta = parse_constraint("P(colorful) = 1/2", coarse)
    rep = invariance_check(InferenceProcedure.maxent(), emb, TrueExpr(), theta)
    return {
        "coarse_p_colorful": p_coarse,
        "fine_p_colorful_image": p_fine,
        "invariance_violation": not rep.invariant,
    }


def _reproduce_flying_bird() -> dict:
    rep1 = enumerate_worlds(["fly", "bird"])
    rep2 = enumerate_worlds(["flying-bird", "bird"], "flying-bird => bird")
    r1 = maxent(parse_constraint("P(fly | bird) = 1/2", rep1))
    r2 = maxent(parse_constraint("P(flying-bird | bird) = 1/2", rep2))
    return {
        "rep1_p_bird": float(r1.measures[0].prob(event_of(rep1, "bird"))),
        "rep2_p_bird": float(r2.measures[0].prob(event_of(rep2, "bird"))),
    }


def _reproduce_maxent_undefined() -> dict:
    two = enumerate_worlds(["x1"])
    r_half = maxent(parse_constraint("P(x1) < 1/2", two))
    r_twothirds = maxent(parse_constraint("P(x1) < 2/3", two))
    return {
        "below_half_status": r_half.status,
        "below_two_thirds_status": r_twothirds.status,
        "below_two_thirds_p": float(r_twothirds.measures[0].prob(event_of(two, "x1"))),
    }


def _reproduce_noindep() -> dict:
    g = default_independence_gadget()
    xx = g.spaces["XX"]
    kb, query = g.constraints["kb"], g.constraints["query"]
    cells = atoms_over([g.events["S"], g.events["S_prime"]])
    v_me = infers(InferenceProcedure.maxent(), kb, query, xx)
    v_ent = infers(InferenceProcedure.entailment(), kb, query, xx)
    return {
        "nonempty_atoms": len(cells),
        "maxent_holds": v_me.holds,
        "entailment_holds": v_ent.holds,
    }


def _reproduce_gadget_3_2() -> dict:
    g = tuple_cover_gadget(3, 2)
    counts = gadget_counts(g)
    witnesses = gadget_witnesses(g)
    u = g.extra["U"]
    return {
        "worlds": counts["worlds"],
        "u_size": counts["u_sizes"][0],
        "pairwise_size": next(iter(counts["pair_sizes"].values())),
        "infeasible_at_two_thirds": not gadget_feasible(g, Fraction(2, 3)),
        "feasible_below": gadget_feasible(g, Fraction(3, 5)),
        "witness_own_mass": str(witnesses[0].prob(u[0])),
        "witness_other_mass": str(witnesses[0].prob(u[1])),
    }


def _reproduce_bootstrap_uniform() -> dict:
    x = enumerate_worlds(["c"])
    y = enumerate_worlds(["u", "v"])
    equal = from_surjection(x, y, [0, 0, 1, 1])
    unequal = from_surjection(x, y, [0, 1, 1, 1])
    rep_eq = bootstrap_check([Measure.uniform(x)], [Measure.uniform(y)], equal)
    rep_ne = bootstrap_check([Measure.uniform(x)], [Measure.uniform(y)], unequal)
    return {
        "equal_fibers_correspond": rep_eq.corresponds,
        "equal_fibers_violations": len(rep_eq.violations),
        "unequal_fibers_correspond": rep_ne.corresponds,
        "unequal_fibers_violation_found": len(rep_ne.violations) > 0,
    }


REPRODUCTIONS = {
    "colorful": _reproduce_colorful,
    "flying-bird": _reproduce_flying_bird,
    "maxent-undefined": _reproduce_maxent_undefined,
    "noindep": _reproduce_noindep,
    "gadget-3-2": _reproduce_gadget_3_2,
    "bootstrap-uniform": _reproduce_bootstrap_uniform,
}


def _golden_matches(actual, golden) -> bool:
    if isinstance(golden, dict):
        return (isinstance(actual, dict) and actual.keys() == golden.keys()
                and all(_golden_matches(actual[k], golden[k]) for k in golden))
    if isinstance(golden, list):
        return (isinstance(actual, list) and len(actual) == len(golden)
                and all(_golden_matches(a, g) for a, g in zip(actual, golden)))
    if isinstance(golden, float) or isinstance(actual, float):
        return isinstance(actual, (int, float)) and math.isclose(
            float(actual), float(golden), abs_tol=1e-6, rel_tol=0.0)
    return actual == golden


def cmd_reproduce(args) -> int:
    name = args.name
    if name not in REPRODUCTIONS:
        raise CredalError(f"unknown reproduction {name!r}; "
                          f"available: {', '.join(sorted(REPRODUCTIONS))}")
    result = REPRODUCTIONS[name]()
    payload = {"name": name, "results": result}
    try:
        golden_text = resources.files("credal").joinpath(f"goldens/{name}.json").read_text()
        golden = json.loads(golden_text)
        matches = _golden_matches(json.loads(json.dumps(result)), golden)
        payload["golden_match"] = matches
    except FileNotFoundError:
        payload["golden_match"] = None
    _emit(payload, args.format)
    return 0 if payload["golden_match"] else 1


# -- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")

    parser = argparse.ArgumentParser(
        prog="credal",
        description="workbench for probabilistic inference procedures on finite spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("infer", parents=[common], help="run the scenario's queries")
    p.add_argument("scenario")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("check-embedding", parents=[common],
                       help="validate the scenario's embeddings")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_check_embedding)

    p = sub.add_parser("check-invariance", parents=[common],
                       help="compare verdicts across embeddings")
    p.add_argument("scenario")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check_invariance)

    p = sub.add_parser("falsify", parents=[common],
                       help="search for representation-dependence")
    p.add_argument("--procedure", choices=sorted(_PROCS), required=True)
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--max-worlds", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_falsify)

    p = sub.add_parser("klm-check", parents=[common],
                       help="check the nonmonotonic core properties")
    p.add_argument("--procedure", choices=sorted(_PROCS), required=True)
    p.set_defaults(func=cmd_klm_check)

    p = sub.add_parser("reproduce", parents=[common],
                       help="run a bundled example against its golden file")
    p.add_argument("name")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CredalError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
