"""The four benchmark workloads: generators, items and correctness oracles.

A workload is set up once per process from the seed (`__init__`), then
builds one batch of items per round (`batch`).  An item's `run` calls
credal and returns a hashable verdict; its `check` says whether the
verdict satisfies the theorem the workload is built on.  Inputs depend
only on (workload, seed, round), so two processes with the same seed see
the same items.  `probe` names the speed probe closest to the workload's
own work (see speed.py).  Every call into credal goes through a module attribute
(``procedures.infers``, not a bound name), so traced runs see it.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import credal.constraints as constraints
import credal.corpus as corpus
import credal.embeddings as embeddings
import credal.entail as entail
import credal.harness as harness
import credal.measures as measures
import credal.optimize as optimize
import credal.procedures as procedures
import credal.spaces as spaces

F = Fraction


@dataclass
class Item:
    key: str  # "<group>|...": identifies the item's inputs; the generation digest hashes it
    run: Callable[[], object]
    check: Callable[[object], bool]


def round_seed(workload: str, seed: int, rnd: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{rnd}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def items_digest(items: list[Item]) -> str:
    h = hashlib.sha256()
    for it in items:
        h.update(it.key.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _plain_space(prefix: str, n: int):
    """A space with exactly n worlds: the first n assignments over enough bits."""
    width = max(1, (n - 1).bit_length())
    vocab = spaces.Vocabulary(tuple(f"{prefix}{i}" for i in range(width)))
    return spaces.Space(vocab, tuple(spaces.World(b, width) for b in range(n)))


def _product_prior():
    return procedures.InferenceProcedure.prior_based(
        procedures.PriorFunction.product_family())


# klm ---------------------------------------------------------------------


class Klm:
    """The klm-check grid over the bundled corpus, for five procedures.

    One item is one (procedure, kb) row: the six theta verdicts,
    Reflexivity, Consistency and the And pairs; each LLE pair is a row
    of its own.  Right Weakening uses the theta-theta entailments
    computed here once.  Each round's seed shuffles the rows and is the
    `infers` seed of its sampled product-prior paths.
    """

    name = "klm"
    worlds = "4"
    probe = "exact"

    def __init__(self, seed: int):
        self.seed = seed
        self.kbs, self.thetas, self.lle = corpus.klm_corpus()
        self.space = constraints.space_of(self.kbs[1])
        P = procedures.InferenceProcedure
        self.procs = [P.entailment(), P.maxent(), P.i0(), P.i1(), _product_prior()]
        n = len(self.thetas)
        self.rw_pairs = [(a, b) for a in range(n) for b in range(n)
                         if a != b and entail.entails(self.thetas[a], self.thetas[b], self.space)]
        self.and_pairs = [(a, b) for a in range(n) for b in range(a + 1, n)][:3]

    def batch(self, rnd: int) -> list[Item]:
        seed = round_seed(self.name, self.seed, rnd)
        rows = [Item(f"{p.name}|kb{k}|{seed}", self._kb_row(p, kb, seed), self._kb_ok)
                for p in self.procs for k, kb in enumerate(self.kbs)]
        rows += [Item(f"{p.name}|lle{j}|{seed}", self._lle_row(p, a, b, seed), self._lle_ok)
                 for p in self.procs for j, (a, b) in enumerate(self.lle)]
        random.Random(seed).shuffle(rows)
        return rows

    def _kb_row(self, proc, kb, seed):
        sp, thetas = self.space, self.thetas

        def run():
            infers = procedures.infers
            v = tuple(infers(proc, kb, th, sp, seed=seed).holds for th in thetas)
            refl = infers(proc, kb, kb, sp, seed=seed).holds
            sat = entail.satisfiable(kb, sp).feasible
            false_inferred = sat and infers(proc, kb, constraints.FalseExpr(), sp, seed=seed).holds
            ands = tuple(infers(proc, kb, constraints.and_(thetas[a], thetas[b]), sp,
                                seed=seed).holds
                         for a, b in self.and_pairs if v[a] and v[b])
            return v, refl, sat, false_inferred, ands
        return run

    def _kb_ok(self, verdict) -> bool:
        v, refl, _, false_inferred, ands = verdict
        right_weakening = all(v[b] for a, b in self.rw_pairs if v[a])
        return refl and not false_inferred and right_weakening and all(ands)

    def _lle_row(self, proc, kb, kb2, seed):
        sp, thetas = self.space, self.thetas

        def run():
            infers = procedures.infers
            eq = entail.equivalent(kb, kb2, sp)
            pairs = tuple((infers(proc, kb, th, sp, seed=seed).holds,
                           infers(proc, kb2, th, sp, seed=seed).holds) for th in thetas)
            return eq, pairs
        return run

    @staticmethod
    def _lle_ok(verdict) -> bool:
        eq, pairs = verdict
        return eq and all(x == y for x, y in pairs)


# falsify -----------------------------------------------------------------


class Falsify:
    """Seeded representation-independence trials for I1, I0 and entailment.

    None of the three is representation dependent on these templates, so
    no trial may report a violation.
    """

    name = "falsify"
    worlds = "2-8"
    probe = "exact"
    trials = 300

    def __init__(self, seed: int):
        self.seed = seed
        P = procedures.InferenceProcedure
        self.procs = [(P.i1(), "general"), (P.i0(), "objective"), (P.entailment(), "general")]

    def batch(self, rnd: int) -> list[Item]:
        tseed = round_seed(self.name, self.seed, rnd)
        return [Item(f"{proc.name}|{tmpl}|{t}|{tseed}", self._trial(proc, t, tseed, tmpl),
                     self._ok)
                for t in range(self.trials) for proc, tmpl in self.procs]

    @staticmethod
    def _trial(proc, t, tseed, templates):
        def run():
            rep = harness.replay_trial(proc, t, tseed, templates=templates)
            if rep is None:
                return None
            return rep.mode, tuple((v.kind, v.verdict_x, v.verdict_y) for v in rep.violations)
        return run

    @staticmethod
    def _ok(verdict) -> bool:
        return verdict is None or not verdict[1]


# project -----------------------------------------------------------------


class Project:
    """I-projections from the criterion-07 generator, with a fixed share
    of boundary items.

    A triple (embedding, prior nu on Y, theta on X) gives two items: the
    direct projection of nu's pushforward onto theta, and the projection
    of nu onto theta's translation.  A triple is a boundary triple when
    theta's closure forces some world of X to zero (decided with
    `entails`); the prior has full support, so both of its projections
    then end on the boundary of the simplex.  Each batch holds exactly
    `boundary_triples` of them, at seeded positions; the seed picks the
    instances within each class.
    """

    name = "project"
    worlds = "2-6"
    probe = "float"
    triples = 200
    boundary_triples = 1  # 2 of 400 items = 0.5%, the generator's own rate

    def __init__(self, seed: int):
        self.seed = seed

    def batch(self, rnd: int) -> list[Item]:
        rs = round_seed(self.name, self.seed, rnd)
        interior_rng = random.Random(rs)
        boundary_rng = random.Random(rs ^ 0x5EED)
        slots = random.Random(rs + 1).sample(range(self.triples), self.boundary_triples)
        items = []
        for i in range(self.triples):
            boundary = i in slots
            rng = boundary_rng if boundary else interior_rng
            while True:
                triple = self._draw(rng, force_and=boundary)
                if triple is not None and self.is_boundary(triple[3], triple[0]) == boundary:
                    break
            items += self._items(i, boundary, *triple)
        return items

    @staticmethod
    def _draw(rng, force_and):
        """One criterion-07 triple, or None when theta is unsatisfiable.

        Only a conjunction of two atoms over three worlds can force a
        world to zero, so the boundary stream draws from that branch of
        the generator alone: conditioned on being a boundary triple, it
        has the same distribution as the full generator.
        """
        nx = 3 if force_and else rng.choice((2, 3))
        ny = rng.randrange(nx, 7)
        x = _plain_space("x", nx)
        y = _plain_space("y", ny)
        emb = embeddings.random_faithful_embedding(x, y, rng.randrange(2**30))
        raw = [rng.uniform(0.05, 1.0) for _ in range(ny)]
        nu = measures.Measure.from_floats(y, [w / sum(raw) for w in raw])

        def atom():
            mask = rng.randrange(1, (1 << nx) - 1)
            return constraints.LinearAtom(((F(1), spaces.Event(x, mask)),),
                                          rng.choice(("=", "<=", ">=")),
                                          F(rng.randrange(1, 8), 8))

        if force_and or (rng.random() < 0.4 and nx >= 3):
            theta = constraints.And((atom(), atom()))
            if not entail.satisfiable(theta, x).feasible:
                return None
        else:
            theta = atom()
        return x, emb, nu, theta

    @staticmethod
    def is_boundary(theta, x) -> bool:
        return any(entail.entails(theta, constraints.LinearAtom(
            ((F(1), spaces.event_from_indices(x, [i])),), "<=", F(0)), x)
            for i in range(len(x.worlds)))

    @staticmethod
    def _items(i, boundary, x, emb, nu, theta) -> list[Item]:
        key = (f"{'boundary' if boundary else 'interior'}|{i}|{emb.world_map}|{theta!r}|"
               f"{[float(w).hex() for w in nu.weights]}")
        direct = {}

        def verdict(res):
            return res.status, tuple(float(w) for w in res.measures[0].weights) if res.attained else ()

        def run_direct():
            direct["out"] = verdict(optimize.kl_project(measures.pushforward(emb, nu), theta))
            return direct["out"]

        def run_lifted():
            return verdict(optimize.kl_project(nu, constraints.translate(emb, theta)))

        def direct_ok(verdict):
            return verdict[0] == "attained"

        def lifted_ok(verdict):
            other = direct.get("out")
            if verdict[0] != "attained" or other is None or other[0] != "attained":
                return False
            transported = [0.0] * len(x.worlds)
            for j, w in enumerate(verdict[1]):
                transported[emb.world_map[j]] += w
            return all(abs(a - b) <= 1e-6 for a, b in zip(transported, other[1]))

        return [Item(f"{key}|direct", run_direct, direct_ok),
                Item(f"{key}|lifted", run_lifted, lifted_ok)]


# wide --------------------------------------------------------------------


class Wide:
    """Exact decisions on wide LPs: tuple-cover gadgets and sigma.

    Every tuple-cover gadget with at most 120 worlds is decided at seeded
    thresholds on both sides of d/n (feasible exactly below it), and the
    coupling constraint sigma on the 384-world product is checked
    conservative over each X factor at seeded sample points.
    """

    name = "wide"
    worlds = "6-384"
    probe = "exact"
    below = 4
    at_or_above = 4
    # 15 of 119 items per round: the top decile then lies inside the sigma
    # checks, not across gadget sizes whose cost depends on alpha
    sigma_seeds = 5

    def __init__(self, seed: int):
        self.seed = seed
        self.gadgets = [harness.tuple_cover_gadget(n, d)
                        for n in range(3, 12) for d in range(2, n)
                        if math.perm(n, d) <= 120]
        demo = harness.conservative_extension_demo()
        self.z, self.sigma = demo["space"], demo["sigma"]

    def batch(self, rnd: int) -> list[Item]:
        rng = random.Random(round_seed(self.name, self.seed, rnd))
        items = []
        for g in self.gadgets:
            n, d = g.params["n"], g.params["d"]
            edge = F(d, n)
            alphas = [edge * (1 - F(rng.randrange(1, 64), 256)) for _ in range(self.below)]
            alphas.append(edge)
            alphas += [edge + (1 - edge) * F(rng.randrange(1, 64), 256)
                       for _ in range(self.at_or_above - 1)]
            for alpha in alphas:
                items.append(Item(f"gadget|{n}|{d}|{alpha}", self._gadget(g, alpha),
                                  self._gadget_ok(alpha < edge)))
        for j in range(3):
            for _ in range(self.sigma_seeds):
                s = rng.randrange(2**30)
                items.append(Item(f"sigma|{j}|{s}", self._sigma(j, s), self._sigma_ok))
        rng.shuffle(items)
        return items

    @staticmethod
    def _gadget(g, alpha):
        return lambda: harness.gadget_feasible(g, alpha)

    @staticmethod
    def _gadget_ok(expected):
        return lambda verdict: verdict is expected

    def _sigma(self, j, s):
        def run():
            rep = entail.conservative_check(constraints.TrueExpr(), self.sigma, self.z,
                                            x_factor=j, n_samples=2, seed=s)
            return rep.status, rep.witness is None, rep.tested
        return run

    @staticmethod
    def _sigma_ok(verdict) -> bool:
        return verdict[0] == "conservative_verified" and verdict[1]


WORKLOADS = {w.name: w for w in (Klm, Falsify, Project, Wide)}
