"""Executable instances of the invariance and triviality theorems.

The harness does not prove universal statements; it runs their proof
mechanisms as concrete, replayable checks: invariance comparisons across
embeddings, randomized falsification with seeded trials, robustness and
essential-entailment probes, the tuple-counting gadget behind the
robustness triviality theorem, and the prior-correspondence bootstrap.
Every reported violation is re-evaluated before being returned.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import permutations
from math import perm

from .constraints import (
    And,
    ConstraintExpr,
    LinearAtom,
    Not,
    Or,
    ProductAtom,
    TrueExpr,
    and_,
    map_events,
    satisfies,
    space_of,
    translate,
)
from .corpus import BOUND_GRID, factor_kb_templates
from .embeddings import (
    Embedding,
    correspondence_gap,
    factor_lift,
    from_interpretation,
    from_surjection,
    is_faithful,
    permutation_embedding,
    product_embedding,
    random_faithful_embedding,
)
from .entail import conservative_check, entails, linear_range, satisfiable
from .errors import CredalError, DomainError
from .measures import RATIONAL, Measure, condition, couple, product_measure
from .procedures import (
    InferenceProcedure,
    PriorFunction,
    infers,
    select,
)
from .spaces import (
    Event,
    Space,
    Vocabulary,
    World,
    atoms_over,
    cylinder,
    enumerate_worlds,
    event_from_indices,
    event_of,
    product_space,
)

F = Fraction
_ONE = F(1)
TRIAL_SAMPLES = 120  # sampled-mode measures per side in a falsification trial
GADGET_WORLD_CAP = 120  # the most injective tuples a tuple-cover gadget may list


# Reports ----------------------------------------------------------------


@dataclass(frozen=True)
class InvarianceViolation:
    kb: ConstraintExpr
    theta: ConstraintExpr
    verdict_x: bool | None  # None = domain error on that side
    verdict_y: bool | None
    kind: str  # "verdict" | "domain"


@dataclass(frozen=True)
class InvarianceReport:
    procedure: str
    embedding: str
    violations: tuple[InvarianceViolation, ...]
    mode: str = "exact"
    seed: int | None = None
    trial: int | None = None

    @property
    def invariant(self) -> bool:
        return not self.violations


def _try_infers(proc, kb, theta, space, **sampling):
    try:
        return infers(proc, kb, theta, space, **sampling)
    except DomainError:
        return None


def invariance_check(proc: InferenceProcedure, emb: Embedding, kb: ConstraintExpr,
                     theta: ConstraintExpr, seed: int = 0, samples: int = 200) -> InvarianceReport:
    """Compare KB |~ theta with its translation along a faithful embedding.

    A domain error on exactly one side is itself an invariance violation
    (domain asymmetry); disagreement of verdicts is the usual kind.
    """
    if not is_faithful(emb):
        raise ValueError("invariance is defined against faithful embeddings")
    vx = _try_infers(proc, kb, theta, emb.source, seed=seed, samples=samples)
    vy = _try_infers(proc, translate(emb, kb), translate(emb, theta), emb.target,
                     seed=seed, samples=samples)
    violations: list[InvarianceViolation] = []
    mode = "exact"
    if (vx is None) != (vy is None):
        violations.append(InvarianceViolation(
            kb, theta, None if vx is None else vx.holds,
            None if vy is None else vy.holds, "domain"))
    elif vx is not None:
        if "sampled" in (vx.mode, vy.mode):
            mode = "sampled"
        if vx.holds != vy.holds:
            violations.append(InvarianceViolation(kb, theta, vx.holds, vy.holds, "verdict"))
    return InvarianceReport(proc.name, emb.describe(), tuple(violations), mode, seed)


# Randomized representation-independence falsification --------------------


@dataclass(frozen=True)
class FalsifyReport:
    procedure: str
    trials: int
    seed: int
    violation: InvarianceReport | None = None

    @property
    def found(self) -> bool:
        return self.violation is not None


def _plain_space(prefix: str, n: int) -> Space:
    """A space with exactly n worlds (first n assignments over enough bits)."""
    width = max(1, (n - 1).bit_length())
    vocab = Vocabulary(tuple(f"{prefix}{i}" for i in range(width)))
    return Space(vocab, tuple(World(b, width) for b in range(n)))


def _random_event(space: Space, rng: _random.Random) -> Event:
    n = len(space.worlds)
    mask = rng.randrange(1, (1 << n) - 1) if n > 1 else 1
    return Event(space, mask)


def _random_atom(space: Space, rng: _random.Random) -> LinearAtom:
    bound = rng.choice(BOUND_GRID)
    cmp = rng.choice(("<", "<=", "=", ">=", ">"))
    if rng.random() < 0.5:
        return LinearAtom(((_ONE, _random_event(space, rng)),), cmp, bound)
    e2 = _random_event(space, rng)
    e1 = _random_event(space, rng) & e2
    return LinearAtom(((_ONE, e1), (-bound, e2)), cmp, F(0))


def _random_kb(space: Space, rng: _random.Random) -> ConstraintExpr:
    shape = rng.randrange(5)
    a = _random_atom(space, rng)
    if shape == 0:
        return a
    b = _random_atom(space, rng)
    if shape == 1:
        return Not(a)
    if shape == 2:
        return And((a, b))
    if shape == 3:
        return Or((a, b))
    return And((a, Or((b, _random_atom(space, rng)))))


def _random_objective_kb(space: Space, rng: _random.Random) -> ConstraintExpr:
    t = _random_event(space, rng)
    kb = LinearAtom(((_ONE, t),), "=", _ONE)
    if rng.random() < 0.3:
        t2 = _random_event(space, rng)
        if not (t & t2).is_empty():
            kb = And((kb, LinearAtom(((_ONE, t2),), "=", _ONE)))
    return kb


def _random_theta(space: Space, rng: _random.Random) -> ConstraintExpr:
    shape = rng.randrange(3)
    a = _random_atom(space, rng)
    if shape == 0:
        return a
    if shape == 1:
        return Not(a)
    return And((a, _random_atom(space, rng)))


def _colorful_trial(proc, seed) -> InvarianceReport:
    x = enumerate_worlds(["c"])
    y = enumerate_worlds(["r", "b", "g"])
    emb = from_surjection(x, y, [0 if w.bits == 0 else 1 for w in y.worlds])
    theta = LinearAtom(((_ONE, event_of(x, "c")),), "=", F(1, 2))
    return invariance_check(proc, emb, TrueExpr(), theta, seed=seed, samples=TRIAL_SAMPLES)


def disjointing_embeddings(space: Space, s: Event, dependency_events: list[Event],
                         alpha: Fraction) -> list[Embedding]:
    """The disjointing embeddings from the independence-impossibility
    argument: N faithful maps agreeing on everything the kb depends on,
    with pairwise disjoint images of S.  Requires every nonempty atom
    over the dependency events to meet both S and its complement."""
    atoms = atoms_over(dependency_events, space)
    n_target = int(1 / alpha) + 1  # first N with 1/N < alpha
    cells = []
    for atom in atoms:
        inside = sorted((atom & s).indices())
        outside = sorted((atom & ~s).indices())
        if not inside or not outside:
            raise CredalError("an atom misses S or its complement; construction undefined")
        cells.append((inside, outside))
    m = len(atoms)
    z = _plain_space("z", m * n_target)
    y = product_space([space, z])
    nz = m * n_target
    out = []
    for j in range(n_target):
        g = []
        for v in range(len(space.worlds)):
            for zz in range(nz):
                i, jj = zz // n_target, zz % n_target
                inside, outside = cells[i]
                pool = inside if jj == j else outside
                g.append(pool[v % len(pool)])
        out.append(from_surjection(space, y, g))
    return out


def default_independence_gadget():
    """Spaces, events and constraints of the default-independence
    counterexample: a band constraint on one coordinate of a two-fold
    product, the diagonal event, and the threshold query."""
    x = enumerate_worlds(["x"])
    xx = product_space([x, x])
    s_prime = cylinder(xx, 0, event_from_indices(x, [1]))
    diag = event_from_indices(xx, [0, 3])
    kb = And((LinearAtom(((_ONE, s_prime),), ">=", F(1, 3)),
              LinearAtom(((_ONE, s_prime),), "<=", F(2, 3))))
    query = LinearAtom(((_ONE, diag),), ">=", F(1, 3))
    return GadgetSpec(
        params={"alpha": F(1, 3)},
        spaces={"X": x, "XX": xx},
        events={"S": diag, "S_prime": s_prime},
        constraints={"kb": kb, "query": query},
    )


def _independence_gadget_path(proc, seed) -> InvarianceReport | None:
    g = default_independence_gadget()
    xx = g.spaces["XX"]
    kb, query = g.constraints["kb"], g.constraints["query"]
    vx = _try_infers(proc, kb, query, xx, seed=seed, samples=TRIAL_SAMPLES)
    if vx is None or not vx.holds:
        return None
    embs = disjointing_embeddings(xx, g.events["S"], [g.events["S_prime"]], g.params["alpha"])
    for emb in embs:
        rep = invariance_check(proc, emb, kb, query, seed=seed, samples=TRIAL_SAMPLES)
        if rep.violations:
            return rep
    return None


def replay_trial(proc: InferenceProcedure, t: int, seed: int, max_worlds: int = 8,
                 templates: str = "general") -> InvarianceReport | None:
    """Re-run one falsification trial; trials are a pure function of
    (procedure, trial index, seed), so reports replay bit-for-bit.  A
    sampled verdict draws TRIAL_SAMPLES measures on each side."""
    if templates == "general" and t == 0:
        return _colorful_trial(proc, seed)
    if templates == "general" and t == 1:
        return _independence_gadget_path(proc, seed)
    rng = _random.Random(seed * 1_000_003 + t)
    nx = rng.choice((2, 3, 4))
    ny = rng.randrange(nx, max_worlds + 1)
    x = _plain_space("u", nx)
    y = _plain_space("v", ny)
    emb = random_faithful_embedding(x, y, rng.randrange(2**30))
    kb = (_random_objective_kb(x, rng) if templates == "objective"
          else _random_kb(x, rng))
    theta = _random_theta(x, rng)
    return invariance_check(proc, emb, kb, theta, seed=seed, samples=TRIAL_SAMPLES)


def rep_independence_falsify(proc: InferenceProcedure, budget: int = 1000, seed: int = 0,
                             max_worlds: int = 8, templates: str = "general") -> FalsifyReport:
    """Search for an invariance violation over sampled spaces, faithful
    surjections, and template knowledge bases / queries.

    Trial 0 is the color-style refinement (which alone falsifies
    maximum entropy); trial 1 runs the default-independence gadget path;
    the rest are seeded random trials.  A found violation is replayed
    before being reported.  Source spaces have up to four worlds, so
    max_worlds must be at least 4; budget must be at least 1.
    """
    if max_worlds < 4 or budget < 1:
        raise CredalError(f"falsify needs max_worlds >= 4 and budget >= 1, "
                          f"got {max_worlds} and {budget}")
    for t in range(budget):
        rep = replay_trial(proc, t, seed, max_worlds, templates)
        if rep is not None and rep.violations:
            confirm = replay_trial(proc, t, seed, max_worlds, templates)
            if confirm is None or confirm.violations != rep.violations:
                continue  # does not replay: never report it
            return FalsifyReport(proc.name, t + 1, seed, replace(rep, trial=t))
    return FalsifyReport(proc.name, budget, seed)


# Robustness ----------------------------------------------------------------


@dataclass(frozen=True)
class RobustnessItem:
    query: ConstraintExpr
    verdict_base: bool | None
    verdict_extended: bool | None

    @property
    def agree(self) -> bool:
        return self.verdict_base == self.verdict_extended


@dataclass(frozen=True)
class RobustnessReport:
    procedure: str
    conservative_status: str
    items: tuple[RobustnessItem, ...]
    skipped: bool = False

    @property
    def robust_on_probe(self) -> bool:
        return not self.skipped and all(i.agree for i in self.items)


def robustness_check(proc: InferenceProcedure, kb: ConstraintExpr, psi: ConstraintExpr,
                     queries, xy_space: Space) -> RobustnessReport:
    """Compare verdicts about the first factor X of xy_space with and
    without a conservative extension.

    Skipped (with a note) unless the extension is verified conservative,
    since only then does the robustness definition apply.
    """
    cons = conservative_check(kb, psi, xy_space)
    if cons.status != "conservative_verified":
        return RobustnessReport(proc.name, cons.status, (), skipped=True)
    x_space = xy_space.factors[0]
    lift = factor_lift(xy_space, x_space)
    extended_kb = and_(translate(lift, kb), psi)
    items = []
    for q in queries:
        vb = _try_infers(proc, kb, q, x_space)
        ve = _try_infers(proc, extended_kb, translate(lift, q), xy_space)
        items.append(RobustnessItem(q, None if vb is None else vb.holds,
                                    None if ve is None else ve.holds))
    return RobustnessReport(proc.name, cons.status, tuple(items))


# Essential entailment -------------------------------------------------------


@dataclass(frozen=True)
class ProbeWitness:
    event: Event
    alpha: Fraction
    beta: Fraction
    kind: str  # "violation" | "strengthening"


@dataclass(frozen=True)
class ProbeReport:
    procedure: str
    witnesses: tuple[ProbeWitness, ...]

    @property
    def essentially_entailment(self) -> bool:
        return all(w.kind != "violation" for w in self.witnesses)


def essentially_entailment_probe(proc: InferenceProcedure, kb: ConstraintExpr,
                                 events, space: Space | None = None) -> ProbeReport:
    """Look for inferred open intervals alpha < Pr(S) < beta, for 0 <= alpha
    < beta <= 1, over space (by default `space_of(kb)`).

    The pairs come from two closed ranges of Pr(S): kb's [klo, khi] and
    the selection's [lo, hi], a constraint selection's `linear_range` or
    the least and greatest Pr(S) of a finite one, each clipped to kb's
    (a float selection was kept in [[kb]] at EPS).  alpha is halfway from
    klo to lo when lo > klo, else klo, or lo/2; beta is halfway from hi
    to khi when hi < khi, else khi, or (1 + hi)/2.  Each pair is judged
    by `infers`, at EPS for float measures, and by `entails`.

    A "violation" witness is one whose closed form is not entailed (the
    procedure genuinely jumped); a "strengthening" witness is entailed
    closed but not open (the only jump essential entailment allows).  A
    kb outside the procedure's domain has no witness; the product family,
    which has no enumerable selection, is refused as by `select`.
    """
    space = space or space_of(kb)
    try:
        selection = select(proc, kb, space)
    except DomainError:
        return ProbeReport(proc.name, ())
    witnesses = []
    for s in events:
        terms = ((_ONE, s),)
        kb_range = linear_range(kb, terms, space)
        if kb_range is None:
            continue  # an empty kb entails every interval
        klo, khi = kb_range
        if isinstance(selection, tuple):
            ps = [min(max(Fraction(m.prob(s)), klo), khi) for m in selection]
            lo, hi = min(ps), max(ps)
        else:
            lo, hi = linear_range(selection, terms, space)
        alphas = {(klo + lo) / 2 if lo > klo else klo, lo / 2}
        betas = {(hi + khi) / 2 if hi < khi else khi, (1 + hi) / 2}
        for a, b in sorted((a, b) for a in alphas for b in betas if a < b):
            open_q = And((LinearAtom(terms, ">", a), LinearAtom(terms, "<", b)))
            v = _try_infers(proc, kb, open_q, space)
            if v is None or not v.holds:
                continue
            closed_q = And((LinearAtom(terms, ">=", a), LinearAtom(terms, "<=", b)))
            if not entails(kb, closed_q, space):
                witnesses.append(ProbeWitness(s, a, b, "violation"))
            elif not entails(kb, open_q, space):
                witnesses.append(ProbeWitness(s, a, b, "strengthening"))
    return ProbeReport(proc.name, tuple(witnesses))


# Gadgets ---------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GadgetSpec:
    params: dict
    spaces: dict
    events: dict
    constraints: dict
    extra: dict = field(default_factory=dict)


def tuple_cover_gadget(n: int, d: int) -> GadgetSpec:
    """A tuple space whose cover structure pins an exact threshold.

    Worlds are the injective d-tuples over {1..n}; U_i collects the
    tuples containing i.  Every world lies in exactly d of the U_i, so
    the U-masses always sum to d and no measure can push all of them
    above d/n -- yet each single U_i can carry mass 1 while the others
    keep (d-1)/(n-1).  This asymmetry is what forces robust procedures
    toward entailment.
    """
    if not 2 <= d < n:
        raise ValueError("need 2 <= d < n")
    if perm(n, d) > GADGET_WORLD_CAP:
        raise ValueError("gadget exceeds the world cap")
    tuples = list(permutations(range(1, n + 1), d))
    space = _plain_space("t", len(tuples))
    u_events = []
    for i in range(1, n + 1):
        ids = [k for k, tup in enumerate(tuples) if i in tup]
        u_events.append(event_from_indices(space, ids))
    return GadgetSpec(
        params={"n": n, "d": d},
        spaces={"Y0": space},
        events={},
        constraints={},
        extra={"tuples": tuples, "U": u_events},
    )


def gadget_counts(g: GadgetSpec) -> dict:
    n, d = g.params["n"], g.params["d"]
    tuples = g.extra["tuples"]
    u = g.extra["U"]
    pair_sizes = {(i, j): (u[i] & u[j]).count
                  for i in range(n) for j in range(n) if i < j}
    degree = [sum(1 for ev in u if k in ev) for k in range(len(tuples))]
    return {
        "worlds": len(tuples),
        "u_sizes": [ev.count for ev in u],
        "pair_sizes": pair_sizes,
        "coverage_degree": degree,
    }


def gadget_conjunction(g: GadgetSpec, alpha: Fraction) -> ConstraintExpr:
    return and_(*(LinearAtom(((_ONE, ev),), ">", alpha) for ev in g.extra["U"]))


def gadget_feasible(g: GadgetSpec, alpha: Fraction) -> bool:
    return satisfiable(gadget_conjunction(g, alpha), g.spaces["Y0"]).feasible


def gadget_witnesses(g: GadgetSpec) -> list[Measure]:
    """The uniform measure on each U_i, as the uniform measure on Y0
    conditioned on U_i: mass 1 on U_i and (d-1)/(n-1) on every other U_j."""
    uniform = Measure.uniform(g.spaces["Y0"], RATIONAL)
    return [condition(uniform, ev) for ev in g.extra["U"]]


def conservative_extension_demo(nu: Measure | None = None, i: int = 0,
                              gamma: Fraction = F(1, 3)) -> dict:
    """The sigma-conservativeness mechanism at (n, d) = (3, 2), |X| = 2.

    Builds Z = X^3 x Y0 x Y^3 (384 worlds), the coupling constraint
    sigma, and an extension mu of an arbitrary X-measure nu whose i-th
    marginal is nu and which satisfies sigma exactly, by iterated
    coupling: mu0 (`gadget_witnesses`' i-th) times Bernoulli Y-factors
    that give each V_j = U_j x {yy} the mass nu_j(S) (nu at i, gamma
    elsewhere), coupled by `measures.couple` with nu_j, S against V_j,
    for j = 2, 1, 0.  The result lists Z's worlds and is rebased onto Z.
    """
    n, d = 3, 2
    if not gamma < F(d - 1, n - 1):
        raise ValueError("gamma must be below (d-1)/(n-1)")
    x = enumerate_worlds(["s"])
    s = event_of(x, "s")  # S = {x world index 1}
    if nu is None:
        nu = Measure.rational(x, [F(63, 100), F(37, 100)])
    g = tuple_cover_gadget(n, d)
    y0 = g.spaces["Y0"]
    y = enumerate_worlds(["yy"])
    y_true = event_of(y, "yy")
    z = product_space([x, x, x, y0, y, y, y])

    u = g.extra["U"]
    mu0 = gadget_witnesses(g)[i]
    nu0 = Measure.rational(x, [1 - gamma, gamma])  # Pr(S) = gamma
    nus = [nu if j == i else nu0 for j in range(n)]
    y_probs = [nu.prob(s) if j == i else gamma / mu0.prob(u[j]) for j in range(n)]

    mu = product_measure([mu0, *(Measure.rational(y, [1 - p, p]) for p in y_probs)])
    v_events = [cylinder(mu.space, 0, u[j]) & cylinder(mu.space, 1 + j, y_true)
                for j in range(n)]
    for j in reversed(range(n)):
        mu = couple(nus[j], s, mu, v_events[j])
        v_events = [cylinder(mu.space, 1, ev) for ev in v_events]
    if mu.space.worlds != z.worlds:
        raise CredalError("the coupled space does not list Z's worlds in order")
    mu = Measure(z, mu.weights, RATIONAL)
    v_events = [Event(z, ev.mask) for ev in v_events]
    s_events = [cylinder(z, j, s) for j in range(n)]

    sigma = and_(*(LinearAtom(((_ONE, (s_events[j] & v_events[j]) | (~s_events[j] & ~v_events[j])),),
                              "=", _ONE) for j in range(n)))
    marginals = [mu.marginal(z.factors[j]) for j in range(n)]
    s_index = next(s.indices())
    return {
        "space": z,
        "sigma": sigma,
        "measure": mu,
        "sigma_holds": satisfies(mu, sigma),
        "marginal_matches_nu": marginals[i].weights == nu.weights,
        "other_marginals_gamma": all(marginals[j].weights[s_index] == gamma
                                     for j in range(n) if j != i),
        "v_masses": [mu.prob(ev) for ev in v_events],
        "expected_vi": nu.prob(s),
        "gamma": gamma,
    }


# Bootstrap ---------------------------------------------------------------


@dataclass(frozen=True)
class BootstrapReport:
    corresponds: bool
    violations: tuple[InvarianceViolation, ...]
    pairs_tested: int

    @property
    def consistent_with_biconditional(self) -> bool:
        return self.corresponds == (not self.violations)


def _pin_query(mu: Measure) -> ConstraintExpr:
    parts = [LinearAtom(((_ONE, event_from_indices(mu.space, [idx])),), "=", Fraction(w))
             for idx, w in enumerate(mu.weights)]
    return And(tuple(parts))


def bootstrap_check(prior_x, prior_y, emb: Embedding, corpus=None) -> BootstrapReport:
    """Test both sides of the prior-correspondence biconditional.

    The priors' correspondence is decided on the measures as given, so
    exactly between rational ones (`Measure.is_close`), and the induced
    prior-based procedure updates them as given; its invariance is
    checked over the corpus, always including kb = true, which is
    decisive: a non-corresponding pair is separated by pinning the
    offending measure's weights.
    """
    prior_x, prior_y = tuple(prior_x), tuple(prior_y)
    gap = correspondence_gap(emb, prior_x, prior_y)
    prior = PriorFunction.of({emb.source: prior_x, emb.target: prior_y})
    proc = InferenceProcedure.prior_based(prior)

    pairs = list(corpus) if corpus is not None else invariance_pairs_on(emb.source)
    violations: list[InvarianceViolation] = []
    for kb, theta in pairs:
        violations.extend(invariance_check(proc, emb, kb, theta).violations)
    if gap is not None and not violations:
        # the decisive separating query pins the offending measure
        pairs.append((TrueExpr(), Not(_pin_query(gap))))
        violations.extend(invariance_check(proc, emb, *pairs[-1]).violations)
    return BootstrapReport(gap is None, tuple(violations), len(pairs))


def invariance_pairs_on(space: Space):
    """Invariance corpus adapted to an arbitrary small space."""
    ev = event_from_indices(space, [0])
    half = LinearAtom(((_ONE, ev),), "=", F(1, 2))
    low = LinearAtom(((_ONE, ev),), ">=", F(1, 4))
    band = And((LinearAtom(((_ONE, ev),), ">=", F(1, 4)),
                LinearAtom(((_ONE, ev),), "<=", F(3, 4))))
    return [
        (TrueExpr(), half),
        (TrueExpr(), low),
        (band, low),
        (LinearAtom(((_ONE, ev),), "=", F(1, 4)), LinearAtom(((_ONE, ev),), "<=", F(1, 2))),
    ]


# Product-prior invariance ---------------------------------------------------


@dataclass(frozen=True)
class ProductsReport:
    product_trials: int
    product_violations: tuple[InvarianceReport, ...]
    permutation_trials: int
    permutation_violations: tuple[InvarianceReport, ...]
    crossing_violation: InvarianceReport | None

    @property
    def consistent_with_theorem(self) -> bool:
        return (not self.product_violations and not self.permutation_violations
                and self.crossing_violation is not None)


def _crossing_violation_instance(proc, seed) -> InvarianceReport | None:
    """A faithful interpretation embedding into an indecomposable space:
    the product prior stops enforcing independence, so the structural
    independence query separates the two sides."""
    src = product_space([enumerate_worlds(["p"]), enumerate_worlds(["q"])])
    parity = enumerate_worlds(["pa", "pb", "pc"], "pc <=> !(pa <=> pb)")
    emb = from_interpretation({"p": "pa", "q": "pb"}, src, parity)
    cyl_p = event_of(src, "p")
    cyl_q = event_of(src, "q")
    theta = ProductAtom(cyl_p & cyl_q, (cyl_p, cyl_q))
    rep = invariance_check(proc, emb, TrueExpr(), theta, seed=seed)
    return rep if rep.violations else None


def products_invariance_check(seed: int = 0, n_product: int = 200,
                              n_perm: int = 50) -> ProductsReport:
    """Invariance of the product-family prior under faithful product and
    permutation embeddings, plus one boundary-crossing violation."""
    proc = InferenceProcedure.prior_based(PriorFunction.product_family())
    a = enumerate_worlds(["p"])
    b = enumerate_worlds(["q"])
    templates_a = factor_kb_templates(a)
    templates_b = factor_kb_templates(b)

    def trial(emb, templates, rng) -> InvarianceReport:
        # one template kb per factor of emb's source, then a product query
        kb = and_(*(_lift_factor_kb(emb.source, k, ts[rng.randrange(len(ts))])
                    for k, ts in enumerate(templates)))
        theta = _random_product_query(emb.source, rng)
        return invariance_check(proc, emb, kb, theta, seed=seed)

    product_reports = []
    for t in range(n_product):
        rng = _random.Random(seed * 7_654_321 + t)
        ta, tb = rng.choice((2, 3, 4)), rng.choice((2, 3, 4))
        fa = random_faithful_embedding(a, _plain_space("ra", ta), rng.randrange(2**30))
        fb = random_faithful_embedding(b, _plain_space("rb", tb), rng.randrange(2**30))
        product_reports.append(trial(product_embedding([fa, fb]), (templates_a, templates_b), rng))

    swap = permutation_embedding(product_space([a, a]), [1, 0])
    perm_reports = [trial(swap, (templates_a, templates_a), _random.Random(seed * 97_531 + t))
                    for t in range(n_perm)]
    return ProductsReport(n_product, tuple(r for r in product_reports if r.violations),
                          n_perm, tuple(r for r in perm_reports if r.violations),
                          _crossing_violation_instance(proc, seed))


def _lift_factor_kb(space: Space, k: int, kb: ConstraintExpr) -> ConstraintExpr:
    # The factor has the same world list, possibly a renamed vocabulary.
    factor = space.factors[k]
    retargeted = map_events(kb, lambda e: Event(factor, e.mask))
    return translate(factor_lift(space, factor), retargeted)


def _random_product_query(space: Space, rng: _random.Random) -> ConstraintExpr:
    """A query over the two factors: the structural independence atom, a
    rectangle atom, or a two-term atom Pr(E1) - b Pr(E2) cmp 0 over
    arbitrary events.  The exact product-prior path decides the first
    two unless their failing tuples lie outside [[kb]]; the third only
    while the vertex tuples are within its budget, else it is sampled."""
    f0, f1 = space.factors
    e0 = _random_event(f0, rng)
    e1 = _random_event(f1, rng)
    c0 = cylinder(space, 0, e0)
    c1 = cylinder(space, 1, e1)
    shape = rng.random()
    if shape < 0.4:
        return ProductAtom(c0 & c1, (c0, c1))
    cmp = rng.choice(("<=", ">=", "=", "<", ">"))
    bound = rng.choice(BOUND_GRID)
    if shape < 0.7:
        return LinearAtom(((_ONE, c0 & c1),), cmp, bound)
    terms = ((_ONE, _random_event(space, rng)), (-bound, _random_event(space, rng)))
    return LinearAtom(terms, cmp, F(0))
