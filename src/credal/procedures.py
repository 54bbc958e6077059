"""Inference procedures: entailment, maxent, I0, I1, and prior-based.

A procedure maps a knowledge base's denotation to a subset of it, its
selection; a query follows when every selected measure satisfies it.
A selection is a tuple of measures (relative-entropy updating from
finite priors; maximum entropy is the uniform prior) or a constraint
whose denotation is the set (entailment, I0, I1, and `true` for the
broken control).  The product-measure family has no enumerable
selection, and `infers` decides it directly: a factorized kb exactly
at tuples of its factor kbs' closure vertices, which the simplex
tableau lists by pivoting, or at per-factor optima beyond the tuple
budget (`product_prior_infer`).  Any other kb is decided exactly by two
rules that project nothing, since a point mass is a product prior and
one in [[kb]] is its own projection: a point mass of [[kb]] that
violates theta refutes it, and kb |= theta proves it.  What they leave
is decided by seeded sampling falsification, whose `Verdict.samples`
counts the measures checked; a kb that is not closed is projected
first, so one outside the domain raises on every query.

A procedure is a function of the kb, so the work on the kb alone is
done once per kb and a query pays only for checking its theta: memos
keep `select`'s selection per (proc, kb, space), and the product
family's `_factorize` split per (kb, space), vertex-tuple product
weights per (factor kbs, space, samples) and sampled selection per
(kb, space, seed, samples).  Each memo is an `lru_cache` on a
module-level function, which the bench clears before each round, and
none stores a raise: a kb outside the domain raises on every query.
"""

from __future__ import annotations

import itertools
import math
import random as _random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .constraints import (
    And,
    ConstraintExpr,
    FalseExpr,
    LinearAtom,
    Not,
    ProductAtom,
    TrueExpr,
    and_,
    atoms_of,
    check_space,
    has_product_atom,
    map_atoms,
    satisfies,
    space_of,
    translate,
)
from .embeddings import factor_lift
from .entail import (
    _atom_row,
    _point_mass_event,
    cells,
    entails,
    equivalent,
    is_interesting,
    linear_extremes,
    objective_normal_form,
    sample_measures,
    satisfiable,
)
from .errors import CredalError
from .measures import Measure, product_measure
from .optimize import update_set, updates
from .spaces import (
    Event,
    Space,
    component_map,
    cylinder,
    event_from_indices,
    product_decomposition,
    product_space,
    whole_event,
)

_ONE = Fraction(1)

ENTAILMENT = "entailment"
I0 = "i0"
I1 = "i1"
PRIOR_BASED = "prior_based"
BROKEN = "broken"

UNIFORM = "uniform"
FINITE = "finite"
PRODUCT_FAMILY = "product_family"


@dataclass(frozen=True)
class PriorFunction:
    """Assigns each space its set of prior measures."""

    kind: str  # uniform | finite | product_family
    finite: tuple[tuple[Space, tuple[Measure, ...]], ...] = ()

    @staticmethod
    def uniform() -> "PriorFunction":
        return PriorFunction(UNIFORM)

    @staticmethod
    def product_family() -> "PriorFunction":
        return PriorFunction(PRODUCT_FAMILY)

    @staticmethod
    def of(assignment: Mapping[Space, Sequence[Measure]]) -> "PriorFunction":
        items = []
        for space, measures in assignment.items():
            if not measures:
                raise ValueError("finite prior lists must be nonempty")
            if any(m.space != space for m in measures):
                raise ValueError("a prior measure lives on a different space than its key")
            items.append((space, tuple(measures)))
        return PriorFunction(FINITE, tuple(items))

    def measures_for(self, space: Space) -> tuple[Measure, ...]:
        if self.kind == UNIFORM:
            return (Measure.uniform(space),)
        if self.kind == FINITE:
            for sp, ms in self.finite:
                if sp == space:
                    return ms
            raise CredalError(f"no prior declared for {space!r}")
        raise CredalError("the product family is not a finite prior list")


@dataclass(frozen=True)
class InferenceProcedure:
    name: str
    kind: str
    prior: PriorFunction | None = None

    @staticmethod
    def entailment() -> "InferenceProcedure":
        return InferenceProcedure("entailment", ENTAILMENT)

    @staticmethod
    def maxent() -> "InferenceProcedure":
        """Relative-entropy updating from the uniform prior."""
        return InferenceProcedure.prior_based(PriorFunction.uniform(), "maxent")

    @staticmethod
    def i0() -> "InferenceProcedure":
        return InferenceProcedure("I0", I0)

    @staticmethod
    def i1() -> "InferenceProcedure":
        return InferenceProcedure("I1", I1)

    @staticmethod
    def prior_based(prior: PriorFunction, name: str | None = None) -> "InferenceProcedure":
        return InferenceProcedure(name or f"I^{prior.kind}", PRIOR_BASED, prior)

    @staticmethod
    def broken() -> "InferenceProcedure":
        """Negative control: ignores the knowledge base (violates I(A) <= A)."""
        return InferenceProcedure("broken", BROKEN)


@dataclass(frozen=True)
class Verdict:
    holds: bool
    evidence: tuple[Measure, ...] = ()
    mode: str = "exact"  # "exact" | "sampled"
    samples: int | None = None
    seed: int | None = None

    def __bool__(self):
        return self.holds


def i0_select(kb: ConstraintExpr, space: Space | None = None) -> ConstraintExpr:
    """Selection of the objective-strengthening procedure on space (by
    default `space_of(kb)`).

    For kb equivalent to Pr(T) = 1 the selection is the measures
    concentrated on T with full support on it: over a finite space every
    constraint 0 < Pr(S) < 1 for nonempty strict subsets S of T reduces
    to per-world positivity, so the exponential family of subset
    constraints is represented by |T| strict atoms.  Non-objective kb
    selects its whole denotation (entailment behavior).
    """
    space = space or space_of(kb)
    t = objective_normal_form(kb, space)
    if t is None:
        return kb
    if t.count == 0:
        return FalseExpr()
    parts: list[ConstraintExpr] = [LinearAtom(((_ONE, t),), "=", _ONE)]
    if t.count >= 2:
        for i in t.indices():
            singleton = event_from_indices(space, [i])
            parts.append(LinearAtom(((_ONE, singleton),), ">", Fraction(0)))
    return and_(*parts)


def i1_select(kb: ConstraintExpr, space: Space | None = None) -> ConstraintExpr:
    """Selection tightening Pr(S) >= 1/4 knowledge bases to Pr(S) >= 1/3,
    on space (by default `space_of(kb)`)."""
    space = space or space_of(kb)
    s = is_interesting(kb, space)
    if s is None:
        return kb
    return LinearAtom(((_ONE, s),), ">=", Fraction(1, 3))


@lru_cache(maxsize=256)
def select(proc: InferenceProcedure, kb: ConstraintExpr,
           space: Space | None = None) -> tuple[Measure, ...] | ConstraintExpr:
    """The procedure's selection for kb on space, by default
    `space_of(kb)` (not for the product family).

    Prior-based procedures, maxent among them, select the tuple of
    their priors' projections onto kb, deduplicated and sorted (empty
    when kb is unsatisfiable); kb is outside their domain, and
    DomainError is raised, when a projection is not attained or when a
    satisfiable kb is at infinite divergence from a prior (`updates`).
    Entailment, I0, I1 and broken select a constraint: the selection is
    its denotation.

    The selection depends on the kb alone, so it is computed once per
    (proc, kb, space) and every query on the kb reads it.  A raise is
    not memoised: a kb outside the domain raises on every call.  256
    selections hold the working set of the KLM grid, whose rows read 56
    distinct kbs for each of the four procedures that select.
    """
    space = space or space_of(kb)
    if proc.kind == ENTAILMENT:
        return kb
    if proc.kind == BROKEN:
        return TrueExpr()
    if proc.kind == I0:
        return i0_select(kb, space)
    if proc.kind == I1:
        return i1_select(kb, space)
    if proc.kind == PRIOR_BASED:
        if proc.prior.kind == PRODUCT_FAMILY:
            raise CredalError("product-family selections are not enumerable; use infers")
        return update_set(proc.prior.measures_for(space), kb)
    raise ValueError(f"unknown procedure kind {proc.kind!r}")


def _check_all_satisfy(selection: tuple[Measure, ...] | ConstraintExpr, theta: ConstraintExpr,
                       space: Space, seed: int, samples: int) -> Verdict:
    if isinstance(selection, tuple):
        for m in selection:
            if not satisfies(m, theta):
                return Verdict(False, (m,))
        return Verdict(True, selection)
    if not has_product_atom(theta):
        counter = satisfiable(and_(selection, Not(theta)), space)
        return Verdict(False, (counter.witness,)) if counter.feasible else Verdict(True)
    return _sampled(sample_measures(selection, space, samples, seed), theta, seed)


def infers(proc: InferenceProcedure, kb: ConstraintExpr, theta: ConstraintExpr,
           space: Space | None = None, seed: int = 0, samples: int = 200) -> Verdict:
    """KB |~ theta under the procedure over space, by default `space_of(kb,
    theta)`: every selected measure satisfies theta.  Exact for finite
    selections and for linear queries against denotations; sampled
    falsification otherwise.  Float measures are judged by `satisfies`,
    at the `measures.EPS` at which a projection already kept them inside
    [[kb]], so KB |~ KB holds.  ``samples`` below 1 raises ValueError: a
    sampled verdict that checked no measure would hold vacuously."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, not {samples}")
    space = space or space_of(kb, theta)
    if has_product_atom(kb):
        raise CredalError("product atoms are query-only; they cannot appear in kb")
    if proc.kind == PRIOR_BASED and proc.prior.kind == PRODUCT_FAMILY:
        check_space(space, [*atoms_of(kb), *atoms_of(theta)])  # read by _atom_row, holds_at
        kbs = _factorize(kb, space)
        if kbs is None:
            return _product_family_sampled(kb, theta, space, seed, samples)
        return product_prior_infer(kbs, theta, space, seed=seed, samples=samples)
    selection = select(proc, kb, space)
    return _check_all_satisfy(selection, theta, space, seed, samples)


# Product-family machinery ------------------------------------------------


@lru_cache(maxsize=None)
def _pi_factors(space: Space) -> tuple[Space, ...]:
    """Factors the product prior refers to: the declared ones, else the
    maximal product decomposition."""
    if space.factors is not None:
        return space.factors
    return tuple(product_decomposition(space))


def _rectangle(event: Event, space: Space) -> list[Event] | None:
    """The event's projections onto the factors when the event is their
    product, else None."""
    projections = []
    rect = whole_event(space).mask
    for f in _pi_factors(space):
        comp = component_map(space, f)
        u = event_from_indices(f, {comp[i] for i in event.indices()})
        rect &= cylinder(space, f, u).mask
        projections.append(u)
    return projections if rect == event.mask else None


@lru_cache(maxsize=64)
def _factorize(kb: ConstraintExpr, space: Space) -> tuple[ConstraintExpr, ...] | None:
    """Split a conjunction into per-factor constraints, if possible.

    An atom is read by its world coefficients, its integer row
    (`entail._atom_row`), however its events are written: it is about
    factor k when they depend on a world's k-th component alone, so
    about every factor when they are all equal.  A conjunct goes to the
    least factor that all its atoms are about (a false one to factor 0,
    emptying the selection); with none, kb does not split.  Computed
    once per (kb, space): 64 splits hold the 56 distinct kbs of the KLM
    grid's product-family rows.
    """
    factors = _pi_factors(space)
    comps = [component_map(space, f) for f in factors]
    out: list[ConstraintExpr] = [TrueExpr()] * len(factors)
    for conj in kb.items if isinstance(kb, And) else (kb,):
        rows = {atom: _atom_row(atom, len(space.worlds)) for atom in atoms_of(conj)}
        k = next((j for j, comp in enumerate(comps)
                  if all(_reads_only(comp, row.ints) for row in rows.values())), None)
        if k is None:
            return None
        out[k] = and_(out[k], map_atoms(conj, lambda atom: _factor_atom(
            atom, rows[atom], factors[k], comps[k])))
    return tuple(out)


def _reads_only(comp: Sequence[int], ints: Sequence[int]) -> bool:
    """Whether world coefficients depend on the world's component comp alone."""
    by_world = dict(zip(comp, ints))
    return all(by_world[x] == v for x, v in zip(comp, ints))


def _factor_atom(atom: LinearAtom, row, f: Space, comp: Sequence[int]) -> LinearAtom:
    """The atom on factor f, whose component comp its row reads alone: its
    comparator and bound, and its coefficients grouped by value into terms
    (none for 0, so one on the empty event when all are 0)."""
    by_world, worlds = dict(zip(comp, row.ints)), {}
    for x in range(len(f.worlds)):
        if by_world[x]:
            worlds.setdefault(by_world[x], []).append(x)
    terms = tuple((Fraction(v, row.scale), event_from_indices(f, xs)) for v, xs in worlds.items())
    return LinearAtom(terms or ((_ONE, event_from_indices(f, ())),), atom.cmp, atom.bound)


def _sampled(candidates: Iterable[Measure], theta: ConstraintExpr, seed: int) -> Verdict:
    """Sampled falsification: the first candidate that violates theta
    refutes it; `samples` counts the candidates checked."""
    checked = 0
    for mu in candidates:
        checked += 1
        if not satisfies(mu, theta):
            return Verdict(False, (mu,), mode="sampled", samples=checked, seed=seed)
    return Verdict(True, mode="sampled", samples=checked, seed=seed)


def product_prior_infer(kbs: Sequence[ConstraintExpr], theta: ConstraintExpr, space: Space,
                        seed: int = 0, samples: int = 400) -> Verdict:
    """Inference under the all-product-measures prior, for a factorized kb.

    The updated set is exactly the product measures whose factors satisfy
    their constraints.  Product atoms over disjoint-factor rectangles
    hold structurally.  A linear atom is multilinear in the factor
    measures, so its extremes over the closure of the set lie at tuples
    of the factor kbs' closure vertices (`Cell.vertices`, of any size).
    Within `samples` tuples each linear conjunct of theta is checked at
    every one; beyond, a single-rectangle atom is checked at the two
    tuples of per-factor LP optima where its probability is least and
    greatest, two LPs per factor cell.  A pass everywhere proves theta;
    a failure refutes it when the factor kbs are closed (`_closed`: no
    DNF cell with a witness has a strict atom), with the product measure
    at that tuple as evidence.
    Anything else falls back to seeded sampling falsification over
    random product measures; `Verdict.samples` counts the measures
    checked.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, not {samples}")
    factors = _pi_factors(space)
    if len(kbs) != len(factors):
        raise ValueError("kbs must align with the space's factors")
    for kb_i, f in zip(kbs, factors):
        if not satisfiable(kb_i, f).feasible:
            return Verdict(True)  # empty selection: trivially holds

    exact = _exact_product_verdict(kbs, theta, space, factors, samples)
    if exact is not None:
        return exact

    rng = _random.Random(seed)
    factor_samples = [sample_measures(kb_i, f, max(4, samples // 8), rng.randrange(2**30))
                      for kb_i, f in zip(kbs, factors)]
    draws = (product_measure([fs[rng.randrange(len(fs))] for fs in factor_samples], space)
             for _ in range(samples if all(factor_samples) else 0))
    return _sampled(draws, theta, seed)


def _product_family_sampled(kb: ConstraintExpr, theta: ConstraintExpr, space: Space,
                            seed: int, samples: int) -> Verdict:
    """theta for a non-factorized kb under the product prior.

    Every point mass is a product prior, and one in [[kb]] is its own
    projection, so two rules are exact and project nothing: the first
    point mass of [[kb]], in world order, that violates theta refutes it
    with that point mass as evidence, and kb |= theta proves a theta
    without product atoms.  Anything else is falsified over the sampled
    members of the selection (`_sampled_selection`).  The selection is
    computed first when kb is not closed (`_closed`), as only such a kb
    can leave a projection unattained, so a kb outside the domain raises
    DomainError on every query.
    """
    if not satisfiable(kb, space).feasible:
        return Verdict(True)  # empty selection: trivially holds
    if not _closed(kb, space):
        _sampled_selection(kb, space, seed, samples)
    for i in _point_mass_event(cells(kb, space), space).indices():
        corner = Measure.point_mass(space, i)
        if not satisfies(corner, theta):
            return Verdict(False, (corner,))
    if not has_product_atom(theta) and entails(kb, theta, space):
        return Verdict(True)
    return _sampled(_sampled_selection(kb, space, seed, samples), theta, seed)


def _closed(kb: ConstraintExpr, space: Space) -> bool:
    """Whether no DNF cell of kb on space that has a witness is strict,
    an empty strict cell adding no point: [[kb]] is then a union of
    closed cells, so it holds their closure vertices, and the projection
    onto it of a prior at finite divergence is attained (Csiszar 1975)."""
    return not any(cell.strict and cell.witness() is not None for cell in cells(kb, space))


@lru_cache(maxsize=64)
def _sampled_selection(kb: ConstraintExpr, space: Space, seed: int,
                       samples: int) -> tuple[Measure, ...]:
    """Sampled members of the product family's selection for kb.

    The selection is the union of the priors' projections onto [[kb]]
    (generally not product measures), so product priors are drawn and
    their `updates` attainers are the samples, in prior order and with
    duplicates.  Counterexamples live at the corners, so the corner
    priors come first: the point masses that satisfy kb, in world order,
    each its own exact projection.  The uniform and random full-support
    product priors of `_product_priors` follow.  Computed whole, once
    per (kb, space, seed, samples): a kb outside the domain raises
    DomainError for every query.  64 hold the 13 keys one KLM round asks
    for, the kbs whose queries the exact rules leave undecided.
    """
    corners = (Measure.point_mass(space, i)
               for i in _point_mass_event(cells(kb, space), space).indices())
    return updates(itertools.chain(corners, _product_priors(space, seed, samples)), kb)


@lru_cache(maxsize=256)
def _product_priors(space: Space, seed: int, samples: int) -> tuple[Measure, ...]:
    """The uniform product prior, then max(1, samples // 8) seeded random
    full-support ones: they depend on the space and the seed, not on
    kb, so one draw serves every kb and query."""
    factors = _pi_factors(space)
    rng = _random.Random(seed)
    priors = [product_measure([Measure.uniform(f) for f in factors], space)]
    for _ in range(max(1, samples // 8)):
        parts = []
        for f in factors:
            raw = [rng.random() + 1e-3 for _ in f.worlds]
            total = sum(raw)
            parts.append(Measure.from_floats(f, [w / total for w in raw]))
        priors.append(product_measure(parts, space))
    return tuple(priors)


def _exact_product_verdict(kbs, theta, space, factors, samples) -> Verdict | None:
    """theta's exact verdict over the product measures of the factor
    kbs, or None when it needs sampling (see `product_prior_infer`)."""
    linear, undecided = [], False
    for conj in theta.items if isinstance(theta, And) else (theta,):
        if isinstance(conj, FalseExpr):
            return Verdict(False)
        if isinstance(conj, LinearAtom):
            linear.append(conj)
        elif not (isinstance(conj, TrueExpr) or isinstance(conj, ProductAtom)
                  and _structural_product_atom(conj, space)):
            undecided = True
    if not linear:
        return None if undecided else Verdict(True)
    products = _vertex_products(tuple(kbs), space, samples)
    if products is not None:
        checks = ((weights, linear) for weights in products)
    else:
        checks = []
        for atom in linear:
            rect = _rectangle(atom.terms[0][1], space) if len(atom.terms) == 1 else None
            if rect is None:
                undecided = True
            else:
                # each factor's Pr(u) is nonnegative, so the rectangle's
                # probability is least and greatest where every factor's is
                ends = [linear_extremes(kb_i, ((_ONE, u),), f)
                        for kb_i, f, u in zip(kbs, factors, rect)]
                checks += [(_product_weights(tuple(end[k][0] for end in ends), space), [atom])
                           for k in (0, 1)]
    for weights, atoms in checks:
        if all(atom.holds_at(weights) for atom in atoms):
            continue
        if not all(_closed(kb_i, f) for kb_i, f in zip(kbs, factors)):
            return None  # the corner may lie outside the selection
        return Verdict(False, (Measure.rational(space, weights),))
    return None if undecided else Verdict(True)


def _product_weights(corner: Sequence[Sequence[Fraction]], space: Space) -> tuple[Fraction, ...]:
    """The world weights of the product of one measure per factor."""
    comps = [component_map(space, f) for f in _pi_factors(space)]
    return tuple(math.prod(v[comp[x]] for v, comp in zip(corner, comps))
                 for x in range(len(space.worlds)))


@lru_cache(maxsize=64)
def _vertex_products(kbs: tuple[ConstraintExpr, ...], space: Space,
                     samples: int) -> tuple[tuple[Fraction, ...], ...] | None:
    """The world weights of the product measure at every tuple of
    `_vertex_tuples`, or None beyond the budget.  They depend on the kb
    alone, so they are computed once per (kbs, space, samples), and every
    query checks its linear atoms at them; tuples, so that no caller can
    change a kept entry.  64 hold the 26 keys one KLM round asks for."""
    tuples = _vertex_tuples(kbs, _pi_factors(space), samples)
    return None if tuples is None else tuple(_product_weights(t, space) for t in tuples)


def _vertex_tuples(kbs, factors, samples) -> Iterator[tuple[list[Fraction], ...]] | None:
    """Every tuple of the factor kbs' closure vertices (`Cell.vertices`),
    or None when the tuples would number more than `samples`.  Past the
    earlier factors' tuples, more than samples // their count vertices
    on a factor are too many, so no cell's walk goes beyond that.  Every
    factor kb is satisfiable here (`product_prior_infer`), and a cell
    with a witness has a closure vertex, so every factor lists one."""
    vertices: list[list[list[Fraction]]] = []
    for kb_i, f in zip(kbs, factors):
        limit = samples // math.prod(len(v) for v in vertices)
        found: list[list[Fraction]] = []
        for cell in cells(kb_i, f):
            if cell.witness() is not None:
                if (listed := cell.vertices(limit)) is None:
                    return None
                found += [v for v in listed if v not in found]
        if len(found) > limit:
            return None
        vertices.append(found)
    return itertools.product(*vertices)


def _structural_product_atom(atom: ProductAtom, space: Space) -> bool:
    """True when every product measure satisfies Pr(A) = Pr(B) Pr(C):
    B and C are rectangles, A = B & C, and B and C constrain disjoint
    factor sets."""
    pb, pc = (_rectangle(ev, space) for ev in atom.rhs)
    if pb is None or pc is None or (atom.rhs[0] & atom.rhs[1]).mask != atom.lhs.mask:
        return False
    return all(b.count == len(b.space) or c.count == len(c.space) for b, c in zip(pb, pc))


def minimal_default_independence_check(proc: InferenceProcedure, kb: ConstraintExpr,
                                       s: Event, t: Event) -> Verdict:
    """Does the procedure conclude Pr(S x T) = Pr(S) Pr(T) for a fresh T?

    The kb about S's space is lifted to the product with T's space and
    the product atom is evaluated against the selected set there.
    """
    xy = product_space([s.space, t.space])
    kb_lifted = translate(factor_lift(xy, s.space), kb)
    cyl_s = cylinder(xy, 0, s)
    cyl_t = cylinder(xy, 1, t)
    theta = ProductAtom(cyl_s & cyl_t, (cyl_s, cyl_t))
    return infers(proc, kb_lifted, theta, xy)


# KLM-style property report ------------------------------------------------


@dataclass(frozen=True)
class KlmViolation:
    prop: str
    kb: ConstraintExpr
    theta: ConstraintExpr | None = None
    psi: ConstraintExpr | None = None


@dataclass(frozen=True)
class KlmReport:
    procedure: str
    checked: int
    violations: tuple[KlmViolation, ...]

    @property
    def all_pass(self) -> bool:
        return not self.violations

    def by_property(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for v in self.violations:
            out[v.prop] = out.get(v.prop, 0) + 1
        return out


def klm_properties_check(proc: InferenceProcedure, kbs: Sequence[ConstraintExpr],
                         thetas: Sequence[ConstraintExpr],
                         lle_pairs: Sequence[tuple[ConstraintExpr, ConstraintExpr]] = ()
                         ) -> KlmReport:
    """Check Reflexivity, Left Logical Equivalence, Right Weakening, And
    (on the first three pairs of thetas), and Consistency over the given
    corpus, over `space_of(*kbs, *thetas)`; any violation is reported
    with the witnessing constraints."""
    violations: list[KlmViolation] = []
    checked = 0
    space = space_of(*kbs, *thetas)
    rw_pairs = [(a, b) for a, b in itertools.permutations(thetas, 2) if entails(a, b, space)]
    and_pairs = list(itertools.combinations(thetas, 2))[:3]

    for kb in kbs:
        verdicts = {th: infers(proc, kb, th, space).holds for th in thetas}
        checked += 1
        if not infers(proc, kb, kb, space).holds:
            violations.append(KlmViolation("Reflexivity", kb))
        if satisfiable(kb, space).feasible and infers(proc, kb, FalseExpr(), space).holds:
            violations.append(KlmViolation("Consistency", kb))
        for a, b in rw_pairs:
            if verdicts[a] and not verdicts[b]:
                violations.append(KlmViolation("Right Weakening", kb, a, b))
        for a, b in and_pairs:
            if verdicts[a] and verdicts[b] and not infers(proc, kb, and_(a, b), space).holds:
                violations.append(KlmViolation("And", kb, a, b))

    for kb, kb2 in lle_pairs:
        if not equivalent(kb, kb2, space):
            continue
        for th in thetas:
            if infers(proc, kb, th, space).holds != infers(proc, kb2, th, space).holds:
                violations.append(KlmViolation("Left Logical Equivalence", kb, th, kb2))
    return KlmReport(proc.name, checked, tuple(violations))
