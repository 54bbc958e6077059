"""Exact decision procedures over constraint denotations.

Every decision runs over the DNF cells of a constraint, the relatively
open polyhedra of the simplex it denotes.  `Cell` owns the exact LP
encoding of one cell: the simplex row, one row per atom, and one slack t
shared by the strict atoms, whose optimum is positive exactly when the
open cell is non-empty; the closure drops t from the strict atoms.  An
atom is read two ways.  The engine pivots the integer `simplex.Row`s
that `_atom_row` builds once per cell (`simplex.solve_lp` and
`simplex.vertices` are one engine); the checker reads the atom's terms,
and every exact point test is `LinearAtom.holds_at`, the rule of
`satisfies`.  Satisfiability, entailment, ranges, sampling and
conservativeness are decided cell by cell, on the cells `cells` builds
once per (constraint, space).  Witnesses are exact rational measures.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, inf, lcm
from typing import Iterable, Sequence

import numpy as np

from . import simplex
from .constraints import (
    And,
    ConstraintExpr,
    FalseExpr,
    LinearAtom,
    Not,
    TrueExpr,
    and_,
    check_space,
    satisfies,
    space_of,
    to_dnf,
)
from .measures import Measure
from .spaces import Event, Space, component_map, event_from_indices, whole_event

_ZERO = Fraction(0)
_ONE = Fraction(1)
_UNSET = object()

# Each atom's row comparator (strict ones closed), and t's coefficient in
# a strict atom's open row.
_ROW_CMP = {"=": "=", "<=": "<=", ">=": ">=", "<": "<=", ">": ">="}
_SLACK = {"<": 1, ">": -1}

# Extra equality rows: (per-world integer coefficients, value) pairs.
Pins = Iterable[tuple[list[int], Fraction]]


class Cell:
    """One DNF cell on one space, and the only code that builds LP rows.

    Its atoms are one cell of `constraints.to_dnf`, equalities first and
    strict atoms last; ``strict`` says whether any atom is strict, and
    `closed` alone reads it, counting only cells with a witness.  The
    LP variables are the world masses and the strict slack t.  The open
    and closure rows are integer `simplex.Row`s built on first use; row
    1 + j is atom j's, over the worlds, t and the bound, at the atom's
    scale and in its orientation; every LP the cell solves reads them,
    and a point is tested on the atoms (`_holds_at`).  Pins are extra
    equality rows, given as (per-world integer coefficients, value)
    pairs and built by `pin_rows` once for every cell they are put to;
    a pin of value p/q enters the LP as the `Row` of its coefficients
    times q, t's 0 and p, at scale q.  `witness(pins)`
    answers whether the open cell meets the pins, and `vertices(limit)`
    lists the closure's vertices unless they number more than limit.  A
    cell refuses an atom on another space, whose world indices its rows
    and point tests would misread.

    An LP leaves out the worlds whose column and cost repeat a lower
    world's, which Bland's rule would never enter (`simplex`).
    """

    def __init__(self, atoms: tuple[LinearAtom, ...], space: Space):
        check_space(space, atoms)
        self.atoms = atoms
        self.space = space
        self.strict = any(atom.cmp in ("<", ">") for atom in atoms)
        self._witness = _UNSET
        # set by `satisfiable` once the witness satisfies the constraint
        # whose `cells` set holds this cell
        self.witness_checked = False

    @cached_property
    def _open(self) -> list[simplex.Row]:
        """The simplex row, each atom's open row and t <= 1."""
        n = len(self.space.worlds)
        return ([simplex.Row([1] * n + [0, 1], "=", 1)]
                + [_atom_row(atom, n) for atom in self.atoms]
                + [simplex.Row([0] * n + [1, 1], "<=", 1)])

    @cached_property
    def _closed(self) -> list[simplex.Row]:
        """The open rows with t dropped from the strict atoms."""
        *rows, t_row = self._open
        return [row._replace(ints=row.ints[:-2] + [0, row.ints[-1]]) if row.ints[-2] else row
                for row in rows] + [t_row]

    @staticmethod
    def pin_rows(pins: Pins) -> list[simplex.Row]:
        """Each pin's `Row`, for every cell that the pins are put to."""
        rows = []
        for coeffs, v in pins:
            q = v.denominator
            rows.append(simplex.Row([c * q for c in coeffs] + [0, v.numerator], "=", q))
        return rows

    def witness(self, pins: Sequence[simplex.Row] = ()) -> Measure | None:
        """A measure in the open cell meeting the pin rows, or None if
        there is none: the point of the witness LP, which `Measure` checks
        exactly.  Memoised without pins."""
        if not pins and self._witness is not _UNSET:
            return self._witness
        found = self.solve(None, True, pins=pins)
        witness = (Measure.rational(self.space, found[0])
                   if found is not None and found[1] > 0 else None)
        if not pins:
            self._witness = witness
        return witness

    def solve(self, objective: list[Fraction] | None, maximize: bool, closed: bool = False,
              pins: Sequence[simplex.Row] = ()) -> tuple[list[Fraction], Fraction] | None:
        """(world masses, value) at an optimum of the per-world objective
        (None: t), over the open rows (t free in [0, 1]) or the closure
        rows, and the pin rows; None when those rows are infeasible."""
        n = len(self.space.worlds)
        rows = self._closed if closed else self._open
        if pins:
            rows = [*rows, *pins]
        objective = [0] * n + [1] if objective is None else objective + [_ZERO]
        status, x, value = simplex.solve_lp(n + 1, rows, objective, maximize=maximize)
        if status != simplex.OPTIMAL:
            return None
        return x[:n], value

    def support(self, candidates, pins: Sequence[simplex.Row] = ()) -> list[int]:
        """The candidate worlds with positive mass somewhere in the
        closure (meeting the pin rows), by one LP per candidate."""
        n = len(self.space.worlds)
        out = []
        for i in candidates:
            objective = [_ZERO] * n
            objective[i] = _ONE
            found = self.solve(objective, True, closed=True, pins=pins)
            if found is not None and found[1] > 0:
                out.append(i)
        return out

    @cached_property
    def float_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The atoms as float rows A w (= or <=) b, the >= atoms negated
        and the strict ones closed, with the mask of the inequality rows;
        int / int rounds correctly, so each entry is float(its Fraction)."""
        rows = self._open[1:-1]
        n = len(self.space.worlds)
        sign = np.array([-1.0 if row.rel == ">=" else 1.0 for row in rows])
        a = np.array([[v / row.scale for v in row.ints[:n]] for row in rows]).reshape(-1, n)
        b = np.array([row.ints[-1] / row.scale for row in rows]) * sign
        return a * sign[:, None], b, np.array([row.rel != "=" for row in rows], dtype=bool)

    def extreme_support(self, live: list[int]) -> list[int]:
        """The live worlds left once every atom whose bound is the largest
        (=, >=, >) or smallest (=, <=, <) value its coefficients take on
        them keeps only the worlds taking that value, to a fixed point.
        Exact: every point of the closure has zero mass elsewhere."""
        changed = True
        while changed:
            changed = False
            for ints, rel, _ in self._open[1:-1]:
                values = [ints[i] for i in live]
                if (rel in ("=", ">=") and ints[-1] == max(values)
                        or rel in ("=", "<=") and ints[-1] == min(values)):
                    keep = [i for i in live if ints[i] == ints[-1]]
                    if len(keep) < len(live):
                        live, changed = keep, True
        return live

    def vertices(self, limit: float = inf) -> tuple[list[Fraction], ...] | None:
        """The closure's vertices, or None when they number more than
        limit: `simplex.vertices` on its rows without t, a walk that stops
        there, on every call."""
        n = len(self.space.worlds)
        return simplex.vertices(n, [row._replace(ints=row.ints[:n] + row.ints[-1:])
                                    for row in self._closed[:-1]], limit)


def _atom_row(atom: LinearAtom, n: int) -> simplex.Row:
    """The atom's open row over n worlds and t, built from its terms in
    integers: with L the lcm of the term and bound denominators, each
    world sums its terms' coefficients times L, and the row is divided
    by g, the gcd of L and its entries.  That is the rational row scaled
    by k = L / g, the lcm of its entries' denominators."""
    big_l = lcm(atom.bound.denominator, *(c.denominator for c, _ in atom.terms))
    ints = [0] * (n + 2)
    for c, event in atom.terms:
        ci = c.numerator * (big_l // c.denominator)
        for i in event.indices():
            ints[i] += ci
    ints[n] = _SLACK.get(atom.cmp, 0) * big_l
    ints[n + 1] = atom.bound.numerator * (big_l // atom.bound.denominator)
    g = gcd(big_l, *ints)
    if g > 1:
        ints = [a // g for a in ints]
    return simplex.Row(ints, _ROW_CMP[atom.cmp], big_l // g)


@lru_cache(maxsize=1024)
def cells(expr: ConstraintExpr, space: Space) -> tuple[Cell, ...]:
    """The DNF cells of expr on space, built once per (expr, space): the
    cache shares each cell, with its witness, among every decision and
    projection on that kb, and the bench clears it before each round.
    1024 sets hold the working set of the KLM grid: `klm_properties_check`
    of the five procedures on the two-symbol corpus asks for 782 distinct
    (kb, space) pairs, and of one procedure alone for up to 617."""
    return tuple(Cell(atoms, space) for atoms in to_dnf(expr))


def closed(expr: ConstraintExpr, space: Space) -> bool:
    """Whether no DNF cell of expr on space that has a witness is strict,
    an empty strict cell adding no point: [[expr]] is then a union of
    closed cells, holding their closure vertices, and a projection onto
    it at finite divergence is attained (Csiszar 1975)."""
    return not any(cell.strict and cell.witness() is not None for cell in cells(expr, space))


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    witness: Measure | None = None


def satisfiable(expr: ConstraintExpr, space: Space | None = None) -> FeasibilityReport:
    """Decide whether some measure satisfies the constraint, over space
    or else `space_of(expr)`.

    The witness, when present, satisfies the constraint exactly,
    including all strict atoms: it is checked against expr the first
    time a cell of ``cells(expr, space)`` yields it, and a wrong one
    raises.  The cell and its witness belong to expr's set, so a later
    call on the same set does not check again.
    """
    for cell in cells(expr, space or space_of(expr)):
        witness = cell.witness()
        if witness is not None:
            if not cell.witness_checked:
                if not satisfies(witness, expr):
                    raise ValueError("LP witness does not satisfy the constraint")
                cell.witness_checked = True
            return FeasibilityReport(True, witness)
    return FeasibilityReport(False)


def entails(kb: ConstraintExpr, theta: ConstraintExpr, space: Space | None = None) -> bool:
    """KB entails theta iff no measure on space (by default `space_of(kb,
    theta)`) satisfies KB and violates theta."""
    return not satisfiable(and_(kb, Not(theta)), space or space_of(kb, theta)).feasible


def equivalent(a: ConstraintExpr, b: ConstraintExpr, space: Space | None = None) -> bool:
    space = space or space_of(a, b)
    return entails(a, b, space) and entails(b, a, space)


def quarter_constraint(s: Event) -> LinearAtom:
    return LinearAtom(((_ONE, s),), ">=", Fraction(1, 4))


def _holds_at(kb_cells: Sequence[Cell], point) -> bool:
    """Whether kb holds exactly at a rational point (as for
    `LinearAtom.holds_at`, the rule of `satisfies`): some cell's atoms
    all hold there."""
    return any(all(atom.holds_at(point) for atom in cell.atoms) for cell in kb_cells)


def _point_mass_event(kb_cells: Sequence[Cell], space: Space) -> Event:
    """The worlds whose point mass satisfies kb, read off kb's cells on
    space by `_holds_at`; no measure is built and no LP solved."""
    return event_from_indices(space, [i for i in range(len(space.worlds))
                                      if _holds_at(kb_cells, {i: _ONE})])


def is_interesting(kb: ConstraintExpr, space: Space | None = None) -> Event | None:
    """The event S with [[kb]] = [[Pr(S) >= 1/4]] on space (by default
    `space_of(kb)`), if one exists.

    A point mass on x satisfies Pr(S) >= 1/4 exactly when x is in S, so
    the only possible S is the set of worlds whose point mass satisfies
    kb.  The empty and full candidates are excluded (they denote the
    empty set and the whole simplex).  Probes on kb's cells reject most
    other kbs without an LP: the uniform measure, where Pr(S) >= 1/4
    iff 4|S| >= n, and the n - 1 pairs putting 1/4 on a world of S and
    3/4 on a world outside it, where Pr(S) = 1/4 (each world of S with
    the first world outside, each other world outside with the first
    world of S).  Equivalence decides the rest.
    """
    space = space or space_of(kb)
    kb_cells = cells(kb, space)
    s = _point_mass_event(kb_cells, space)
    n = len(space.worlds)
    if s.count in (0, n):
        return None
    if _holds_at(kb_cells, dict.fromkeys(range(n), Fraction(1, n))) != (4 * s.count >= n):
        return None
    inside, outside = list(s.indices()), list((~s).indices())
    pairs = [(x, outside[0]) for x in inside] + [(inside[0], y) for y in outside[1:]]
    if not all(_holds_at(kb_cells, {x: Fraction(1, 4), y: Fraction(3, 4)}) for x, y in pairs):
        return None
    return s if equivalent(kb, quarter_constraint(s), space) else None


def objective_normal_form(kb: ConstraintExpr, space: Space | None = None) -> Event | None:
    """The event T with [[kb]] = [[Pr(T) = 1]] on space (by default
    `space_of(kb)`), if one exists.

    A point mass on x satisfies Pr(T) = 1 exactly when x is in T, so the
    only possible T is the set of worlds whose point mass satisfies kb;
    it is returned when kb is equivalent to Pr(T) = 1.  Conjunctions of
    Pr(T_i) = 1 are read off the syntax first.
    """
    space = space or space_of(kb)
    if isinstance(kb, TrueExpr):
        return whole_event(space)
    if isinstance(kb, FalseExpr):
        return event_from_indices(space, [])

    direct = _syntactic_objective(kb)
    if direct is not None and direct.space == space:  # else kb's cells refuse kb
        return direct

    t = _point_mass_event(cells(kb, space), space)
    return t if equivalent(kb, LinearAtom(((_ONE, t),), "=", _ONE), space) else None


def _syntactic_objective(kb: ConstraintExpr) -> Event | None:
    """Fast path: conjunctions of Pr(T_i) = 1 collapse to Pr(of the
    intersection) = 1 without any LP calls."""
    atoms = kb.items if isinstance(kb, And) else (kb,)
    t = None
    for atom in atoms:
        if not (isinstance(atom, LinearAtom) and atom.cmp == "=" and atom.bound == 1
                and len(atom.terms) == 1 and atom.terms[0][0] == 1):
            return None
        ev = atom.terms[0][1]
        t = ev if t is None else (t & ev)
    return t


# Linear ranges and sampling over denotations ---------------------------


def linear_range(expr: ConstraintExpr, terms: tuple[tuple[Fraction, Event], ...],
                 space: Space) -> tuple[Fraction, Fraction] | None:
    """[min, max] of a linear functional over the closure of [[expr]].

    None when the constraint is unsatisfiable.  Computed per DNF cell;
    strict atoms are relaxed, so the bounds are those of the closure.
    """
    ends = linear_extremes(expr, terms, space)
    return None if ends is None else (ends[0][1], ends[1][1])


def linear_extremes(expr: ConstraintExpr, terms: tuple[tuple[Fraction, Event], ...],
                    space: Space) -> tuple[tuple[list[Fraction], Fraction], ...] | None:
    """(world masses, value) at a minimum and at a maximum of a linear
    functional over the closure of [[expr]], as for `linear_range`.  The
    LPs take the functional's integer row, its scale times the rational
    one, which moves no pivot; each value is divided back."""
    row = _atom_row(LinearAtom(terms, "=", _ZERO), len(space.worlds))
    objective = row.ints[:-2]  # the worlds' entries, without t's and the bound
    ends = [None, None]
    for cell in cells(expr, space):
        if cell.witness() is None:
            continue
        for maximize in (False, True):
            found = cell.solve(objective, maximize, closed=True)
            best = ends[maximize]
            if found is not None and (best is None or (found[1] > best[1] if maximize
                                                       else found[1] < best[1])):
                ends[maximize] = found
    if None in ends:
        return None
    return tuple((x, value / row.scale) for x, value in ends)


def sample_measures(expr: ConstraintExpr, space: Space, n: int, seed: int) -> list[Measure]:
    """n seeded exact samples from [[expr]] (none when it is empty):
    randomly tilted LP vertices of a cell's open rows, mixed toward its
    strictly feasible witness so every sample lies in the open cell.
    Each sample is checked against expr, and a wrong one raises."""
    rng = _random.Random(seed)
    live = [(cell, w) for cell in cells(expr, space) if (w := cell.witness()) is not None]
    if not live:
        return []
    nw = len(space.worlds)
    out: list[Measure] = []
    for _ in range(n):
        cell, witness = live[rng.randrange(len(live))]
        objective = [Fraction(rng.randrange(-8, 9)) for _ in range(nw)]
        vertex = cell.solve(objective, maximize=bool(rng.getrandbits(1)))[0]
        lam = Fraction(rng.randrange(1, 8), 8)
        mu = Measure.rational(space, [lam * a + (1 - lam) * b
                                      for a, b in zip(witness.weights, vertex)])
        if not satisfies(mu, expr):
            raise ValueError("sampled measure does not satisfy the constraint")
        out.append(mu)
    return out


# Conservativeness -------------------------------------------------------


@dataclass(frozen=True)
class ConservativeReport:
    status: str  # "conservative_verified" | "not_conservative" | "inconclusive"
    witness: Measure | None = None
    tested: int = 0


def conservative_check(kb: ConstraintExpr, psi: ConstraintExpr, xy_space: Space,
                       x_factor: int = 0, n_samples: int = 8, seed: int = 0) -> ConservativeReport:
    """Check that psi adds no information about the X factor over kb.

    proj_X([[lift(kb) & psi]]) lies within [[kb]] by construction.  The
    reverse asks, for every closure vertex of every cell of kb, however
    many, and for seeded samples of [[kb]], whether some extension with
    that X-marginal satisfies psi.  A failed point of [[kb]] is an exact
    counterexample.  When psi is `closed`, a failed vertex outside [[kb]]
    is moved toward its cell's witness by lambda = 1/2, 1/4, ... until
    the moved point fails, as it must: the extendable marginals are then
    a closed set.  Passes are verified only when psi's cells that have a
    witness are one closed cell, whose extendable marginals form a
    polytope: the vertices decide, and no sample is drawn.  Otherwise the
    samples are tested too, and a pass is inconclusive.
    """
    if xy_space.factors is None:
        raise ValueError("xy_space must be a declared product")
    x_space = xy_space.factors[x_factor]
    if not satisfiable(kb, x_space).feasible:
        return ConservativeReport("conservative_verified")

    comp = component_map(xy_space, x_space)
    fibers = [[int(c == xi) for c in comp] for xi in range(len(x_space.worlds))]
    psi_cells = cells(psi, xy_space)
    psi_closed = closed(psi, xy_space)
    tested = 0

    def extends(x) -> bool:
        # a cell with no witness meets no pins; a lone cell is not asked
        nonlocal tested
        tested += 1
        pins = Cell.pin_rows(zip(fibers, x))
        return any(cell.witness(pins) is not None for cell in psi_cells
                   if len(psi_cells) == 1 or cell.witness() is not None)

    def refuted(x) -> ConservativeReport:
        return ConservativeReport("not_conservative", Measure.rational(x_space, x), tested)

    kb_cells = cells(kb, x_space)
    for cell in kb_cells:
        interior = cell.witness()
        if interior is None:
            continue
        for vertex in cell.vertices():
            if extends(vertex):
                continue
            if _holds_at(kb_cells, vertex):
                return refuted(vertex)
            lam = Fraction(1, 2)
            while psi_closed:
                moved = [lam * a + (1 - lam) * b for a, b in zip(interior.weights, vertex)]
                if not extends(moved):
                    return refuted(moved)
                lam /= 2
    verified = psi_closed and (len(psi_cells) == 1
                               or sum(cell.witness() is not None for cell in psi_cells) == 1)
    if not verified:
        for nu in sample_measures(kb, x_space, n_samples, seed):
            if not extends(nu.weights):
                return refuted(nu.weights)
    return ConservativeReport("conservative_verified" if verified else "inconclusive",
                              tested=tested)
