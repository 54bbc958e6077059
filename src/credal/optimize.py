"""Maximum entropy and relative-entropy projection over constraint sets.

Each DNF disjunct denotes a relatively open polyhedral cell, an
`entail.Cell` whose exact LP rows decide feasibility and the exact
zero pattern; the float rows here come from its coefficients.  The
optimizer works on the cell's closure with cyclic Bregman projections
(a Dykstra-style scheme: equality rows are projected directly, each
inequality carries a nonnegative dual that limits how far a satisfied
row may be un-tilted), then applies the undefined-supremum rule: strict
atoms are re-tested at the optimum and a failure makes that disjunct's
supremum unattained.  Entropy maximization is divergence minimization
from the uniform measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .constraints import ConstraintExpr, LinearAtom, satisfies, space_of, to_dnf
from .entail import Cell, cells
from .errors import ConvergenceError, CredalError
from .measures import FLOAT, FiniteMeasureSet, Measure, kl_divergence
from .spaces import Space

ROOT_TOL = 1e-12  # tilt roots: |<a, tilt> - target|
STRICT_EPS = 1e-9  # margin a strict atom needs at the closure optimum
QUICK_CYCLES = 5_000  # sweeps before falling back to zero elimination
MAX_CYCLES = 100_000  # sweeps before ConvergenceError
RESIDUAL_TOL = 1e-10  # convergence: worst row violation
MOVE_TOL = 1e-12  # convergence: largest change of a weight in one sweep
VALUE_TOL = 1e-9  # disjuncts within this of the best divergence attain it
DEDUPE_EPS = 1e-9  # measures this close are one

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class DisjunctDiagnostic:
    index: int
    open_nonempty: bool
    infinite: bool = False
    value: float | None = None
    strict_ok: bool | None = None
    cycles: int = 0


@dataclass(frozen=True)
class ProjectionResult:
    status: str  # "attained" | "not_attained" | "empty"
    measures: tuple[Measure, ...]
    value: float | None
    diagnostics: tuple[DisjunctDiagnostic, ...] = ()

    @property
    def attained(self) -> bool:
        return self.status == "attained"


# Elementary tilt --------------------------------------------------------


def _tilt(w: np.ndarray, a: np.ndarray, lam: float) -> np.ndarray:
    z = lam * a
    z -= z.max()
    out = w * np.exp(z)
    return out / out.sum()


def _condition_on(w: np.ndarray, keep: np.ndarray) -> np.ndarray:
    out = np.where(keep, w, 0.0)
    total = out.sum()
    if total <= 0.0:
        raise CredalError("unreachable constraint")
    return out / total


def _solve_tilt(w: np.ndarray, a: np.ndarray, target: float, root_tol: float):
    """lambda with <a, tilt(w,a,lambda)> = target, or +-inf at the ends.

    The tilted mean is nondecreasing in lambda, running between the min
    and max of a over the support; targets outside that range raise.
    """
    support = w > 0.0
    vals = a[support]
    lo_val, hi_val = vals.min(), vals.max()
    if target > hi_val or target < lo_val:
        raise CredalError("unreachable constraint")
    if hi_val == lo_val:
        return 0.0
    if target == hi_val:
        return math.inf
    if target == lo_val:
        return -math.inf
    lo, hi = -1.0, 1.0
    for _ in range(200):
        if float(a @ _tilt(w, a, lo)) <= target:
            break
        lo *= 2.0
    for _ in range(200):
        if float(a @ _tilt(w, a, hi)) >= target:
            break
        hi *= 2.0
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        v = float(a @ _tilt(w, a, mid))
        if abs(v - target) <= root_tol:
            return mid
        if v < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-18 * max(1.0, abs(hi)):
            return mid
    return 0.5 * (lo + hi)


def _apply_tilt(w: np.ndarray, a: np.ndarray, lam: float) -> np.ndarray:
    if lam == 0.0:
        return w
    if math.isinf(lam):
        support = w > 0.0
        vals = np.where(support, a, -math.inf if lam > 0 else math.inf)
        extreme = vals.max() if lam > 0 else vals.min()
        return _condition_on(w, support & (a == extreme))
    return _tilt(w, a, lam)


def halfspace_tilt(mu: Measure, atom: LinearAtom, root_tol: float = ROOT_TOL) -> Measure:
    """Exact elementary KL projection onto one atom's hyperplane.

    Inequality atoms already satisfied are returned unchanged; otherwise
    the measure is exponentially tilted along the atom's per-world
    coefficients until the atom holds with equality.
    """
    if mu.backend != FLOAT:
        raise ValueError("halfspace_tilt needs a float-backed measure")
    space = mu.space
    a = np.array([float(c) for c in atom.coefficients(space)])
    w = np.array([float(x) for x in mu.weights])
    value = float(a @ w)
    b = float(atom.bound)
    if atom.cmp in ("<", "<=") and value <= b:
        return mu
    if atom.cmp in (">", ">=") and value >= b:
        return mu
    lam = _solve_tilt(w, a, b, root_tol)
    return Measure.from_floats(space, _apply_tilt(w, a, lam))


# Cyclic projection with duals -------------------------------------------


def _float_rows(cell: Cell):
    """The cell's atoms as float rows: the equalities, and the
    inequalities normalized to <= with the strict atoms last."""
    eqs: list[tuple[np.ndarray, float]] = []
    ineqs: list[tuple[np.ndarray, float]] = []
    for atom, coeffs in zip(cell.atoms, cell.coefficients):
        a = np.array([float(c) for c in coeffs])
        b = float(atom.bound)
        if atom.cmp == "=":
            eqs.append((a, b))
            continue
        if atom.cmp in (">=", ">"):
            a, b = -a, -b
        ineqs.append((a, b))
    return eqs, ineqs


def _project_closure(w0: np.ndarray, eqs, ineqs, max_cycles: int) -> tuple[np.ndarray, int]:
    """KL projection of w0 onto the closure of the cell, over w0's support."""
    if not eqs and not ineqs:
        return w0, 0

    w = w0.copy()
    duals = [0.0] * len(ineqs)
    for cycle in range(1, max_cycles + 1):
        prev = w
        for a, b in eqs:
            lam = _solve_tilt(w, a, b, ROOT_TOL)
            w = _apply_tilt(w, a, lam)
        for j, (a, b) in enumerate(ineqs):
            value = float(a @ w)
            if value > b:
                lam = _solve_tilt(w, a, b, ROOT_TOL)
                w = _apply_tilt(w, a, lam)
                if math.isinf(lam):
                    duals[j] = math.inf
                else:
                    duals[j] -= lam
            elif duals[j] > 0.0 and value < b:
                support = w > 0.0
                if b >= a[support].max():
                    lam = duals[j]
                else:
                    lam = min(_solve_tilt(w, a, b, ROOT_TOL), duals[j])
                if lam > 0.0 and not math.isinf(lam):
                    w = _apply_tilt(w, a, lam)
                    duals[j] -= lam
                elif math.isinf(lam):
                    duals[j] = 0.0
        residual = 0.0
        for a, b in eqs:
            residual = max(residual, abs(float(a @ w) - b))
        for a, b in ineqs:
            residual = max(residual, float(a @ w) - b)
        move = float(np.max(np.abs(w - prev)))
        if residual < RESIDUAL_TOL and move < MOVE_TOL:
            return w, cycle
    raise ConvergenceError("no convergence")


def _project_with_zero_elimination(w0: np.ndarray, cell: Cell, eqs, ineqs,
                                   pins) -> tuple[np.ndarray, int]:
    """Projection with a fallback for boundary optima: when the cyclic
    scheme stalls, pin the worlds with zero mass at every point of the
    cell's closure (over w0's support, decided exactly by the cell) and
    restart on the reduced support.  Multiplicative tilts reach such
    boundary points only in the limit."""
    try:
        return _project_closure(w0, eqs, ineqs, QUICK_CYCLES)
    except ConvergenceError:
        pass
    supported = np.flatnonzero(w0 > 0.0).tolist()
    zeros = sorted(set(supported) - set(cell.support(supported, pins)))
    w = w0
    if zeros:
        w = w0.copy()
        w[zeros] = 0.0
        w = w / w.sum()
    return _project_closure(w, eqs, ineqs, MAX_CYCLES)


def kl_project(mu: Measure, kb: ConstraintExpr) -> ProjectionResult:
    """Measures satisfying kb at minimal divergence from mu (in bits).

    Worlds outside mu's support stay at probability zero; a disjunct
    that forces mass outside the support has infinite divergence and is
    dropped (status "empty" with diagnostics if every disjunct does).
    A measure already satisfying kb is its own projection.
    """
    if mu.backend != FLOAT:
        raise ValueError("kl_project needs a float-backed prior; convert explicitly")
    space = mu.space
    if space_of(kb) is None:
        if to_dnf(kb).systems:
            return ProjectionResult("attained", (mu,), 0.0,
                                    (DisjunctDiagnostic(0, True, value=0.0, strict_ok=True),))
        return ProjectionResult("empty", (), None)
    if satisfies(mu, kb, eps=1e-12):
        return ProjectionResult("attained", (mu,), 0.0,
                                (DisjunctDiagnostic(0, True, value=0.0, strict_ok=True),))

    w0 = np.array([float(x) for x in mu.weights])
    n = len(space.worlds)
    pins = [([_ONE if j == i else _ZERO for j in range(n)], _ZERO)
            for i in range(n) if w0[i] <= 0.0]
    diagnostics: list[DisjunctDiagnostic] = []
    candidates: list[tuple[float, bool, Measure, int]] = []
    for k, cell in enumerate(cells(kb, space)):
        if cell.witness() is None:
            diagnostics.append(DisjunctDiagnostic(k, open_nonempty=False))
            continue
        if pins and cell.witness(pins) is None:
            diagnostics.append(DisjunctDiagnostic(k, open_nonempty=True, infinite=True))
            continue
        eqs, ineqs = _float_rows(cell)
        w_star, cycles = _project_with_zero_elimination(w0, cell, eqs, ineqs, pins)
        result = Measure.from_floats(space, w_star)
        value = kl_divergence(result, mu)
        strict = ineqs[len(ineqs) - len(cell.system.strict):]
        ok = all(float(a @ w_star) < b - STRICT_EPS for a, b in strict)
        diagnostics.append(DisjunctDiagnostic(k, True, value=value, strict_ok=ok, cycles=cycles))
        candidates.append((value, ok, result, k))

    if not candidates:
        return ProjectionResult("empty", (), None, tuple(diagnostics))
    best = min(v for v, _, _, _ in candidates)
    attainers = _dedupe_sorted([m for v, ok, m, _ in candidates if ok and v <= best + VALUE_TOL])
    if attainers:
        return ProjectionResult("attained", tuple(attainers), best, tuple(diagnostics))
    return ProjectionResult("not_attained", (), best, tuple(diagnostics))


def maxent(kb: ConstraintExpr, space: Space | None = None) -> ProjectionResult:
    """Highest-entropy measures satisfying kb (value in entropy bits).

    Equivalent to divergence minimization from the uniform measure; the
    undefined-supremum cases surface as status "not_attained".
    """
    if space is None:
        space = space_of(kb)
        if space is None:
            raise ValueError("pass the space to maximize entropy under true/false")
    result = kl_project(Measure.uniform(space), kb)
    log_n = math.log2(len(space.worlds))
    flip = (lambda v: None if v is None else log_n - v)
    diags = tuple(replace(d, value=flip(d.value)) for d in result.diagnostics)
    return ProjectionResult(result.status, result.measures, flip(result.value), diags)


def update_set(d: FiniteMeasureSet, kb: ConstraintExpr) -> FiniteMeasureSet:
    """Pointwise relative-entropy update of a finite set of priors.

    The union of each prior's projection attainers, deduplicated.  An
    unattained projection is a domain error for prior-based procedures.
    """
    from .errors import DomainError

    out: list[Measure] = []
    for mu in d:
        res = kl_project(mu.to_float(), kb)
        if res.status == "not_attained":
            raise DomainError("KB outside procedure domain: projection not attained")
        out.extend(res.measures)
    return FiniteMeasureSet(tuple(_dedupe_sorted(out)))


def _dedupe_sorted(measures: list[Measure]) -> list[Measure]:
    out: list[Measure] = []
    for m in measures:
        if not any(m.is_close(o, DEDUPE_EPS) for o in out):
            out.append(m)
    out.sort(key=lambda m: tuple(float(w) for w in m.weights))
    return out
