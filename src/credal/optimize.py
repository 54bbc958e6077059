"""Maximum entropy and relative-entropy projection over constraint sets.

Each DNF disjunct denotes a relatively open polyhedral cell, an
`entail.Cell` whose integer LP rows decide feasibility and the exact
zero pattern and give the `float_rows` the dual runs on.  The
projection onto the cell's closure is the exponential tilt
w0 * exp(-A^T lam) / Z, where lam minimizes the convex dual
log Z(lam) + b.lam with lam >= 0 on the inequality rows (Csiszar 1975);
a projected Newton method solves that m-variable dual.  A tilt reaches
a world of zero mass only in the limit, so zeros are pinned exactly:
first by the atoms whose bound is an extreme value of their
coefficients (`Cell.extreme_support`), then, when Newton drifts toward
the boundary, by `Cell.support`.  Finally the undefined-supremum rule:
a disjunct's optimum is kept only when it satisfies kb at
`measures.EPS`, the test `procedures.infers` applies to it, so an
optimum on the boundary of a strict atom, or within EPS of it, leaves
that supremum unattained.
A cell has one to three rows over a handful of worlds, so a Newton
step is a few dozen numpy calls on arrays of a few elements, and its
time is numpy's per-call dispatch, not arithmetic.  `_newton` calls
the ufunc reductions directly, builds the outer product by
broadcasting, projects onto lam >= 0 in one `np.maximum`, and takes
the step on one free row as the division g / h, the value LAPACK's
`solve` returns for a 1x1 system: each iterate, tilt and step count is
the one `ndarray.max`, `np.outer` and `np.linalg.solve` would give, bit
for bit (tests/test_optimize.py compares 600 projections with a plain
numpy reference).  The duals lam are in `DisjunctDiagnostic.duals`,
zero on the first cell holding a prior that satisfies kb.
Entropy maximization is divergence minimization from the uniform
measure.  A set of priors is updated by one loop, `updates`, which
projects each prior once; kb's cells come from `entail.cells`, built
once per (kb, space), so each cell's witness LP serves every prior.
The callers memoise a whole update per kb: `procedures.select` and the
product family's `procedures._sampled_selection`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable

import numpy as np

from .constraints import ConstraintExpr, satisfies, space_of, to_dnf
from .entail import Cell, cells
from .errors import ConvergenceError, DomainError
from .measures import EPS, Measure, kl_divergence
from .spaces import Space

RESIDUAL_TOL = 1e-10  # convergence: worst KKT residual of the dual
NEWTON_STEPS = 100  # dual Newton steps before zero elimination / ConvergenceError
ZERO_FLOOR = 1e-6  # a weight below this share of its prior weight: zero elimination


@dataclass(frozen=True)
class DisjunctDiagnostic:
    index: int
    open_nonempty: bool
    infinite: bool = False
    value: float | None = None
    strict_ok: bool | None = None  # the optimum satisfies kb (at EPS)
    cycles: int = 0  # dual Newton steps
    # The projection's duals, one per row of the cell's `float_rows` (>=
    # atoms negated): w = w0 exp(-A^T duals) / Z on the live support.
    # All zero when the prior satisfies kb and is its own projection;
    # index is then the first cell whose atoms all hold at the prior.
    duals: tuple[float, ...] = ()


@dataclass(frozen=True)
class ProjectionResult:
    status: str  # "attained" | "not_attained" | "empty"
    measures: tuple[Measure, ...]
    value: float | None
    diagnostics: tuple[DisjunctDiagnostic, ...] = ()

    @property
    def attained(self) -> bool:
        return self.status == "attained"


# Dual Newton projection onto one cell ------------------------------------


def _dual(w0: np.ndarray, a: np.ndarray, b: np.ndarray, lam: np.ndarray):
    """The dual value log Z(lam) + b.lam and the tilt w0 exp(-A^T lam) / Z."""
    z = -(lam @ a)
    top = np.maximum.reduce(z)
    w = w0 * np.exp(z - top)
    total = np.add.reduce(w)
    return top + math.log(total) + float(b @ lam), w / total


def _newton(w0: np.ndarray, a: np.ndarray, b: np.ndarray, ineq: np.ndarray,
            floor: bool) -> tuple[np.ndarray | None, np.ndarray, int, float]:
    """(tilt at the dual optimum, the duals lam, Newton steps, worst KKT
    residual), or (None, lam, steps, residual) at the last iterate when
    there is no convergence within NEWTON_STEPS or, with floor set, when
    a weight at the optimum is below ZERO_FLOOR of its prior weight.

    Projected Newton (Bertsekas 1982): inequality duals at or near zero
    whose gradient pushes them below it are bound and sent to zero, the
    others take a Newton step, and an Armijo search runs along the path
    projected onto lam >= 0.
    """
    lam = np.zeros(len(b))
    phi, w = _dual(w0, a, b, lam)
    # The projection onto lam >= 0 in one call: max(x, -inf) is x.
    lower = np.where(ineq, 0.0, -np.inf)
    for step in range(NEWTON_STEPS + 1):
        aw = a @ w
        grad = b - aw
        kkt = np.abs(np.where(ineq, np.minimum(lam, grad), grad))
        residual = float(np.maximum.reduce(kkt, initial=0.0))
        if residual <= RESIDUAL_TOL:
            # Only the optimum is tested: on a skewed prior the first
            # iterates can pass far below the floor and come back.
            if floor and np.logical_or.reduce(w < ZERO_FLOOR * w0):
                return None, lam, step, residual
            return w, lam, step, residual
        if step == NEWTON_STEPS:
            break
        free = ~(ineq & (lam <= min(residual, 1e-3)) & (grad > 0.0))
        af, awf, gf = a[free], aw[free], grad[free]
        # Rows that coincide on the support make the Hessian singular:
        # damp it in proportion to the gradient.
        k = len(gf)
        d = -lam
        if k == 1:
            # LAPACK's solve of a 1x1 system is this one division.
            h = ((af * w) @ af.T)[0, 0] - awf[0] * awf[0] + 1e-3 * abs(gf[0])
            if h == 0.0:
                raise np.linalg.LinAlgError("Singular matrix")
            d[free] = -(gf / h)
        else:
            hess = (af * w) @ af.T - awf[:, None] * awf
            hess.flat[::k + 1] += 1e-3 * np.maximum.reduce(np.abs(gf), initial=0.0)
            d[free] = -np.linalg.solve(hess, gf)
        # The Armijo test needs slack: float cannot see decreases of the
        # dual below eps near the optimum.
        slack = 1e-15 * (1.0 + abs(phi))
        t = 1.0
        for _ in range(60):
            trial = lam + t * d
            np.maximum(trial, lower, out=trial)
            phi_t, w_t = _dual(w0, a, b, trial)
            if phi_t <= phi + 1e-4 * float(grad @ (trial - lam)) + slack:
                break
            t *= 0.5
        else:
            return None, lam, step + 1, residual
        lam, phi, w = trial, phi_t, w_t
    return None, lam, NEWTON_STEPS, residual


def _project_cell(w0: np.ndarray, cell: Cell, pins) -> tuple[np.ndarray, np.ndarray, int]:
    """KL projection of w0 onto the closure of the cell, over w0's
    support, its duals (one per row of `Cell.float_rows`) and the
    Newton steps it took.  Newton runs on the support
    left by the extreme atoms; when it fails or ends near the boundary,
    the worlds with zero mass at every point of the closure (meeting the
    pins) are pinned exactly and Newton runs again without the floor."""
    a, b, ineq = cell.float_rows
    live = cell.extreme_support(np.flatnonzero(w0 > 0.0).tolist())
    w_live, lam, steps, _ = _newton(w0[live], a[:, live], b, ineq, floor=True)
    if w_live is None:
        live = cell.support(live, pins)
        w_live, lam, more, residual = _newton(w0[live], a[:, live], b, ineq, floor=False)
        steps += more
        if w_live is None:
            raise ConvergenceError(
                f"dual Newton did not converge: worst KKT residual {residual:.3e} "
                f"(tolerance {RESIDUAL_TOL:g}) after {more} steps")
    w = np.zeros(len(w0))
    w[live] = w_live
    return w, lam, steps


def kl_project(mu: Measure, kb: ConstraintExpr) -> ProjectionResult:
    """Measures satisfying kb at minimal divergence from mu (in bits).

    Worlds outside mu's support stay at probability zero; a disjunct
    that forces mass outside the support has infinite divergence and is
    dropped (status "empty" with diagnostics if every disjunct does).
    A prior already satisfying kb (exactly when rational, at `EPS` when
    float) is its own projection as given, on the first cell whose atoms
    hold at it, with zero duals; any other is projected in floats, the
    one place where a prior becomes float.
    """
    dnf = to_dnf(kb)
    own = next((k for k, atoms in enumerate(dnf)
                if all(satisfies(mu, atom) for atom in atoms)), None)
    if own is not None:
        return ProjectionResult("attained", (mu,), 0.0, (DisjunctDiagnostic(
            own, True, value=0.0, strict_ok=True, duals=(0.0,) * len(dnf[own])),))

    space, prior = mu.space, mu.to_float()
    w0 = np.array(prior.weights)
    n = len(space.worlds)
    pins = Cell.pin_rows(([int(j == i) for j in range(n)], Fraction(0))
                         for i in range(n) if w0[i] <= 0.0)
    diagnostics: list[DisjunctDiagnostic] = []
    candidates: list[tuple[float, bool, Measure, int]] = []
    for k, cell in enumerate(cells(kb, space)):
        if cell.witness() is None:
            diagnostics.append(DisjunctDiagnostic(k, open_nonempty=False))
            continue
        if pins and cell.witness(pins) is None:
            diagnostics.append(DisjunctDiagnostic(k, open_nonempty=True, infinite=True))
            continue
        w_star, lam, steps = _project_cell(w0, cell, pins)
        result = Measure.from_floats(space, w_star)
        value = kl_divergence(result, prior)
        ok = satisfies(result, kb)
        diagnostics.append(DisjunctDiagnostic(k, True, value=value, strict_ok=ok, cycles=steps,
                                              duals=tuple(lam.tolist())))
        candidates.append((value, ok, result, k))

    if not candidates:
        return ProjectionResult("empty", (), None, tuple(diagnostics))
    best = min(v for v, _, _, _ in candidates)
    attainers = _dedupe_sorted([m for v, ok, m, _ in candidates if ok and v <= best + EPS])
    if attainers:
        return ProjectionResult("attained", tuple(attainers), best, tuple(diagnostics))
    return ProjectionResult("not_attained", (), best, tuple(diagnostics))


def maxent(kb: ConstraintExpr, space: Space | None = None) -> ProjectionResult:
    """Highest-entropy measures on space (by default `space_of(kb)`)
    satisfying kb (value in entropy bits).

    Equivalent to divergence minimization from the uniform measure; the
    undefined-supremum cases surface as status "not_attained".
    """
    space = space or space_of(kb)
    result = kl_project(Measure.uniform(space), kb)
    log_n = math.log2(len(space.worlds))
    flip = (lambda v: None if v is None else log_n - v)
    diags = tuple(replace(d, value=flip(d.value)) for d in result.diagnostics)
    return ProjectionResult(result.status, result.measures, flip(result.value), diags)


def updates(priors: Iterable[Measure], kb: ConstraintExpr) -> tuple[Measure, ...]:
    """The attainers of each prior's projection onto kb, prior by prior,
    each prior read by `kl_project` as given.

    Whether kb is in the domain of a prior-based procedure depends on kb
    alone, so every prior is projected before any query reads the
    result.  kb is outside the domain when a projection is not attained
    (the message names the cell of the least divergence, whose optimum
    fails kb at `EPS`), or when it is empty on a satisfiable kb: every
    measure of [[kb]] then puts mass off the prior's support, at
    infinite divergence.  An unsatisfiable kb updates to ().
    """
    out: list[Measure] = []
    for mu in priors:
        res = kl_project(mu, kb)
        if res.status == "not_attained":
            best = min((d for d in res.diagnostics if d.value is not None),
                       key=lambda d: d.value)
            raise DomainError(
                f"KB outside procedure domain: projection not attained (cell {best.index}, "
                f"divergence {best.value:.6g} bits, optimum fails kb at EPS {EPS:g})")
        if res.status == "empty" and any(d.infinite for d in res.diagnostics):
            raise DomainError("KB outside procedure domain: every measure satisfying kb "
                              "is at infinite divergence from a prior")
        out += res.measures
    return tuple(out)


def update_set(d: tuple[Measure, ...], kb: ConstraintExpr) -> tuple[Measure, ...]:
    """Pointwise relative-entropy update of a finite set of priors: the
    union of the `updates` attainers, deduplicated and sorted."""
    return tuple(_dedupe_sorted(updates(d, kb)))


def _dedupe_sorted(measures: Iterable[Measure]) -> list[Measure]:
    out: list[Measure] = []
    for m in measures:
        if not any(m.is_close(o) for o in out):
            out.append(m)
    out.sort(key=lambda m: tuple(float(w) for w in m.weights))
    return out
