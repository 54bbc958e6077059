"""Shared fixtures and independent oracle helpers.

The oracles here are deliberately naive (grids, exhaustive enumeration)
so they stay independent of the solver paths they check.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from credal.measures import Measure
from credal.procedures import InferenceProcedure, PriorFunction
from credal.simplex import Row
from credal.spaces import Space

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# the six procedures the command line names
SIX_PROCEDURES = [InferenceProcedure.entailment(), InferenceProcedure.maxent(),
                  InferenceProcedure.i0(), InferenceProcedure.i1(), InferenceProcedure.broken(),
                  InferenceProcedure.prior_based(PriorFunction.product_family())]


def compositions(total: int, parts: int):
    """All nonnegative integer vectors of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def simplex_grid(space: Space, denom: int):
    """All rational measures with weights that are multiples of 1/denom."""
    n = len(space.worlds)
    for comp in compositions(denom, n):
        yield Measure.rational(space, [Fraction(c, denom) for c in comp])


def grid_kl_argmin(mu: Measure, predicate, denom: int) -> Measure | None:
    """Brute-force divergence minimizer over a simplex grid."""
    from credal.measures import kl_divergence

    prior = mu.to_float()
    best, best_d = None, None
    for cand in simplex_grid(mu.space, denom):
        if not predicate(cand):
            continue
        d = kl_divergence(cand.to_float(), prior)
        if best_d is None or d < best_d:
            best, best_d = cand, d
    return best


@pytest.fixture
def cold_caches():
    """Clear every lru cache on a credal module, so a counter test counts
    the same work whichever tests ran before it."""
    for name, module in list(sys.modules.items()):
        if name == "credal" or name.startswith("credal."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.fixture(scope="session")
def flying_bird_space():
    from credal.spaces import enumerate_worlds

    return enumerate_worlds(["flying-bird", "bird"], "flying-bird => bird")


@pytest.fixture(scope="session")
def fly_bird_space():
    from credal.spaces import enumerate_worlds

    return enumerate_worlds(["fly", "bird"])


@pytest.fixture(scope="session")
def rgb_space():
    from credal.spaces import enumerate_worlds

    return enumerate_worlds(["red", "blue", "green"])


def slsqp_kl_min(prior: Measure, atoms) -> float | None:
    """Minimum divergence (in nats) from prior over the closure of a
    conjunction of linear atoms, by scipy's SLSQP over prior's support;
    None when SLSQP reports failure.

    Rows constant on the support and equality rows dependent on earlier
    ones are dropped: they constrain nothing on a feasible cell, and
    SLSQP stalls on them.  SLSQP also stalls near the boundary, where
    the gradient of the divergence is unbounded, so it is restarted from
    its own answer.
    """
    import numpy as np
    from scipy.optimize import minimize
    from scipy.special import xlogy

    w0 = np.array([float(w) for w in prior.weights])
    live = w0 > 0.0
    q = w0[live]
    eqs, eq_rhs, ineqs, ineq_rhs = [np.ones(len(q))], [1.0], [], []
    for atom in atoms:
        a = np.array([float(c) for c in atom.coefficients()])[live]
        b = float(atom.bound)
        if np.ptp(a) == 0.0:
            continue
        if atom.cmp == "=":
            if np.linalg.matrix_rank(np.array(eqs + [a])) > len(eqs):
                eqs.append(a)
                eq_rhs.append(b)
        else:
            sign = 1.0 if atom.cmp in (">=", ">") else -1.0
            ineqs.append(sign * a)
            ineq_rhs.append(sign * b)
    eq_a, eq_b = np.array(eqs), np.array(eq_rhs)
    cons = [{"type": "eq", "fun": lambda x: eq_a @ x - eq_b, "jac": lambda x: eq_a}]
    if ineqs:
        in_a, in_b = np.array(ineqs), np.array(ineq_rhs)
        cons.append({"type": "ineq", "fun": lambda x: in_a @ x - in_b, "jac": lambda x: in_a})
    x = np.full(len(q), 1.0 / len(q))
    for _ in range(4):
        out = minimize(lambda x: float(np.sum(xlogy(x, x) - x * np.log(q))), x,
                       jac=lambda x: np.log(np.maximum(x, 1e-300)) + 1.0 - np.log(q),
                       method="SLSQP", bounds=[(0.0, 1.0)] * len(q), constraints=cons,
                       options={"ftol": 1e-15, "maxiter": 500})
        x = np.clip(out.x, 1e-9, 1.0)
    return float(out.fun) if out.success else None


def lp_faults(num_vars, constraints, objective, x, value):
    """How an OPTIMAL answer fails its LP, in exact rationals: a negative
    or missing x, a row that does not hold exactly, or value != c.x."""
    faults = [f"x[{j}] = {v} < 0" for j, v in enumerate(x) if v < 0]
    if len(x) != num_vars:
        faults.append(f"{len(x)} values for {num_vars} variables")
    for i, (coeffs, rel, b) in enumerate(constraints):
        lhs = sum((Fraction(c) * v for c, v in zip(coeffs, x)), Fraction(0))
        if not {"<=": lhs <= b, ">=": lhs >= b, "=": lhs == b}[rel]:
            faults.append(f"row {i}: {lhs} {rel} {b} fails")
    if value != sum((Fraction(c) * v for c, v in zip(objective, x)), Fraction(0)):
        faults.append(f"value {value} is not c.x")
    return faults


def scale_row(coeffs, rel, b, num_vars):
    """The reference conversion of a rational (coefficients, rel, rhs) row
    over num_vars variables (missing coefficients are 0) to the integer
    `simplex.Row` `solve_lp` takes: scaled by the lcm of its denominators."""
    row = [*coeffs, *[0] * (num_vars - len(coeffs)), b]
    k = math.lcm(*(c.denominator for c in row))
    return Row([c.numerator * (k // c.denominator) for c in row], rel, k)


def highs_lp(num_vars, rows, objective, maximize):
    """(status, value) from scipy's HiGHS on the LP `solve_lp` takes, in floats."""
    from scipy.optimize import linprog

    flip = {"<=": 1.0, ">=": -1.0}
    ub = [([flip[r] * float(c) for c in cs], flip[r] * float(b)) for cs, r, b in rows if r != "="]
    eq = [([float(c) for c in cs], float(b)) for cs, r, b in rows if r == "="]
    sign = -1 if maximize else 1
    res = linprog([sign * float(c) for c in objective],
                  A_ub=[a for a, _ in ub] or None, b_ub=[b for _, b in ub] or None,
                  A_eq=[a for a, _ in eq] or None, b_eq=[b for _, b in eq] or None,
                  bounds=(0, None), method="highs")
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status]
    return status, (sign * res.fun if status == "optimal" else None)


def basis_search_vertices(atoms, space):
    """Closure vertices of the cell with these atoms (strict ones closed),
    by exhaustive basis search on rows rebuilt from
    `LinearAtom.coefficients`: the simplex row and the = atoms with each
    choice, in `itertools.combinations` order, of as many rows from the
    pool (nonnegativity of each world, then the other atoms in order) as
    leaves one solution; each vertex at the first choice that gives it."""
    n = len(space.worlds)
    one, zero = Fraction(1), Fraction(0)
    rows = [(atom.coefficients() + [atom.bound], atom.cmp) for atom in atoms]
    eqs = [[one] * (n + 1)] + [row for row, cmp in rows if cmp == "="]
    pool = [[one if j == i else zero for j in range(n)] + [zero] for i in range(n)]
    pool += [row for row, cmp in rows if cmp != "="]
    closed = {"=": lambda v, b: v == b, "<=": lambda v, b: v <= b, "<": lambda v, b: v <= b,
              ">=": lambda v, b: v >= b, ">": lambda v, b: v >= b}
    found = []
    for chosen in itertools.combinations(pool, n - _gauss_jordan(eqs, n)[1]):
        reduced, rank = _gauss_jordan(eqs + list(chosen), n)
        if rank < n or any(row[n] != 0 for row in reduced[n:]):
            continue  # underdetermined or inconsistent
        x = [row[n] for row in reduced[:n]]
        if (x not in found and min(x) >= 0 and sum(x) == 1
                and all(closed[cmp](sum(c * v for c, v in zip(row, x)), row[n])
                        for row, cmp in rows)):
            found.append(x)
    return found


def _gauss_jordan(aug, n):
    """Gauss-Jordan elimination of augmented rational rows over n
    unknowns: the reduced rows and the rank of their coefficient part."""
    aug = [list(row) for row in aug]
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        aug[r] = [v / aug[r][c] for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        r += 1
    return aug, r


def closed_form_extension_weights(nu=None, i=0, gamma=Fraction(1, 3)):
    """The weights of `harness.conservative_extension_demo`'s extension,
    world by world on Z = X^3 x Y0 x Y^3, in closed form: mu0 (uniform on
    U_i) times the Bernoulli Y-factors, and for each j, zero unless the
    world is in both or neither of S_j and V_j, else nu_j's weight of its
    X_j component over nu_j's mass on that side (zero on a null side)."""
    from credal.harness import tuple_cover_gadget
    from credal.spaces import component_map, cylinder, enumerate_worlds, event_of, product_space

    x = enumerate_worlds(["s"])
    s = event_of(x, "s")
    if nu is None:
        nu = Measure.rational(x, [Fraction(63, 100), Fraction(37, 100)])
    g = tuple_cover_gadget(3, 2)
    y0 = g.spaces["Y0"]
    y = enumerate_worlds(["yy"])
    y_true = event_of(y, "yy")
    z = product_space([x, x, x, y0, y, y, y])
    u = g.extra["U"]
    mu0_weights = [Fraction(0)] * len(y0.worlds)
    for k in u[i].indices():
        mu0_weights[k] = Fraction(1, u[i].count)
    mu0 = Measure.rational(y0, mu0_weights)
    nu0 = Measure.rational(x, [1 - gamma, gamma])
    nus = [nu if j == i else nu0 for j in range(3)]
    y_probs = [nu.prob(s) if j == i else gamma / mu0.prob(u[j]) for j in range(3)]
    comps_x = [component_map(z, z.factors[j]) for j in range(3)]
    comp_y0 = component_map(z, z.factors[3])
    comps_y = [component_map(z, z.factors[4 + j]) for j in range(3)]
    v_events = [cylinder(z, 3, u[j]) & cylinder(z, 4 + j, y_true) for j in range(3)]
    nu_s = [m.prob(s) for m in nus]
    weights = []
    for widx in range(len(z.worlds)):
        w = mu0_weights[comp_y0[widx]]
        for j in range(3):
            w *= y_probs[j] if comps_y[j][widx] == 1 else 1 - y_probs[j]
        for j in range(3):
            xc = comps_x[j][widx]
            inside_s = xc in s
            side_mass = nu_s[j] if inside_s else 1 - nu_s[j]
            if (widx in v_events[j]) != inside_s or side_mass == 0:
                w = Fraction(0)
                break
            w *= nus[j].weights[xc] / side_mass
        weights.append(Fraction(w))
    return weights
