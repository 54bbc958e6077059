"""Shared fixtures and independent oracle helpers.

The oracles here are deliberately naive (grids, exhaustive enumeration)
so they stay independent of the solver paths they check.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import operator
import random
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

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


# check_space's refusal of an atom read on another space than its own
ANOTHER_SPACE = "^an atom lives on a different space than the question$"

# each comparator on exact numbers, and its closure
EXACT = {"=": operator.eq, "<=": operator.le, ">=": operator.ge, "<": operator.lt,
         ">": operator.gt}
CLOSED_CMP = {"=": "=", "<=": "<=", ">=": ">=", "<": "<=", ">": ">="}
# each comparator on floats within a tolerance: strict ones need a margin
FLOAT_CMP = {"<": lambda v, b, eps: v < b - eps, "<=": lambda v, b, eps: v <= b + eps,
             "=": lambda v, b, eps: abs(v - b) <= eps, ">=": lambda v, b, eps: v >= b - eps,
             ">": lambda v, b, eps: v > b + eps}


def mutant(owner, name, old, new):
    """A mutant of owner.name, a module's function or a class's method:
    its source with the text old, which must occur exactly once, replaced
    by new, compiled in the namespace of the module that defines it, for
    a test to `monkeypatch.setattr(owner, name, ...)`."""
    function = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, (name, old)
    namespace = dict(vars(sys.modules[function.__module__]))
    exec(source.replace(old, new), namespace)
    return namespace[name]


def patch_everywhere(monkeypatch, owner, name, new):
    """Set new in place of owner.name and of every other binding of that
    same object in credal's and the tests' modules, such as a function
    imported by name, so that every caller reaches new."""
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, new)
    for module_name, module in list(sys.modules.items()):
        if module is not None and module_name.partition(".")[0] in ("credal", "tests"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, new)


# An independent formula reference, importing nothing from credal: a
# tree is a symbol name, a literal bool, ("!", tree) or (connective,
# left, right); it is rendered fully parenthesized and evaluated per
# world in plain Python.
CONNECTIVES = {"&": operator.and_, "|": operator.or_, "=>": lambda a, b: not a or b,
               "<=>": operator.eq}


def random_formula(rng: random.Random, names, leaves: int):
    """A random tree over names with at most `leaves` leaves; one leaf in
    five is a literal."""
    if leaves == 1 or rng.random() < 0.2:
        return rng.choice((True, False)) if rng.random() < 0.2 else rng.choice(names)
    kind = rng.choice(("!", *CONNECTIVES))
    if kind == "!":
        return "!", random_formula(rng, names, leaves - 1)
    split = rng.randint(1, leaves - 1)
    return kind, random_formula(rng, names, split), random_formula(rng, names, leaves - split)


def render(tree) -> str:
    """The formula text of a tree, every connective parenthesized."""
    if isinstance(tree, bool):
        return "true" if tree else "false"
    if isinstance(tree, str):
        return tree
    if tree[0] == "!":
        return f"(!{render(tree[1])})"
    return f"({render(tree[1])} {tree[0]} {render(tree[2])})"


def holds(tree, assignment) -> bool:
    """The truth of a tree under a dict from names to bools."""
    if isinstance(tree, bool):
        return tree
    if isinstance(tree, str):
        return assignment[tree]
    if tree[0] == "!":
        return not holds(tree[1], assignment)
    return CONNECTIVES[tree[0]](holds(tree[1], assignment), holds(tree[2], assignment))


def assignment(names, bits: int) -> dict:
    """The truth of each name at an assignment packed as bits, the first
    name the most significant bit."""
    return {s: bool(bits >> (len(names) - 1 - k) & 1) for k, s in enumerate(names)}


def formula_texts(names, leaves: int):
    """A hypothesis strategy of the rendered text of `random_formula` trees."""
    return st.randoms(use_true_random=False).map(
        lambda rng: render(random_formula(rng, names, leaves)))


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


def clear_caches():
    """Clear every lru cache on a credal module, as the bench does before
    each round."""
    for name, module in list(sys.modules.items()):
        if name == "credal" or name.startswith("credal."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.fixture
def cold_caches():
    """Cold caches, so a counter test counts the same work whichever
    tests ran before it."""
    clear_caches()


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
        a = np.array([float(c) for c in atom_coefficients(atom)])[live]
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


def bland_lp(num_vars, rows, objective, maximize=False):
    """The reference two-phase simplex on the rational tableau of
    (coefficients, rel, rhs) rows with x >= 0, by Bland's rule, in
    Fractions: (status, x, value) as `solve_lp` returns them.

    A row whose rhs is negative is negated and its comparator flipped.
    Columns: the variables, a slack per inequality row (+1 for <=, -1
    for >=), an artificial per = or >= row, in row order; the slacks of
    the <= rows and the artificials start basic.  Bland's rule enters
    the lowest column of negative reduced cost and leaves the row of
    least ratio, ties to the lowest basic column.  Phase 1 minimizes
    the artificials at unit cost on each row as written; then each
    basic artificial, from the last row up, is pivoted out onto its
    row's first nonzero column, or its row dropped as redundant, and
    phase 2 runs on the objective without the artificials."""
    flip = {"<=": ">=", ">=": "<=", "=": "="}
    rows = [([-Fraction(c) for c in cs], flip[rel], -Fraction(b)) if b < 0
            else ([Fraction(c) for c in cs], rel, Fraction(b)) for cs, rel, b in rows]
    real = num_vars + sum(rel != "=" for _, rel, _ in rows)
    width = real + sum(rel != "<=" for _, rel, _ in rows)
    tableau, basis = [], []
    slack, art = num_vars, real
    for cs, rel, b in rows:
        row = cs + [Fraction(0)] * (width - num_vars) + [b]
        if rel == "<=":
            row[slack] = Fraction(1)
            basis.append(slack)
            slack += 1
        else:
            if rel == ">=":
                row[slack] = Fraction(-1)
                slack += 1
            row[art] = Fraction(1)
            basis.append(art)
            art += 1
        tableau.append(row)

    def pivot(r, c):
        tableau[r] = [a / tableau[r][c] for a in tableau[r]]
        for i, row in enumerate(tableau):
            if i != r and row[c]:
                tableau[i] = [a - row[c] * p for a, p in zip(row, tableau[r])]
        basis[r] = c

    def bland(costs):
        while True:
            reduced = (costs[j] - sum(costs[b] * row[j] for row, b in zip(tableau, basis))
                       for j in range(len(costs)))
            entering = next((j for j, z in enumerate(reduced) if z < 0), None)
            if entering is None:
                return "optimal"
            ratios = [(row[-1] / row[entering], b, i)
                      for i, (row, b) in enumerate(zip(tableau, basis)) if row[entering] > 0]
            if not ratios:
                return "unbounded"
            pivot(min(ratios)[2], entering)

    bland([Fraction(0)] * real + [Fraction(1)] * (width - real))
    if any(row[-1] for row, b in zip(tableau, basis) if b >= real):
        return "infeasible", None, None
    for i in range(len(tableau) - 1, -1, -1):
        if basis[i] >= real:
            entering = next((j for j in range(real) if tableau[i][j]), None)
            if entering is None:
                del tableau[i], basis[i]
            else:
                pivot(i, entering)
    tableau[:] = [row[:real] + row[-1:] for row in tableau]
    sign = -1 if maximize else 1
    costs = [sign * Fraction(c) for c in objective] + [Fraction(0)] * (real - num_vars)
    if bland(costs) != "optimal":
        return "unbounded", None, None
    x = [Fraction(0)] * num_vars
    for row, b in zip(tableau, basis):
        if b < num_vars:
            x[b] = row[-1]
    return "optimal", x, sum((Fraction(c) * v for c, v in zip(objective, x)), Fraction(0))


def dense_pivot(tableau, leaving, entering, d):
    """The reference fraction-free pivot, dense and on fresh lists: the
    pivot row, negated when its entry is negative, then every other row
    at every column, zeros included, replaced by (p*a - f*r) / d, each
    quotient checked exact (Bareiss 1968).  Returns (tableau, p)."""
    row = tableau[leaving]
    if row[entering] < 0:
        row = [-a for a in row]
    p = row[entering]
    out = []
    for i, other in enumerate(tableau):
        if i == leaving:
            out.append(list(row))
            continue
        f = other[entering]
        new = []
        for a, r in zip(other, row):
            q, rem = divmod(p * a - f * r, d)
            assert rem == 0, "a Bareiss quotient must be exact"
            new.append(q)
        out.append(new)
    return out, p


def scale_row(coeffs, rel, b, num_vars):
    """The reference conversion of a rational (coefficients, rel, rhs) row
    over num_vars variables (missing coefficients are 0) to the integer
    `simplex.Row` `solve_lp` takes: scaled by the lcm of its denominators."""
    row = [*coeffs, *[0] * (num_vars - len(coeffs)), b]
    k = math.lcm(*(c.denominator for c in row))
    return Row([c.numerator * (k // c.denominator) for c in row], rel, k)


def atom_coefficients(atom):
    """The reference per-world coefficients of a `LinearAtom` on its
    space, in Fractions: each world sums the coefficients of the terms
    whose event holds it."""
    return [sum((c for c, e in atom.terms if i in e), Fraction(0))
            for i in range(len(atom.space.worlds))]


def atom_value(atom, mu):
    """The reference value of a `LinearAtom` at a measure: each term's
    coefficient times `Measure.prob` of its event, summed in order (on
    a float measure a Fraction times a float is float(c) times it)."""
    return sum(c * mu.prob(e) for c, e in atom.terms)


def float_atom_holds(atom, mu, eps):
    """The reference float check of a `LinearAtom`: its value against
    its bound in floats, within eps, a strict comparison needing an eps
    margin; written apart from `constraints.compare`, which it checks."""
    v, b = float(atom_value(atom, mu)), float(atom.bound)
    return FLOAT_CMP[atom.cmp](v, b, eps)


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
    by exhaustive basis search on rows rebuilt from `atom_coefficients`:
    the simplex row and the = atoms with each choice, in
    `itertools.combinations` order, of as many rows from the pool
    (nonnegativity of each world, then the other atoms in order) as
    leaves one solution; each vertex at the first choice that gives it."""
    n = len(space.worlds)
    one, zero = Fraction(1), Fraction(0)
    rows = [(atom_coefficients(atom) + [atom.bound], atom.cmp) for atom in atoms]
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


def probe_pair_kind(proc, kb, event, alpha, beta, space):
    """How the essential-entailment probe classes the open interval
    alpha < Pr(event) < beta: None when the procedure does not infer it
    (or kb is outside its domain), "violation" when kb does not entail
    its closed form, "strengthening" when kb entails the closed form but
    not the open one, and "entailed" otherwise."""
    from credal.constraints import And, LinearAtom
    from credal.entail import entails
    from credal.errors import DomainError
    from credal.procedures import infers

    terms = ((Fraction(1), event),)
    open_q = And((LinearAtom(terms, ">", alpha), LinearAtom(terms, "<", beta)))
    try:
        if not infers(proc, kb, open_q, space).holds:
            return None
    except DomainError:
        return None
    closed_q = And((LinearAtom(terms, ">=", alpha), LinearAtom(terms, "<=", beta)))
    if not entails(kb, closed_q, space):
        return "violation"
    return "entailed" if entails(kb, open_q, space) else "strengthening"


def grid_probe(proc, kb, events, space):
    """The reference essential-entailment probe: every pair alpha < beta
    of `corpus.BOUND_GRID`, for each event, by `probe_pair_kind`; the
    (event, alpha, beta, kind) of each violation or strengthening."""
    from credal.corpus import BOUND_GRID

    found = []
    for s in events:
        for i, a in enumerate(BOUND_GRID):
            for b in BOUND_GRID[i + 1:]:
                kind = probe_pair_kind(proc, kb, s, a, b, space)
                if kind in ("violation", "strengthening"):
                    found.append((s, a, b, kind))
    return found


@functools.cache
def probe_corpus():
    """(procedure, kb, events, space, the events of its grid violations)
    for the five procedures that select, on the two- and three-symbol klm
    corpora: their events, every P(e) = 1/4 kb and four seeded others.
    The grid is `grid_probe`'s, computed once for every test that reads it."""
    from credal.constraints import LinearAtom
    from credal.corpus import klm_corpus
    from credal.spaces import enumerate_worlds

    procs = [InferenceProcedure.entailment(), InferenceProcedure.i0(), InferenceProcedure.i1(),
             InferenceProcedure.maxent(), InferenceProcedure.broken()]
    rng = random.Random(32)
    out = []
    for symbols in (["a", "b"], ["a", "b", "c"]):
        sp = enumerate_worlds(symbols)
        kbs, _, _ = klm_corpus(sp)
        quarter = [kb for kb in kbs if isinstance(kb, LinearAtom) and kb.cmp == "="
                   and kb.bound == Fraction(1, 4)]
        events = [kb.terms[0][1] for kb in quarter]
        chosen = quarter + rng.sample([kb for kb in kbs if kb not in quarter], 4)
        out += [(proc, kb, events, sp,
                 {e for e, _, _, kind in grid_probe(proc, kb, events, sp) if kind == "violation"})
                for proc in procs for kb in chosen]
    return out
