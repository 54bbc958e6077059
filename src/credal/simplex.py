"""Exact two-phase simplex with Bland's rule on a fraction-free integer tableau.

Small and dense on purpose: the workbench's decision problems involve a
handful of constraints over at most a few hundred worlds, and strict
inequalities plus set-equality questions cannot tolerate floating-point
rounding.  Bland's pivoting rule rules out cycling.

Rationals go out, but the tableau holds Python integers.  A row comes
in as a `Row`, already in that form: its coefficients and right-hand
side times a scale k > 0 that clears their denominators.  It enters the
tableau primitive, divided by g, the gcd of its carried coefficients,
and its right-hand side, then p / q in lowest terms, is put over K, the
lcm of every row's q; that scales every variable by K, so `solve_lp`
and `vertices` divide by d*K below.  A row whose right-hand side is
negative is negated, its comparator flipped.  The slack or artificial
variable of a row is rescaled with it, so that variable keeps
coefficient +1 or -1 and the starting basis is the identity.
From then on every entry is the rational tableau's entry times one
common denominator d, the determinant (up to sign) of the current
basis: a pivot on p replaces every other row by
(p*a_ij - a_ic*a_rj) // d, which divides exactly (Edmonds 1967;
Bareiss 1968), and then d becomes p.  d stays positive because a pivot
is positive, or its row is negated first.  The update is sparse and
still exact.  At a column where the pivot row's entry r_j = a_rj is 0
it is p*a_ij / d, the entry only rescaled, so `_pivot` scales each
other row by p / d and recomputes, in a row whose entering entry
f = a_ic is nonzero, just the pivot row's nonzero columns.  When
p == d, as in most pivots of the wide LPs, the rescaling keeps the row
as it is, and d divides f*r_j, since d*a_ij - f*r_j is a multiple of
d; a row with f == 0 is then not touched at all.  The cost row is
pivoted the same way, at scale d*M for an objective whose denominators
have lcm M.
Primitive rows keep d small: a row at its own scale would bring its
factor k / g into d whenever it is basic, and the threshold rows of the
tuple-cover gadgets, P(U) > a / b entered as b on U's worlds, made d a
product of the b's, 119 bits against 4.

The pivots are exactly those of Bland's rule on the rational tableau.
Scaling a row by c = k / g > 0 does not move its ratio b_i / a_ic, and
the one scale K > 0 on every right-hand side multiplies every ratio
alike, so no ratio changes its order and no tie is made or broken;
rescaling a slack or artificial column by 1/c scales its reduced cost
by 1/c; and the phase-1 cost (L // k_j) * g_j on artificial j (L the lcm
of the k_j) is the sum of the rational rows' artificials times L*K.  So
every reduced cost keeps its sign, every ratio its order, and the
lowest-index choices are the same; the ratio test compares b_i * a_k
with b_k * a_i and still breaks ties on the basis index.

The solver leaves out a variable whose column in the scaled rows and
whose cost equal those of a lower-index one, and sets it to 0: the
duplicate-column step of LP presolve (Andersen & Andersen 1995), here
exact pivot for pivot.  Every pivot transforms two equal columns alike,
so they stay equal, with equal reduced costs.  Bland's rule enters the
lowest index among negative reduced costs, and phase 1 evicts an
artificial onto the first nonzero column, so the later of the two never
enters the basis and stays at 0.  Leaving it out changes no entering or
leaving choice and no d, x or value, because the carried columns keep
their order.  In the workbench's LPs such columns are mostly worlds
that no row tells apart.

`vertices` lists each vertex of {x >= 0 : rows} by a walk over its
feasible bases, as in reverse search (Avis & Fukuda 1992) but with a set
of the bases seen, from the basis `_phase_1` (shared with `solve_lp`)
ends on.  It carries every column: a vertex can sit on the later of two
equal columns, as `true` on two worlds has one at each.  An edge is a
pivot through `_pivot`: any nonbasic column with a positive entry
enters and every row tied at the least ratio leaves, degenerate pivots
included; some bases of a degenerate vertex are reached only through
ties that Bland's rule would break.  A nonbasic world or slack holds its
nonnegativity or inequality row tight, so listing a vertex at its least
nonbasic set, worlds before slacks, puts it where a search over choices
of tight rows in `itertools.combinations` order first meets it.  A
basis waits on the walk's stack unpivoted, so a walk stopped at its
vertex limit makes no pivot towards the bases it leaves unvisited.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm
from typing import NamedTuple, Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)
_FLIP = {"<=": ">=", ">=": "<=", "=": "="}


class Row(NamedTuple):
    """One rational row in integers: the coefficients and then the
    right-hand side (of either sign), the comparator, and the scale
    k > 0 that the rational row was multiplied by."""

    ints: list[int]
    rel: str
    scale: int


def solve_lp(
    num_vars: int,
    rows: Sequence[Row],
    objective: Sequence[Fraction],
    maximize: bool = False,
) -> tuple[str, list[Fraction] | None, Fraction | None]:
    """Solve min/max objective . x subject to the rows and x >= 0.

    Each row is a `Row` over num_vars variables, with rel in {'<=',
    '>=', '='}; the objective's numbers are Fractions or ints.  Returns
    (status, x, value) with x covering the original variables, in
    Fractions.  The tableau carries one column per distinct (column,
    cost) pair (`_distinct_columns`); the answer is exactly the one over
    all num_vars variables (see the module docstring).
    """
    if len(objective) != num_vars:
        raise ValueError(f"the objective must cover exactly {num_vars} variables")
    keep = _distinct_columns(rows, objective)
    width = len(keep)
    objective = [objective[j] for j in keep]
    if (start := _phase_1(num_vars, rows, keep)) is None:
        return INFEASIBLE, None, None
    tableau, basis, d, big_k = start
    n_slack = sum(rel != "=" for _, rel, _ in rows)

    # Phase 2 on the real objective at scale d * M (minimize; negate for maximize).
    sign = -1 if maximize else 1
    dens = [c.denominator for c in objective]
    big_m = lcm(*dens)
    costs = [sign * c.numerator * (big_m // q) for c, q in zip(objective, dens)]
    costs += [0] * n_slack
    cost = [d * c for c in costs] + [0]
    for row, b in zip(tableau, basis):
        cb = costs[b]
        if cb:
            cost = [c - cb * a for c, a in zip(cost, row)]
    tableau.append(cost)
    status, d = _iterate(tableau, basis, d, width + n_slack)
    cost = tableau.pop()
    if status == UNBOUNDED:
        return UNBOUNDED, None, None

    x = [_ZERO] * num_vars
    for row, b in zip(tableau, basis):
        if b < width:
            x[keep[b]] = Fraction(row[-1], d * big_k)
    value = Fraction(-sign * cost[-1], d * big_m * big_k)
    return OPTIMAL, x, value


def vertices(num_vars: int, rows: Sequence[Row],
             limit: float = inf) -> tuple[list[Fraction], ...] | None:
    """Every vertex of {x >= 0 : rows} over num_vars variables, in
    Fractions, each once, in the order of its least nonbasic-column set
    (see the module docstring); empty when the rows are infeasible, and
    None, the walk stopped, once more than limit are found."""
    if (start := _phase_1(num_vars, rows, range(num_vars))) is None:
        return ()
    tableau, basis, d, big_k = start
    n_cols = num_vars + sum(rel != "=" for _, rel, _ in rows)
    keys: dict[tuple[Fraction, ...], tuple[int, ...]] = {}
    # a basis waits as its neighbour's tableau and the edge to it
    stack = [(tableau, basis, d, None)]
    seen = {frozenset(basis)}
    while stack:
        tableau, basis, d, edge = stack.pop()
        if edge is not None:
            tableau, basis = list(tableau), list(basis)
            d = _pivot(tableau, basis, *edge, d)
        at = dict(zip(basis, tableau))
        x = tuple(Fraction(at[j][-1], d * big_k) if j in at else _ZERO
                  for j in range(num_vars))
        nonbasic = tuple(j for j in range(n_cols) if j not in at)
        keys[x] = min(keys.get(x, nonbasic), nonbasic)
        if len(keys) > limit:
            return None
        for entering in nonbasic:
            for leaving in _least_ratio(tableau, basis, entering):
                nxt = frozenset([*basis[:leaving], entering, *basis[leaving + 1:]])
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((tableau, basis, d, (leaving, entering)))
    return tuple(list(x) for x in sorted(keys, key=keys.get))


def _phase_1(num_vars: int, rows: Sequence[Row], keep: Sequence[int]):
    """Phase 1: (tableau, basis, d, K) at a feasible basis over the kept
    columns of num_vars, the slacks and the rhs, redundant rows dropped,
    the variables at scale K; None if infeasible.  A row not over exactly
    num_vars variables, or at a scale not positive, raises."""
    if any(len(r.ints) != num_vars + 1 for r in rows):
        raise ValueError(f"rows must cover exactly {num_vars} variables")
    width = len(keep)
    rels = [_FLIP[rel] if ints[-1] < 0 else rel for ints, rel, _ in rows]
    n_slack = len(rels) - rels.count("=")
    n_art = len(rels) - rels.count("<=")
    art_start = width + n_slack

    # Columns: carried variables, slacks, artificials, then the rhs.  Each
    # row enters divided by g, the gcd of its carried coefficients (1 when
    # all are 0), its rhs p / q in lowest terms: p until K, the lcm of the
    # q, is known.  A row whose g is 1 is copied as it is.
    tableau: list[list[int]] = []
    basis: list[int] = []
    rhs_dens: list[int] = []
    art_weights: list[tuple[int, int]] = []  # (k, g) of each artificial's row
    slack_i, art_i, big_k = width, art_start, 1
    zeros = [0] * (n_slack + n_art)
    for (ints, _, k), rel in zip(rows, rels):
        if k <= 0:
            raise ValueError("a row's scale must be positive")
        # a copy: rows are shared
        row = ints[:-1] if width == num_vars else [ints[j] for j in keep]
        rhs, q = ints[-1], 1
        if (g := gcd(*row) or 1) > 1:
            row = [a // g for a in row]
            r = gcd(g, rhs)
            rhs, q = rhs // r, g // r
            big_k = lcm(big_k, q)
        row += zeros
        row.append(rhs)
        if rhs < 0:
            row = [-a for a in row]
        if rel == "<=":
            row[slack_i] = 1
            basis.append(slack_i)
            slack_i += 1
        else:
            if rel == ">=":
                row[slack_i] = -1
                slack_i += 1
            row[art_i] = 1
            basis.append(art_i)
            art_weights.append((k, g))
            art_i += 1
        tableau.append(row)
        rhs_dens.append(q)
    # every rhs over one scale K, the variables with it
    if big_k > 1:
        for row, q in zip(tableau, rhs_dens):
            row[-1] *= big_k // q
    d = 1

    # Minimize the artificials, weighted (L // k) * g: the tableau's artificial
    # is the rational row's times (k / g) * K, so these integer costs are the
    # sum of the rational rows' artificials times L * K, and phase 1 pivots
    # as it would on that sum.
    if n_art:
        big_l = lcm(*(k for k, _ in art_weights))
        weights = [big_l // k * g for k, g in art_weights]
        cost = [0] * art_start + weights + [0]
        for row, b in zip(tableau, basis):
            if b >= art_start:
                cost = [c - weights[b - art_start] * a for c, a in zip(cost, row)]
        tableau.append(cost)
        status, d = _iterate(tableau, basis, d, len(cost) - 1)
        cost = tableau.pop()
        if status == UNBOUNDED or cost[-1] < 0:
            return None
        # Pivot each basic artificial (at 0) onto its row's first nonzero real
        # column, or drop the row as redundant; artificials never enter again.
        for i in range(len(tableau) - 1, -1, -1):
            if basis[i] >= art_start:
                entering = next((j for j in range(art_start) if tableau[i][j]), -1)
                if entering >= 0:
                    d = _pivot(tableau, basis, i, entering, d)
                else:
                    del tableau[i], basis[i]
        tableau = [row[:art_start] + row[-1:] for row in tableau]
    return tableau, basis, d, big_k


def _distinct_columns(rows: list[Row], objective: Sequence[Fraction]) -> list[int]:
    """The variables the tableau carries, in increasing order: the first
    of each (column in the rows, cost) pair."""
    first: dict[tuple, int] = {}
    for j, key in enumerate(zip(*(r.ints for r in rows), objective)):
        first.setdefault(key, j)
    return list(first.values())


def _iterate(tableau, basis, d, n_enter):
    """Bland's rule on columns below n_enter; the cost row is the
    tableau's last row.  Returns (status, d)."""
    cost = tableau[-1]
    while True:
        entering = next((j for j in range(n_enter) if cost[j] < 0), -1)
        if entering < 0:
            return OPTIMAL, d
        ties = _least_ratio(tableau, basis, entering)
        if not ties:
            return UNBOUNDED, d
        leaving = ties[0] if len(ties) == 1 else min(ties, key=basis.__getitem__)
        d = _pivot(tableau, basis, leaving, entering, d)
        cost = tableau[-1]


def _least_ratio(tableau, basis, entering):
    """The basis rows with a positive entry in the entering column whose
    ratio rhs / entry is least: the rows a pivot there may leave."""
    ties, best_b, best_a = [], 1, 0  # least ratio best_b / best_a, +inf at first
    for i, row in enumerate(tableau[:len(basis)]):  # not the cost row
        a = row[entering]
        if a > 0:
            lhs, rhs = row[-1] * best_a, best_b * a
            if lhs < rhs:
                ties, best_b, best_a = [i], row[-1], a
            elif lhs == rhs:
                ties.append(i)
    return ties


def _pivot(tableau, basis, leaving, entering, d):
    """Fraction-free pivot on every row of the tableau, and the cost row
    if it is there; returns the new denominator.  Each other row is
    scaled by p / d, kept as it is when p == d, and a row whose entering
    entry f is nonzero gets (p*a - f*r) // d at the pivot row's nonzero
    columns alone: at a zero column that quotient is the rescaled entry
    (see the module docstring).  It writes into new lists, since
    `vertices` keeps earlier tableaux that share rows with this one."""
    row = tableau[leaving]
    p = row[entering]
    if p < 0:
        row = tableau[leaving] = [-a for a in row]
        p = -p
    nonzero = [(j, r) for j, r in enumerate(row) if r]
    for i, other in enumerate(tableau):
        if i == leaving:
            continue
        new = other if p == d else [a * p // d for a in other]
        f = other[entering]
        if f:
            if new is other:
                new = other.copy()
            for j, r in nonzero:
                new[j] = (p * other[j] - f * r) // d
        tableau[i] = new
    basis[leaving] = entering
    return p
