"""Exact two-phase simplex with Bland's rule on a fraction-free integer tableau.

Small and dense on purpose: the workbench's decision problems involve a
handful of constraints over at most a few hundred worlds, and strict
inequalities plus set-equality questions cannot tolerate floating-point
rounding.  Bland's pivoting rule rules out cycling.

Rationals go out, but the tableau holds Python integers.  A row comes
in as a `Row`, already in that form: its coefficients and right-hand
side times the lcm k of their denominators.  `entail.Cell` builds its
rows so, once per cell; a rational (coefficients, rel, rhs) row passes
through `scale_row`, the same conversion, on each call.  A row whose
right-hand side is negative is negated, its comparator flipped, as it
enters the tableau.  The slack or
artificial variable of a row is rescaled with it, so that variable
keeps coefficient +1 or -1 and the starting basis is the identity.
From then on every entry is the rational tableau's entry times one
common denominator d, the determinant (up to sign) of the current
basis: a pivot on p replaces every other row by
(p*a_ij - a_ic*a_rj) // d, which divides exactly (Edmonds 1967;
Bareiss 1968), and then d becomes p.  d stays positive because a pivot
is positive, or its row is negated first.  The cost row is pivoted the
same way, at scale d*M for an objective whose denominators have lcm M.

The pivots are exactly those of Bland's rule on the rational tableau.
Scaling a row by k > 0 does not move its ratio b_i / a_ic; rescaling a
slack or artificial column by 1/k scales its reduced cost by 1/k; and
the phase-1 cost K // k_j on artificial j (K the lcm of the k_j) is the
sum of the original artificials times K.  So every reduced cost keeps
its sign, every ratio its order, and the lowest-index choices are the
same; the ratio test compares b_i * a_k with b_k * a_i and still breaks
ties on the basis index.

The solver leaves out a variable whose column in the scaled rows and
whose cost equal those of a lower-index one, and sets it to 0: the
duplicate-column step of LP presolve (Andersen & Andersen 1995), here
exact pivot for pivot.  Every pivot transforms two equal columns alike,
so they stay equal, with equal reduced costs.  Bland's rule enters the
lowest index among negative reduced costs, and `_evict_artificials` the
first nonzero column, so the later of the two never enters the basis
and stays at 0.  Leaving it out changes no entering or leaving choice
and no d, x or value, because the carried columns keep their order.
In the workbench's LPs such columns are mostly worlds that no row
tells apart.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
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


def scale_row(coeffs: Sequence[Fraction], rel: str, b: Fraction, num_vars: int) -> Row:
    """A rational row over num_vars variables (missing coefficients are
    0) as a `Row`, scaled by the lcm of its denominators."""
    row = [*coeffs, *[0] * (num_vars - len(coeffs)), b]
    dens = [c.denominator for c in row]
    k = lcm(*dens)
    return Row([c.numerator * (k // q) for c, q in zip(row, dens)], rel, k)


def solve_lp(
    num_vars: int,
    constraints: Sequence[Row | tuple[Sequence[Fraction], str, Fraction]],
    objective: Sequence[Fraction],
    maximize: bool = False,
) -> tuple[str, list[Fraction] | None, Fraction | None]:
    """Solve min/max objective . x subject to the constraints and x >= 0.

    Each constraint is a `Row` over num_vars variables, or a rational
    (coefficients, rel, rhs) with rel in {'<=', '>=', '='}, which
    `scale_row` converts; numbers are Fractions or ints.  Returns
    (status, x, value) with x covering the original variables, in
    Fractions.  The tableau carries one column per distinct (column,
    cost) pair (`_distinct_columns`); the answer is exactly the one over
    all num_vars variables (see the module docstring).
    """
    rows = [r if isinstance(r, Row) else scale_row(*r, num_vars) for r in constraints]
    if len(objective) != num_vars or any(len(r.ints) != num_vars + 1 for r in rows):
        raise ValueError(f"objective and rows must cover exactly {num_vars} variables")
    keep = _distinct_columns(rows, objective)
    width = len(keep)
    narrow = width < num_vars
    if narrow:
        objective = [objective[j] for j in keep]
    rels = [_FLIP[rel] if ints[-1] < 0 else rel for ints, rel, _ in rows]

    n_slack = sum(rel != "=" for rel in rels)
    n_art = sum(rel != "<=" for rel in rels)
    art_start = width + n_slack

    # Columns: carried variables, slacks, artificials, then the rhs.
    tableau: list[list[int]] = []
    basis: list[int] = []
    slack_i = width
    art_i = art_start
    art_scales: list[int] = []
    zeros = [0] * (n_slack + n_art)
    for (ints, _, k), rel in zip(rows, rels):
        head = [ints[j] for j in keep] if narrow else ints[:-1]
        row = [*head, *zeros, ints[-1]]  # a copy: rows are shared
        if ints[-1] < 0:
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
            art_scales.append(k)
            art_i += 1
        tableau.append(row)
    d = 1

    # Phase 1: minimize the artificials, weighted K // k so the costs stay integers.
    if n_art:
        big_k = lcm(*art_scales)
        weights = [big_k // k for k in art_scales]
        cost = [0] * art_start + weights + [0]
        for row, b in zip(tableau, basis):
            if b >= art_start:
                cost = [c - weights[b - art_start] * a for c, a in zip(cost, row)]
        tableau.append(cost)
        status, d = _iterate(tableau, basis, d, len(cost) - 1)
        cost = tableau.pop()
        if status == UNBOUNDED or cost[-1] < 0:
            return INFEASIBLE, None, None
        d = _evict_artificials(tableau, basis, art_start, d)
        # Artificials never enter again, so phase 2 drops their columns.
        tableau = [row[:art_start] + row[-1:] for row in tableau]

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
    status, d = _iterate(tableau, basis, d, art_start)
    cost = tableau.pop()
    if status == UNBOUNDED:
        return UNBOUNDED, None, None

    x = [_ZERO] * num_vars
    for row, b in zip(tableau, basis):
        if b < width:
            x[keep[b]] = Fraction(row[-1], d)
    value = Fraction(-sign * cost[-1], d * big_m)
    return OPTIMAL, x, value


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
        leaving, best_b, best_a = -1, 1, 0  # best ratio best_b / best_a, +inf at first
        for i, (row, b) in enumerate(zip(tableau, basis)):
            a = row[entering]
            if a > 0:
                lhs, rhs = row[-1] * best_a, best_b * a
                if lhs < rhs or (lhs == rhs and b < basis[leaving]):
                    leaving, best_b, best_a = i, row[-1], a
        if leaving < 0:
            return UNBOUNDED, d
        d = _pivot(tableau, basis, leaving, entering, d)
        cost = tableau[-1]


def _pivot(tableau, basis, leaving, entering, d):
    """Fraction-free pivot on every row of the tableau, and the cost row
    if it is there; returns the new denominator."""
    row = tableau[leaving]
    p = row[entering]
    if p < 0:
        row = tableau[leaving] = [-a for a in row]
        p = -p
    for i, other in enumerate(tableau):
        if i == leaving:
            continue
        f = other[entering]
        if f:
            tableau[i] = [(p * a - f * r) // d for a, r in zip(other, row)]
        elif p != d:
            tableau[i] = [a * p // d for a in other]
    basis[leaving] = entering
    return p


def _evict_artificials(tableau, basis, art_start, d):
    """Pivot basic artificials (at value 0) onto real columns; drop rows
    that turn out to be redundant.  Returns d."""
    for i in range(len(tableau) - 1, -1, -1):
        if basis[i] < art_start:
            continue
        row = tableau[i]
        entering = next((j for j in range(art_start) if row[j]), -1)
        if entering >= 0:
            d = _pivot(tableau, basis, i, entering, d)
        else:
            del tableau[i]
            del basis[i]
    return d
