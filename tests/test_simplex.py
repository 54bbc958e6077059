import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from credal import harness, simplex
from credal.constraints import TrueExpr
from credal.corpus import klm_corpus
from credal.entail import conservative_check
from credal.procedures import InferenceProcedure, klm_properties_check
from credal.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, Row, solve_lp
from credal.spaces import enumerate_worlds
from tests.conftest import bland_lp, dense_pivot, highs_lp, lp_faults, mutant, scale_row

F = Fraction


def solve_rational(num_vars, rows, objective, maximize=False):
    """`solve_lp` on rational (coefficients, rel, rhs) rows, each made a
    `Row` by the reference `scale_row`."""
    return solve_lp(num_vars, [scale_row(*r, num_vars) for r in rows], objective, maximize)


def test_maximize_on_simplex():
    # max x0 + 2 x1 subject to x0 + x1 = 1
    status, x, value = solve_rational(2, [([F(1), F(1)], "=", F(1))], [F(1), F(2)], maximize=True)
    assert status == OPTIMAL
    assert x == [F(0), F(1)]
    assert value == F(2)


def test_two_phase_with_ge_rows():
    # min x0 + x1 s.t. x0 + 2 x1 >= 3, 3 x0 + x1 >= 4
    status, x, value = solve_rational(
        2,
        [([F(1), F(2)], ">=", F(3)), ([F(3), F(1)], ">=", F(4))],
        [F(1), F(1)],
    )
    assert status == OPTIMAL
    assert value == F(2)  # vertex (1, 1) beats the axis vertices (3 and 4)
    assert x == [F(1), F(1)]


def test_infeasible():
    status, _, _ = solve_rational(
        1, [([F(1)], ">=", F(2)), ([F(1)], "<=", F(1))], [F(1)])
    assert status == INFEASIBLE


def test_unbounded():
    status, _, _ = solve_rational(1, [([F(1)], ">=", F(0))], [F(1)], maximize=True)
    assert status == UNBOUNDED


def test_degenerate_equalities_are_fine():
    # duplicated equality rows exercise artificial eviction / row dropping
    rows = [([F(1), F(1)], "=", F(1)), ([F(2), F(2)], "=", F(2))]
    status, x, value = solve_rational(2, rows, [F(1), F(0)])
    assert status == OPTIMAL
    assert value == F(0)
    assert x[0] + x[1] == F(1)


def test_exactness_no_rounding():
    # max t s.t. p0 + p1 = 1, p0 - t >= 1/3, p0 + t <= 2/3  (band width 1/3)
    rows = [
        ([F(1), F(1), F(0)], "=", F(1)),
        ([F(1), F(0), F(-1)], ">=", F(1, 3)),
        ([F(1), F(0), F(1)], "<=", F(2, 3)),
        ([F(0), F(0), F(1)], "<=", F(1)),
    ]
    status, x, value = solve_rational(3, rows, [F(0), F(0), F(1)], maximize=True)
    assert status == OPTIMAL
    assert value == F(1, 6)
    assert x[0] == F(1, 2)


@pytest.mark.parametrize("num_vars, row, objective", [
    (3, [1, 1, 1], [0, 1, 2, 5]),
    (3, [1, 1, 1], [0, 1]),
    (2, [1, 1, 1], [0, 1]),
], ids=["long-objective", "short-objective", "long-row"])
def test_inputs_of_the_wrong_size_raise(num_vars, row, objective):
    # a cost or coefficient without its variable, or a variable without
    # its cost, must not be answered with some optimum
    with pytest.raises(ValueError, match="exactly"):
        solve_rational(num_vars, [(row, "=", 1)], objective, maximize=True)


def test_a_rational_tuple_row_is_not_converted():
    # solve_lp takes only integer Rows; Cell builds every row it pivots
    with pytest.raises(AttributeError):
        solve_lp(2, [([F(1), F(1)], "=", F(1))], [F(1), F(2)])


@pytest.mark.parametrize("ints", [[1, 1, 5, 1], [1, 1]], ids=["long-row", "short-row"])
def test_vertices_of_rows_of_the_wrong_width_raise(ints):
    # a coefficient without its variable must not be dropped, nor a
    # missing one read past the row's end
    with pytest.raises(ValueError, match="exactly"):
        simplex.vertices(2, [Row(ints, "=", 1)])


@pytest.mark.parametrize("scale", [-2, 0], ids=["negative", "zero"])
def test_a_row_at_a_scale_not_positive_raises(scale):
    # a Row is its rational row times a scale k > 0, and the phase-1
    # weights divide by k: unchecked, k = -2 makes this feasible LP read
    # infeasible and k = 0 divides by zero
    rows = [Row([1, 1, 1], "=", 1), Row([2, 0, 1], ">=", scale)]
    with pytest.raises(ValueError, match="scale must be positive"):
        solve_lp(2, rows, [1, 0])
    with pytest.raises(ValueError, match="scale must be positive"):
        simplex.vertices(2, rows)


# -- random LPs against the exact checker and HiGHS; pivot mutants -----------

_FLIP = {"<=": ">=", ">=": "<=", "=": "="}


def random_lps(seed, count):
    """Small LPs with <=, >= and = rows, negative right-hand sides, and
    duplicated rows (as written, doubled, or halved and negated)."""
    rng = random.Random(seed)

    def rational():
        return F(rng.randint(-4, 4), rng.choice((1, 2, 3)))

    for _ in range(count):
        n = rng.randint(1, 4)
        rows = [([rational() for _ in range(n)], rng.choice(("<=", ">=", "=")), rational())
                for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:
            rows.append(([F(1)] * n, "<=", F(rng.randint(1, 4))))
        for _ in range(rng.choice((0, 0, 1, 2))):
            coeffs, rel, b = rng.choice(rows)
            k = rng.choice((F(1), F(2), F(-1, 2)))
            rows.append(([k * c for c in coeffs], rel if k > 0 else _FLIP[rel], k * b))
        yield n, rows, [rational() for _ in range(n)], rng.random() < 0.5


def _disagreements(lps, oracle):
    found = []
    for lp in lps:
        status, x, value = solve_rational(*lp)
        if status == OPTIMAL and lp_faults(lp[0], lp[1], lp[2], x, value):
            found.append((lp, "checker"))
        elif oracle:
            expected, expected_value = highs_lp(*lp)
            if status != expected or (value is not None
                                      and abs(float(value) - expected_value) > 1e-9):
                found.append((lp, "oracle"))
    return found


def test_random_lps_pass_the_checker_and_match_highs():
    pytest.importorskip("scipy")
    lps = list(random_lps(2024, 400))
    statuses = Counter(solve_rational(*lp)[0] for lp in lps)
    assert min(statuses[s] for s in (OPTIMAL, INFEASIBLE, UNBOUNDED)) >= 40, statuses
    assert _disagreements(lps, oracle=True) == []


def scaled_lps(seed, count):
    """LPs over up to 12 variables with up to 6 rows, each row times an
    integer from 1 to 6 and its rhs over a denominator of its own, so
    that a row's integer coefficients share a factor and its rhs over
    that factor is a fraction; half have a zero objective, so x is where
    phase 1 ends."""
    rng = random.Random(seed)

    def rational():
        return F(rng.randint(-4, 4), rng.choice((1, 2, 3)))

    for _ in range(count):
        n = rng.randint(1, 12)
        rows = [([m * rational() for _ in range(n)], rng.choice(("<=", ">=", "=")),
                 m * rational() / rng.choice((1, 2, 5, 7)))
                for _ in range(rng.randint(1, 6)) for m in [rng.randint(1, 6)]]
        objective = [F(0)] * n if rng.random() < 0.5 else [rational() for _ in range(n)]
        yield n, rows, objective, rng.random() < 0.5


@pytest.mark.parametrize("lps", [random_lps, scaled_lps], ids=["as-drawn", "scaled"])
def test_solve_lp_is_blands_rule_on_the_rational_tableau(lps):
    # the integer tableau pivots exactly as Bland's rule over the rationals
    # with unit artificial costs on the rows as written, whatever integer
    # factor a row carries, so it ends at the same basis: the same status,
    # x and value, Fraction for Fraction
    statuses = Counter()
    for lp in lps(2024, 400):
        found = solve_rational(*lp)
        assert found == bland_lp(*lp), lp
        statuses[found[0]] += 1
    assert min(statuses[s] for s in (OPTIMAL, INFEASIBLE, UNBOUNDED)) >= 40, statuses


def lps_with_a_copied_column(seed, count):
    """LPs of `random_lps` with one column copied to a random place, once
    at the original's cost and once at another cost; each comes with the
    index of the later of the two equal columns and whether the costs
    are equal."""
    rng = random.Random(seed)
    for n, rows, objective, maximize in random_lps(seed, count):
        j = rng.randrange(n)
        at = rng.randint(0, n)
        later = at if at > j else j + 1
        for equal in (True, False):
            cost = objective[j] if equal else objective[j] + rng.choice((-1, 1))
            yield ((n + 1, [(coeffs[:at] + [coeffs[j]] + coeffs[at:], rel, b)
                            for coeffs, rel, b in rows],
                    objective[:at] + [cost] + objective[at:], maximize), later, equal)


def test_copied_columns_pass_the_checker_and_match_highs():
    pytest.importorskip("scipy")
    cases = list(lps_with_a_copied_column(2025, 200))
    lps = [lp for lp, _, _ in cases]
    statuses = Counter(solve_rational(*lp)[0] for lp in lps)
    assert min(statuses[s] for s in (OPTIMAL, INFEASIBLE, UNBOUNDED)) >= 20, statuses
    assert _disagreements(lps, oracle=True) == []


def test_a_later_equal_column_can_be_left_out_of_the_tableau():
    # Bland's rule never lets the later of two equal columns with equal
    # costs enter, so the solver leaves it out: the answer is the one of
    # the same LP without it, with that variable at 0; a copy at another
    # cost is carried and can take mass
    moved = 0
    for (n, rows, objective, maximize), later, equal in lps_with_a_copied_column(2025, 200):
        found = solve_rational(n, rows, objective, maximize)
        if equal:
            carried = simplex._distinct_columns([scale_row(*r, n) for r in rows],
                                                objective)
            assert later not in carried

            def drop(v):
                return v[:later] + v[later + 1:]

            status, x, value = solve_rational(n - 1, [(drop(c), rel, b) for c, rel, b in rows],
                                              drop(objective), maximize)
            assert found == (status, None if x is None else x[:later] + [0] + x[later:], value)
        elif found[0] == OPTIMAL:
            moved += found[1][later] != 0
    assert moved >= 10, moved


def random_pivots(seed, count):
    """(tableau, basis, leaving, entering, d, whether the last row is a
    cost row) along seeded walks of the reference `dense_pivot` from
    integer tableaux at d = 1: rows mostly zeros, some all zeros, entries
    of either sign and often +-1 or +-2, so that many pivots have p == d.
    A cost row has no basis entry and is never the pivot row."""
    rng = random.Random(seed)
    while True:
        n_rows, width = rng.randint(2, 6), rng.randint(3, 10)
        tableau = [[rng.choice((0, 0, 0, 1, -1, 2, -2, 3)) for _ in range(width + 1)]
                   if rng.random() < 0.85 else [0] * (width + 1) for _ in range(n_rows)]
        cost = rng.random() < 0.5
        basis = list(range(width, width + n_rows - cost))
        d = 1
        for _ in range(rng.randint(1, 6)):
            if not count:
                return
            leaving = rng.randrange(len(basis))
            columns = [j for j in range(width) if tableau[leaving][j]]
            if not columns:
                continue
            entering = rng.choice(columns)
            yield tableau, list(basis), leaving, entering, d, cost
            count -= 1
            tableau, d = dense_pivot(tableau, leaving, entering, d)
            basis[leaving] = entering


def test_pivot_is_the_dense_bareiss_update():
    # the sparse update, which rescales a row and recomputes only the
    # pivot row's nonzero columns, gives the dense update's integers on
    # every row, the cost row too, and writes no row list it was given:
    # `vertices` keeps tableaux whose rows the next pivot shares
    seen = Counter()
    for tableau, basis, leaving, entering, d, cost in random_pivots(2026, 600):
        before = [row.copy() for row in tableau]
        expected, p = dense_pivot(tableau, leaving, entering, d)
        work, after = list(tableau), list(basis)
        assert simplex._pivot(work, after, leaving, entering, d) == p
        assert work == expected
        assert after == basis[:leaving] + [entering] + basis[leaving + 1:]
        assert tableau == before
        seen["p == d" if p == d else "p != d"] += 1
        seen["negative pivot"] += tableau[leaving][entering] < 0
        seen["zero row"] += not all(map(any, tableau))
        seen["cost row"] += cost
    assert min(seen.values()) >= 50, seen


@pytest.mark.parametrize("old, new", [("if p < 0:", "if False:"),
                                      ("- f * r) // d", "- f * r) // 1")],
                         ids=["no-row-negation", "no-division"])
def test_checker_catches_pivot_mutants(monkeypatch, old, new):
    # the checker alone, without the oracle, sees both broken pivots
    monkeypatch.setattr(simplex, "_pivot", mutant(simplex, "_pivot", old, new))
    assert _disagreements(random_lps(2024, 400), oracle=False)


@pytest.mark.parametrize("name, pivots", [("maxent", 313), ("entailment", 2153)])
def test_pivot_count_on_klm_corpus(monkeypatch, cold_caches, name, pivots):
    # Bland's rule over the rationals made exactly these pivots; scaling
    # rows to integers must not change a single choice
    space = enumerate_worlds(["a", "b"])
    kbs, thetas, lle = klm_corpus(space)
    calls = []
    pivot = simplex._pivot
    monkeypatch.setattr(simplex, "_pivot", lambda *a: calls.append(1) or pivot(*a))
    assert klm_properties_check(getattr(InferenceProcedure, name)(), kbs, thetas,
                                lle_pairs=lle).all_pass
    assert len(calls) == pivots


def test_pivot_count_on_wide(monkeypatch, cold_caches):
    # the wide LPs of the tuple-cover gadgets (up to 120 worlds) and of
    # sigma's pinned probes on the 384-world product: Bland's rule on the
    # scaled rational rows made exactly these pivots, and the integer rows
    # each cell builds once must not change a single choice; nor must
    # leaving out the later of two equal columns, and the width pins
    # count the columns the solver carries; the pivots of sigma's vertex
    # walk, outside any LP, are counted apart.  The bit pins are the largest
    # denominator d and tableau entry after any pivot: rows enter primitive,
    # their rhs over one scale, so d is no product of the thresholds'
    # denominators
    gadgets = [harness.tuple_cover_gadget(n, d) for n in range(3, 12) for d in range(2, n)
               if math.perm(n, d) <= 120]
    demo = harness.conservative_extension_demo()
    calls = Counter()
    widths = []  # the variable columns each tableau carries
    bits = dict.fromkeys(["d", "entry"], 0)
    in_lp = []
    pivot, solve, distinct = simplex._pivot, simplex.solve_lp, simplex._distinct_columns

    def pivot_spy(tableau, *a):
        calls.update(["pivot" if in_lp else "walk pivot"])
        d = pivot(tableau, *a)
        bits["d"] = max(bits["d"], d.bit_length())
        bits["entry"] = max(bits["entry"], *(abs(v).bit_length() for row in tableau for v in row))
        return d

    def carried(rows, objective):
        keep = distinct(rows, objective)
        widths.append(len(keep))
        return keep

    def solve_spy(*a, **k):
        calls.update(["solve_lp"])
        in_lp.append(1)
        try:
            return solve(*a, **k)
        finally:
            in_lp.pop()

    monkeypatch.setattr(simplex, "_pivot", pivot_spy)
    monkeypatch.setattr(simplex, "solve_lp", solve_spy)
    monkeypatch.setattr(simplex, "_distinct_columns", carried)
    assert len(gadgets) == 13
    for g in gadgets:
        edge = F(g.params["d"], g.params["n"])
        assert not harness.gadget_feasible(g, edge)
        assert harness.gadget_feasible(g, edge * (1 - F(1, 256)))
    assert calls == {"pivot": 391, "solve_lp": 26}
    assert sum(widths) == 542  # of 1,550 world and t columns
    assert bits == {"d": 4, "entry": 24}
    calls.clear()
    widths.clear()
    bits.update(d=0, entry=0)
    report = conservative_check(TrueExpr(), demo["sigma"], demo["space"], x_factor=0,
                                n_samples=2, seed=0)
    assert report.status == "conservative_verified"
    # the vertices decide a one-cell closed psi, so no sample is drawn
    assert calls == {"pivot": 15, "solve_lp": 3, "walk pivot": 2}
    assert sum(widths) == 36  # of 773
    assert bits == {"d": 1, "entry": 3}
