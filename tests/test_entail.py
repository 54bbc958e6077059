import inspect
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

import credal
from credal import harness, simplex
from credal.constraints import (
    FALSE,
    TRUE,
    And,
    LinearAtom,
    Not,
    TrueExpr,
    and_,
    parse_constraint,
    satisfies,
    translate,
)
from credal.corpus import klm_corpus
from credal.embeddings import factor_lift
from credal.entail import (
    Cell,
    _holds_at,
    cells,
    conservative_check,
    entails,
    equivalent,
    is_interesting,
    linear_range,
    objective_normal_form,
    quarter_constraint,
    sample_measures,
    satisfiable,
)
from credal.harness import _plain_space, _random_kb
from credal.measures import Measure
from credal.optimize import maxent
from credal.procedures import (
    InferenceProcedure,
    i0_select,
    i1_select,
    infers,
    klm_properties_check,
    select,
)
from credal.spaces import (
    cylinder,
    enumerate_worlds,
    event_from_indices,
    event_of,
    product_space,
    whole_event,
)
from tests.conftest import SIX_PROCEDURES, basis_search_vertices, scale_row, simplex_grid

F = Fraction

CLOSED_CMP = {"=": "=", "<=": "<=", ">=": ">=", "<": "<=", ">": ">="}


def _fractional_atom(rng, sp, cmps=tuple(CLOSED_CMP)):
    """An atom of one to three terms with fractional coefficients, a
    bound that may be negative, and a comparator drawn from cmps."""
    n = len(sp.worlds)
    terms = tuple((F(rng.randint(-4, 4), rng.choice((1, 2, 3, 6))),
                   event_from_indices(sp, rng.sample(range(n), rng.randint(0, n))))
                  for _ in range(rng.randint(1, 3)))
    return LinearAtom(terms, rng.choice(cmps), F(rng.randint(-3, 3), rng.choice((1, 2, 4))))


def _extreme_support(atoms, sp, live):
    """Reference for `Cell.extreme_support`, on the atoms' rational
    coefficients."""
    changed = True
    while changed:
        changed = False
        for atom in atoms:
            coeffs = atom.coefficients()
            values = [coeffs[i] for i in live]
            if (atom.cmp in ("=", ">=", ">") and atom.bound == max(values)
                    or atom.cmp in ("=", "<=", "<") and atom.bound == min(values)):
                keep = [i for i in live if coeffs[i] == atom.bound]
                if len(keep) < len(live):
                    live, changed = keep, True
    return live


class TestSatisfiable:
    def test_contradictory_bounds(self, fly_bird_space):
        rep = satisfiable(parse_constraint("P(fly) >= 1/4 & P(fly) < 1/8", fly_bird_space))
        assert not rep.feasible

    def test_strict_interval_with_witness(self):
        two = enumerate_worlds(["p"])
        rep = satisfiable(parse_constraint("0 < P(p) < 1", two))
        assert rep.feasible
        assert satisfies(rep.witness, parse_constraint("0 < P(p) < 1", two))

    def test_witnesses_satisfy_exactly(self, fly_bird_space):
        for text in ("P(fly) > 1/3 & P(bird) < 2/3",
                     "!(P(fly & bird) >= 1/2) & P(fly) >= 1/4",
                     "P(fly | bird) = 1/2 | P(bird) > 7/8"):
            expr = parse_constraint(text, fly_bird_space)
            rep = satisfiable(expr)
            assert rep.feasible
            assert rep.witness.backend == "rational"
            assert satisfies(rep.witness, expr)

    def test_true_false_without_space(self):
        # true and false name no space: every entry point raises the one
        # error of space_of without a space, and answers over a given one
        two = enumerate_worlds(["p"])
        for expr in (TRUE, FALSE):
            questions = [
                lambda *sp: satisfiable(expr, *sp),
                lambda *sp: entails(expr, expr, *sp),
                lambda *sp: equivalent(expr, TRUE, *sp),
                lambda *sp: is_interesting(expr, *sp),
                lambda *sp: objective_normal_form(expr, *sp),
                lambda *sp: maxent(expr, *sp),
                lambda *sp: i0_select(expr, *sp),
                lambda *sp: i1_select(expr, *sp),
                lambda *sp: select(InferenceProcedure.maxent(), expr, *sp),
                lambda *sp: harness.essentially_entailment_probe(
                    InferenceProcedure.entailment(), expr, [event_of(two, "p")], *sp),
            ] + [lambda *sp, proc=proc: infers(proc, expr, TRUE, *sp) for proc in SIX_PROCEDURES]
            for ask in questions:
                with pytest.raises(ValueError) as raised:
                    ask()
                assert str(raised.value) == "pass the space: a constraint without atoms names none"
                ask(two)
            with pytest.raises(ValueError, match="^pass the space"):
                klm_properties_check(InferenceProcedure.entailment(), [expr], [TRUE])

    def test_a_witness_is_checked_once_per_cell(self, monkeypatch, cold_caches,
                                                fly_bird_space):
        # a cell's witness and the constraint that keys its set are both
        # fixed, so the check runs once per cell: again only on a fresh one
        from credal import entail

        calls = []
        check = entail.satisfies
        monkeypatch.setattr(entail, "satisfies", lambda *a: calls.append(1) or check(*a))
        expr = parse_constraint("P(fly) > 1/3 & P(bird) < 2/3", fly_bird_space)
        assert satisfiable(expr).feasible and len(calls) == 1
        assert satisfiable(expr).feasible and len(calls) == 1
        cells.cache_clear()
        assert satisfiable(expr).feasible and len(calls) == 2

    def test_a_wrong_lp_witness_raises(self, monkeypatch, cold_caches):
        # the LP point is re-checked against the constraint: a solver that
        # returned a distribution with t > 0 outside [[kb]] is caught
        space = enumerate_worlds(["a"])
        kb = parse_constraint("P(a) > 3/4", space)
        monkeypatch.setattr(simplex, "solve_lp", lambda *a, **k: (
            simplex.OPTIMAL, [F(1, 2), F(1, 2), F(1, 8)], F(1, 8)))
        try:
            with pytest.raises(ValueError, match="^LP witness does not satisfy the constraint$"):
                satisfiable(kb)
        finally:
            cells.cache_clear()  # the cell memoised the wrong witness

    def test_a_wrong_witness_raises_under_dash_o(self):
        # the witness check is no assert: python -O keeps it, so an LP
        # point that misses the constraint is never reported as feasible
        src = os.path.dirname(os.path.dirname(credal.__file__))
        script = (
            "from credal import entail\n"
            "from credal.constraints import parse_constraint\n"
            "from credal.measures import Measure\n"
            "from credal.spaces import enumerate_worlds\n"
            "space = enumerate_worlds(['a'])\n"
            "entail.Cell.witness = lambda self: Measure.uniform(space, 'rational')\n"
            "entail.satisfiable(parse_constraint('P(a) > 3/4', space))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 1
        assert "ValueError: LP witness does not satisfy the constraint" in run.stderr


class TestEntails:
    def test_threshold_weakening(self, fly_bird_space):
        kb = parse_constraint("P(fly) >= 1/2", fly_bird_space)
        assert entails(kb, parse_constraint("P(fly) >= 1/3", fly_bird_space))
        assert not entails(parse_constraint("P(fly) >= 1/3", fly_bird_space), kb)

    def test_frechet_bound(self, fly_bird_space):
        kb = parse_constraint("P(fly) >= 1/2 & P(bird) >= 9/10", fly_bird_space)
        theta = parse_constraint("P(fly & bird) >= 2/5", fly_bird_space)
        # oracle: dense grid search for the minimum of P(fly & bird)
        lo = min(mu.prob(event_of(fly_bird_space, "fly & bird"))
                 for mu in simplex_grid(fly_bird_space, 20)
                 if satisfies(mu, kb))
        assert lo == F(2, 5)
        assert entails(kb, theta)
        assert not entails(kb, parse_constraint("P(fly & bird) > 2/5", fly_bird_space))

    def test_conditional_irrelevance_not_entailed(self):
        sp = enumerate_worlds(["fly", "bird", "red"])
        kb = parse_constraint("P(fly | bird) >= 9/10", sp)
        theta = parse_constraint("P(fly | bird & red) >= 9/10", sp)
        assert not entails(kb, theta)

    def test_grid_agreement_small_spaces(self):
        from credal.spaces import Space, Vocabulary, World

        space = Space(Vocabulary(("g0", "g1")), (World(0, 2), World(1, 2), World(2, 2)))
        exprs = [
            parse_constraint("P(g0) >= 1/2", space),
            parse_constraint("P(g0) < 1/4 | P(g1) > 1/2", space),
            parse_constraint("P(g0 & g1) = 0", space),
            parse_constraint("!(P(g1) <= 1/4)", space),
        ]
        grid = list(simplex_grid(space, 20))
        for kb in exprs:
            for theta in exprs:
                claimed = entails(kb, theta, space)
                witness = next((mu for mu in grid
                                if satisfies(mu, kb) and not satisfies(mu, theta)), None)
                if witness is not None:
                    assert not claimed
                if claimed:
                    assert witness is None


class TestEquivalent:
    def test_objective_conjunction_collapses(self, fly_bird_space):
        a = parse_constraint("P(fly) = 1 & P(bird) = 1", fly_bird_space)
        b = parse_constraint("P(fly & bird) = 1", fly_bird_space)
        assert equivalent(a, b)

    def test_double_negation(self, fly_bird_space):
        a = parse_constraint("P(fly) >= 1/4", fly_bird_space)
        assert equivalent(a, parse_constraint("!(P(fly) < 1/4)", fly_bird_space))

    def test_different_thresholds_differ(self, fly_bird_space):
        a = parse_constraint("P(fly) >= 1/4", fly_bird_space)
        b = parse_constraint("P(fly) >= 1/3", fly_bird_space)
        assert not equivalent(a, b)


class TestIsInteresting:
    def test_direct_form(self, fly_bird_space):
        s = event_of(fly_bird_space, "fly")
        kb = parse_constraint("P(fly) >= 1/4", fly_bird_space)
        assert is_interesting(kb) == s

    def test_negated_form(self, fly_bird_space):
        kb = parse_constraint("!(P(fly) < 1/4)", fly_bird_space)
        found = is_interesting(kb)
        assert found == event_of(fly_bird_space, "fly")
        # oracle: full equivalence with the quarter constraint
        assert equivalent(kb, LinearAtom(((F(1), found),), ">=", F(1, 4)))

    def test_other_threshold_is_not(self, fly_bird_space):
        assert is_interesting(parse_constraint("P(fly) >= 1/2", fly_bird_space)) is None

    def test_true_excluded(self, fly_bird_space):
        assert is_interesting(parse_constraint("true", fly_bird_space), fly_bird_space) is None

    def test_any_space_size(self):
        sp = enumerate_worlds(["a", "b", "c", "d", "e"])  # 32 worlds
        assert is_interesting(parse_constraint("P(a) >= 1/4", sp)) == event_of(sp, "a")
        assert (is_interesting(parse_constraint("!(P(a & b) < 1/4)", sp))
                == event_of(sp, "a & b"))
        assert is_interesting(parse_constraint("P(a) > 1/4", sp)) is None

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_probes_reject_only_uninteresting_kbs(self, n):
        # reference: S from the point masses by `satisfies`, then
        # equivalence alone decides, with no probes in front of it
        space = _plain_space("i", n)
        rng = random.Random(90 + n)
        found = 0
        for _ in range(60):
            s = event_from_indices(space, rng.sample(range(n), rng.randrange(1, n)))
            kb = rng.choice([_random_kb(space, rng), quarter_constraint(s),
                             Not(LinearAtom(((F(1), s),), "<", F(1, 4))),
                             and_(quarter_constraint(s), _random_kb(space, rng))])
            ref = event_from_indices(space, [i for i in range(n)
                                             if satisfies(Measure.point_mass(space, i), kb)])
            if not (0 < ref.count < n and equivalent(kb, quarter_constraint(ref), space)):
                ref = None
            assert is_interesting(kb, space) == ref
            found += ref is not None
        assert found >= 10

    def test_cells_are_evaluated_like_satisfies(self):
        space = _plain_space("h", 5)
        rng = random.Random(11)
        for _ in range(80):
            kb = _random_kb(space, rng)
            kb_cells = list(cells(kb, space))
            support = rng.sample(range(5), rng.randrange(1, 4))
            cuts = sorted(F(rng.randrange(9), 8) for _ in support[1:])
            masses = [b - a for a, b in zip([F(0)] + cuts, cuts + [F(1)])]
            point = dict(zip(support, masses))
            mu = Measure.rational(space, [point.get(i, F(0)) for i in range(5)])
            assert _holds_at(kb_cells, point) == satisfies(mu, kb)


class TestObjectiveNormalForm:
    def test_conjunction_intersects(self, fly_bird_space):
        kb = parse_constraint("P(fly) = 1 & P(bird) = 1", fly_bird_space)
        assert objective_normal_form(kb) == event_of(fly_bird_space, "fly & bird")

    def test_threshold_is_not_objective(self, fly_bird_space):
        assert objective_normal_form(parse_constraint("P(fly) >= 1/2", fly_bird_space)) is None

    def test_true_is_whole_space(self, fly_bird_space):
        kb = parse_constraint("true", fly_bird_space)
        assert objective_normal_form(kb, fly_bird_space) == whole_event(fly_bird_space)

    def test_semantic_objective_found(self, fly_bird_space):
        # equivalent to P(fly & bird) = 1 without using the syntactic form
        kb = parse_constraint("P(fly) >= 1 & P(bird) >= 1", fly_bird_space)
        assert objective_normal_form(kb) == event_of(fly_bird_space, "fly & bird")

    def test_solves_no_lp_outside_equivalence(self, monkeypatch):
        # One LP per non-objective kb: the first entailment finds a
        # counterexample.
        from credal import simplex

        sp = enumerate_worlds(["a", "b", "c"])
        kbs, _, _ = klm_corpus(sp)
        calls = []
        solve_lp = simplex.solve_lp
        monkeypatch.setattr(simplex, "solve_lp", lambda *a, **k: calls.append(1) or solve_lp(*a, **k))
        found = [objective_normal_form(kb, sp) for kb in kbs]
        assert found.count(None) == 48
        assert len(calls) <= 48

    @pytest.mark.parametrize("case", [
        pytest.param("(P(a) > 1/2 & P(a) < 1/2) | P(b) >= 1", id="empty-first-cell"),
        pytest.param("P(a) >= 1 | P(a) + P(b) >= 2", id="union-of-faces"),
        pytest.param("P(a) >= 1 & (P(b) <= 1/2 | P(b) >= 1/2)", id="split-face"),
        pytest.param("P(a) >= 1 | P(b) >= 1", id="two-faces-not-objective"),
        pytest.param("P((a | b)) >= 1 & (P(a) > 0 | P(c) <= 0)", id="mixed-not-objective"),
        *(pytest.param(n, id=f"random-{n}-worlds") for n in (2, 3, 4, 6)),
    ])
    def test_multi_cell_matches_per_world_support(self, case):
        # Reference: T is every world i with kb & P({i}) > 0 satisfiable,
        # kept only when kb is equivalent to P(T) = 1.
        if isinstance(case, str):
            sp = enumerate_worlds(["a", "b", "c"])
            kbs = [parse_constraint(case, sp)]
        else:
            sp = _plain_space("e", case)
            rng = random.Random(case)
            kbs = [_random_kb(sp, rng) for _ in range(60)]
        for kb in kbs:
            support = [i for i in range(len(sp.worlds))
                       if satisfiable(and_(kb, LinearAtom(((F(1), event_from_indices(sp, [i])),),
                                                          ">", F(0))), sp).feasible]
            t = event_from_indices(sp, support)
            expected = t if equivalent(kb, LinearAtom(((F(1), t),), "=", F(1)), sp) else None
            assert objective_normal_form(kb) == expected


class TestCell:
    def test_witness_solve_support_and_closure(self, fly_bird_space):
        # worlds: !fly&!bird, !fly&bird, fly&!bird, fly&bird
        kb = parse_constraint("P(fly) > 1/2 & P(bird) >= 1", fly_bird_space)
        (cell,) = cells(kb, fly_bird_space)
        witness = cell.witness()
        assert satisfies(witness, kb)
        assert cell.witness() is witness  # memoised
        fly = [F(0), F(0), F(1), F(1)]
        assert cell.solve(fly, maximize=False, closed=True)[1] == F(1, 2)
        assert cell.support(range(4)) == [1, 3]
        boundary = {1: F(1, 2), 3: F(1, 2)}
        assert not cell.holds_at(boundary)
        assert not satisfies(Measure.rational(fly_bird_space, [F(0), F(1, 2), F(0), F(1, 2)]), kb)

    def test_pinned_witness(self, fly_bird_space):
        kb = parse_constraint("P(fly) > 1/2", fly_bird_space)
        (cell,) = cells(kb, fly_bird_space)
        fly = [0, 0, 1, 1]
        # a pinned probe answers with a fresh Measure, or None
        assert cell.witness([(fly, F(1, 2))]) is None
        assert cell.witness([(fly, F(3, 4))]) is not None
        assert cell.witness() is not None

    def test_feasible_checks_the_lp_point(self, monkeypatch, fly_bird_space):
        # a simplex that returned masses summing to 2 is caught by the
        # Measure the pinned witness builds
        (cell,) = cells(parse_constraint("P(fly) > 1/2", fly_bird_space), fly_bird_space)
        solve = simplex.solve_lp

        def doubled(*args, **kwargs):
            status, x, value = solve(*args, **kwargs)
            return status, [2 * v for v in x], value

        monkeypatch.setattr(simplex, "solve_lp", doubled)
        with pytest.raises(ValueError, match="nonnegative and sum to exactly 1"):
            cell.witness([([0, 0, 1, 1], F(3, 4))])

    def test_integer_rows_are_the_scaled_rational_rows(self, monkeypatch):
        # each cell builds its integer rows once, from the atoms' terms,
        # and each pin's row on each LP; they must be the rows the
        # reference scale_row makes of the rational rows, so the tableau
        # and every pivot stay those of the rational LP
        t_coeff = {"<": F(1), ">": F(-1)}
        rng = random.Random(14)
        pin_rng = random.Random(15)

        def atom(sp):
            return _fractional_atom(rng, sp)

        for n in (2, 5):
            sp = _plain_space("r", n)
            for _ in range(60):
                kb = and_(atom(sp), atom(sp)) if rng.random() < 0.5 else Not(atom(sp))
                for cell in cells(kb, sp):
                    for closed, rows in ((False, cell._open), (True, cell._closed)):
                        rational = [([F(1)] * n + [F(0)], "=", F(1))]
                        rational += [(a.coefficients()
                                      + [F(0) if closed else t_coeff.get(a.cmp, F(0))],
                                      CLOSED_CMP[a.cmp], a.bound) for a in cell.atoms]
                        rational.append(([F(0)] * n + [F(1)], "<=", F(1)))
                        assert rows == [scale_row(*row, n + 1) for row in rational]
                    pins = [([pin_rng.randint(0, 1) for _ in range(n)],
                             F(pin_rng.randint(0, 6), pin_rng.choice((1, 2, 3, 7))))
                            for _ in range(pin_rng.randint(1, 2))]
                    lps = []
                    with monkeypatch.context() as m:
                        m.setattr(simplex, "solve_lp", lambda _, rows, *a, **k:
                                  lps.append(rows) or (simplex.INFEASIBLE, None, None))
                        cell.solve(None, True, pins=pins)
                    assert lps[0][len(cell._open):] == [scale_row(coeffs + [0], "=", value, n + 1)
                                                        for coeffs, value in pins]

    def test_row_readers_match_the_rational_atoms(self):
        # holds_at, extreme_support and float_rows read the integer
        # rows, in each atom's own orientation; on atoms with negative
        # bounds they must agree with the rational atoms.  The
        # points are random, the cell's witness and closure optima,
        # which sit on the boundary of the strict atoms.
        rng = random.Random(16)
        seen = {"open": 0, "closure_only": 0, "negative_rhs": 0, "narrowed": 0}
        for n in (2, 3, 5):
            sp = _plain_space("q", n)
            for _ in range(80):
                a, b = _fractional_atom(rng, sp), _fractional_atom(rng, sp)
                kb = and_(a, b) if rng.random() < 0.5 else Not(a)
                for cell in cells(kb, sp):
                    atoms = cell.atoms
                    seen["negative_rhs"] += sum(row.ints[-1] < 0 for row in cell._open)
                    support = rng.sample(range(n), rng.randrange(1, n + 1))
                    cuts = sorted(F(rng.randrange(9), 8) for _ in support[1:])
                    masses = dict(zip(support, [y - x for x, y in zip([F(0)] + cuts,
                                                                      cuts + [F(1)])]))
                    points = [[masses.get(i, F(0)) for i in range(n)]]
                    if cell.witness() is not None:
                        points.append(list(cell.witness().weights))
                    for maximize in (False, True):
                        found = cell.solve([F(rng.randint(-3, 3)) for _ in range(n)], maximize,
                                           closed=True)
                        if found is not None:
                            points.append(found[0])
                    for x in points:
                        mu = Measure.rational(sp, x)
                        holds = all(satisfies(mu, atom) for atom in atoms)
                        closure = all(satisfies(mu, LinearAtom(atom.terms, CLOSED_CMP[atom.cmp],
                                                               atom.bound)) for atom in atoms)
                        sparse = {i: v for i, v in enumerate(x) if v}
                        assert cell.holds_at(sparse) == holds
                        seen["open"] += holds
                        seen["closure_only"] += closure and not holds
                    live = rng.sample(range(n), rng.randrange(1, n + 1))
                    narrowed = cell.extreme_support(live)
                    assert narrowed == _extreme_support(atoms, sp, live)
                    seen["narrowed"] += len(narrowed) < len(live)
                    sign = np.array([-1.0 if CLOSED_CMP[atom.cmp] == ">=" else 1.0
                                     for atom in atoms])
                    a_ref = np.array([atom.coefficients() for atom in atoms],
                                     dtype=float).reshape(len(atoms), n) * sign[:, None]
                    b_ref = np.array([float(atom.bound) for atom in atoms]) * sign
                    a_rows, b_rows, ineq = cell.float_rows
                    assert a_rows.tobytes() == a_ref.tobytes()
                    assert b_rows.tobytes() == b_ref.tobytes()
                    assert ineq.tolist() == [atom.cmp != "=" for atom in atoms]
        assert min(seen.values()) >= 10, seen

    def test_vertices_are_the_lp_optima(self):
        # Every optimum of a linear objective over a closed cell is
        # attained at a vertex, so the max and min of each objective
        # over cell.vertices() must be the exact LP's; a missed vertex
        # shows as an objective whose LP optimum no listed vertex meets.
        rng = random.Random(17)
        checked = empty = 0
        for n in (2, 3, 4, 5):
            sp = _plain_space("v", n)
            for _ in range(100):
                kb = And(tuple(_fractional_atom(rng, sp, ("=", "<=", ">="))
                               for _ in range(rng.randint(1, 3))))
                for cell in cells(kb, sp):
                    vertices = cell.vertices()
                    for _ in range(6):
                        objective = [F(rng.randint(-5, 5)) for _ in range(n)]
                        values = [sum(c * x for c, x in zip(objective, v)) for v in vertices]
                        for maximize, best in ((True, max), (False, min)):
                            found = cell.solve(objective, maximize, closed=True)
                            if found is None:
                                assert vertices == ()
                                continue
                            assert best(values) == found[1]
                    checked += bool(vertices)
                    empty += not vertices
        assert checked >= 100 and empty >= 10, (checked, empty)

    def test_vertices_match_the_basis_search(self):
        # the walk over feasible bases lists the same vertices, in the
        # same order, as the exhaustive search over row choices
        seen = Counter()
        for atoms, sp, dependent, expected in _vertex_corpus():
            assert list(Cell(atoms, sp).vertices()) == expected, [str(a) for a in atoms]
            seen["cells"] += 1
            seen["several"] += len(expected) > 1
            seen["dependent"] += dependent and bool(expected)
            seen["equality"] += any(atom.cmp == "=" for atom in atoms) and bool(expected)
        assert seen["cells"] >= 200 and min(seen.values()) >= 20, seen

    def test_a_bounded_walk_lists_the_same_vertices_or_stops(self):
        # within its limit the walk lists the vertices the whole walk
        # does, in the same order; one short of their count it stops
        seen = Counter()
        for atoms, sp, _, expected in _vertex_corpus():
            k = len(expected)
            assert list(Cell(atoms, sp).vertices(k)) == expected
            if k:
                assert Cell(atoms, sp).vertices(k - 1) is None
            seen["several" if k > 1 else "one" if k else "none"] += 1
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("old, new", [("entering):", "entering)[:1]:"),
                                          ("sorted(keys, key=keys.get)", "keys")],
                             ids=["lowest-tied-row-only", "discovery-order"])
    def test_basis_search_catches_walk_mutants(self, monkeypatch, old, new):
        source = inspect.getsource(simplex.vertices)
        assert source.count(old) == 1
        namespace = dict(vars(simplex))
        exec(source.replace(old, new), namespace)
        monkeypatch.setattr(simplex, "vertices", namespace["vertices"])
        assert any(list(Cell(atoms, sp).vertices()) != expected
                   for atoms, sp, _, expected in _vertex_corpus())


@lru_cache(maxsize=None)
def _vertex_corpus():
    """(atoms, space, whether the kb has dependent equalities, the
    reference vertex list) for the cells of seeded kbs on 2-6 worlds:
    template kbs, and conjunctions of fractional atoms, some with an
    equality repeated at twice its scale or P(whole) = 1 added."""
    rng = random.Random(5)
    out = []
    for n in range(2, 7):
        sp = _plain_space("v", n)
        for k in range(45):
            atoms = [_fractional_atom(rng, sp) for _ in range(rng.randint(1, 3))]
            if k % 3 == 2:
                terms, bound = atoms[0].terms, atoms[0].bound
                atoms += ([LinearAtom(terms, "=", bound),
                           LinearAtom(tuple((2 * c, e) for c, e in terms), "=", 2 * bound)]
                          if rng.random() < 0.5 else [LinearAtom(((F(1), whole_event(sp)),),
                                                                 "=", F(1))])
            kb = _random_kb(sp, rng) if k % 3 == 0 else And(tuple(atoms))
            out += [(cell.atoms, sp, k % 3 == 2, basis_search_vertices(cell.atoms, sp))
                    for cell in cells(kb, sp)]
    return tuple(out)


@pytest.fixture
def full_width(monkeypatch):
    """Solve every LP twice, on the columns the solver's own step carries
    and with a step that keeps every column, and require the same
    (status, x, value); yields a counter of the calls and of those whose
    tableau left a column out."""
    solve, distinct = simplex.solve_lp, simplex._distinct_columns
    seen = Counter()
    narrowed = []

    def spy(rows, objective):
        keep = distinct(rows, objective)
        narrowed.append(len(keep) < len(objective))
        return keep

    def both(num_vars, rows, objective, maximize=False):
        found = solve(num_vars, rows, objective, maximize)
        with monkeypatch.context() as m:
            m.setattr(simplex, "_distinct_columns", lambda rows, c: list(range(len(c))))
            assert found == solve(num_vars, rows, objective, maximize)
        seen.update(["calls"] + ["narrowed"] * narrowed.pop())
        return found

    monkeypatch.setattr(simplex, "_distinct_columns", spy)
    monkeypatch.setattr(simplex, "solve_lp", both)
    return seen


def _per_world_lp(cell, rows, objective, maximize, pins=()):
    """The cell's LP on one column per world: (world masses, value), or
    None when it has no optimum."""
    n = len(cell.space.worlds)
    rows = rows + [scale_row(coeffs + [0], "=", value, n + 1) for coeffs, value in pins]
    status, x, value = simplex.solve_lp(n + 1, rows, objective, maximize)
    return (x[:n], value) if status == simplex.OPTIMAL else None


class TestOneColumnPerClass:
    """An LP carries one column per class of variables whose columns and
    costs coincide; a Cell's answers must be exactly the ones with a
    column per world."""

    def test_cells_answer_as_with_a_column_per_world(self, full_width):
        # events over a and b only, on a space over a, b, c and d, so
        # each world has three others no atom tells apart; objectives
        # repeat coefficients, and pins split classes or keep them
        rng = random.Random(19)
        sp = enumerate_worlds(["a", "b", "c", "d"])
        n = len(sp.worlds)
        quarters = [event_of(sp, f) for f in ("a & b", "a & !b", "!a & b", "!a & !b")]
        splitting = [event_of(sp, f) for f in ("c", "a & d", "!b | c")]

        def event(choices):
            return event_from_indices(sp, [i for ev in rng.sample(choices, rng.randint(0, 2))
                                           for i in ev.indices()])

        def atom():
            terms = tuple((F(rng.randint(-3, 3), rng.choice((1, 2, 3))), event(quarters))
                          for _ in range(rng.randint(1, 2)))
            return LinearAtom(terms, rng.choice(("=", "<=", ">=", "<", ">")),
                              F(rng.randint(-1, 3), 4))

        def objective():
            if rng.random() < 0.5:  # constant on the quarters
                values = [F(rng.randint(-2, 2)) for _ in quarters]
                return [next(v for q, v in zip(quarters, values) if i in q) for i in range(n)]
            return [F(rng.choice((-1, 0, 0, 1, 2)), 2) for _ in range(n)]

        def pins():
            return [([int(i in ev) for i in range(n)], F(rng.randint(0, 4), 4))
                    for ev in rng.sample(quarters + splitting, rng.randint(1, 2))]

        seen = Counter()
        for _ in range(200):
            kb = and_(atom(), atom()) if rng.random() < 0.6 else Not(atom())
            for cell in cells(kb, sp):
                found = _per_world_lp(cell, cell._open, [0] * n + [1], True)
                witness = cell.witness()
                assert (None if witness is None else list(witness.weights)) == (
                    found[0] if found is not None and found[1] > 0 else None)
                seen["witness"] += witness is not None
                seen["empty"] += witness is None
                probe = pins()
                found = _per_world_lp(cell, cell._open, [0] * n + [1], True, probe)
                feasible = cell.witness(probe) is not None
                assert feasible == (found is not None and found[1] > 0)
                seen["feasible"] += feasible
                for closed, rows in ((False, cell._open), (True, cell._closed)):
                    c, maximize = objective(), rng.random() < 0.5
                    for extra in ((), probe):
                        found = _per_world_lp(cell, rows, c + [0], maximize, extra)
                        assert cell.solve(c, maximize, closed, extra) == found
                        seen["solved"] += found is not None
                candidates = rng.sample(range(n), 4)
                for extra in ((), probe):
                    expected = []
                    for i in candidates:
                        unit = [F(int(j == i)) for j in range(n + 1)]
                        found = _per_world_lp(cell, cell._closed, unit, True, extra)
                        if found is not None and found[1] > 0:
                            expected.append(i)
                    assert cell.support(candidates, extra) == expected
                    seen["support"] += len(expected)
        assert min(seen.values()) >= 50, seen
        # the cell's LPs and the per-world references alike: the events
        # tell c and d apart nowhere, so nearly every tableau is narrower
        assert full_width["narrowed"] >= 0.9 * full_width["calls"], full_width

    def test_gadgets_and_sigma_probes_answer_as_with_a_column_per_world(
            self, cold_caches, full_width):
        # the wide LPs: the 13 tuple-cover gadgets on each side of their
        # threshold, and sigma's pinned probes on the 384-world product
        gadgets = [harness.tuple_cover_gadget(n, d) for n in range(3, 12) for d in range(2, n)
                   if math.perm(n, d) <= 120]
        assert len(gadgets) == 13
        for g in gadgets:
            edge = F(g.params["d"], g.params["n"])
            assert not harness.gadget_feasible(g, edge)
            assert harness.gadget_feasible(g, edge * (1 - F(1, 256)))
        demo = harness.conservative_extension_demo()
        report = conservative_check(TrueExpr(), demo["sigma"], demo["space"], x_factor=0,
                                    n_samples=2, seed=0)
        assert report.status == "conservative_verified"
        # all but sample_measures' two LPs on X, whose objectives tell
        # its two worlds apart
        assert full_width == {"calls": 33, "narrowed": 31}

    def test_columns_coincide_across_event_classes(self, cold_caches, full_width):
        # !a & !b and a & b lie in different events of P(a) - P(b) >= 0
        # but both read 0 in its row, so with equal costs their columns
        # coincide and only the lower world is carried; carrying the later
        # one would move the mass onto it
        sp = enumerate_worlds(["a", "b"])
        (cell,) = cells(parse_constraint("P(a) - P(b) >= 0", sp), sp)
        (lower,), (later,) = (list(event_of(sp, f).indices()) for f in ("!a & !b", "a & b"))
        assert lower < later
        assert cell.witness().weights == tuple(F(int(i == lower)) for i in range(4))
        found = cell.solve([F(i in (lower, later)) for i in range(4)], True, closed=True)
        assert found == ([F(int(i == lower)) for i in range(4)], 1)
        assert full_width == {"calls": 2, "narrowed": 2}


class TestLinearRangeAndSampling:
    def test_range_over_band(self, fly_bird_space):
        kb = parse_constraint("P(fly) >= 1/4 & P(fly) <= 2/3", fly_bird_space)
        ev = event_of(fly_bird_space, "fly")
        assert linear_range(kb, ((F(1), ev),), fly_bird_space) == (F(1, 4), F(2, 3))

    def test_range_skips_empty_cells_and_is_none_when_unsatisfiable(self):
        sp = enumerate_worlds(["a", "b"])
        a = ((F(1), event_of(sp, "a")),)
        # oracle: P(a) at the grid points of [[kb]], which is closed
        kb = parse_constraint("P(a) > 1 | P(a) <= 1/2", sp)
        values = [mu.prob(a[0][1]) for mu in simplex_grid(sp, 12) if satisfies(mu, kb)]
        assert linear_range(kb, a, sp) == (min(values), max(values)) == (0, F(1, 2))
        assert linear_range(parse_constraint("P(a) > 1", sp), a, sp) is None

    def test_samples_satisfy(self, fly_bird_space):
        kb = parse_constraint("P(fly) > 1/4 & P(bird) < 2/3", fly_bird_space)
        samples = sample_measures(kb, fly_bird_space, 12, seed=4)
        assert len(samples) == 12
        for mu in samples:
            assert satisfies(mu, kb)

    def test_a_sample_outside_the_constraint_raises(self, monkeypatch, fly_bird_space):
        # each sample is checked against the constraint: one that fails
        # raises rather than being dropped
        from credal import entail

        kb = parse_constraint("P(fly) > 1/4 & P(bird) < 2/3", fly_bird_space)
        monkeypatch.setattr(entail, "satisfies", lambda *a: False)
        with pytest.raises(ValueError, match="^sampled measure does not satisfy the constraint$"):
            sample_measures(kb, fly_bird_space, 12, seed=4)


class TestConservativeCheck:
    def _setup(self):
        x = enumerate_worlds(["s"])
        y = enumerate_worlds(["t"])
        xy = product_space([x, y])
        s = event_of(x, "s")
        t = event_from_indices(y, [1])
        iff = ((cylinder(xy, 0, s) & cylinder(xy, 1, t))
               | (~cylinder(xy, 0, s) & ~cylinder(xy, 1, t)))
        return x, y, xy, s, t, iff

    def test_crossproduct_iff_is_conservative(self, fly_bird_space):
        x, y, xy, s, t, iff = self._setup()
        psi = LinearAtom(((F(1), iff),), "=", F(1))
        from credal.constraints import TrueExpr

        rep = conservative_check(TrueExpr(), psi, xy)
        assert rep.status == "conservative_verified"
        # oracle: the coupling construction extends any marginal explicitly
        from credal.measures import couple

        nu = Measure.rational(x, [F(3, 7), F(4, 7)])
        tau = Measure.rational(y, [F(3, 7), F(4, 7)])
        joint = couple(nu, s, tau, t)
        assert satisfies(joint, psi)

    def test_marginal_restriction_detected(self):
        x, y, xy, s, t, iff = self._setup()
        psi = And((LinearAtom(((F(1), cylinder(xy, 1, t)),), "=", F(1)),
                   LinearAtom(((F(1), cylinder(xy, 0, s)),), "=", F(0))))
        kb = parse_constraint("P(s) > 0", x)
        rep = conservative_check(kb, psi, xy)
        assert rep.status == "not_conservative"
        assert satisfies(rep.witness, kb)

    def test_true_psi_is_conservative(self, fly_bird_space):
        x, y, xy, *_ = self._setup()
        kb = parse_constraint("P(s) >= 1/4", x)
        from credal.constraints import TrueExpr

        rep = conservative_check(kb, TrueExpr(), xy)
        assert rep.status == "conservative_verified"

    @pytest.mark.parametrize("kb_text", ["P(a) = 1/2", "P(a) = 1/2 & P(!a) = 1/2"])
    def test_dependent_equalities_keep_the_vertices(self, kb_text):
        # P(!a) = 1/2 is the simplex row minus P(a) = 1/2: the vertex
        # search needs one tight row per missing rank, not per equality
        x = enumerate_worlds(["a", "b"])
        xy = product_space([x, enumerate_worlds(["c"])])
        psi = translate(factor_lift(xy, x), parse_constraint("P(a & b) < 1/2", x))
        rep = conservative_check(parse_constraint(kb_text, x), psi, xy)
        assert rep.status == "not_conservative"

    def _lifted(self, text):
        x, _, xy, *_ = self._setup()
        return x, xy, translate(factor_lift(xy, x), parse_constraint(text, x))

    def test_two_cell_psi_is_not_verified(self):
        # no extension has P(s) = 1/3, but every vertex and sample of
        # [[true]] extends: a union of cells escapes the vertex test
        _, xy, psi = self._lifted("P(s) < 1/3 | P(s) > 1/3")
        rep = conservative_check(TrueExpr(), psi, xy)
        assert rep.status == "inconclusive" and rep.witness is None

    def test_strict_psi_is_not_verified(self):
        # P(s) = 3/8 satisfies kb and has no extension; the closure
        # vertex P(s) = 1/3 fails, but it lies outside [[kb]]
        x, xy, psi = self._lifted("P(s) > 2/5")
        rep = conservative_check(parse_constraint("P(s) > 1/3", x), psi, xy)
        assert rep.status == "inconclusive" and rep.witness is None

    def test_closed_psi_moves_a_failed_vertex_into_kb(self):
        # the failed vertex P(s) = 1/3 is moved toward the cell's witness
        # until the moved point, inside [[kb]], fails too
        x, xy, psi = self._lifted("P(s) >= 2/5")
        kb = parse_constraint("P(s) > 1/3", x)
        rep = conservative_check(kb, psi, xy)
        assert rep.status == "not_conservative"
        assert satisfies(rep.witness, kb)
        assert F(1, 3) < rep.witness.prob(event_of(x, "s")) < F(2, 5)


def test_a_vertex_refutes_on_nine_worlds():
    # psi pins world 0 of X to zero mass, so the closure vertex of
    # [[true]] at the point mass on world 0 has no extension
    x = _plain_space("x", 9)
    xy = product_space([x, enumerate_worlds(["c"])])
    psi = translate(factor_lift(xy, x),
                    LinearAtom(((F(1), event_from_indices(x, [0])),), "=", F(0)))
    rep = conservative_check(TrueExpr(), psi, xy)
    assert rep.status == "not_conservative"
    assert rep.witness.weights[0] > 0


def test_conservative_check_verifies_on_nine_worlds():
    # the vertex search has no size limit: every vertex of [[true]] on
    # 9 worlds extends under the closed one-cell psi = true
    big = _plain_space("big", 9)
    xy = product_space([big, enumerate_worlds(["o"])])
    rep = conservative_check(TrueExpr(), TrueExpr(), xy, n_samples=2)
    assert rep.status == "conservative_verified"


class TestRandomizedEngineSoundness:
    """Randomized cross-validation of the exact engine against a grid
    oracle, using the same template grammar the falsifier draws from."""

    def test_satisfiable_and_entails_agree_with_grid(self):
        import random

        from credal.harness import _plain_space, _random_kb, _random_theta
        from tests.conftest import basis_search_vertices, simplex_grid

        space = _plain_space("e", 3)
        grid = list(simplex_grid(space, 12))
        rng = random.Random(2024)
        checked = 0
        for _ in range(150):
            kb = _random_kb(space, rng)
            theta = _random_theta(space, rng)
            rep = satisfiable(kb, space)
            grid_sat = any(satisfies(mu, kb) for mu in grid)
            if grid_sat:
                assert rep.feasible  # a grid witness is a real witness
            if rep.feasible:
                assert satisfies(rep.witness, kb)  # exact soundness
            claimed = entails(kb, theta, space)
            counter = next((mu for mu in grid
                            if satisfies(mu, kb) and not satisfies(mu, theta)), None)
            if counter is not None:
                assert not claimed
            checked += 1
        assert checked == 150

    def test_equivalence_is_reflexive_and_symmetric(self):
        import random

        from credal.harness import _plain_space, _random_kb

        space = _plain_space("q", 3)
        rng = random.Random(7)
        for _ in range(40):
            a = _random_kb(space, rng)
            b = _random_kb(space, rng)
            assert equivalent(a, a, space)
            assert equivalent(a, b, space) == equivalent(b, a, space)
