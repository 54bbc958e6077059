import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from credal.constraints import (
    And,
    FalseExpr,
    LinearAtom,
    Not,
    Or,
    ProductAtom,
    TrueExpr,
    and_,
    parse_constraint,
    satisfies,
)
from credal.corpus import factor_kb_templates, klm_corpus
from credal.entail import entails, equivalent, satisfiable
from credal.errors import CredalError, DomainError
from credal.measures import Measure, product_measure
from credal.procedures import (
    InferenceProcedure,
    KlmViolation,
    _factorize,
    PriorFunction,
    i0_select,
    i1_select,
    infers,
    klm_properties_check,
    minimal_default_independence_check,
    product_prior_infer,
    select,
)
from credal.spaces import (
    Space,
    component_map,
    enumerate_worlds,
    event_from_indices,
    event_of,
    product_decomposition,
    product_space,
)
from tests.conftest import SIX_PROCEDURES, simplex_grid

F = Fraction


class TestInfersExamples:
    def test_maxent_flying_bird(self, fly_bird_space):
        v = infers(InferenceProcedure.maxent(),
                   parse_constraint("P(fly | bird) = 1/2", fly_bird_space),
                   parse_constraint("P(bird) = 1/2", fly_bird_space))
        assert v.holds and v.mode == "exact"

    def test_i1_tightens_quarter_to_third(self, fly_bird_space):
        v = infers(InferenceProcedure.i1(),
                   parse_constraint("P(fly) >= 1/4", fly_bird_space),
                   parse_constraint("P(fly) >= 1/3", fly_bird_space))
        assert v.holds

    def test_i0_nontrivial_on_true(self):
        two = enumerate_worlds(["p"])
        open_interval = parse_constraint("0 < P(p) < 1", two)
        assert infers(InferenceProcedure.i0(), TrueExpr(), open_interval, two).holds
        assert not infers(InferenceProcedure.entailment(), TrueExpr(), open_interval, two).holds

    def test_maxent_domain_error_when_not_attained(self):
        two = enumerate_worlds(["p"])
        with pytest.raises(DomainError, match="domain"):
            infers(InferenceProcedure.maxent(),
                   parse_constraint("P(p) < 1/2", two),
                   parse_constraint("P(p) <= 1", two))

    def test_product_atom_in_kb_rejected(self, fly_bird_space):
        atom = ProductAtom(event_of(fly_bird_space, "fly & bird"),
                           (event_of(fly_bird_space, "fly"), event_of(fly_bird_space, "bird")))
        with pytest.raises(CredalError, match="query-only"):
            infers(InferenceProcedure.entailment(), atom, TrueExpr(), fly_bird_space)


def _half_prior_list(sp):
    return InferenceProcedure.prior_based(PriorFunction.of({sp: [
        Measure.from_floats(sp, [0.5, 0.5]), Measure.from_floats(sp, [0.25, 0.75])]}))


class TestReflexivityAtTheTolerance:
    """A projection keeps only measures that pass the test `infers`
    applies to them, so KB |~ KB holds or the projection is unattained:
    a bound within EPS of the optimum is never a False verdict."""

    @pytest.mark.parametrize("k", [1, 5, 10, 11, 20, 100, 1000])
    @pytest.mark.parametrize("cmp", ["<", ">"])
    @pytest.mark.parametrize("make", [lambda sp: InferenceProcedure.maxent(), _half_prior_list],
                             ids=["maxent", "finite"])
    def test_kb_infers_itself_or_is_out_of_domain(self, k, cmp, make):
        sp = enumerate_worlds(["a"])
        margin = F(k, 10**10) if cmp == "<" else -F(k, 10**10)
        kb = LinearAtom(((F(1), event_of(sp, "a")),), cmp, F(1, 2) + margin)
        try:
            v = infers(make(sp), kb, kb, sp)
        except DomainError:
            assert k <= 10 or make is _half_prior_list
            return
        assert v.holds
        assert k > 10


class TestSelections:
    def test_i0_objective_full_support(self, fly_bird_space):
        kb = parse_constraint("P(bird) = 1", fly_bird_space)
        sel = i0_select(kb)
        inside = Measure.rational(fly_bird_space, [0, F(1, 2), 0, F(1, 2)])
        boundary = Measure.rational(fly_bird_space, [0, 1, 0, 0])
        assert satisfies(inside, sel)
        assert not satisfies(boundary, sel)
        # and the selection entails every 0 < P(S) < 1 for S strictly between
        s = event_from_indices(fly_bird_space, [1])
        assert entails(sel, parse_constraint("0 < P(!fly & bird) < 1", fly_bird_space))

    def test_i0_singleton_objective_is_point_mass(self, fly_bird_space):
        kb = parse_constraint("P(fly & bird) = 1", fly_bird_space)
        sel = i0_select(kb)
        assert satisfies(Measure.rational(fly_bird_space, [0, 0, 0, 1]), sel)
        assert not satisfies(Measure.rational(fly_bird_space, [0, 0, F(1, 2), F(1, 2)]), sel)

    def test_i0_non_objective_is_entailment(self, fly_bird_space):
        kb = parse_constraint("P(fly) >= 1/2", fly_bird_space)
        sel = i0_select(kb)
        assert sel == kb

    def test_i0_empty_objective_selects_false(self):
        sp = enumerate_worlds(["a", "b"])
        kb = parse_constraint("P(a) = 1 & P(!a) = 1", sp)
        assert i0_select(kb, sp) == FalseExpr()
        for theta in klm_corpus(sp)[1]:
            assert infers(InferenceProcedure.i0(), kb, theta, sp).holds == entails(kb, theta, sp)

    def test_i1_negated_quarter_tightened(self, fly_bird_space):
        kb = parse_constraint("!(P(fly) < 1/4)", fly_bird_space)
        sel = i1_select(kb)
        third = parse_constraint("P(fly) >= 1/3", fly_bird_space)
        from credal.entail import equivalent

        assert equivalent(sel, third)

    def test_i1_other_kbs_unchanged(self, fly_bird_space):
        kb = parse_constraint("P(fly) >= 1/2", fly_bird_space)
        assert i1_select(kb) == kb

    def test_i1_false_kb_empty(self, fly_bird_space):
        kb = parse_constraint("P(fly) > 1/2 & P(fly) < 1/4", fly_bird_space)
        sel = i1_select(kb)
        assert not satisfiable(sel, fly_bird_space).feasible


class TestSelectionSoundness:
    @pytest.mark.parametrize("maker", [
        InferenceProcedure.entailment,
        InferenceProcedure.maxent,
        InferenceProcedure.i0,
        InferenceProcedure.i1,
        lambda: InferenceProcedure.prior_based(PriorFunction.uniform()),
    ])
    def test_selected_inside_denotation(self, maker, fly_bird_space):
        proc = maker()
        kbs, _, _ = klm_corpus(fly_bird_space)
        for kb in kbs[:25]:
            sel = select(proc, kb, fly_bird_space)
            feasible = satisfiable(kb, fly_bird_space).feasible
            if isinstance(sel, tuple):
                assert (len(sel) > 0) == feasible
                for m in sel:
                    assert satisfies(m, kb, eps=1e-7)
            else:
                assert satisfiable(sel, fly_bird_space).feasible == feasible
                assert entails(sel, kb, fly_bird_space)


class TestKlmProperties:
    def test_entailment_and_friends_pass(self, fly_bird_space):
        kbs, thetas, lle = klm_corpus(fly_bird_space)
        for proc in (InferenceProcedure.entailment(), InferenceProcedure.i1()):
            rep = klm_properties_check(proc, kbs[:20], thetas, lle_pairs=lle)
            assert rep.all_pass

    def test_maxent_closed_corpus_passes(self, fly_bird_space):
        kbs, thetas, lle = klm_corpus(fly_bird_space)
        rep = klm_properties_check(InferenceProcedure.maxent(), kbs[:20], thetas, lle_pairs=lle)
        assert rep.all_pass

    def test_broken_procedure_fails_reflexivity(self, fly_bird_space):
        kbs, thetas, _ = klm_corpus(fly_bird_space)
        rep = klm_properties_check(InferenceProcedure.broken(), kbs[:10], thetas)
        assert not rep.all_pass
        assert "Reflexivity" in rep.by_property()


    def test_each_property_reports_its_witnesses(self, monkeypatch, fly_bird_space):
        # scripted verdicts break Consistency, Right Weakening, And and
        # Left Logical Equivalence once each; a pair that is not
        # equivalent is skipped without a query
        from types import SimpleNamespace

        from credal import procedures

        sp = fly_bird_space
        kb, kb_same, kb_other = (parse_constraint(t, sp) for t in (
            "P(fly) >= 1/2", "!(P(fly) < 1/2)", "P(fly) >= 1/3"))
        a, b, c = (parse_constraint(t, sp) for t in (
            "P(fly) >= 3/4", "P(fly) >= 1/4", "P(bird) >= 1/2"))
        script = {(kb, kb): True, (kb, FalseExpr()): True,
                  (kb, a): True, (kb, b): False, (kb, c): True, (kb, and_(a, c)): False,
                  (kb_same, a): True, (kb_same, b): True, (kb_same, c): True}
        monkeypatch.setattr(procedures, "infers", lambda proc, kb, theta, space:
                            SimpleNamespace(holds=script[kb, theta]))
        rep = klm_properties_check(InferenceProcedure.entailment(), [kb], [a, b, c],
                                   lle_pairs=[(kb, kb_same), (kb, kb_other)])
        assert rep.checked == 1
        assert rep.violations == (
            KlmViolation("Consistency", kb),
            KlmViolation("Right Weakening", kb, a, b),
            KlmViolation("And", kb, a, c),
            KlmViolation("Left Logical Equivalence", kb, b, kb_same))
        assert rep.by_property() == {"Consistency": 1, "Right Weakening": 1, "And": 1,
                                     "Left Logical Equivalence": 1}


class TestMinimalDefaultIndependence:
    def test_maxent_enforces_it(self, fly_bird_space):
        y = enumerate_worlds(["t"])
        v = minimal_default_independence_check(
            InferenceProcedure.maxent(),
            parse_constraint("P(fly | bird) = 1/2", fly_bird_space),
            event_of(fly_bird_space, "bird"), event_of(y, "t"))
        assert v.holds and v.mode == "exact"

    def test_entailment_does_not(self, fly_bird_space):
        y = enumerate_worlds(["t"])
        v = minimal_default_independence_check(
            InferenceProcedure.entailment(),
            parse_constraint("P(fly | bird) = 1/2", fly_bird_space),
            event_of(fly_bird_space, "bird"), event_of(y, "t"))
        assert not v.holds
        assert v.evidence  # a correlated witness measure

    def test_product_family_enforces_it(self):
        x = enumerate_worlds(["s1"])
        y = enumerate_worlds(["s2"])
        v = minimal_default_independence_check(
            InferenceProcedure.prior_based(PriorFunction.product_family()),
            parse_constraint("P(s1) = 3/5", x),
            event_of(x, "s1"), event_of(y, "s2"))
        assert v.holds and v.mode == "exact"


class TestProductFamilySampled:
    def test_eps_reaches_the_sampled_path(self):
        # P(a & b) is no cylinder, so the kb does not factorize and the
        # projected priors are sampled; they sit on P(a & b) = 1/2, 1e-7
        # short of theta, which only a tolerance of 1e-6 forgives.
        sp = enumerate_worlds(["a", "b"])
        kb = parse_constraint("P(a & b) >= 1/2", sp)
        theta = parse_constraint("P(a & b) >= 0.5000001", sp)
        proc = InferenceProcedure.prior_based(PriorFunction.product_family())
        assert not infers(proc, kb, theta, sp).holds
        v = infers(proc, kb, theta, sp, eps=1e-6)
        assert v.holds and v.mode == "sampled"
        assert infers(InferenceProcedure.maxent(), kb, theta, sp, eps=1e-6).holds

    def test_point_masses_beyond_64_worlds(self):
        # the corner priors are the point masses that satisfy kb, at any
        # size: on 128 worlds the last one (all symbols true) refutes theta
        sp = enumerate_worlds(list("abcdefg"))
        kb = parse_constraint("P(a & b) >= 1/2", sp)
        theta = parse_constraint("P(a & b & c & d & e & f & g) < 9/10", sp)
        proc = InferenceProcedure.prior_based(PriorFunction.product_family())
        v = infers(proc, kb, theta, sp)
        assert not v.holds and v.mode == "sampled"
        assert v.evidence == (Measure.point_mass(sp, 127, backend="float"),)


    def test_an_unsatisfiable_kb_infers_everything(self):
        # P(a <=> b) is no rectangle, so the kb does not factorize
        sp = enumerate_worlds(["a", "b"])
        kb = parse_constraint("P(a <=> b) >= 1/2 & P(a <=> b) < 1/4", sp)
        assert _factorize(kb, sp) is None
        proc = InferenceProcedure.prior_based(PriorFunction.product_family())
        for theta in klm_corpus(sp)[1] + [FalseExpr()]:
            v = infers(proc, kb, theta, sp)
            assert v.holds == entails(kb, theta, sp) and v.mode == "exact"


class TestProductPriorInfer:
    def _spaces(self):
        a = enumerate_worlds(["s1"])
        b = enumerate_worlds(["s2"])
        return a, b, product_space([a, b])

    def test_product_value_is_exact(self):
        a, b, x = self._spaces()
        v = product_prior_infer(
            [parse_constraint("P(s1) = 3/5", a), parse_constraint("P(s2) = 3/10", b)],
            parse_constraint("P(s1 & s2) = 9/50", x), x)
        assert v.holds and v.mode == "exact"
        # oracle: ten thousand random product measures all hit 9/50
        rng = random.Random(0)
        s1s2 = event_of(x, "s1 & s2")
        for _ in range(10_000):
            pa = F(3, 5)
            pb = F(3, 10)
            mu = product_measure(
                [Measure.rational(a, [1 - pa, pa]), Measure.rational(b, [1 - pb, pb])], x)
            assert mu.prob(s1s2) == F(9, 50)

    def test_structural_independence_atom(self):
        a, b, x = self._spaces()
        atom = ProductAtom(event_of(x, "s1 & s2"), (event_of(x, "s1"), event_of(x, "s2")))
        v = product_prior_infer(
            [parse_constraint("P(s1) >= 1/4", a), TrueExpr()], atom, x)
        assert v.holds and v.mode == "exact"

    def test_unsatisfiable_factor_holds_trivially(self):
        a, b, x = self._spaces()
        v = product_prior_infer(
            [parse_constraint("P(s1) > 1/2 & P(s1) < 1/4", a), TrueExpr()],
            FalseExpr(), x)
        assert v.holds

    def test_exact_false_on_wrong_value(self):
        a, b, x = self._spaces()
        v = product_prior_infer(
            [parse_constraint("P(s1) = 3/5", a), parse_constraint("P(s2) = 3/10", b)],
            parse_constraint("P(s1 & s2) = 1/5", x), x)
        assert not v.holds and v.mode == "exact"

    def test_nonrectangle_holds_exactly_at_every_vertex_tuple(self):
        # P(s1 <=> s2) = 1/2 whatever P(s2) is when P(s1) = 1/2
        a, b, x = self._spaces()
        theta = parse_constraint("P((s1 <=> s2)) >= 1/100", x)
        v = product_prior_infer(
            [parse_constraint("P(s1) = 1/2", a), TrueExpr()], theta, x, seed=5)
        assert v.holds and v.mode == "exact"

    def test_nonrectangle_refuted_exactly_at_a_vertex_tuple(self):
        # P(s1) = 3/5 and P(s2) = 0 give P(s1 <=> s2) = 2/5
        a, b, x = self._spaces()
        kb_a = parse_constraint("P(s1) = 3/5", a)
        theta = parse_constraint("P((s1 <=> s2)) >= 1/2", x)
        v = product_prior_infer([kb_a, TrueExpr()], theta, x, seed=5)
        assert not v.holds and v.mode == "exact"
        (mu,) = v.evidence
        assert mu.backend == "rational" and mu.prob(event_of(x, "s1")) == F(3, 5)
        assert mu == product_measure([mu.marginal(a), mu.marginal(b)], x)
        assert satisfies(mu.marginal(a), kb_a) and not satisfies(mu, theta)

    def test_sampled_fallback_on_nonrectangle(self):
        # theta fails at the closure vertex P(s1) = 1, P(s2) = 0 of
        # P(s1) > 1/2; with a strict atom a failing vertex may lie outside
        # the selection, so the vertex rule refutes nothing and sampling
        # decides
        a, b, x = self._spaces()
        theta = parse_constraint("P((s1 <=> s2)) >= 1/100", x)
        v = product_prior_infer(
            [parse_constraint("P(s1) > 1/2", a), TrueExpr()], theta, x, seed=5)
        assert v.mode == "sampled" and v.samples >= 1

    def test_sampled_refutation_counts_the_measures_checked(self):
        a, b, x = self._spaces()
        theta = parse_constraint("P((s1 <=> s2)) >= 1/2", x)  # fails when P(s2) < 1/2
        v = product_prior_infer(
            [parse_constraint("P(s1) > 1/2", a), TrueExpr()], theta, x, seed=5)
        assert not v.holds and v.mode == "sampled"
        assert 1 <= v.samples < 400
        assert not satisfies(v.evidence[0], theta)

    def test_strict_kb_passing_every_vertex_holds_exactly(self):
        # the closure's vertices bound the atom on the closure, so a pass
        # proves it on the open set too
        a, b, x = self._spaces()
        theta = parse_constraint("P(s1 & s2) <= 1/2", x)
        v = product_prior_infer(
            [parse_constraint("P(s1) < 1/2", a), TrueExpr()], theta, x, seed=5)
        assert v.holds and v.mode == "exact"

    def test_too_many_vertex_tuples_are_sampled(self):
        # TrueExpr on both factors has 2 x 2 vertex tuples
        a, b, x = self._spaces()
        theta = parse_constraint("P((s1 <=> s2)) >= 0", x)
        v = product_prior_infer([TrueExpr(), TrueExpr()], theta, x, samples=3)
        assert v.holds and v.mode == "sampled" and v.samples == 3
        v = product_prior_infer([TrueExpr(), TrueExpr()], theta, x, samples=4)
        assert v.holds and v.mode == "exact"

    @pytest.mark.parametrize("theta_text, holds", [
        ("P(a & b) >= 1/8", False),  # P(b) = 0 is allowed
        ("P(a & b & c & d & e & f & g & h) <= 99/100", False),  # all mass on one world
        ("P(a & b) <= 1/2", False),
        ("P(a) >= 1/4", True),
    ])
    def test_rectangle_atoms_stay_exact_beyond_the_tuple_budget(self, theta_text, holds):
        # eight binary factors with two closure vertices each make 256
        # vertex tuples, more than infers' default 200 samples; a
        # single-rectangle atom is still decided at its extreme tuples
        sp = enumerate_worlds(list("abcdefgh"))
        kb = parse_constraint("P(a) >= 1/2", sp)
        theta = parse_constraint(theta_text, sp)
        proc = InferenceProcedure.prior_based(PriorFunction.product_family())
        v = infers(proc, kb, theta, sp)
        assert v.holds == holds and v.mode == "exact"
        for mu in v.evidence:
            assert mu.backend == "rational"
            assert satisfies(mu, kb) and not satisfies(mu, theta)

    def test_a_large_factor_is_decided_at_its_vertices(self, monkeypatch, cold_caches):
        # one 11-world factor with four inequality atoms, whose C(15, 10) =
        # 3003 row choices the walk over feasible bases never tries: its
        # 50 vertices are few enough for the tuple budget, so a rectangle
        # atom and a two-term atom are both decided at each of them, with
        # a product measure in the selection as evidence
        from credal import entail, simplex
        from credal.harness import _plain_space

        sp = _plain_space("u", 11)
        kb = and_(*(LinearAtom(((F(1), event_from_indices(sp, range(k, k + 3))),), ">=", F(1, 8))
                    for k in range(4)))
        (cell,) = entail.cells(kb, sp)
        assert len(cell.vertices()) == 50
        lps = []
        solve_lp = simplex.solve_lp
        monkeypatch.setattr(simplex, "solve_lp", lambda *a, **k: lps.append(1) or solve_lp(*a, **k))
        proc = InferenceProcedure.prior_based(PriorFunction.product_family())
        rectangle = LinearAtom(((F(1), event_from_indices(sp, [0, 5])),), "<=", F(1, 2))
        two_term = LinearAtom(((F(1), event_from_indices(sp, range(6))),
                               (F(-1), event_from_indices(sp, [9]))), ">=", F(1, 8))
        for theta in (rectangle, two_term):
            v = infers(proc, kb, theta, sp)
            assert not v.holds and v.mode == "exact"
            assert satisfies(v.evidence[0], kb) and not satisfies(v.evidence[0], theta)
        # the witness LP, and no other: the vertices are cached on the cell
        assert len(lps) == 1

    def test_a_factor_over_the_tuple_budget_stops_its_vertex_walk(self, monkeypatch,
                                                                  cold_caches):
        # a 17-world factor with four inequality atoms has 121 closure
        # vertices; a budget of 100 tuples stops the walk at the 101st,
        # before the pivots to the bases still waiting on its stack, and
        # the rectangle atom is decided exactly at its LP extremes.  A
        # 29-world factor with five atoms has 350 vertices; at the default
        # budget its walk stops at the 201st, after 1,922 pivots where the
        # whole walk makes 28,021.  A stopped walk is not walked again.
        from credal import entail, simplex
        from credal.harness import _plain_space

        pivots = Counter()
        in_lp = []
        pivot, solve_lp = simplex._pivot, simplex.solve_lp

        def solve_spy(*a, **k):
            in_lp.append(1)
            try:
                return solve_lp(*a, **k)
            finally:
                in_lp.pop()

        monkeypatch.setattr(simplex, "_pivot",
                            lambda *a: pivots.update(["lp" if in_lp else "walk"]) or pivot(*a))
        monkeypatch.setattr(simplex, "solve_lp", solve_spy)
        proc = InferenceProcedure.prior_based(PriorFunction.product_family())
        kbs = {}
        for n, width, atoms, samples, walked in [(17, 8, 4, 100, 2018), (29, 14, 5, 200, 1922)]:
            sp = _plain_space("u", n)
            kbs[n] = and_(*(LinearAtom(((F(1), event_from_indices(sp, range(j, j + width))),),
                                       ">=", F(1, 3)) for j in range(atoms)))
            theta = LinearAtom(((F(1), event_from_indices(sp, [0, 1])),), "<=", F(1, 2))
            expected = [F(0)] * n
            expected[0], expected[width] = F(2, 3), F(1, 3)
            for walk in (walked, 0):
                pivots.clear()
                v = infers(proc, kbs[n], theta, sp, samples=samples)
                assert not v.holds and v.mode == "exact"
                assert [list(mu.weights) for mu in v.evidence] == [expected]
                assert pivots["walk"] == walk
        # within its limit the walk finishes, and is memoised
        (cell,) = entail.cells(kbs[17], _plain_space("u", 17))
        pivots.clear()
        assert cell.vertices(120) is None
        assert 2018 < pivots["walk"] < 2295
        pivots.clear()
        assert len(cell.vertices(121)) == 121 and pivots["walk"] == 2295
        assert cell.vertices(121) is cell.vertices()
        assert cell.vertices(120) is None

    def test_closed_multi_cell_kbs_decide_exactly(self):
        # both ends of each factor's range are attained, so a violated
        # range is a counterexample however many cells the kb has
        sp = enumerate_worlds(["a", "b"])
        kb = parse_constraint("(P(a) <= 1/4 | P(a) >= 3/4) & P(b) = 1/2", sp)
        proc = InferenceProcedure.prior_based(PriorFunction.product_family())
        v = infers(proc, kb, parse_constraint("P(a & b) <= 1/4", sp), sp)
        assert not v.holds and v.mode == "exact"
        v = infers(proc, kb, parse_constraint("P(a & b) <= 1/2", sp), sp)
        assert v.holds and v.mode == "exact"

    @pytest.mark.parametrize("kb_text", ["P(a) >= 1/2 & false",
                                         "P(a) >= 1/2 & P(b) >= 1/2 & false"])
    def test_false_conjunct_empties_the_selection(self, kb_text):
        sp = enumerate_worlds(["a", "b"])
        kb = parse_constraint(kb_text, sp)
        theta = parse_constraint("P(a) <= 1/4", sp)
        proc = InferenceProcedure.prior_based(PriorFunction.product_family())
        assert infers(InferenceProcedure.entailment(), kb, theta, sp).holds
        assert infers(proc, kb, theta, sp).holds

    @pytest.mark.parametrize("kb_text", ["P(b) + P(a & !a) >= 1/2",
                                         "P(b) - 1/2*P((a | !a)) >= 0"])
    def test_empty_and_whole_events_do_not_block_factorization(self, kb_text):
        # both kbs say P(b) >= 1/2, a constraint on the b factor alone
        sp = enumerate_worlds(["a", "b"])
        kb = parse_constraint(kb_text, sp)
        proc = InferenceProcedure.prior_based(PriorFunction.product_family())
        v = infers(proc, kb, parse_constraint("P(b) >= 1/4", sp), sp)
        assert v.holds and v.mode == "exact"


class TestPriorFunction:
    def test_prior_measures_live_on_their_key_space(self, fly_bird_space, rgb_space):
        with pytest.raises(ValueError):
            PriorFunction.of({fly_bird_space: [Measure.uniform(rgb_space)]})
        with pytest.raises(ValueError):
            PriorFunction.of({fly_bird_space: [Measure.uniform(fly_bird_space),
                                               Measure.uniform(rgb_space)]})


class TestAtomsOnAnotherSpace:
    # a question is decided over one space, and an atom on another space
    # is refused where its world indices would be read on that space
    x, y, xy = enumerate_worlds(["a"]), enumerate_worlds(["b"]), enumerate_worlds(["a", "b"])
    kb = parse_constraint("P(a) >= 1/2", x)
    theta = parse_constraint("P(a) >= 1/4", x)

    def test_satisfiable(self):
        with pytest.raises(ValueError, match="different space"):
            satisfiable(self.kb, self.y)

    def test_entails(self):
        with pytest.raises(ValueError, match="different space"):
            entails(self.kb, self.theta, self.y)

    def test_equivalent(self):
        with pytest.raises(ValueError, match="different space"):
            equivalent(self.kb, self.theta, self.y)

    @pytest.mark.parametrize("text, selection", [("P(a) = 1", i0_select),
                                                 ("P(a) >= 1/4", i1_select)],
                             ids=["i0", "i1"])
    def test_selections(self, text, selection):
        with pytest.raises(ValueError, match="different space"):
            selection(parse_constraint(text, self.x), self.y)

    def test_satisfies_on_either_backend(self):
        atom = parse_constraint("P(a) > 1/2", self.x)
        for mu in (Measure.uniform(self.y, backend="rational"), Measure.uniform(self.y)):
            with pytest.raises(ValueError, match="different space"):
                satisfies(mu, atom)

    def test_infers_under_every_procedure(self):
        # theta's atoms live on a larger space than the kb's, or the kb's
        # on another space than the one given
        for proc in SIX_PROCEDURES:
            with pytest.raises(ValueError, match="different space"):
                infers(proc, self.kb, parse_constraint("P(a & b) <= 1", self.xy))
            with pytest.raises(ValueError, match="different space"):
                infers(proc, self.kb, self.theta, self.y)

    def test_product_family_reads_no_theta_on_another_product(self):
        proc = InferenceProcedure.prior_based(PriorFunction.product_family())
        ab = product_space([self.x, self.y])
        cd = product_space([enumerate_worlds(["c"]), enumerate_worlds(["d"])])
        with pytest.raises(ValueError, match="different space"):
            infers(proc, parse_constraint("P(a) >= 1/2", ab), parse_constraint("P(c) >= 0", cd))


class TestProcedureAgreement:
    def test_maxent_matches_uniform_prior(self, fly_bird_space):
        kbs, thetas, _ = klm_corpus(fly_bird_space)
        me = InferenceProcedure.maxent()
        up = InferenceProcedure.prior_based(PriorFunction.uniform())
        for kb in kbs[:15]:
            for theta in thetas[:3]:
                assert (infers(me, kb, theta, fly_bird_space).holds
                        == infers(up, kb, theta, fly_bird_space).holds)

    def test_i0_extends_entailment_on_objective(self, fly_bird_space):
        ent = InferenceProcedure.entailment()
        i0 = InferenceProcedure.i0()
        _, thetas, _ = klm_corpus(fly_bird_space)
        for text in ("true", "P(fly) = 1", "P((fly | bird)) = 1", "P(fly) = 1 & P(bird) = 1",
                     "P(fly <=> bird) = 1"):
            kb = parse_constraint(text, fly_bird_space)
            for theta in thetas:
                if infers(ent, kb, theta, fly_bird_space).holds:
                    assert infers(i0, kb, theta, fly_bird_space).holds


class TestProductFamilyKlm:
    def test_all_properties_pass_on_corpus(self):
        # regression: the sampled fallback must project product priors
        # onto the kb (the selection is not "product measures satisfying
        # kb"), and single-cell kbs must be normalized so !(P < q)
        # spellings take the exact closed path
        space = enumerate_worlds(["a", "b"])
        kbs, thetas, lle = klm_corpus(space)
        proc = InferenceProcedure.prior_based(PriorFunction.product_family())
        rep = klm_properties_check(proc, kbs, thetas, lle_pairs=lle)
        assert rep.all_pass, rep.by_property()

    def test_prior_sets_build_kb_cells_once(self, monkeypatch, cold_caches):
        # each kb's cells are built once per prior set, so their witness
        # LPs serve every prior, and point masses solve no LP at all
        from credal import simplex

        space = enumerate_worlds(["a", "b"])
        kbs, thetas, lle = klm_corpus(space)
        calls = []
        solve_lp = simplex.solve_lp
        monkeypatch.setattr(simplex, "solve_lp", lambda *a, **k: calls.append(1) or solve_lp(*a, **k))
        proc = InferenceProcedure.prior_based(PriorFunction.product_family())
        assert klm_properties_check(proc, kbs, thetas, lle_pairs=lle).all_pass
        assert len(calls) <= 4500

    @pytest.mark.parametrize("proc, built, solved", [
        (InferenceProcedure.prior_based(PriorFunction.product_family()), 120, 120),
        (InferenceProcedure.maxent(), 95, 95),
    ], ids=["product-family", "maxent"])
    def test_kb_cells_are_built_once(self, monkeypatch, cold_caches, proc, built, solved):
        # entail.cells builds each (kb, space)'s cells once and every
        # decision and projection shares them with their witnesses
        from credal import entail, simplex

        space = enumerate_worlds(["a", "b"])
        kbs, thetas, lle = klm_corpus(space)
        cells, lps = [], []
        init, solve_lp = entail.Cell.__init__, simplex.solve_lp
        monkeypatch.setattr(entail.Cell, "__init__",
                            lambda self, *a: cells.append(1) or init(self, *a))
        monkeypatch.setattr(simplex, "solve_lp", lambda *a, **k: lps.append(1) or solve_lp(*a, **k))
        assert klm_properties_check(proc, kbs, thetas, lle_pairs=lle).all_pass
        assert (len(cells), len(lps)) == (built, solved)

    def test_the_klm_grid_builds_no_cell_set_twice(self, cold_caches):
        # the five procedures ask many of the same kb & !theta questions;
        # entail.cells holds the grid's whole working set, so no set is
        # evicted and built again
        from credal import entail

        space = enumerate_worlds(["a", "b"])
        kbs, thetas, lle = klm_corpus(space)
        for proc in (InferenceProcedure.entailment(), InferenceProcedure.maxent(),
                     InferenceProcedure.i0(), InferenceProcedure.i1(),
                     InferenceProcedure.prior_based(PriorFunction.product_family())):
            assert klm_properties_check(proc, kbs, thetas, lle_pairs=lle).all_pass
        info = entail.cells.cache_info()
        assert info.misses == info.currsize

    @pytest.mark.parametrize("proc, projected", [
        (InferenceProcedure.prior_based(PriorFunction.product_family()), 813),
        (InferenceProcedure.maxent(), 56),
    ], ids=["product-family", "maxent"])
    def test_each_prior_is_projected_once_per_kb(self, monkeypatch, cold_caches, proc, projected):
        # optimize._projection computes each (prior, kb) pair once, the
        # product priors are drawn once per seed, and closed factorized
        # kbs are decided at vertex tuples without sampling
        from credal import optimize, procedures

        space = enumerate_worlds(["a", "b"])
        kbs, thetas, lle = klm_corpus(space)
        projections, samples = [], []
        kl_project, sample_measures = optimize.kl_project, procedures.sample_measures
        monkeypatch.setattr(optimize, "kl_project",
                            lambda *a: projections.append(1) or kl_project(*a))
        monkeypatch.setattr(procedures, "sample_measures",
                            lambda *a: samples.append(1) or sample_measures(*a))
        assert klm_properties_check(proc, kbs, thetas, lle_pairs=lle).all_pass
        assert (len(projections), len(samples)) == (projected, 0)

    def test_factors_are_decomposed_once(self, monkeypatch, cold_caches):
        from credal import procedures

        space = enumerate_worlds(["a", "b"])
        kbs, thetas, lle = klm_corpus(space)
        calls = []
        decompose = procedures.product_decomposition
        monkeypatch.setattr(procedures, "product_decomposition",
                            lambda sp: calls.append(sp) or decompose(sp))
        proc = InferenceProcedure.prior_based(PriorFunction.product_family())
        klm_properties_check(proc, kbs[:12], thetas, lle_pairs=lle[:1])
        assert len(calls) == 1


def _grid_products(space: Space):
    """Every product of per-factor `simplex_grid` measures at denominator
    24, as integer world weights over the common denominator."""
    factors = space.factors or tuple(product_decomposition(space))
    comps = [component_map(space, f) for f in factors]
    grids = [[[int(w * 24) for w in mu.weights] for mu in simplex_grid(f, 24)] for f in factors]
    rows = [[math.prod(g[c[x]] for g, c in zip(parts, comps)) for x in range(len(space.worlds))]
            for parts in itertools.product(*grids)]
    return np.array(rows, dtype=np.int64), 24 ** len(factors)


def _grid_holds(expr, space, weights, scale) -> np.ndarray:
    """Where expr holds on the grid, in exact integer arithmetic."""
    if isinstance(expr, TrueExpr):
        return np.ones(len(weights), dtype=bool)
    if isinstance(expr, FalseExpr):
        return np.zeros(len(weights), dtype=bool)
    if isinstance(expr, (And, Or)):
        parts = [_grid_holds(e, space, weights, scale) for e in expr.items]
        return (np.logical_and if isinstance(expr, And) else np.logical_or).reduce(parts)
    if isinstance(expr, Not):
        return ~_grid_holds(expr.child, space, weights, scale)
    coeffs = expr.coefficients()
    den = math.lcm(expr.bound.denominator, *(c.denominator for c in coeffs))
    value = weights @ np.array([int(c * den) for c in coeffs], dtype=np.int64)
    bound = int(expr.bound * den * scale)
    return {"<": value < bound, "<=": value <= bound, "=": value == bound,
            ">=": value >= bound, ">": value > bound}[expr.cmp]


def _klm_cases(symbols):
    space = enumerate_worlds(symbols)
    kbs, thetas, _ = klm_corpus(space)
    return space, [(kb, [*thetas, kb, and_(thetas[0], thetas[2])]) for kb in kbs]


def _template_cases():
    from credal.harness import _lift_factor_kb, _random_product_query

    space = product_space([enumerate_worlds(["p"]), enumerate_worlds(["q"])])
    _, thetas, _ = klm_corpus(space)
    rng = random.Random(13)
    cases = []
    for kb1 in factor_kb_templates(enumerate_worlds(["p"])):
        for kb2 in factor_kb_templates(enumerate_worlds(["q"])):
            kb = and_(_lift_factor_kb(space, 0, kb1), _lift_factor_kb(space, 1, kb2))
            cases.append((kb, [*thetas, kb, *(_random_product_query(space, rng)
                                             for _ in range(6))]))
    return space, cases


class TestVertexRuleOracle:
    """Exact product-family verdicts on closed factorized kbs against a
    brute-force grid of product measures."""

    @pytest.mark.parametrize("corpus", [
        pytest.param(lambda: _klm_cases(["a", "b"]), id="klm-2"),
        pytest.param(lambda: _klm_cases(["a", "b", "c"]), id="klm-3"),
        pytest.param(_template_cases, id="factor-templates"),
    ])
    def test_exact_verdicts_match_the_grid(self, corpus):
        from credal.procedures import _factorize

        space, cases = corpus()
        weights, scale = _grid_products(space)
        factors = space.factors or tuple(product_decomposition(space))
        proc = InferenceProcedure.prior_based(PriorFunction.product_family())
        decided = {True: 0, False: 0}
        for kb, thetas in cases:
            if _factorize(kb, space) is None:
                continue
            selected = _grid_holds(kb, space, weights, scale)
            for theta in thetas:
                v = infers(proc, kb, theta, space)
                if isinstance(theta, ProductAtom) or v.mode != "exact":
                    continue
                decided[v.holds] += 1
                if v.holds:
                    # no product measure on the grid satisfies kb and fails theta
                    assert _grid_holds(theta, space, weights, scale)[selected].all(), (kb, theta)
                    continue
                (mu,) = v.evidence
                assert mu.backend == "rational"
                assert mu == product_measure([mu.marginal(f) for f in factors], space)
                # kb is the conjunction of its factor kbs' cylinders
                assert satisfies(mu, kb) and not satisfies(mu, theta), (kb, theta)
        assert decided[True] >= 100 and decided[False] >= 70, decided
