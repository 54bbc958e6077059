import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from credal import harness
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
    space_of,
)
from credal.corpus import factor_kb_templates, klm_corpus
from credal.entail import (
    _point_mass_event,
    cells,
    entails,
    equivalent,
    is_interesting,
    objective_normal_form,
    sample_measures,
    satisfiable,
)
from credal.errors import CredalError, DomainError
from credal.measures import Measure, product_measure
from credal.procedures import (
    PRODUCT_FAMILY,
    InferenceProcedure,
    KlmViolation,
    _factorize,
    _sampled,
    _sampled_selection,
    _vertex_products,
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
from tests.conftest import (
    ANOTHER_SPACE,
    SIX_PROCEDURES,
    atom_coefficients,
    basis_search_vertices,
    clear_caches,
    simplex_grid,
)

F = Fraction


class TestInfersExamples:
    def test_samples_below_one_are_refused(self):
        # independence on a product is refuted by 5 sampled measures, and
        # a sampled verdict checked on no measure would hold vacuously
        xy = product_space([enumerate_worlds(["a"]), enumerate_worlds(["b"])])
        theta = parse_constraint("P(a & b) = P(a) * P(b)", xy)
        v = infers(InferenceProcedure.entailment(), TrueExpr(), theta, xy, samples=200)
        assert (v.holds, v.mode, v.samples) == (False, "sampled", 5)
        for samples in (0, -1):
            with pytest.raises(ValueError, match="samples must be at least 1"):
                infers(InferenceProcedure.entailment(), TrueExpr(), theta, xy, samples=samples)
            with pytest.raises(ValueError, match="samples must be at least 1"):
                product_prior_infer(TrueExpr(), theta, xy, samples=samples)

    @pytest.mark.parametrize("proc", SIX_PROCEDURES[:4] + SIX_PROCEDURES[5:],
                             ids=lambda p: p.name)
    def test_an_empty_selection_holds_a_product_atom_exactly(self, proc):
        # [[P(a) > 1]] is empty, so every selection is, and an
        # independence query holds with no measure to check
        sp = enumerate_worlds(["a", "b"])
        kb = parse_constraint("P(a) > 1", sp)
        theta = parse_constraint("P(a & b) = P(a) * P(b)", sp)
        v = infers(proc, kb, theta, sp)
        assert (v.holds, v.mode, v.samples) == (True, "exact", None)

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

    def test_a_verdict_is_true_exactly_when_it_holds(self):
        # `if infers(...)` reads the verdict, not the object
        two = enumerate_worlds(["p"])
        open_interval = parse_constraint("0 < P(p) < 1", two)
        for proc, holds in ((InferenceProcedure.i0(), True), (InferenceProcedure.entailment(), False)):
            v = infers(proc, TrueExpr(), open_interval, two)
            assert v.holds is holds and bool(v) is holds

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
                    assert satisfies(m, kb)
            else:
                assert satisfiable(sel, fly_bird_space).feasible == feasible
                assert entails(sel, kb, fly_bird_space)


def _record(verdict):
    """What a verdict says: holds, mode, samples, seed and evidence weights."""
    return (verdict.holds, verdict.mode, verdict.samples, verdict.seed,
            [m.weights for m in verdict.evidence])


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

    def test_the_corpus_needs_two_symbols(self):
        with pytest.raises(ValueError, match="needs two symbols, not 1"):
            klm_corpus(enumerate_worlds(["a"]))

    def test_broken_procedure_fails_reflexivity(self, fly_bird_space):
        kbs, thetas, _ = klm_corpus(fly_bird_space)
        rep = klm_properties_check(InferenceProcedure.broken(), kbs[:10], thetas)
        assert not rep.all_pass
        assert "Reflexivity" in rep.by_property()

    def test_memoised_selections_decide_as_cold_ones(self, cold_caches):
        # procedures.select runs once per (proc, kb, space) and every query
        # on the kb reads it: on the klm corpus each verdict of the five
        # procedures, evidence weights included, is the one a call with
        # every memo cleared gives, and a row's queries miss the memo once
        kbs, thetas, _ = klm_corpus()
        space = space_of(*kbs)
        for proc in SIX_PROCEDURES[:4] + SIX_PROCEDURES[5:]:  # klm-check's five
            for kb in kbs:
                select.cache_clear()
                queries = [*thetas, kb, FalseExpr(), and_(thetas[0], thetas[1])]
                warm = [infers(proc, kb, th, space) for th in queries]
                info = select.cache_info()
                selects = proc.prior is None or proc.prior.kind != PRODUCT_FAMILY
                assert (info.misses, info.hits) == ((1, len(queries) - 1) if selects else (0, 0))
                for th, verdict in zip(queries, warm):
                    clear_caches()
                    cold = infers(proc, kb, th, space)
                    assert _record(verdict) == _record(cold), (proc.name, kb, th)

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
        # short of theta, more than EPS: a sampled refutation
        sp = enumerate_worlds(["a", "b"])
        kb = parse_constraint("P(a & b) >= 1/2", sp)
        theta = parse_constraint("P(a & b) >= 0.5000001", sp)
        proc = InferenceProcedure.prior_based(PriorFunction.product_family())
        v = infers(proc, kb, theta, sp)
        assert not v.holds and v.mode == "sampled"

    def test_point_masses_beyond_64_worlds(self):
        # the corners are the point masses that satisfy kb, at any size:
        # on 128 worlds the last one (all symbols true) refutes theta
        # exactly, as its own projection
        sp = enumerate_worlds(list("abcdefg"))
        kb = parse_constraint("P(a & b) >= 1/2", sp)
        theta = parse_constraint("P(a & b & c & d & e & f & g) < 9/10", sp)
        proc = InferenceProcedure.prior_based(PriorFunction.product_family())
        v = infers(proc, kb, theta, sp)
        assert not v.holds and v.mode == "exact"
        assert v.evidence == (Measure.point_mass(sp, 127),)


    def test_an_unsatisfiable_kb_infers_everything(self):
        # P(a <=> b) is no rectangle, so the kb does not factorize
        sp = enumerate_worlds(["a", "b"])
        kb = parse_constraint("P(a <=> b) >= 1/2 & P(a <=> b) < 1/4", sp)
        assert _factorize(kb, sp) is None
        proc = InferenceProcedure.prior_based(PriorFunction.product_family())
        for theta in klm_corpus(sp)[1] + [FalseExpr()]:
            v = infers(proc, kb, theta, sp)
            assert v.holds == entails(kb, theta, sp) and v.mode == "exact"


def _domain_cases():
    """The product family and two finite prior sets, one a point mass,
    on 2-symbol kbs: 12 seeded `harness._random_kb`s with a strict DNF
    cell, then P((a <=> b)) < 1/2."""
    sp = enumerate_worlds(["a", "b"])
    rng = random.Random(33)
    kbs = []
    while len(kbs) < 12:
        kb = harness._random_kb(sp, rng)
        if any(cell.strict for cell in cells(kb, sp)):
            kbs.append(kb)
    kbs.append(parse_constraint("P((a <=> b)) < 1/2", sp))
    skew = Measure.from_floats(sp, [0.4, 0.3, 0.2, 0.1])
    procs = [InferenceProcedure.prior_based(PriorFunction.product_family()),
             InferenceProcedure.prior_based(PriorFunction.of({sp: [Measure.uniform(sp), skew]})),
             InferenceProcedure.prior_based(PriorFunction.of(
                 {sp: [Measure.point_mass(sp, 0).to_float()]}))]
    return procs, kbs, sp


def domain_is_a_property_of_kb() -> bool:
    """On `_domain_cases`, from cold caches: for each kb, every query
    (the klm thetas, false and kb itself) raises DomainError or none
    does, and then kb |~ false only when kb is unsatisfiable."""
    clear_caches()
    procs, kbs, sp = _domain_cases()
    thetas = klm_corpus(sp)[1]
    for proc in procs:
        for kb in kbs:
            verdicts = []
            for theta in [*thetas, FalseExpr(), kb]:
                try:
                    verdicts.append(infers(proc, kb, theta, sp).holds)
                except DomainError:
                    verdicts.append(None)
            if None in verdicts and set(verdicts) != {None}:
                return False
            if verdicts[-2] and satisfiable(kb, sp).feasible:
                return False
    return True


# equivalent product-family kbs on {a, b}: an atom over a, written
# through rectangles of both factors, and an atom over b beside a
# disjunct about every factor that no measure satisfies
LLE_PAIRS = [("P(a) > 1/2", "P(a & b) + P(a & !b) > 1/2"),
             ("P(a) >= 1/2", "P(a & b) + P(a & !b) >= 1/2"),
             ("P(b) >= 1/2", "P(b) >= 1/2 | P((a | !a)) <= 0")]
LLE_QUERIES = ["P(a) >= 1/2", "P(a) > 1/2", "P(b) >= 1/2", "P(a & b) >= 1/4", "P(a) <= 1",
               "P((a | b)) >= 1/2"]


def equivalent_kbs_split_alike() -> bool:
    """Under the product family, each of `LLE_PAIRS` answers every one of
    `LLE_QUERIES` with the same holds and mode on both sides, and
    `klm_properties_check` finds no Left Logical Equivalence violation,
    from cold caches."""
    clear_caches()
    sp = enumerate_worlds(["a", "b"])
    proc = InferenceProcedure.prior_based(PriorFunction.product_family())
    pairs = [(parse_constraint(l, sp), parse_constraint(r, sp)) for l, r in LLE_PAIRS]
    thetas = [parse_constraint(q, sp) for q in LLE_QUERIES]
    for pair in pairs:
        for theta in thetas:
            left, right = (infers(proc, kb, theta, sp) for kb in pair)
            if (left.holds, left.mode) != (right.holds, right.mode):
                return False
    return klm_properties_check(proc, [], thetas, lle_pairs=pairs).all_pass


def exact_rules_agree_with_the_selection(per_size: int) -> bool:
    """Under the product family, from cold caches, every exact verdict
    has the holds of sampled falsification over the whole selection at
    the verdict's seed, drawn per kb: the point masses of [[kb]], each
    its own projection, in `_point_mass_event` order, then sampled
    members of the selection.

    Kbs that do not factorize are `per_size` satisfiable
    `harness._random_kb`s on each of 2 and 3 symbols, asked six
    `harness._random_theta`s, kb and false; their sampled members are
    the `_sampled_selection`, and a kb raises DomainError on every query
    exactly when that raises.  Kbs that factorize are `per_size`
    satisfiable conjunctions of lifted per-factor `harness._random_kb`s
    on each of 2 and 3 factors (the first of two symbols, the others of
    one), asked six `harness._random_theta`s and kb; their members are
    the product measures in [[kb]] at tuples of the closure vertices of
    each factor kb's witnessed cells, found by `basis_search_vertices`,
    then 200 products of 25 `sample_measures` per factor kb."""
    clear_caches()
    proc = InferenceProcedure.prior_based(PriorFunction.product_family())

    def corners(kb, sp):
        return [Measure.point_mass(sp, i) for i in _point_mass_event(cells(kb, sp), sp).indices()]

    def agree(v, selection, theta, seed):
        return v.mode != "exact" or v.holds == _sampled(selection, theta, seed).holds

    for n in (2, 3):
        sp = enumerate_worlds(list("abc")[:n])
        rng = random.Random(36 + n)
        found = 0
        while found < per_size:
            kb = harness._random_kb(sp, rng)
            if _factorize(kb, sp) is not None or not satisfiable(kb, sp).feasible:
                continue
            found += 1
            seed = rng.randrange(8)
            try:
                selection = (*corners(kb, sp), *_sampled_selection(kb, sp, seed, 200))
            except DomainError:
                selection = None
            for theta in [*(harness._random_theta(sp, rng) for _ in range(6)), kb, FalseExpr()]:
                try:
                    v = infers(proc, kb, theta, sp, seed=seed)
                except DomainError:
                    v = None
                if (v is None) != (selection is None):
                    return False
                if v is not None and not agree(v, selection, theta, seed):
                    return False
    for nf in (2, 3):
        factors = [enumerate_worlds(["x0", "y0"])] + [enumerate_worlds([f"x{k}"])
                                                      for k in range(1, nf)]
        sp = product_space(factors)
        rng = random.Random(40 + nf)
        found = 0
        while found < per_size:
            kbs = [harness._random_kb(f, rng) for f in factors]
            kb = and_(*(harness._lift_factor_kb(sp, k, kb_k) for k, kb_k in enumerate(kbs)))
            if _factorize(kb, sp) is None or not satisfiable(kb, sp).feasible:
                continue
            found += 1
            seed = rng.randrange(8)
            draws = random.Random(seed)
            samples = [sample_measures(kb_k, f, 25, draws.randrange(2**30))
                       for kb_k, f in zip(kbs, factors)]
            vertices = [[Measure.rational(f, v) for cell in cells(kb_k, f)
                         if cell.witness() is not None
                         for v in basis_search_vertices(cell.atoms, f)]
                        for kb_k, f in zip(kbs, factors)]
            tuples = (product_measure(parts, sp) for parts in itertools.product(*vertices))
            selection = (*corners(kb, sp), *(mu for mu in tuples if satisfies(mu, kb)),
                         *(product_measure([draws.choice(s) for s in samples], sp)
                           for _ in range(200)))
            for theta in [*(harness._random_theta(sp, rng) for _ in range(6)), kb]:
                if not agree(infers(proc, kb, theta, sp, seed=seed), selection, theta, seed):
                    return False
    return True


class TestLeftLogicalEquivalence:
    def test_equivalent_product_family_kbs_split_alike(self):
        # an atom is read by its world coefficients, not by the
        # rectangles of its events, so P(a & b) + P(a & !b) > 1/2 splits
        # as P(a) > 1/2 does
        assert equivalent_kbs_split_alike()
        sp = enumerate_worlds(["a", "b"])
        for left, right in LLE_PAIRS:
            a, b = (_factorize(parse_constraint(kb, sp), sp) for kb in (left, right))
            assert a is not None and b is not None


class TestDomain:
    def test_the_domain_is_a_property_of_kb(self):
        assert domain_is_a_property_of_kb()

    def test_exact_rules_agree_with_the_sampled_selection(self):
        # a corner that refutes theta and kb |= theta decide without
        # projecting, and decide as the projected selection would
        assert exact_rules_agree_with_the_selection(20)

    def test_a_product_family_kb_outside_the_domain_answers_no_query(self):
        # the corner prior on !ab satisfies kb and refutes P(a) >= 1/2,
        # but the uniform prior's projection onto kb is not attained, so
        # every query raises
        sp = enumerate_worlds(["a", "b"])
        kb = parse_constraint("P((a <=> b)) < 1/2", sp)
        proc = InferenceProcedure.prior_based(PriorFunction.product_family())
        for theta in (parse_constraint("P(a) >= 1/2", sp), parse_constraint("P(a) <= 1", sp), kb):
            with pytest.raises(DomainError, match="not attained"):
                infers(proc, kb, theta, sp)

    def test_a_disjunction_across_factors_is_projected(self):
        # P(!b) reads b's component alone and P(!a) a's, so their
        # disjunction is about no one factor and kb does not split; it is
        # strict, and the uniform prior's projection onto it is not
        # attained, so it answers no query
        sp = enumerate_worlds(["a", "b"])
        kb = parse_constraint("P(!b) > 2/3 | P(!a) <= 1/4", sp)
        assert _factorize(kb, sp) is None
        proc = InferenceProcedure.prior_based(PriorFunction.product_family())
        with pytest.raises(DomainError, match="not attained"):
            infers(proc, kb, parse_constraint("P(a) >= 1/2", sp), sp)


class TestProductPriorInfer:
    def _spaces(self):
        a = enumerate_worlds(["s1"])
        b = enumerate_worlds(["s2"])
        return a, b, product_space([a, b])

    def test_product_value_is_exact(self):
        a, b, x = self._spaces()
        v = product_prior_infer(parse_constraint("P(s1) = 3/5 & P(s2) = 3/10", x),
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
        v = product_prior_infer(parse_constraint("P(s1) >= 1/4", x), atom, x)
        assert v.holds and v.mode == "exact"

    def test_unsatisfiable_factor_holds_trivially(self):
        a, b, x = self._spaces()
        v = product_prior_infer(parse_constraint("P(s1) > 1/2 & P(s1) < 1/4", x), FalseExpr(), x)
        assert v.holds

    def test_exact_false_on_wrong_value(self):
        a, b, x = self._spaces()
        v = product_prior_infer(parse_constraint("P(s1) = 3/5 & P(s2) = 3/10", x),
                                parse_constraint("P(s1 & s2) = 1/5", x), x)
        assert not v.holds and v.mode == "exact"

    def test_nonrectangle_holds_exactly_at_every_vertex_tuple(self):
        # P(s1 <=> s2) = 1/2 whatever P(s2) is when P(s1) = 1/2
        a, b, x = self._spaces()
        theta = parse_constraint("P((s1 <=> s2)) >= 1/100", x)
        v = product_prior_infer(parse_constraint("P(s1) = 1/2", x), theta, x, seed=5)
        assert v.holds and v.mode == "exact"

    def test_nonrectangle_refuted_exactly_at_a_vertex_tuple(self):
        # P(s1) = 3/5 and P(s2) = 0 give P(s1 <=> s2) = 2/5
        a, b, x = self._spaces()
        kb_a = parse_constraint("P(s1) = 3/5", a)
        theta = parse_constraint("P((s1 <=> s2)) >= 1/2", x)
        v = product_prior_infer(parse_constraint("P(s1) = 3/5", x), theta, x, seed=5)
        assert not v.holds and v.mode == "exact"
        (mu,) = v.evidence
        assert mu.backend == "rational" and mu.prob(event_of(x, "s1")) == F(3, 5)
        assert mu == product_measure([mu.marginal(a), mu.marginal(b)], x)
        assert satisfies(mu.marginal(a), kb_a) and not satisfies(mu, theta)

    def test_sampled_fallback_on_nonrectangle(self):
        # theta fails at the closure vertex P(s1) = 1/2, P(s2) = 0 of
        # P(s1) > 1/2 alone; it lies outside [[kb]], so the vertex rule
        # refutes nothing.  Both point
        # masses of [[kb]] give P(s1 | s2) = 1, and kb allows P(s1 | s2) =
        # 11/20, so neither the corner rule nor kb |= theta decides, and
        # sampling does
        a, b, x = self._spaces()
        theta = parse_constraint("P((s1 | s2)) >= 3/5", x)
        v = product_prior_infer(parse_constraint("P(s1) > 1/2", x), theta, x, seed=5)
        assert v.mode == "sampled" and v.samples >= 1

    def test_sampled_refutation_counts_the_measures_checked(self):
        # theta fails when (1 - P(s1)) (1 - P(s2)) > 1/4, at no point mass
        a, b, x = self._spaces()
        theta = parse_constraint("P((s1 | s2)) >= 3/4", x)
        v = product_prior_infer(parse_constraint("P(s1) > 1/2", x), theta, x, seed=5)
        assert not v.holds and v.mode == "sampled"
        assert 1 <= v.samples < 400
        assert not satisfies(v.evidence[0], theta)

    @pytest.mark.parametrize("theta_text", ["P(s1 & s2) < 1", "P(s1 & !s2) > 0"])
    def test_a_corner_refutes_theta_on_a_kb_that_splits(self, theta_text):
        # P(s1) > 1/2 is not closed, but the point mass on s1 & s2, the
        # vertex tuple P(s1) = P(s2) = 1, satisfies kb, is a product
        # measure whose factors satisfy their factor kbs and is its own
        # projection, and it fails theta
        a, b, x = self._spaces()
        proc = InferenceProcedure.prior_based(PriorFunction.product_family())
        v = infers(proc, parse_constraint("P(s1) > 1/2", x), parse_constraint(theta_text, x), x)
        (s1s2,) = event_of(x, "s1 & s2").indices()
        assert (v.holds, v.mode, v.evidence) == (False, "exact", (Measure.point_mass(x, s1s2),))

    def test_a_vertex_tuple_in_kb_refutes_a_two_cell_theta(self):
        # theta, P(s1 | !s2) != 1/2, is two cells; it fails at P(s1) = 0,
        # P(s2) = 1/2, a vertex tuple that lies in [[kb]], and there alone:
        # no point mass of [[kb]] fails it, kb does not entail it, and
        # sampling does not hit the point
        a, b, x = self._spaces()
        theta = parse_constraint("!(P((s1 | !s2)) = 1/2)", x)
        v = product_prior_infer(parse_constraint("P(s2) <= 1/2", x), theta, x)
        assert (v.holds, v.mode) == (False, "exact")
        assert [list(mu.weights) for mu in v.evidence] == [[F(1, 2), F(1, 2), F(0), F(0)]]

    @pytest.mark.parametrize("theta_text", ["P(s1 & s2) <= 1/2", "!(P(s1 & s2) > 1/2)"])
    def test_a_vertex_tuple_in_a_strict_kb_refutes_theta(self, theta_text):
        # the factor kb on s1 is strict, but its closure vertex P(s1) =
        # 3/4 satisfies it, and with P(s2) = 1 the tuple lies in [[kb]]
        # and fails theta; no point mass satisfies kb
        a, b, x = self._spaces()
        kb = parse_constraint("P(s1) > 1/4 & P(s1) <= 3/4", x)
        v = product_prior_infer(kb, parse_constraint(theta_text, x), x)
        assert (v.holds, v.mode) == (False, "exact")
        assert [list(mu.weights) for mu in v.evidence] == [[F(0), F(1, 4), F(0), F(3, 4)]]

    def test_an_empty_strict_cell_leaves_a_refutation_exact(self):
        # P((a | !a)) < 0 is a strict cell with no witness, so the factor
        # kb on b has the closure vertices of P(b) >= 1/2 alone, and its
        # failing vertex tuple lies in [[kb]]
        sp = enumerate_worlds(["a", "b"])
        kb = parse_constraint("P(b) >= 1/2 | P((a | !a)) < 0", sp)
        proc = InferenceProcedure.prior_based(PriorFunction.product_family())
        v = infers(proc, kb, parse_constraint("P(a) >= 1/2", sp), sp)
        assert not v.holds and v.mode == "exact"

    def test_strict_kb_passing_every_vertex_holds_exactly(self):
        # the closure's vertices bound the atom on the closure, so a pass
        # proves it on the open set too
        a, b, x = self._spaces()
        theta = parse_constraint("P(s1 & s2) <= 1/2", x)
        v = product_prior_infer(parse_constraint("P(s1) < 1/2", x), theta, x, seed=5)
        assert v.holds and v.mode == "exact"

    def test_too_many_vertex_tuples_are_sampled(self):
        # P(s1) <= 1/2 and nothing on s2 have 2 x 2 vertex tuples.  theta
        # is P(!s2) (1 - 2 P(s1)) >= 0 on product measures, so it holds at
        # each tuple and at both point masses of [[kb]], but kb does not
        # entail it: half the mass on s1 & !s2 and half on !s1 & s2 fails it
        a, b, x = self._spaces()
        kb = parse_constraint("P(s1) <= 1/2", x)
        theta = parse_constraint("P(!s1 & !s2) - P(s1 & !s2) >= 0", x)
        v = product_prior_infer(kb, theta, x, samples=3)
        assert v.holds and v.mode == "sampled" and v.samples == 3
        v = product_prior_infer(kb, theta, x, samples=4)
        assert v.holds and v.mode == "exact"

    def test_a_two_cell_factor_over_the_budget_is_sampled(self):
        # each cell of P(s1) <= 1/4 | P(s1) >= 3/4 has 2 closure vertices,
        # within a budget of 3, but the factor's 4 together pass it: the
        # tuples stop at the factor, not at either cell's walk.  With
        # P(s2) = 1/2, P(s1 <=> s2) = 1/2 on every product measure, and no
        # point mass satisfies kb; kb does not entail theta, as P(s1 & s2)
        # = 1/2, P(!s1 & !s2) = 1/4 fails it
        a, b, x = self._spaces()
        kbs = (parse_constraint("P(s1) <= 1/4 | P(s1) >= 3/4", a),
               parse_constraint("P(s2) = 1/2", b))
        assert all(len(cell.vertices(3)) == 2 for cell in cells(kbs[0], a))
        assert _vertex_products(kbs, x, 3) is None
        assert len(_vertex_products(kbs, x, 4)) == 4
        kb = parse_constraint("(P(s1) <= 1/4 | P(s1) >= 3/4) & P(s2) = 1/2", x)
        theta = parse_constraint("P((s1 <=> s2)) <= 1/2", x)
        v = product_prior_infer(kb, theta, x, samples=3)
        assert v.holds and v.mode == "sampled" and v.samples == 3
        assert product_prior_infer(kb, theta, x, samples=4).mode == "exact"

    @pytest.mark.parametrize("theta_text, holds", [
        ("P(a & b) >= 1/8", False),  # P(b) = 0 is allowed
        ("P(a & b & c & d & e & f & g & h) <= 99/100", False),  # all mass on one world
        ("P(a & b) <= 1/2", False),
        ("P(a) >= 1/4", True),
        ("P((a | b)) <= 1/2", False),  # no rectangle: a point mass of [[kb]]
    ])
    def test_rectangle_atoms_stay_exact_beyond_the_tuple_budget(self, theta_text, holds):
        # eight binary factors with two closure vertices each make 256
        # vertex tuples, more than infers' default 200 samples; a
        # single-rectangle atom is still decided at its extreme tuples,
        # and the corner rule refutes what they leave
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
        # the witness LP, and no other: the vertex walk solves no LP, and
        # its tuples are kept per kb
        assert len(lps) == 1

    def test_a_factor_over_the_tuple_budget_stops_its_vertex_walk(self, monkeypatch,
                                                                  cold_caches):
        # a 17-world factor with four inequality atoms has 121 closure
        # vertices; a budget of 100 tuples stops the walk at the 101st,
        # before the pivots to the bases still waiting on its stack, and
        # the rectangle atom is decided exactly at its LP extremes.  A
        # 29-world factor with five atoms has 350 vertices; at the default
        # budget its walk stops at the 201st, after 1,922 pivots where the
        # whole walk makes 28,021.  A stopped walk is not walked again for
        # the kb: `_vertex_products` keeps its None.
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
        # within its limit the walk finishes
        (cell,) = entail.cells(kbs[17], _plain_space("u", 17))
        pivots.clear()
        assert cell.vertices(120) is None
        assert 2018 < pivots["walk"] < 2295
        pivots.clear()
        assert len(cell.vertices(121)) == 121 and pivots["walk"] == 2295

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
    cde = enumerate_worlds(["c", "d", "e"])
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

    @pytest.mark.parametrize("text, selection", [
        ("P(a) = 1", i0_select), ("P(a) >= 1/4", i1_select),
        ("P(a) = 1", objective_normal_form), ("P(a) >= 1/4", is_interesting),
        ("P(a) >= 1/2", i1_select), ("P(a) >= 1/2", is_interesting),
    ], ids=["i0", "i1", "objective_normal_form", "is_interesting", "i1-probed",
            "is_interesting-probed"])
    def test_selections(self, text, selection):
        # the point tests read the atoms' events on the question's worlds:
        # on a space as large as the atoms' and on a larger one (kb on a,
        # b of 4 worlds asked on c, d, e of 8), the cells refuse kb, also
        # when the probes would reject it before any LP (P(a) >= 1/2)
        for atoms_space, space in ((self.x, self.y), (self.xy, self.cde)):
            with pytest.raises(ValueError, match=ANOTHER_SPACE):
                selection(parse_constraint(text, atoms_space), space)

    def test_satisfies_on_either_backend(self):
        # one refusal, whichever backend would read the atom
        atom = parse_constraint("P(a) > 1/2", self.x)
        for mu in (Measure.uniform(self.y, backend="rational"), Measure.uniform(self.y)):
            with pytest.raises(ValueError, match=ANOTHER_SPACE):
                satisfies(mu, atom)

    def test_infers_under_every_procedure(self):
        # theta's atoms live on a larger space than the kb's, or the kb's
        # on another space than the one given; every procedure refuses
        # with the one message
        for proc in SIX_PROCEDURES:
            with pytest.raises(ValueError, match=ANOTHER_SPACE):
                infers(proc, self.kb, parse_constraint("P(a & b) <= 1", self.xy))
            with pytest.raises(ValueError, match=ANOTHER_SPACE):
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
        (InferenceProcedure.prior_based(PriorFunction.product_family()), 371, 367),
        (InferenceProcedure.maxent(), 95, 95),
    ], ids=["product-family", "maxent"])
    def test_kb_cells_are_built_once(self, monkeypatch, cold_caches, proc, built, solved):
        # entail.cells builds each (kb, space)'s cells once and every
        # decision and projection shares them with their witnesses; the
        # product family's sets include the kb & !theta ones of its
        # entailment rule, the kb's own ones, which its one satisfiability
        # check builds also for a kb that factorizes, and the cells of the
        # conjuncts of theta that a kb that factorizes tests at its vertex
        # tuples, which solve no LP
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
        (InferenceProcedure.prior_based(PriorFunction.product_family()), 338),
        (InferenceProcedure.maxent(), 56),
    ], ids=["product-family", "maxent"])
    def test_each_prior_is_projected_once_per_kb(self, monkeypatch, cold_caches, proc, projected):
        # each kb's update is computed once (select, _sampled_selection),
        # the product priors are drawn once per seed, closed factorized
        # kbs are decided at vertex tuples without sampling, and a query
        # on a closed kb that a corner refutes or kb entails projects
        # nothing
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
    coeffs = atom_coefficients(expr)
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
    """Exact product-family verdicts on factorized kbs against a
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
