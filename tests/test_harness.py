import math
from fractions import Fraction

import pytest

from credal import harness
from credal.constraints import (
    FalseExpr,
    LinearAtom,
    Not,
    TrueExpr,
    parse_constraint,
    satisfies,
)
from credal.embeddings import correspondence_gap, from_surjection, random_faithful_embedding
from credal.entail import entails, satisfiable
from credal.errors import DomainError
from credal.harness import (
    tuple_cover_gadget,
    conservative_extension_demo,
    bootstrap_check,
    essentially_entailment_probe,
    gadget_conjunction,
    gadget_counts,
    gadget_feasible,
    gadget_witnesses,
    _pin_query,
    _plain_space,
    invariance_check,
    invariance_pairs_on,
    default_independence_gadget,
    disjointing_embeddings,
    products_invariance_check,
    rep_independence_falsify,
    replay_trial,
    robustness_check,
)
from credal.measures import Measure, pushforward
from credal.procedures import InferenceProcedure, PriorFunction, infers
from credal.spaces import (
    atoms_over,
    cylinder,
    enumerate_worlds,
    event_from_indices,
    event_of,
    product_space,
)
from tests.conftest import closed_form_extension_weights, grid_probe, probe_corpus, probe_pair_kind

F = Fraction


def _colorful():
    x = enumerate_worlds(["colorful"])
    y = enumerate_worlds(["red", "blue", "green"])
    emb = from_surjection(x, y, [0 if w.bits == 0 else 1 for w in y.worlds])
    return x, y, emb


class TestInvarianceCheck:
    def test_maxent_colorful_violation(self):
        x, y, emb = _colorful()
        theta = parse_constraint("P(colorful) = 1/2", x)
        rep = invariance_check(InferenceProcedure.maxent(), emb, TrueExpr(), theta)
        assert not rep.invariant
        v = rep.violations[0]
        assert v.verdict_x is True and v.verdict_y is False

    def test_entailment_always_agrees(self):
        x, y, emb = _colorful()
        band = parse_constraint("P(colorful) >= 1/4 & P(colorful) <= 3/4", x)
        low = parse_constraint("P(colorful) >= 1/4", x)
        for kb, theta in [(TrueExpr(), low), (band, low), (low, band)]:
            rep = invariance_check(InferenceProcedure.entailment(), emb, kb, theta)
            assert rep.invariant

    def test_i1_agrees_on_random_surjections(self):
        x = enumerate_worlds(["p", "q"])
        y = enumerate_worlds(["u", "v", "w"])
        quarter = parse_constraint("P(p) >= 1/4", x)
        third = parse_constraint("P(p) >= 1/3", x)
        for seed in range(6):
            emb = random_faithful_embedding(x, y, seed)
            rep = invariance_check(InferenceProcedure.i1(), emb, quarter, third)
            assert rep.invariant


class TestFalsifier:
    def test_maxent_found_fast(self):
        rep = rep_independence_falsify(InferenceProcedure.maxent(), budget=5, seed=11)
        assert rep.found and rep.violation.trial == 0

    def test_entailment_survives(self):
        rep = rep_independence_falsify(InferenceProcedure.entailment(), budget=40, seed=11)
        assert not rep.found

    def test_violations_replay(self):
        rep = rep_independence_falsify(InferenceProcedure.maxent(), budget=5, seed=11)
        again = replay_trial(InferenceProcedure.maxent(), rep.violation.trial, seed=11)
        assert again.violations == rep.violation.violations

    def test_product_family_broken_by_independence_gadget_path(self):
        proc = InferenceProcedure.prior_based(PriorFunction.product_family())
        rep = rep_independence_falsify(proc, budget=3, seed=2)
        assert rep.found

    def test_linear_query_on_a_denotation_solves_its_lps_once(self, monkeypatch):
        # A failed query on a denotation takes its verdict and its witness
        # from one satisfiability pass; solving kb & !theta a second time
        # for the witness made 1,576 LPs here.
        from credal import simplex

        calls = []
        solve_lp = simplex.solve_lp

        def spy(*args, **kwargs):
            calls.append(args[0])
            return solve_lp(*args, **kwargs)

        monkeypatch.setattr(simplex, "solve_lp", spy)
        for t in range(300):
            replay_trial(InferenceProcedure.i1(), t, seed=12345)
        assert len(calls) <= 1027


class TestNotrepindConstruction:
    def test_images_of_s_are_disjoint(self):
        g = default_independence_gadget()
        xx = g.spaces["XX"]
        embs = disjointing_embeddings(xx, g.events["S"], [g.events["S_prime"]], F(1, 3))
        assert len(embs) == 4
        images = [e.apply(g.events["S"]) for e in embs]
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                assert (images[i] & images[j]).is_empty()
        # all agree on the kb's dependency event
        dep_images = {e.apply(g.events["S_prime"]).mask for e in embs}
        assert len(dep_images) == 1


class TestNoindepGadget:
    def test_four_nonempty_atoms(self):
        g = default_independence_gadget()
        cells = atoms_over([g.events["S"], g.events["S_prime"]])
        assert len(cells) == 4

    def test_maxent_holds_entailment_fails(self):
        g = default_independence_gadget()
        xx = g.spaces["XX"]
        kb, query = g.constraints["kb"], g.constraints["query"]
        assert infers(InferenceProcedure.maxent(), kb, query, xx).holds
        v = infers(InferenceProcedure.entailment(), kb, query, xx)
        assert not v.holds
        assert satisfies(v.evidence[0], kb)
        assert not satisfies(v.evidence[0], query)


class TestAlmosttrivial2Gadget:
    @pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4)])
    def test_counting_identities(self, n, d):
        g = tuple_cover_gadget(n, d)
        c = gadget_counts(g)
        fact = math.factorial
        assert c["worlds"] == fact(n) // fact(n - d)
        assert all(s == d * fact(n - 1) // fact(n - d) for s in c["u_sizes"])
        assert all(p == d * (d - 1) * fact(n - 2) // fact(n - d)
                   for p in c["pair_sizes"].values())
        assert set(c["coverage_degree"]) == {d}

    @pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (4, 3), (5, 2)])
    def test_infeasibility_threshold(self, n, d):
        g = tuple_cover_gadget(n, d)
        threshold = F(d, n)
        assert not gadget_feasible(g, threshold)
        assert not gadget_feasible(g, threshold + F(1, 24))
        assert gadget_feasible(g, threshold - F(1, 24))
        assert gadget_feasible(g, F(0))

    def test_witness_measures(self):
        g = tuple_cover_gadget(3, 2)
        u = g.extra["U"]
        for i, w in enumerate(gadget_witnesses(g)):
            assert w.prob(u[i]) == 1
            for j in range(len(u)):
                if j != i:
                    assert w.prob(u[j]) == F(1, 2)  # (d-1)/(n-1)

    def test_small_counts_example(self):
        c = gadget_counts(tuple_cover_gadget(3, 2))
        assert (c["worlds"], c["u_sizes"][0], next(iter(c["pair_sizes"].values()))) == (6, 4, 2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            tuple_cover_gadget(3, 3)
        with pytest.raises(ValueError):
            tuple_cover_gadget(8, 4)

    def test_world_cap_is_checked_before_enumerating(self, monkeypatch):
        # (20, 10) has about 6.7e11 tuples: the cap must refuse it from
        # math.perm alone, before any tuple is listed
        listed = []
        monkeypatch.setattr(harness, "permutations", lambda *a: listed.append(a) or iter(()))
        with pytest.raises(ValueError, match="world cap"):
            tuple_cover_gadget(20, 10)
        assert listed == []


class TestSigmaMechanism:
    def test_extension_exists_and_satisfies_sigma(self):
        d = conservative_extension_demo()
        assert len(d["space"].worlds) == 384
        assert d["sigma_holds"]
        assert d["marginal_matches_nu"]
        assert d["other_marginals_gamma"]
        assert d["v_masses"][0] == d["expected_vi"]
        assert d["v_masses"][1] == d["gamma"] and d["v_masses"][2] == d["gamma"]

    def test_other_coordinate_and_prior(self):
        x = enumerate_worlds(["s"])
        nu = Measure.rational(x, [F(1, 5), F(4, 5)])
        d = conservative_extension_demo(nu=nu, i=2)
        assert d["sigma_holds"] and d["marginal_matches_nu"]

    @pytest.mark.parametrize("nu", [None, (F(1, 2), F(1, 2)), (F(1), F(0)), (F(0), F(1)),
                                    (F(2, 7), F(5, 7))], ids=str)
    def test_the_coupled_extension_is_the_closed_form_one(self, nu):
        # the iterated couplings give, weight for weight, the closed-form
        # product of mu0, the Y-factors and nu_j's side-conditional weights
        x = enumerate_worlds(["s"])
        nu = None if nu is None else Measure.rational(x, nu)
        reference = conservative_extension_demo()
        for i in range(3):
            for gamma in (F(0), F(1, 4), F(1, 3), F(2, 5)):
                d = conservative_extension_demo(nu=nu, i=i, gamma=gamma)
                weights = d["measure"].weights
                assert weights == tuple(closed_form_extension_weights(nu, i, gamma))
                assert all(type(w) is F for w in weights)
                assert d["space"] == reference["space"] and d["sigma"] == reference["sigma"]
                assert d["sigma_holds"] and d["marginal_matches_nu"]
                assert d["other_marginals_gamma"]
                assert d["v_masses"] == [d["expected_vi"] if j == i else gamma for j in range(3)]


class TestRobustness:
    def _instance(self):
        x = enumerate_worlds(["s"])
        y = enumerate_worlds(["t1", "t2"])
        xy = product_space([x, y])
        s = event_of(x, "s")
        t = event_from_indices(y, [0])
        iff = ((cylinder(xy, 0, s) & cylinder(xy, 1, t))
               | (~cylinder(xy, 0, s) & ~cylinder(xy, 1, t)))
        psi = LinearAtom(((F(1), iff),), "=", F(1))
        return x, xy, psi

    def test_maxent_violation(self):
        x, xy, psi = self._instance()
        q = parse_constraint("P(s) = 1/2", x)
        rep = robustness_check(InferenceProcedure.maxent(), TrueExpr(), psi, [q], xy)
        assert rep.conservative_status == "conservative_verified"
        assert not rep.robust_on_probe
        # oracle: both optimizations in closed form -- the unconstrained
        # side gives 1/2; tying s to a 1-of-4 event gives 1/4
        item = rep.items[0]
        assert item.verdict_base is True and item.verdict_extended is False

    def test_entailment_agrees(self):
        x, xy, psi = self._instance()
        queries = [parse_constraint("P(s) <= 1", x), parse_constraint("P(s) >= 1/4", x)]
        rep = robustness_check(InferenceProcedure.entailment(), TrueExpr(), psi, queries, xy)
        assert rep.robust_on_probe

    def test_true_psi_agrees_for_everyone(self):
        x, xy, _ = self._instance()
        q = parse_constraint("P(s) = 1/2", x)
        for proc in (InferenceProcedure.maxent(), InferenceProcedure.entailment(),
                     InferenceProcedure.i1()):
            rep = robustness_check(proc, TrueExpr(), TrueExpr(), [q], xy)
            assert rep.robust_on_probe

    def test_nonconservative_psi_skipped(self):
        x, xy, _ = self._instance()
        pin = LinearAtom(((F(1), cylinder(xy, 0, event_of(x, "s"))),), "=", F(0))
        kb = parse_constraint("P(s) > 0", x)
        rep = robustness_check(InferenceProcedure.maxent(), kb, pin, [], xy)
        assert rep.skipped


def probe_covers_the_grid():
    """`essentially_entailment_probe` on `conftest.probe_corpus` against
    its grid: every event with a grid violation has a probe violation,
    and every probe witness has 0 <= alpha < beta <= 1 and is classed as
    the probe says by `conftest.probe_pair_kind`, the grid's own test of
    a pair."""
    for proc, kb, events, sp, grid in probe_corpus():
        rep = harness.essentially_entailment_probe(proc, kb, events, sp)
        if not grid <= {w.event for w in rep.witnesses if w.kind == "violation"}:
            return False
        if any(not 0 <= w.alpha < w.beta <= 1
               or probe_pair_kind(proc, kb, w.event, w.alpha, w.beta, sp) != w.kind
               for w in rep.witnesses):
            return False
    return True


class TestEssentialEntailmentProbe:
    def test_probe_covers_the_grid(self):
        assert probe_covers_the_grid()
        # and finds maxent's violations between its points: on P(a) = 1/4
        # maxent selects P(a & b) = 1/8, and every grid pair around 1/8
        # starts at 0 and holds kb's range [0, 1/4]
        beyond = [(proc.name, kb) for proc, kb, events, sp, grid in probe_corpus()
                  if {w.event for w in essentially_entailment_probe(proc, kb, events, sp).witnesses
                      if w.kind == "violation"} - grid]
        assert beyond and {name for name, _ in beyond} == {"maxent"}

    @pytest.mark.parametrize("kb_text, alpha, beta", [
        ("P(a) <= 1/20", F(1, 40), F(21, 40)),
        ("P(a) >= 1/5 & P(a) <= 1/4", F(9, 40), F(5, 8)),
    ])
    def test_maxent_violates_between_grid_points(self, kb_text, alpha, beta):
        # maxent selects P(a) at kb's upper end, so it infers alpha <
        # P(a) < beta with alpha halfway up kb's range; no grid pair has
        # an alpha inside that range, so the grid finds no violation
        one = enumerate_worlds(["a"])
        kb = parse_constraint(kb_text, one)
        a = event_of(one, "a")
        proc = InferenceProcedure.maxent()
        assert [w for w in grid_probe(proc, kb, [a], one) if w[3] == "violation"] == []
        rep = essentially_entailment_probe(proc, kb, [a], one)
        assert not rep.essentially_entailment
        assert [(w.alpha, w.beta) for w in rep.witnesses if w.kind == "violation"] == [
            (alpha, beta)]

    @pytest.mark.parametrize("kb_text, prior_on_a", [("P(a) >= 1/2", False),
                                                     ("P(a) = 0", True)])
    def test_a_prior_off_kb_leaves_kb_outside_the_domain(self, kb_text, prior_on_a):
        # a point-mass prior off kb's support is at infinite divergence
        # from every measure of the consistent kb, so no query, false
        # among them, is answered, and neither probe finds a witness
        one = enumerate_worlds(["a"])
        a = event_of(one, "a")
        world = next(i for i in range(2) if (i in a) == prior_on_a)
        prior = Measure.point_mass(one, world).to_float()
        proc = InferenceProcedure.prior_based(PriorFunction.of({one: [prior]}))
        kb = parse_constraint(kb_text, one)
        for theta in (FalseExpr(), kb, parse_constraint("P(a) <= 1", one)):
            with pytest.raises(DomainError, match="infinite divergence"):
                infers(proc, kb, theta, one)
        assert grid_probe(proc, kb, [a], one) == []
        assert essentially_entailment_probe(proc, kb, [a], one).witnesses == ()

    def test_maxent_witness_on_two_worlds(self):
        two = enumerate_worlds(["p"])
        rep = essentially_entailment_probe(
            InferenceProcedure.maxent(), TrueExpr(), [event_of(two, "p")], space=two)
        assert not rep.essentially_entailment
        assert any(w.kind == "violation" and w.alpha == F(1, 4) and w.beta == F(3, 4)
                   for w in rep.witnesses)

    def test_entailment_never_witnesses(self, fly_bird_space):
        rep = essentially_entailment_probe(
            InferenceProcedure.entailment(),
            parse_constraint("P(fly) >= 1/4", fly_bird_space),
            [event_of(fly_bird_space, "fly")])
        assert rep.witnesses == ()

    def test_i0_objective_yields_only_zero_one(self, fly_bird_space):
        rep = essentially_entailment_probe(
            InferenceProcedure.i0(),
            parse_constraint("P(bird) = 1", fly_bird_space),
            [event_of(fly_bird_space, "fly & bird"), event_of(fly_bird_space, "fly")])
        assert rep.essentially_entailment
        for w in rep.witnesses:
            assert (w.alpha, w.beta) == (F(0), F(1))
            assert w.kind == "strengthening"


class TestBootstrap:
    def test_corpus_pairs_on_two_symbol_space(self):
        space = enumerate_worlds(["a", "b"])
        emb = from_surjection(space, space, range(len(space.worlds)))
        priors = [Measure.uniform(space)]
        pairs = [(TrueExpr(), parse_constraint(theta, space))
                 for theta in ("P(a) = 1/2", "P(a & b) >= 1/8")]
        pairs += [(parse_constraint(kb, space), parse_constraint(theta, space))
                  for kb, theta in (("P(a) >= 1/2", "P(a) >= 1/4"), ("P(a) = 1/4", "P(a) <= 1/2"),
                                    ("P((a | b)) = 1", "P(a) <= 1"),
                                    ("P(a) >= 1/4 & P(b) <= 3/4", "P(a) >= 1/8"))]
        rep = bootstrap_check(priors, priors, emb, corpus=pairs)
        assert rep.corresponds and not rep.violations

    def test_equal_fiber_uniform_invariant(self):
        x = enumerate_worlds(["c"])
        y = enumerate_worlds(["u", "v"])
        emb = from_surjection(x, y, [0, 0, 1, 1])
        rep = bootstrap_check([Measure.uniform(x)], [Measure.uniform(y)], emb)
        assert rep.corresponds and not rep.violations
        assert rep.consistent_with_biconditional

    def test_an_x_prior_that_no_pushforward_hits(self):
        # every y prior pushes forward into dx, but dx has a prior that
        # none hits: the gap is that x prior, and the corpus's first pair,
        # P(world 0) = 1/2 under true, separates the procedures
        x = enumerate_worlds(["c"])
        y = enumerate_worlds(["u", "v"])
        emb = from_surjection(x, y, [0, 0, 1, 1])
        skewed = Measure.from_floats(x, [0.3, 0.7])
        dx, dy = [Measure.uniform(x), skewed], [Measure.uniform(y)]
        assert correspondence_gap(emb, dx, dy) is skewed
        rep = bootstrap_check(dx, dy, emb)
        assert not rep.corresponds and rep.consistent_with_biconditional
        (v,) = rep.violations
        assert (v.kb, v.theta) == invariance_pairs_on(x)[0]
        assert (v.verdict_x, v.verdict_y) == (False, True)
        assert rep.pairs_tested == len(invariance_pairs_on(x))

    def test_unequal_fiber_uniform_violated_at_true(self):
        x = enumerate_worlds(["c"])
        y = enumerate_worlds(["u", "v"])
        emb = from_surjection(x, y, [0, 1, 1, 1])
        rep = bootstrap_check([Measure.uniform(x)], [Measure.uniform(y)], emb)
        assert not rep.corresponds and rep.violations
        assert rep.consistent_with_biconditional

    def test_identity_identical_priors(self, fly_bird_space):
        emb = from_surjection(fly_bird_space, fly_bird_space, range(len(fly_bird_space.worlds)))
        priors = [Measure.uniform(fly_bird_space),
                  Measure.from_floats(fly_bird_space, [0.4, 0.3, 0.2, 0.1])]
        rep = bootstrap_check(priors, priors, emb)
        assert rep.corresponds and not rep.violations


    def test_correspondence_of_rational_priors_is_exact(self):
        # py pushes forward to (1/2 + 1e-12, 1/2 - 1e-12), which is not
        # the x prior: correspondence is decided on the rational measures,
        # not on their floats, which meet at EPS.  The induced procedure
        # updates the priors as given, so at kb = true the x side keeps
        # its prior exactly and the y side its own, and the first pair of
        # the corpus tells them apart
        x, y = enumerate_worlds(["a"]), enumerate_worlds(["a", "b"])
        emb = from_surjection(x, y, [0, 0, 1, 1])
        e = F(1, 10**12)
        px = Measure.rational(x, [F(1, 2), F(1, 2)])
        py = Measure.rational(y, [F(1, 4) + e, F(1, 4), F(1, 4), F(1, 4) - e])
        rep = bootstrap_check([px], [py], emb)
        assert not rep.corresponds and rep.consistent_with_biconditional
        (v,) = rep.violations
        assert (v.kb, v.theta) == invariance_pairs_on(x)[0]
        assert (v.verdict_x, v.verdict_y) == (True, False)
        assert rep.pairs_tested == len(invariance_pairs_on(x)) == 4

    def test_the_pinned_query_separates_what_the_corpus_does_not(self):
        x, y = _plain_space("x", 3), _plain_space("y", 4)
        emb = from_surjection(x, y, [0, 1, 1, 2])
        py = Measure.from_floats(y, [1 / 3, 1 / 4, 1 / 4, 1 / 6])
        rep = bootstrap_check([Measure.uniform(x)], [py], emb)
        # oracle: py pushes forward to (1/3, 1/2, 1/6), not the uniform x prior
        assert not rep.corresponds and rep.consistent_with_biconditional
        (v,) = rep.violations
        assert v.theta == Not(_pin_query(pushforward(emb, py)))
        assert (v.kb, v.verdict_x, v.verdict_y) == (TrueExpr(), True, False)
        assert rep.pairs_tested == len(invariance_pairs_on(x)) + 1


class TestProductsInvariance:
    def test_small_run_consistent(self):
        rep = products_invariance_check(seed=1, n_product=12, n_perm=6)
        assert not rep.product_violations
        assert not rep.permutation_violations
        assert rep.crossing_violation is not None
        assert rep.consistent_with_theorem


class TestSigmaFullInstance:
    """Run the LP machinery on the full 384-world product, not just the
    explicit construction."""

    def test_sigma_is_satisfiable_and_conservative(self):
        from credal.entail import conservative_check

        d = conservative_extension_demo()
        z, sigma = d["space"], d["sigma"]
        assert satisfiable(sigma, z).feasible
        rep = conservative_check(TrueExpr(), sigma, z, x_factor=0, n_samples=2, seed=1)
        assert rep.status in ("conservative_verified", "inconclusive")
        assert rep.witness is None


class TestDomainAsymmetry:
    def test_reported_as_domain_violation(self):
        # a procedure whose domain breaks under translation: maxent with a
        # strict kb attained on one side only
        from credal.embeddings import from_surjection

        x = enumerate_worlds(["p"])
        y = enumerate_worlds(["u", "v", "w"])
        emb = from_surjection(x, y, [0] * 7 + [1])
        # On x, P(p) < 1/4 has no entropy maximizer (sup at the boundary);
        # on y the image is one world of eight, so the uniform measure
        # sits strictly inside P(f(p)) < 1/4 and the maximum is attained.
        kb = parse_constraint("P(p) < 1/4", x)
        theta = parse_constraint("P(p) <= 1", x)
        rep = invariance_check(InferenceProcedure.maxent(), emb, kb, theta)
        assert rep.violations and rep.violations[0].kind == "domain"
