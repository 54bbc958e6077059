import hashlib
import math
import platform
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from credal import measures, optimize
from credal.constraints import (
    And,
    FalseExpr,
    LinearAtom,
    TrueExpr,
    parse_constraint,
    satisfies,
)
from credal.corpus import klm_corpus
from credal.entail import Cell, cells, satisfiable
from credal.errors import ConvergenceError, DomainError
from credal.harness import _plain_space
from credal.measures import Measure, kl_divergence
from credal.optimize import DisjunctDiagnostic, kl_project, maxent, update_set, updates
from credal.procedures import InferenceProcedure, PriorFunction, infers, select
from credal.spaces import Event, enumerate_worlds, event_of
from tests.conftest import float_atom_holds, grid_kl_argmin

F = Fraction


def test_newton_residual_is_below_the_tolerance():
    # a converged projection meets its = and <= rows to RESIDUAL_TOL, so
    # it passes `satisfies` at EPS, the test that keeps it
    assert optimize.RESIDUAL_TOL < measures.EPS


def test_convergence_error_states_residual_and_steps(monkeypatch):
    # one Newton step cannot reach RESIDUAL_TOL on this projection, with
    # or without the zero floor, so the error reports where Newton stopped
    space = enumerate_worlds(["a", "b"])
    monkeypatch.setattr(optimize, "NEWTON_STEPS", 1)
    with pytest.raises(ConvergenceError) as raised:
        maxent(parse_constraint("P(a) = 1/3 & P(a & b) <= 1/5", space))
    found = re.search(r"worst KKT residual (\S+) \(tolerance 1e-10\) after (\d+) steps$",
                      str(raised.value))
    assert found, str(raised.value)
    assert float(found[1]) > optimize.RESIDUAL_TOL and int(found[2]) == 1


class TestMaxentPaperExamples:
    def test_colorful_coarse(self):
        sp = enumerate_worlds(["colorful"])
        res = maxent(TrueExpr(), sp)
        assert res.attained
        assert res.measures[0].prob(event_of(sp, "colorful")) == pytest.approx(0.5, abs=1e-9)

    def test_colorful_fine(self, rgb_space):
        res = maxent(TrueExpr(), rgb_space)
        p = res.measures[0].prob(event_of(rgb_space, "red | blue | green"))
        assert p == pytest.approx(0.875, abs=1e-9)
        assert res.value == pytest.approx(3.0, abs=1e-9)

    def test_flying_bird_first_representation(self, fly_bird_space):
        res = maxent(parse_constraint("P(fly | bird) = 1/2", fly_bird_space))
        assert res.attained
        p_bird = res.measures[0].prob(event_of(fly_bird_space, "bird"))
        assert p_bird == pytest.approx(0.5, abs=1e-9)

    def test_flying_bird_second_representation(self, flying_bird_space):
        res = maxent(parse_constraint("P(flying-bird | bird) = 1/2", flying_bird_space))
        p_bird = res.measures[0].prob(event_of(flying_bird_space, "bird"))
        assert p_bird == pytest.approx(2 / 3, abs=1e-9)

    def test_undefined_supremum_cases(self):
        two = enumerate_worlds(["x1"])
        assert maxent(parse_constraint("P(x1) < 1/2", two)).status == "not_attained"
        res = maxent(parse_constraint("P(x1) < 2/3", two))
        assert res.attained
        assert [float(w) for w in res.measures[0].weights] == pytest.approx([0.5, 0.5])

    def test_empty_kb(self, fly_bird_space):
        res = maxent(parse_constraint("P(fly) > 1/2 & P(fly) < 1/4", fly_bird_space))
        assert res.status == "empty"
        assert res.measures == ()


class TestKlProject:
    def test_two_block_scaling(self, fly_bird_space):
        # P of the first two worlds pushed to 4/5: oracle is both the
        # closed form (0.4, 0.4, 0.1, 0.1) and a grid minimization
        mu = Measure.uniform(fly_bird_space)
        kb = parse_constraint("P(!fly) = 4/5", fly_bird_space)
        res = kl_project(mu, kb)
        assert res.attained
        assert [float(w) for w in res.measures[0].weights] == pytest.approx(
            [0.4, 0.4, 0.1, 0.1], abs=1e-9)
        gridded = grid_kl_argmin(
            Measure.uniform(fly_bird_space, backend="rational"),
            lambda m: m.prob(event_of(fly_bird_space, "!fly")) == F(4, 5),
            denom=10)
        assert [float(w) for w in gridded.weights] == pytest.approx(
            [float(w) for w in res.measures[0].weights], abs=1e-9)

    def test_projection_of_member_is_itself(self, fly_bird_space):
        mu = Measure.from_floats(fly_bird_space, [0.4, 0.3, 0.2, 0.1])
        kb = parse_constraint("P(!fly) >= 1/2", fly_bird_space)
        res = kl_project(mu, kb)
        assert res.attained and res.value == 0.0
        assert res.measures == (mu,)

    def test_boundary_projection(self):
        two = enumerate_worlds(["p"])
        mu = Measure.from_floats(two, [0.7, 0.3])
        res = kl_project(mu, parse_constraint("P(p) >= 1/2", two))
        assert [float(w) for w in res.measures[0].weights] == pytest.approx([0.5, 0.5], abs=1e-10)
        # oracle: dense grid search
        gridded = grid_kl_argmin(Measure.rational(two, [F(7, 10), F(3, 10)]),
                                 lambda m: m.prob(event_of(two, "p")) >= F(1, 2),
                                 denom=50)
        assert float(gridded.weights[0]) == pytest.approx(0.5, abs=1e-9)

    def test_forced_zero_is_eliminated(self, flying_bird_space, monkeypatch):
        # x0 + x1 <= 1/2 and x0 >= 1/2 force x1 = 0, which multiplicative
        # tilts reach only in the limit: the exact zero pattern decides it.
        from credal.entail import Cell
        from credal.spaces import event_from_indices

        calls = []
        support = Cell.support

        def spy(self, *args, **kwargs):
            calls.append(args)
            return support(self, *args, **kwargs)

        monkeypatch.setattr(Cell, "support", spy)
        sp = flying_bird_space
        kb = And((LinearAtom(((F(1), event_from_indices(sp, [0, 1])),), "<=", F(1, 2)),
                  LinearAtom(((F(1), event_from_indices(sp, [0])),), ">=", F(1, 2))))
        res = kl_project(Measure.from_floats(sp, [0.2, 0.3, 0.5]), kb)
        assert calls and res.attained
        assert [float(w) for w in res.measures[0].weights] == pytest.approx(
            [0.5, 0.0, 0.5], abs=1e-9)

    @pytest.mark.parametrize("atoms", [
        # P(E) <= 3/4 & P(E) = 3/8: the two rows coincide
        (([0, 1], "<=", F(3, 4)), ([0, 1], "=", F(3, 8))),
        # P({1}) >= 1/2 & P({0,2}) = 1/8: the rows differ by the simplex row
        (([1], ">=", F(1, 2)), ([0, 2], "=", F(1, 8))),
    ])
    def test_coinciding_rows_are_attained(self, atoms):
        # Both rows are violated at the prior, so the dual Hessian is
        # singular.  Both optima lie on the 1/48 grid.
        from credal.spaces import event_from_indices

        space = _plain_space("c", 3)
        kb = And(tuple(LinearAtom(((F(1), event_from_indices(space, ids)),), cmp, bound)
                       for ids, cmp, bound in atoms))
        prior = Measure.rational(space, [F(1, 2), F(2, 5), F(1, 10)])
        res = kl_project(prior.to_float(), kb)
        assert res.attained
        gridded = grid_kl_argmin(prior, lambda m: satisfies(m, kb), denom=48)
        assert [float(w) for w in res.measures[0].weights] == pytest.approx(
            [float(w) for w in gridded.weights], abs=1e-9)

    def test_certain_event_needs_no_support_lp(self, flying_bird_space, monkeypatch):
        # P(bird) = 1 pins the non-bird world from the atom alone.
        from credal.entail import Cell
        from credal.measures import condition

        calls = []
        support = Cell.support

        def spy(self, *args, **kwargs):
            calls.append(args)
            return support(self, *args, **kwargs)

        monkeypatch.setattr(Cell, "support", spy)
        sp = flying_bird_space
        mu = Measure.from_floats(sp, [0.2, 0.3, 0.5])
        res = kl_project(mu, parse_constraint("P(bird) = 1", sp))
        assert not calls and res.attained
        assert res.diagnostics[0].cycles == 0
        assert [float(w) for w in res.measures[0].weights] == pytest.approx(
            [float(w) for w in condition(mu, event_of(sp, "bird")).weights], abs=1e-12)

    def test_objective_projection_is_conditioning(self, fly_bird_space):
        from credal.constraints import LinearAtom
        from credal.measures import condition
        from credal.spaces import event_from_indices
        from tests.conftest import simplex_grid

        cases = [
            (fly_bird_space, event_from_indices(fly_bird_space, [0, 1]), 4),
            (_plain_space("c5", 5), None, 3),
        ]
        for space, s, denom in cases:
            if s is None:
                s = event_from_indices(space, [0, 2, 4])
            kb = LinearAtom(((Fraction(1), s),), "=", Fraction(1))
            for mu in simplex_grid(space, denom):
                if mu.prob(s) == 0:
                    continue
                res = kl_project(mu.to_float(), kb)
                conditioned = condition(mu, s).to_float()
                assert res.attained
                for a, b in zip(res.measures[0].weights, conditioned.weights):
                    assert abs(a - b) <= 1e-8

    def test_outside_support_is_empty_with_diagnostics(self):
        two = enumerate_worlds(["p"])
        mu = Measure.from_floats(two, [1.0, 0.0])
        res = kl_project(mu, parse_constraint("P(p) = 1", two))
        assert res.status == "empty"
        assert any(d.infinite for d in res.diagnostics)

    def test_strictness_not_attained(self):
        two = enumerate_worlds(["p"])
        mu = Measure.from_floats(two, [0.9, 0.1])
        res = kl_project(mu, parse_constraint("P(p) > 1/2", two))
        assert res.status == "not_attained"
        assert res.value == pytest.approx(
            kl_divergence(Measure.from_floats(two, [0.5, 0.5]), mu), abs=1e-8)

    def test_optimality_certificate(self, fly_bird_space):
        # 200 feasible perturbations cannot beat the reported optimum
        rng = random.Random(12)
        mu = Measure.from_floats(fly_bird_space, [0.4, 0.1, 0.3, 0.2])
        kb = parse_constraint("P(fly) >= 1/2 & P(bird) <= 2/3", fly_bird_space)
        res = kl_project(mu, kb)
        assert res.attained
        star = res.measures[0]
        base = kl_divergence(star, mu)
        eps = 1e-4
        found = 0
        while found < 200:
            direction = [rng.uniform(-1, 1) for _ in range(4)]
            shift = sum(direction) / 4
            direction = [d - shift for d in direction]
            cand = [w + eps * d for w, d in zip(star.weights, direction)]
            if any(c < 0 for c in cand):
                continue
            cand_mu = Measure.from_floats(fly_bird_space, [c / sum(cand) for c in cand])
            if not all(float_atom_holds(atom, cand_mu, 0.0) for atom in kb.items):
                continue
            found += 1
            assert kl_divergence(cand_mu, mu) >= base - 1e-10

    def test_pythagorean_inequality(self, fly_bird_space):
        rng = random.Random(3)
        mu = Measure.from_floats(fly_bird_space, [0.4, 0.1, 0.3, 0.2])
        kb = parse_constraint("P(fly) = 1/2 & P(fly & bird) = 1/4", fly_bird_space)
        star = kl_project(mu, kb).measures[0]
        d_star = kl_divergence(star, mu)
        for _ in range(50):
            raw = [rng.random() + 1e-6 for _ in range(4)]
            nu = Measure.from_floats(fly_bird_space, [r / sum(raw) for r in raw])
            nu = kl_project(nu, kb).measures[0]  # a random feasible point
            lhs = kl_divergence(nu, mu)
            rhs = kl_divergence(nu, star) + d_star
            assert lhs >= rhs - 1e-8


class TestOneAtomProjection:
    def test_two_block_closed_form(self):
        two = enumerate_worlds(["p"])
        atom = parse_constraint("P(p) = 1/4", two)
        out = kl_project(Measure.uniform(two), atom).measures[0]
        assert [float(w) for w in out.weights] == pytest.approx([0.75, 0.25], abs=1e-12)

    def test_satisfied_inequality_unchanged(self):
        two = enumerate_worlds(["p"])
        mu = Measure.from_floats(two, [0.6, 0.4])
        atom = parse_constraint("P(p) <= 1/2", two)
        assert kl_project(mu, atom).measures[0] is mu

    def test_target_at_the_extreme_pins_zeros(self):
        two = enumerate_worlds(["p"])
        out = kl_project(Measure.uniform(two), parse_constraint("P(p) = 1", two)).measures[0]
        assert [float(w) for w in out.weights] == [0.0, 1.0]

    def test_unreachable_target_is_empty(self):
        two = enumerate_worlds(["p"])
        mu = Measure.from_floats(two, [1.0, 0.0])
        res = kl_project(mu, parse_constraint("P(p) = 1/2", two))
        assert res.status == "empty" and res.measures == ()


class TestUpdateSet:
    def test_uniform_prior_matches_maxent(self):
        # maxent is updating from the uniform prior: the same measures,
        # weight for weight, whether reached through update_set or select
        for symbols in (["a", "b"], ["a", "b", "c"]):
            space = enumerate_worlds(symbols)
            kbs, _, _ = klm_corpus(space)
            proc = InferenceProcedure.maxent()
            for kb in kbs:
                via_maxent = [m.weights for m in maxent(kb, space).measures]
                assert [m.weights for m in update_set((Measure.uniform(space),), kb)] == via_maxent
                assert [m.weights for m in select(proc, kb, space)] == via_maxent

        two = enumerate_worlds(["x1"])
        kb = parse_constraint("P(x1) < 1/2", two)
        assert maxent(kb).status == "not_attained"
        with pytest.raises(DomainError):
            infers(InferenceProcedure.maxent(), kb, TrueExpr(), two)

    def test_member_prior_is_kept(self, fly_bird_space):
        mu = Measure.from_floats(fly_bird_space, [0.4, 0.3, 0.2, 0.1])
        out = update_set((mu,),
                        parse_constraint("P(!fly) >= 1/2", fly_bird_space))
        assert tuple(out) == (mu,)

    def test_two_priors_conditioned(self, fly_bird_space):
        from credal.measures import condition
        from credal.spaces import event_from_indices

        s = event_from_indices(fly_bird_space, [0, 1])
        kb = parse_constraint("P(!fly) = 1", fly_bird_space)
        p1 = Measure.from_floats(fly_bird_space, [0.4, 0.3, 0.2, 0.1])
        p2 = Measure.from_floats(fly_bird_space, [0.1, 0.2, 0.3, 0.4])
        out = update_set((p1, p2), kb)
        assert len(out) == 2
        expected = sorted([condition(p1, s).weights, condition(p2, s).weights])
        got = sorted(m.weights for m in out)
        for a, b in zip(got, expected):
            for x, y in zip(a, b):
                assert abs(x - y) <= 1e-9

    def test_not_attained_is_domain_error(self):
        two = enumerate_worlds(["p"])
        priors = (Measure.uniform(two),)
        with pytest.raises(DomainError):
            update_set(priors, parse_constraint("P(p) < 1/2", two))

    def test_domain_error_names_its_cell(self):
        # the optimum of the closure, the uniform measure, misses the
        # strict bound by less than EPS, so the projection is not attained
        one = enumerate_worlds(["a"])
        kb = LinearAtom(((F(1), event_of(one, "a")),), "<", F(1, 2) + F(1, 10**10))
        with pytest.raises(DomainError, match=r"\(cell 0, divergence 0 bits"):
            infers(InferenceProcedure.maxent(), kb, TrueExpr(), one)
        # of two failing cells, the one of least divergence is named
        kb = parse_constraint("P(a) > 3/4 | P(a) < 1/2", one)
        with pytest.raises(DomainError, match=r"\(cell 1, divergence 0 bits"):
            infers(InferenceProcedure.maxent(), kb, TrueExpr(), one)

    def test_prior_sets_project_through_kl_project(self, monkeypatch, cold_caches):
        # prior sets reach the module's kl_project, so a wrapper on it
        # (the bench tracer's) sees every projection they compute
        seen = []
        project = optimize.kl_project
        monkeypatch.setattr(optimize, "kl_project",
                            lambda mu, kb: seen.append(mu) or project(mu, kb))
        sp = enumerate_worlds(["a", "b"])
        priors = (Measure.uniform(sp), Measure.from_floats(sp, [0.4, 0.3, 0.2, 0.1]))
        update_set(priors, parse_constraint("P(a) >= 3/4", sp))
        assert seen == list(priors)
        seen.clear()
        # P(a & b) is no cylinder, so the kb does not factorize; its one
        # corner, on a & b, meets theta and kb does not entail it, so its
        # priors are projected one by one
        proc = InferenceProcedure.prior_based(PriorFunction.product_family())
        kb = parse_constraint("P(a & b) >= 1/2", sp)
        infers(proc, kb, parse_constraint("P(a) >= 3/4", sp), sp)
        assert len(seen) > 2

    def test_every_call_projects_every_prior(self, monkeypatch, cold_caches):
        # nothing is lazy or memoised per (prior, kb): each call projects
        # both priors, and no memo stores the raise, so it comes again
        seen = []
        project = optimize.kl_project
        monkeypatch.setattr(optimize, "kl_project",
                            lambda mu, kb: seen.append(mu) or project(mu, kb))
        two = enumerate_worlds(["p"])
        kb = parse_constraint("P(p) < 1/2", two)
        inside = Measure.from_floats(two, [0.8, 0.2])  # its own projection
        uniform = Measure.uniform(two)  # its projection is not attained
        for calls in (1, 2):
            with pytest.raises(DomainError):
                update_set((inside, uniform), kb)
            assert seen == [inside, uniform] * calls
        assert updates((inside,), kb) == (inside,)


def test_kl_project_on_a_kb_without_atoms():
    # true and false name no space: satisfaction or an empty cell list decides
    two = enumerate_worlds(["p"])
    mu = Measure.uniform(two)
    res = kl_project(mu, TrueExpr())
    assert (res.status, res.measures, res.value) == ("attained", (mu,), 0.0)
    res = kl_project(mu, FalseExpr())
    assert (res.status, res.measures, res.value, res.diagnostics) == ("empty", (), None, ())


def test_kl_project_reads_an_exact_prior_as_given():
    # kl_project is the one place a prior becomes float: an exact prior
    # that satisfies kb is its own projection, exact and the same object;
    # one that violates kb is projected as its floats are
    two = enumerate_worlds(["p"])
    prior = Measure.uniform(two, backend="rational")
    inside = parse_constraint("P(p) <= 1/2", two)
    res = kl_project(prior, inside)
    assert res.status == "attained" and res.measures[0] is prior
    assert res.diagnostics[0].duals == (0.0,)
    atom = parse_constraint("P(p) = 1/4", two)
    res, reference = kl_project(prior, atom), kl_project(prior.to_float(), atom)
    assert res.status == reference.status == "attained"
    assert [m.weights for m in res.measures] == [m.weights for m in reference.measures]
    assert res.value == reference.value


def test_update_set_unsatisfiable_kb_is_empty():
    two = enumerate_worlds(["p"])
    out = update_set((Measure.uniform(two),),
                     parse_constraint("P(p) > 1/2 & P(p) < 1/4", two))
    assert len(out) == 0


def test_flying_bird_maxent_against_grid_oracle(fly_bird_space):
    # independent oracle: exhaustive simplex grid restricted to the kb
    from credal.measures import entropy
    from tests.conftest import simplex_grid

    kb = parse_constraint("P(fly | bird) = 1/2", fly_bird_space)
    best, best_h = None, -1.0
    for mu in simplex_grid(fly_bird_space, 24):
        if not satisfies(mu, kb):
            continue
        h = entropy(mu)
        if h > best_h:
            best, best_h = mu, h
    res = maxent(kb, fly_bird_space)
    assert res.value >= best_h - 1e-9
    for a, b in zip(res.measures[0].weights, best.weights):
        assert abs(a - float(b)) <= 1 / 24 + 1e-9


def test_random_projections_match_grid_oracle():
    # randomized cross-validation of the dual Newton projection
    import random

    from tests.conftest import float_atom_holds, grid_kl_argmin

    rng = random.Random(71)
    space = _plain_space("cv", 3)
    ev_a = Event(space, 0b011)
    ev_b = Event(space, 0b101)
    for _ in range(30):
        raw = [rng.uniform(0.05, 1.0) for _ in range(3)]
        prior = Measure.from_floats(space, [w / sum(raw) for w in raw])
        bound_a = Fraction(rng.randrange(1, 8), 8)
        cmp = rng.choice(("=", "<=", ">="))
        kb = LinearAtom(((Fraction(1), ev_a),), cmp, bound_a)
        if rng.random() < 0.5:
            kb = And((kb, LinearAtom(((Fraction(1), ev_b),), ">=",
                                     Fraction(rng.randrange(0, 5), 8))))
            if not satisfiable(kb, space).feasible:
                continue
        res = kl_project(prior, kb)
        if not res.attained:
            continue
        gridded = grid_kl_argmin(prior, lambda m: satisfies(m, kb), denom=40)
        assert gridded is not None
        d_grid = kl_divergence(gridded.to_float(), prior)
        # the engine must be at least as close as the best grid point
        assert res.value <= d_grid + 1e-9
        for a, b in zip(res.measures[0].weights, gridded.weights):
            assert abs(a - float(b)) <= 1 / 40 + 1e-9


def test_maxent_newton_steps_on_klm_corpus():
    # Deterministic work counter: the Newton steps of maxent over the
    # kbs and thetas of the two-symbol KLM corpus.
    space = enumerate_worlds(["a", "b"])
    kbs, thetas, _ = klm_corpus(space)
    steps = sum(d.cycles for kb in (*kbs, *thetas) for d in maxent(kb, space).diagnostics)
    assert len(kbs) + len(thetas) == 59
    assert steps <= 60


def _random_cell(rng, max_worlds):
    """A conjunction of 1-3 random =/<=/>= rows over 2 to max_worlds - 1
    worlds and a prior with some zero weights, or None when every
    weight drawn is zero."""
    n = rng.randrange(2, max_worlds)
    space = _plain_space("s", n)
    atoms = tuple(
        LinearAtom(tuple((F(rng.choice((1, 1, 2, -1))), Event(space, rng.randrange(1, (1 << n) - 1)))
                         for _ in range(rng.choice((1, 1, 2)))),
                   rng.choice(("=", "<=", ">=")), F(rng.randrange(0, 9), 8))
        for _ in range(rng.randrange(1, 4)))
    raw = [rng.choice((0.0, 1.0, 1.0, 1.0)) * rng.uniform(0.05, 1.0) for _ in range(n)]
    if sum(raw) == 0.0:
        return None
    return space, atoms, Measure.from_floats(space, [w / sum(raw) for w in raw])


def test_random_cells_match_slsqp_oracle():
    # Differential oracle: scipy's SLSQP on random cells of up to 5
    # worlds, priors with some zero weights.
    pytest.importorskip("scipy")
    from tests.conftest import slsqp_kl_min

    rng = random.Random(4)
    compared = attained = 0
    for _ in range(300):
        drawn = _random_cell(rng, 6)
        if drawn is None:
            continue
        _, atoms, prior = drawn
        res = kl_project(prior, And(atoms))
        if not res.attained:
            continue
        attained += 1
        oracle = slsqp_kl_min(prior, atoms)
        if oracle is None:
            continue
        compared += 1
        assert res.value * math.log(2) == pytest.approx(oracle, abs=1e-7)
    assert attained >= 100 and compared >= 0.9 * attained


def test_projection_duals_are_a_kkt_certificate():
    # The duals of each projected cell, checked against its float rows
    # A w (= or <=) b on the live support (the worlds of positive mass):
    # lam >= 0 on the inequality rows, complementary slackness, the
    # primal residual, and w proportional to w0 exp(-A^T lam).  Newton
    # stops at a worst KKT residual of RESIDUAL_TOL, so |lam s| is at
    # most RESIDUAL_TOL max(lam, |s|) for a row of slack s.  A prior
    # that satisfies kb is its own projection, in zero Newton steps, and
    # its zero duals certify it on the first cell whose atoms hold at it.
    # The zero set is exact: a world of the prior's support has w = 0
    # just when no point of the closure, with no mass off that support,
    # puts mass on it (`Cell.support`).
    rng = random.Random(15)
    checked = own = zeroed = 0
    for _ in range(400):
        drawn = _random_cell(rng, 6)
        if drawn is None:
            continue
        space, atoms, prior = drawn
        kb = And(atoms)
        res = kl_project(prior, kb)
        if not res.attained:
            continue
        (diag,) = res.diagnostics
        if satisfies(prior, kb):
            assert res.measures == (prior,) and diag.cycles == 0
            assert not any(diag.duals)
            own += 1
        cell = cells(kb, space)[diag.index]
        a, b, ineq = cell.float_rows
        lam = np.array(diag.duals)
        w = np.array(res.measures[0].weights)
        w0 = np.array(prior.weights)
        held = np.flatnonzero(w0 > 0.0).tolist()
        pins = [([int(j == i) for j in range(len(w0))], 0) for i in range(len(w0)) if w0[i] <= 0]
        zero = [i for i in held if w[i] == 0.0]
        assert zero == sorted(set(held) - set(cell.support(held, Cell.pin_rows(pins))))
        zeroed += bool(zero)
        assert lam.shape == b.shape
        assert (lam[ineq] >= 0.0).all()
        slack = b - a @ w
        assert (slack[ineq] >= -1e-9).all() and (abs(slack[~ineq]) <= 1e-9).all()
        assert (abs(lam[ineq] * slack[ineq]) <= 1e-9 * (1.0 + lam[ineq])).all()
        live = w > 0.0
        assert (w0[live] > 0.0).all()
        log_z = np.log(w0[live]) - lam @ a[:, live] - np.log(w[live])
        assert log_z.max() - log_z.min() <= 1e-9
        checked += 1
    assert checked - own >= 100 and own >= 10 and zeroed >= 20, (checked, own, zeroed)


def test_a_prior_satisfying_kb_names_the_cell_holding_it():
    # the uniform prior violates the first cell, P(a) > 3/4, and lies in
    # the second, P(a) <= 1/2, where zero duals certify it
    space = enumerate_worlds(["a"])
    kb = parse_constraint("P(a) > 3/4 | P(a) <= 1/2", space)
    prior = Measure.uniform(space).to_float()
    res = kl_project(prior, kb)
    assert res.status == "attained" and res.measures == (prior,)
    assert res.diagnostics == (DisjunctDiagnostic(1, True, value=0.0, strict_ok=True,
                                                  duals=(0.0,)),)


def _plain_newton(w0, a, b, ineq, floor):
    """`optimize._newton` written with numpy's general calls, as it was
    before its step was trimmed: `ndarray.max` and `.sum`, `np.outer`,
    `np.diag_indices_from`, `np.linalg.solve` for every Hessian and the
    masked copies of the bound rows on every step.  The reference for
    the bit-identity of the trimmed step."""
    def dual(lam):
        z = -(lam @ a)
        top = z.max()
        w = w0 * np.exp(z - top)
        total = w.sum()
        return top + math.log(total) + float(b @ lam), w / total

    lam = np.zeros(len(b))
    phi, w = dual(lam)
    for step in range(optimize.NEWTON_STEPS + 1):
        aw = a @ w
        grad = b - aw
        kkt = np.abs(np.where(ineq, np.minimum(lam, grad), grad))
        residual = float(kkt.max(initial=0.0))
        if residual <= optimize.RESIDUAL_TOL:
            if floor and np.any(w < optimize.ZERO_FLOOR * w0):
                return None, lam, step, residual
            return w, lam, step, residual
        if step == optimize.NEWTON_STEPS:
            break
        bound = ineq & (lam <= min(residual, 1e-3)) & (grad > 0.0)
        free = ~bound
        hess = (a[free] * w) @ a[free].T - np.outer(aw[free], aw[free])
        hess[np.diag_indices_from(hess)] += 1e-3 * np.abs(grad[free]).max(initial=0.0)
        d = -lam.copy()
        d[free] = -np.linalg.solve(hess, grad[free])
        slack = 1e-15 * (1.0 + abs(phi))
        t = 1.0
        for _ in range(60):
            trial = lam + t * d
            trial[ineq] = np.maximum(trial[ineq], 0.0)
            phi_t, w_t = dual(trial)
            if phi_t <= phi + 1e-4 * float(grad @ (trial - lam)) + slack:
                break
            t *= 0.5
        else:
            return None, lam, step + 1, residual
        lam, phi, w = trial, phi_t, w_t
    return None, lam, optimize.NEWTON_STEPS, residual


def _projection_digest() -> str:
    """A digest of 600 seeded projections of 1-3 rows over 2-8 worlds,
    priors with zero weights and, one draw in four, the pair P(A) >= c,
    P(A or B) <= c, which forces the worlds of B outside A to zero with
    neither bound extreme, so Cell.support finds those zeros.  Every projected
    weight's float.hex and every cycles count go into it: any change to
    a float operation of the projection, or to their order, changes it."""
    rng = random.Random(15)
    digest = hashlib.sha256()
    for _ in range(600):
        drawn = _random_cell(rng, 9)
        if drawn is None:
            continue
        space, atoms, prior = drawn
        if rng.random() < 0.25:
            n = len(space.worlds)
            inner = rng.randrange(1, (1 << n) - 1)
            outer = inner | rng.randrange(1, 1 << n)
            c = F(rng.randrange(1, 8), 8)
            atoms = atoms[:1] + (LinearAtom(((F(1), Event(space, inner)),), ">=", c),
                                 LinearAtom(((F(1), Event(space, outer)),), "<=", c))
        res = kl_project(prior, And(atoms))
        digest.update(res.status.encode())
        for m in res.measures:
            digest.update(" ".join(float(w).hex() for w in m.weights).encode())
        digest.update(repr([d.cycles for d in res.diagnostics]).encode())
    return digest.hexdigest()[:16]


def test_projection_floats_match_plain_numpy_newton(monkeypatch):
    # Bit-identity guard for the dual Newton on any CPU: the same
    # projections with `_newton` and with its plain-numpy reference give
    # the same weights and step counts, bit for bit.
    supports = []
    support = Cell.support
    monkeypatch.setattr(Cell, "support",
                        lambda self, *args: supports.append(self) or support(self, *args))
    trimmed = _projection_digest()
    assert len(supports) >= 20
    monkeypatch.setattr(optimize, "_newton", _plain_newton)
    assert _projection_digest() == trimmed


# The floats of a projection depend on numpy's exp kernel, picked by the
# CPU's SIMD extensions, and on the BLAS kernels, picked by the CPU model:
# the platform on which the digest below was recorded, at the commit
# before the dual Newton step was trimmed.
DIGEST_PLATFORM = ("x86_64", "2.4.6", "0.3.31.188.0",
                   ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"))


def _float_platform():
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.25 prints its configuration only
        return None
    return (platform.machine(), np.__version__,
            config.get("Build Dependencies", {}).get("blas", {}).get("version"),
            tuple(config.get("SIMD Extensions", {}).get("found", ())))


def test_projection_floats_match_their_recorded_digest():
    # Guards every float of the projection, float_rows and the supports
    # included, against the recorded digest; elsewhere the test above
    # still compares the step with its reference.
    if _float_platform() != DIGEST_PLATFORM:
        pytest.skip(f"digest recorded on {DIGEST_PLATFORM}, not on {_float_platform()}")
    assert _projection_digest() == "88d2a3d70ea891aa"
