import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from credal.embeddings import from_surjection, random_faithful_embedding
from credal.errors import CredalError
from credal.measures import (
    Measure,
    condition,
    corresponds,
    couple,
    entropy,
    is_distribution,
    is_product_measure,
    kl_chain_identity_residual,
    kl_divergence,
    product_measure,
    pushforward,
)
from credal.spaces import enumerate_worlds, event_from_indices, event_of, product_space

F = Fraction


def _colorful_embedding():
    x = enumerate_worlds(["colorful"])
    y = enumerate_worlds(["red", "blue", "green"])
    return from_surjection(x, y, [0 if w.bits == 0 else 1 for w in y.worlds])


class TestMeasureBasics:
    def test_rational_weights_must_sum_to_one(self, fly_bird_space):
        with pytest.raises(ValueError):
            Measure.rational(fly_bird_space, [F(1, 2), F(1, 2), F(1, 2), F(-1, 2)])
        with pytest.raises(ValueError):
            Measure.rational(fly_bird_space, [F(1, 2), F(1, 4), F(1, 8), F(1, 16)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_weights_raise(self, bad):
        # a NaN passes both a negativity test and a sum test, and
        # max(0.0, nan) is 0.0: both constructors must reject it
        x = enumerate_worlds(["a"])
        with pytest.raises(ValueError, match="non-finite"):
            Measure(x, (bad, 1.0), "float")
        with pytest.raises(ValueError, match="non-finite"):
            Measure.from_floats(x, [bad, 1.0])

    def test_from_floats_clamps_finite_weights_as_before(self):
        # finite weights stay bit for bit max(0.0, w): tiny negatives and
        # -0.0 become 0.0, and a nonpositive weight is never -0.0
        x = enumerate_worlds(["a", "b"])
        for ws in ([-1e-15, 0.25, 0.75, 0.0], [-0.0, 0.5, 0.5, 0.0], [0.1, 0.2, 0.7, -0.0]):
            expected = [max(0.0, w) for w in ws]
            got = Measure.from_floats(x, ws).weights
            assert [w.hex() for w in got] == [w.hex() for w in expected]

    def test_is_distribution_is_the_rational_check(self):
        # the integer check that Measure, and so every LP witness, runs agrees
        # with the plain rational one, zeros, negatives and ints included
        rng = random.Random(14)
        for _ in range(500):
            ws = [F(rng.randint(-2, 6), rng.choice((1, 2, 3, 4, 6, 12))) if rng.random() < 0.7
                  else rng.choice((0, 0, 1)) for _ in range(rng.randint(0, 6))]
            if rng.random() < 0.5 and ws:
                ws[-1] += 1 - sum(ws)
            assert is_distribution(ws) == (all(w >= 0 for w in ws) and sum(ws) == 1)
        assert is_distribution([0] * 383 + [F(1)])
        assert not is_distribution([])

    def test_a_measure_hashes_its_weights_once(self, fly_bird_space, monkeypatch):
        # memo keys (a finite prior function in procedures.select's) hash
        # the same prior again and again; only the first hash walks its
        # weights
        mu = Measure.rational(fly_bird_space, [F(1, 2), F(1, 4), F(1, 8), F(1, 8)])
        first = hash(mu)
        calls = []
        fraction_hash = F.__hash__
        monkeypatch.setattr(F, "__hash__", lambda q: calls.append(q) or fraction_hash(q))
        assert hash(mu) == first
        assert calls == []
        # an equal measure built afresh walks them once, to the same hash
        copy = Measure.rational(fly_bird_space, mu.weights)
        assert copy == mu and hash(copy) == first and hash(copy) == first
        assert len(calls) == 4

    def test_backend_conversions(self, fly_bird_space):
        mu = Measure.rational(fly_bird_space, [F(1, 3), F(1, 3), F(1, 3), 0])
        assert mu.to_float().backend == "float"

    def test_mixed_backend_rejected(self, fly_bird_space):
        mu = Measure.uniform(fly_bird_space, backend="rational")
        nu = Measure.uniform(fly_bird_space)
        with pytest.raises(ValueError, match="mixed"):
            kl_divergence(mu, nu)


class TestEntropy:
    def test_uniform_four(self, fly_bird_space):
        assert entropy(Measure.uniform(fly_bird_space)) == pytest.approx(2.0)

    def test_point_mass(self, fly_bird_space):
        assert entropy(Measure.point_mass(fly_bird_space, 0)) == 0.0

    def test_uniform_three(self, flying_bird_space):
        h = entropy(Measure.rational(flying_bird_space, [F(1, 3)] * 3))
        assert h == pytest.approx(math.log2(3), abs=1e-12)

    @given(st.lists(st.integers(1, 50), min_size=2, max_size=8))
    def test_bounded_by_log_cardinality(self, raw):
        from credal.spaces import Space, Vocabulary, World

        n = len(raw)
        width = max(1, (n - 1).bit_length())
        sp = Space(Vocabulary(tuple(f"h{i}" for i in range(width))),
                   tuple(World(b, width) for b in range(n)))
        total = sum(raw)
        mu = Measure.rational(sp, [F(r, total) for r in raw])
        h = entropy(mu)
        assert h <= math.log2(n) + 1e-12
        uniform = all(r == raw[0] for r in raw)
        assert (abs(h - math.log2(n)) < 1e-12) == uniform


class TestKlDivergence:
    def test_zero_iff_equal(self, fly_bird_space):
        mu = Measure.rational(fly_bird_space, [F(1, 2), F(1, 4), F(1, 8), F(1, 8)])
        assert kl_divergence(mu, mu) == 0.0
        nu = Measure.uniform(fly_bird_space, backend="rational")
        assert kl_divergence(mu, nu) > 0.0

    def test_point_vs_uniform_is_one_bit(self):
        two = enumerate_worlds(["p"])
        d = kl_divergence(Measure.point_mass(two, 0), Measure.uniform(two, backend="rational"))
        assert d == pytest.approx(1.0)

    def test_support_violation_is_infinite(self):
        two = enumerate_worlds(["p"])
        half = Measure.rational(two, [F(1, 2), F(1, 2)])
        point = Measure.point_mass(two, 0)
        assert kl_divergence(half, point) == math.inf


class TestCondition:
    def test_uniform_on_two_of_four(self, fly_bird_space):
        s = event_from_indices(fly_bird_space, [0, 1])
        out = condition(Measure.uniform(fly_bird_space, backend="rational"), s)
        assert out.weights == (F(1, 2), F(1, 2), 0, 0)

    def test_whole_space_is_identity(self, fly_bird_space):
        from credal.spaces import whole_event

        mu = Measure.rational(fly_bird_space, [F(3, 10), F(2, 10), F(2, 10), F(3, 10)])
        assert condition(mu, whole_event(fly_bird_space)) == mu

    def test_derived_example_and_projection_cross_check(self, fly_bird_space):
        from credal.constraints import parse_constraint
        from credal.optimize import kl_project

        mu = Measure.rational(fly_bird_space, [F(3, 10), F(2, 10), F(2, 10), F(3, 10)])
        s = event_from_indices(fly_bird_space, [0, 1])
        out = condition(mu, s)
        assert out.weights == (F(3, 5), F(2, 5), 0, 0)
        proj = kl_project(mu.to_float(), parse_constraint("P(!fly) = 1", fly_bird_space))
        assert proj.attained
        for a, b in zip(proj.measures[0].weights, out.weights):
            assert abs(a - float(b)) < 1e-10

    def test_null_event_errors(self, fly_bird_space):
        with pytest.raises(CredalError, match="null event"):
            condition(Measure.point_mass(fly_bird_space, 0),
                      event_from_indices(fly_bird_space, [3]))


class TestPushforward:
    def test_colorful_example(self):
        emb = _colorful_embedding()
        weights = [F(0)] * 8
        weights[0] = F(3, 10)                      # colorless world
        for idx in (1, 2, 4):                      # single-color worlds
            weights[idx] = F(1, 10)
        weights[3] = weights[5] = weights[6] = F(1, 10)
        weights[7] = F(1, 10)
        nu = Measure.rational(emb.target, weights)
        mu = pushforward(emb, nu)
        assert mu.weights == (F(3, 10), F(7, 10))
        assert corresponds(emb, mu, nu)

    def test_identity(self, fly_bird_space):
        emb = from_surjection(fly_bird_space, fly_bird_space, range(len(fly_bird_space.worlds)))
        mu = Measure.rational(fly_bird_space, [F(1, 2), F(1, 4), F(1, 8), F(1, 8)])
        assert pushforward(emb, mu) == mu

    def test_uniform_four_does_not_correspond_to_half(self):
        emb = _colorful_embedding()
        y4 = enumerate_worlds(["u", "v"])
        emb = from_surjection(emb.source, y4, [0, 1, 1, 1])
        nu = Measure.uniform(y4, backend="rational")
        assert pushforward(emb, nu).weights == (F(1, 4), F(3, 4))
        half = Measure.rational(emb.source, [F(1, 2), F(1, 2)])
        assert not corresponds(emb, half, nu)

    def test_affine_in_the_measure(self):
        rng = random.Random(5)
        x = enumerate_worlds(["a"])
        y = enumerate_worlds(["c", "d"])
        emb = random_faithful_embedding(x, y, 11)
        for _ in range(20):
            raw1 = [F(rng.randrange(1, 9)) for _ in range(4)]
            raw2 = [F(rng.randrange(1, 9)) for _ in range(4)]
            n1 = Measure.rational(y, [w / sum(raw1) for w in raw1])
            n2 = Measure.rational(y, [w / sum(raw2) for w in raw2])
            lam = F(rng.randrange(1, 8), 8)
            mix = Measure.rational(y, [lam * a + (1 - lam) * b
                                       for a, b in zip(n1.weights, n2.weights)])
            lhs = pushforward(emb, mix).weights
            rhs = tuple(lam * a + (1 - lam) * b
                        for a, b in zip(pushforward(emb, n1).weights,
                                        pushforward(emb, n2).weights))
            assert lhs == rhs

    def test_preimage_identity_transport(self):
        emb = _colorful_embedding()
        nu = Measure.rational(emb.target, [F(1, 8)] * 8)
        mu = pushforward(emb, nu)
        for mask in range(1 << 2):
            ev = event_from_indices(emb.source, [i for i in range(2) if mask >> i & 1])
            assert mu.prob(ev) == nu.prob(emb.apply(ev))


class TestProductMeasure:
    def test_uniform_times_uniform(self):
        a, b = enumerate_worlds(["p"]), enumerate_worlds(["q"])
        mu = product_measure([Measure.uniform(a, backend="rational"),
                              Measure.uniform(b, backend="rational")])
        assert mu.weights == (F(1, 4),) * 4

    def test_direct_multiplication(self):
        a, b = enumerate_worlds(["p"]), enumerate_worlds(["q"])
        mu = product_measure([Measure.rational(a, [F(3, 5), F(2, 5)]),
                              Measure.rational(b, [F(3, 10), F(7, 10)])])
        assert mu.weights == (F(9, 50), F(21, 50), F(3, 25), F(7, 25))

    def test_single_factor_identity(self):
        a = enumerate_worlds(["p"])
        mu = Measure.rational(a, [F(2, 3), F(1, 3)])
        assert product_measure([mu]) == mu

    def test_factor_mismatch(self):
        a, b = enumerate_worlds(["p"]), enumerate_worlds(["q"])
        prod = product_space([a, b])
        with pytest.raises(ValueError, match="factor mismatch"):
            product_measure([Measure.uniform(a, backend="rational")], prod)


class TestIsProductMeasure:
    def test_products_are_products(self):
        a, b = enumerate_worlds(["p"]), enumerate_worlds(["q"])
        mu = product_measure([Measure.rational(a, [F(2, 3), F(1, 3)]),
                              Measure.rational(b, [F(1, 4), F(3, 4)])])
        assert is_product_measure(mu)

    def test_correlated_is_not(self):
        sp = enumerate_worlds(["p", "q"])
        mu = Measure.rational(sp, [F(1, 2), 0, 0, F(1, 2)])
        # marginals uniform; their product is uniform on four worlds
        assert not is_product_measure(mu)

    def test_vacuous_on_atomic_space(self, flying_bird_space):
        mu = Measure.rational(flying_bird_space, [F(1, 2), F(1, 3), F(1, 6)])
        assert is_product_measure(mu)


class TestCouple:
    def test_derived_point_example(self):
        x0 = enumerate_worlds(["p"])
        x1 = enumerate_worlds(["q", "r"], "!(q & r)")
        mu0 = Measure.rational(x0, [F(1, 2), F(1, 2)])
        s0 = event_from_indices(x0, [0])
        mu1 = Measure.rational(x1, [F(1, 2), F(3, 10), F(1, 5)])
        s1 = event_from_indices(x1, [0])
        out = couple(mu0, s0, mu1, s1)
        # evaluated from the two-block formula: mass pairs (w0,v0), (w1,v1), (w1,v2)
        assert out.prob(event_from_indices(out.space, [0])) == F(1, 2)
        assert out.weights[0] == F(1, 2)
        assert out.weights[4] == F(3, 10)
        assert out.weights[5] == F(1, 5)
        self._check_marginals_and_iff(out, mu0, s0, mu1, s1)

    @staticmethod
    def _check_marginals_and_iff(out, mu0, s0, mu1, s1):
        from credal.spaces import component_map, cylinder

        m0 = out.marginal(out.space.factors[0])
        m1 = out.marginal(out.space.factors[1])
        assert m0.weights == mu0.weights
        assert m1.weights == mu1.weights
        iff_event = ((cylinder(out.space, 0, s0) & cylinder(out.space, 1, s1))
                     | (~cylinder(out.space, 0, s0) & ~cylinder(out.space, 1, s1)))
        assert out.prob(iff_event) == 1

    def test_whole_events_give_independent_product(self):
        from credal.spaces import whole_event

        x0, x1 = enumerate_worlds(["p"]), enumerate_worlds(["q"])
        mu0 = Measure.rational(x0, [F(1, 4), F(3, 4)])
        mu1 = Measure.rational(x1, [F(2, 5), F(3, 5)])
        out = couple(mu0, whole_event(x0), mu1, whole_event(x1))
        assert out.weights == product_measure([mu0, mu1]).weights

    def test_zero_mass_side_drops(self):
        x0, x1 = enumerate_worlds(["p"]), enumerate_worlds(["q"])
        mu0 = Measure.rational(x0, [0, 1])
        s0 = event_from_indices(x0, [0])
        mu1 = Measure.rational(x1, [0, 1])
        s1 = event_from_indices(x1, [0])
        out = couple(mu0, s0, mu1, s1)
        assert out.weights == (0, 0, 0, 1)

    def test_mismatch_errors(self):
        x0, x1 = enumerate_worlds(["p"]), enumerate_worlds(["q"])
        with pytest.raises(CredalError, match="mismatch"):
            couple(Measure.rational(x0, [F(1, 2), F(1, 2)]), event_from_indices(x0, [0]),
                   Measure.rational(x1, [F(1, 4), F(3, 4)]), event_from_indices(x1, [0]))

    def test_a_float_measure_is_refused(self):
        # coupling is exact: a float measure on either side, or both, is
        # refused with one message rather than coupled at a tolerance
        x0, x1 = enumerate_worlds(["p"]), enumerate_worlds(["q"])
        s0, s1 = event_from_indices(x0, [0]), event_from_indices(x1, [0])
        exact = [Measure.rational(x, [F(1, 2), F(1, 2)]) for x in (x0, x1)]
        floats = [m.to_float() for m in exact]
        for mu0, mu1 in ((floats[0], exact[1]), (exact[0], floats[1]), tuple(floats)):
            with pytest.raises(ValueError, match="^couple needs rational measures; convert "
                                                 "explicitly$"):
                couple(mu0, s0, mu1, s1)

    def test_random_instances_preserve_marginals_exactly(self):
        rng = random.Random(99)
        for _ in range(25):
            x0 = enumerate_worlds(["p", "q"])
            x1 = enumerate_worlds(["r"])
            raw = [rng.randrange(0, 9) for _ in range(4)]
            if sum(raw) == 0:
                raw[0] = 1
            mu0 = Measure.rational(x0, [F(r, sum(raw)) for r in raw])
            s0 = event_from_indices(x0, [0, 2])
            mass = mu0.prob(s0)
            b_in = [F(rng.randrange(1, 5)) for _ in range(1)]
            b_out = [F(rng.randrange(1, 5))]
            w_in = [mass * w / sum(b_in) for w in b_in]
            w_out = [(1 - mass) * w / sum(b_out) for w in b_out]
            mu1 = Measure.rational(x1, [w_in[0], w_out[0]])
            s1 = event_from_indices(x1, [0])
            out = couple(mu0, s0, mu1, s1)
            self._check_marginals_and_iff(out, mu0, s0, mu1, s1)


class TestChainRuleResidual:
    def test_equal_measures_zero(self):
        emb = _colorful_embedding()
        nu = Measure.from_floats(emb.target, [0.125] * 8)
        assert kl_chain_identity_residual(nu, nu, emb) == 0.0

    def test_random_pairs_tiny_residual(self):
        emb = _colorful_embedding()
        rng = random.Random(17)
        for _ in range(100):
            a = [rng.random() + 1e-3 for _ in range(8)]
            b = [rng.random() + 1e-3 for _ in range(8)]
            nu2 = Measure.from_floats(emb.target, [x / sum(a) for x in a])
            nu = Measure.from_floats(emb.target, [x / sum(b) for x in b])
            assert kl_chain_identity_residual(nu2, nu, emb) <= 1e-9

    def test_support_mismatch_gives_zero_by_convention(self):
        emb = _colorful_embedding()
        nu2 = Measure.from_floats(emb.target, [0.5, 0.5, 0, 0, 0, 0, 0, 0])
        raw = [0.0, 0.25, 0.25, 0.125, 0.125, 0.125, 0.0625, 0.0625]
        nu = Measure.from_floats(emb.target, raw)
        assert kl_chain_identity_residual(nu2, nu, emb) == 0.0


class TestMeasureSets:
    def test_fiber_membership(self):
        emb = _colorful_embedding()
        base = Measure.from_floats(emb.source, [0.3, 0.7])
        ok = Measure.from_floats(emb.target, [0.3, 0.1, 0.2, 0.1, 0.1, 0.1, 0.05, 0.05])
        assert corresponds(emb, base, ok)
        assert not corresponds(emb, base, Measure.from_floats(emb.target, [0.125] * 8))


class TestExhaustiveSmallGrids:
    def test_entropy_bound_tight_only_at_uniform(self):
        from tests.conftest import simplex_grid

        two = enumerate_worlds(["p"])
        for mu in simplex_grid(two, 6):
            h = entropy(mu)
            assert h <= 1.0 + 1e-12
            assert (abs(h - 1.0) < 1e-12) == (mu.weights[0] == F(1, 2))

    def test_divergence_zero_iff_equal_on_grid(self):
        from tests.conftest import simplex_grid

        two = enumerate_worlds(["p"])
        grid = list(simplex_grid(two, 5))
        for mu in grid:
            for nu in grid:
                d = kl_divergence(mu, nu)
                if mu.weights == nu.weights:
                    assert d == 0.0
                else:
                    assert d > 0.0
