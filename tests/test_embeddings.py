import itertools
import random
from fractions import Fraction

import pytest

from credal.constraints import LinearAtom, parse_constraint, satisfies, translate
from credal.embeddings import (
    correspondence_gap,
    from_interpretation,
    from_surjection,
    is_faithful,
    permutation_embedding,
    product_embedding,
    random_faithful_embedding,
)
from credal.entail import entails
from credal.errors import CredalError, ParseError
from credal.measures import Measure, corresponds, pushforward
from credal.spaces import (
    Event,
    enumerate_worlds,
    event_from_indices,
    event_of,
    product_space,
    whole_event,
)

F = Fraction


def colorful_embedding():
    x = enumerate_worlds(["colorful"])
    y = enumerate_worlds(["red", "blue", "green"])
    return from_surjection(x, y, [0 if w.bits == 0 else 1 for w in y.worlds])


class TestFromSurjection:
    def test_colorful(self):
        emb = colorful_embedding()
        assert is_faithful(emb)
        image = emb.apply(event_of(emb.source, "colorful"))
        assert image == event_of(emb.target, "red | blue | green")

    def test_identity(self, fly_bird_space):
        emb = from_surjection(fly_bird_space, fly_bird_space, range(len(fly_bird_space.worlds)))
        ev = event_of(fly_bird_space, "fly")
        assert emb.apply(ev) == ev

    def test_non_surjective_rejected(self):
        x = enumerate_worlds(["p"])
        y = enumerate_worlds(["q", "r"])
        with pytest.raises(CredalError, match="not surjective"):
            from_surjection(x, y, [0, 0, 0, 0])


class TestFromInterpretation:
    def test_flying_bird_restricted_is_faithful(self, flying_bird_space, fly_bird_space):
        emb = from_interpretation({"flying-bird": "fly & bird", "bird": "bird"},
                                  flying_bird_space, fly_bird_space)
        assert is_faithful(emb)
        # the implication event is everything on the restricted source
        src_ev = event_of(flying_bird_space, "flying-bird => bird")
        assert emb.apply(src_ev) == whole_event(fly_bird_space)

    def test_full_source_not_faithful(self, fly_bird_space):
        full = enumerate_worlds(["flying-bird", "bird"])
        emb = from_interpretation({"flying-bird": "fly & bird", "bird": "bird"},
                                  full, fly_bird_space)
        assert not is_faithful(emb)
        bad = event_of(full, "flying-bird & !bird")
        assert emb.apply(bad).is_empty()

    def test_collapsing_interpretation_not_faithful(self):
        src = enumerate_worlds(["p", "q"])
        dst = enumerate_worlds(["r"])
        emb = from_interpretation({"p": "r", "q": "r"}, src, dst)
        assert not is_faithful(emb)
        assert emb.apply(event_of(src, "p & !q")).is_empty()

    def test_uncovered_target_rejected(self):
        src = enumerate_worlds(["p"], "p")  # single world
        dst = enumerate_worlds(["r"])
        with pytest.raises(CredalError, match="cover"):
            from_interpretation({"p": "r"}, src, dst)


    def test_formulas_are_parsed_before_the_symbols_are_looked_up(self):
        src = enumerate_worlds(["p", "q"])
        dst = enumerate_worlds(["r"])
        # a malformed formula under a key that is no source symbol
        with pytest.raises(ParseError):
            from_interpretation({"zz": "r &"}, src, dst)
        with pytest.raises(KeyError) as info:
            from_interpretation({"q": "r", "zz": "!r"}, src, dst)
        assert info.value.args == ("interpretation does not map 'p'",)

    def test_a_key_that_is_no_source_symbol_is_refused(self):
        src = enumerate_worlds(["p"])
        dst = enumerate_worlds(["r", "s"])
        with pytest.raises(KeyError) as info:
            from_interpretation({"p": "r", "zz": "!s"}, src, dst)
        assert info.value.args == ("interpretation maps 'zz', which is no source symbol",)
        assert from_interpretation({"p": "r"}, src, dst).world_map == (0, 0, 1, 1)


class TestHomomorphismLaws:
    def _corpus(self, fly_bird_space, flying_bird_space):
        identity = from_surjection(fly_bird_space, fly_bird_space, range(len(fly_bird_space.worlds)))
        out = [colorful_embedding(), identity]
        out.append(from_interpretation({"flying-bird": "fly & bird", "bird": "bird"},
                                       flying_bird_space, fly_bird_space))
        full = enumerate_worlds(["flying-bird", "bird"])
        out.append(from_interpretation({"flying-bird": "fly & bird", "bird": "bird"},
                                       full, fly_bird_space))
        return out

    def test_union_and_complement_exhaustively(self, fly_bird_space, flying_bird_space):
        for emb in self._corpus(fly_bird_space, flying_bird_space):
            n = len(emb.source.worlds)
            if n > 5:
                continue
            events = [Event(emb.source, mask) for mask in range(1 << n)]
            for s in events:
                assert emb.apply(~s) == ~emb.apply(s)
            for s, t in itertools.product(events[:8], events[:8]):
                assert emb.apply(s | t) == (emb.apply(s) | emb.apply(t))
                assert emb.apply(s & t) == (emb.apply(s) & emb.apply(t))


class TestFaithfulnessTransport:
    def _random_pair(self, space, rng):
        def atom():
            mask = rng.randrange(1, (1 << len(space.worlds)) - 1)
            bound = F(rng.randrange(0, 9), 8)
            cmp = rng.choice(("<", "<=", "=", ">=", ">"))
            return LinearAtom(((F(1), Event(space, mask)),), cmp, bound)

        from credal.constraints import And, Not, Or

        shape = rng.randrange(4)
        if shape == 0:
            return atom(), atom()
        if shape == 1:
            return And((atom(), atom())), atom()
        if shape == 2:
            return Not(atom()), Or((atom(), atom()))
        return Or((atom(), atom())), And((atom(), atom()))

    def test_faithful_embeddings_transport_entailment(self):
        rng = random.Random(20)
        for seed in (1, 2, 3):
            x = enumerate_worlds(["p"])
            y = enumerate_worlds(["u", "v"])
            emb = random_faithful_embedding(x, y, seed)
            for _ in range(100):
                kb, theta = self._random_pair(x, rng)
                assert entails(kb, theta, x) == entails(
                    translate(emb, kb), translate(emb, theta), y)

    def test_unfaithful_embedding_admits_violation(self):
        src = enumerate_worlds(["p", "q"])
        dst = enumerate_worlds(["r"])
        emb = from_interpretation({"p": "r", "q": "r"}, src, dst)
        # p & !q is impossible after the shift: search must find a pair
        rng = random.Random(4)
        found = False
        for _ in range(400):
            kb, theta = self._random_pair(src, rng)
            if entails(kb, theta, src) != entails(
                    translate(emb, kb), translate(emb, theta), dst):
                found = True
                break
        assert found


class TestCorrespondence:
    def test_corresponding_sets_example(self):
        emb = colorful_embedding()
        mu = Measure.from_floats(emb.source, [0.3, 0.7])
        nu1 = Measure.from_floats(emb.target, [0.3, 0.2, 0.2, 0.1, 0.1, 0.05, 0.05, 0.0])
        nu2 = Measure.from_floats(emb.target, [0.3, 0.7, 0, 0, 0, 0, 0, 0])
        dx = (mu,)
        dy = (nu1, nu2)
        assert correspondence_gap(emb, dx, dy) is None

    def test_extra_noncorresponding_measure_breaks_it(self):
        x = enumerate_worlds(["colorful"])
        y = enumerate_worlds(["u", "v"])
        emb = from_surjection(x, y, [0, 1, 1, 1])
        d_x = (Measure.from_floats(x, [0.3, 0.7]), Measure.from_floats(x, [0.4, 0.6]))
        quarter = Measure.uniform(y)  # pushforward is (0.25, 0.75): corresponds to neither
        d_y = (Measure.from_floats(y, [0.3, 0.3, 0.2, 0.2]), quarter)
        assert correspondence_gap(emb, d_x, d_y) is not None

    def test_measures_live_on_the_embedding_spaces(self):
        emb = colorful_embedding()
        mu = Measure.from_floats(emb.source, [0.3, 0.7])
        nu = Measure.from_floats(emb.target, [0.3, 0.7, 0, 0, 0, 0, 0, 0])
        with pytest.raises(ValueError):
            correspondence_gap(emb, (mu, Measure.uniform(enumerate_worlds(["u"]))), (nu,))
        with pytest.raises(ValueError):
            correspondence_gap(emb, (nu,), (nu,))
        with pytest.raises(ValueError):
            correspondence_gap(emb, (mu,), (mu,))

    def test_identity_self_correspondence(self, fly_bird_space):
        emb = from_surjection(fly_bird_space, fly_bird_space, range(len(fly_bird_space.worlds)))
        d = (Measure.uniform(fly_bird_space),)
        assert correspondence_gap(emb, d, d) is None

    def test_formula_transport_for_corresponding_pairs(self):
        emb = colorful_embedding()
        rng = random.Random(8)
        mu = Measure.from_floats(emb.source, [0.3, 0.7])
        nu = Measure.from_floats(emb.target, [0.3, 0.25, 0.25, 0.05, 0.05, 0.04, 0.03, 0.03])
        assert corresponds(emb, mu, nu)
        for _ in range(100):
            mask = rng.randrange(1, 3)
            bound = F(rng.randrange(0, 9), 8)
            cmp = rng.choice(("<", "<=", "=", ">=", ">"))
            theta = LinearAtom(((F(1), Event(emb.source, mask)),), cmp, bound)
            assert satisfies(mu, theta) == satisfies(nu, translate(emb, theta))

    def test_separating_constraint_for_noncorresponding(self):
        emb = colorful_embedding()
        mu = Measure.from_floats(emb.source, [0.3, 0.7])
        nu = Measure.uniform(emb.target)  # pushes to (1/8, 7/8)
        assert not corresponds(emb, mu, nu)
        hat = pushforward(emb, nu)
        differing = next(
            Event(emb.source, 1 << i)
            for i in range(2) if abs(hat.weights[i] - mu.weights[i]) > 1e-9)
        theta = LinearAtom(((F(1), differing),), "=", Fraction(mu.prob(differing)))
        assert satisfies(mu, theta) and not satisfies(nu, translate(emb, theta))


class TestProductAndPermutation:
    def test_identity_parts(self, fly_bird_space):
        a = enumerate_worlds(["p"])
        identity = from_surjection(a, a, range(len(a.worlds)))
        emb = product_embedding([identity, identity])
        assert emb.world_map == tuple(range(4))

    def test_componentwise_structure(self):
        a = enumerate_worlds(["p"])
        a4 = enumerate_worlds(["u", "v"])
        fa = from_surjection(a, a4, [0, 1, 1, 1])
        q = enumerate_worlds(["q"])
        fb = from_surjection(q, q, range(len(q.worlds)))
        emb = product_embedding([fa, fb])
        assert len(emb.source.worlds) == 4 and len(emb.target.worlds) == 8
        # image of a rectangle is the rectangle of images
        from credal.spaces import cylinder

        s = event_from_indices(a, [1])
        lhs = emb.apply(cylinder(emb.source, 0, s))
        rhs = cylinder(emb.target, 0, fa.apply(s))
        assert lhs == rhs

    def test_faithful_parts_give_faithful_product(self):
        # oracle: exhaustive subset check on a 4x4 instance
        rng = random.Random(2)
        a = enumerate_worlds(["p"])
        b = enumerate_worlds(["q"])
        a4 = enumerate_worlds(["u", "v"])
        b4 = enumerate_worlds(["w", "x"])
        emb = product_embedding([random_faithful_embedding(a, a4, 5),
                                 random_faithful_embedding(b, b4, 6)])
        assert is_faithful(emb)
        n = len(emb.source.worlds)
        events = [Event(emb.source, m) for m in range(1 << n)]
        for s, t in itertools.product(events, events):
            assert (s.mask & ~t.mask == 0) == (
                emb.apply(s).mask & ~emb.apply(t).mask == 0)

    def test_permutation_swap(self):
        a = enumerate_worlds(["p"])
        xx = product_space([a, a])
        emb = permutation_embedding(xx, [1, 0])
        assert is_faithful(emb)
        # worlds (i,j) map to (j,i)
        assert emb.world_map == (0, 2, 1, 3)

    def test_identity_permutation(self):
        a = enumerate_worlds(["p"])
        xx = product_space([a, a])
        assert permutation_embedding(xx, [0, 1]).world_map == tuple(range(4))

    def test_shape_mismatch(self, flying_bird_space):
        a = enumerate_worlds(["p"])
        prod = product_space([a, flying_bird_space])
        with pytest.raises(CredalError, match="incompatible"):
            permutation_embedding(prod, [1, 0])


class TestRandomFaithful:
    def test_seed_determinism(self):
        x = enumerate_worlds(["p"])
        y = enumerate_worlds(["u", "v"])
        assert (random_faithful_embedding(x, y, 42).world_map
                == random_faithful_embedding(x, y, 42).world_map)

    def test_equal_size_is_bijection(self):
        x = enumerate_worlds(["p", "q"])
        y = enumerate_worlds(["u", "v"])
        emb = random_faithful_embedding(x, y, 9)
        assert sorted(emb.world_map) == [0, 1, 2, 3]

    def test_fibers_nonempty(self):
        x = enumerate_worlds(["p"])
        y = enumerate_worlds(["u", "v"])
        emb = random_faithful_embedding(x, y, 3)
        assert all(not emb.fiber_event(i).is_empty() for i in range(2))

    def test_size_check(self):
        x = enumerate_worlds(["p", "q"])
        y = enumerate_worlds(["u"])
        with pytest.raises(ValueError):
            random_faithful_embedding(x, y, 0)
