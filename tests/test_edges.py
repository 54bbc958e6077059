"""Degenerate and larger-scale cases: singleton spaces, three-factor
products, and a sixteen-world optimization."""

from fractions import Fraction

import pytest

from credal.constraints import ProductAtom, TrueExpr, parse_constraint
from credal.embeddings import (
    from_surjection,
    is_faithful,
    permutation_embedding,
    product_embedding,
    random_faithful_embedding,
)
from credal.entail import satisfiable
from credal.measures import Measure, is_product_measure, product_measure, pushforward
from credal.optimize import maxent
from credal.procedures import InferenceProcedure, infers, product_prior_infer
from credal.spaces import enumerate_worlds, event_of, product_decomposition, product_space

F = Fraction


class TestSingletonSpace:
    def test_everything_degenerates_gracefully(self):
        s1 = enumerate_worlds(["p"], "p")
        assert len(s1.worlds) == 1
        res = maxent(TrueExpr(), s1)
        assert res.attained and res.value == 0.0
        assert res.measures[0].weights == (1.0,)
        assert satisfiable(parse_constraint("P(p) = 1", s1)).feasible
        assert product_decomposition(s1) == [s1]

    def test_i0_singleton_objective(self):
        s1 = enumerate_worlds(["p"], "p")
        v = infers(InferenceProcedure.i0(), TrueExpr(),
                   parse_constraint("P(p) = 1", s1), s1)
        assert v.holds


class TestThreeFactors:
    def _spaces(self):
        return (enumerate_worlds(["p"]), enumerate_worlds(["q"]), enumerate_worlds(["r"]))

    def test_product_embedding_three_parts(self):
        a, b, c = self._spaces()
        ta = enumerate_worlds(["u1", "u2"])
        emb = product_embedding([random_faithful_embedding(a, ta, 3),
                                 from_surjection(b, b, range(len(b.worlds))),
                                 from_surjection(c, c, range(len(c.worlds)))])
        assert is_faithful(emb)
        assert (len(emb.source.worlds), len(emb.target.worlds)) == (8, 16)

    def test_three_cycle_permutation_preserves_products(self):
        a, b, c = self._spaces()
        abc = product_space([a, b, c])
        perm = permutation_embedding(abc, [2, 0, 1])
        assert is_faithful(perm)
        mu = product_measure([Measure.rational(a, [F(1, 2), F(1, 2)]),
                              Measure.rational(b, [F(1, 3), F(2, 3)]),
                              Measure.rational(c, [F(1, 4), F(3, 4)])])
        assert is_product_measure(pushforward(perm, mu))

    def test_structural_atom_among_three(self):
        a, b, c = self._spaces()
        abc = product_space([a, b, c])
        atom = ProductAtom(event_of(abc, "p & q"),
                           (event_of(abc, "p"), event_of(abc, "q")))
        v = product_prior_infer(
            [parse_constraint("P(p) = 1/2", a),
             parse_constraint("P(q) >= 1/4", b), TrueExpr()], atom, abc)
        assert v.holds and v.mode == "exact"


def test_sixteen_world_maxent_with_mixed_constraints():
    big = enumerate_worlds(["w", "x", "y", "z"])
    kb = parse_constraint(
        "P(w) = 2/3 & P(x|w) = 1/4 & P(y) >= 1/2 & P(z) <= 1/3", big)
    res = maxent(kb, big)
    assert res.attained
    mu = res.measures[0]
    p_w = mu.prob(event_of(big, "w"))
    assert p_w == pytest.approx(2 / 3, abs=1e-8)
    assert mu.prob(event_of(big, "x & w")) / p_w == pytest.approx(0.25, abs=1e-8)
    # both inequality bounds are active: unconstrained maxent would put 1/2
    assert mu.prob(event_of(big, "y")) == pytest.approx(0.5, abs=1e-8)
    assert mu.prob(event_of(big, "z")) == pytest.approx(1 / 3, abs=1e-8)
