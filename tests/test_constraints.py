import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from credal.constraints import (
    And,
    LinearAtom,
    Not,
    Or,
    ProductAtom,
    TrueExpr,
    parse_constraint,
    satisfies,
    to_dnf,
    translate,
)
from credal.embeddings import compose, from_surjection, identity_embedding
from credal.errors import CredalError, ParseError
from credal.harness import _plain_space, _random_kb
from credal.measures import Measure
from credal.spaces import enumerate_worlds, event_from_indices, event_of
from tests.conftest import simplex_grid
from tests.test_formulas import _formulas

F = Fraction


class TestParse:
    def test_conditional_is_multiplied_out(self, fly_bird_space):
        c = parse_constraint("P(fly | bird) = 1/2", fly_bird_space)
        assert isinstance(c, LinearAtom)
        assert c.bound == 0 and c.cmp == "="
        terms = dict((e.mask, coef) for coef, e in c.terms)
        fly_bird = event_of(fly_bird_space, "fly & bird")
        bird = event_of(fly_bird_space, "bird")
        assert terms[fly_bird.mask] == 1
        assert terms[bird.mask] == F(-1, 2)

    def test_top_level_bar_is_the_conditioning_bar(self, rgb_space):
        # P(red | blue | green) reads as P(red given blue-or-green);
        # disjunction inside P() needs parentheses.
        c = parse_constraint("P(red | blue | green) > 3/4", rgb_space)
        assert isinstance(c, LinearAtom) and len(c.terms) == 2

    def test_disjunction_inside_p_requires_parens(self, rgb_space):
        c = parse_constraint("P((red | blue | green)) > 3/4", rgb_space)
        assert isinstance(c, LinearAtom)
        assert c.terms[0][1].count == 7

    def test_true_false(self, fly_bird_space):
        assert isinstance(parse_constraint("true", fly_bird_space), TrueExpr)

    def test_decimals_are_exact(self, fly_bird_space):
        c = parse_constraint("P(fly) >= 0.25", fly_bird_space)
        assert c.bound == F(1, 4)

    def test_chained_comparison(self, fly_bird_space):
        c = parse_constraint("0 < P(fly) < 1", fly_bird_space)
        assert isinstance(c, And) and len(c.items) == 2
        assert {a.cmp for a in c.items} == {"<", ">"}

    def test_weighted_sum(self, fly_bird_space):
        c = parse_constraint("1/2*P(fly) - P(bird) >= -1/4", fly_bird_space)
        assert isinstance(c, LinearAtom)
        assert c.bound == F(-1, 4)
        assert sorted(coef for coef, _ in c.terms) == [F(-1), F(1, 2)]

    def test_product_atom_form(self, fly_bird_space):
        c = parse_constraint("P(fly & bird) = P(fly) * P(bird)", fly_bird_space)
        assert isinstance(c, ProductAtom)

    def test_errors_carry_position(self, fly_bird_space):
        for text in ["P(fly", "P(fly) >=", "P(wings) > 0", "P(fly) ~ 1"]:
            with pytest.raises(ParseError):
                parse_constraint(text, fly_bird_space)

    def test_error_inside_p_reports_one_absolute_position(self, fly_bird_space):
        with pytest.raises(ParseError) as exc:
            parse_constraint("P(fly &) >= 1/2", fly_bird_space)
        assert exc.value.position == 7
        assert str(exc.value).count("at position") == 1


ABC = enumerate_worlds(["a", "b", "c"])


def _lin(terms, cmp, bound):
    return LinearAtom(tuple((F(c), event_of(ABC, f)) for c, f in terms), cmp, F(bound))


def _cond(main, given, cmp, bound):
    """P(main | given) cmp bound, multiplied out by hand."""
    fg = event_of(ABC, main) & event_of(ABC, given)
    return LinearAtom(((F(1), fg), (-F(bound), event_of(ABC, given))), cmp, F(0))


class TestGrammar:
    """Corner cases of the shared formula/constraint grammar, against
    hand-built trees."""

    @pytest.mark.parametrize("text, expected", [
        # the first top-level bar inside P( is the conditioning bar; the
        # bar reaches through => and <=>, but not into parentheses
        ("P(a => b | c) >= 1/2", _cond("a => b", "c", ">=", F(1, 2))),
        ("P(a | b | c) > 1/3", _cond("a", "b | c", ">", F(1, 3))),
        ("P(a | b => c) <= 3/4", _cond("a", "b => c", "<=", F(3, 4))),
        ("P((a | b)) = 1/2", _lin([(1, "a | b")], "=", F(1, 2))),
        ("P(a <=> b | c) < 1", _cond("a <=> b", "c", "<", 1)),
        ("P((a | b) | c) >= 0", _cond("a | b", "c", ">=", 0)),
    ])
    def test_conditioning_bar(self, text, expected):
        assert parse_constraint(text, ABC) == expected

    def test_leading_comparison_on_both_sides(self):
        assert parse_constraint("1/2 < P(a) <= 3/4", ABC) == And((
            _lin([(1, "a")], ">", F(1, 2)), _lin([(1, "a")], "<=", F(3, 4))))

    def test_negative_leading_bound_over_a_difference(self):
        assert parse_constraint("-1/4 <= P(a) - P(b)", ABC) == _lin(
            [(1, "a"), (-1, "b")], ">=", F(-1, 4))

    def test_weighted_sum_with_decimal_and_spaced_rational(self):
        assert parse_constraint("1/2*P(a) + 3*P(b & c) - 0.25*P(!a) <= 3 / 4", ABC) == _lin(
            [(F(1, 2), "a"), (3, "b & c"), (F(-1, 4), "!a")], "<=", F(3, 4))

    def test_decimal_bounds_are_exact(self):
        assert parse_constraint("P(a) >= 0.25", ABC) == _lin([(1, "a")], ">=", F(1, 4))
        assert parse_constraint("P(a) < 3 / 4", ABC) == _lin([(1, "a")], "<", F(3, 4))

    def test_product_atom(self):
        assert parse_constraint("P(a & b) = P(a) * P(b)", ABC) == ProductAtom(
            event_of(ABC, "a & b"), (event_of(ABC, "a"), event_of(ABC, "b")))

    @pytest.mark.parametrize("text", [
        "P(1a) > 0", "P(a) >= 1/0", "P(a) > 1/", "P(a < b) > 0", "P(a) => 1/2",
        "P(a | ) > 0", "P(| a) > 0", "P() > 0", "P a > 0", "2*P(a | b) > 0",
        "P(a | b) + P(c) > 0", "P(a) = P(b | c) * P(c)",
    ])
    def test_malformed_text_raises_parse_error(self, text):
        with pytest.raises(ParseError):
            parse_constraint(text, ABC)

    @given(_formulas(6), _formulas(6))
    def test_conditional_of_any_formulas(self, f, g):
        sp = enumerate_worlds(["p", "q", "r", "s"])
        fv, gv = event_of(sp, f), event_of(sp, g)
        assert parse_constraint(f"P(({f}) | ({g})) >= 1/3", sp) == LinearAtom(
            ((F(1), fv & gv), (F(-1, 3), gv)), ">=", F(0))


class TestSatisfies:
    def test_uniform_satisfies_flyingbird_kb(self, fly_bird_space):
        c = parse_constraint("P(fly | bird) = 1/2", fly_bird_space)
        assert satisfies(Measure.uniform(fly_bird_space, backend="rational"), c)

    def test_point_mass_fails_open_interval(self, fly_bird_space):
        c = parse_constraint("0 < P(fly) < 1", fly_bird_space)
        assert not satisfies(Measure.point_mass(fly_bird_space, 3), c)

    def test_everything_satisfies_true(self, fly_bird_space):
        assert satisfies(Measure.point_mass(fly_bird_space, 0), TrueExpr())

    def test_product_atom_numeric(self):
        sp = enumerate_worlds(["p", "q"])
        atom = ProductAtom(event_of(sp, "p & q"), (event_of(sp, "p"), event_of(sp, "q")))
        assert satisfies(Measure.uniform(sp, backend="rational"), atom)
        corr = Measure.rational(sp, [F(1, 2), 0, 0, F(1, 2)])
        assert not satisfies(corr, atom)

    def test_atoms_on_rational_measures_are_decided_in_integers(self):
        # satisfies decides a LinearAtom on a rational measure in
        # integers; it must agree with the atom's value summed in
        # Fractions, on negative coefficients, fractional bounds, all five
        # comparators, and bounds that the value meets exactly
        rng = random.Random(18)
        seen = Counter()
        for n in (1, 3, 6):
            sp = _plain_space("s", n)
            for _ in range(300):
                cuts = sorted(F(rng.randrange(13), 12) for _ in range(n - 1))
                mu = Measure.rational(sp, [y - x for x, y in zip([F(0)] + cuts,
                                                                 cuts + [F(1)])])
                terms = tuple((F(rng.randint(-5, 5), rng.choice((1, 2, 3, 7))),
                               event_from_indices(sp, rng.sample(range(n), rng.randint(0, n))))
                              for _ in range(rng.randint(1, 3)))
                bound = (LinearAtom(terms, "=", F(0)).value(mu) if rng.random() < 0.3
                         else F(rng.randint(-6, 6), rng.choice((1, 2, 5, 12))))
                for cmp in ("<", "<=", "=", ">=", ">"):
                    atom = LinearAtom(terms, cmp, bound)
                    value = atom.value(mu)
                    expected = {"<": value < bound, "<=": value <= bound, "=": value == bound,
                                ">=": value >= bound, ">": value > bound}[cmp]
                    assert satisfies(mu, atom) == expected, (atom, mu)
                    seen[cmp, expected] += 1
        assert len(seen) == 10 and min(seen.values()) >= 100, seen


class TestToDnf:
    def test_atom_is_single_system(self, fly_bird_space):
        c = parse_constraint("P(fly) >= 1/4", fly_bird_space)
        dnf = to_dnf(c)
        assert len(dnf) == 1
        assert dnf[0] == (c,)

    def test_negation_flips_comparator(self, fly_bird_space):
        c = Not(parse_constraint("P(fly) >= 1/4", fly_bird_space))
        cell = to_dnf(c)[0]
        assert cell[0].cmp == "<"

    def test_negated_equality_splits(self, fly_bird_space):
        c = Not(parse_constraint("P(fly) = 1/4", fly_bird_space))
        assert len(to_dnf(c)) == 2

    def test_distribution_count(self, fly_bird_space):
        a, b, c, d = (parse_constraint(f"P(fly) >= {q}", fly_bird_space)
                      for q in ("1/8", "1/4", "1/2", "3/4"))
        expr = And((Or((a, b)), Or((c, d))))
        assert len(to_dnf(expr)) == 4

    def test_cap_exceeded(self, fly_bird_space):
        a = parse_constraint("P(fly) >= 1/4", fly_bird_space)
        b = parse_constraint("P(fly) <= 3/4", fly_bird_space)
        expr = And(tuple(Or((a, b)) for _ in range(13)))
        with pytest.raises(CredalError, match="cap"):
            to_dnf(expr)

    def test_product_atom_rejected(self, fly_bird_space):
        atom = ProductAtom(event_of(fly_bird_space, "fly"),
                           (event_of(fly_bird_space, "fly"), event_of(fly_bird_space, "bird")))
        with pytest.raises(CredalError):
            to_dnf(And((atom,)))


def _dnf_as_expr(dnf):
    return Or(tuple(And(atoms) for atoms in dnf))


class TestSemanticEquivalences:
    def _exprs(self, space):
        a = parse_constraint("P(w0) >= 1/2", space)
        b = parse_constraint("P(w0) < 1/4", space)
        c = parse_constraint("0 < P(w0) < 1", space)
        return [a, b, c, And((a, Not(b))), Or((a, b)), Not(Or((a, b))),
                Not(Not(a)), And((Or((a, b)), c))]

    def test_dnf_preserves_satisfaction_on_grid(self):
        from credal.spaces import Space, Vocabulary, World

        space = Space(Vocabulary(("w0", "w1")), (World(0, 2), World(1, 2), World(2, 2)))
        grid = list(simplex_grid(space, 10))
        for expr in self._exprs(space):
            dnf_expr = _dnf_as_expr(to_dnf(expr))
            for mu in grid:
                assert satisfies(mu, expr) == satisfies(mu, dnf_expr)

    def test_random_kbs_keep_their_denotation_and_cell_layout(self):
        # And((kb, kb)) puts every atom of kb twice into its diagonal cells
        rng = random.Random(17)
        for _ in range(100):
            space = _plain_space("w", rng.randint(2, 4))
            kb = _random_kb(space, rng)
            for expr in (kb, And((kb, kb))):
                dnf = to_dnf(expr)
                for cell in dnf:
                    assert len(set(cell)) == len(cell)
                    groups = [0 if a.cmp == "=" else 1 if a.cmp in ("<=", ">=") else 2
                              for a in cell]
                    assert groups == sorted(groups)
                dnf_expr = _dnf_as_expr(dnf)
                for mu in simplex_grid(space, 6):
                    assert satisfies(mu, expr) == satisfies(mu, dnf_expr)

    def test_double_negation_on_grid(self):
        space = enumerate_worlds(["p"])
        grid = list(simplex_grid(space, 20))
        for expr in self._exprs_two(space):
            for mu in grid:
                assert satisfies(mu, Not(Not(expr))) == satisfies(mu, expr)

    def _exprs_two(self, space):
        a = parse_constraint("P(p) >= 1/2", space)
        b = parse_constraint("P(p) < 1/4", space)
        return [a, b, And((a, Not(b))), Or((a, b))]


class TestTranslate:
    def _emb(self):
        x = enumerate_worlds(["colorful"])
        y = enumerate_worlds(["red", "blue", "green"])
        return from_surjection(x, y, [0 if w.bits == 0 else 1 for w in y.worlds])

    def test_colorful_event_replacement(self):
        emb = self._emb()
        c = parse_constraint("P(colorful) > 3/4", emb.source)
        out = translate(emb, c)
        assert out.terms[0][1].count == 7
        assert out.cmp == ">" and out.bound == F(3, 4)

    def test_identity_is_noop(self, fly_bird_space):
        emb = identity_embedding(fly_bird_space)
        c = parse_constraint("P(fly) >= 1/4 & !(P(bird) < 1/2)", fly_bird_space)
        assert translate(emb, c) == c

    def test_translate_composes(self):
        x = enumerate_worlds(["colorful"])
        y = enumerate_worlds(["u", "v"])
        z = enumerate_worlds(["red", "blue", "green"])
        f = from_surjection(x, y, [0, 0, 1, 1])
        g = from_surjection(y, z, [0, 0, 1, 1, 2, 2, 3, 3])
        c = Or((parse_constraint("P(colorful) >= 1/3", x),
                Not(parse_constraint("P(colorful) < 2/3", x))))
        assert translate(g, translate(f, c)) == translate(compose(g, f), c)

    def test_structure_preserved(self):
        emb = self._emb()
        c = And((parse_constraint("P(colorful) >= 1/3", emb.source),
                 Not(parse_constraint("P(colorful) < 2/3", emb.source))))
        out = translate(emb, c)
        assert isinstance(out, And) and isinstance(out.items[1], Not)


@given(st.text(alphabet="Pab()&|!<>=/*+-0123456789. ", max_size=40))
def test_parser_never_crashes_unexpectedly(text):
    space = enumerate_worlds(["a", "b"])
    try:
        expr = parse_constraint(text, space)
    except ParseError:
        return
    # parse success implies evaluability
    satisfies(Measure.uniform(space, backend="rational"), expr)
