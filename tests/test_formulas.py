"""Formulas read straight to their events, against the plain-Python
formula reference of conftest."""

import random

import pytest

from credal.constraints import parse_constraint
from credal.embeddings import from_interpretation
from credal.errors import CredalError, ParseError
from credal.spaces import enumerate_worlds, event_of
from tests.conftest import assignment, holds, random_formula, render

ABCD = enumerate_worlds(["a", "b", "c", "d"])


def denotation(space, tree) -> int:
    """The reference mask of a tree on a space: bit i where world i satisfies it."""
    names = space.vocabulary.symbols
    return sum(1 << i for i, w in enumerate(space.worlds)
               if holds(tree, assignment(names, w.bits)))


@pytest.mark.parametrize("text, tree", [
    ("!a & b | c", ("|", ("&", ("!", "a"), "b"), "c")),
    ("a | b & c", ("|", "a", ("&", "b", "c"))),
    ("a & b => c | d", ("=>", ("&", "a", "b"), ("|", "c", "d"))),
    ("a => b <=> c => d", ("<=>", ("=>", "a", "b"), ("=>", "c", "d"))),
    ("!a <=> b", ("<=>", ("!", "a"), "b")),
    ("!!a", ("!", ("!", "a"))),
    ("!(a | b)", ("!", ("|", "a", "b"))),
    ("true <=> (a <=> a)", ("<=>", True, ("<=>", "a", "a"))),
    ("false | a & true", ("|", False, ("&", "a", True))),
])
def test_precedence_not_and_or_implies_iff(text, tree):
    assert event_of(ABCD, text).mask == denotation(ABCD, tree)


def test_implication_associates_to_the_right():
    right = ("=>", "a", ("=>", "b", "c"))
    left = ("=>", ("=>", "a", "b"), "c")
    assert denotation(ABCD, right) != denotation(ABCD, left)
    assert event_of(ABCD, "a => b => c").mask == denotation(ABCD, right)


def test_hyphenated_identifiers(flying_bird_space):
    sp = enumerate_worlds(["flying-bird", "bird"])
    assert event_of(sp, "flying-bird => bird").mask == denotation(
        sp, ("=>", "flying-bird", "bird"))
    assert [w.bits for w in flying_bird_space.worlds] == [0, 1, 3]


@pytest.mark.parametrize("text, position", [
    ("a &", 3), ("(a", 2), ("a ! b", 2), ("=> a", 0), ("a <=>", 5), ("a $ b", 2),
    ("a & )", 4), ("!", 1),
])
def test_parse_errors_carry_position(text, position):
    with pytest.raises(ParseError) as exc:
        event_of(ABCD, text)
    assert exc.value.position == position


def test_syntax_errors_come_before_unknown_names():
    # the whole formula is read before any name is looked up; then the
    # least unknown name is raised, inside P(...) at the position of the P
    with pytest.raises(ParseError, match="expected a formula"):
        event_of(ABCD, "zz | (")
    with pytest.raises(KeyError) as info:
        event_of(ABCD, "zz | yy & a")
    assert info.value.args == ("unknown proposition 'yy'",)
    with pytest.raises(ParseError, match="expected a formula"):
        parse_constraint("P(zz & ) > 0", ABCD)
    with pytest.raises(ParseError) as exc:
        parse_constraint("P(a) > 0 & P(a | zz & yy) > 0", ABCD)
    assert str(exc.value) == "unknown proposition 'yy' (at position 11)"
    with pytest.raises(ParseError):
        enumerate_worlds(["a"], "zz &")
    with pytest.raises(KeyError, match="unknown proposition 'zz'"):
        enumerate_worlds(["a"], "zz & a")


NAMES = ("p", "q", "flying-bird", "r_2")


def _disagreements(seed, cases):
    """Where `enumerate_worlds`, `event_of` and `from_interpretation`
    disagree with the reference on seeded random formulas over one to
    four symbols, on full and restricted spaces: (function, text, got,
    expected) per disagreement."""
    rng = random.Random(seed)
    out = []
    for _ in range(cases):
        names = NAMES[:rng.randint(1, len(NAMES))]
        restriction = random_formula(rng, names, rng.randint(1, 6))
        text = render(restriction)
        expected = [b for b in range(2 ** len(names)) if holds(restriction, assignment(names, b))]
        try:
            space = enumerate_worlds(names, text)
        except CredalError as exc:
            if str(exc) != "empty space":
                raise
            got = []
        else:
            got = [w.bits for w in space.worlds]
        if got != expected:
            out.append(("enumerate_worlds", text, got, expected))
        spaces = [enumerate_worlds(names)] + ([space] if got == expected != [] else [])
        for target in spaces:
            tree = random_formula(rng, names, rng.randint(1, 8))
            got = event_of(target, render(tree)).mask
            if got != denotation(target, tree):
                out.append(("event_of", render(tree), got, denotation(target, tree)))
            out += _interpretation_disagreements(rng, target)
    return out


def _interpretation_disagreements(rng, target):
    """One seeded interpretation of a full or restricted source on
    {s, t} or {s} into target, against the world map of the reference:
    target world j goes to the source world whose bits are the truth of
    each symbol's formula at j, and a j with no such world fails to cover."""
    symbols = ("s", "t")[:rng.randint(1, 2)]
    source = enumerate_worlds(symbols)
    if len(symbols) == 2 and rng.random() < 0.5:
        source = enumerate_worlds(symbols, "s | t")
    names = target.vocabulary.symbols
    trees = {s: random_formula(rng, names, rng.randint(1, 5)) for s in symbols}
    index = {w.bits: i for i, w in enumerate(source.worlds)}
    expected = []
    for w in target.worlds:
        values = [holds(trees[s], assignment(names, w.bits)) for s in symbols]
        expected.append(index.get(sum(v << (len(symbols) - 1 - k) for k, v in enumerate(values))))
    interp = {s: render(tree) for s, tree in trees.items()}
    try:
        got = list(from_interpretation(interp, source, target).world_map)
    except CredalError as exc:
        if "do not cover" not in str(exc):
            raise
        got = None
    if got != (None if None in expected else expected):
        return [("from_interpretation", interp, got, expected)]
    return []


def test_formulas_read_to_the_reference():
    assert _disagreements(34, 300) == []
