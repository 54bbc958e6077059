import itertools
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from credal.errors import CredalError
from credal.spaces import (
    Space,
    Vocabulary,
    World,
    atoms_over,
    enumerate_worlds,
    event_from_indices,
    event_of,
    product_decomposition,
    product_space,
    whole_event,
)
from tests.conftest import formula_texts


class TestEnumerateWorlds:
    def test_full_space_two_symbols(self):
        sp = enumerate_worlds(["fly", "bird"])
        assert len(sp.worlds) == 4

    def test_restricted_flying_bird(self, flying_bird_space):
        assert len(flying_bird_space.worlds) == 3

    def test_single_proposition(self):
        assert len(enumerate_worlds(["colorful"]).worlds) == 2

    def test_empty_space_errors(self):
        with pytest.raises(CredalError, match="empty space"):
            enumerate_worlds(["p"], "p & !p")

    def test_unknown_symbol_errors(self):
        with pytest.raises(KeyError):
            enumerate_worlds(["p"], "q")

    def test_lexicographic_order(self):
        sp = enumerate_worlds(["a", "b"])
        assert [w.bits for w in sp.worlds] == [0, 1, 2, 3]

    @pytest.mark.parametrize("name", ["true", "false", "a b", "1a", "x+y", " a", "a$", "P(a)", 7])
    def test_a_symbol_is_an_identifier_other_than_the_literals(self, name):
        # a formula could never name it, or would read it as the literal
        with pytest.raises(ValueError, match=f"proposition name {re.escape(repr(name))} is not an "
                                             "identifier other than true and false"):
            enumerate_worlds([name, "b"])
        with pytest.raises(ValueError):
            Vocabulary(("b", name))
        assert Vocabulary(("flying-bird", "_x", "p_2", "P", "True")).symbols[-1] == "True"


class TestEventOf:
    def test_colorful_disjunction(self, rgb_space):
        assert event_of(rgb_space, "red | blue | green").count == 7

    def test_true_is_everything(self, fly_bird_space):
        assert event_of(fly_bird_space, "true") == whole_event(fly_bird_space)

    def test_conjunction_single_world(self, fly_bird_space):
        assert event_of(fly_bird_space, "fly & bird").count == 1

    def test_unknown_symbol(self, fly_bird_space):
        with pytest.raises(KeyError):
            event_of(fly_bird_space, "wings")


_WXYZ = ["w", "x", "y", "z"]


@given(formula_texts(_WXYZ, 6), formula_texts(_WXYZ, 6))
def test_event_algebra_mirrors_connectives(f, g):
    sp = enumerate_worlds(_WXYZ)
    assert event_of(sp, f"{f} & {g}") == (event_of(sp, f) & event_of(sp, g))
    assert event_of(sp, f"{f} | {g}") == (event_of(sp, f) | event_of(sp, g))
    assert event_of(sp, f"!{f}") == ~event_of(sp, f)


class TestProductSpace:
    def test_two_by_two(self):
        prod = product_space([enumerate_worlds(["p"]), enumerate_worlds(["q"])])
        assert len(prod.worlds) == 4
        assert len(prod.factors) == 2

    def test_two_by_three(self, flying_bird_space):
        prod = product_space([enumerate_worlds(["p"]), flying_bird_space])
        assert len(prod.worlds) == 6

    def test_triple(self):
        spaces = [enumerate_worlds([s]) for s in "pqr"]
        assert len(product_space(spaces).worlds) == 8

    def test_collision_renaming_recorded(self):
        x = enumerate_worlds(["p"])
        prod = product_space([x, x])
        assert prod.vocabulary.symbols == ("p", "p_2")

    def test_a_nested_product_renames_past_its_factor_s_own_names(self):
        # the second factor holds p and p_2, so its p becomes p_3: p_2
        # would collide with the factor's own p_2
        x = enumerate_worlds(["p"])
        prod = product_space([x, product_space([x, x])])
        assert prod.vocabulary.symbols == ("p", "p_3", "p_2")
        assert [f.vocabulary.symbols for f in prod.factors[1].factors] == [("p_3",), ("p_2",)]
        assert prod.worlds == product_space([x, x, x]).worlds


_names = st.sampled_from(["p", "q", "p_2", "p_3", "q_2"])
_leaves = st.tuples(st.lists(_names, min_size=1, max_size=2, unique=True), st.booleans())
_nests = st.recursive(_leaves, lambda kids: st.lists(kids, min_size=1, max_size=3),
                      max_leaves=5)


def _nest_space(tree):
    """The nest's space: a leaf is a space over its 1-2 names, all worlds
    or (when flagged) all but the first; a list is the product of its
    members' spaces."""
    if isinstance(tree, list):
        return product_space([_nest_space(t) for t in tree])
    names, restricted = tree
    full = enumerate_worlds(names)
    return Space(full.vocabulary, full.worlds[1:]) if restricted and len(names) == 2 else full


def _nest_leaves(tree):
    return [leaf for t in tree for leaf in _nest_leaves(t)] if isinstance(tree, list) else [tree]


@given(st.lists(_nests, min_size=1, max_size=3))
def test_nested_products_keep_unique_names_and_the_flat_worlds(trees):
    # however the factors nest and their names clash, the product's
    # names are unique and its worlds are the flat product's, in order
    nested = product_space([_nest_space(t) for t in trees])
    flat = product_space([_nest_space(leaf) for t in trees for leaf in _nest_leaves(t)])
    symbols = nested.vocabulary.symbols
    assert len(set(symbols)) == len(symbols) == len(flat.vocabulary.symbols)
    assert [w.bits for w in nested.worlds] == [w.bits for w in flat.worlds]


def _brute_force_splits(space):
    """Independent oracle: try every vocabulary bipartition directly."""
    n = len(space.vocabulary)
    found = []
    width = n
    for size in range(1, n):
        for left in itertools.combinations(range(n), size):
            right = tuple(i for i in range(n) if i not in left)
            proj = lambda w, pos: tuple((w.bits >> (width - 1 - p)) & 1 for p in pos)
            ls = {proj(w, left) for w in space.worlds}
            rs = {proj(w, right) for w in space.worlds}
            pairs = {(proj(w, left), proj(w, right)) for w in space.worlds}
            if (len(ls) >= 2 and len(rs) >= 2
                    and len(ls) * len(rs) == len(space.worlds)
                    and len(pairs) == len(space.worlds)):
                found.append((left, right))
    return found


class TestProductDecomposition:
    def test_full_space_splits_per_symbol(self):
        parts = product_decomposition(enumerate_worlds(["p", "q"]))
        assert [f.vocabulary.symbols for f in parts] == [("p",), ("q",)]

    def test_flying_bird_is_atomic(self, flying_bird_space):
        assert _brute_force_splits(flying_bird_space) == []  # oracle agrees
        assert product_decomposition(flying_bird_space) == [flying_bird_space]

    def test_declared_product_concatenates(self, flying_bird_space):
        a = enumerate_worlds(["p", "q"])
        prod = product_space([a, flying_bird_space])
        parts = product_decomposition(prod)
        assert [len(f.worlds) for f in parts] == [2, 2, 3]

    def test_restricted_product_structure_found(self):
        # q <=> !r correlates q and r but leaves p free
        sp = enumerate_worlds(["p", "q", "r"], "q <=> !r")
        assert _brute_force_splits(sp)  # oracle sees a split
        parts = product_decomposition(sp)
        assert sorted(len(f.worlds) for f in parts) == [2, 2]

    def test_length_at_least_two_for_products(self):
        for a, b in [(2, 2), (2, 3), (4, 3)]:
            xa = _space_of_size("l", a)
            xb = _space_of_size("r", b)
            assert len(product_decomposition(product_space([xa, xb]))) >= 2


def _space_of_size(prefix, n):
    width = max(1, (n - 1).bit_length())
    vocab = Vocabulary(tuple(f"{prefix}{i}" for i in range(width)))
    return Space(vocab, tuple(World(b, width) for b in range(n)))


class TestAtomsOver:
    def test_single_proper_event(self, fly_bird_space):
        s = event_of(fly_bird_space, "fly")
        atoms = atoms_over([s])
        assert atoms == [s, ~s]

    def test_no_events_gives_whole_space(self, fly_bird_space):
        assert atoms_over([], fly_bird_space) == [whole_event(fly_bird_space)]

    def test_duplicates_collapse(self, fly_bird_space):
        s = event_of(fly_bird_space, "fly")
        # oracle: enumerate signed intersections directly
        expected = []
        for signs in itertools.product([False, True], repeat=2):
            cell = whole_event(fly_bird_space)
            for flag in signs:
                cell = cell & (~s if flag else s)
            if not cell.is_empty() and cell not in expected:
                expected.append(cell)
        assert atoms_over([s, s]) == expected == [s, ~s]

    def test_partition_property(self, rgb_space):
        events = [event_of(rgb_space, f) for f in ("red", "blue | green", "red & blue")]
        atoms = atoms_over(events)
        union = 0
        for a in atoms:
            for b in atoms:
                if a is not b:
                    assert (a & b).is_empty()
            union |= a.mask
        assert union == whole_event(rgb_space).mask


def test_a_space_hashes_its_worlds_once(monkeypatch):
    # memo keys hash spaces again and again; only the first hash walks
    # the worlds
    x, y = enumerate_worlds(["s"]), enumerate_worlds(["yy"])
    y0 = Space(Vocabulary(("t0", "t1", "t2")), tuple(World(b, 3) for b in range(6)))
    z = product_space([x, x, x, y0, y, y, y])
    assert len(z.worlds) == 384
    first = hash(z)
    calls = []
    world_hash = World.__hash__
    monkeypatch.setattr(World, "__hash__", lambda w: calls.append(w) or world_hash(w))
    assert hash(z) == first
    assert calls == []
    # an equal space built afresh walks them once, to the same hash
    copy = Space(z.vocabulary, z.worlds, z.factors)
    assert hash(copy) == first and hash(copy) == first
    assert len(calls) == 384
