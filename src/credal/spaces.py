"""Finite measurable spaces: vocabularies, worlds, events, products.

Worlds are truth assignments over an ordered vocabulary; the algebra is
always the full power set.  World order is lexicographic over the
vocabulary bit order (first symbol = most significant bit), so the full
space over n symbols lists assignment k at index k.  Every bitset,
weight vector and report in the package follows this order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import CredalError
from .formulas import Parser, is_symbol


def hash_once(obj, key: object) -> int:
    """The hash of a frozen dataclass, hash(key) of its compared fields,
    computed on the first call and kept in its `_hash` field: memo keys
    hash the same space or kb again and again, and hashing a space walks
    its worlds."""
    if obj._hash is None:
        object.__setattr__(obj, "_hash", hash(key))
    return obj._hash


@dataclass(frozen=True)
class Vocabulary:
    symbols: tuple[str, ...]
    _index: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if isinstance(self.symbols, list):
            object.__setattr__(self, "symbols", tuple(self.symbols))
        if not self.symbols:
            raise ValueError("vocabulary must be non-empty")
        if any(not s for s in self.symbols):
            raise ValueError("proposition names must be non-empty")
        for s in self.symbols:
            if not is_symbol(s):
                raise ValueError(f"proposition name {s!r} is not an identifier "
                                 "other than true and false")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("proposition names must be unique")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown proposition {name!r}") from None

    def __len__(self):
        return len(self.symbols)


@dataclass(frozen=True)
class World:
    """One truth assignment, packed as bits (first symbol = MSB)."""

    bits: int
    width: int

    def value(self, i: int) -> bool:
        return bool((self.bits >> (self.width - 1 - i)) & 1)

    def label(self, vocab: Vocabulary) -> str:
        return "".join(s if self.value(i) else "!" + s for i, s in enumerate(vocab.symbols)) or "*"


@dataclass(frozen=True)
class Space:
    vocabulary: Vocabulary
    worlds: tuple[World, ...]
    factors: tuple["Space", ...] | None = None
    _windex: dict = field(default=None, compare=False, repr=False)
    _hash: int | None = field(default=None, init=False, compare=False, repr=False)

    def __hash__(self):
        return hash_once(self, (self.vocabulary, self.worlds, self.factors))

    def __post_init__(self):
        if isinstance(self.worlds, list):
            object.__setattr__(self, "worlds", tuple(self.worlds))
        n = len(self.vocabulary)
        if not 1 <= len(self.worlds) <= 2**n:
            raise ValueError("world count must be between 1 and 2^|vocabulary|")
        bits = [w.bits for w in self.worlds]
        if len(set(bits)) != len(bits):
            raise ValueError("worlds must be distinct")
        if any(w.width != n for w in self.worlds):
            raise ValueError("world width must equal vocabulary size")
        object.__setattr__(self, "_windex", {b: i for i, b in enumerate(bits)})

    def __len__(self):
        return len(self.worlds)

    def index_of_bits(self, bits: int) -> int | None:
        return self._windex.get(bits)

    def __repr__(self):
        return f"Space({'/'.join(self.vocabulary.symbols)}, {len(self.worlds)} worlds)"


@dataclass(frozen=True)
class Event:
    """A subset of a space's worlds, stored as a bitset over world indices."""

    space: Space
    mask: int

    def __post_init__(self):
        if self.mask < 0 or self.mask >= 1 << len(self.space.worlds):
            raise ValueError("bitset out of range for the space")

    # Boolean algebra -------------------------------------------------
    def __and__(self, other: "Event") -> "Event":
        self._check(other)
        return Event(self.space, self.mask & other.mask)

    def __or__(self, other: "Event") -> "Event":
        self._check(other)
        return Event(self.space, self.mask | other.mask)

    def __invert__(self) -> "Event":
        return Event(self.space, self.mask ^ ((1 << len(self.space.worlds)) - 1))

    def _check(self, other: "Event"):
        if self.space != other.space:
            raise ValueError("events live on different spaces")

    # Views -----------------------------------------------------------
    @property
    def count(self) -> int:
        return self.mask.bit_count()

    def is_empty(self) -> bool:
        return self.mask == 0

    def indices(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __contains__(self, index: int) -> bool:
        return bool((self.mask >> index) & 1)

    def __repr__(self):
        names = ",".join(self.space.worlds[i].label(self.space.vocabulary) for i in self.indices())
        return f"Event{{{names}}}"


def whole_event(space: Space) -> Event:
    return Event(space, (1 << len(space.worlds)) - 1)


def event_from_indices(space: Space, indices: Iterable[int]) -> Event:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return Event(space, mask)


def enumerate_worlds(vocab: Vocabulary | Sequence[str], restriction: str | None = None) -> Space:
    """Space of all assignments over ``vocab`` where ``restriction`` holds:
    the worlds in the mask of `event_of` on the full space of 2^n
    assignments, which lists assignment k at index k.  Without a
    restriction this is the full space.
    """
    if not isinstance(vocab, Vocabulary):
        vocab = Vocabulary(tuple(vocab))
    n = len(vocab)
    full = Space(vocab, tuple(World(bits, n) for bits in range(2**n)))
    if restriction is None:
        return full
    event = event_of(full, restriction)
    if event.is_empty():
        raise CredalError("empty space")
    return Space(vocab, tuple(full.worlds[i] for i in event.indices()))


def event_of(space: Space, text: str) -> Event:
    """The event [[text]]: the worlds of ``space`` where the formula holds.

    A syntax error is raised first, as a `ParseError`; then a KeyError
    for the least name outside the vocabulary.
    """
    parser = Parser(text, space)
    mask = parser.iff()
    parser.done()
    parser.known()
    return Event(space, mask)


# Products -------------------------------------------------------------


def _rename_space(space: Space, mapping: dict[str, str]) -> Space:
    symbols = tuple(mapping.get(s, s) for s in space.vocabulary.symbols)
    factors = None
    if space.factors is not None:
        factors = tuple(_rename_space(f, mapping) for f in space.factors)
    return Space(Vocabulary(symbols), space.worlds, factors)


def product_space(spaces: Sequence[Space]) -> Space:
    """Cartesian product; factor vocabularies concatenated in order.

    A symbol an earlier factor uses is renamed to the first of `p_2`,
    `p_3`, ... that no earlier factor uses and its own factor neither
    holds nor gave to another symbol: in X x (X x X), `p` becomes `p_3`.
    """
    if not spaces:
        raise ValueError("product of zero spaces")
    seen: set[str] = set()
    renamed: list[Space] = []
    for sp in spaces:
        mapping = {}
        taken = seen.union(sp.vocabulary.symbols)
        for s in sp.vocabulary.symbols:
            if s in seen:
                k = 2
                while f"{s}_{k}" in taken:
                    k += 1
                mapping[s] = f"{s}_{k}"
                taken.add(mapping[s])
        sp2 = _rename_space(sp, mapping) if mapping else sp
        seen.update(sp2.vocabulary.symbols)
        renamed.append(sp2)

    symbols = tuple(itertools.chain.from_iterable(sp.vocabulary.symbols for sp in renamed))
    vocab = Vocabulary(symbols)
    widths = [len(sp.vocabulary) for sp in renamed]
    total = sum(widths)
    worlds = []
    for combo in itertools.product(*(sp.worlds for sp in renamed)):
        bits = 0
        for w, width in zip(combo, widths):
            bits = (bits << width) | w.bits
        worlds.append(World(bits, total))
    return Space(vocab, tuple(worlds), factors=tuple(renamed))


def _symbol_positions(space: Space, sub: Space) -> tuple[int, ...]:
    return tuple(space.vocabulary.index(s) for s in sub.vocabulary.symbols)


def _project_bits(bits: int, width: int, positions: tuple[int, ...]) -> int:
    out = 0
    for p in positions:
        out = (out << 1) | ((bits >> (width - 1 - p)) & 1)
    return out


@lru_cache(maxsize=None)
def component_map(space: Space, sub: Space) -> tuple[int, ...]:
    """world index in ``space`` -> index of its projection in ``sub``.

    ``sub``'s vocabulary must be a subset of ``space``'s and its worlds
    must cover every projection that actually occurs.
    """
    positions = _symbol_positions(space, sub)
    width = len(space.vocabulary)
    out = []
    for w in space.worlds:
        bits = _project_bits(w.bits, width, positions)
        idx = sub.index_of_bits(bits)
        if idx is None:
            raise ValueError("sub-space does not cover the space's projections")
        out.append(idx)
    return tuple(out)


def cylinder(space: Space, factor: Space | int, factor_event: Event) -> Event:
    """Lift an event of one factor to the product space."""
    if isinstance(factor, int):
        if space.factors is None:
            raise ValueError("space has no declared factors")
        factor = space.factors[factor]
    comp = component_map(space, factor)
    mask = 0
    for i in range(len(space.worlds)):
        if comp[i] in factor_event:
            mask |= 1 << i
    return Event(space, mask)


def _projection(space: Space, positions: tuple[int, ...]) -> Space:
    width = len(space.vocabulary)
    sub_vocab = Vocabulary(tuple(space.vocabulary.symbols[p] for p in positions))
    bits = sorted({_project_bits(w.bits, width, positions) for w in space.worlds})
    return Space(sub_vocab, tuple(World(b, len(positions)) for b in bits))


def _is_product_split(space: Space, left_pos: tuple[int, ...], right_pos: tuple[int, ...]) -> bool:
    """Whether the worlds are all pairs of their two projections: they
    are distinct pairs, so this is a count."""
    width = len(space.vocabulary)
    left = {_project_bits(w.bits, width, left_pos) for w in space.worlds}
    right = {_project_bits(w.bits, width, right_pos) for w in space.worlds}
    return len(left) >= 2 and len(right) >= 2 and len(left) * len(right) == len(space.worlds)


def product_decomposition(space: Space) -> list[Space]:
    """The unique maximal factorization of the space.

    Full assignment spaces split per symbol.  Restricted spaces are
    split by searching vocabulary bipartitions for product structure,
    recursively; factors are returned ordered by the position of their
    first symbol.  A space with no factorization decomposes as itself.
    """
    factors = _decompose(space)
    order = {s: i for i, s in enumerate(space.vocabulary.symbols)}
    factors.sort(key=lambda f: order[f.vocabulary.symbols[0]])
    return factors


def _decompose(space: Space) -> list[Space]:
    if space.factors is not None:
        out: list[Space] = []
        for f in space.factors:
            out.extend(_decompose(f))
        return out
    n = len(space.vocabulary)
    if n == 1 or len(space.worlds) == 1:
        return [space]
    if len(space.worlds) == 2**n:
        return [_projection(space, (p,)) for p in range(n)]
    positions = tuple(range(n))
    # bipartitions with symbol 0 on the left, by increasing left size
    for size in range(1, n):
        for rest in itertools.combinations(positions[1:], size - 1):
            left = (0,) + rest
            right = tuple(p for p in positions if p not in left)
            if _is_product_split(space, left, right):
                return _decompose(_projection(space, left)) + _decompose(_projection(space, right))
    return [space]


def atoms_over(events: Sequence[Event], space: Space | None = None) -> list[Event]:
    """Nonempty signed intersections of the given events.

    The output is pairwise disjoint, covers the space, and collapses
    duplicates; the all-positive cell comes first.  With no events the
    sole atom is the whole space (which must then be passed explicitly).
    """
    if not events:
        if space is None:
            raise ValueError("atoms_over needs a space when no events are given")
        return [whole_event(space)]
    space = events[0].space
    for e in events:
        if e.space != space:
            raise ValueError("events live on different spaces")
    k = len(events)
    seen: set[int] = set()
    out: list[Event] = []
    for signs in range(2**k):
        cell = whole_event(space)
        for i, e in enumerate(events):
            cell = cell & (e if not (signs >> i) & 1 else ~e)
        if not cell.is_empty() and cell.mask not in seen:
            seen.add(cell.mask)
            out.append(cell)
    return out
