"""Algebra embeddings between finite spaces, and interpretations.

In the finite all-measurable setting every Boolean-algebra homomorphism
f between event algebras is the preimage map of a unique world-level
function g from the target to the source (the images of the source's
singleton events partition the target).  Embeddings therefore carry a
``world_map`` dual; f is faithful exactly when that map is surjective.
Non-surjective maps represent the non-faithful embeddings arising from
interpretations, which are needed for the negative examples.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import CredalError
from .measures import Measure, pushforward
from .spaces import Event, Space, component_map, event_of, product_space, whole_event


@dataclass(frozen=True)
class Embedding:
    source: Space
    target: Space
    world_map: tuple[int, ...]  # target world index -> source world index
    kind: str = "surjection"
    _fibers: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.world_map) != len(self.target.worlds):
            raise ValueError("world map must cover every target world")
        n = len(self.source.worlds)
        if any(not 0 <= i < n for i in self.world_map):
            raise ValueError("world map points outside the source space")
        fibers = [0] * n
        for j, i in enumerate(self.world_map):
            fibers[i] |= 1 << j
        object.__setattr__(self, "_fibers", tuple(fibers))

    def apply(self, event: Event) -> Event:
        """f(S): the preimage of S under the world map."""
        if event.space != self.source:
            raise ValueError("event does not live on the embedding's source")
        mask = 0
        for i in event.indices():
            mask |= self._fibers[i]
        return Event(self.target, mask)

    def fiber_event(self, source_index: int) -> Event:
        return Event(self.target, self._fibers[source_index])

    def describe(self) -> str:
        return f"{self.kind} {len(self.source)}<-{len(self.target)}"


def factor_lift(space: Space, factor: Space) -> Embedding:
    """The embedding of a factor's events into the product space as cylinders."""
    return from_surjection(factor, space, component_map(space, factor))


def from_surjection(source: Space, target: Space, g: Sequence[int]) -> Embedding:
    """Embedding backed by a total surjective world map g: target -> source."""
    emb = Embedding(source, target, tuple(g), "surjection")
    if not is_faithful(emb):
        raise CredalError(
            "world map is not surjective: it would send a nonempty source event "
            "to the empty set, so the embedding could not be faithful"
        )
    return emb


def from_interpretation(interp: Mapping[str, str], source: Space, target: Space) -> Embedding:
    """Embedding induced by an interpretation: a mapping from exactly the
    source symbols to formula text over the target vocabulary.

    Every formula is read to its target event, by `event_of`, before
    any source symbol is looked up.  A source world's image is the
    intersection, over the source symbols, of each symbol's event where
    the world makes it true and of its complement where false; distinct
    worlds differ on some symbol, so the images are disjoint, and they
    must cover the target for the event map to be a homomorphism onto
    the target's algebra.  Faithfulness is NOT implied: the world map is
    surjective only if every source world's image is nonempty.
    """
    events = {k: event_of(target, v) for k, v in interp.items()}
    symbols = source.vocabulary.symbols
    for s in symbols:
        if s not in events:
            raise KeyError(f"interpretation does not map {s!r}")
    for k in events:
        if k not in symbols:
            raise KeyError(f"interpretation maps {k!r}, which is no source symbol")

    world_map = [-1] * len(target.worlds)
    for i, w in enumerate(source.worlds):
        image = whole_event(target)
        for k, s in enumerate(symbols):
            image &= events[s] if w.value(k) else ~events[s]
        for j in image.indices():
            world_map[j] = i
    if any(v == -1 for v in world_map):
        raise CredalError(
            "interpretation images do not cover the target space; "
            "the induced event map is not an embedding onto it"
        )
    return Embedding(source, target, tuple(world_map), "interpretation")


def is_faithful(emb: Embedding) -> bool:
    """Faithful iff the world map is surjective.

    In the finite all-measurable case, f is faithful (S subset of T iff
    f(S) subset of f(T)) exactly when no nonempty event maps to the
    empty set, and since singleton images partition the target this
    reduces to every fiber being nonempty.
    """
    return all(emb._fibers)


def correspondence_gap(emb: Embedding, dx: Sequence[Measure],
                       dy: Sequence[Measure]) -> Measure | None:
    """The first source measure that breaks set-level correspondence: a
    pushforward of a dy measure that is not in dx, else a dx measure
    that no pushforward hits; None when the sets correspond."""
    if not is_faithful(emb):
        raise ValueError("correspondence is defined for faithful embeddings")
    if any(mu.space != emb.source for mu in dx):
        raise ValueError("a dx measure does not live on the embedding's source")
    pushed = [pushforward(emb, nu) for nu in dy]
    for p in pushed:
        if not any(mu.is_close(p) for mu in dx):
            return p
    for mu in dx:
        if not any(p.is_close(mu) for p in pushed):
            return mu
    return None


def product_embedding(parts: Sequence[Embedding]) -> Embedding:
    """Componentwise embedding between the products of the parts' spaces."""
    if not parts:
        raise ValueError("product of zero embeddings")
    if len(parts) == 1:
        return parts[0]
    source = product_space([p.source for p in parts])
    target = product_space([p.target for p in parts])
    src_sizes = [len(p.source.worlds) for p in parts]
    tgt_sizes = [len(p.target.worlds) for p in parts]
    wm = []
    for k in range(len(target.worlds)):
        rem, comps = k, []
        for size in reversed(tgt_sizes):
            comps.append(rem % size)
            rem //= size
        comps.reverse()
        idx = 0
        for p, c, size in zip(parts, comps, src_sizes):
            idx = idx * size + p.world_map[c]
        wm.append(idx)
    return Embedding(source, target, tuple(wm), "product")


def permutation_embedding(space: Space, pi: Sequence[int]) -> Embedding:
    """Coordinate permutation g(<x1..xn>) = <x_pi(1)..x_pi(n)> on a
    declared product space; factors moved onto each other must have the
    same shape (world count)."""
    if space.factors is None:
        raise ValueError("space has no declared factors")
    n = len(space.factors)
    if sorted(pi) != list(range(n)):
        raise ValueError("pi is not a permutation of the factors")
    sizes = [len(f.worlds) for f in space.factors]
    for i in range(n):
        if sizes[i] != sizes[pi[i]]:
            raise CredalError("incompatible factor shapes under the permutation")
    comps = [component_map(space, f) for f in space.factors]
    index_of = {}
    for w in range(len(space.worlds)):
        key = tuple(comps[i][w] for i in range(n))
        index_of[key] = w
    wm = []
    for w in range(len(space.worlds)):
        key = tuple(comps[pi[i]][w] for i in range(n))
        wm.append(index_of[key])
    return Embedding(space, space, tuple(wm), "permutation")


def random_faithful_embedding(x: Space, y: Space, seed: int) -> Embedding:
    """Uniformly random surjection y -> x (rejection sampling), seeded."""
    nx, ny = len(x.worlds), len(y.worlds)
    if ny < nx:
        raise ValueError("target must have at least as many worlds as the source")
    rng = _random.Random(seed)
    for _ in range(1_000_000):
        g = [rng.randrange(nx) for _ in range(ny)]
        if len(set(g)) == nx:
            return Embedding(x, y, tuple(g), "surjection")
    raise CredalError("failed to sample a surjection")  # pragma: no cover
