"""Probability measures on finite spaces and their functionals.

Two numeric backends coexist: exact rationals (entailment, coupling,
pushforward) and float64 (entropy, divergence, optimizers).  Conversions
are explicit; operations mixing backends raise.  Logarithms are base 2
throughout, with the conventions 0*log 0 = 0 and 0*log(0/q) = 0;
divergence returns ``math.inf`` when absolute continuity fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import CredalError
from .spaces import Event, Space, component_map, hash_once, product_decomposition, product_space

if TYPE_CHECKING:  # pragma: no cover
    from .embeddings import Embedding

RATIONAL = "rational"
FLOAT = "float"

EPS = 1e-9  # the float tolerance: measures this close are one, atoms hold within it
_FLOAT_SUM_TOL = 1e-12


def is_distribution(weights: Sequence) -> bool:
    """Whether exact weights (Fractions or ints) are nonnegative and sum
    to exactly 1, decided in integers: over the common denominator d of
    the nonzero weights, their numerators are nonnegative and sum to d.
    Zeros cost nothing, so a sparse point on a wide space is cheap."""
    support = [w for w in weights if w]
    d = math.lcm(*(w.denominator for w in support))
    nums = [w.numerator * (d // w.denominator) for w in support]
    return all(a >= 0 for a in nums) and sum(nums) == d


@dataclass(frozen=True)
class Measure:
    space: Space
    weights: tuple
    backend: str
    _hash: int | None = field(default=None, init=False, compare=False, repr=False)

    def __hash__(self):
        return hash_once(self, (self.space, self.weights, self.backend))

    def __post_init__(self):
        if len(self.weights) != len(self.space.worlds):
            raise ValueError("weight vector length must equal the world count")
        if self.backend == RATIONAL:
            if not is_distribution(self.weights):
                raise ValueError("rational weights must be nonnegative and sum to exactly 1")
        elif self.backend == FLOAT:
            if not all(-_FLOAT_SUM_TOL <= w < math.inf for w in self.weights):
                raise ValueError("negative or non-finite weight")
            if abs(sum(self.weights) - 1.0) > _FLOAT_SUM_TOL:
                raise ValueError("float weights must sum to 1 within 1e-12")
        else:
            raise ValueError(f"unknown backend {self.backend!r}")

    # Construction ------------------------------------------------------
    @staticmethod
    def rational(space: Space, weights: Iterable) -> "Measure":
        return Measure(space, tuple(w if isinstance(w, Fraction) else Fraction(w)
                                    for w in weights), RATIONAL)

    @staticmethod
    def from_floats(space: Space, weights: Iterable[float]) -> "Measure":
        # clamps w <= 0 to 0.0 as max(0.0, w) would, but lets a NaN or
        # -inf through for __post_init__ to reject
        return Measure(space, tuple(0.0 if -math.inf < (f := float(w)) <= 0.0 else f
                                    for w in weights), FLOAT)

    @staticmethod
    def uniform(space: Space, backend: str = FLOAT) -> "Measure":
        n = len(space.worlds)
        if backend == RATIONAL:
            return Measure.rational(space, [Fraction(1, n)] * n)
        return Measure.from_floats(space, [1.0 / n] * n)

    @staticmethod
    def point_mass(space: Space, index: int) -> "Measure":
        w = [0] * len(space.worlds)
        w[index] = 1
        return Measure.rational(space, w)

    # Conversion --------------------------------------------------------
    def to_float(self) -> "Measure":
        if self.backend == FLOAT:
            return self
        return Measure.from_floats(self.space, [float(w) for w in self.weights])

    # Queries -------------------------------------------------------------
    def prob(self, event: Event):
        if event.space != self.space:
            raise ValueError("event lives on a different space")
        zero = Fraction(0) if self.backend == RATIONAL else 0.0
        weights = self.weights
        # zeros add nothing, and a rational zero costs a Fraction addition
        return sum((w for i in event.indices() if (w := weights[i])), zero)

    def is_close(self, other: "Measure") -> bool:
        if self.space != other.space:
            return False
        if self.backend == RATIONAL and other.backend == RATIONAL:
            return self.weights == other.weights
        return all(abs(float(a) - float(b)) <= EPS for a, b in zip(self.weights, other.weights))

    def marginal(self, sub: Space) -> "Measure":
        """Marginal onto a factor (by vocabulary projection)."""
        comp = component_map(self.space, sub)
        zero = Fraction(0) if self.backend == RATIONAL else 0.0
        out = [zero] * len(sub.worlds)
        for i, w in enumerate(self.weights):
            out[comp[i]] += w
        return Measure(sub, tuple(out), self.backend)

    def __repr__(self):
        ws = ", ".join(str(w) for w in self.weights)
        return f"Measure[{self.backend}]({ws})"


def _require_same_backend(*measures: Measure) -> str:
    backends = {m.backend for m in measures}
    if len(backends) > 1:
        raise ValueError("mixed numeric backends; convert explicitly")
    return backends.pop()


# Functionals ----------------------------------------------------------


def entropy(mu: Measure) -> float:
    """Shannon entropy in bits."""
    h = 0.0
    for w in mu.weights:
        p = float(w)
        if p > 0.0:
            h -= p * math.log2(p)
    return h


def kl_divergence(mu_prime: Measure, mu: Measure) -> float:
    """Relative entropy D(mu' || mu) in bits; +inf on support violation."""
    if mu_prime.space != mu.space:
        raise ValueError("measures live on different spaces")
    _require_same_backend(mu_prime, mu)
    d = 0.0
    for a, b in zip(mu_prime.weights, mu.weights):
        p, q = float(a), float(b)
        if p == 0.0:
            continue
        if q == 0.0:
            return math.inf
        d += p * math.log2(p / q)
    return max(d, 0.0)


def condition(mu: Measure, s: Event) -> Measure:
    """Bayesian conditioning mu|S; errors on a null event."""
    total = mu.prob(s)
    if total == 0:
        raise CredalError("conditioning on null event")
    zero = Fraction(0) if mu.backend == RATIONAL else 0.0
    weights = [mu.weights[i] / total if i in s else zero for i in range(len(mu.weights))]
    return Measure(mu.space, tuple(weights), mu.backend)


def pushforward(emb: "Embedding", nu: Measure) -> Measure:
    """The unique measure on the embedding's source corresponding to ``nu``.

    mu(S) = nu(f(S)) for every source event S; computed fiber-wise from
    the embedding's world map.
    """
    if nu.space != emb.target:
        raise ValueError("measure does not live on the embedding's target")
    zero = Fraction(0) if nu.backend == RATIONAL else 0.0
    out = [zero] * len(emb.source.worlds)
    for j, w in enumerate(nu.weights):
        out[emb.world_map[j]] += w
    return Measure(emb.source, tuple(out), nu.backend)


def corresponds(emb: "Embedding", mu: Measure, nu: Measure) -> bool:
    """Whether mu and nu correspond under the embedding."""
    if mu.space != emb.source:
        raise ValueError("measure does not live on the embedding's source")
    _require_same_backend(mu, nu)
    return pushforward(emb, nu).is_close(mu)


def product_measure(parts: Sequence[Measure], space: Space | None = None) -> Measure:
    """Product of per-factor measures on the factors' product space."""
    if not parts:
        raise ValueError("product of zero measures")
    if len(parts) == 1 and space is None:
        return parts[0]
    backend = _require_same_backend(*parts)
    if space is None:
        space = product_space([m.space for m in parts])
    if space.factors is not None and len(space.factors) == len(parts):
        # renamed copies (from collision suffixing) share world structure
        for m, f in zip(parts, space.factors):
            if m.space != f and m.space.worlds != f.worlds:
                raise ValueError("factor mismatch")
        comps = [component_map(space, f) for f in space.factors]
    else:
        sizes = 1
        for m in parts:
            sizes *= len(m.space.worlds)
        if sizes != len(space.worlds):
            raise ValueError("factor mismatch")
        comps = [component_map(space, m.space) for m in parts]
    one = Fraction(1) if backend == RATIONAL else 1.0
    weights = []
    for i in range(len(space.worlds)):
        w = one
        for k, m in enumerate(parts):
            w *= m.weights[comps[k][i]]
        weights.append(w)
    return Measure(space, tuple(weights), backend)


def is_product_measure(mu: Measure) -> bool:
    """True iff mu equals the product of its marginals over the maximal
    product decomposition of its space (vacuously true when n = 1)."""
    factors = product_decomposition(mu.space)
    if len(factors) == 1:
        return True
    return mu.is_close(product_measure([mu.marginal(f) for f in factors], mu.space))


def couple(mu0: Measure, s0: Event, mu1: Measure, s1: Event) -> Measure:
    """Couple two measures so the two marginals are preserved and the
    equivalence event (S0 x S1) u (comp S0 x comp S1) has probability 1.

    Requires rational measures with mu0(S0) = mu1(S1) exactly.  Per-cell
    weights follow the conditional product rule, with zero-denominator
    blocks dropped.
    """
    if mu0.backend != RATIONAL or mu1.backend != RATIONAL:
        raise ValueError("couple needs rational measures; convert explicitly")
    if s0.space != mu0.space or s1.space != mu1.space:
        raise ValueError("events live on the wrong spaces")
    p1 = mu1.prob(s1)
    if mu0.prob(s0) != p1:
        raise CredalError("marginal-probability mismatch")

    space = product_space([mu0.space, mu1.space])
    weights = []
    for i, a in enumerate(mu0.weights):
        inside = i in s0
        side = p1 if inside else 1 - p1  # mu1's mass on the side i couples with
        for j, b in enumerate(mu1.weights):
            weights.append(a * b / side if side != 0 and (j in s1) == inside else Fraction(0))
    return Measure(space, tuple(weights), RATIONAL)


def kl_chain_identity_residual(nu2: Measure, nu: Measure, emb: "Embedding") -> float:
    """|LHS - RHS| of the divergence chain rule along an embedding's fibers.

    LHS = D(nu2 || nu).  RHS decomposes it through the source: divergence
    of the pushforwards plus the expected fiber-conditional divergence,
    each fiber term weighted by nu2's fiber mass.  Infinite sides compare
    symbolically (both infinite -> residual 0).
    """
    if nu2.space != emb.target or nu.space != emb.target:
        raise ValueError("measures must live on the embedding's target")
    lhs = kl_divergence(nu2, nu)
    m2, m = pushforward(emb, nu2), pushforward(emb, nu)
    rhs = kl_divergence(m2, m)
    if not math.isinf(rhs):
        for i in range(len(emb.source.worlds)):
            fiber = emb.fiber_event(i)
            mass2 = float(nu2.prob(fiber))
            if mass2 == 0.0:
                continue
            d = kl_divergence(condition(nu2, fiber), condition(nu, fiber))
            if math.isinf(d):
                rhs = math.inf
                break
            rhs += mass2 * d
    if math.isinf(lhs) or math.isinf(rhs):
        return 0.0 if math.isinf(lhs) and math.isinf(rhs) else math.inf
    return abs(lhs - rhs)
