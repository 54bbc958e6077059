"""The constraint language on measure simplices.

Constraints are Boolean combinations of probability comparisons over
events.  The concrete DSL::

    constraint := term (('&'|'|') term)* | '!' constraint | '(' constraint ')'
                  | 'true' | 'false'
    term       := [rational cmp] sum [cmp rational]
                | 'P(' f ('|' f)? ')' cmp rational
                | 'P(' f ')' '=' 'P(' f ')' '*' 'P(' f ')'
    sum        := [rational '*'] 'P(' f ')' (('+'|'-') [rational '*'] 'P(' f ')')*
    cmp        := '<' | '<=' | '=' | '>=' | '>'

with rationals written ``a/b`` or as decimals (converted exactly), and
``&`` binding tighter than ``|``.  The parser extends `formulas.Parser`,
so both grammars share one tokenizer and the formulas inside ``P(...)``
come from the same token stream.  Inside ``P(...)`` the first ``|``
outside parentheses is the conditioning bar and the condition after it
is a whole formula: ``P(a | b | c)`` is ``P(a | (b | c))``; parenthesize
the disjunction in an unconditional term, as in ``P((a | b))``.  Conditional
comparisons are multiplied out: ``P(f|g) cmp a`` becomes
``P(f&g) - a*P(g) cmp 0``.  The third ``term`` form is the product
(independence) atom; it is query-only and excluded from normal forms.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import CredalError, ParseError
from .formulas import Parser
from .measures import EPS, RATIONAL, Measure
from .spaces import Event, Space, event_of, hash_once

MAX_DISJUNCTS = 4096


class ConstraintExpr:
    __slots__ = ()


@dataclass(frozen=True)
class LinearAtom(ConstraintExpr):
    """sum_i coeff_i * Pr(event_i)  cmp  bound."""

    terms: tuple[tuple[Fraction, Event], ...]
    cmp: str
    bound: Fraction
    _hash: int | None = field(default=None, init=False, compare=False, repr=False)

    def __hash__(self):
        return hash_once(self, (self.terms, self.cmp, self.bound))

    def __post_init__(self):
        if self.cmp not in {"<", "<=", "=", ">=", ">"}:
            raise ValueError(f"bad comparator {self.cmp!r}")
        if any(e.space != self.terms[0][1].space for _, e in self.terms[1:]):
            raise ValueError("atom mixes events from different spaces")

    @property
    def space(self) -> Space:
        return self.terms[0][1].space

    def value(self, mu: Measure):
        return sum(c * mu.prob(e) for c, e in self.terms)

    def holds_at(self, weights: tuple[Fraction, ...]) -> bool:
        """Whether the atom holds exactly at rational weights, decided in
        integers: the terms times L, the lcm of the term and bound
        denominators, against the weights' numerators over their common
        denominator d, so both sides are the rational ones times L * d."""
        d = lcm(*(w.denominator for w in weights))
        big_l = lcm(self.bound.denominator, *(c.denominator for c, _ in self.terms))
        lhs = 0
        for c, event in self.terms:
            mass = sum(w.numerator * (d // w.denominator)
                       for i in event.indices() if (w := weights[i]))
            lhs += c.numerator * (big_l // c.denominator) * mass
        rhs = self.bound.numerator * (big_l // self.bound.denominator) * d
        return EXACT_COMPARE[self.cmp](lhs, rhs)

    def coefficients(self) -> list[Fraction]:
        """Per-world coefficients of the linear functional on its space."""
        out = [Fraction(0)] * len(self.space.worlds)
        for c, e in self.terms:
            for i in e.indices():
                out[i] += c
        return out

    def __str__(self):
        parts = " + ".join(f"{c}*P(#{e.mask:x})" for c, e in self.terms)
        return f"{parts} {self.cmp} {self.bound}"


@dataclass(frozen=True)
class ProductAtom(ConstraintExpr):
    """Pr(lhs) = Pr(rhs[0]) * Pr(rhs[1]); evaluation-only."""

    lhs: Event
    rhs: tuple[Event, Event]

    @property
    def space(self) -> Space:
        return self.lhs.space


@dataclass(frozen=True)
class And(ConstraintExpr):
    items: tuple[ConstraintExpr, ...]
    _hash: int | None = field(default=None, init=False, compare=False, repr=False)

    def __hash__(self):
        return hash_once(self, self.items)


@dataclass(frozen=True)
class Or(ConstraintExpr):
    items: tuple[ConstraintExpr, ...]
    _hash: int | None = field(default=None, init=False, compare=False, repr=False)

    def __hash__(self):
        return hash_once(self, self.items)


@dataclass(frozen=True)
class Not(ConstraintExpr):
    child: ConstraintExpr
    _hash: int | None = field(default=None, init=False, compare=False, repr=False)

    def __hash__(self):
        return hash_once(self, self.child)


@dataclass(frozen=True)
class TrueExpr(ConstraintExpr):
    pass


@dataclass(frozen=True)
class FalseExpr(ConstraintExpr):
    pass


TRUE = TrueExpr()
FALSE = FalseExpr()


def and_(*items: ConstraintExpr) -> ConstraintExpr:
    flat: list[ConstraintExpr] = []
    for it in items:
        if isinstance(it, TrueExpr):
            continue
        if isinstance(it, FalseExpr):
            return FALSE
        flat.extend(it.items if isinstance(it, And) else (it,))
    if not flat:
        return TRUE
    return flat[0] if len(flat) == 1 else And(tuple(flat))


def not_(item: ConstraintExpr) -> ConstraintExpr:
    return Not(item)


def space_of(*exprs: ConstraintExpr) -> Space:
    """The space of the first atom of the expressions: the space every
    entry point decides a question over when it is given none.  true and
    false name no space, so with no atom this raises ValueError."""
    for expr in exprs:
        for atom in atoms_of(expr):
            return atom.space
    raise ValueError("pass the space: a constraint without atoms names none")


def check_space(space: Space, atoms) -> None:
    """Raise ValueError unless every atom lives on space, on whose world
    indices it is about to be read; `is` first spares a field-wise `==`."""
    for atom in atoms:
        if atom.space is not space and atom.space != space:
            raise ValueError("an atom lives on a different space than the question")


def atoms_of(expr: ConstraintExpr):
    if isinstance(expr, (LinearAtom, ProductAtom)):
        yield expr
    elif isinstance(expr, (And, Or)):
        for it in expr.items:
            yield from atoms_of(it)
    elif isinstance(expr, Not):
        yield from atoms_of(expr.child)


def has_product_atom(expr: ConstraintExpr) -> bool:
    return any(isinstance(a, ProductAtom) for a in atoms_of(expr))


# Satisfaction ----------------------------------------------------------


# ``value cmp bound`` on exact numbers (ints or Fractions)
EXACT_COMPARE = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
                 ">=": operator.ge, ">": operator.gt}


def compare(value, cmp: str, bound, eps: float) -> bool:
    """Whether ``value cmp bound`` holds for floats: within ``eps``, with
    strict comparisons needing an ``eps`` margin."""
    v, b = float(value), float(bound)
    if cmp == "<":
        return v < b - eps
    if cmp == "<=":
        return v <= b + eps
    if cmp == "=":
        return abs(v - b) <= eps
    if cmp == ">=":
        return v >= b - eps
    return v > b + eps


def satisfies(mu: Measure, expr: ConstraintExpr, eps: float = EPS) -> bool:
    """Whether the measure satisfies the constraint.

    Exact for the rational backend; for floats, equalities and
    non-strict inequalities hold within ``eps`` and strict inequalities
    must hold with an ``eps`` margin (``eps`` defaults to `measures.EPS`).
    An atom on another space than the measure's raises ValueError.
    """
    exact = mu.backend == RATIONAL
    if isinstance(expr, TrueExpr):
        return True
    if isinstance(expr, FalseExpr):
        return False
    if isinstance(expr, LinearAtom):
        if exact:
            check_space(mu.space, (expr,))
            return expr.holds_at(mu.weights)
        return compare(expr.value(mu), expr.cmp, expr.bound, eps)
    if isinstance(expr, ProductAtom):
        lhs = mu.prob(expr.lhs)
        rhs = mu.prob(expr.rhs[0]) * mu.prob(expr.rhs[1])
        return lhs == rhs if exact else compare(lhs, "=", rhs, eps)
    if isinstance(expr, And):
        return all(satisfies(mu, it, eps) for it in expr.items)
    if isinstance(expr, Or):
        return any(satisfies(mu, it, eps) for it in expr.items)
    if isinstance(expr, Not):
        return not satisfies(mu, expr.child, eps)
    raise TypeError(f"not a constraint: {expr!r}")


# Disjunctive normal form ------------------------------------------------

_NEGATED = {"<": ">=", "<=": ">", ">=": "<", ">": "<="}


def _negate(expr: ConstraintExpr) -> ConstraintExpr:
    if isinstance(expr, TrueExpr):
        return FALSE
    if isinstance(expr, FalseExpr):
        return TRUE
    if isinstance(expr, LinearAtom):
        if expr.cmp == "=":
            return Or((LinearAtom(expr.terms, "<", expr.bound),
                       LinearAtom(expr.terms, ">", expr.bound)))
        return LinearAtom(expr.terms, _NEGATED[expr.cmp], expr.bound)
    if isinstance(expr, ProductAtom):
        raise CredalError("product atoms cannot be negated or normalized")
    if isinstance(expr, Not):
        return expr.child
    if isinstance(expr, And):
        return Or(tuple(_negate(it) for it in expr.items))
    if isinstance(expr, Or):
        return And(tuple(_negate(it) for it in expr.items))
    raise TypeError(f"not a constraint: {expr!r}")


@lru_cache(maxsize=1024)
def to_dnf(expr: ConstraintExpr) -> tuple[tuple[LinearAtom, ...], ...]:
    """Normalize to a union of conjunctive cells, each the tuple of its
    atoms: no atom twice, the equalities first, then the nonstrict and
    then the strict atoms, each group in the order the atoms appear.
    Raises on product atoms and when the distribution exceeds
    ``MAX_DISJUNCTS``.

    The memo holds as many forms as `entail.cells` holds cell sets: the
    forms it serves again are those of kbs whose cells are looked up
    next, and a larger memo only keeps the forms of fresh kbs alive."""

    def build(e: ConstraintExpr, negated: bool) -> list[tuple[LinearAtom, ...]]:
        if isinstance(e, Not):
            return build(e.child, not negated)
        if isinstance(e, ProductAtom):
            raise CredalError("product atoms cannot appear in normal forms")
        if negated:
            return build(_negate(e), False)
        if isinstance(e, TrueExpr):
            return [()]
        if isinstance(e, FalseExpr):
            return []
        if isinstance(e, LinearAtom):
            return [(e,)]
        if isinstance(e, Or):
            out: list[tuple[LinearAtom, ...]] = []
            for it in e.items:
                out.extend(build(it, False))
                if len(out) > MAX_DISJUNCTS:
                    raise CredalError("DNF blowup cap exceeded")
            return out
        if isinstance(e, And):
            acc: list[tuple[LinearAtom, ...]] = [()]
            for it in e.items:
                branches = build(it, False)
                acc = [a + b for a in acc for b in branches]
                if len(acc) > MAX_DISJUNCTS:
                    raise CredalError("DNF blowup cap exceeded")
            return acc
        raise TypeError(f"not a constraint: {e!r}")

    unique = [dict.fromkeys(cell) for cell in build(expr, False)]
    return tuple(tuple(a for cmps in (("=",), ("<=", ">="), ("<", ">")) for a in cell
                       if a.cmp in cmps) for cell in unique)


# Embedding translation ---------------------------------------------------


def map_events(expr: ConstraintExpr, f) -> ConstraintExpr:
    """expr with every event S replaced by f(S), preserving structure."""
    if isinstance(expr, (TrueExpr, FalseExpr)):
        return expr
    if isinstance(expr, LinearAtom):
        return LinearAtom(tuple((c, f(e)) for c, e in expr.terms), expr.cmp, expr.bound)
    if isinstance(expr, ProductAtom):
        return ProductAtom(f(expr.lhs), (f(expr.rhs[0]), f(expr.rhs[1])))
    if isinstance(expr, (And, Or)):
        return type(expr)(tuple(map_events(it, f) for it in expr.items))
    if isinstance(expr, Not):
        return Not(map_events(expr.child, f))
    raise TypeError(f"not a constraint: {expr!r}")


def translate(emb, expr: ConstraintExpr) -> ConstraintExpr:
    """f*(expr): replace every event S by f(S), preserving structure."""
    return map_events(expr, emb.apply)


# Parsing -----------------------------------------------------------------

_CMP = ("<=", ">=", "<", ">", "=")
_FLIPPED = {"<": ">", "<=": ">=", "=": "=", ">=": "<=", ">": "<"}
_ONE = Fraction(1)


class _ConstraintParser(Parser):
    """The constraint levels on top of the formula levels of `Parser`."""

    def __init__(self, text: str, space: Space):
        super().__init__(text)
        self.space = space

    def or_expr(self) -> ConstraintExpr:
        items = [self.and_expr()]
        while self.peek() == "|":
            self.take()
            items.append(self.and_expr())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def and_expr(self) -> ConstraintExpr:
        items = [self.not_expr()]
        while self.peek() == "&":
            self.take()
            items.append(self.not_expr())
        return items[0] if len(items) == 1 else And(tuple(items))

    def not_expr(self) -> ConstraintExpr:
        kind = self.peek()
        if kind == "!":
            self.take()
            return Not(self.not_expr())
        if kind == "(":
            self.take()
            inner = self.or_expr()
            self.take(")")
            return inner
        if kind == "name" and self.tokens[self.i][1] in ("true", "false"):
            return TRUE if self.take()[1] == "true" else FALSE
        return self.comparison()

    def _rational(self) -> Fraction:
        if self.peek() == "-":
            self.take()
            return -self.take("num")[1]
        return self.take("num")[1]

    def _prob(self) -> tuple[Event, Event | None, int]:
        """``P(f)`` or ``P(f | g)``: the events of f and of g (None
        without a bar), and the position of the ``P``."""
        if self.peek() != "name" or self.tokens[self.i][1] != "P":
            raise self.error("P(...)")
        pos = self.take()[2]
        self.take("(")
        f = self.iff(bar=True)
        g = None
        if self.peek() == "|":
            self.take()
            g = self.iff()
        self.take(")")
        try:
            return event_of(self.space, f), None if g is None else event_of(self.space, g), pos
        except KeyError as exc:
            raise ParseError(str(exc.args[0]), pos) from None

    def _sum(self) -> tuple[list[tuple[Fraction, Event]], tuple[Event, Event] | None]:
        """Parse a sum of probability terms.

        Returns coefficient/event pairs, or a conditional pair
        (f&g event, g event) when the sum is a sole ``P(f|g)``.
        """
        terms: list[tuple[Fraction, Event]] = []
        while True:
            coeff = _ONE
            if self.peek() == "-" or (terms and self.peek() == "+"):
                coeff = -_ONE if self.take()[0] == "-" else _ONE
            if self.peek() == "num":
                coeff *= self.take()[1]
                self.take("*")
            ev, gv, pos = self._prob()
            if gv is not None:
                if terms or coeff != 1 or self.peek() in ("+", "-"):
                    raise ParseError("conditional probabilities only stand alone", pos)
                return [], (ev & gv, gv)
            terms.append((coeff, ev))
            if self.peek() not in ("+", "-"):
                return terms, None

    def comparison(self) -> ConstraintExpr:
        atoms: list[ConstraintExpr] = []
        lead: tuple[Fraction, str] | None = None
        ahead = 1 if self.peek() == "-" else 0
        if self.peek(ahead) == "num" and self.peek(ahead + 1) in _CMP:
            lead = (self._rational(), self.take()[0])
        terms, conditional = self._sum()

        def atom(cmp: str, bound: Fraction) -> LinearAtom:
            if conditional is not None:
                fg, g = conditional
                return LinearAtom(((_ONE, fg), (-bound, g)), cmp, Fraction(0))
            return LinearAtom(tuple(terms), cmp, bound)

        if lead is not None:
            # r cmp sum  <=>  sum flipped(cmp) r
            atoms.append(atom(_FLIPPED[lead[1]], lead[0]))
        if self.peek() in _CMP:
            cmp = self.take()[0]
            if self.peek() != "name":
                atoms.append(atom(cmp, self._rational()))
            elif cmp != "=" or len(terms) != 1 or terms[0][0] != 1:
                raise ParseError("product atoms have the form P(f) = P(g) * P(h)",
                                 self.tokens[self.i][2])
            else:
                b, b_cond, pos = self._prob()
                self.take("*")
                c, c_cond, _ = self._prob()
                if b_cond is not None or c_cond is not None:
                    raise ParseError("product atoms take unconditional terms", pos)
                atoms.append(ProductAtom(terms[0][1], (b, c)))
        if not atoms:
            raise self.error("a comparison")
        return and_(*atoms)


def parse_constraint(text: str, space: Space) -> ConstraintExpr:
    """Parse constraint text against a space's vocabulary."""
    parser = _ConstraintParser(text, space)
    expr = parser.or_expr()
    parser.done()
    return expr
