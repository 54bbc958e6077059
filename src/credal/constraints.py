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
from .spaces import Event, Space, hash_once

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
    _row: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __hash__(self):
        return hash_once(self, (self.terms, self.cmp, self.bound))

    def __post_init__(self):
        if self.cmp not in {"<", "<=", "=", ">=", ">"}:
            raise ValueError(f"bad comparator {self.cmp!r}")
        if not self.terms:
            raise ValueError("an atom needs at least one term")
        if not all(isinstance(v, (int, Fraction))
                   for v in (self.bound, *(c for c, _ in self.terms))):
            raise ValueError("an atom's coefficients and bound must be ints or Fractions")
        space = self.terms[0][1].space
        if any(e.space is not space and e.space != space for _, e in self.terms[1:]):
            raise ValueError("atom mixes events from different spaces")

    @property
    def space(self) -> Space:
        return self.terms[0][1].space

    def float_sides(self, weights: tuple) -> tuple[float, float]:
        """The atom's two sides at float weights, sum c * P(e) and
        float(bound), read from its float row: float(c) and the event's
        world indices per term, built on the first call and kept on the
        atom, so no later check converts a Fraction.  Bit for bit the
        Fractions times `Measure.prob`: each P(e) summed in increasing
        world index from 0.0, then the terms in order."""
        if self._row is None:
            object.__setattr__(self, "_row", (tuple((float(c), tuple(e.indices()))
                                                    for c, e in self.terms), float(self.bound)))
        terms, bound = self._row
        get = weights.__getitem__
        return sum(c * sum(map(get, indices), 0.0) for c, indices in terms), bound

    def holds_at(self, point) -> bool:
        """Whether the atom holds exactly at a rational point, its weight
        sequence or a dict from world index to weight without the zeros.
        Decided in integers on the point's support alone, a term taking a
        world's mass when the world's bit is in its event's mask: the
        terms times L, the lcm of the term and bound denominators, against
        the masses' numerators over their common denominator d, so both
        sides are the rational ones times L * d."""
        support = point.items() if isinstance(point, dict) else [
            (i, w) for i, w in enumerate(point) if w]
        d = lcm(*[w.denominator for _, w in support])
        masses = [(1 << i, w.numerator * (d // w.denominator)) for i, w in support]
        big_l = lcm(self.bound.denominator, *[c.denominator for c, _ in self.terms])
        lhs = 0
        for c, event in self.terms:
            mask, m = event.mask, 0
            for bit, v in masses:
                if mask & bit:
                    m += v
            lhs += c.numerator * (big_l // c.denominator) * m
        rhs = self.bound.numerator * (big_l // self.bound.denominator) * d
        return EXACT_COMPARE[self.cmp](lhs, rhs)

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


def compare(value, cmp: str, bound) -> bool:
    """Whether ``value cmp bound`` holds for floats: within `measures.EPS`,
    with strict comparisons needing an EPS margin."""
    v, b = float(value), float(bound)
    if cmp == "<":
        return v < b - EPS
    if cmp == "<=":
        return v <= b + EPS
    if cmp == "=":
        return abs(v - b) <= EPS
    if cmp == ">=":
        return v >= b - EPS
    return v > b + EPS


def satisfies(mu: Measure, expr: ConstraintExpr) -> bool:
    """Whether the measure satisfies the constraint.

    Exact for the rational backend; for floats by `compare`, at the one
    tolerance `measures.EPS` at which `optimize.kl_project` keeps a
    projection inside [[kb]].  An atom on another space than the
    measure's raises ValueError.
    """
    exact = mu.backend == RATIONAL
    if isinstance(expr, TrueExpr):
        return True
    if isinstance(expr, FalseExpr):
        return False
    if isinstance(expr, LinearAtom):
        check_space(mu.space, (expr,))
        if exact:
            return expr.holds_at(mu.weights)
        value, bound = expr.float_sides(mu.weights)
        return compare(value, expr.cmp, bound)
    if isinstance(expr, ProductAtom):
        check_space(mu.space, (expr,))
        lhs = mu.prob(expr.lhs)
        rhs = mu.prob(expr.rhs[0]) * mu.prob(expr.rhs[1])
        return lhs == rhs if exact else compare(lhs, "=", rhs)
    if isinstance(expr, And):
        return all(satisfies(mu, it) for it in expr.items)
    if isinstance(expr, Or):
        return any(satisfies(mu, it) for it in expr.items)
    if isinstance(expr, Not):
        return not satisfies(mu, expr.child)
    raise TypeError(f"not a constraint: {expr!r}")


# Disjunctive normal form ------------------------------------------------

# the comparators of an atom's negation: a negated ``=`` is ``<`` | ``>``
_NEGATED = {"<": (">=",), "<=": (">",), "=": ("<", ">"), ">=": ("<",), ">": ("<=",)}


@lru_cache(maxsize=1024)
def to_dnf(expr: ConstraintExpr) -> tuple[tuple[LinearAtom, ...], ...]:
    """Normalize to a union of conjunctive cells, each the tuple of its
    atoms: no atom twice, the equalities first, then the nonstrict and
    then the strict atoms, each group in the order the atoms appear.
    Raises on product atoms and when the distribution exceeds
    ``MAX_DISJUNCTS``.  Negation goes down to the atoms in the same pass
    (De Morgan): a negated Or distributes like an And and vice versa,
    true and false swap, and an atom takes its `_NEGATED` comparators.

    The memo holds as many forms as `entail.cells` holds cell sets: the
    forms it serves again are those of kbs whose cells are looked up
    next, and a larger memo only keeps the forms of fresh kbs alive."""

    def build(e: ConstraintExpr, negated: bool) -> list[tuple[LinearAtom, ...]]:
        if isinstance(e, Not):
            return build(e.child, not negated)
        if isinstance(e, ProductAtom):
            raise CredalError("product atoms cannot appear in normal forms")
        if isinstance(e, (TrueExpr, FalseExpr)):
            return [()] if isinstance(e, TrueExpr) != negated else []
        if isinstance(e, LinearAtom):
            if not negated:
                return [(e,)]
            return [(LinearAtom(e.terms, cmp, e.bound),) for cmp in _NEGATED[e.cmp]]
        if isinstance(e, (And, Or)):
            union = isinstance(e, Or) != negated
            acc: list[tuple[LinearAtom, ...]] = [] if union else [()]
            for it in e.items:
                branches = build(it, negated)
                if union:
                    acc.extend(branches)
                else:
                    acc = [a + b for a in acc for b in branches]
                if len(acc) > MAX_DISJUNCTS:
                    raise CredalError("DNF blowup cap exceeded")
            return acc
        raise TypeError(f"not a constraint: {e!r}")

    unique = [dict.fromkeys(cell) for cell in build(expr, False)]
    return tuple(tuple(a for cmps in (("=",), ("<=", ">="), ("<", ">")) for a in cell
                       if a.cmp in cmps) for cell in unique)


# Embedding translation ---------------------------------------------------


def map_atoms(expr: ConstraintExpr, f) -> ConstraintExpr:
    """expr with every atom A replaced by f(A), preserving structure."""
    if isinstance(expr, (TrueExpr, FalseExpr)):
        return expr
    if isinstance(expr, (LinearAtom, ProductAtom)):
        return f(expr)
    if isinstance(expr, (And, Or)):
        return type(expr)(tuple(map_atoms(it, f) for it in expr.items))
    if isinstance(expr, Not):
        return Not(map_atoms(expr.child, f))
    raise TypeError(f"not a constraint: {expr!r}")


def map_events(expr: ConstraintExpr, f) -> ConstraintExpr:
    """expr with every event S replaced by f(S), preserving structure."""

    def atom(a):
        if isinstance(a, ProductAtom):
            return ProductAtom(f(a.lhs), (f(a.rhs[0]), f(a.rhs[1])))
        return LinearAtom(tuple((c, f(e)) for c, e in a.terms), a.cmp, a.bound)

    return map_atoms(expr, atom)


def translate(emb, expr: ConstraintExpr) -> ConstraintExpr:
    """f*(expr): replace every event S by f(S), preserving structure."""
    return map_events(expr, emb.apply)


# Parsing -----------------------------------------------------------------

_CMP = ("<=", ">=", "<", ">", "=")
_FLIPPED = {"<": ">", "<=": ">=", "=": "=", ">=": "<=", ">": "<"}
_ONE = Fraction(1)


class _ConstraintParser(Parser):
    """The constraint levels on top of the formula levels of `Parser`."""

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
        without a bar), and the position of the ``P``, at which an
        unknown name in f or g is raised."""
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
            self.known()
        except KeyError as exc:
            raise ParseError(str(exc.args[0]), pos) from None
        return Event(self.space, f), None if g is None else Event(self.space, g), pos

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
