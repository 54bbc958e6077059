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
``&`` binding tighter than ``|``.  Inside ``P(...)`` a top-level ``|``
is the conditioning bar; parenthesize disjunctions.  Conditional
comparisons are multiplied out: ``P(f|g) cmp a`` becomes
``P(f&g) - a*P(g) cmp 0``.  The third ``term`` form is the product
(independence) atom; it is query-only and excluded from normal forms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import CredalError, ParseError
from .formulas import parse_formula
from .measures import RATIONAL, Measure
from .spaces import Event, Space, event_of

DEFAULT_EPS = 1e-9
MAX_DISJUNCTS = 4096


class ConstraintExpr:
    __slots__ = ()


@dataclass(frozen=True)
class LinearAtom(ConstraintExpr):
    """sum_i coeff_i * Pr(event_i)  cmp  bound."""

    terms: tuple[tuple[Fraction, Event], ...]
    cmp: str
    bound: Fraction

    def __post_init__(self):
        if self.cmp not in {"<", "<=", "=", ">=", ">"}:
            raise ValueError(f"bad comparator {self.cmp!r}")
        spaces = {e.space for _, e in self.terms}
        if len(spaces) > 1:
            raise ValueError("atom mixes events from different spaces")

    @property
    def space(self) -> Space:
        return self.terms[0][1].space

    def value(self, mu: Measure):
        return sum((c * mu.prob(e) for c, e in self.terms),
                   Fraction(0) if mu.backend == RATIONAL else 0.0)

    def coefficients(self, space: Space) -> list[Fraction]:
        """Per-world coefficients of the linear functional."""
        out = [Fraction(0)] * len(space.worlds)
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


@dataclass(frozen=True)
class Or(ConstraintExpr):
    items: tuple[ConstraintExpr, ...]


@dataclass(frozen=True)
class Not(ConstraintExpr):
    child: ConstraintExpr


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


def or_(*items: ConstraintExpr) -> ConstraintExpr:
    flat: list[ConstraintExpr] = []
    for it in items:
        if isinstance(it, FalseExpr):
            continue
        if isinstance(it, TrueExpr):
            return TRUE
        flat.extend(it.items if isinstance(it, Or) else (it,))
    if not flat:
        return FALSE
    return flat[0] if len(flat) == 1 else Or(tuple(flat))


def not_(item: ConstraintExpr) -> ConstraintExpr:
    return Not(item)


def space_of(expr: ConstraintExpr) -> Space | None:
    for atom in atoms_of(expr):
        return atom.space
    return None


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


def _compare(value, cmp: str, bound, exact: bool, eps: float) -> bool:
    if exact:
        if cmp == "<":
            return value < bound
        if cmp == "<=":
            return value <= bound
        if cmp == "=":
            return value == bound
        if cmp == ">=":
            return value >= bound
        return value > bound
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


def satisfies(mu: Measure, expr: ConstraintExpr, eps: float = DEFAULT_EPS) -> bool:
    """Whether the measure satisfies the constraint.

    Exact for the rational backend; for floats, equalities hold within
    ``eps`` and strict inequalities must hold with an ``eps`` margin.
    """
    exact = mu.backend == RATIONAL
    if isinstance(expr, TrueExpr):
        return True
    if isinstance(expr, FalseExpr):
        return False
    if isinstance(expr, LinearAtom):
        return _compare(expr.value(mu), expr.cmp, expr.bound, exact, eps)
    if isinstance(expr, ProductAtom):
        lhs = mu.prob(expr.lhs)
        rhs = mu.prob(expr.rhs[0]) * mu.prob(expr.rhs[1])
        return lhs == rhs if exact else abs(float(lhs) - float(rhs)) <= eps
    if isinstance(expr, And):
        return all(satisfies(mu, it, eps) for it in expr.items)
    if isinstance(expr, Or):
        return any(satisfies(mu, it, eps) for it in expr.items)
    if isinstance(expr, Not):
        return not satisfies(mu, expr.child, eps)
    raise TypeError(f"not a constraint: {expr!r}")


# Disjunctive normal form ------------------------------------------------

_NEGATED = {"<": ">=", "<=": ">", ">=": "<", ">": "<="}


@dataclass(frozen=True)
class DnfSystem:
    """One conjunctive cell: a relatively open polyhedron in the simplex."""

    equalities: tuple[LinearAtom, ...]
    nonstrict: tuple[LinearAtom, ...]
    strict: tuple[LinearAtom, ...]

    def atoms(self) -> tuple[LinearAtom, ...]:
        return self.equalities + self.nonstrict + self.strict

    def as_constraint(self) -> ConstraintExpr:
        return and_(*self.atoms())


@dataclass(frozen=True)
class DnfForm:
    systems: tuple[DnfSystem, ...]


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


@lru_cache(maxsize=4096)
def to_dnf(expr: ConstraintExpr) -> DnfForm:
    """Normalize to a union of conjunctive systems; atoms are never
    duplicated inside a system.  Raises on product atoms and when the
    distribution exceeds ``MAX_DISJUNCTS``."""

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

    systems = []
    for cell in build(expr, False):
        cell = tuple(dict.fromkeys(cell))
        eqs = tuple(a for a in cell if a.cmp == "=")
        nonstrict = tuple(a for a in cell if a.cmp in {"<=", ">="})
        strict = tuple(a for a in cell if a.cmp in {"<", ">"})
        systems.append(DnfSystem(eqs, nonstrict, strict))
    return DnfForm(tuple(systems))


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

_NUMBER = re.compile(r"\d+(?:\.\d+)?(?:\s*/\s*\d+)?")
_CMP = ("<=", ">=", "<", ">", "=")


class _Tok:
    def __init__(self, kind: str, value, pos: int):
        self.kind = kind
        self.value = value
        self.pos = pos

    def __repr__(self):
        return f"{self.kind}({self.value})"


def _tokenize_constraint(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("<=", i) or text.startswith(">=", i):
            toks.append(_Tok("cmp", text[i:i + 2], i))
            i += 2
            continue
        if ch in "<>=":
            toks.append(_Tok("cmp", ch, i))
            i += 1
            continue
        if ch in "!&|()+-*":
            toks.append(_Tok(ch, ch, i))
            i += 1
            continue
        m = _NUMBER.match(text, i)
        if m and ch.isdigit():
            raw = m.group().replace(" ", "")
            try:
                if "/" in raw:
                    num, den = raw.split("/")
                    value = Fraction(num) / Fraction(den)
                else:
                    value = Fraction(raw)
            except (ZeroDivisionError, ValueError):
                raise ParseError(f"bad rational literal {raw!r}", i) from None
            toks.append(_Tok("num", value, i))
            i = m.end()
            continue
        m = re.match(r"[A-Za-z_][A-Za-z0-9_-]*", text[i:])
        if m:
            word = m.group()
            if word == "P" and _next_nonspace(text, i + 1) == "(":
                j = text.index("(", i + 1)
                content, end = _balanced(text, j)
                toks.append(_Tok("prob", content, i))
                i = end
                continue
            if word in ("true", "false"):
                toks.append(_Tok(word, word, i))
            else:
                raise ParseError(f"unexpected identifier {word!r}", i)
            i += len(word)
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return toks


def _next_nonspace(text: str, i: int) -> str | None:
    while i < len(text) and text[i].isspace():
        i += 1
    return text[i] if i < len(text) else None


def _balanced(text: str, open_pos: int) -> tuple[str, int]:
    depth = 0
    for k in range(open_pos, len(text)):
        if text[k] == "(":
            depth += 1
        elif text[k] == ")":
            depth -= 1
            if depth == 0:
                return text[open_pos + 1:k], k + 1
    raise ParseError("unbalanced parentheses in probability term", open_pos)


def _split_conditional(content: str) -> tuple[str, str | None]:
    depth = 0
    for k, ch in enumerate(content):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "|" and depth == 0:
            return content[:k], content[k + 1:]
    return content, None


class _ConstraintParser:
    def __init__(self, text: str, space: Space):
        self.text = text
        self.space = space
        self.toks = _tokenize_constraint(text)
        self.i = 0

    def peek(self) -> _Tok | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, kind: str | None = None) -> _Tok:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of constraint", len(self.text))
        if kind is not None and tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.kind}", tok.pos)
        self.i += 1
        return tok

    def parse(self) -> ConstraintExpr:
        expr = self.or_expr()
        if self.peek() is not None:
            raise ParseError(f"unexpected token {self.peek().kind!r}", self.peek().pos)
        return expr

    def or_expr(self) -> ConstraintExpr:
        items = [self.and_expr()]
        while self.peek() is not None and self.peek().kind == "|":
            self.take()
            items.append(self.and_expr())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def and_expr(self) -> ConstraintExpr:
        items = [self.unary()]
        while self.peek() is not None and self.peek().kind == "&":
            self.take()
            items.append(self.unary())
        return items[0] if len(items) == 1 else And(tuple(items))

    def unary(self) -> ConstraintExpr:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of constraint", len(self.text))
        if tok.kind == "!":
            self.take()
            return Not(self.unary())
        if tok.kind == "(":
            self.take()
            inner = self.or_expr()
            closing = self.take()
            if closing.kind != ")":
                raise ParseError("expected ')'", closing.pos)
            return inner
        if tok.kind == "true":
            self.take()
            return TRUE
        if tok.kind == "false":
            self.take()
            return FALSE
        return self.comparison()

    def _rational(self) -> Fraction:
        sign = 1
        if self.peek() is not None and self.peek().kind == "-":
            self.take()
            sign = -1
        tok = self.take("num")
        return sign * tok.value

    def _prob_events(self, tok: _Tok) -> tuple[Event, Event | None]:
        main, cond = _split_conditional(tok.value)
        try:
            f = parse_formula(main)
            g = parse_formula(cond) if cond is not None else None
        except ParseError as exc:
            raise ParseError(str(exc), tok.pos) from None
        try:
            ev = event_of(self.space, f)
            gv = event_of(self.space, g) if g is not None else None
        except KeyError as exc:
            raise ParseError(str(exc.args[0]), tok.pos) from None
        return ev, gv

    def _sum(self) -> tuple[list[tuple[Fraction, Event]], tuple[Event, Event] | None]:
        """Parse a sum of probability terms.

        Returns coefficient/event pairs, or a conditional pair
        (f&g event, g event) when the sum is a sole ``P(f|g)``.
        """
        terms: list[tuple[Fraction, Event]] = []
        first = True
        while True:
            sign = Fraction(1)
            tok = self.peek()
            if tok is not None and tok.kind in {"+", "-"}:
                if first and tok.kind == "+":
                    raise ParseError("unexpected '+'", tok.pos)
                self.take()
                sign = Fraction(-1) if tok.kind == "-" else Fraction(1)
            elif not first:
                break
            coeff = sign
            tok = self.peek()
            if tok is not None and tok.kind == "num":
                coeff = sign * self.take().value
                self.take("*")
            ptok = self.take("prob")
            ev, gv = self._prob_events(ptok)
            if gv is not None:
                if not first or coeff != 1 or self._more_terms():
                    raise ParseError("conditional probabilities only stand alone", ptok.pos)
                return [], (ev & gv, gv)
            terms.append((coeff, ev))
            first = False
            nxt = self.peek()
            if nxt is None or nxt.kind not in {"+", "-"}:
                break
        return terms, None

    def _more_terms(self) -> bool:
        nxt = self.peek()
        return nxt is not None and nxt.kind in {"+", "-"}

    def _lead_is_comparison(self) -> bool:
        """Whether the next tokens form `rational cmp ...` (vs a coefficient)."""
        k = self.i
        if k < len(self.toks) and self.toks[k].kind == "-":
            k += 1
        if k >= len(self.toks) or self.toks[k].kind != "num":
            return False
        return k + 1 < len(self.toks) and self.toks[k + 1].kind == "cmp"

    def comparison(self) -> ConstraintExpr:
        atoms: list[ConstraintExpr] = []
        lead: tuple[Fraction, str] | None = None
        if self._lead_is_comparison():
            r = self._rational()
            c = self.take("cmp").value
            lead = (r, c)
        terms, conditional = self._sum()

        def atom(cmp: str, bound: Fraction) -> LinearAtom:
            if conditional is not None:
                fg, g = conditional
                return LinearAtom(((Fraction(1), fg), (-bound, g)), cmp, Fraction(0))
            return LinearAtom(tuple(terms), cmp, bound)

        if lead is not None:
            # r cmp sum  <=>  sum flipped(cmp) r
            flipped = {"<": ">", "<=": ">=", "=": "=", ">=": "<=", ">": "<"}[lead[1]]
            atoms.append(atom(flipped, lead[0]))
        nxt = self.peek()
        if nxt is not None and nxt.kind == "cmp":
            cmp = self.take().value
            nxt = self.peek()
            if nxt is not None and nxt.kind == "prob":
                if cmp != "=" or conditional is not None or len(terms) != 1 or terms[0][0] != 1:
                    raise ParseError("product atoms have the form P(f) = P(g) * P(h)", nxt.pos)
                b_tok = self.take("prob")
                b_ev, b_cond = self._prob_events(b_tok)
                self.take("*")
                c_tok = self.take("prob")
                c_ev, c_cond = self._prob_events(c_tok)
                if b_cond is not None or c_cond is not None:
                    raise ParseError("product atoms take unconditional terms", b_tok.pos)
                atoms.append(ProductAtom(terms[0][1], (b_ev, c_ev)))
            else:
                atoms.append(atom(cmp, self._rational()))
        if not atoms:
            tok = self.peek()
            raise ParseError("expected a comparison", tok.pos if tok else len(self.text))
        return and_(*atoms)


def parse_constraint(text: str, space: Space) -> ConstraintExpr:
    """Parse constraint text against a space's vocabulary."""
    return _ConstraintParser(text, space).parse()
