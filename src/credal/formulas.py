"""Propositional formulas over finite vocabularies.

Grammar: identifiers ``[A-Za-z_][A-Za-z0-9_-]*``, operators ``!`` ``&``
``|`` ``=>`` ``<=>``, parentheses, literals ``true``/``false``.
Precedence ``!`` > ``&`` > ``|`` > ``=>`` > ``<=>``; the arrows associate
to the right.

`tokenize` and `Parser` serve both this grammar and the constraint
grammar of `constraints`, whose parser extends `Parser` and reads the
formulas inside ``P(...)`` from the same token stream.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .errors import ParseError


class Formula:
    __slots__ = ()

    def evaluate(self, truth: Callable[[str], bool]) -> bool:
        raise NotImplementedError

    def symbols(self) -> frozenset[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class Var(Formula):
    name: str

    def evaluate(self, truth):
        return truth(self.name)

    def symbols(self):
        return frozenset((self.name,))

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Const(Formula):
    value: bool

    def evaluate(self, truth):
        return self.value

    def symbols(self):
        return frozenset()

    def __str__(self):
        return "true" if self.value else "false"


TRUE = Const(True)
FALSE = Const(False)


@dataclass(frozen=True)
class Not(Formula):
    child: Formula

    def evaluate(self, truth):
        return not self.child.evaluate(truth)

    def symbols(self):
        return self.child.symbols()

    def __str__(self):
        return f"!{_wrap(self.child)}"


@dataclass(frozen=True)
class And(Formula):
    items: tuple[Formula, ...]

    def evaluate(self, truth):
        return all(f.evaluate(truth) for f in self.items)

    def symbols(self):
        return frozenset().union(*(f.symbols() for f in self.items))

    def __str__(self):
        return " & ".join(_wrap(f) for f in self.items)


@dataclass(frozen=True)
class Or(Formula):
    items: tuple[Formula, ...]

    def evaluate(self, truth):
        return any(f.evaluate(truth) for f in self.items)

    def symbols(self):
        return frozenset().union(*(f.symbols() for f in self.items))

    def __str__(self):
        return " | ".join(_wrap(f) for f in self.items)


@dataclass(frozen=True)
class Implies(Formula):
    antecedent: Formula
    consequent: Formula

    def evaluate(self, truth):
        return (not self.antecedent.evaluate(truth)) or self.consequent.evaluate(truth)

    def symbols(self):
        return self.antecedent.symbols() | self.consequent.symbols()

    def __str__(self):
        return f"{_wrap(self.antecedent)} => {_wrap(self.consequent)}"


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula

    def evaluate(self, truth):
        return self.left.evaluate(truth) == self.right.evaluate(truth)

    def symbols(self):
        return self.left.symbols() | self.right.symbols()

    def __str__(self):
        return f"{_wrap(self.left)} <=> {_wrap(self.right)}"


def _wrap(f: Formula) -> str:
    if isinstance(f, (Var, Const, Not)):
        return str(f)
    return f"({f})"


# The lexemes of both grammars.  Numbers are ``a``, ``a.b``, ``a/b`` and
# ``a.b/c``; ``<=>`` is matched before ``<=`` and ``=>``.
_LEXEME = re.compile(r"\s*(?:(\d+)(?:\.(\d+))?(?:\s*/\s*(\d+))?"
                     r"|([A-Za-z_][A-Za-z0-9_-]*)|(<=>|=>|<=|>=|[<>=!&|()+*-]))")
_SPACE = re.compile(r"\s*")


def tokenize(text: str) -> Iterator[tuple[str, object, int]]:
    """(kind, value, position) per lexeme.  Numbers have kind ``"num"``
    and an exact `Fraction` value, names kind ``"name"``; an operator is
    its own kind and value."""
    pos = 0
    while True:
        m = _LEXEME.match(text, pos)
        if m is None:
            pos = _SPACE.match(text, pos).end()
            if pos < len(text):
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            return
        whole, decimals, denominator, name, op = m.groups()
        if whole is not None:
            decimals = decimals or ""
            try:
                value = Fraction(int(whole + decimals),
                                 10 ** len(decimals) * int(denominator or 1))
            except ZeroDivisionError:
                raise ParseError(f"bad rational literal {m.group(0).strip()!r}",
                                 m.start(1)) from None
            yield "num", value, m.start(1)
        elif name is not None:
            yield "name", name, m.start(4)
        else:
            yield op, op, m.start(5)
        pos = m.end()


class Parser:
    """Recursive descent over `tokenize(text)`: the formula levels, by
    rising precedence iff, implies, disjunction, conjunction, unary.

    With ``bar`` set, a ``|`` outside parentheses ends the formula; that
    is how `constraints` reads the conditioning bar of ``P(f | g)``.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = list(tokenize(text))
        self.i = 0

    def peek(self, ahead: int = 0) -> str | None:
        """The kind of the token ``ahead`` places on, None past the end."""
        k = self.i + ahead
        return self.tokens[k][0] if k < len(self.tokens) else None

    def take(self, kind: str | None = None) -> tuple[str, object, int]:
        if self.i == len(self.tokens) or kind not in (None, self.tokens[self.i][0]):
            raise self.error(repr(kind) if kind else "a token")
        self.i += 1
        return self.tokens[self.i - 1]

    def done(self) -> None:
        if self.i < len(self.tokens):
            raise self.error("the end")

    def error(self, expected: str) -> ParseError:
        """A ParseError "expected ..., found ..." at the next token, or at
        the end of the text."""
        if self.i == len(self.tokens):
            return ParseError(f"expected {expected}, found the end", len(self.text))
        _, value, pos = self.tokens[self.i]
        return ParseError(f"expected {expected}, found {str(value)!r}", pos)

    def iff(self, bar: bool = False) -> Formula:
        left = self.implies(bar)
        if self.peek() == "<=>":
            self.take()
            return Iff(left, self.iff(bar))
        return left

    def implies(self, bar: bool = False) -> Formula:
        left = self.disjunction(bar)
        if self.peek() == "=>":
            self.take()
            return Implies(left, self.implies(bar))
        return left

    def disjunction(self, bar: bool = False) -> Formula:
        items = [self.conjunction()]
        while not bar and self.peek() == "|":
            self.take()
            items.append(self.conjunction())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def conjunction(self) -> Formula:
        items = [self.unary()]
        while self.peek() == "&":
            self.take()
            items.append(self.unary())
        return items[0] if len(items) == 1 else And(tuple(items))

    def unary(self) -> Formula:
        if self.peek() not in ("!", "(", "name"):
            raise self.error("a formula")
        kind, value, _ = self.take()
        if kind == "!":
            return Not(self.unary())
        if kind == "(":
            f = self.iff()
            self.take(")")
            return f
        return TRUE if value == "true" else FALSE if value == "false" else Var(value)


def parse_formula(text: str) -> Formula:
    """Parse ``text`` into a formula tree."""
    parser = Parser(text)
    f = parser.iff()
    parser.done()
    return f


def as_formula(f: Formula | str) -> Formula:
    return parse_formula(f) if isinstance(f, str) else f
