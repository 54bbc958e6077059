"""Propositional formulas over finite vocabularies, read to their events.

Grammar: identifiers ``[A-Za-z_][A-Za-z0-9_-]*``, operators ``!`` ``&``
``|`` ``=>`` ``<=>``, parentheses, literals ``true``/``false``.
Precedence ``!`` > ``&`` > ``|`` > ``=>`` > ``<=>``; the arrows associate
to the right.  A symbol is an identifier other than the two literals.

A formula is never built as a tree: `Parser` reads each level of the
grammar straight to its denotation on a space, the bitmask of the
worlds where it holds, so ``!``, ``&``, ``|``, ``=>`` and ``<=>`` are
bitwise operations on masks.  `tokenize` and `Parser` serve both this
grammar and the constraint grammar of `constraints`, whose parser
extends `Parser` and reads the formulas inside ``P(...)`` from the same
token stream.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator

from .errors import ParseError


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


def is_symbol(name: str) -> bool:
    """Whether ``name`` is a string that reads as one identifier other
    than ``true`` and ``false``, so that a formula can name it."""
    m = _LEXEME.fullmatch(name) if isinstance(name, str) else None
    return m is not None and m.group(4) == name and name not in ("true", "false")


class Parser:
    """Recursive descent over `tokenize(text)`: the formula levels, by
    rising precedence iff, implies, disjunction, conjunction, unary,
    each returning the bitmask of the worlds of ``space`` where it holds
    (bit i for world i).

    A name outside the vocabulary reads as the empty mask and is kept in
    ``unknown``, so a syntax error anywhere in the text is raised before
    it; `known` then raises for the least unknown name.

    With ``bar`` set, a ``|`` outside parentheses ends the formula; that
    is how `constraints` reads the conditioning bar of ``P(f | g)``.
    """

    def __init__(self, text: str, space):
        self.text = text
        self.tokens = list(tokenize(text))
        self.i = 0
        self.space = space
        self.full = (1 << len(space.worlds)) - 1
        self.unknown: set[str] = set()

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

    def known(self) -> None:
        """Raise KeyError for the least unknown name read so far."""
        if self.unknown:
            raise KeyError(f"unknown proposition {min(self.unknown)!r}")

    def error(self, expected: str) -> ParseError:
        """A ParseError "expected ..., found ..." at the next token, or at
        the end of the text."""
        if self.i == len(self.tokens):
            return ParseError(f"expected {expected}, found the end", len(self.text))
        _, value, pos = self.tokens[self.i]
        return ParseError(f"expected {expected}, found {str(value)!r}", pos)

    def iff(self, bar: bool = False) -> int:
        left = self.implies(bar)
        if self.peek() == "<=>":
            self.take()
            return self.full ^ left ^ self.iff(bar)
        return left

    def implies(self, bar: bool = False) -> int:
        left = self.disjunction(bar)
        if self.peek() == "=>":
            self.take()
            return (self.full ^ left) | self.implies(bar)
        return left

    def disjunction(self, bar: bool = False) -> int:
        mask = self.conjunction()
        while not bar and self.peek() == "|":
            self.take()
            mask |= self.conjunction()
        return mask

    def conjunction(self) -> int:
        mask = self.unary()
        while self.peek() == "&":
            self.take()
            mask &= self.unary()
        return mask

    def unary(self) -> int:
        if self.peek() not in ("!", "(", "name"):
            raise self.error("a formula")
        kind, value, _ = self.take()
        if kind == "!":
            return self.full ^ self.unary()
        if kind == "(":
            mask = self.iff()
            self.take(")")
            return mask
        if value in ("true", "false"):
            return self.full if value == "true" else 0
        try:
            k = self.space.vocabulary.index(value)
        except KeyError:
            self.unknown.add(value)
            return 0
        return sum(1 << i for i, w in enumerate(self.space.worlds) if w.value(k))
