"""Deterministic regression corpora of knowledge bases and queries.

Used by the KLM property suite, the invariance checks and the CLI's
bundled scenarios.  Everything here is enumerated, not sampled, so the
corpora are stable across runs.  Corpora adapt to the first two symbols
of whatever space they are built over.
"""

from __future__ import annotations

from fractions import Fraction

from .constraints import (
    ConstraintExpr,
    Not,
    TrueExpr,
    parse_constraint,
)
from .spaces import Space, enumerate_worlds

F = Fraction

BOUND_GRID = (F(0), F(1, 8), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1))


def default_space() -> Space:
    return enumerate_worlds(["a", "b"])


def _event_formulas(space: Space) -> list[str]:
    syms = space.vocabulary.symbols
    if len(syms) == 1:
        s = syms[0]
        return [s, f"!{s}"]
    a, b = syms[0], syms[1]
    return [a, b, f"{a} & {b}", f"({a} | {b})", f"!{a}", f"{a} <=> {b}"]


def klm_corpus(space: Space | None = None):
    """(kbs, thetas, lle_pairs): at least 50 closed kbs over a small space.

    Closed constraints only, so entropy maxima are always attained and
    the corpus sits inside every procedure's domain.
    """
    space = space or default_space()
    events = _event_formulas(space)
    kbs: list[ConstraintExpr] = [TrueExpr()]
    for ev in events:
        for cmp, bound in (
            (">=", "1/4"), (">=", "1/2"), ("<=", "3/4"),
            ("<=", "1/2"), ("=", "1/2"), ("=", "1/4"),
        ):
            kbs.append(parse_constraint(f"P({ev}) {cmp} {bound}", space))
    for e1, e2 in zip(events, events[1:]):
        kbs.append(parse_constraint(f"P({e1}) >= 1/4 & P({e2}) <= 3/4", space))
    for ev in events[:3]:
        kbs.append(parse_constraint(f"P({ev}) = 1", space))
    for e1, e2 in zip(events, events[2:]):
        kbs.append(parse_constraint(f"P({e1}) = 1/2 & P({e2}) >= 1/4", space))
    a = events[0]
    ab = events[2] if len(events) > 2 else events[-1]
    either = events[3] if len(events) > 3 else events[0]
    kbs.append(parse_constraint(f"P({a}) = 1 & P({events[1]}) = 1", space))
    kbs.append(parse_constraint(f"P({either}) >= 1/3 & P({ab}) <= 2/3", space))
    kbs.append(parse_constraint(f"P({either}) = 1 & P({a}) >= 1/2", space))
    kbs.append(parse_constraint(f"P({ab}) >= 1/8 & P({ab}) <= 7/8", space))

    thetas = [
        parse_constraint(f"P({a}) >= 1/8", space),
        parse_constraint(f"P({a}) >= 1/4", space),
        parse_constraint(f"P({ab}) <= 7/8", space),
        parse_constraint(f"P({either}) >= 1/8", space),
        parse_constraint(f"P({events[1]}) <= 1", space),
        parse_constraint(f"P({a}) <= 3/4", space),
    ]

    lle_pairs = [
        (parse_constraint(f"P({a}) >= 1/4", space),
         parse_constraint(f"!(P({a}) < 1/4)", space)),
        (parse_constraint(f"P({a}) = 1 & P({events[1]}) = 1", space),
         parse_constraint(f"P({a} & {events[1]}) = 1", space)),
        (kbs[1], Not(Not(kbs[1]))),
        (kbs[2], Not(Not(kbs[2]))),
    ]
    return kbs, thetas, lle_pairs


def factor_kb_templates(space: Space) -> list[ConstraintExpr]:
    """Closed single-cell kbs over one factor (for product-prior corpora)."""
    sym = space.vocabulary.symbols[0]
    texts = [
        "true",
        f"P({sym}) = 3/5",
        f"P({sym}) >= 1/4",
        f"P({sym}) <= 2/3",
        f"P({sym}) >= 1/3 & P({sym}) <= 2/3",
        f"P({sym}) = 1/2",
    ]
    return [parse_constraint(t, space) for t in texts]
