"""Property-based round-trip test for the SQL parser and printer.

For any AST the grammar can express, ``parse(print(ast)) == ast`` and
the canonical printed form is a fixed point.  Hypothesis builds ASTs
directly (not text), so the property exercises exactly the structures
the printer claims to normalize — including deep expression nesting the
hand-written tests never reach.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import parse_sql, print_script
from repro.sql.ast import (
    CTE,
    EBin,
    ECall,
    ELit,
    ENot,
    ERef,
    FromRel,
    JoinClause,
    QueryBody,
    SelectCore,
    SelectItem,
    SqlScript,
    SqlStatement,
    Star,
)
from repro.sql.lexer import KEYWORDS

_IDENT_HEAD = "abcdefghijklmnopqrstuvwxyz"
_IDENT_TAIL = _IDENT_HEAD + "_0123456789"


@st.composite
def idents(draw):
    head = draw(st.sampled_from(_IDENT_HEAD))
    tail = draw(st.text(alphabet=_IDENT_TAIL, max_size=6))
    word = head + tail
    if word.upper() in KEYWORDS:
        word += "x"
    return word


def refs():
    return st.builds(
        ERef,
        name=idents(),
        qualifier=st.one_of(st.none(), idents()),
    )


def literals():
    # Integers (negative ones print as a unary minus the parser folds
    # back into the literal) and simple strings; the lexer has no
    # escapes and floats round-trip through repr only for plain decimal
    # spellings.
    return st.builds(
        ELit,
        value=st.one_of(
            st.integers(min_value=-10**6, max_value=10**6),
            st.text(alphabet=_IDENT_TAIL + " ", max_size=8),
        ),
    )


def exprs():
    return st.recursive(
        st.one_of(refs(), literals()),
        lambda children: st.one_of(
            st.builds(
                EBin,
                op=st.sampled_from(
                    ("AND", "OR", "=", "<>", "<", "<=", ">", ">=",
                     "+", "-", "*", "/")
                ),
                left=children,
                right=children,
            ),
            st.builds(ENot, operand=children),
            st.builds(
                ECall,
                func=idents(),
                arg=children,
                distinct=st.booleans(),
            ),
            st.builds(ECall, func=idents(), arg=st.none()),
        ),
        max_leaves=8,
    )


def select_items():
    return st.builds(
        SelectItem, expr=exprs(), alias=st.one_of(st.none(), idents())
    )


def from_rels():
    return st.builds(
        FromRel, name=idents(), alias=st.one_of(st.none(), idents())
    )


def join_clauses():
    return st.builds(
        JoinClause,
        rel=from_rels(),
        condition=exprs(),
        kind=st.sampled_from(("inner", "left")),
    )


@st.composite
def select_cores(draw):
    star = draw(st.booleans())
    if star:
        items = (SelectItem(Star()),)
    else:
        items = tuple(
            draw(st.lists(select_items(), min_size=1, max_size=3))
        )
    return SelectCore(
        items=items,
        from_rels=tuple(draw(st.lists(from_rels(), min_size=1,
                                      max_size=2))),
        joins=tuple(draw(st.lists(join_clauses(), max_size=2))),
        where=draw(st.one_of(st.none(), exprs())),
        group_by=tuple(draw(st.lists(refs(), max_size=2))),
        having=draw(st.one_of(st.none(), exprs())),
        distinct=draw(st.booleans()),
    )


@st.composite
def query_bodies(draw, allow_bare_order=True):
    branches = tuple(draw(st.lists(select_cores(), min_size=1,
                                   max_size=2)))
    order_by = ()
    limit = None
    if len(branches) == 1:
        # LIMIT requires ORDER BY; bare ORDER BY is statement-only.
        shape = draw(st.sampled_from(
            ("plain", "order", "order_limit") if allow_bare_order
            else ("plain", "order_limit")
        ))
        if shape != "plain":
            order_by = tuple(draw(st.lists(refs(), min_size=1,
                                           max_size=2)))
        if shape == "order_limit":
            limit = draw(st.integers(min_value=1, max_value=1000))
    return QueryBody(branches, order_by, limit)


@st.composite
def statements(draw):
    ctes = tuple(
        CTE(draw(idents()), draw(query_bodies(allow_bare_order=False)))
        for _ in range(draw(st.integers(min_value=0, max_value=2)))
    )
    into = draw(st.one_of(
        st.none(),
        st.text(alphabet=_IDENT_TAIL + "./", min_size=1, max_size=10),
    ))
    return SqlStatement(draw(query_bodies()), ctes, into)


def scripts():
    return st.builds(
        SqlScript,
        statements=st.lists(statements(), min_size=1, max_size=3),
    )


@settings(max_examples=60, deadline=None)
@given(scripts())
def test_print_parse_round_trip(script):
    printed = print_script(script)
    reparsed = parse_sql(printed)
    assert reparsed == script


@settings(max_examples=40, deadline=None)
@given(scripts())
def test_canonical_form_is_fixed_point(script):
    printed = print_script(script)
    assert print_script(parse_sql(printed)) == printed
