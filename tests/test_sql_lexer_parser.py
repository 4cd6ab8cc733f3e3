"""Unit tests for the SQL frontend's lexer and parser."""

from __future__ import annotations

import pytest

from repro.sql import parse_sql, print_script, print_statement
from repro.sql.ast import (
    CTE,
    EBin,
    ECall,
    ELit,
    ENot,
    ERef,
    Star,
)
from repro.sql.errors import SqlLexError, SqlParseError
from repro.sql.lexer import tokenize
from repro.scope.lexer import TokenKind


class TestLexer:
    def test_keywords_case_insensitive(self):
        kinds = [(t.kind, t.value) for t in tokenize("select Select SELECT")]
        assert kinds[:3] == [(TokenKind.KEYWORD, "SELECT")] * 3

    def test_identifiers_case_sensitive(self):
        toks = tokenize("CustSk custsk")
        assert [t.value for t in toks[:2]] == ["CustSk", "custsk"]

    def test_not_equal_normalized(self):
        toks = tokenize("a != b <> c")
        symbols = [t.value for t in toks if t.kind is TokenKind.SYMBOL]
        assert symbols == ["<>", "<>"]

    def test_line_comments_and_strings(self):
        toks = tokenize("-- header\nSELECT 'out.txt' -- trailing\n")
        assert [t.kind for t in toks[:-1]] == [
            TokenKind.KEYWORD, TokenKind.STRING,
        ]
        assert toks[1].value == "out.txt"

    def test_unterminated_string(self):
        with pytest.raises(SqlLexError, match="unterminated string"):
            tokenize("SELECT 'oops")

    def test_unexpected_character_position(self):
        with pytest.raises(SqlLexError) as exc:
            tokenize("SELECT a\nFROM @t")
        assert exc.value.line == 2
        assert exc.value.column == 6


class TestParser:
    def test_minimal_select(self):
        script = parse_sql("SELECT A FROM t;")
        (stmt,) = script.statements
        assert stmt.ctes == ()
        assert stmt.into is None
        (core,) = stmt.body.branches
        assert core.items[0].expr == ERef("A")
        assert core.from_rels[0].name == "t"

    def test_full_clause_order(self):
        script = parse_sql(
            "SELECT a, SUM(b) AS total FROM t AS x "
            "JOIN u AS y ON x.k = y.k "
            "WHERE a > 1 GROUP BY a HAVING SUM(b) > 2;"
        )
        (core,) = script.statements[0].body.branches
        assert core.items[1].alias == "total"
        assert core.joins[0].kind == "inner"
        assert core.joins[0].condition == EBin(
            "=", ERef("k", qualifier="x"), ERef("k", qualifier="y")
        )
        assert core.where == EBin(">", ERef("a"), ELit(1))
        assert core.group_by == (ERef("a"),)
        assert core.having == EBin(">", ECall("SUM", ERef("b")), ELit(2))

    def test_left_outer_join(self):
        script = parse_sql("SELECT a FROM t LEFT OUTER JOIN u ON t.k = u.k;")
        assert script.statements[0].body.branches[0].joins[0].kind == "left"

    def test_bare_alias_without_as(self):
        script = parse_sql("SELECT a cnt FROM t x;")
        (core,) = script.statements[0].body.branches
        assert core.items[0].alias == "cnt"
        assert core.from_rels[0].alias == "x"

    def test_star(self):
        (core,) = parse_sql("SELECT * FROM t;").statements[0].body.branches
        assert isinstance(core.items[0].expr, Star)

    def test_star_must_be_alone(self):
        with pytest.raises(SqlParseError, match="only select item"):
            parse_sql("SELECT *, a FROM t;")

    def test_count_star_and_distinct(self):
        (core,) = parse_sql(
            "SELECT COUNT(*) AS n, COUNT(DISTINCT a) AS d FROM t;"
        ).statements[0].body.branches
        assert core.items[0].expr == ECall("COUNT", None)
        assert core.items[1].expr == ECall("COUNT", ERef("a"), True)

    def test_not_and_precedence(self):
        (core,) = parse_sql(
            "SELECT a FROM t WHERE NOT a = 1 AND b = 2 OR c = 3;"
        ).statements[0].body.branches
        assert core.where == EBin(
            "OR",
            EBin(
                "AND",
                ENot(EBin("=", ERef("a"), ELit(1))),
                EBin("=", ERef("b"), ELit(2)),
            ),
            EBin("=", ERef("c"), ELit(3)),
        )

    def test_arithmetic_precedence(self):
        (core,) = parse_sql(
            "SELECT a + b * 2 AS v FROM t;"
        ).statements[0].body.branches
        assert core.items[0].expr == EBin(
            "+", ERef("a"), EBin("*", ERef("b"), ELit(2))
        )

    def test_unary_minus(self):
        (core,) = parse_sql(
            "SELECT -a AS v, 2 - -3 AS w FROM t WHERE -1 < 0;"
        ).statements[0].body.branches
        assert core.items[0].expr == EBin("-", ELit(0), ERef("a"))
        assert core.items[1].expr == EBin("-", ELit(2), ELit(-3))
        assert core.where == EBin("<", ELit(-1), ELit(0))

    def test_union_all(self):
        body = parse_sql(
            "SELECT a FROM t UNION ALL SELECT a FROM u;"
        ).statements[0].body
        assert len(body.branches) == 2

    def test_cte_and_into(self):
        script = parse_sql(
            "WITH x AS (SELECT a FROM t), y AS (SELECT a FROM x) "
            "SELECT a FROM y INTO 'report.out';"
        )
        stmt = script.statements[0]
        assert [c.name for c in stmt.ctes] == ["x", "y"]
        assert stmt.into == "report.out"

    def test_order_by_limit(self):
        body = parse_sql(
            "SELECT a FROM t ORDER BY a, t.b LIMIT 5;"
        ).statements[0].body
        assert body.order_by == (ERef("a"), ERef("b", qualifier="t"))
        assert body.limit == 5

    def test_order_by_asc_accepted(self):
        body = parse_sql("SELECT a FROM t ORDER BY a ASC;").statements[0].body
        assert body.order_by == (ERef("a"),)
        assert body.limit is None

    def test_multiple_statements(self):
        script = parse_sql("SELECT a FROM t; SELECT b FROM u;")
        assert len(script.statements) == 2


class TestParseErrors:
    """Each restriction rejects with a pointed, located message."""

    @pytest.mark.parametrize("text, pattern", [
        ("SELECT a FROM t LIMIT 3;",
         "LIMIT requires an ORDER BY"),
        ("SELECT a FROM t ORDER BY a DESC;",
         "descending ORDER BY is not supported"),
        ("SELECT a FROM t UNION ALL SELECT a FROM u ORDER BY a;",
         "wrap the union in a CTE"),
        ("SELECT a FROM t UNION ALL SELECT a FROM u LIMIT 2;",
         "wrap the union in a CTE"),
        ("WITH x AS (SELECT a FROM t ORDER BY a) SELECT a FROM x;",
         "ORDER BY without LIMIT"),
        ("SELECT a WHERE b = 1;", "expected FROM"),
        ("SELECT FROM t;", "expected expression"),
        ("SELECT a FROM t INTO out;", "expected output path string"),
        ("", "empty script"),
        ("SELECT a FROM t WHERE ;", "expected expression"),
    ])
    def test_rejected(self, text, pattern):
        with pytest.raises(SqlParseError, match=pattern):
            parse_sql(text)

    def test_error_carries_position_and_source(self):
        text = "SELECT a\nFROM t\nLIMIT 3;"
        with pytest.raises(SqlParseError) as exc:
            parse_sql(text)
        assert exc.value.line == 3
        assert exc.value.source == text


class TestPrinterRoundTrip:
    """Spot checks; the exhaustive property lives in test_sql_property."""

    @pytest.mark.parametrize("text", [
        "SELECT a FROM t;",
        "SELECT DISTINCT a, b FROM t;",
        "SELECT COUNT(*) AS n FROM t WHERE NOT a = 1;",
        "SELECT a FROM t AS x LEFT JOIN u AS y ON x.k = y.k;",
        "WITH c AS (SELECT a, SUM(b) AS s FROM t GROUP BY a) "
        "SELECT s FROM c UNION ALL SELECT a FROM c;",
        "SELECT a FROM t ORDER BY a LIMIT 7 INTO 'x.out';",
        "SELECT a FROM t; SELECT b FROM u;",
        "SELECT -a AS v FROM t WHERE b > -3 AND -1 < 0;",
    ])
    def test_round_trip(self, text):
        first = parse_sql(text)
        printed = print_script(first)
        assert parse_sql(printed) == first
        # And the canonical form is a fixed point.
        assert print_script(parse_sql(printed)) == printed

    def test_print_statement_canonical_spelling(self):
        stmt = parse_sql(
            "select a cnt from t x inner join u on x.k = u.k;"
        ).statements[0]
        assert print_statement(stmt) == (
            "SELECT a AS cnt FROM t AS x JOIN u ON (x.k = u.k)"
        )
