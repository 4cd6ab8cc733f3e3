"""Unit tests for the SCOPE lexer and parser."""

import pytest

from repro.scope.ast import (
    EBin,
    ECall,
    ELit,
    ERef,
    ExtractStmt,
    OutputStmt,
    SelectStmt,
)
from repro.scope.errors import LexError, ParseError
from repro.scope.lexer import TokenKind, tokenize
from repro.scope.parser import parse
from repro.workloads.paper_scripts import PAPER_SCRIPTS


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select Select SELECT")
        assert all(t.value == "SELECT" for t in tokens[:-1])
        assert all(t.kind is TokenKind.KEYWORD for t in tokens[:-1])

    def test_identifiers_case_sensitive(self):
        tokens = tokenize("Foo foo")
        assert [t.value for t in tokens[:-1]] == ["Foo", "foo"]

    def test_string_with_backslashes(self):
        tokens = tokenize(r'"...\test.log"')
        assert tokens[0].kind is TokenKind.STRING
        assert tokens[0].value == r"...\test.log"

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_comment_to_end_of_line(self):
        tokens = tokenize("A // comment ; with stuff\nB")
        assert [t.value for t in tokens[:-1]] == ["A", "B"]

    def test_two_char_symbols(self):
        values = [t.value for t in tokenize("<= >= <> < > =")[:-1]]
        assert values == ["<=", ">=", "<>", "<", ">", "="]

    def test_numbers(self):
        tokens = tokenize("42 3.5")
        assert tokens[0].kind is TokenKind.NUMBER
        assert tokens[0].value == "42"
        assert tokens[1].value == "3.5"

    def test_unknown_character(self):
        with pytest.raises(LexError):
            tokenize("A @ B")

    def test_positions(self):
        tokens = tokenize("A\n  B")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)


class TestParser:
    def test_parses_all_paper_scripts(self):
        for name, text in PAPER_SCRIPTS.items():
            script = parse(text)
            assert script.statements, name

    def test_extract_statement(self):
        script = parse('R = EXTRACT A,B FROM "f.log" USING LogExtractor;')
        stmt = script.statements[0]
        assert isinstance(stmt, ExtractStmt)
        assert stmt.columns == ("A", "B")
        assert stmt.path == "f.log"
        assert stmt.extractor == "LogExtractor"

    def test_select_with_group_by(self):
        script = parse("R = SELECT A, Sum(D) AS S FROM R0 GROUP BY A;")
        stmt = script.statements[0]
        assert isinstance(stmt, SelectStmt)
        query = stmt.queries[0]
        assert query.group_by == (ERef("A"),)
        agg = query.items[1]
        assert isinstance(agg.expr, ECall)
        assert agg.alias == "S"

    def test_qualified_references(self):
        script = parse("R = SELECT R1.B, A FROM R1, R2 WHERE R1.B = R2.B;")
        query = script.statements[0].queries[0]
        assert query.items[0].expr == ERef("B", qualifier="R1")
        where = query.where
        assert isinstance(where, EBin)
        assert where.op == "="

    def test_from_alias(self):
        script = parse("R = SELECT X.A FROM T AS X, T AS Y WHERE X.A = Y.A;")
        query = script.statements[0].queries[0]
        assert query.from_rels[0].binding == "X"
        assert query.from_rels[1].binding == "Y"

    def test_union_all(self):
        script = parse(
            "R = SELECT A FROM X UNION ALL SELECT A FROM Y;"
        )
        assert len(script.statements[0].queries) == 2

    def test_output_statement(self):
        script = parse('OUTPUT R TO "result.out";')
        stmt = script.statements[0]
        assert isinstance(stmt, OutputStmt)
        assert stmt.source == "R"
        assert stmt.path == "result.out"

    def test_unary_minus(self):
        query = parse(
            "R = SELECT A FROM X WHERE D > -3 AND B < -C * 2;"
        ).statements[0].queries[0]
        assert query.where == EBin(
            "AND",
            EBin(">", ERef("D"), ELit(-3)),
            EBin("<", ERef("B"),
                 EBin("*", EBin("-", ELit(0), ERef("C")), ELit(2))),
        )

    def test_where_having(self):
        script = parse(
            "R = SELECT A, Count(*) AS C FROM X WHERE D > 3 "
            "GROUP BY A HAVING C > 10;"
        )
        query = script.statements[0].queries[0]
        assert query.where is not None
        assert query.having is not None
        assert query.items[1].expr == ECall("Count", None)

    def test_expression_precedence(self):
        script = parse("R = SELECT A FROM X WHERE A + 1 * 2 = 3 AND B < 4 OR C > 5;")
        where = script.statements[0].queries[0].where
        # Top level must be OR.
        assert isinstance(where, EBin) and where.op == "OR"
        left = where.left
        assert isinstance(left, EBin) and left.op == "AND"
        # A + (1 * 2)
        arith = left.left.left
        assert isinstance(arith, EBin) and arith.op == "+"
        assert isinstance(arith.right, EBin) and arith.right.op == "*"

    def test_parenthesized_expressions(self):
        script = parse("R = SELECT A FROM X WHERE (A + 1) * 2 = 6;")
        where = script.statements[0].queries[0].where
        assert isinstance(where.left, EBin) and where.left.op == "*"

    def test_literal_types(self):
        script = parse('R = SELECT A FROM X WHERE A = 2 AND B = 2.5 AND C = "s";')
        conj = script.statements[0].queries[0].where
        values = []

        def collect(node):
            if isinstance(node, EBin):
                if node.op == "AND":
                    collect(node.left)
                    collect(node.right)
                elif isinstance(node.right, ELit):
                    values.append(node.right.value)

        collect(conj)
        assert values == [2, 2.5, "s"]

    @pytest.mark.parametrize(
        "bad",
        [
            "R = ;",
            "R = SELECT FROM X;",
            "R = SELECT A FROM;",
            'OUTPUT TO "x";',
            "R = EXTRACT FROM \"f\" USING E;",
            "R = SELECT A FROM X",  # missing semicolon
            "",
        ],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse(bad)

    def test_error_reports_position(self):
        with pytest.raises(ParseError) as info:
            parse("R = SELECT A FROM X WHERE ;")
        assert "1:" in str(info.value)
