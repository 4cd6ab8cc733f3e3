"""Recursive-descent parser for the SCOPE script subset.

Grammar (EBNF, keywords case-insensitive)::

    script      := statement* EOF
    statement   := assignment | output
    assignment  := IDENT '=' (extract | select ('UNION' 'ALL' select)*) ';'
    extract     := 'EXTRACT' ident_list 'FROM' STRING 'USING' IDENT
    select      := 'SELECT' ['DISTINCT'] ['TOP' NUMBER] select_items
                   'FROM' from_list ['WHERE' expr]
                   ['GROUP' 'BY' ref_list] ['HAVING' expr]
                   ['ORDER' 'BY' ref_list]   (required with TOP)
    select_items:= select_item (',' select_item)*
    select_item := expr ['AS' IDENT]
    from_list   := from_rel (',' from_rel)* join_clause*
    join_clause := (('LEFT' ['OUTER']) | 'INNER')? 'JOIN' from_rel 'ON' expr
    from_rel    := IDENT ['AS' IDENT]
    output      := 'OUTPUT' IDENT 'TO' STRING ['ORDER' 'BY' ref_list] ';'
    expr        := or_expr
    or_expr     := and_expr ('OR' and_expr)*
    and_expr    := not_expr ('AND' not_expr)*
    not_expr    := 'NOT' not_expr | cmp_expr
    cmp_expr    := add_expr (('='|'<>'|'<'|'<='|'>'|'>=') add_expr)?
    add_expr    := mul_expr (('+'|'-') mul_expr)*
    mul_expr    := primary (('*'|'/') primary)*
    primary     := NUMBER | STRING | ref | call | '(' expr ')'
    call        := IDENT '(' ('*' | ['DISTINCT'] expr) ')'
    ref         := IDENT ['.' IDENT]

This covers every script in the paper (S1–S4 verbatim) plus filters,
arithmetic, HAVING and UNION ALL for the examples and workload
generators.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .ast import (
    EBin,
    ECall,
    EExpr,
    ELit,
    ENot,
    ERef,
    ExtractStmt,
    FromRel,
    JoinClause,
    OutputStmt,
    Script,
    SelectItem,
    SelectQuery,
    SelectStmt,
    Statement,
)
from .errors import LexError, ParseError
from .lexer import Token, TokenKind, tokenize

_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")


class Parser:
    """Single-pass recursive-descent parser over a token list."""

    def __init__(self, text: str):
        self._text = text
        try:
            self._tokens = tokenize(text)
        except LexError as exc:
            exc.source = text
            raise
        self._pos = 0

    # -- token helpers ------------------------------------------------

    @property
    def _cur(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        tok = self._cur
        if tok.kind is not TokenKind.EOF:
            self._pos += 1
        return tok

    def _error(self, message: str) -> ParseError:
        tok = self._cur
        return ParseError(f"{message}, found {tok}", tok.line, tok.column,
                          source=self._text)

    def _expect_keyword(self, word: str) -> Token:
        if not self._cur.is_keyword(word):
            raise self._error(f"expected {word}")
        return self._advance()

    def _expect_symbol(self, sym: str) -> Token:
        if not self._cur.is_symbol(sym):
            raise self._error(f"expected {sym!r}")
        return self._advance()

    def _expect_ident(self, what: str = "identifier") -> str:
        if self._cur.kind is not TokenKind.IDENT:
            raise self._error(f"expected {what}")
        return self._advance().value

    def _expect_string(self, what: str = "string literal") -> str:
        if self._cur.kind is not TokenKind.STRING:
            raise self._error(f"expected {what}")
        return self._advance().value

    def _accept_keyword(self, word: str) -> bool:
        if self._cur.is_keyword(word):
            self._advance()
            return True
        return False

    def _accept_symbol(self, sym: str) -> bool:
        if self._cur.is_symbol(sym):
            self._advance()
            return True
        return False

    # -- grammar ------------------------------------------------------

    def parse_script(self) -> Script:
        statements: List[Statement] = []
        while self._cur.kind is not TokenKind.EOF:
            statements.append(self._statement())
        if not statements:
            raise self._error("empty script")
        return Script(statements)

    def _statement(self) -> Statement:
        if self._cur.is_keyword("OUTPUT"):
            return self._output()
        target = self._expect_ident("assignment target")
        self._expect_symbol("=")
        if self._cur.is_keyword("EXTRACT"):
            stmt = self._extract(target)
        elif self._cur.is_keyword("SELECT"):
            stmt = self._select_stmt(target)
        else:
            raise self._error("expected EXTRACT or SELECT")
        self._expect_symbol(";")
        return stmt

    def _output(self) -> OutputStmt:
        self._expect_keyword("OUTPUT")
        source = self._expect_ident("relation name")
        self._expect_keyword("TO")
        path = self._expect_string("output path")
        order = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order.append(self._ref())
            while self._accept_symbol(","):
                order.append(self._ref())
        self._expect_symbol(";")
        return OutputStmt(source, path, tuple(order))

    def _extract(self, target: str) -> ExtractStmt:
        self._expect_keyword("EXTRACT")
        columns = [self._expect_ident("column name")]
        while self._accept_symbol(","):
            columns.append(self._expect_ident("column name"))
        self._expect_keyword("FROM")
        path = self._expect_string("input path")
        self._expect_keyword("USING")
        extractor = self._expect_ident("extractor name")
        return ExtractStmt(target, tuple(columns), path, extractor)

    def _select_stmt(self, target: str) -> SelectStmt:
        queries = [self._select_query()]
        while self._cur.is_keyword("UNION"):
            self._advance()
            self._expect_keyword("ALL")
            queries.append(self._select_query())
        return SelectStmt(target, tuple(queries))

    def _select_query(self) -> SelectQuery:
        self._expect_keyword("SELECT")
        distinct = self._accept_keyword("DISTINCT")
        top = None
        if self._accept_keyword("TOP"):
            if self._cur.kind is not TokenKind.NUMBER:
                raise self._error("expected a row count after TOP")
            top = int(self._advance().value)
        items = [self._select_item()]
        while self._accept_symbol(","):
            items.append(self._select_item())
        self._expect_keyword("FROM")
        from_rels = [self._from_rel()]
        while self._accept_symbol(","):
            from_rels.append(self._from_rel())
        joins = []
        while self._cur.is_keyword("JOIN") or self._cur.is_keyword("LEFT") \
                or self._cur.is_keyword("INNER"):
            joins.append(self._join_clause())
        where = self._expr() if self._accept_keyword("WHERE") else None
        group_by: Tuple[ERef, ...] = ()
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            refs = [self._ref()]
            while self._accept_symbol(","):
                refs.append(self._ref())
            group_by = tuple(refs)
        having = self._expr() if self._accept_keyword("HAVING") else None
        top_order = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            top_order.append(self._ref())
            while self._accept_symbol(","):
                top_order.append(self._ref())
        if top is not None and not top_order:
            raise self._error(
                "SELECT TOP requires an ORDER BY for deterministic results"
            )
        return SelectQuery(
            tuple(items), tuple(from_rels), where, group_by, having, distinct,
            tuple(joins), top, tuple(top_order),
        )

    def _select_item(self) -> SelectItem:
        expr = self._expr()
        alias: Optional[str] = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident("alias")
        return SelectItem(expr, alias)

    def _join_clause(self) -> JoinClause:
        kind = "inner"
        if self._accept_keyword("LEFT"):
            self._accept_keyword("OUTER")
            kind = "left"
        elif self._accept_keyword("INNER"):
            pass
        self._expect_keyword("JOIN")
        rel = self._from_rel()
        self._expect_keyword("ON")
        condition = self._expr()
        return JoinClause(rel, condition, kind)

    def _from_rel(self) -> FromRel:
        name = self._expect_ident("relation name")
        alias: Optional[str] = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident("relation alias")
        return FromRel(name, alias)

    # -- expressions ----------------------------------------------------

    def _expr(self) -> EExpr:
        return self._or_expr()

    def _or_expr(self) -> EExpr:
        left = self._and_expr()
        while self._accept_keyword("OR"):
            left = EBin("OR", left, self._and_expr())
        return left

    def _and_expr(self) -> EExpr:
        left = self._not_expr()
        while self._accept_keyword("AND"):
            left = EBin("AND", left, self._not_expr())
        return left

    def _not_expr(self) -> EExpr:
        if self._accept_keyword("NOT"):
            return ENot(self._not_expr())
        return self._cmp_expr()

    def _cmp_expr(self) -> EExpr:
        left = self._add_expr()
        for op in _COMPARISONS:
            if self._cur.is_symbol(op):
                self._advance()
                return EBin(op, left, self._add_expr())
        return left

    def _add_expr(self) -> EExpr:
        left = self._mul_expr()
        while self._cur.is_symbol("+") or self._cur.is_symbol("-"):
            op = self._advance().value
            left = EBin(op, left, self._mul_expr())
        return left

    def _mul_expr(self) -> EExpr:
        left = self._primary()
        while self._cur.is_symbol("*") or self._cur.is_symbol("/"):
            op = self._advance().value
            left = EBin(op, left, self._primary())
        return left

    def _primary(self) -> EExpr:
        tok = self._cur
        if tok.is_symbol("-"):
            # Unary minus: ``-<number>`` folds into a negative literal,
            # any other operand lowers to ``0 - operand``.
            self._advance()
            if self._cur.kind is TokenKind.NUMBER:
                return ELit(-self._primary().value)
            return EBin("-", ELit(0), self._primary())
        if tok.kind is TokenKind.NUMBER:
            self._advance()
            if "." in tok.value:
                return ELit(float(tok.value))
            return ELit(int(tok.value))
        if tok.kind is TokenKind.STRING:
            self._advance()
            return ELit(tok.value)
        if tok.is_symbol("("):
            self._advance()
            inner = self._expr()
            self._expect_symbol(")")
            return inner
        if tok.kind is TokenKind.IDENT:
            # Either a function call, a qualified ref, or a bare ref.
            name = self._advance().value
            if self._accept_symbol("("):
                if self._accept_symbol("*"):
                    self._expect_symbol(")")
                    return ECall(name, None)
                distinct = self._accept_keyword("DISTINCT")
                arg = self._expr()
                self._expect_symbol(")")
                return ECall(name, arg, distinct)
            if self._accept_symbol("."):
                column = self._expect_ident("column name")
                return ERef(column, qualifier=name)
            return ERef(name)
        raise self._error("expected expression")

    def _ref(self) -> ERef:
        name = self._expect_ident("column reference")
        if self._accept_symbol("."):
            column = self._expect_ident("column name")
            return ERef(column, qualifier=name)
        return ERef(name)


def parse(text: str) -> Script:
    """Parse a SCOPE script into its AST."""
    return Parser(text).parse_script()
