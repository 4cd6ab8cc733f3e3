"""Recursive-descent parser for the SQL subset.

Grammar (EBNF, keywords case-insensitive)::

    script      := statement (';' statement)* [';'] EOF
    statement   := ['WITH' cte (',' cte)*] body ['INTO' STRING]
    cte         := IDENT 'AS' '(' body ')'
    body        := core ('UNION' 'ALL' core)*
                   ['ORDER' 'BY' order_list] ['LIMIT' NUMBER]
    core        := 'SELECT' ['DISTINCT'] ('*' | item (',' item)*)
                   'FROM' from_rel (',' from_rel)* join_clause*
                   ['WHERE' expr] ['GROUP' 'BY' ref_list] ['HAVING' expr]
    join_clause := (('LEFT' ['OUTER']) | 'INNER')? 'JOIN' from_rel 'ON' expr
    from_rel    := IDENT [['AS'] IDENT]
    item        := expr [['AS'] IDENT]
    order_list  := ref ['ASC'] (',' ref ['ASC'])*
    expr        := or_expr          (same precedence ladder as SCOPE)
    ref         := IDENT ['.' IDENT]

Restrictions, each with a pointed error message: ``LIMIT`` requires
``ORDER BY`` (deterministic results, mirroring SCOPE's ``SELECT TOP``);
``ORDER BY``/``LIMIT`` cannot follow ``UNION ALL``; ``DESC`` is not
supported; ``*`` must be the only select item; a CTE body takes
``ORDER BY`` only together with ``LIMIT`` (an unlimited ORDER BY on an
intermediate relation is meaningless).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..scope.lexer import Token, TokenKind
from .ast import (
    CTE,
    EBin,
    ECall,
    EExpr,
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
from .errors import SqlLexError, SqlParseError
from .lexer import tokenize

_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")


class SqlParser:
    """Single-pass recursive-descent parser over a token list."""

    def __init__(self, text: str):
        self._text = text
        try:
            self._tokens = tokenize(text)
        except SqlLexError as exc:
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

    def _error(self, message: str) -> SqlParseError:
        tok = self._cur
        return SqlParseError(f"{message}, found {tok}", tok.line,
                             tok.column, source=self._text)

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

    def parse_script(self) -> SqlScript:
        statements: List[SqlStatement] = []
        while self._cur.kind is not TokenKind.EOF:
            statements.append(self._statement())
            if self._cur.kind is TokenKind.EOF:
                break
            self._expect_symbol(";")
        if not statements:
            raise self._error("empty script")
        return SqlScript(statements)

    def _statement(self) -> SqlStatement:
        ctes: List[CTE] = []
        if self._accept_keyword("WITH"):
            ctes.append(self._cte())
            while self._accept_symbol(","):
                ctes.append(self._cte())
        body = self._body()
        into: Optional[str] = None
        if self._accept_keyword("INTO"):
            if self._cur.kind is not TokenKind.STRING:
                raise self._error("expected output path string after INTO")
            into = self._advance().value
        return SqlStatement(body, tuple(ctes), into)

    def _cte(self) -> CTE:
        name = self._expect_ident("CTE name")
        self._expect_keyword("AS")
        self._expect_symbol("(")
        body = self._body()
        self._expect_symbol(")")
        if body.order_by and body.limit is None:
            raise self._error(
                f"CTE {name!r} has ORDER BY without LIMIT; ordering an "
                "intermediate relation has no effect"
            )
        return CTE(name, body)

    def _body(self) -> QueryBody:
        branches = [self._core()]
        while self._cur.is_keyword("UNION"):
            self._advance()
            self._expect_keyword("ALL")
            branches.append(self._core())
        order_by: Tuple[ERef, ...] = ()
        limit: Optional[int] = None
        if self._cur.is_keyword("ORDER") or self._cur.is_keyword("LIMIT"):
            if len(branches) > 1:
                raise self._error(
                    "ORDER BY / LIMIT cannot follow UNION ALL; wrap the "
                    "union in a CTE and select from it"
                )
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by = self._order_list()
        if self._accept_keyword("LIMIT"):
            if self._cur.kind is not TokenKind.NUMBER:
                raise self._error("expected a row count after LIMIT")
            limit = int(self._advance().value)
            if not order_by:
                raise self._error(
                    "LIMIT requires an ORDER BY for deterministic results"
                )
        return QueryBody(tuple(branches), order_by, limit)

    def _order_list(self) -> Tuple[ERef, ...]:
        refs = [self._order_ref()]
        while self._accept_symbol(","):
            refs.append(self._order_ref())
        return tuple(refs)

    def _order_ref(self) -> ERef:
        ref = self._ref()
        if self._cur.is_keyword("DESC"):
            raise self._error("descending ORDER BY is not supported")
        self._accept_keyword("ASC")
        return ref

    def _core(self) -> SelectCore:
        self._expect_keyword("SELECT")
        distinct = self._accept_keyword("DISTINCT")
        if self._accept_symbol("*"):
            items: List[SelectItem] = [SelectItem(Star())]
            if self._cur.is_symbol(","):
                raise self._error("'*' must be the only select item")
        else:
            items = [self._item()]
            while self._accept_symbol(","):
                items.append(self._item())
        self._expect_keyword("FROM")
        from_rels = [self._from_rel()]
        while self._accept_symbol(","):
            from_rels.append(self._from_rel())
        joins: List[JoinClause] = []
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
        return SelectCore(
            tuple(items), tuple(from_rels), tuple(joins), where, group_by,
            having, distinct,
        )

    def _item(self) -> SelectItem:
        expr = self._expr()
        alias: Optional[str] = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident("alias")
        elif self._cur.kind is TokenKind.IDENT:
            alias = self._advance().value
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
        name = self._expect_ident("table or CTE name")
        alias: Optional[str] = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident("relation alias")
        elif self._cur.kind is TokenKind.IDENT:
            alias = self._advance().value
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


def parse_sql(text: str) -> SqlScript:
    """Parse a SQL script into its AST."""
    return SqlParser(text).parse_script()
