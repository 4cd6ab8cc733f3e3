"""SQL-subset frontend over the shared logical DAG.

A sibling of :mod:`repro.scope`: its own lexer, recursive-descent
parser and compiler covering SELECT / WHERE / JOIN ... ON / GROUP BY +
aggregates / HAVING / ORDER BY / LIMIT / UNION ALL and WITH-clause
CTEs, referencing tables registered in the catalog by name.  The
compiler desugars the SQL AST into SCOPE statements and drives the
SCOPE compiler, so a CTE referenced N times becomes one DAG node with N
parents — exactly the explicitly shared subexpressions of the paper's
Algorithm 1 — and the whole downstream stack (CSE detection, phase-1/2
optimization, verification, plan cache, admission batching, both
runtimes) works unchanged.  See ``docs/sql.md``.
"""

from .ast import CTE, QueryBody, SelectCore, SqlScript, SqlStatement, Star
from .compiler import SQL_EXTRACTOR, compile_sql
from .errors import (
    SqlError,
    SqlLexError,
    SqlParseError,
    SqlResolutionError,
)
from .parser import parse_sql
from .printer import print_script, print_statement

__all__ = [
    "CTE",
    "QueryBody",
    "SQL_EXTRACTOR",
    "SelectCore",
    "SqlError",
    "SqlLexError",
    "SqlParseError",
    "SqlResolutionError",
    "SqlScript",
    "SqlStatement",
    "Star",
    "compile_sql",
    "parse_sql",
    "print_script",
    "print_statement",
]
