"""Compiled vectorized kernels for the columnar executor.

Scalar expressions are compiled once per distinct ``Expr`` into a tight
Python loop over column lists: every sub-expression becomes one
assignment statement and AND/OR become nested ``if`` blocks.  This
preserves the *exact* semantics of ``Expr.evaluate`` (which the
``NaiveEvaluator`` oracle interprets row by row) —

* two-valued NULL comparisons (``NULL = x`` is ``False``),
* NULL-propagating arithmetic (``NULL + x`` is ``None``),
* truthiness coercion and genuine short-circuit for AND/OR/NOT (the
  right operand of ``b <> 0 AND a / b > 2`` is never evaluated on rows
  the left operand rejects, exactly as in ``Expr.evaluate``) —

while eliminating the per-row interpreter overhead (recursive
``evaluate`` calls, per-node dispatch, row-dict lookups).  Compiled
kernels are cached module-wide keyed by the frozen expression
dataclasses, so repeated plans (e.g. through the plan-cache service)
pay compilation once per distinct expression.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ...plan.expressions import (
    Aggregate,
    AggFunc,
    BinaryExpr,
    BinaryOp,
    ColumnRef,
    Expr,
    Literal,
    NotExpr,
    Value,
)

#: ``kernel(columns, n_rows) -> [value, ...]`` — one result per row.
ValueKernel = Callable[[Dict[str, List[Value]], int], List[Value]]
#: ``kernel(columns, n_rows) -> [index, ...]`` — selection vector of the
#: rows where the predicate is truthy, in row order.
SelectKernel = Callable[[Dict[str, List[Value]], int], List[int]]

_PY_OPS = {
    BinaryOp.ADD: "+",
    BinaryOp.SUB: "-",
    BinaryOp.MUL: "*",
    BinaryOp.DIV: "/",
    BinaryOp.EQ: "==",
    BinaryOp.NE: "!=",
    BinaryOp.LT: "<",
    BinaryOp.LE: "<=",
    BinaryOp.GT: ">",
    BinaryOp.GE: ">=",
}


class _Emitter:
    """Collects the loop-body statements of one kernel."""

    def __init__(self):
        self.lines: List[str] = []
        self._temps = 0
        #: column name -> local variable holding the column list
        self.columns: Dict[str, str] = {}

    def temp(self) -> str:
        self._temps += 1
        return f"v{self._temps}"

    def column_var(self, name: str) -> str:
        var = self.columns.get(name)
        if var is None:
            var = f"c{len(self.columns)}"
            self.columns[name] = var
        return var

    def emit(self, indent: int, text: str) -> None:
        # Loop-body statements sit two levels deep in the kernel source.
        self.lines.append("        " + "    " * indent + text)


def _gen(expr: Expr, em: _Emitter, indent: int) -> str:
    """Emit statements computing ``expr`` for row ``i``.

    Returns the source fragment holding the result — a temp variable,
    or an inline constant for literals.
    """
    if isinstance(expr, Literal):
        return repr(expr.value)
    if isinstance(expr, ColumnRef):
        out = em.temp()
        em.emit(indent, f"{out} = {em.column_var(expr.name)}[i]")
        return out
    if isinstance(expr, NotExpr):
        operand = _gen(expr.operand, em, indent)
        out = em.temp()
        em.emit(indent, f"{out} = False if {operand} else True")
        return out
    if isinstance(expr, BinaryExpr):
        op = expr.op
        if op is BinaryOp.AND:
            out = em.temp()
            left = _gen(expr.left, em, indent)
            em.emit(indent, f"if {left}:")
            right = _gen(expr.right, em, indent + 1)
            em.emit(indent + 1, f"{out} = True if {right} else False")
            em.emit(indent, "else:")
            em.emit(indent + 1, f"{out} = False")
            return out
        if op is BinaryOp.OR:
            out = em.temp()
            left = _gen(expr.left, em, indent)
            em.emit(indent, f"if {left}:")
            em.emit(indent + 1, f"{out} = True")
            em.emit(indent, "else:")
            right = _gen(expr.right, em, indent + 1)
            em.emit(indent + 1, f"{out} = True if {right} else False")
            return out
        left = _gen(expr.left, em, indent)
        right = _gen(expr.right, em, indent)
        out = em.temp()
        none_result = "False" if op.is_comparison else "None"
        # NULL checks are folded away for non-NULL literal operands
        # (also avoids `3 is None`, which CPython flags).
        checks = []
        if not (isinstance(expr.left, Literal)
                and expr.left.value is not None):
            checks.append(f"{left} is None")
        if not (isinstance(expr.right, Literal)
                and expr.right.value is not None):
            checks.append(f"{right} is None")
        if checks:
            em.emit(indent, f"if {' or '.join(checks)}:")
            em.emit(indent + 1, f"{out} = {none_result}")
            em.emit(indent, "else:")
            em.emit(indent + 1, f"{out} = {left} {_PY_OPS[op]} {right}")
        else:
            em.emit(indent, f"{out} = {left} {_PY_OPS[op]} {right}")
        return out
    raise TypeError(f"no columnar kernel for {type(expr).__name__}")


def _compile(expr: Expr, tail: Callable[[str], List[str]],
             name: str) -> Callable:
    em = _Emitter()
    result = _gen(expr, em, 0)
    lines = [f"def {name}(columns, n):"]
    for col_name, var in em.columns.items():
        lines.append(f"    {var} = columns[{col_name!r}]")
    lines.append("    out = []")
    lines.append("    append = out.append")
    lines.append("    for i in range(n):")
    lines.extend(em.lines)
    lines.extend(tail(result))
    lines.append("    return out")
    source = "\n".join(lines)
    namespace = {"range": range}
    exec(compile(source, f"<columnar:{name}>", "exec"), namespace)
    kernel = namespace[name]
    kernel.__source__ = source  # introspectable for tests and debugging
    return kernel


_VALUE_KERNELS: Dict[Expr, ValueKernel] = {}
_SELECT_KERNELS: Dict[Expr, SelectKernel] = {}


def compile_value_kernel(expr: Expr) -> ValueKernel:
    """Kernel computing ``expr`` for every row of a batch."""
    kernel = _VALUE_KERNELS.get(expr)
    if kernel is None:
        if isinstance(expr, Literal):
            value = expr.value

            def kernel(columns, n, _value=value):
                return [_value] * n
        else:
            kernel = _compile(
                expr, lambda result: [f"        append({result})"], "_value"
            )
        _VALUE_KERNELS[expr] = kernel
    return kernel


def compile_select_kernel(expr: Expr) -> SelectKernel:
    """Kernel computing the selection vector of predicate ``expr``."""
    kernel = _SELECT_KERNELS.get(expr)
    if kernel is None:
        kernel = _compile(
            expr,
            lambda result: [
                f"        if {result}:",
                "            append(i)",
            ],
            "_select",
        )
        _SELECT_KERNELS[expr] = kernel
    return kernel


# -- aggregation folds ------------------------------------------------------


def aggregate_groups(agg: Aggregate, values: Optional[List[Value]],
                     groups: List[List[int]]) -> List[Value]:
    """Finalized value of ``agg`` for each group of row indices.

    ``values`` is the aggregate argument evaluated for *every* row of
    the batch (``None`` for ``COUNT(*)``).  Folds run left-to-right in
    row order within each group, matching the ``Aggregate.accumulate``
    chain exactly — float sums depend on it.
    """
    func = agg.func
    if func is AggFunc.COUNT:
        if agg.arg is None:
            return [len(indices) for indices in groups]
        return [
            sum(1 for i in indices if values[i] is not None)
            for indices in groups
        ]
    out: List[Value] = []
    if func is AggFunc.SUM:
        for indices in groups:
            state = None
            for i in indices:
                v = values[i]
                if v is not None:
                    state = v if state is None else state + v
            out.append(state)
    elif func is AggFunc.MIN:
        for indices in groups:
            state = None
            for i in indices:
                v = values[i]
                if v is not None:
                    state = v if state is None else min(state, v)
            out.append(state)
    elif func is AggFunc.MAX:
        for indices in groups:
            state = None
            for i in indices:
                v = values[i]
                if v is not None:
                    state = v if state is None else max(state, v)
            out.append(state)
    elif func is AggFunc.AVG:
        for indices in groups:
            total = None
            count = 0
            for i in indices:
                v = values[i]
                if v is not None:
                    total = v if total is None else total + v
                    count += 1
            out.append(None if total is None else total / count)
    else:  # pragma: no cover - exhaustive over AggFunc
        raise TypeError(f"no columnar fold for {func}")
    return out
