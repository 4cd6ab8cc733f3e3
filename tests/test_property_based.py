"""Property-based tests (hypothesis).

The centerpiece is a random-script generator: arbitrary chains of
filters, aggregations and joins with arbitrary sharing, compiled,
optimized (both conventionally and with the CSE pipeline), executed on
the simulated cluster with runtime property validation ON, and compared
against the naive single-node oracle.  Any planner property bug — wrong
enforcement, broken co-partitioning, bad sort propagation — surfaces as
either an ExecutionError or a result mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import optimize_script
from repro.cse.fingerprint import compute_fingerprints, structurally_equal
from repro.exec import (
    Cluster,
    ColumnarExecutor,
    FaultInjection,
    RetryPolicy,
    TaskScheduler,
)
from repro.naive import NaiveEvaluator
from repro.optimizer.cost import CostParams
from repro.optimizer.engine import OptimizerConfig
from repro.optimizer.memo import Memo
from repro.plan.columns import ColumnType
from repro.plan.properties import (
    Partitioning,
    PartitioningReq,
    SortOrder,
)
from repro.scope.catalog import Catalog
from repro.scope.compiler import compile_script
from repro.verify import verify_plan
from repro.workloads.datagen import generate_rows

KEY_COLUMNS = ("A", "B", "C")


# ---------------------------------------------------------------------------
# Random script generation
# ---------------------------------------------------------------------------


@dataclass
class _Rel:
    name: str
    keys: List[str]  # key columns present
    has_value: bool = True  # whether the V value column is present


@st.composite
def scope_scripts(draw) -> str:
    """A random SCOPE script over test.log with arbitrary sharing.

    Covers filters, differently-keyed aggregations, DISTINCT, TOP-N,
    COUNT(DISTINCT), UNION ALL (including unions of shared branches),
    equi-joins (comma / INNER / LEFT OUTER, including self-sharing
    through the FROM clause) and plain/sorted outputs.
    """
    lines = [
        'R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;',
        "X0 = SELECT A,B,C,D AS V FROM R0;",
    ]
    rels = [_Rel("X0", list(KEY_COLUMNS))]
    n_ops = draw(st.integers(min_value=1, max_value=6))
    for i in range(n_ops):
        parent = rels[draw(st.integers(0, len(rels) - 1))]
        name = f"X{i + 1}"
        kind = draw(
            st.sampled_from(
                ["filter", "groupby", "groupby", "join", "distinct",
                 "top", "countd", "union"]
            )
        )
        if kind == "union":
            other = rels[draw(st.integers(0, len(rels) - 1))]
            shared_keys = sorted(set(parent.keys) & set(other.keys))
            if not shared_keys:
                kind = "filter"
            else:
                has_value = parent.has_value and other.has_value
                cols = ",".join(shared_keys + (["V"] if has_value else []))
                lines.append(
                    f"{name} = SELECT {cols} FROM {parent.name} "
                    f"UNION ALL SELECT {cols} FROM {other.name};"
                )
                rels.append(_Rel(name, shared_keys, has_value))
                continue
        if kind == "join":
            other = rels[draw(st.integers(0, len(rels) - 1))]
            shared_keys = sorted(set(parent.keys) & set(other.keys))
            if (
                not shared_keys
                or other.name == parent.name
                or not (parent.has_value and other.has_value)
            ):
                kind = "filter"
            else:
                key = draw(st.sampled_from(shared_keys))
                ansi = draw(st.sampled_from(["comma", "inner", "left"]))
                if ansi == "comma":
                    lines.append(
                        f"{name} = SELECT {parent.name}.{key} AS {key}, "
                        f"{parent.name}.V AS V, {other.name}.V AS W "
                        f"FROM {parent.name}, {other.name} "
                        f"WHERE {parent.name}.{key} = {other.name}.{key};"
                    )
                else:
                    join_kw = "LEFT OUTER JOIN" if ansi == "left" else "JOIN"
                    lines.append(
                        f"{name} = SELECT {parent.name}.{key} AS {key}, "
                        f"{parent.name}.V AS V, {other.name}.V AS W "
                        f"FROM {parent.name} {join_kw} {other.name} "
                        f"ON {parent.name}.{key} = {other.name}.{key};"
                    )
                rels.append(_Rel(name, [key]))
                continue
        if kind == "filter":
            threshold = draw(st.integers(0, 30))
            filter_col = "V" if parent.has_value else parent.keys[0]
            cols = ",".join(
                parent.keys + (["V"] if parent.has_value else [])
            )
            lines.append(
                f"{name} = SELECT {cols} FROM {parent.name} "
                f"WHERE {filter_col} > {threshold};"
            )
            rels.append(_Rel(name, list(parent.keys), parent.has_value))
        elif kind == "distinct":
            subset_size = draw(st.integers(1, len(parent.keys)))
            keys = sorted(draw(st.permutations(parent.keys))[:subset_size])
            lines.append(
                f"{name} = SELECT DISTINCT {','.join(keys)} "
                f"FROM {parent.name};"
            )
            rels.append(_Rel(name, keys, has_value=False))
        elif kind == "top":
            n = draw(st.integers(1, 12))
            order_col = draw(st.sampled_from(parent.keys))
            cols = ",".join(
                parent.keys + (["V"] if parent.has_value else [])
            )
            lines.append(
                f"{name} = SELECT TOP {n} {cols} FROM {parent.name} "
                f"ORDER BY {order_col};"
            )
            rels.append(_Rel(name, list(parent.keys), parent.has_value))
        elif kind == "countd":
            if len(parent.keys) < 2:
                kind = "filter"
                threshold = draw(st.integers(0, 30))
                filter_col = "V" if parent.has_value else parent.keys[0]
                cols = ",".join(
                    parent.keys + (["V"] if parent.has_value else [])
                )
                lines.append(
                    f"{name} = SELECT {cols} FROM {parent.name} "
                    f"WHERE {filter_col} > {threshold};"
                )
                rels.append(_Rel(name, list(parent.keys), parent.has_value))
            else:
                keys = draw(st.permutations(parent.keys))
                group_key, counted = keys[0], keys[1]
                lines.append(
                    f"{name} = SELECT {group_key},"
                    f"Count(DISTINCT {counted}) AS V "
                    f"FROM {parent.name} GROUP BY {group_key};"
                )
                rels.append(_Rel(name, [group_key]))
        elif kind == "groupby":
            subset_size = draw(st.integers(1, len(parent.keys)))
            keys = sorted(draw(st.permutations(parent.keys))[:subset_size])
            key_list = ",".join(keys)
            value = "Sum(V)" if parent.has_value else "Count(*)"
            lines.append(
                f"{name} = SELECT {key_list},{value} AS V "
                f"FROM {parent.name} GROUP BY {key_list};"
            )
            rels.append(_Rel(name, keys))
    consumed = set()
    for line in lines:
        for rel in rels:
            if f"FROM {rel.name}" in line or f", {rel.name}" in line:
                consumed.add(rel.name)
    outputs = [rel for rel in rels if rel.name not in consumed]
    if not outputs:
        outputs = [rels[-1]]
    for idx, rel in enumerate(outputs):
        if draw(st.booleans()):
            order = ",".join(rel.keys)
            lines.append(
                f'OUTPUT {rel.name} TO "out{idx}.res" ORDER BY {order};'
            )
        else:
            lines.append(f'OUTPUT {rel.name} TO "out{idx}.res";')
    return "\n".join(lines)


def small_catalog() -> Catalog:
    catalog = Catalog()
    catalog.register_file(
        "test.log",
        [(c, ColumnType.INT) for c in ("A", "B", "C", "D")],
        rows=240,
        ndv={"A": 4, "B": 3, "C": 5, "D": 40},
    )
    return catalog


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(script=scope_scripts(), seed=st.integers(0, 3))
def test_random_scripts_execute_correctly(script, seed):
    """Optimized plans (both modes) must equal the oracle, always."""
    catalog = small_catalog()
    stats = catalog.lookup("test.log")
    files = {
        "test.log": generate_rows(
            stats.schema.names,
            stats.rows,
            {c: stats.ndv_of(c) for c in stats.schema.names},
            seed=seed,
        )
    }
    expected = NaiveEvaluator(files).run(compile_script(script, catalog))
    cfg = OptimizerConfig(cost_params=CostParams(machines=3))
    for exploit_cse in (False, True):
        result = optimize_script(script, catalog, cfg, exploit_cse=exploit_cse)
        cluster = Cluster(machines=3)
        cluster.load_file("test.log", files["test.log"])
        outputs = ColumnarExecutor(cluster, validate=True).execute(result.plan)
        for path, want in expected.items():
            assert outputs[path].sorted_rows() == want, (
                f"cse={exploit_cse} differs at {path}\n{script}"
            )


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    script=scope_scripts(),
    workers=st.sampled_from([1, 4]),
    failure_rate=st.sampled_from([0.0, 0.2]),
)
def test_random_scripts_scheduler_equals_sequential(script, workers,
                                                    failure_rate):
    """optimize → verify → parallel-execute, differentially.

    Random plans drive the stage-graph compiler and scheduler through
    arbitrary vertex shapes; the scheduler (with and without fault
    injection) must match the sequential executor byte-for-byte and
    never deadlock — the watchdog turns a stuck run into a hard failure
    instead of a hung test suite.
    """
    catalog = small_catalog()
    stats = catalog.lookup("test.log")
    files = {
        "test.log": generate_rows(
            stats.schema.names,
            stats.rows,
            {c: stats.ndv_of(c) for c in stats.schema.names},
            seed=2,
        )
    }
    cfg = OptimizerConfig(cost_params=CostParams(machines=3))
    result = optimize_script(script, catalog, cfg, exploit_cse=True)
    assert verify_plan(result.plan).ok

    def load():
        cluster = Cluster(machines=3)
        cluster.load_file("test.log", files["test.log"])
        return cluster

    sequential = ColumnarExecutor(load(), validate=True).execute(result.plan)
    scheduler = TaskScheduler(
        load(),
        workers=workers,
        validate=True,
        faults=FaultInjection(rate=failure_rate, seed=13),
        retry=RetryPolicy(max_retries=10, backoff=0.0),
        watchdog=60.0,
    )
    parallel = scheduler.execute(result.plan)
    assert set(sequential) == set(parallel)
    for path in sequential:
        assert (
            sequential[path].canonical_bytes()
            == parallel[path].canonical_bytes()
        ), f"workers={workers} rate={failure_rate} differs at {path}\n{script}"
    for stats_ in scheduler.metrics.vertices.values():
        assert stats_.launches == 1


@settings(max_examples=30, deadline=None)
@given(script=scope_scripts())
def test_every_generated_plan_passes_static_verification(script):
    """Every optimized plan — conventional, CSE, and both CSE phases —
    must pass the full invariant catalog of ``repro.verify``."""
    catalog = small_catalog()
    cfg = OptimizerConfig(cost_params=CostParams(machines=3))
    for exploit_cse in (False, True):
        result = optimize_script(script, catalog, cfg,
                                 exploit_cse=exploit_cse)
        report = verify_plan(result.plan)
        assert report.ok, (
            f"cse={exploit_cse}\n{report.render()}\n{script}"
        )
        result.details.verify_phases()


@settings(max_examples=30, deadline=None)
@given(script=scope_scripts())
def test_cse_never_costs_more_than_conventional(script):
    """The extended optimizer keeps the phase-1 plan as a fallback, so
    its chosen cost can never exceed the conventional optimizer's."""
    catalog = small_catalog()
    cfg = OptimizerConfig(cost_params=CostParams(machines=3))
    base = optimize_script(script, catalog, cfg, exploit_cse=False)
    ext = optimize_script(script, catalog, cfg, exploit_cse=True)
    assert ext.cost <= base.cost * (1 + 1e-9)


@settings(max_examples=30, deadline=None)
@given(script=scope_scripts())
def test_pruning_is_a_semantic_noop(script):
    """Column pruning never changes any output's rows."""
    from repro.plan.pruning import prune_columns

    catalog = small_catalog()
    stats = catalog.lookup("test.log")
    files = {
        "test.log": generate_rows(
            stats.schema.names,
            stats.rows,
            {c: stats.ndv_of(c) for c in stats.schema.names},
            seed=1,
        )
    }
    raw = NaiveEvaluator(files).run(compile_script(script, catalog))
    pruned = NaiveEvaluator(files).run(
        prune_columns(compile_script(script, catalog))
    )
    assert raw == pruned


@settings(max_examples=30, deadline=None)
@given(script=scope_scripts())
def test_structural_equality_implies_equal_fingerprints(script):
    catalog = small_catalog()
    memo = Memo.from_logical_plan(compile_script(script, catalog))
    fps = compute_fingerprints(memo)
    gids = sorted(fps)
    for a in gids:
        for b in gids:
            if a < b and structurally_equal(memo, a, b):
                assert fps[a] == fps[b]


# ---------------------------------------------------------------------------
# Property algebra invariants
# ---------------------------------------------------------------------------

columns_sets = st.sets(st.sampled_from(("A", "B", "C", "D")), min_size=1)


@settings(max_examples=200, deadline=None)
@given(delivered=columns_sets, required=columns_sets)
def test_grouping_satisfaction_is_subset_rule(delivered, required):
    req = PartitioningReq.grouping(required)
    part = Partitioning.hashed(delivered)
    assert req.is_satisfied_by(part) == (delivered <= required)


@settings(max_examples=100, deadline=None)
@given(hi=columns_sets)
def test_concrete_partitionings_all_satisfy(hi):
    req = PartitioningReq.grouping(hi)
    for part in req.concrete_partitionings():
        assert req.is_satisfied_by(part)


@settings(max_examples=100, deadline=None)
@given(hi=st.sets(st.sampled_from("ABCDEF"), min_size=1), cap=st.integers(0, 3))
def test_capped_expansion_subset_of_full(hi, cap):
    req = PartitioningReq.grouping(hi)
    capped = {p.columns for p in req.concrete_partitionings(cap)}
    full = {p.columns for p in req.concrete_partitionings()}
    assert capped <= full
    assert frozenset(hi) in capped  # the upper bound is always kept


orders = st.lists(
    st.sampled_from(("A", "B", "C", "D")), max_size=4, unique=True
).map(lambda cols: SortOrder(tuple(cols)))


@settings(max_examples=200, deadline=None)
@given(a=orders, b=orders, c=orders)
def test_sort_satisfaction_transitive(a, b, c):
    if a.satisfies(b) and b.satisfies(c):
        assert a.satisfies(c)


@settings(max_examples=200, deadline=None)
@given(a=orders, b=orders)
def test_sort_satisfaction_antisymmetric(a, b):
    if a.satisfies(b) and b.satisfies(a):
        assert a == b


@settings(max_examples=200, deadline=None)
@given(a=orders, b=orders)
def test_common_prefix_satisfies_neither_strictly_more(a, b):
    prefix = a.common_prefix(b)
    assert a.satisfies(prefix)
    assert b.satisfies(prefix)


# ---------------------------------------------------------------------------
# Aggregate decomposition invariant
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.integers(-100, 100), min_size=1, max_size=40),
    n_parts=st.integers(1, 5),
    func_name=st.sampled_from(["SUM", "COUNT", "MIN", "MAX"]),
)
def test_local_plus_merge_equals_full(values, n_parts, func_name):
    """Splitting an aggregation over arbitrary partitions is lossless —
    the invariant behind the SplitGroupBy rule."""
    from repro.plan.expressions import Aggregate, AggFunc, ColumnRef

    func = AggFunc[func_name]
    agg = Aggregate(func, ColumnRef("V"), "out")

    def run_full(rows):
        state = agg.init_state()
        for value in rows:
            state = agg.accumulate(state, {"V": value})
        return agg.finalize(state)

    partitions = [values[i::n_parts] for i in range(n_parts)]
    partials = [run_full(part) for part in partitions if part]
    merge = Aggregate(func.merge_func, ColumnRef("P"), "out")
    state = merge.init_state()
    for partial in partials:
        state = merge.accumulate(state, {"P": partial})
    assert merge.finalize(state) == run_full(values)
