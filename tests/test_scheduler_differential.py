"""Differential execution harness: vertex scheduler vs sequential executor.

Every regression-corpus script and every paper script (S1–S4, LS1, LS2)
is optimized in both modes and executed twice — once on the sequential
recursive :class:`ColumnarExecutor` and once on the task-parallel
:class:`TaskScheduler` — at worker counts 1 and 4.  The two executions
must be *byte-identical* on canonically sorted outputs, the scheduler
must launch every vertex (spool producers in particular) exactly once,
and the deterministic work counters must agree between both paths.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.api import optimize_script
from repro.exec import (
    Cluster,
    ColumnarExecutor,
    TaskScheduler,
    build_stage_graph,
)
from repro.optimizer.cost import CostParams
from repro.optimizer.engine import OptimizerConfig
from repro.scope.statistics import catalog_from_json
from repro.workloads.datagen import generate_for_catalog
from repro.workloads.large_scripts import make_large_script
from repro.workloads.paper_scripts import PAPER_SCRIPTS
from tests.test_execution_equivalence import EXPECTED_INPUT_FILES

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"
CORPUS_SCRIPTS = sorted(CORPUS_DIR.glob("*.scope"))
MACHINES = 4
#: Worker counts every differential test runs at.  The CI stress job
#: widens this via REPRO_SCHED_WORKERS (e.g. "8" or "2,8,16").
WORKER_COUNTS = (1, 4)
if os.environ.get("REPRO_SCHED_WORKERS"):
    WORKER_COUNTS = tuple(sorted({
        *WORKER_COUNTS,
        *(int(w) for w in
          os.environ["REPRO_SCHED_WORKERS"].split(",") if w.strip()),
    }))

#: Deterministic counters that must agree exactly between the
#: sequential executor and the scheduler.  ``simulated_makespan`` is
#: excluded: per-partition tasks charge each slice's compute separately
#: (a sum) where the sequential executor charges the slowest partition
#: (a max), so the critical-path model legitimately differs.
COUNTERS = (
    "rows_extracted",
    "rows_shuffled",
    "rows_broadcast",
    "rows_spooled",
    "spool_reads",
    "rows_output",
    "rows_sorted",
    "rows_filtered",
    "max_partition_rows",
)


def _make_cluster(files, machines=MACHINES):
    cluster = Cluster(machines=machines)
    for path, rows in files.items():
        cluster.load_file(path, rows)
    return cluster


def run_differential(plan, files, workers, machines=MACHINES):
    """Execute ``plan`` both ways; return (seq, sched outputs, metrics)."""
    sequential = ColumnarExecutor(_make_cluster(files, machines),
                                  validate=True)
    seq_outputs = sequential.execute(plan)
    scheduler = TaskScheduler(
        _make_cluster(files, machines), workers=workers, validate=True
    )
    sched_outputs = scheduler.execute(plan)
    return seq_outputs, sched_outputs, sequential.metrics, scheduler.metrics


def assert_equivalent(seq_outputs, sched_outputs, seq_metrics,
                      sched_metrics, label):
    assert set(seq_outputs) == set(sched_outputs), label
    for path in seq_outputs:
        assert (
            seq_outputs[path].canonical_bytes()
            == sched_outputs[path].canonical_bytes()
        ), f"{label}: output {path} differs between executors"
    for counter in COUNTERS:
        assert getattr(seq_metrics, counter) == getattr(
            sched_metrics, counter
        ), f"{label}: counter {counter} diverged"
    assert (
        seq_metrics.operator_invocations
        == sched_metrics.operator_invocations
    ), f"{label}: operator invocation counts diverged"
    assert sched_metrics.vertices, f"{label}: scheduler recorded no vertices"
    for name, stats in sched_metrics.vertices.items():
        assert stats.launches == 1, (
            f"{label}: vertex {name} launched {stats.launches} times"
        )


# ---------------------------------------------------------------------------
# Regression corpus
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus_env():
    catalog = catalog_from_json((CORPUS_DIR / "catalog.json").read_text())
    config = OptimizerConfig(cost_params=CostParams(machines=MACHINES))
    files = generate_for_catalog(catalog, seed=3)
    return catalog, config, files


_corpus_plans = {}


def corpus_plan(corpus_env, script_path, exploit_cse):
    key = (script_path.name, exploit_cse)
    if key not in _corpus_plans:
        catalog, config, _files = corpus_env
        result = optimize_script(
            script_path.read_text(), catalog, config,
            exploit_cse=exploit_cse,
        )
        _corpus_plans[key] = result.plan
    return _corpus_plans[key]


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("exploit_cse", [False, True],
                         ids=["conventional", "cse"])
@pytest.mark.parametrize(
    "script_path", CORPUS_SCRIPTS, ids=[p.stem for p in CORPUS_SCRIPTS]
)
def test_corpus_scheduler_matches_sequential(script_path, exploit_cse,
                                             workers, corpus_env):
    plan = corpus_plan(corpus_env, script_path, exploit_cse)
    _catalog, _config, files = corpus_env
    assert_equivalent(
        *run_differential(plan, files, workers),
        label=f"{script_path.stem} cse={exploit_cse} workers={workers}",
    )


# ---------------------------------------------------------------------------
# Paper scripts S1–S4
# ---------------------------------------------------------------------------


_paper_plans = {}


def paper_plan(abcd_catalog, name, exploit_cse):
    key = (name, exploit_cse)
    if key not in _paper_plans:
        config = OptimizerConfig(cost_params=CostParams(machines=MACHINES))
        result = optimize_script(
            PAPER_SCRIPTS[name], abcd_catalog, config,
            exploit_cse=exploit_cse,
        )
        _paper_plans[key] = result.plan
    return _paper_plans[key]


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("exploit_cse", [False, True],
                         ids=["conventional", "cse"])
@pytest.mark.parametrize("name", sorted(PAPER_SCRIPTS))
def test_paper_scheduler_matches_sequential(name, exploit_cse, workers,
                                            abcd_catalog):
    plan = paper_plan(abcd_catalog, name, exploit_cse)
    files = generate_for_catalog(abcd_catalog, seed=7)
    assert_equivalent(
        *run_differential(plan, files, workers),
        label=f"{name} cse={exploit_cse} workers={workers}",
    )


# ---------------------------------------------------------------------------
# Large scripts LS1 / LS2
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["LS1", "LS2"])
def test_large_script_scheduler_matches_sequential(name):
    """The big DAGs (34 and 151 vertices) stay differential-identical.

    Data volume is capped; the point here is graph shape (hundreds of
    operators, deep spool nesting), not rows.
    """
    text, catalog, _spec = make_large_script(name)
    config = OptimizerConfig(cost_params=CostParams(machines=MACHINES))
    result = optimize_script(text, catalog, config, exploit_cse=True)
    files = generate_for_catalog(catalog, seed=5, rows_override=120)
    assert_equivalent(
        *run_differential(result.plan, files, workers=4),
        label=f"{name} workers=4",
    )


# ---------------------------------------------------------------------------
# Exactly-once semantics of spools under the scheduler
# ---------------------------------------------------------------------------


class TestSpoolLaunchCounts:
    """The extract-once assertions of test_execution_equivalence, lifted
    from operator counters to the scheduler's vertex launch counts."""

    @pytest.mark.parametrize("name", sorted(PAPER_SCRIPTS))
    def test_spool_vertices_launch_exactly_once(self, name, abcd_catalog):
        plan = paper_plan(abcd_catalog, name, exploit_cse=True)
        graph = build_stage_graph(plan)
        spool_names = {v.name for v in graph.spool_vertices()}
        assert spool_names, f"{name}: CSE plan must contain spool vertices"
        files = generate_for_catalog(abcd_catalog, seed=7)
        scheduler = TaskScheduler(_make_cluster(files), workers=4,
                                  validate=True)
        scheduler.execute(plan)
        for spool in spool_names:
            stats = scheduler.metrics.vertices[spool]
            assert stats.launches == 1, (
                f"{name}: spool vertex {spool} materialized "
                f"{stats.launches} times"
            )
            assert stats.tasks == 1, (
                f"{name}: spool vertex {spool} must not be partition-split"
            )

    @pytest.mark.parametrize("name", sorted(PAPER_SCRIPTS))
    def test_extract_once_under_scheduler(self, name, abcd_catalog):
        plan = paper_plan(abcd_catalog, name, exploit_cse=True)
        files = generate_for_catalog(abcd_catalog, seed=7)
        scheduler = TaskScheduler(_make_cluster(files), workers=4,
                                  validate=True)
        scheduler.execute(plan)
        metrics = scheduler.metrics
        assert (
            metrics.operator_invocations["Extract"]
            == EXPECTED_INPUT_FILES[name]
        ), f"{name}: scheduler re-extracted a shared input"
        extract_vertices = [
            v for v in build_stage_graph(plan).vertices
            if "Extract" in v.op_names
        ]
        assert len(extract_vertices) >= 1
        for vertex in extract_vertices:
            assert metrics.vertices[vertex.name].launches == 1

    @pytest.mark.parametrize("name", sorted(PAPER_SCRIPTS))
    def test_spool_invocations_match_spool_reads(self, name, abcd_catalog):
        plan = paper_plan(abcd_catalog, name, exploit_cse=True)
        files = generate_for_catalog(abcd_catalog, seed=7)
        scheduler = TaskScheduler(_make_cluster(files), workers=4,
                                  validate=True)
        scheduler.execute(plan)
        metrics = scheduler.metrics
        assert (
            metrics.operator_invocations.get("Spool", 0)
            == metrics.spool_reads
        )


# ---------------------------------------------------------------------------
# Stage-graph structure
# ---------------------------------------------------------------------------


class TestStageGraphStructure:
    def test_spools_cut_into_own_vertices(self, abcd_catalog):
        plan = paper_plan(abcd_catalog, "S2", exploit_cse=True)
        graph = build_stage_graph(plan)
        spools = graph.spool_vertices()
        assert len(spools) == 1
        # S2 shares one scan across three consumers.
        assert len(spools[0].consumers) == 3

    def test_dependencies_are_acyclic_and_complete(self, abcd_catalog):
        for name in sorted(PAPER_SCRIPTS):
            graph = build_stage_graph(
                paper_plan(abcd_catalog, name, exploit_cse=True)
            )
            by_vid = {v.vid: v for v in graph.vertices}
            for vertex in graph.vertices:
                for dep in vertex.deps:
                    assert dep in by_vid
                    assert vertex.vid in by_vid[dep].consumers
            # Kahn's algorithm must consume every vertex (acyclicity).
            pending = {v.vid: len(v.deps) for v in graph.vertices}
            ready = [vid for vid, n in pending.items() if n == 0]
            seen = 0
            while ready:
                vid = ready.pop()
                seen += 1
                for consumer in by_vid[vid].consumers:
                    pending[consumer] -= 1
                    if pending[consumer] == 0:
                        ready.append(consumer)
            assert seen == len(graph.vertices), f"{name}: cycle in stage graph"

    def test_render_mentions_every_vertex(self, abcd_catalog):
        graph = build_stage_graph(
            paper_plan(abcd_catalog, "S4", exploit_cse=True)
        )
        text = graph.render()
        for vertex in graph.vertices:
            assert vertex.name in text
