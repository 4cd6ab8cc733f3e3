"""Differential harness: the columnar executor vs the naive oracle.

Every regression-corpus script and every paper script (S1–S4, LS1, LS2)
is executed on the one physical executor — sequentially and on the
task-parallel scheduler at worker counts 1 and 4 — and every output
must equal what :class:`~repro.naive.NaiveEvaluator` computes from the
unoptimized logical plan, row for row after canonical sorting.  The
scheduler's exactly-once spool semantics must hold, fault-injected runs
must converge to the oracle's rows, and the per-vertex batch counts must
add up to the run's total.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.api import execute_batch, execute_script, optimize_script
from repro.exec import (
    Cluster,
    ColumnarExecutor,
    FaultInjection,
    RetryPolicy,
    TaskScheduler,
    build_stage_graph,
)
from repro.frontend import compile_text
from repro.naive import NaiveEvaluator
from repro.obs import Tracer
from repro.optimizer.cost import CostParams
from repro.optimizer.engine import OptimizerConfig
from repro.scope.statistics import catalog_from_json
from repro.workloads.datagen import generate_for_catalog
from repro.workloads.large_scripts import make_large_script
from repro.workloads.paper_scripts import PAPER_SCRIPTS

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"
CORPUS_SCRIPTS = sorted(CORPUS_DIR.glob("*.scope"))
MACHINES = 4
#: 0 = sequential executor; >=1 = task scheduler with that many workers.
WORKER_COUNTS = (0, 1, 4)


def _make_cluster(files, machines=MACHINES):
    cluster = Cluster(machines=machines)
    for path, rows in files.items():
        cluster.load_file(path, rows)
    return cluster


def run_executor(plan, files, workers, machines=MACHINES):
    """Execute ``plan``; returns (outputs, metrics)."""
    cluster = _make_cluster(files, machines)
    if workers == 0:
        executor = ColumnarExecutor(cluster, validate=True)
    else:
        executor = TaskScheduler(cluster, workers=workers, validate=True)
    outputs = executor.execute(plan)
    return outputs, executor.metrics


def assert_matches_oracle(outputs, expected, label):
    assert set(outputs) == set(expected), label
    for path, want in expected.items():
        assert outputs[path].sorted_rows() == want, (
            f"{label}: output {path} differs from the oracle"
        )


def assert_executor_matches_oracle(plan, files, workers, expected, label,
                                   machines=MACHINES):
    outputs, metrics = run_executor(plan, files, workers, machines)
    assert_matches_oracle(outputs, expected, label)
    assert metrics.batches_processed > 0, f"{label}: no batches counted"
    if workers:
        assert metrics.vertices, f"{label}: no vertex stats recorded"
        for name, stats in metrics.vertices.items():
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
_corpus_expected = {}


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


def corpus_expected(corpus_env, script_path):
    if script_path.name not in _corpus_expected:
        catalog, _config, files = corpus_env
        logical = compile_text(script_path.read_text(), catalog)
        _corpus_expected[script_path.name] = NaiveEvaluator(files).run(
            logical
        )
    return _corpus_expected[script_path.name]


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("exploit_cse", [False, True],
                         ids=["conventional", "cse"])
@pytest.mark.parametrize(
    "script_path", CORPUS_SCRIPTS, ids=[p.stem for p in CORPUS_SCRIPTS]
)
def test_corpus_matches_oracle(script_path, exploit_cse, workers,
                               corpus_env):
    plan = corpus_plan(corpus_env, script_path, exploit_cse)
    _catalog, _config, files = corpus_env
    assert_executor_matches_oracle(
        plan, files, workers, corpus_expected(corpus_env, script_path),
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


def paper_expected(abcd_catalog, name, files):
    logical = compile_text(PAPER_SCRIPTS[name], abcd_catalog)
    return NaiveEvaluator(files).run(logical)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("exploit_cse", [False, True],
                         ids=["conventional", "cse"])
@pytest.mark.parametrize("name", sorted(PAPER_SCRIPTS))
def test_paper_matches_oracle(name, exploit_cse, workers, abcd_catalog):
    plan = paper_plan(abcd_catalog, name, exploit_cse)
    files = generate_for_catalog(abcd_catalog, seed=7)
    assert_executor_matches_oracle(
        plan, files, workers, paper_expected(abcd_catalog, name, files),
        label=f"{name} cse={exploit_cse} workers={workers}",
    )


# ---------------------------------------------------------------------------
# Large scripts LS1 / LS2
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("name", ["LS1", "LS2"])
def test_large_script_matches_oracle(name, workers):
    """The big DAGs (34 and 151 vertices) match the oracle.

    Data volume is capped; the point is graph shape (hundreds of
    operators, deep spool nesting), not rows.
    """
    text, catalog, _spec = make_large_script(name)
    config = OptimizerConfig(cost_params=CostParams(machines=MACHINES))
    result = optimize_script(text, catalog, config, exploit_cse=True)
    files = generate_for_catalog(catalog, seed=5, rows_override=120)
    expected = NaiveEvaluator(files).run(compile_text(text, catalog))
    assert_executor_matches_oracle(
        result.plan, files, workers, expected,
        label=f"{name} workers={workers}",
    )


# ---------------------------------------------------------------------------
# Scheduler features
# ---------------------------------------------------------------------------


class TestSchedulerFeatures:
    def test_fault_injected_run_converges(self, abcd_catalog):
        """Retried tasks produce the oracle's rows — spools replay
        correctly from committed columnar vertex results."""
        plan = paper_plan(abcd_catalog, "S1", exploit_cse=True)
        files = generate_for_catalog(abcd_catalog, seed=7)
        scheduler = TaskScheduler(
            _make_cluster(files), workers=4, validate=True,
            faults=FaultInjection(rate=0.3, seed=11),
            retry=RetryPolicy(max_retries=12),
        )
        faulted_out = scheduler.execute(plan)
        assert scheduler.metrics.task_retries > 0, (
            "fault injection produced no retries; raise the rate"
        )
        assert_matches_oracle(
            faulted_out, paper_expected(abcd_catalog, "S1", files),
            "faulted S1",
        )

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

    def test_serves_attribution_in_batch(self, abcd_catalog):
        """Cross-script sharing (``serves``): the shared vertex runs
        once and serves both scripts."""
        run = execute_batch(
            [PAPER_SCRIPTS["S1"], PAPER_SCRIPTS["S2"]], abcd_catalog,
            workers=4, machines=MACHINES, rows=600, seed=7,
        )
        shared = run.shared_vertices()
        assert shared, "S1+S2 batch must share at least one vertex"
        for vertex in shared:
            stats = run.metrics.vertices[vertex.name]
            assert stats.launches == 1
            labels = {path.split("/", 1)[0] for path in vertex.serves}
            assert len(labels) > 1
        # Both scripts' outputs came out of the one shared run.
        assert len(run.outputs) == 2
        for outputs in run.outputs:
            assert outputs

    @pytest.mark.parametrize("workers", [0, 4])
    def test_span_tree_structure_is_check_independent(self, abcd_catalog,
                                                      workers):
        """The layout property checks are pure observers: switching them
        off must not change the trace shape or its deterministic
        attributes (per-vertex rows, tasks, launches)."""
        files = generate_for_catalog(abcd_catalog, seed=7, rows_override=600)
        structures = {}
        for validate in (True, False):
            tracer = Tracer()
            execute_script(
                PAPER_SCRIPTS["S2"], abcd_catalog,
                workers=workers, machines=MACHINES, files=files,
                validate=validate, tracer=tracer,
            )
            structures[validate] = tracer.root.structure()
        assert structures[True] == structures[False]

    def test_vertex_stats_batches_populated(self, abcd_catalog):
        plan = paper_plan(abcd_catalog, "S1", exploit_cse=True)
        files = generate_for_catalog(abcd_catalog, seed=7)
        scheduler = TaskScheduler(_make_cluster(files), workers=4,
                                  validate=True)
        scheduler.execute(plan)
        stats = scheduler.metrics.vertices
        assert sum(v.batches for v in stats.values()) == \
            scheduler.metrics.batches_processed
        assert any(v.batches > 0 for v in stats.values())
