"""Differential harness: process runtime vs thread runtime.

Every regression-corpus script and every paper script (S1–S4, LS1,
LS2) is executed twice — once on the in-process :class:`TaskScheduler`
and once on the multiprocess :class:`ProcessScheduler` (forked workers,
wire-format exchanges spilled to disk) — at worker counts 2 and 4, with
the layout property checks on and off (the benchmarks run unchecked).
The process runtime's outputs must equal the :class:`NaiveEvaluator`
oracle's, the two runtimes must be *byte-identical* on canonically
sorted outputs, must agree on every deterministic counter and on the
operator invocation census, must launch every vertex (spool producers
in particular) exactly once, and the process runtime must remove its
spill directory on success.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.api import optimize_script
from repro.exec import Cluster, ProcessScheduler, TaskScheduler
from repro.frontend import compile_text
from repro.naive import NaiveEvaluator
from repro.optimizer.cost import CostParams
from repro.optimizer.engine import OptimizerConfig
from repro.scope.statistics import catalog_from_json
from repro.workloads.datagen import generate_for_catalog
from repro.workloads.large_scripts import make_large_script
from repro.workloads.paper_scripts import PAPER_SCRIPTS

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"
CORPUS_SCRIPTS = sorted(CORPUS_DIR.glob("*.scope"))
MACHINES = 4
#: Worker counts every differential test runs at.  The CI stress job
#: widens this via REPRO_SCHED_WORKERS (e.g. "8" or "2,8").
WORKER_COUNTS = (2, 4)
if os.environ.get("REPRO_SCHED_WORKERS"):
    WORKER_COUNTS = tuple(sorted({
        *WORKER_COUNTS,
        *(int(w) for w in
          os.environ["REPRO_SCHED_WORKERS"].split(",") if w.strip()),
    }))

#: ``validate`` settings: the checked runs are what tests usually see,
#: the unchecked ones what the benchmarks time.  Switching the checks
#: off must change no output byte and no counter.
VALIDATE = pytest.mark.parametrize("validate", [True, False],
                                   ids=["checked", "unchecked"])

#: Deterministic counters that must agree exactly between the thread
#: and process runtimes.  ``simulated_makespan`` is *included*: both
#: runtimes schedule the same tasks over the same partitions, so even
#: the critical-path model must match.  (``worker_deaths`` is included
#: too — it must be zero on both sides of a clean run.)
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
    "simulated_makespan",
    "worker_deaths",
)


def _make_cluster(files, machines=MACHINES):
    cluster = Cluster(machines=machines)
    for path, rows in files.items():
        cluster.load_file(path, rows)
    return cluster


def run_differential(plan, files, workers, validate, machines=MACHINES):
    """Execute ``plan`` on both runtimes; return outputs and metrics."""
    thread = TaskScheduler(
        _make_cluster(files, machines), workers=workers, validate=validate,
    )
    thread_outputs = thread.execute(plan)
    process = ProcessScheduler(
        _make_cluster(files, machines), workers=workers, validate=validate,
    )
    process_outputs = process.execute(plan)
    # Success must leave nothing behind: the run-scoped spill directory
    # is torn down after the manifest commits.
    assert not os.path.exists(process.spill.path), (
        "spill directory survived a successful run"
    )
    return thread_outputs, process_outputs, thread.metrics, process.metrics


def assert_equivalent(thread_outputs, process_outputs, thread_metrics,
                      process_metrics, label, expected):
    assert set(process_outputs) == set(expected), label
    for path, want in expected.items():
        assert process_outputs[path].sorted_rows() == want, (
            f"{label}: output {path} differs from the oracle"
        )
    assert set(thread_outputs) == set(process_outputs), label
    for path in thread_outputs:
        assert (
            thread_outputs[path].canonical_bytes()
            == process_outputs[path].canonical_bytes()
        ), f"{label}: output {path} differs between runtimes"
    for counter in COUNTERS:
        assert getattr(thread_metrics, counter) == getattr(
            process_metrics, counter
        ), f"{label}: counter {counter} diverged"
    assert (
        thread_metrics.operator_invocations
        == process_metrics.operator_invocations
    ), f"{label}: operator invocation counts diverged"
    assert process_metrics.vertices, (
        f"{label}: process runtime recorded no vertices"
    )
    assert set(thread_metrics.vertices) == set(process_metrics.vertices), (
        f"{label}: vertex sets diverged"
    )
    for name, stats in process_metrics.vertices.items():
        assert stats.launches == 1, (
            f"{label}: vertex {name} launched {stats.launches} times"
        )
        assert stats.tasks == thread_metrics.vertices[name].tasks, (
            f"{label}: vertex {name} task count diverged"
        )
    # The whole deterministic label surface — counters, operator census,
    # per-vertex rows — must be equal, not merely the named counters.
    assert thread_metrics.to_labels() == process_metrics.to_labels(), (
        f"{label}: metric labels diverged between runtimes"
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


def corpus_plan(corpus_env, script_path):
    if script_path.name not in _corpus_plans:
        catalog, config, _files = corpus_env
        result = optimize_script(
            script_path.read_text(), catalog, config, exploit_cse=True,
        )
        _corpus_plans[script_path.name] = result.plan
    return _corpus_plans[script_path.name]


@VALIDATE
@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize(
    "script_path", CORPUS_SCRIPTS, ids=[p.stem for p in CORPUS_SCRIPTS]
)
def test_corpus_process_matches_thread(script_path, workers, validate,
                                       corpus_env):
    plan = corpus_plan(corpus_env, script_path)
    catalog, _config, files = corpus_env
    expected = NaiveEvaluator(files).run(
        compile_text(script_path.read_text(), catalog)
    )
    assert_equivalent(
        *run_differential(plan, files, workers, validate),
        label=f"{script_path.stem} workers={workers} validate={validate}",
        expected=expected,
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


@VALIDATE
@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("exploit_cse", [False, True],
                         ids=["conventional", "cse"])
@pytest.mark.parametrize("name", sorted(PAPER_SCRIPTS))
def test_paper_process_matches_thread(name, exploit_cse, workers, validate,
                                      abcd_catalog):
    plan = paper_plan(abcd_catalog, name, exploit_cse)
    files = generate_for_catalog(abcd_catalog, seed=7)
    expected = NaiveEvaluator(files).run(
        compile_text(PAPER_SCRIPTS[name], abcd_catalog)
    )
    assert_equivalent(
        *run_differential(plan, files, workers, validate),
        label=(f"{name} cse={exploit_cse} workers={workers} "
               f"validate={validate}"),
        expected=expected,
    )


# ---------------------------------------------------------------------------
# Large scripts LS1 / LS2
# ---------------------------------------------------------------------------


@VALIDATE
@pytest.mark.parametrize("name", ["LS1", "LS2"])
def test_large_script_process_matches_thread(name, validate):
    """The big DAGs (34 and 151 vertices) stay runtime-identical.

    Data volume is capped; the point here is graph shape (hundreds of
    operators, deep spool nesting, many exchange boundaries crossing
    the wire), not rows.
    """
    text, catalog, _spec = make_large_script(name)
    config = OptimizerConfig(cost_params=CostParams(machines=MACHINES))
    result = optimize_script(text, catalog, config, exploit_cse=True)
    files = generate_for_catalog(catalog, seed=5, rows_override=120)
    expected = NaiveEvaluator(files).run(compile_text(text, catalog))
    assert_equivalent(
        *run_differential(result.plan, files, 4, validate),
        label=f"{name} validate={validate}", expected=expected,
    )
