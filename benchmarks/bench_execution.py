"""Measured counterpart of Figure 7 — simulated-cluster execution.

The paper evaluates estimated costs only; as additional validation we
*execute* the conventional and CSE plans on the cluster simulator and
compare measured work: rows extracted, rows shipped through exchanges,
rows spooled.  The CSE plans must extract each shared input once and
ship no more data than the conventional plans.

The scheduler benchmarks additionally time the task-parallel vertex
scheduler against the sequential executor (workers 1/4/8) and measure
the wall-time overhead of fault-injected retries.  Speedups are
*measured and reported*, not asserted: operator evaluation is pure
Python, so GIL-bound threads mostly overlap bookkeeping, not compute.
"""

from __future__ import annotations

import time

import pytest

from repro.api import optimize_script
from repro.exec import (
    Cluster,
    ColumnarExecutor,
    FaultInjection,
    RetryPolicy,
    TaskScheduler,
)
from repro.optimizer.cost import CostParams
from repro.optimizer.engine import OptimizerConfig
from repro.workloads.datagen import generate_for_catalog
from repro.workloads.paper_scripts import (
    EXEC_NDV,
    PAPER_SCRIPTS,
    make_exec_catalog,
)

MACHINES = 4


def _make_cluster(files):
    cluster = Cluster(machines=MACHINES)
    for path, rows in files.items():
        cluster.load_file(path, rows)
    return cluster


def execute(script, exploit_cse):
    catalog = make_exec_catalog()
    config = OptimizerConfig(cost_params=CostParams(machines=MACHINES))
    files = generate_for_catalog(catalog, seed=11)
    result = optimize_script(
        PAPER_SCRIPTS[script], catalog, config, exploit_cse=exploit_cse
    )
    cluster = _make_cluster(files)
    executor = ColumnarExecutor(cluster, validate=True)
    executor.execute(result.plan)
    return executor.metrics, result


@pytest.mark.parametrize("script", sorted(PAPER_SCRIPTS))
def test_cse_does_not_increase_measured_work(script):
    base, _ = execute(script, exploit_cse=False)
    cse, _ = execute(script, exploit_cse=True)
    assert cse.rows_extracted <= base.rows_extracted
    assert cse.rows_shuffled <= base.rows_shuffled


def test_print_measured_table(capsys):
    with capsys.disabled():
        print("\n=== Measured execution (4-machine simulator) ===")
        header = (
            f"{'script':<8}{'mode':<14}{'extracted':>11}{'shuffled':>10}"
            f"{'spooled':>9}{'reads':>7}"
        )
        print(header)
        print("-" * len(header))
        for script in sorted(PAPER_SCRIPTS):
            for cse in (False, True):
                metrics, _ = execute(script, cse)
                mode = "cse" if cse else "conventional"
                print(
                    f"{script:<8}{mode:<14}{metrics.rows_extracted:>11,}"
                    f"{metrics.rows_shuffled:>10,}{metrics.rows_spooled:>9,}"
                    f"{metrics.spool_reads:>7}"
                )


@pytest.mark.parametrize("script", ["S1", "S4"])
@pytest.mark.parametrize("cse", [False, True], ids=["conventional", "cse"])
def test_bench_plan_execution(benchmark, script, cse):
    """Wall time of executing the plans on the simulator."""
    catalog = make_exec_catalog()
    config = OptimizerConfig(cost_params=CostParams(machines=MACHINES))
    files = generate_for_catalog(catalog, seed=11)
    result = optimize_script(
        PAPER_SCRIPTS[script], catalog, config, exploit_cse=cse
    )

    def run():
        cluster = Cluster(machines=MACHINES)
        for path, rows in files.items():
            cluster.load_file(path, rows)
        executor = ColumnarExecutor(cluster, validate=False)
        return executor.execute(result.plan)

    outputs = benchmark(run)
    assert outputs


def _timed_run(plan, files, workers, failure_rate=0.0):
    """One execution, returning (wall seconds, retries, outputs)."""
    cluster = _make_cluster(files)
    if workers == 0:
        executor = ColumnarExecutor(cluster, validate=False)
    else:
        executor = TaskScheduler(
            cluster,
            workers=workers,
            validate=False,
            faults=FaultInjection(rate=failure_rate, seed=7),
            retry=RetryPolicy(max_retries=8, backoff=0.0),
        )
    start = time.perf_counter()
    outputs = executor.execute(plan)
    elapsed = time.perf_counter() - start
    return elapsed, executor.metrics.task_retries, outputs


def test_print_scheduler_speedup_table(capsys):
    """Sequential vs parallel wall time, plus retry overhead."""
    catalog = make_exec_catalog()
    config = OptimizerConfig(cost_params=CostParams(machines=MACHINES))
    files = generate_for_catalog(catalog, seed=11)
    with capsys.disabled():
        print("\n=== Scheduler wall time (seconds; best of 3) ===")
        header = (
            f"{'script':<8}{'sequential':>11}{'w=1':>8}{'w=4':>8}"
            f"{'w=8':>8}{'speedup(8)':>11}{'faulty w=4':>11}{'retries':>8}"
        )
        print(header)
        print("-" * len(header))
        for script in sorted(PAPER_SCRIPTS):
            result = optimize_script(
                PAPER_SCRIPTS[script], catalog, config, exploit_cse=True
            )
            times = {}
            for workers in (0, 1, 4, 8):
                times[workers] = min(
                    _timed_run(result.plan, files, workers)[0]
                    for _ in range(3)
                )
            faulty, retries, outputs = _timed_run(
                result.plan, files, workers=4, failure_rate=0.1
            )
            clean = _timed_run(result.plan, files, workers=4)[2]
            assert {
                p: d.sorted_rows() for p, d in outputs.items()
            } == {p: d.sorted_rows() for p, d in clean.items()}
            print(
                f"{script:<8}{times[0]:>11.3f}{times[1]:>8.3f}"
                f"{times[4]:>8.3f}{times[8]:>8.3f}"
                f"{times[0] / times[8]:>10.2f}x"
                f"{faulty:>11.3f}{retries:>8}"
            )


@pytest.mark.parametrize("workers", [1, 4, 8])
def test_bench_scheduler_execution(benchmark, workers):
    """Wall time of the vertex scheduler on the heaviest paper script."""
    catalog = make_exec_catalog()
    config = OptimizerConfig(cost_params=CostParams(machines=MACHINES))
    files = generate_for_catalog(catalog, seed=11)
    result = optimize_script(
        PAPER_SCRIPTS["S4"], catalog, config, exploit_cse=True
    )

    def run():
        cluster = _make_cluster(files)
        executor = TaskScheduler(cluster, workers=workers, validate=False)
        return executor.execute(result.plan)

    outputs = benchmark(run)
    assert outputs
