"""Fault tolerance of the task scheduler.

Seeded fault injection kills task attempts at a configurable rate; the
scheduler must retry them transparently — identical outputs, spools
still materialized once — and fail *structurally* (an
:class:`ExecutionError` naming the vertex) once a task exhausts its
retry budget.  The plan-corruption scenarios of
``test_failure_injection`` are folded in at the end: real invariant
violations must never be retried into silent success.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import optimize_script
from repro.exec import (
    Cluster,
    ColumnarExecutor,
    ExecutionError,
    FaultInjection,
    InjectedFault,
    RetryPolicy,
    TaskScheduler,
    VertexFailedError,
)
from repro.optimizer.cost import CostParams
from repro.optimizer.engine import OptimizerConfig
from repro.plan.physical import PhysRepartition, PhysSpool
from repro.workloads.datagen import generate_for_catalog
from repro.workloads.paper_scripts import PAPER_SCRIPTS, S1
from tests.test_failure_injection import rewrite

MACHINES = 4


_cache = {}


@pytest.fixture
def s1_plan(abcd_catalog):
    if "plan" not in _cache:
        config = OptimizerConfig(cost_params=CostParams(machines=MACHINES))
        _cache["plan"] = optimize_script(
            S1, abcd_catalog, config, exploit_cse=True
        ).plan
    return _cache["plan"]


@pytest.fixture
def s1_files(abcd_catalog):
    if "files" not in _cache:
        _cache["files"] = generate_for_catalog(abcd_catalog, seed=23)
    return _cache["files"]


def _make_cluster(files):
    cluster = Cluster(machines=MACHINES)
    for path, rows in files.items():
        cluster.load_file(path, rows)
    return cluster


def run_scheduled(plan, files, workers=4, rate=0.0, seed=0, max_retries=3,
                  validate=True):
    scheduler = TaskScheduler(
        _make_cluster(files),
        workers=workers,
        validate=validate,
        faults=FaultInjection(rate=rate, seed=seed),
        retry=RetryPolicy(max_retries=max_retries, backoff=0.0),
    )
    outputs = scheduler.execute(plan)
    return outputs, scheduler.metrics


class TestInjectedFaultsConverge:
    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("name", sorted(PAPER_SCRIPTS))
    def test_outputs_unchanged_under_injection(self, name, rate,
                                               abcd_catalog):
        config = OptimizerConfig(cost_params=CostParams(machines=MACHINES))
        plan = optimize_script(
            PAPER_SCRIPTS[name], abcd_catalog, config, exploit_cse=True
        ).plan
        files = generate_for_catalog(abcd_catalog, seed=23)
        clean, _ = run_scheduled(plan, files)
        faulty, metrics = run_scheduled(
            plan, files, rate=rate, seed=42, max_retries=12
        )
        for path in clean:
            assert (
                clean[path].canonical_bytes()
                == faulty[path].canonical_bytes()
            ), f"{name} rate={rate}: injected faults changed {path}"
        # Spools still materialize exactly once even when retried.
        for stats in metrics.vertices.values():
            assert stats.launches == 1

    def test_high_rate_actually_retries(self, s1_plan, s1_files):
        _outputs, metrics = run_scheduled(
            s1_plan, s1_files, rate=0.5, seed=42, max_retries=12
        )
        assert metrics.task_retries > 0
        assert metrics.task_retries == sum(
            s.retries for s in metrics.vertices.values()
        )

    def test_retries_deterministic_across_worker_counts(self, s1_plan,
                                                        s1_files):
        """The fault coin depends on (seed, vertex, part, attempt) only,
        never on scheduling order, so worker count can't change it."""
        summaries = set()
        retries = set()
        for workers in (1, 2, 8):
            _outputs, metrics = run_scheduled(
                s1_plan, s1_files, workers=workers, rate=0.3, seed=7,
                max_retries=12,
            )
            summaries.add(metrics.summary())
            retries.add(metrics.task_retries)
        assert len(summaries) == 1
        assert len(retries) == 1

    def test_sequential_executor_is_never_injected(self, s1_plan, s1_files):
        """Injection lives in the scheduler; ColumnarExecutor has no hook."""
        executor = ColumnarExecutor(_make_cluster(s1_files), validate=True)
        outputs = executor.execute(s1_plan)
        assert outputs


class TestRetryExhaustion:
    def test_certain_failure_raises_structured_error(self, s1_plan,
                                                     s1_files):
        with pytest.raises(VertexFailedError) as err:
            run_scheduled(s1_plan, s1_files, rate=1.0, seed=0, max_retries=2)
        assert err.value.vertex.startswith("V")
        assert err.value.attempts == 3  # initial try + 2 retries
        assert err.value.vertex in str(err.value)
        assert isinstance(err.value, ExecutionError)
        assert isinstance(err.value.__cause__, InjectedFault)

    def test_zero_retry_budget(self, s1_plan, s1_files):
        with pytest.raises(VertexFailedError) as err:
            run_scheduled(s1_plan, s1_files, rate=1.0, seed=0, max_retries=0)
        assert err.value.attempts == 1

    def test_pool_resources_released_after_failure(self, s1_plan, s1_files):
        """A failed run must not leak worker threads or wedge a retry."""
        for _ in range(3):
            with pytest.raises(VertexFailedError):
                run_scheduled(s1_plan, s1_files, rate=1.0, max_retries=1)
        outputs, _ = run_scheduled(s1_plan, s1_files, rate=0.0)
        assert outputs


class TestFaultInjectionUnit:
    def test_coin_is_deterministic(self):
        faults = FaultInjection(rate=0.5, seed=9)
        flips = [faults.should_fail("V01", 2, a) for a in range(20)]
        assert flips == [faults.should_fail("V01", 2, a) for a in range(20)]
        assert any(flips) and not all(flips)

    def test_coin_varies_by_vertex_part_attempt(self):
        faults = FaultInjection(rate=0.5, seed=9)
        outcomes = {
            (v, p, a): faults.should_fail(v, p, a)
            for v in ("V00", "V01")
            for p in (None, 0, 1)
            for a in range(4)
        }
        assert len(set(outcomes.values())) == 2  # both True and False occur

    def test_rate_bounds(self):
        never = FaultInjection(rate=0.0, seed=1)
        always = FaultInjection(rate=1.0, seed=1)
        assert not any(never.should_fail("V00", None, a) for a in range(50))
        assert all(always.should_fail("V00", None, a) for a in range(50))

    def test_backoff_schedule_is_exponential(self):
        retry = RetryPolicy(max_retries=4, backoff=0.01)
        delays = [retry.delay(a) for a in range(5)]
        assert delays[0] == 0.0
        assert delays[1:] == [0.01, 0.02, 0.04, 0.08]


class TestCorruptionsUnderScheduler:
    """The invariant-violation scenarios of ``test_failure_injection``,
    replayed on the scheduler: validation failures are *not* retryable —
    they must surface as ExecutionError, not converge via retries."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_wrong_repartition_columns_detected(self, s1_plan, s1_files,
                                                workers):
        def corrupt(node):
            if isinstance(node.op, PhysRepartition):
                other = ("A",) if "A" not in node.op.columns else ("C",)
                return dataclasses.replace(
                    node, op=PhysRepartition(other, node.op.merge_sort)
                )
            return None

        bad = rewrite(s1_plan, corrupt)
        with pytest.raises(ExecutionError) as err:
            run_scheduled(bad, s1_files, workers=workers, max_retries=5)
        # Invariant violations fail the vertex on the FIRST attempt —
        # they are deterministic, so retrying would only repeat them.
        if isinstance(err.value, VertexFailedError):
            assert err.value.attempts == 1
            assert not isinstance(err.value.__cause__, InjectedFault)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_misclaimed_partitioning_detected(self, s1_plan, s1_files,
                                              workers):
        def corrupt(node):
            if isinstance(node.op, PhysRepartition):
                return dataclasses.replace(node.children[0],
                                           props=node.props)
            return None

        bad = rewrite(s1_plan, corrupt)
        with pytest.raises(ExecutionError):
            run_scheduled(bad, s1_files, workers=workers, max_retries=5)

    def test_corruption_detected_even_with_faults_active(self, s1_plan,
                                                         s1_files):
        """Injected faults retry; real corruption still fails the job."""

        def corrupt(node):
            if isinstance(node.op, PhysRepartition):
                return dataclasses.replace(node.children[0],
                                           props=node.props)
            return None

        bad = rewrite(s1_plan, corrupt)
        with pytest.raises(ExecutionError):
            run_scheduled(bad, s1_files, rate=0.2, seed=3, max_retries=8)

    def test_spool_corruption_names_the_spool_vertex(self, s1_plan,
                                                     s1_files):
        """An error raised inside a spool fragment fails that vertex."""

        def corrupt(node):
            if isinstance(node.op, PhysSpool):
                # Claim a sort order spooled data does not have.
                from repro.plan.properties import SortOrder

                props = dataclasses.replace(
                    node.props, sort_order=SortOrder(("D", "A"))
                )
                return dataclasses.replace(node, props=props)
            return None

        bad = rewrite(s1_plan, corrupt)
        with pytest.raises(ExecutionError):
            run_scheduled(bad, s1_files, max_retries=5)
