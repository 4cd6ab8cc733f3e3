"""The workloads: inputs from the seed, requests through public APIs.

Every workload leaves the execution backend and scheduler runtime at
the program's defaults, so a later change of a default is measured by
this unchanged code.  Load comes from one client in this one process;
scheduler workers stay at 2 (``nproc`` of the 2-vCPU machine the
bounds in ``BENCHMARK.json`` were set on).

* ``cold_solo`` — ``execute_script`` per request, no plan cache,
  sequential executor: parsing, optimization (phase 1, phase 2, the
  conventional fallback) and execution of one script.
* ``merged_batch`` — one admission window per request holding 2-3
  *different* star-join queries from as many tenants, flushed into a
  fresh ``QueryService`` (cold cache): cross-script merging and phase-2
  round enumeration.
* ``hot_service`` — one long-lived ``QueryService``: plan-cache hits,
  so the executor dominates and the optimizer should move nothing; a
  fixed schedule of statistics refreshes invalidates one dimension's
  dependents.

All three are closed loops that run whole *passes* over their mix, so
every run measures the same mix whatever its seed.
"""

from __future__ import annotations

import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from repro.api import execute_script
from repro.frontend import compile_text
from repro.naive import NaiveEvaluator
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.service import (
    AdmissionConfig,
    AdmissionController,
    ManualClock,
    QueryService,
)
from repro.workloads.datagen import generate_for_catalog
from repro.workloads.large_scripts import make_large_script
from repro.workloads.paper_scripts import PAPER_SCRIPTS, make_exec_catalog
from repro.workloads.starjoin import (
    SCOPE_EQUIVALENTS,
    STARJOIN_QUERIES,
    generate_starjoin_data,
    make_starjoin_catalog,
)

from harness import (
    Request,
    RunSummary,
    closed_loop,
    outputs_match,
    percentile,
    replay,
    timed_setup,
)
from tracing import LAYERS, TraceProfile, instrument

#: Scheduler workers where a workload uses the scheduler.
WORKERS = 2
#: Fact rows of the star-join data in the cold and merged mixes.
STAR_SALES = 6_000
#: Fact rows behind the long-lived service (execution-bound).
HOT_SALES = 10_000
#: Rows per generated log file when LS1's plan is executed.
LS_ROWS = 2_000
#: The verbatim-CTE pair every merged batch carries.
CTE_PAIR = ("q02_band_revenue", "q07_band_units")
#: Largest merged batch, and the admission controller's ``max_batch``.
#: Merging all 10 star-join queries takes ~40 s to optimize, four up to
#: 3 s: too long to repeat every batch several times within one run.
MAX_BATCH = 3
#: The dimension whose statistics the hot service refreshes.
HOT_WRITE_PATH = "date_dim.log"


def star_data(seed: int, n_sales: int) -> Dict[str, list]:
    """The star schema: fixed dimensions, ``n_sales`` fact rows from
    ``seed``.

    The dimension tables are the corpus's own (seed 0).  Re-drawing
    them per seed changes the statistics that steer plan search and
    moves merged-batch optimize time by a quarter between seeds.
    """
    data = generate_starjoin_data(n_sales=0, seed=0)
    sales = generate_starjoin_data(n_sales=n_sales, seed=seed)
    data["store_sales.log"] = sales["store_sales.log"]
    return data


def batch_family(names: Sequence[str]) -> List[List[str]]:
    """Every batch of one merged_batch pass: 9 batches of 2-3 queries.

    Each batch is the verbatim-CTE pair plus a cyclic window of 0 to
    ``MAX_BATCH - 2`` of the other queries (in name order), one window
    per start position and size, so every query rides in every batch
    size equally often.  Which queries meet in one batch swings its
    optimize time from 0.1 s to 10 s, so the family is fixed and the
    seed draws the order.
    """
    others = [n for n in sorted(names) if n not in CTE_PAIR]
    batches = [list(CTE_PAIR)]
    for extra in range(1, MAX_BATCH - len(CTE_PAIR) + 1):
        for start in range(len(others)):
            batches.append(list(CTE_PAIR) + [
                others[(start + j) % len(others)] for j in range(extra)])
    return batches


# -- per-request counts -----------------------------------------------------


def optimization_counts(details) -> Dict[str, float]:
    """Counts of one fresh optimization, from its public result object."""
    stats = details.engine.stats
    shared = len(details.report.shared_groups)
    return {
        "optimizations": 1,
        "rounds": stats.rounds,
        "groups_optimized": stats.groups_optimized,
        "shared_groups": shared,
        "phase2_runs": 1 if shared else 0,
        "phase2_wins": 1 if details.chosen_phase == 2 else 0,
        "fallback_wins": 1 if details.plan_memo is not details.memo else 0,
    }


def execution_counts(metrics) -> Dict[str, float]:
    """Counts of one execution, from its ``ExecutionMetrics``."""
    return {
        "vertices": len(metrics.vertices),
        "tasks": sum(v.tasks for v in metrics.vertices.values()),
        "task_retries": metrics.task_retries,
        "rows_shuffled": metrics.rows_shuffled,
        "rows_spooled": metrics.rows_spooled,
    }


def service_counts(service: QueryService) -> Dict[str, float]:
    """Plan-cache counters, from ``stats_snapshot()``."""
    snap = service.stats_snapshot()
    return {
        "cache_lookups": snap["cache_lookups"],
        "cache_hits": snap["cache_hits"],
        "submits": snap["submits"],
        "service_optimizations": snap["optimizations"],
    }


def _add(into: Dict[str, float], more: Dict[str, float]) -> None:
    for key, value in more.items():
        into[key] = into.get(key, 0) + value


@dataclass
class Script:
    """One script with its inputs and its oracle answer."""

    name: str
    text: str
    catalog: object
    files: Dict[str, list]
    expected: Dict[str, list] = field(default_factory=dict)

    def solve(self) -> "Script":
        """Compute the ``NaiveEvaluator`` answer (set-up time)."""
        logical = compile_text(self.text, self.catalog)
        self.expected = NaiveEvaluator(self.files).run(logical)
        return self


def _report_failure(what: str) -> None:
    print(f"request failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class PassSchedule:
    """Lazily drawn passes; ``schedule[i]`` is request ``i``'s payload."""

    def __init__(self, draw_pass: Callable[[random.Random], list],
                 seed: int):
        self._draw = draw_pass
        self._seed = seed
        self.items: list = []
        #: Index of the first request of each pass drawn so far.
        self.starts: List[int] = []

    def __getitem__(self, index: int):
        while index >= len(self.items):
            rng = random.Random(self._seed * 1_000_003 + len(self.starts))
            self.starts.append(len(self.items))
            self.items.extend(self._draw(rng))
        return self.items[index]

    def position(self, index: int) -> int:
        """Request ``index``'s position within its pass."""
        self[index]
        return index - max(s for s in self.starts if s <= index)


class ClosedLoop:
    """A closed-loop workload: a seeded sequence of passes over a mix.

    Subclasses build the world and ``self.schedule`` in :meth:`build`
    and perform request ``i`` in :meth:`request`.  The traced run
    measures the first half of the time untraced, then replays exactly
    the same requests traced, so the difference (at the host's reference
    speed) is the tracing overhead.
    """

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.world = None
        self.schedule: PassSchedule = None
        self.tracer = NULL_TRACER
        #: Result-object counts summed over the traced replay.
        self.counts: Dict[str, float] = {}

    def build(self):
        raise NotImplementedError

    def request(self, index: int) -> Callable[[], Request]:
        raise NotImplementedError

    def before_replay(self) -> None:
        """Hook: attach the tracer to long-lived objects."""

    def layer_extras(self) -> Dict[str, Tuple[float, str]]:
        return {}

    def run(self, seconds: float, trace: bool,
            whole_passes: bool = True) -> RunSummary:
        """Measure for ``seconds``; ``whole_passes=False`` (smoke mode)
        stops after the first request past the time instead of at the
        end of the pass."""
        self.world, setup_s = timed_setup(self.build)
        if whole_passes:
            def pass_starts(index: int) -> bool:
                return self.schedule.position(index) == 0
        else:
            pass_starts = bool
        if not trace:
            records, _ = closed_loop(self.request, seconds, pass_starts)
            return RunSummary(records, setup_s)
        plain, order = closed_loop(self.request, seconds / 2, pass_starts)
        tracer = Tracer()
        self.tracer = tracer
        self.before_replay()

        def around(thunk):
            with tracer.span("request"):
                return thunk()

        with instrument(tracer):
            traced = replay(self.request, order, around)
        profile = TraceProfile(tracer.roots)
        plain_s = sum(r.scaled_s for r in plain)
        traced_s = sum(r.scaled_s for r in traced)
        summary = RunSummary(plain + traced, setup_s)
        summary.layers = layer_metrics(
            profile, self.counts, len(order),
            overhead_pct=100.0 * (traced_s - plain_s) / plain_s,
            extras=self.layer_extras(),
        )
        summary.notes.extend(profile_notes(self.name, profile))
        return summary


# -- cold_solo ----------------------------------------------------------------


class ColdSolo(ClosedLoop):
    """``execute_script`` per request: no plan cache, sequential."""

    name = "cold_solo"

    def build(self):
        data = star_data(self.seed, STAR_SALES)
        star_catalog, _ = make_starjoin_catalog(data)
        scripts = [Script(name, text, star_catalog, data)
                   for name, text in sorted(STARJOIN_QUERIES.items())]
        exec_catalog = make_exec_catalog()
        exec_files = generate_for_catalog(exec_catalog, seed=self.seed)
        scripts += [Script(name, text, exec_catalog, exec_files)
                    for name, text in sorted(PAPER_SCRIPTS.items())]
        ls_text, ls_catalog, _ = make_large_script("LS1")
        ls_files = generate_for_catalog(ls_catalog, seed=self.seed,
                                        rows_override=LS_ROWS)
        scripts.append(Script("LS1", ls_text, ls_catalog, ls_files))
        for script in scripts:
            script.solve()
        warm = scripts[0]
        execute_script(warm.text, warm.catalog, files=warm.files)
        self.schedule = PassSchedule(
            lambda rng: rng.sample(scripts, len(scripts)), self.seed)
        return scripts

    def request(self, index: int) -> Callable[[], Request]:
        script = self.schedule[index]

        def thunk() -> Request:
            started = time.perf_counter()
            try:
                run = execute_script(script.text, script.catalog,
                                     files=script.files, tracer=self.tracer)
            except Exception:
                _report_failure(script.name)
                return Request(time.perf_counter() - started, 1,
                               script.name, failed=1)
            latency = time.perf_counter() - started
            if self.tracer.enabled:
                _add(self.counts,
                     optimization_counts(run.optimization.details))
                _add(self.counts, execution_counts(run.metrics))
            return Request(
                latency, 1, script.name,
                wrong=0 if outputs_match(run.outputs, script.expected)
                else 1,
                rows=run.metrics.rows_processed(),
                est_cost=run.optimization.cost,
            )
        return thunk


# -- merged_batch -------------------------------------------------------------


class MergedBatch(ClosedLoop):
    """One admission window of different scripts per request.

    Each script of the batch is submitted by its own tenant with
    ``AdmissionController.submit_nowait``; the benchmark then closes the
    window (``flush`` on a manual clock), the controller merges the
    window into one DAG and runs it through a fresh
    ``QueryService.execute_many``, and every ticket is routed its own
    outputs.
    """

    name = "merged_batch"

    def __init__(self, seed: int):
        super().__init__(seed)
        #: Traced replay: each script's wait for its window to close,
        #: and the controllers' counters summed.
        self.waits_ms: List[float] = []
        self.admission: Dict[str, float] = {}

    def build(self):
        data = star_data(self.seed, STAR_SALES)
        catalog, _ = make_starjoin_catalog(data)
        scripts = {name: Script(name, text, catalog, data).solve()
                   for name, text in STARJOIN_QUERIES.items()}
        self.world = catalog, data, scripts
        self.window(list(CTE_PAIR))
        family = batch_family(scripts)
        self.schedule = PassSchedule(
            lambda rng: rng.sample(family, len(family)), self.seed)
        return self.world

    def request(self, index: int) -> Callable[[], Request]:
        batch = self.schedule[index]
        return lambda: self.window(batch)

    def window(self, batch: List[str]) -> Request:
        catalog, data, scripts = self.world
        kind = "+".join(batch)
        started = time.perf_counter()
        try:
            service = QueryService(catalog, tracer=self.tracer)
            controller = AdmissionController(
                service, clock=ManualClock(), workers=WORKERS, files=data,
                config=AdmissionConfig(max_batch=MAX_BATCH))
            submitted = []
            for tenant, name in enumerate(batch):
                at = time.perf_counter()
                ticket = controller.submit_nowait(scripts[name].text,
                                                  tenant=f"tenant{tenant}")
                submitted.append((at, name, ticket))
            closed = time.perf_counter()
            controller.flush()
            results = [(name, ticket.result(timeout=0))
                       for _, name, ticket in submitted]
        except Exception:
            _report_failure(kind)
            return Request(time.perf_counter() - started, len(batch), kind,
                           failed=len(batch))
        latency = time.perf_counter() - started
        wrong = sum(
            0 if outputs_match(result.outputs, scripts[name].expected) else 1
            for name, result in results
        )
        run = results[0][1].run
        if self.tracer.enabled:
            self.waits_ms += [1000.0 * (closed - at)
                              for at, _, _ in submitted]
            _add(self.admission, controller.stats_snapshot())
            _add(self.counts, optimization_counts(run.submit.result.details))
            _add(self.counts, execution_counts(run.metrics))
            _add(self.counts, service_counts(service))
        return Request(latency, len(batch), kind, wrong=wrong,
                       rows=run.metrics.rows_processed(),
                       est_cost=run.submit.result.cost)

    def layer_extras(self) -> Dict[str, Tuple[float, str]]:
        stats = self.admission
        return {
            "admission.queue_wait_p50_ms": (percentile(self.waits_ms, 50),
                                            "ms"),
            "admission.queue_wait_p90_ms": (percentile(self.waits_ms, 90),
                                            "ms"),
            "admission.scripts_per_window": (
                stats["executed_scripts"] / stats["windows"], "count"),
            "admission.dedup_ratio": (
                stats["deduped"] / stats["submits"], "ratio"),
            "admission.rejected": (stats["rejected"], "count"),
        }


# -- hot_service --------------------------------------------------------------


class HotService(ClosedLoop):
    """One long-lived ``QueryService``: warm plan cache, execution-bound."""

    name = "hot_service"

    def build(self):
        data = star_data(self.seed, HOT_SALES)
        catalog, _ = make_starjoin_catalog(data)
        scripts = [Script(name, text, catalog, data).solve()
                   for name, text in sorted(STARJOIN_QUERIES.items())]
        scripts += [Script(f"{name}.scope", text, catalog, data).solve()
                    for name, text in sorted(SCOPE_EQUIVALENTS.items())]
        service = QueryService(catalog)
        for script in scripts:
            service.submit(script.text)
        service.execute(scripts[0].text, files=data)
        # One statistics refresh per pass, at a seeded position: the
        # next request for each dependent script optimizes again.
        self.write_at = random.Random(self.seed).randrange(len(scripts))
        self.write_rows = catalog.lookup(HOT_WRITE_PATH).rows
        self.writes = self.invalidated = 0
        self.schedule = PassSchedule(
            lambda rng: rng.sample(scripts, len(scripts)), self.seed)
        return service, data

    def before_replay(self) -> None:
        service, _ = self.world
        service.tracer = self.tracer
        self.before = service_counts(service)
        self.writes = self.invalidated = 0

    def request(self, index: int) -> Callable[[], Request]:
        service, data = self.world
        script = self.schedule[index]
        write = self.schedule.position(index) == self.write_at

        def thunk() -> Request:
            if write:
                self.invalidated += service.update_statistics(
                    HOT_WRITE_PATH, rows=self.write_rows)
                self.writes += 1
            started = time.perf_counter()
            try:
                run = service.execute(script.text, files=data)
            except Exception:
                _report_failure(script.name)
                return Request(time.perf_counter() - started, 1,
                               script.name, failed=1)
            latency = time.perf_counter() - started
            if self.tracer.enabled:
                if not run.submit.cache_hit:
                    _add(self.counts, optimization_counts(
                        run.submit.result.details))
                _add(self.counts, execution_counts(run.metrics))
            return Request(
                latency, 1, script.name,
                wrong=0 if outputs_match(run.outputs, script.expected)
                else 1,
                rows=run.metrics.rows_processed(),
                est_cost=run.submit.result.cost,
            )
        return thunk

    def layer_extras(self) -> Dict[str, Tuple[float, str]]:
        service, _ = self.world
        after = service_counts(service)
        _add(self.counts, {k: after[k] - self.before[k] for k in after})
        return {
            "service.invalidations": (
                self.invalidated / max(self.writes, 1), "count"),
        }


# -- per-layer metrics --------------------------------------------------------


def layer_metrics(profile: TraceProfile, counts: Dict[str, float],
                  n_requests: int, overhead_pct: float,
                  extras: Dict[str, Tuple[float, str]]
                  ) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric; ``*_ms`` figures are per request.

    A workload that never enters a layer reports its figures as 0.
    """
    n = max(n_requests, 1)
    optimizations = max(counts.get("optimizations", 0), 1)

    def per_request_ms(*names: str) -> float:
        return 1000.0 * sum(profile.total(x) for x in names) / n

    phase2_ms = 1000.0 * profile.total("optimize.phase2")
    rounds = counts.get("rounds", 0)
    lookups = counts.get("cache_lookups", 0)
    submits = (profile.count("service.submit")
               + profile.count("service.submit_many"))
    windows = profile.count("admission.flush")
    metrics: Dict[str, Tuple[float, str]] = {
        "frontend.compile_ms": (
            1000.0 * profile.layer_s["frontend"] / n, "ms"),
        "plan.prune_ms": (per_request_ms("prune"), "ms"),
        "cse.detect_ms": (per_request_ms("cse.detect"), "ms"),
        "cse.propagate_ms": (per_request_ms("cse.propagate"), "ms"),
        "cse.merge_ms": (per_request_ms("cse.merge"), "ms"),
        "cse.canonicalize_ms": (per_request_ms("cse.canonicalize"), "ms"),
        "cse.shared_groups": (
            counts.get("shared_groups", 0) / optimizations, "count"),
        "optimizer.phase1_ms": (per_request_ms("optimize.phase1"), "ms"),
        "optimizer.phase2_ms": (per_request_ms("optimize.phase2"), "ms"),
        "optimizer.fallback_ms": (
            per_request_ms("optimize.fallback"), "ms"),
        "optimizer.rounds": (rounds / optimizations, "count"),
        "optimizer.ms_per_round": (
            phase2_ms / rounds if rounds else 0.0, "ms"),
        "optimizer.groups_optimized": (
            counts.get("groups_optimized", 0) / optimizations, "count"),
        "optimizer.fallback_win_ratio": (
            counts.get("fallback_wins", 0) / optimizations, "ratio"),
        "optimizer.phase2_win_ratio": (
            counts.get("phase2_wins", 0)
            / max(counts.get("phase2_runs", 0), 1), "ratio"),
        "exec.execute_ms": (1000.0 * profile.layer_s["exec"] / n, "ms"),
        "exec.stage_cut_ms": (per_request_ms("stage_graph.cut"), "ms"),
        "exec.vertices": (counts.get("vertices", 0) / n, "count"),
        "exec.tasks": (counts.get("tasks", 0) / n, "count"),
        "exec.task_retries": (counts.get("task_retries", 0), "count"),
        "exec.rows_shuffled": (counts.get("rows_shuffled", 0) / n, "count"),
        "exec.rows_spooled": (counts.get("rows_spooled", 0) / n, "count"),
        "service.submit_ms": (
            1000.0 * (profile.total("service.submit")
                      + profile.total("service.submit_many"))
            / max(submits, 1), "ms"),
        "service.cache_hit_ratio": (
            counts.get("cache_hits", 0) / lookups if lookups else 0.0,
            "ratio"),
        "service.optimizations": (
            counts.get("service_optimizations", 0)
            / max(counts.get("submits", 0), 1), "ratio"),
        "service.invalidations": (0.0, "count"),
        "service.stats_update_ms": (
            1000.0 * profile.total("service.stats_update")
            / max(profile.count("service.stats_update"), 1), "ms"),
        "admission.queue_wait_p50_ms": (0.0, "ms"),
        "admission.queue_wait_p90_ms": (0.0, "ms"),
        "admission.scripts_per_window": (0.0, "count"),
        "admission.dedup_ratio": (0.0, "ratio"),
        "admission.rejected": (0.0, "count"),
        "admission.window_run_ms": (
            1000.0 * profile.total("admission.flush") / max(windows, 1),
            "ms"),
        "obs.trace_overhead_pct": (overhead_pct, "%"),
        "obs.uncovered_pct": (
            100.0 * profile.uncovered_s / profile.request_s, "%"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.share"] = (profile.share(layer), "%")
    metrics.update(extras)
    return metrics


def profile_notes(workload: str, profile: TraceProfile) -> List[str]:
    """The dominant layer, every layer's share and the remainder."""
    shares = ", ".join(f"{layer} {profile.share(layer):.1f}%"
                       for layer in LAYERS)
    uncovered = 100.0 * profile.uncovered_s / profile.request_s
    dominant = profile.dominant()
    return [
        f"{workload}: dominant layer {dominant} "
        f"({profile.share(dominant):.1f}% of traced request time)",
        f"{workload}: self time by layer: {shares}",
        f"{workload}: layers cover {profile.covered_pct():.1f}%; "
        f"uncovered remainder {uncovered:.1f}% "
        f"({profile.uncovered_s * 1000:.1f} ms)",
    ]


WORKLOADS = {
    "cold_solo": ColdSolo,
    "merged_batch": MergedBatch,
    "hot_service": HotService,
}
