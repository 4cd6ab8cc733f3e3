"""A long-lived, plan-caching query service with shared batch execution.

:class:`QueryService` is the serving layer the ROADMAP's north star
asks for: scripts arrive continuously (single or batched), plans are
served from an LRU cache keyed on the exact script fingerprint plus
everything the plan depends on, and batched submissions are merged into
one logical DAG so the paper's CSE machinery shares work *across*
scripts — the "pay one, get hundreds for free" setting of shared cloud
query execution.

Guarantees (each held by a dedicated test layer):

* **Determinism** — a cache hit returns the *same* plan a cold
  optimization produces, byte-identical under the canonical explain
  (differential tests over the whole corpus and the paper scripts).
* **Freshness** — a statistics update bumps the per-file version that
  is part of every dependent cache key and eagerly invalidates
  dependent entries; a lookup after a catalog mutation can never return
  a stale plan (property-tested).
* **Single-flight** — concurrent submissions of the same script
  coalesce onto one optimization; the fingerprint is optimized at most
  once per (key, statistics version) no matter how many threads race
  (stress-tested).
* **Shared batches** — ``submit_many`` merges scripts under one
  Sequence root via :func:`repro.cse.merge.merge_scripts`; a
  subexpression shared across scripts is spooled and executed exactly
  once (the stage graph's vertex attribution reports which scripts each
  vertex serves).
* **Verified hits** — when :func:`repro.verify.default_verify` is on
  (the whole test suite), plans returned from the cache are re-checked
  against the static invariant catalog just like freshly optimized
  ones.

Concurrency contract: ``submit``/``submit_many`` are thread-safe.
``update_statistics`` is safe against concurrent *lookups* but should
not race an in-flight optimization of a dependent script — the old
plan stays correct for the data it was optimized against, but whether
it lands in the cache under the old or new version is timing-dependent
(the key always records the version the optimization *started* from,
so staleness is still impossible).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..api import OptimizationResult, optimize_plan
from ..cse.merge import (
    BatchMergeError,
    MergedBatch,
    canonicalize,
    merge_scripts,
    referenced_paths,
    script_fingerprint,
)
from ..exec import (
    Cluster,
    ColumnarExecutor,
    Dataset,
    ExecutionMetrics,
    TaskScheduler,
)
from ..exec.stage_graph import StageGraph, Vertex
from ..obs.bus import EventBus, ObsEvent
from ..obs.tracer import NULL_TRACER
from ..optimizer.engine import OptimizerConfig
from ..plan.logical import LogicalPlan
from ..frontend import compile_text
from ..scope.catalog import Catalog
from ..stats.feedback import (
    FeedbackConfig,
    FeedbackController,
    FeedbackDecision,
)
from ..stats.recost import recost_plan
from ..verify import maybe_check_plan
from .cache import CacheEntry, CacheKey, PlanCache


@dataclass
class ServiceStats:
    """Service-level counters (cache counters live on the cache)."""

    submits: int = 0
    batch_submits: int = 0
    #: Times the optimizer actually ran (== cache misses that built).
    optimizations: int = 0
    #: Submissions that waited on another thread's in-flight build.
    coalesced: int = 0
    catalog_updates: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "submits": self.submits,
            "batch_submits": self.batch_submits,
            "optimizations": self.optimizations,
            "coalesced": self.coalesced,
            "catalog_updates": self.catalog_updates,
        }


@dataclass
class SubmitResult:
    """Outcome of one ``submit`` call."""

    #: The (possibly cached) optimization outcome.
    result: OptimizationResult
    #: Whole-script fingerprint (cache identity).
    fingerprint: str
    #: The full cache key the plan was served under.
    key: CacheKey
    #: True when the plan came from the cache (including coalesced waits).
    cache_hit: bool
    #: True when this call waited on another thread's optimization.
    coalesced: bool = False
    #: Wall-clock seconds spent in ``submit`` (not deterministic).
    latency: float = 0.0

    @property
    def plan(self):
        return self.result.plan


@dataclass
class BatchSubmitResult(SubmitResult):
    """Outcome of ``submit_many``: one merged plan plus output routing."""

    batch: Optional[MergedBatch] = None

    @property
    def labels(self) -> Tuple[str, ...]:
        return self.batch.labels


@dataclass
class ServiceRun:
    """Optimize-and-execute outcome for a single script."""

    submit: SubmitResult
    outputs: Dict[str, Dataset]
    metrics: ExecutionMetrics
    stage_graph: Optional[StageGraph]
    workers: int
    #: Scheduler substrate ("thread" or "process").
    runtime: str = "thread"


@dataclass
class BatchRun:
    """Shared execution outcome of a batch, cut back per script."""

    submit: BatchSubmitResult
    #: Per-script outputs under the scripts' *original* paths.
    outputs: List[Dict[str, Dataset]]
    #: The merged run's raw outputs (label-prefixed paths).
    merged_outputs: Dict[str, Dataset]
    metrics: ExecutionMetrics
    stage_graph: Optional[StageGraph]
    workers: int
    #: Scheduler substrate ("thread" or "process").
    runtime: str = "thread"

    def shared_vertices(self) -> List[Vertex]:
        """Vertices whose output feeds more than one script of the batch.

        Requires a scheduled run (``workers >= 1``); the sequential
        executor builds no stage graph.
        """
        if self.stage_graph is None:
            return []
        shared = []
        for vertex in self.stage_graph.vertices:
            labels = {path.split("/", 1)[0] for path in vertex.serves}
            if len(labels & set(self.submit.labels)) > 1:
                shared.append(vertex)
        return shared


class _Flight:
    """In-flight optimization other threads can wait on."""

    __slots__ = ("event", "entry", "error")

    def __init__(self):
        self.event = threading.Event()
        self.entry: Optional[CacheEntry] = None
        self.error: Optional[BaseException] = None


class QueryService:
    """Long-lived query service: plan cache + shared batch execution.

    ::

        service = QueryService(catalog, config, cache_capacity=128)
        first = service.submit(text)          # cache miss: optimizes
        again = service.submit(text)          # cache hit: no optimizer
        run = service.execute_many([s1, s2], workers=4)  # shared batch
        service.update_statistics("test.log", rows=2 * 10**9)  # invalidates

    All submissions share one :class:`~repro.obs.EventBus` (``bus``)
    carrying ``service.submit``, ``service.cache`` and
    ``service.catalog`` events.
    """

    def __init__(
        self,
        catalog: Catalog,
        config: Optional[OptimizerConfig] = None,
        *,
        cache_capacity: int = 64,
        bus: Optional[EventBus] = None,
        tracer=NULL_TRACER,
        feedback=None,
        metrics=None,
        dialect: str = "auto",
    ):
        self.catalog = catalog
        self.config = config or OptimizerConfig()
        #: Default frontend dialect for submissions ("auto" sniffs each
        #: script; see :func:`repro.frontend.detect_dialect`).
        self.dialect = dialect
        self.bus = bus if bus is not None else EventBus()
        self.tracer = tracer
        self.stats = ServiceStats()
        self.cache = PlanCache(cache_capacity, bus=self.bus)
        self.catalog_version = 0
        self._config_token = repr(self.config)
        self._file_versions: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._inflight: Dict[CacheKey, _Flight] = {}
        #: Learned-statistics controller (``docs/feedback.md``), enabled
        #: by passing a :class:`repro.stats.feedback.FeedbackConfig` (or
        #: ``True`` for defaults).
        self.feedback: Optional[FeedbackController] = None
        if feedback:
            cfg = (feedback if isinstance(feedback, FeedbackConfig)
                   else FeedbackConfig())
            self.feedback = FeedbackController(self, cfg)
        #: Live telemetry (``docs/observability.md`` "Live metrics"):
        #: pass ``True`` for a default
        #: :class:`~repro.obs.collector.MetricsCollector`, or a
        #: pre-built collector (e.g. with an injected clock or custom
        #: SLO config).  When enabled, the collector subscribes to
        #: this service's bus and every execution additionally
        #: publishes its ``exec.*`` counter events there; when
        #: disabled, neither the bus contents nor any output changes.
        self.metrics_collector = None
        if metrics:
            from ..obs.collector import MetricsCollector

            collector = (metrics if isinstance(metrics, MetricsCollector)
                         else MetricsCollector())
            self.metrics_collector = collector.subscribe(self.bus)

    # -- submission -------------------------------------------------------

    def submit(self, text: str, *, exploit_cse: bool = True,
               prune: bool = True,
               verify: Optional[bool] = None,
               dialect: Optional[str] = None) -> SubmitResult:
        """Normalize, fingerprint and optimize-or-serve one script."""
        started = time.perf_counter()
        logical = self._compile(text, dialect)
        result = self._submit_logical(logical, exploit_cse, prune, verify)
        result.latency = time.perf_counter() - started
        return result

    def submit_many(
        self,
        texts: Sequence[str],
        *,
        labels: Optional[Sequence[str]] = None,
        exploit_cse: bool = True,
        prune: bool = True,
        verify: Optional[bool] = None,
        uniquify_labels: bool = False,
        precompiled: Optional[Sequence[LogicalPlan]] = None,
        dialect: Optional[str] = None,
    ) -> BatchSubmitResult:
        """Merge a batch into one logical DAG and optimize-or-serve it.

        The merged plan is cached like any single script — resubmitting
        the same batch (same scripts, any relation names, same order of
        labels) is a cache hit.  ``precompiled`` supplies the already
        compiled-and-canonicalized logical plans (the admission
        controller compiles at enqueue time to fingerprint and weigh
        scripts; recompiling at flush time would double the parse cost
        of every admitted script); ``uniquify_labels`` forwards to
        :func:`repro.cse.merge.merge_scripts` so duplicate caller
        labels auto-suffix instead of rejecting the batch.
        """
        started = time.perf_counter()
        plans = (list(precompiled) if precompiled is not None
                 else [self._compile(t, dialect) for t in texts])
        if len(plans) != len(texts):
            raise BatchMergeError(
                f"{len(texts)} scripts but {len(plans)} precompiled plans"
            )
        merged = merge_scripts(plans, labels, uniquify=uniquify_labels)
        with self._lock:
            self.stats.batch_submits += 1
        base = self._submit_logical(merged.plan, exploit_cse, prune, verify)
        result = BatchSubmitResult(
            result=base.result,
            fingerprint=base.fingerprint,
            key=base.key,
            cache_hit=base.cache_hit,
            coalesced=base.coalesced,
            batch=merged,
        )
        result.latency = time.perf_counter() - started
        return result

    # -- execution --------------------------------------------------------

    def execute(
        self,
        text: str,
        *,
        workers: int = 0,
        machines: Optional[int] = None,
        rows: Optional[int] = None,
        seed: int = 0,
        files: Optional[Dict[str, list]] = None,
        validate: bool = True,
        exploit_cse: bool = True,
        prune: bool = True,
        verify: Optional[bool] = None,
        failure_rate: float = 0.0,
        failure_seed: int = 0,
        max_retries: int = 3,
        runtime: str = "thread",
        spill_dir: Optional[str] = None,
        dialect: Optional[str] = None,
    ) -> ServiceRun:
        """Optimize-or-serve one script and run it on the simulator.

        ``failure_rate`` enables seeded per-task fault injection on the
        scheduler path (``workers >= 1``), retried up to
        ``max_retries`` times per task.  ``runtime="process"`` runs the
        scheduled plan on forked worker processes with exchanges
        spilled to ``spill_dir`` (results and counters are identical to
        the thread runtime).
        """
        sub = self.submit(text, exploit_cse=exploit_cse, prune=prune,
                          verify=verify, dialect=dialect)
        outputs, metrics, graph = self._run_plan(
            sub.result.plan, workers, machines, rows, seed, files, validate,
            failure_rate, failure_seed, max_retries, runtime, spill_dir,
        )
        run = ServiceRun(submit=sub, outputs=outputs, metrics=metrics,
                         stage_graph=graph, workers=workers,
                         runtime=runtime)
        self._feedback_after(run)
        return run

    def execute_many(
        self,
        texts: Sequence[str],
        *,
        labels: Optional[Sequence[str]] = None,
        workers: int = 4,
        machines: Optional[int] = None,
        rows: Optional[int] = None,
        seed: int = 0,
        files: Optional[Dict[str, list]] = None,
        validate: bool = True,
        exploit_cse: bool = True,
        prune: bool = True,
        verify: Optional[bool] = None,
        uniquify_labels: bool = False,
        precompiled: Optional[Sequence[LogicalPlan]] = None,
        failure_rate: float = 0.0,
        failure_seed: int = 0,
        max_retries: int = 3,
        runtime: str = "thread",
        spill_dir: Optional[str] = None,
        dialect: Optional[str] = None,
    ) -> BatchRun:
        """Optimize-or-serve a batch and execute it as one shared job.

        Cross-script common subexpressions are spooled and executed
        once; each script's outputs are cut back out under its original
        paths.  ``uniquify_labels``/``precompiled`` forward to
        :meth:`submit_many`; ``failure_rate`` enables seeded per-task
        fault injection on the scheduler path.
        """
        sub = self.submit_many(texts, labels=labels,
                               exploit_cse=exploit_cse, prune=prune,
                               verify=verify,
                               uniquify_labels=uniquify_labels,
                               precompiled=precompiled, dialect=dialect)
        merged_outputs, metrics, graph = self._run_plan(
            sub.result.plan, workers, machines, rows, seed, files, validate,
            failure_rate, failure_seed, max_retries, runtime, spill_dir,
        )
        per_script = sub.batch.split_outputs(merged_outputs)
        run = BatchRun(
            submit=sub,
            outputs=per_script,
            merged_outputs=merged_outputs,
            metrics=metrics,
            stage_graph=graph,
            workers=workers,
            runtime=runtime,
        )
        self._feedback_after(run)
        return run

    # -- catalog maintenance ----------------------------------------------

    def update_statistics(
        self,
        path: str,
        *,
        rows: Optional[int] = None,
        ndv: Optional[Dict[str, int]] = None,
        histograms: Optional[dict] = None,
    ) -> int:
        """Refresh a file's statistics; invalidates dependent plans.

        Bumps the file's statistics version (part of every dependent
        cache key) and the global catalog version, re-registers the
        file (its ``file_id`` — and hence expression fingerprints — is
        preserved by the catalog), and eagerly drops every cache entry
        whose plan reads ``path``.  Returns the number of invalidated
        entries.
        """
        stats = self.catalog.lookup(path)
        self.catalog.register_file(
            path,
            [(c.name, c.ctype) for c in stats.schema],
            rows=stats.rows if rows is None else rows,
            ndv=stats.ndv if ndv is None else ndv,
            histograms=stats.histograms if histograms is None else histograms,
        )
        with self._lock:
            self._file_versions[path] = self._file_versions.get(path, 0) + 1
            version = self._file_versions[path]
            self.catalog_version += 1
            self.stats.catalog_updates += 1
            removed = self.cache.invalidate_path(path)
        self.bus.publish(ObsEvent.make(
            "service.catalog", op="update", path=path, version=version,
            invalidated=removed,
        ))
        return removed

    # -- learned-statistics feedback ---------------------------------------

    def apply_corrections(self, store, fragments) -> List["FeedbackDecision"]:
        """Publish corrections and re-optimize the plans they invalidate.

        Called by the :class:`~repro.stats.feedback.FeedbackController`
        after Gate A has admitted ``fragments``.  Atomically (under the
        service lock): publishes the corrections, bumps the statistics
        version of every affected input file — the *same* freshness
        mechanism ``update_statistics`` uses, so cached keys referencing
        the old estimates become unreachable — and eagerly invalidates
        dependent cache entries.  Each invalidated entry that retained
        its logical DAG is then re-optimized under the corrected
        statistics and passed through Gate B (see
        :meth:`_reoptimize_entry`); refusals re-insert the incumbent
        plan under the fresh key, so refusing costs no future optimizer
        runs.  Returns the Gate-B decision cards.
        """
        with self._lock:
            active = store.publish(fragments)
            paths = store.affected_paths(fragments)
            victims = [
                entry for entry in self.cache.entries()
                if set(entry.paths) & set(paths)
            ]
            for path in paths:
                self._file_versions[path] = \
                    self._file_versions.get(path, 0) + 1
                self.catalog_version += 1
            invalidated = 0
            for path in paths:
                invalidated += self.cache.invalidate_path(path)
        self.bus.publish(ObsEvent.make(
            "stats.feedback.publish",
            version=active.version,
            corrections=len(active),
            invalidated=invalidated,
            paths=",".join(paths),
        ))
        cards: List[FeedbackDecision] = []
        for entry in victims:
            if entry.logical is None:
                continue
            cards.append(self._reoptimize_entry(entry, active))
        return cards

    def _reoptimize_entry(self, entry: CacheEntry,
                          corrections) -> "FeedbackDecision":
        """Gate B: re-optimize one invalidated entry under corrections.

        The candidate plan is optimized (and costed) under the corrected
        statistics; the incumbent plan is *re-priced* under the same
        corrections (:func:`repro.stats.recost.recost_plan`) so the
        comparison is apples to apples.  The candidate is adopted only
        if it beats the incumbent by the configured margin; either way
        the winner is cached under the fresh key.
        """
        key = entry.key
        logical = entry.logical
        old_result = entry.result
        new_key, paths, _ = self._key_for(logical, key.exploit_cse,
                                          key.prune)
        new_result = optimize_plan(
            logical, self.catalog, self.config,
            exploit_cse=key.exploit_cse, prune=key.prune,
            tracer=self.tracer, corrections=corrections,
        )
        _, old_cost = recost_plan(
            old_result.plan, old_result.details.plan_memo,
            self.catalog, self.config, corrections=corrections,
        )
        margin = (self.feedback.config.adoption_margin
                  if self.feedback is not None else 0.0)
        adopt = new_result.cost < old_cost * (1.0 - margin)
        chosen = new_result if adopt else old_result
        with self._lock:
            self.cache.put(new_key, chosen, paths, logical=logical)
        if self.feedback is not None:
            self.feedback.note_reoptimization(adopt)
        if adopt:
            detection = (
                f"candidate corrected cost {new_result.cost:,.0f} < "
                f"incumbent corrected cost {old_cost:,.0f}"
            )
        else:
            detection = (
                f"candidate corrected cost {new_result.cost:,.0f} does "
                f"not beat incumbent corrected cost {old_cost:,.0f}"
                + (f" by margin {margin:.0%}" if margin else "")
            )
        return FeedbackDecision(
            action="adopt" if adopt else "keep",
            pathology="cached plan optimized under misestimated statistics",
            detection=detection,
            subject=key.short,
            old_cost=old_cost,
            new_cost=new_result.cost,
        )

    def _feedback_after(self, run) -> None:
        if self.feedback is not None and self.feedback.config.auto:
            self.feedback.observe_run(run)
            self.feedback.step()

    # -- introspection -----------------------------------------------------

    def stats_snapshot(self) -> Dict[str, int]:
        """Service + cache counters in one flat dict (tests hold the
        identities ``submits == hits + optimizations + coalesced`` and
        ``cache.lookups == cache.hits + cache.misses``)."""
        with self._lock:
            snapshot = {
                **self.stats.as_dict(),
                **{f"cache_{k}": v
                   for k, v in self.cache.stats.as_dict().items()},
                "cache_size": len(self.cache),
                "catalog_version": self.catalog_version,
            }
        if self.feedback is not None:
            snapshot.update(self.feedback.stats_snapshot())
        return snapshot

    def publish_stats(self, bus: Optional[EventBus] = None) -> None:
        """Emit one ``service.counter`` event per counter."""
        bus = bus if bus is not None else self.bus
        for name, value in self.stats_snapshot().items():
            bus.publish(ObsEvent.make(
                "service.counter", name=name, value=value
            ))

    def metrics_snapshot(self) -> Dict[str, object]:
        """The live-telemetry snapshot (registry + SLO table).

        Requires the service to have been built with ``metrics=``; the
        same document backs ``repro serve --metrics-out``, the
        ``/metrics.json`` endpoint and ``repro top``.
        """
        if self.metrics_collector is None:
            raise RuntimeError(
                "metrics are not enabled on this service; construct it "
                "with QueryService(..., metrics=True)"
            )
        return self.metrics_collector.snapshot()

    def health(self) -> Dict[str, object]:
        """Service-level health document (the ``/healthz`` body when no
        admission controller fronts this service)."""
        with self._lock:
            cache_size = len(self.cache)
            inflight = len(self._inflight)
            version = self.catalog_version
        return {
            "status": "ok",
            "ready": True,
            "checks": {
                "cache_size": cache_size,
                "inflight_optimizations": inflight,
                "catalog_version": version,
            },
        }

    # -- internals ---------------------------------------------------------

    def _compile(self, text: str,
                 dialect: Optional[str] = None) -> LogicalPlan:
        """Compile ``text`` under ``dialect`` (default: the service's).

        The cache key downstream fingerprints the *compiled plan*, not
        the text, so a SQL query and its SCOPE twin that lower to the
        same DAG share one cache entry — dialect is deliberately not
        part of plan identity.
        """
        return canonicalize(compile_text(text, self.catalog,
                                         dialect=dialect or self.dialect,
                                         tracer=self.tracer))

    def _key_for(self, logical: LogicalPlan, exploit_cse: bool,
                 prune: bool):
        """Cache key + dependency paths + the corrections snapshot.

        The corrections are read under the same lock as the statistics
        versions (and :meth:`apply_corrections` mutates both under that
        lock), so a key can never pair old versions with new corrections
        or vice versa — the key always names exactly the statistics the
        optimization will run under.
        """
        paths = referenced_paths(logical)
        with self._lock:
            versions = tuple(
                (path, self._file_versions.get(path, 0)) for path in paths
            )
            corrections = (self.feedback.store.active()
                           if self.feedback is not None else None)
        key = CacheKey(
            fingerprint=script_fingerprint(logical),
            stats_versions=versions,
            config=self._config_token,
            exploit_cse=exploit_cse,
            prune=prune,
        )
        return key, paths, corrections

    def _submit_logical(self, logical: LogicalPlan, exploit_cse: bool,
                        prune: bool,
                        verify: Optional[bool]) -> SubmitResult:
        key, paths, corrections = self._key_for(logical, exploit_cse, prune)
        build = False
        with self._lock:
            self.stats.submits += 1
            flight = self._inflight.get(key)
            if flight is None:
                entry = self.cache.get(key)
                if entry is not None:
                    result: OptimizationResult = entry.result
                    # Satellite fix: the cache path verifies exactly like
                    # a fresh optimization does (global default or the
                    # per-call override) — a corrupted or miskeyed entry
                    # surfaces as a named invariant violation, not as a
                    # silent wrong answer downstream.
                    maybe_check_plan(
                        result.plan,
                        f"plan-cache hit ({key.short})",
                        verify,
                    )
                    self._emit_submit("hit", key, result)
                    return SubmitResult(result, key.fingerprint, key,
                                        cache_hit=True)
                flight = _Flight()
                self._inflight[key] = flight
                build = True

        if not build:
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            with self._lock:
                self.stats.coalesced += 1
            result = flight.entry.result
            self._emit_submit("coalesced", key, result)
            return SubmitResult(result, key.fingerprint, key,
                                cache_hit=True, coalesced=True)

        try:
            with self._lock:
                self.stats.optimizations += 1
            result = optimize_plan(
                logical, self.catalog, self.config,
                exploit_cse=exploit_cse, prune=prune, verify=verify,
                tracer=self.tracer, corrections=corrections,
            )
        except BaseException as exc:
            flight.error = exc
            with self._lock:
                self._inflight.pop(key, None)
            flight.event.set()
            raise
        with self._lock:
            entry = self.cache.put(key, result, paths, logical=logical)
            self._inflight.pop(key, None)
        flight.entry = entry
        flight.event.set()
        self._emit_submit("optimize", key, result)
        return SubmitResult(result, key.fingerprint, key, cache_hit=False)

    def _emit_submit(self, op: str, key: CacheKey,
                     result: OptimizationResult) -> None:
        self.bus.publish(ObsEvent.make(
            "service.submit", op=op, fingerprint=key.short,
            cost=result.cost, exploited_cse=result.exploited_cse,
        ))

    def _run_plan(self, plan, workers: int, machines: Optional[int],
                  rows: Optional[int], seed: int,
                  files: Optional[Dict[str, list]], validate: bool,
                  failure_rate: float = 0.0,
                  failure_seed: int = 0, max_retries: int = 3,
                  runtime: str = "thread",
                  spill_dir: Optional[str] = None):
        from ..exec.dist import RUNTIME_NAMES, ProcessScheduler
        from ..exec.scheduler import FaultInjection, RetryPolicy
        from ..workloads.datagen import generate_for_catalog

        if runtime not in RUNTIME_NAMES:
            raise ValueError(
                f"unknown runtime {runtime!r} "
                f"(available: {', '.join(RUNTIME_NAMES)})"
            )
        if runtime == "process" and workers < 1:
            raise ValueError("runtime='process' requires workers >= 1")
        if machines is None:
            machines = self.config.cost_params.machines
        if files is None:
            files = generate_for_catalog(self.catalog, seed=seed,
                                         rows_override=rows)
        cluster = Cluster(machines=machines)
        for path, file_rows in files.items():
            cluster.load_file(path, file_rows)
        if workers > 0:
            scheduler_cls: type = TaskScheduler
            scheduler_kwargs = {}
            if runtime == "process":
                scheduler_cls = ProcessScheduler
                scheduler_kwargs = dict(spill_dir=spill_dir)
            executor = scheduler_cls(cluster, workers=workers,
                                     validate=validate, tracer=self.tracer,
                                     faults=FaultInjection(
                                         rate=failure_rate,
                                         seed=failure_seed),
                                     retry=RetryPolicy(
                                         max_retries=max_retries),
                                     **scheduler_kwargs)
        else:
            executor = ColumnarExecutor(cluster, validate=validate,
                                        tracer=self.tracer)
        outputs = executor.execute(plan)
        graph = executor.stage_graph if workers > 0 else None
        if self.metrics_collector is not None:
            # Feed the run's deterministic counters to the live
            # telemetry layer through the same bus spine everything
            # else publishes on.
            executor.metrics.publish(self.bus)
        return outputs, executor.metrics, graph
