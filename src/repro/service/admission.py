"""Streaming admission control for shared query execution.

:class:`AdmissionController` is the online front-end the ROADMAP's
item 1 asks for: production traffic arrives as a *stream* of scripts,
one at a time, yet the paper's economics only pay off when
independently-submitted jobs execute as one shared DAG.  The
controller buys sharing opportunities with a little latency — scripts
arriving within a time window (or until a pending-work threshold
trips) are collected, grouped by compatibility, merged into one DAG
via :func:`repro.cse.merge.merge_scripts`, executed once on the
scheduler, and each caller gets exactly its own script's outputs back
(:meth:`MergedBatch.split_outputs` routing).  This is the windowed
shared-execution model of "Pay One, Get Hundreds for Free" layered on
the batched MQO machinery that already exists in
:class:`~repro.service.QueryService`.

Semantics, each held by a dedicated test layer in
``tests/test_admission*.py``:

* **Windowing** — the first enqueued script opens a window of
  ``config.window`` seconds (measured on the injected
  :class:`~repro.service.clock.Clock`); when the deadline passes the
  whole pending set is flushed.  A pending-script or pending-input-row
  threshold flushes *early*, synchronously on the submitting thread,
  so thresholds are deterministic without any clock.  An empty window
  is a no-op: no flush, no events.
* **Fairness** — pending scripts queue per tenant and are drained by
  weighted round-robin with a rotation pointer that survives across
  windows, so a tenant flooding the queue cannot push another tenant's
  script beyond one window (``max_batch`` caps one flush; leftovers
  open the next window).
* **Backpressure** — at most ``config.max_pending`` scripts may be
  queued; beyond that ``submit``/``submit_nowait`` raise the typed
  :class:`AdmissionRejected` (callers see an error, not unbounded
  latency).  Draining the queue makes the controller accept again.
* **Single-flight dedup** — identical in-window scripts (same
  canonical fingerprint, same optimize flags) occupy one queue slot
  and execute once; every caller's ticket is routed the shared result.
* **Determinism** — time enters only through the injected clock and
  flushing happens on whichever thread calls :meth:`pump` (tests), the
  submitting thread (threshold trips), or the background drainer
  (:meth:`start`, production).  Under a
  :class:`~repro.service.clock.ManualClock` the whole admission path
  is single-threaded and sleep-free.

Observability: every transition publishes ``service.admission.*``
events (``enqueue``, ``dedup``, ``reject``, ``queue_depth``,
``group``, ``window_flush``, ``resolve``, ``savings``,
``group_failed``) on the service's
:class:`~repro.obs.bus.EventBus`; the
:class:`~repro.obs.collector.MetricsCollector` turns them into the
labeled series documented in ``docs/observability.md``.
"""

from __future__ import annotations

import hashlib
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from ..cse.merge import referenced_paths, script_fingerprint
from ..obs.bus import ObsEvent
from .clock import Clock, SystemClock
from .core import BatchRun, QueryService


class AdmissionRejected(RuntimeError):
    """Typed backpressure signal: the admission queue is full."""

    def __init__(self, reason: str, *, tenant: str, queue_depth: int,
                 max_pending: int):
        super().__init__(
            f"admission rejected for tenant {tenant!r}: {reason} "
            f"(queue depth {queue_depth}, max_pending {max_pending})"
        )
        self.reason = reason
        self.tenant = tenant
        self.queue_depth = queue_depth
        self.max_pending = max_pending


@dataclass(frozen=True)
class AdmissionConfig:
    """Tuning knobs of the admission controller."""

    #: Window length in (clock) seconds; the window opens when the
    #: first script is enqueued into an empty queue.
    window: float = 0.05
    #: Bounded-queue backpressure: scripts queued (after dedup) beyond
    #: this raise :class:`AdmissionRejected`.
    max_pending: int = 256
    #: Scripts drained per flush; leftovers open the next window.
    max_batch: int = 64
    #: Pending-script count that trips an early (synchronous) flush.
    script_threshold: Optional[int] = None
    #: Pending input-row mass (sum of catalog rows of every referenced
    #: file, per script) that trips an early flush — the cheap stand-in
    #: for "enough work has accumulated to be worth optimizing now".
    row_threshold: Optional[int] = None
    #: Weighted round-robin draining: tenants take up to ``weight``
    #: scripts per rotation visit (default 1).
    tenant_weights: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.window < 0:
            raise ValueError("window must be >= 0")
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")


@dataclass
class AdmissionStats:
    """Controller counters (all monotonically increasing)."""

    submits: int = 0
    accepted: int = 0
    rejected: int = 0
    #: Submissions that joined an identical in-window script's slot.
    deduped: int = 0
    flushes: int = 0
    #: Merged shared jobs executed (one per compatibility group).
    groups: int = 0
    #: Queue entries executed (deduped callers not re-counted).
    executed_scripts: int = 0
    #: Groups whose execution raised; the error went to the callers.
    failed_groups: int = 0
    #: Cumulative cross-script shared vertices over all groups.
    shared_vertices: int = 0
    max_queue_depth: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "submits": self.submits,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "deduped": self.deduped,
            "flushes": self.flushes,
            "groups": self.groups,
            "executed_scripts": self.executed_scripts,
            "failed_groups": self.failed_groups,
            "shared_vertices": self.shared_vertices,
            "max_queue_depth": self.max_queue_depth,
        }


@dataclass
class ScriptResult:
    """What one caller gets back: its own script's outputs plus the
    shared-execution attribution."""

    #: The caller's outputs under the script's *original* paths.
    outputs: Dict[str, object]
    tenant: str
    #: Post-uniquify label of this script inside the merged batch.
    label: str
    #: Canonical whole-script fingerprint (dedup identity).
    fingerprint: str
    window_id: int
    #: What fired the flush: "window", "threshold" or "force".
    trigger: str
    #: Scripts merged into this caller's shared job.
    group_size: int
    #: True when this caller shared another submission's execution.
    deduped: bool
    #: The full shared run (metrics, stage graph, cache info).
    run: BatchRun


class AdmissionTicket:
    """Handle on an enqueued script; resolves at window flush."""

    __slots__ = ("tenant", "fingerprint", "enqueued_at", "_event",
                 "_result", "_error")

    def __init__(self, tenant: str, fingerprint: str,
                 enqueued_at: float = 0.0):
        self.tenant = tenant
        self.fingerprint = fingerprint
        #: Controller-clock time the submit entered the queue; the
        #: resolve event's latency is measured from here, so it is
        #: deterministic under a :class:`~repro.service.clock.ManualClock`.
        self.enqueued_at = enqueued_at
        self._event = threading.Event()
        self._result: Optional[ScriptResult] = None
        self._error: Optional[BaseException] = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> ScriptResult:
        """The caller's :class:`ScriptResult`; raises the group's
        execution error, or :class:`TimeoutError` if no flush resolved
        this ticket within ``timeout`` (real) seconds."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"admission ticket for tenant {self.tenant!r} not "
                "resolved (no flush happened — is the controller "
                "started or pumped?)"
            )
        if self._error is not None:
            raise self._error
        return self._result

    # resolution (controller-internal)

    def _resolve(self, result: ScriptResult) -> None:
        self._result = result
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()


class _Pending:
    """One queue slot: a compiled script plus every ticket riding it."""

    __slots__ = ("text", "logical", "fingerprint", "compat", "tenant",
                 "weight", "exploit_cse", "prune", "tickets")

    def __init__(self, text, logical, fingerprint, compat, tenant, weight,
                 exploit_cse, prune, ticket):
        self.text = text
        self.logical = logical
        self.fingerprint = fingerprint
        self.compat = compat
        self.tenant = tenant
        self.weight = weight
        self.exploit_cse = exploit_cse
        self.prune = prune
        self.tickets: List[AdmissionTicket] = [ticket]

    @property
    def dedup_key(self) -> Tuple[str, str]:
        return (self.compat, self.fingerprint)


class AdmissionController:
    """Windowed admission front-end over a :class:`QueryService`.

    ::

        service = QueryService(catalog, config)
        controller = AdmissionController(service, workers=4,
                                         config=AdmissionConfig(window=0.05))
        controller.start()                  # background drainer (real clock)
        outputs = controller.submit(text, tenant="alice").outputs
        controller.stop()

    Deterministic (test) mode::

        clock = ManualClock()
        controller = AdmissionController(service, clock=clock, ...)
        ticket = controller.submit_nowait(text)
        clock.advance(controller.config.window)
        controller.pump()                   # flush on *this* thread
        result = ticket.result(timeout=0)

    Execution settings (``workers``, ``files``/``rows``/
    ``seed``, fault injection) are controller-level: every flushed
    group runs with them via :meth:`QueryService.execute_many`.
    """

    def __init__(
        self,
        service: QueryService,
        *,
        config: Optional[AdmissionConfig] = None,
        clock: Optional[Clock] = None,
        workers: int = 4,
        machines: Optional[int] = None,
        rows: Optional[int] = None,
        seed: int = 0,
        files: Optional[Dict[str, list]] = None,
        validate: bool = True,
        failure_rate: float = 0.0,
        failure_seed: int = 0,
        max_retries: int = 3,
        runtime: str = "thread",
        spill_dir: Optional[str] = None,
    ):
        self.service = service
        self.config = config or AdmissionConfig()
        self.clock = clock or SystemClock()
        self.bus = service.bus
        self.stats = AdmissionStats()
        self.workers = workers
        self.machines = machines
        self.rows = rows
        self.seed = seed
        self.validate = validate
        self.failure_rate = failure_rate
        self.failure_seed = failure_seed
        self.max_retries = max_retries
        self.runtime = runtime
        self.spill_dir = spill_dir
        if files is None:
            from ..workloads.datagen import generate_for_catalog

            files = generate_for_catalog(service.catalog, seed=seed,
                                         rows_override=rows)
        self.files = files

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._queues: Dict[str, Deque[_Pending]] = {}
        self._tenant_order: List[str] = []
        self._rr_index = 0
        self._by_dedup: Dict[Tuple[str, str], _Pending] = {}
        self._pending_count = 0
        self._pending_rows = 0
        self._deadline: Optional[float] = None
        self._tripped = False
        self._window_id = 0
        self._drainer: Optional[threading.Thread] = None
        self._stopping = False

    # -- submission --------------------------------------------------------

    def submit_nowait(self, text: str, *, tenant: str = "default",
                      exploit_cse: bool = True,
                      prune: bool = True,
                      dialect: Optional[str] = None) -> AdmissionTicket:
        """Enqueue one script; returns immediately with a ticket.

        Raises :class:`AdmissionRejected` when the bounded queue is
        full.  A script identical to one already pending (same
        canonical DAG, same flags) joins that slot instead of taking a
        new one — single-flight within the window.  ``dialect`` picks
        the frontend per script (default: the service's); dedup keys on
        the compiled DAG, so equivalent SQL and SCOPE submissions
        coalesce into one slot.
        """
        logical = self.service._compile(text, dialect)
        fingerprint = script_fingerprint(logical)
        weight = self._input_rows(logical)
        compat = self._compat_key(exploit_cse, prune)
        ticket = AdmissionTicket(tenant, fingerprint,
                                 enqueued_at=self.clock.now())
        events: List[ObsEvent] = []
        run_pump = False
        rejected: Optional[AdmissionRejected] = None
        with self._cond:
            self.stats.submits += 1
            pending = self._by_dedup.get((compat, fingerprint))
            if pending is not None:
                pending.tickets.append(ticket)
                self.stats.deduped += 1
                events.append(ObsEvent.make(
                    "service.admission.dedup", tenant=tenant,
                    fingerprint=fingerprint[:12],
                    joined_tenant=pending.tenant,
                ))
            elif self._pending_count >= self.config.max_pending:
                self.stats.rejected += 1
                events.append(ObsEvent.make(
                    "service.admission.reject", tenant=tenant,
                    reason="queue full", queue_depth=self._pending_count,
                    max_pending=self.config.max_pending,
                ))
                rejected = AdmissionRejected(
                    "queue full", tenant=tenant,
                    queue_depth=self._pending_count,
                    max_pending=self.config.max_pending,
                )
            else:
                pending = _Pending(text, logical, fingerprint, compat,
                                   tenant, weight, exploit_cse, prune,
                                   ticket)
                queue = self._queues.get(tenant)
                if queue is None:
                    queue = self._queues[tenant] = deque()
                    self._tenant_order.append(tenant)
                queue.append(pending)
                self._by_dedup[pending.dedup_key] = pending
                self._pending_count += 1
                self._pending_rows += weight
                self.stats.accepted += 1
                self.stats.max_queue_depth = max(
                    self.stats.max_queue_depth, self._pending_count
                )
                if self._deadline is None:
                    self._deadline = self.clock.now() + self.config.window
                if self._thresholds_tripped():
                    self._tripped = True
                    run_pump = self._drainer is None
                events.append(ObsEvent.make(
                    "service.admission.enqueue", tenant=tenant,
                    fingerprint=fingerprint[:12],
                    queue_depth=self._pending_count,
                    window=self._window_id,
                ))
            events.append(ObsEvent.make(
                "service.admission.queue_depth",
                depth=self._pending_count,
            ))
            self._cond.notify_all()
        self._publish(events)
        if rejected is not None:
            raise rejected
        if run_pump:
            # Threshold flushes run synchronously on the submitting
            # thread when no drainer owns the loop — deterministic by
            # construction, no clock involved.
            self.pump()
        return ticket

    def submit(self, text: str, *, tenant: str = "default",
               exploit_cse: bool = True, prune: bool = True,
               timeout: Optional[float] = None,
               dialect: Optional[str] = None) -> ScriptResult:
        """Blocking submit: enqueue and wait for the window flush.

        Requires something else to flush — the background drainer
        (:meth:`start`), a threshold trip, or another thread pumping.
        """
        ticket = self.submit_nowait(text, tenant=tenant,
                                    exploit_cse=exploit_cse, prune=prune,
                                    dialect=dialect)
        return ticket.result(timeout=timeout)

    def _publish(self, events: List[ObsEvent]) -> None:
        """Publish queued events outside the controller lock (a
        subscriber may call back into the controller)."""
        for event in events:
            self.bus.publish(event)
        events.clear()

    # -- flushing ----------------------------------------------------------

    def pump(self) -> int:
        """Flush every *due* window (deadline passed or threshold
        tripped) on the calling thread; returns scripts executed.

        The deterministic heartbeat: manual-clock tests advance the
        clock and pump; the background drainer is just a loop of pump
        and clock-aware waiting."""
        return self._flush_loop(force=False)

    def flush(self) -> int:
        """Flush everything pending regardless of deadlines (stream
        end / shutdown); returns scripts executed."""
        return self._flush_loop(force=True)

    def queue_depth(self) -> int:
        with self._lock:
            return self._pending_count

    def stats_snapshot(self) -> Dict[str, int]:
        """Admission counters plus the live queue depth."""
        with self._lock:
            snapshot = self.stats.as_dict()
            snapshot["queue_depth"] = self._pending_count
            snapshot["windows"] = self._window_id
        return snapshot

    def health(self) -> Dict[str, object]:
        """Readiness document for ``/healthz``.

        ``ready`` turns False when the bounded queue is nearly
        saturated (>= 90% of ``max_pending``) — the next submits are
        about to be rejected, so a load balancer should stop routing
        new streams here before the hard backpressure trips.
        """
        with self._lock:
            depth = self._pending_count
            drainer = self._drainer
        saturation = depth / self.config.max_pending
        if saturation < 0.5:
            status = "ok"
        elif saturation < 0.9:
            status = "degraded"
        else:
            status = "saturated"
        return {
            "status": status,
            "ready": saturation < 0.9,
            "checks": {
                "queue_depth": depth,
                "max_pending": self.config.max_pending,
                "queue_saturation": round(saturation, 4),
                "drainer_alive": bool(drainer is not None
                                      and drainer.is_alive()),
            },
        }

    # -- lifecycle (real-clock streaming mode) -----------------------------

    def start(self) -> "AdmissionController":
        """Start the background drain thread (SystemClock setting).

        The drainer waits until the earliest deadline (or an arrival
        notification), pumps, and repeats.  With a :class:`ManualClock`
        prefer the pump-driven mode instead — condition timeouts are
        real seconds, manual time is not."""
        if self._drainer is not None:
            return self
        self._stopping = False
        self._drainer = threading.Thread(
            target=self._drain_loop, daemon=True, name="admission-drainer"
        )
        self._drainer.start()
        return self

    def stop(self, *, flush: bool = True) -> None:
        """Stop the drainer; by default flush whatever is pending."""
        drainer = self._drainer
        if drainer is not None:
            with self._cond:
                self._stopping = True
                self._cond.notify_all()
            drainer.join()
            self._drainer = None
        if flush:
            self.flush()

    def __enter__(self) -> "AdmissionController":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _drain_loop(self) -> None:
        while True:
            self.pump()
            with self._cond:
                if self._stopping:
                    return
                now = self.clock.now()
                if self._tripped or (self._deadline is not None
                                     and now >= self._deadline):
                    continue  # due work appeared since the last pump
                if self._deadline is None:
                    self._cond.wait()
                else:
                    self._cond.wait(
                        timeout=max(0.0, self._deadline - now)
                    )

    # -- internals ---------------------------------------------------------

    def _compat_key(self, exploit_cse: bool, prune: bool) -> str:
        """Compatibility fingerprint prefix: scripts merge only when
        they were compiled against the same catalog files and will be
        optimized under the same configuration and flags."""
        catalog_token = ",".join(sorted(
            stats.path for stats in self.service.catalog.files()
        ))
        token = (f"{self.service._config_token}|{catalog_token}"
                 f"|cse={exploit_cse}|prune={prune}")
        return hashlib.sha256(token.encode("utf-8")).hexdigest()[:12]

    def _input_rows(self, logical) -> int:
        total = 0
        for path in referenced_paths(logical):
            try:
                total += self.service.catalog.lookup(path).rows
            except KeyError:  # pragma: no cover - unknown file
                pass
        return total

    def _thresholds_tripped(self) -> bool:
        cfg = self.config
        if (cfg.script_threshold is not None
                and self._pending_count >= cfg.script_threshold):
            return True
        if (cfg.row_threshold is not None
                and self._pending_rows >= cfg.row_threshold):
            return True
        return False

    def _tenant_weight(self, tenant: str) -> int:
        return max(1, int(self.config.tenant_weights.get(tenant, 1)))

    def _drain_locked(self) -> List[_Pending]:
        """Weighted round-robin drain of up to ``max_batch`` entries.

        The rotation pointer persists across flushes: each visited
        tenant contributes up to its weight, then the pointer moves on,
        so a flooding tenant cannot push anyone else's script beyond
        one window."""
        take: List[_Pending] = []
        order = self._tenant_order
        n = len(order)
        while len(take) < self.config.max_batch:
            for off in range(n):
                idx = (self._rr_index + off) % n
                tenant = order[idx]
                queue = self._queues[tenant]
                if queue:
                    budget = min(self._tenant_weight(tenant),
                                 self.config.max_batch - len(take))
                    for _ in range(budget):
                        if not queue:
                            break
                        take.append(queue.popleft())
                    self._rr_index = (idx + 1) % n
                    break
            else:
                break
        return take

    def _take_due(self, force: bool):
        with self._cond:
            if self._pending_count == 0:
                return None
            now = self.clock.now()
            if force:
                trigger = "force"
            elif self._tripped:
                trigger = "threshold"
            elif self._deadline is not None and now >= self._deadline:
                trigger = "window"
            else:
                return None
            entries = self._drain_locked()
            if not entries:  # pragma: no cover - defensive
                return None
            for entry in entries:
                self._by_dedup.pop(entry.dedup_key, None)
                self._pending_count -= 1
                self._pending_rows -= entry.weight
            window_id = self._window_id
            self._window_id += 1
            if self._pending_count == 0:
                self._deadline = None
                self._tripped = False
            else:
                # Leftovers (max_batch overflow) open a fresh window.
                self._deadline = now + self.config.window
                self._tripped = self._thresholds_tripped()
            remaining = self._pending_count
        return entries, trigger, window_id, remaining

    def _flush_loop(self, force: bool) -> int:
        executed = 0
        while True:
            due = self._take_due(force)
            if due is None:
                return executed
            executed += self._run_window(*due)

    def _run_window(self, entries: Sequence[_Pending], trigger: str,
                    window_id: int, remaining: int) -> int:
        """Execute one flushed window: group by compatibility, run each
        group as one merged shared job, route results to tickets."""
        groups: Dict[Tuple[str, bool, bool], List[_Pending]] = {}
        for entry in entries:
            key = (entry.compat, entry.exploit_cse, entry.prune)
            groups.setdefault(key, []).append(entry)

        total_shared = 0
        for (compat, exploit_cse, prune), group in groups.items():
            shared_names = self._run_group(
                group, exploit_cse, prune, trigger, window_id
            )
            total_shared += len(shared_names)
            with self._lock:
                self.stats.groups += 1
            self.bus.publish(ObsEvent.make(
                "service.admission.group", window=window_id,
                compat=compat, group_size=len(group),
                tenants=tuple(e.tenant for e in group),
                shared_vertices=len(shared_names),
            ))
        with self._lock:
            self.stats.flushes += 1
            self.stats.executed_scripts += len(entries)
            self.stats.shared_vertices += total_shared
        self.bus.publish(ObsEvent.make(
            "service.admission.window_flush", window=window_id,
            trigger=trigger, scripts=len(entries), groups=len(groups),
            shared_vertices=total_shared, queue_depth=remaining,
        ))
        self.bus.publish(ObsEvent.make(
            "service.admission.queue_depth", depth=remaining,
        ))
        return len(entries)

    def _run_group(self, group: List[_Pending], exploit_cse: bool,
                   prune: bool, trigger: str,
                   window_id: int) -> List[str]:
        # Canonical fingerprint-ordered labels: the merged plan's cache
        # identity then depends only on the distinct DAGs in the group,
        # not on which tenants (or how many windows ago) submitted them
        # — steady-state streams hit the plan cache every window.
        # Tenant attribution travels on the ScriptResult instead.
        group = sorted(group, key=lambda entry: entry.fingerprint)
        labels = [f"q{index}" for index in range(len(group))]
        try:
            run = self.service.execute_many(
                [entry.text for entry in group],
                labels=labels,
                uniquify_labels=True,
                precompiled=[entry.logical for entry in group],
                workers=self.workers,
                machines=self.machines,
                rows=self.rows,
                seed=self.seed,
                files=self.files,
                validate=self.validate,
                exploit_cse=exploit_cse,
                prune=prune,
                failure_rate=self.failure_rate,
                failure_seed=self.failure_seed,
                max_retries=self.max_retries,
                runtime=self.runtime,
                spill_dir=self.spill_dir,
            )
        except BaseException as exc:  # routed to callers, not raised here
            with self._lock:
                self.stats.failed_groups += 1
            now = self.clock.now()
            events = [ObsEvent.make(
                "service.admission.group_failed", window=window_id,
                scripts=len(group), error=type(exc).__name__,
            )]
            for entry in group:
                for ticket in entry.tickets:
                    events.append(ObsEvent.make(
                        "service.admission.resolve",
                        tenant=ticket.tenant,
                        latency=max(0.0, now - ticket.enqueued_at),
                        ok=False, window=window_id,
                        deduped=ticket is not entry.tickets[0],
                    ))
                    ticket._fail(exc)
            self._publish(events)
            return []
        shared = run.shared_vertices()
        shared_names = [v.name for v in shared]
        now = self.clock.now()
        events: List[ObsEvent] = []
        # Shared-work savings, attributed per tenant through the stage
        # graph's existing ``serves`` labels: a vertex feeding k scripts
        # of this batch ran once instead of k times, so each rider is
        # credited its share of the (k-1) avoided executions' rows.
        savings: Dict[str, List[float]] = {}
        batch_labels = set(run.submit.labels)
        label_tenants = {
            run.submit.labels[index]: entry.tenant
            for index, entry in enumerate(group)
        }
        for vertex in shared:
            labels = {path.split("/", 1)[0] for path in vertex.serves}
            labels &= batch_labels
            k = len(labels)
            stats = run.metrics.vertices.get(vertex.name)
            rows_out = stats.rows_out if stats is not None else 0
            for label in labels:
                tenant = label_tenants.get(label)
                if tenant is None:  # pragma: no cover - defensive
                    continue
                cell = savings.setdefault(tenant, [0, 0.0])
                cell[0] += 1
                cell[1] += rows_out * (k - 1) / k
        for tenant in sorted(savings):
            vertices, rows_saved = savings[tenant]
            events.append(ObsEvent.make(
                "service.admission.savings", tenant=tenant,
                window=window_id, vertices=int(vertices),
                rows_saved=rows_saved,
            ))
        for index, entry in enumerate(group):
            outputs = run.outputs[index]
            label = run.submit.labels[index]
            for t_index, ticket in enumerate(entry.tickets):
                events.append(ObsEvent.make(
                    "service.admission.resolve",
                    tenant=ticket.tenant,
                    latency=max(0.0, now - ticket.enqueued_at),
                    ok=True, window=window_id,
                    deduped=t_index > 0,
                ))
                ticket._resolve(ScriptResult(
                    outputs=outputs,
                    tenant=ticket.tenant,
                    label=label,
                    fingerprint=entry.fingerprint,
                    window_id=window_id,
                    trigger=trigger,
                    group_size=len(group),
                    deduped=t_index > 0,
                    run=run,
                ))
        self._publish(events)
        return shared_names
