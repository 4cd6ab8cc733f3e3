"""Execution metrics collected by the cluster simulator.

These are the measured counterparts of the cost model's components:
rows shipped through exchanges, rows spooled, rows processed per
operator, and the maximum per-partition row count (a direct skew
indicator).  Tests use them to check that the optimizer's choices have
the claimed effect (e.g. the CSE plan extracts the input once and ships
fewer rows than the conventional plan).

The task scheduler (``repro.exec.scheduler``) additionally records one
:class:`VertexStats` per stage-graph vertex: launches, per-partition
tasks, retries, rows in/out, wall time, and the estimated-vs-actual
cardinality ratio.  Everything :meth:`ExecutionMetrics.summary` renders
is independent of task completion order — counters are merged in vertex
order at the end of the run and wall-clock values are excluded — so the
same plan, data and failure seed always produce the same summary text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


@dataclass
class VertexStats:
    """Runtime statistics of one scheduled vertex."""

    vertex: str
    #: Times the vertex was launched (spool producers must stay at 1).
    launches: int = 0
    #: Tasks the launch expanded into (partition count if partitionwise).
    tasks: int = 0
    #: Failed task attempts that were retried.
    retries: int = 0
    rows_in: int = 0
    rows_out: int = 0
    #: Partition batches the vertex's tasks processed (summed over the
    #: per-task scratches; ``repro run --explain-exec`` prints these).
    batches: int = 0
    #: Optimizer's estimated output cardinality of the fragment root.
    estimated_rows: float = 0.0
    #: Measured wall time (seconds) summed over the vertex's tasks.
    wall_seconds: float = 0.0
    #: The vertex's contribution to the simulated makespan model
    #: (deterministic, unlike ``wall_seconds``); feeds the hotspot
    #: report of :mod:`repro.obs.report`.
    simulated_makespan: float = 0.0
    #: Output paths this vertex's result feeds (from the stage graph's
    #: attribution pass).  In a merged batch, more than one distinct
    #: ``<label>/`` prefix here marks cross-script shared work.
    serves: Tuple[str, ...] = ()
    #: Measured output rows of every plan fragment (memo group id) this
    #: vertex's tasks executed, summed over per-partition task slices.
    #: The cardinality-feedback loop (``repro.stats``) reads these to
    #: compare interior fragments — not just vertex boundaries — against
    #: the optimizer's estimates.
    fragment_rows: Dict[int, int] = field(default_factory=dict)

    @property
    def estimate_missing(self) -> bool:
        """True when the optimizer recorded no estimate for this vertex.

        A zero/absent estimate (plans built outside the optimizer, or
        operators the coster predicts empty) is *not* an estimation
        error of ``rows_out``× — there is simply nothing to compare
        against.  Renderers show ``est=?`` / ``n/a`` instead of a ratio.
        """
        return self.estimated_rows <= 0

    @property
    def cardinality_ratio(self) -> float:
        """actual / estimated output rows, guarded to stay finite.

        When :attr:`estimate_missing` is set the ratio is reported as a
        neutral ``1.0`` — check the flag before trusting it; renderers
        and the q-error report do.
        """
        if self.estimated_rows > 0:
            return self.rows_out / self.estimated_rows
        return 1.0


@dataclass
class ExecutionMetrics:
    """Counters accumulated over one plan execution."""

    rows_extracted: int = 0
    rows_shuffled: int = 0
    rows_broadcast: int = 0
    rows_spooled: int = 0
    spool_reads: int = 0
    rows_output: int = 0
    rows_sorted: int = 0
    #: Rows dropped by Filter operators (rows in minus rows surviving).
    rows_filtered: int = 0
    operator_invocations: Dict[str, int] = field(default_factory=dict)
    #: Column batches materialized at operator boundaries (one per
    #: partition per operator result, counted in ``_finish``).
    batches_processed: int = 0
    max_partition_rows: int = 0
    #: Simulated wall-clock model: per operator execution, the slowest
    #: partition's work (rows × a per-operator weight) plus the full
    #: volume of exchanges — a critical-path approximation of the job's
    #: makespan.  Used to validate the optimizer's cost model ordering
    #: against "measured" runtimes.
    simulated_makespan: float = 0.0
    #: Per-vertex scheduler statistics, keyed by vertex name (empty for
    #: the sequential executor).
    vertices: Dict[str, VertexStats] = field(default_factory=dict)
    #: Measured output rows per plan fragment, keyed by memo group id.
    #: Each fragment is counted **once** regardless of how many times a
    #: conventional plan re-executes it (the executors deduplicate by
    #: group id; the scheduler attributes each fragment to the first
    #: vertex that ran it, in deterministic vertex order).  This is the
    #: measured counterpart of ``Stats.rows`` and the raw input of the
    #: cardinality-feedback loop (``repro.stats.capture``).
    fragment_rows: Dict[int, int] = field(default_factory=dict)
    #: Total failed task attempts that were retried (scheduler only).
    task_retries: int = 0
    #: Worker processes lost mid-run — SIGKILL, OOM, crash — and
    #: replaced by the process runtime (always 0 on the thread
    #: scheduler and the sequential executors).
    worker_deaths: int = 0

    #: Per-row weights of the makespan model, mirroring the cost model's
    #: shape (exchanges pay volume, compute pays the slowest partition).
    COMPUTE_WEIGHT = 1.0
    EXCHANGE_WEIGHT = 2.0
    SPOOL_WEIGHT = 1.0

    def charge_compute(self, partitions) -> None:
        slowest = max((len(p) for p in partitions), default=0)
        self.simulated_makespan += slowest * self.COMPUTE_WEIGHT

    def charge_exchange(self, total_rows: int) -> None:
        self.simulated_makespan += total_rows * self.EXCHANGE_WEIGHT

    def charge_spool(self, total_rows: int) -> None:
        self.simulated_makespan += total_rows * self.SPOOL_WEIGHT

    def note_operator(self, name: str) -> None:
        self.operator_invocations[name] = self.operator_invocations.get(name, 0) + 1

    def note_batches(self, count: int) -> None:
        """Count ``count`` column batches materialized."""
        self.batches_processed += count

    def rows_processed(self) -> int:
        """Total rows flowing through the run's materialization points.

        Extraction, exchanges (shuffle/broadcast), spool builds and
        final outputs each count the rows they move — the measured
        analogue of the cost model's volume terms, and the headline
        number the feedback benchmark compares across plans.
        """
        return (self.rows_extracted + self.rows_shuffled +
                self.rows_broadcast + self.rows_spooled + self.rows_output)

    def note_fragment_rows(self, group_id: int, rows: int) -> None:
        """Accumulate measured output rows for one plan fragment.

        Within one executor (or one scheduled task slice) callers must
        report each fragment at most once; sliced tasks of the same
        vertex sum because each slice carries one partition's share.
        """
        self.fragment_rows[group_id] = (
            self.fragment_rows.get(group_id, 0) + rows
        )

    def note_partition_sizes(self, partitions) -> None:
        for partition in partitions:
            if len(partition) > self.max_partition_rows:
                self.max_partition_rows = len(partition)

    def merge_from(self, other: "ExecutionMetrics") -> None:
        """Fold another metrics object (a task's scratch) into this one.

        The scheduler merges task scratches in vertex order once the run
        completes, so the result does not depend on completion order.
        """
        self.rows_extracted += other.rows_extracted
        self.rows_shuffled += other.rows_shuffled
        self.rows_broadcast += other.rows_broadcast
        self.rows_spooled += other.rows_spooled
        self.spool_reads += other.spool_reads
        self.rows_output += other.rows_output
        self.rows_sorted += other.rows_sorted
        self.rows_filtered += other.rows_filtered
        self.simulated_makespan += other.simulated_makespan
        self.task_retries += other.task_retries
        self.worker_deaths += other.worker_deaths
        self.batches_processed += other.batches_processed
        for name, count in other.operator_invocations.items():
            self.operator_invocations[name] = (
                self.operator_invocations.get(name, 0) + count
            )
        if other.max_partition_rows > self.max_partition_rows:
            self.max_partition_rows = other.max_partition_rows
        self.vertices.update(other.vertices)
        # fragment_rows is deliberately NOT merged here: task slices of
        # one vertex must sum while duplicate executions of the same
        # fragment across vertices must not, so the scheduler attributes
        # fragments explicitly during finalization.

    # -- rendering ---------------------------------------------------------

    def summary(self) -> str:
        lines = [
            f"makespan:   {self.simulated_makespan:>12,.0f}",
            f"extracted:  {self.rows_extracted:>12,}",
            f"shuffled:   {self.rows_shuffled:>12,}",
            f"broadcast:  {self.rows_broadcast:>12,}",
            f"spooled:    {self.rows_spooled:>12,} (reads: {self.spool_reads})",
            f"sorted:     {self.rows_sorted:>12,}",
            f"filtered:   {self.rows_filtered:>12,}",
            f"output:     {self.rows_output:>12,}",
            f"max part:   {self.max_partition_rows:>12,}",
        ]
        if self.worker_deaths:
            lines.append(f"worker deaths: {self.worker_deaths:>9,}")
        ops = ", ".join(
            f"{name}×{count}"
            for name, count in sorted(self.operator_invocations.items())
        )
        lines.append(f"operators:  {ops}")
        if self.batches_processed:
            lines.append(f"batches:    {self.batches_processed:>12,}")
        if self.vertices:
            lines.append(
                f"vertices:   {len(self.vertices):>12,} "
                f"(retries: {self.task_retries})"
            )
            for name in sorted(self.vertices):
                stats = self.vertices[name]
                est = (
                    "est=?" if stats.estimate_missing
                    else f"est×{stats.cardinality_ratio:.2f}"
                )
                lines.append(
                    f"  {name}: launches={stats.launches} "
                    f"tasks={stats.tasks} retries={stats.retries} "
                    f"rows={stats.rows_in:,}→{stats.rows_out:,} "
                    f"{est}"
                )
        return "\n".join(lines)

    def vertex_table(self) -> Optional[str]:
        """Wide per-vertex table including measured wall times.

        Unlike :meth:`summary` this includes wall-clock values, so it is
        *not* run-to-run deterministic; the CLI prints it, tests don't
        compare it.
        """
        if not self.vertices:
            return None
        header = (
            f"{'vertex':<28}{'launch':>7}{'tasks':>6}{'retry':>6}"
            f"{'rows in':>12}{'rows out':>12}{'est ratio':>10}{'ms':>9}"
        )
        lines = [header, "-" * len(header)]
        for name in sorted(self.vertices):
            s = self.vertices[name]
            ratio = (
                "n/a" if s.estimate_missing
                else f"{s.cardinality_ratio:.2f}"
            )
            lines.append(
                f"{s.vertex:<28}{s.launches:>7}{s.tasks:>6}{s.retries:>6}"
                f"{s.rows_in:>12,}{s.rows_out:>12,}"
                f"{ratio:>10}{s.wall_seconds * 1e3:>9.1f}"
            )
        return "\n".join(lines)

    # -- stable export / event-bus publishing -----------------------------

    _COUNTER_FIELDS = (
        "rows_extracted", "rows_shuffled", "rows_broadcast", "rows_spooled",
        "spool_reads", "rows_output", "rows_sorted", "rows_filtered",
        "max_partition_rows", "simulated_makespan", "task_retries",
        "worker_deaths", "batches_processed",
    )

    def to_labels(self) -> Dict[str, float]:
        """Stable flat ``name -> value`` export of every deterministic
        counter: the scalar fields in declaration order, then
        ``operator.<name>`` sorted.

        This is the one canonical dict both :meth:`publish` (and hence
        the metrics collector) and the CLI's ``--stats-json`` render
        from — wall-clock values are excluded, so two runs of the same
        plan/data/seed export identical dicts.
        """
        out: Dict[str, float] = {
            name: getattr(self, name) for name in self._COUNTER_FIELDS
        }
        for name in sorted(self.operator_invocations):
            out[f"operator.{name}"] = self.operator_invocations[name]
        return out

    def as_dict(self) -> Dict[str, object]:
        """:meth:`to_labels` plus a per-vertex section (launches, tasks,
        retries, rows, batches) — the full deterministic JSON view."""
        doc: Dict[str, object] = dict(self.to_labels())
        if self.vertices:
            doc["vertices"] = {
                name: {
                    "launches": stats.launches,
                    "tasks": stats.tasks,
                    "retries": stats.retries,
                    "rows_in": stats.rows_in,
                    "rows_out": stats.rows_out,
                    "batches": stats.batches,
                    "estimated_rows": stats.estimated_rows,
                    "serves": list(stats.serves),
                }
                for name, stats in sorted(self.vertices.items())
            }
        return doc

    def publish(self, bus) -> None:
        """Emit this run's counters onto an :class:`~repro.obs.bus.EventBus`.

        One ``exec.counter`` event per scalar counter, one
        ``exec.operator`` event per operator kind, and one
        ``exec.vertex`` event per scheduled vertex — the execution-side
        feed of the shared observability bus (wall-clock values are
        deliberately excluded so the event stream stays deterministic).
        The values come from :meth:`to_labels`, so the event stream and
        the CLI's JSON export can never disagree.
        """
        from ..obs.bus import ObsEvent

        for name, value in self.to_labels().items():
            if name.startswith("operator."):
                bus.publish(ObsEvent.make(
                    "exec.operator", name=name[len("operator."):],
                    invocations=value,
                ))
            else:
                bus.publish(ObsEvent.make(
                    "exec.counter", name=name, value=value,
                ))
        for name in sorted(self.vertices):
            stats = self.vertices[name]
            bus.publish(ObsEvent.make(
                "exec.vertex",
                vertex=stats.vertex,
                launches=stats.launches,
                tasks=stats.tasks,
                retries=stats.retries,
                rows_in=stats.rows_in,
                rows_out=stats.rows_out,
                batches=stats.batches,
                estimated_rows=stats.estimated_rows,
                estimate_missing=stats.estimate_missing,
                simulated_makespan=stats.simulated_makespan,
                serves=stats.serves,
            ))
