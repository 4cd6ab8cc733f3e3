"""Measurement plumbing shared by the workloads.

A workload run produces a list of :class:`Request` records (one per
request: one script or one merged batch).  This module turns them into
the end-to-end metrics of ``BENCHMARK.json``, checks outputs against
the ``NaiveEvaluator`` oracle, and times the workload's set-up.

Times are reported at the host's reference speed.  On a shared host
the neighbours' load slows every instruction stream by 5-90%, in spells
of one second to minutes, so one 20-second run can read 40% slower than
the next on the same code.  The harness therefore times a fixed
calibration routine (:func:`host_slowdown`, independent of the program)
before and after every request and set-up, and divides each wall time
by the slowdown measured around it.  The raw wall-clock figures are
printed beside the scaled ones.

A run repeats whole passes over a fixed mix of request *kinds* (one
script, or one batch composition).  The latency metrics take each
kind's median over the run's passes first, which discards the passes a
short spell of contention hit.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: :func:`calibration_routine`'s time on an idle core of the 2-vCPU
#: host the bounds in ``BENCHMARK.json`` were set on.
REFERENCE_CALIBRATION_S = 0.002


@dataclass
class Request:
    """One measured request and what it produced."""

    latency_s: float
    #: Scripts the request carried (batch size; 1 for a solo request).
    scripts: int
    #: What the request was: a script name, or a batch's queries.
    kind: str = ""
    #: Scripts whose outputs differed from the oracle.
    wrong: int = 0
    #: Scripts whose request raised.
    failed: int = 0
    #: ``ExecutionMetrics.rows_processed()`` of the request's run.
    rows: int = 0
    #: DAG cost of the plan that ran.
    est_cost: float = 0.0
    #: Host slowdown around the request (:func:`host_slowdown`).
    slowdown: float = 1.0

    @property
    def scaled_s(self) -> float:
        """The latency at the host's reference speed."""
        return self.latency_s / self.slowdown


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    frac = pos - low
    if frac == 0:
        return ordered[low]
    return ordered[low] * (1 - frac) + ordered[high] * frac


class _Item:
    __slots__ = ("key", "label", "weight")

    def __init__(self, key: int, label: str, weight: float):
        self.key = key
        self.label = label
        self.weight = weight


def calibration_routine() -> int:
    """A fixed mix of interpreter work like the program's own: build
    seeded tuples, sort them, group them into small objects by a string
    key, aggregate, and hash tuples into a set.  About 2 ms."""
    rng = random.Random(7)
    rows = [(rng.randrange(1000), f"k{rng.randrange(300)}", rng.random())
            for _ in range(1500)]
    rows.sort()
    groups: Dict[str, list] = {}
    for key, label, weight in rows:
        groups.setdefault(label, []).append(_Item(key, label, weight))
    total = 0.0
    for items in groups.values():
        total += sum(i.weight for i in items if i.key % 3)
    return len({row[:2] for row in rows}) + int(total)


def host_slowdown() -> float:
    """How much slower than its reference the host runs right now: the
    best of three timings of :func:`calibration_routine` over
    ``REFERENCE_CALIBRATION_S``."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        calibration_routine()
        best = min(best, time.perf_counter() - started)
    return best / REFERENCE_CALIBRATION_S


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def canonical_outputs(outputs: Dict[str, object]) -> Dict[str, list]:
    """``{path: sorted rows}`` — the form ``NaiveEvaluator.run`` returns."""
    return {path: ds.sorted_rows() for path, ds in outputs.items()}


def outputs_match(outputs: Dict[str, object],
                  expected: Dict[str, list]) -> bool:
    """True when a run's outputs equal the oracle's, path by path."""
    return canonical_outputs(outputs) == expected


def timed_setup(build: Callable[[], object],
                repeats: int = SETUP_REPEATS) -> Tuple[object, float]:
    """Run ``build`` ``repeats`` times; return the last world and the
    median time of one set-up at the host's reference speed."""
    times = []
    world = None
    for _ in range(repeats):
        world = None  # let the previous world go before building anew
        gc.collect()
        before = host_slowdown()
        started = time.perf_counter()
        world = build()
        wall = time.perf_counter() - started
        times.append(wall / ((before + host_slowdown()) / 2))
    return world, statistics.median(times)


@dataclass
class RunSummary:
    """Everything one workload run reports."""

    requests: List[Request]
    setup_s: float
    #: Per-layer metrics (traced runs only).
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Lines printed before the JSON result (explanations, flags).
    notes: List[str] = field(default_factory=list)

    @property
    def scripts(self) -> int:
        return sum(r.scripts for r in self.requests)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.requests)

    @property
    def wrong(self) -> int:
        return sum(r.wrong for r in self.requests)

    def kind_latencies(self, scaled: bool = True
                       ) -> Dict[str, Tuple[float, int, int]]:
        """``{kind: (median latency in ms, scripts, requests)}``, at the
        host's reference speed unless ``scaled`` is False.

        A failed request misses every latency limit, so it counts as
        infinitely slow.
        """
        by_kind: Dict[str, List[Request]] = {}
        for r in self.requests:
            by_kind.setdefault(r.kind, []).append(r)
        return {
            kind: (statistics.median(
                       float("inf") if r.failed
                       else 1000.0 * (r.scaled_s if scaled else r.latency_s)
                       for r in reqs),
                   reqs[0].scripts, len(reqs))
            for kind, reqs in by_kind.items()
        }

    def timings(self, scaled: bool = True) -> Dict[str, Tuple[float, str]]:
        """Latency percentiles and throughput.

        ``latency_p50_ms``/``latency_p90_ms`` are percentiles over the
        mix's kinds, each at its median latency; every kind is equally
        frequent in a pass, so they are the percentiles of a pass run at
        each kind's typical speed.  ``throughput_sps`` is the scripts of
        one such pass over its time.
        """
        kinds = self.kind_latencies(scaled).values()
        medians = [ms for ms, _, _ in kinds]
        finished = [(ms, scripts) for ms, scripts, _ in kinds
                    if math.isfinite(ms)]
        pass_s = sum(ms for ms, _ in finished) / 1000.0
        return {
            "latency_p50_ms": (percentile(medians, 50), "ms"),
            "latency_p90_ms": (percentile(medians, 90), "ms"),
            "throughput_sps": (
                sum(scripts for _, scripts in finished) / pass_s
                if pass_s > 0 else 0.0, "1/s"),
        }

    def end_to_end(self) -> Dict[str, Tuple[float, str]]:
        """The end-to-end metrics, ``{name: (value, unit)}``; times at
        the host's reference speed."""
        done = [r for r in self.requests if not r.failed]
        scripts_done = sum(r.scripts for r in done)
        return {
            **self.timings(),
            "rows_per_script": (
                sum(r.rows for r in done) / max(scripts_done, 1), "count"),
            "est_cost_per_script": (
                sum(r.est_cost for r in done) / max(scripts_done, 1),
                "cost"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
            "setup_s": (self.setup_s, "s"),
        }

    def error_rate(self) -> float:
        """(failed + wrong-output) / attempted scripts."""
        return (self.failed + self.wrong) / max(self.scripts, 1)

    def sample_note(self) -> str:
        """Sample count, kinds, and repeats of each kind."""
        kinds = self.kind_latencies().values()
        repeats = [n for _, _, n in kinds]
        medians = [ms for ms, _, _ in kinds]
        beyond = sum(1 for ms in medians
                     if ms > percentile(medians, 90)) if medians else 0
        return (f"samples={len(self.requests)} kinds={len(repeats)} "
                f"repeats_per_kind={min(repeats, default=0)}"
                f"-{max(repeats, default=0)} "
                f"kinds_beyond_p90={beyond}")

    def wall_note(self) -> str:
        """The unscaled timings and the host slowdown they carried."""
        wall = ", ".join(f"{name}={value:.6g} {unit}" for name, (value, unit)
                         in self.timings(scaled=False).items())
        slowdowns = [r.slowdown for r in self.requests]
        return (f"wall clock (unscaled): {wall}; host slowdown "
                f"median={statistics.median(slowdowns):.3f} "
                f"min={min(slowdowns):.3f} max={max(slowdowns):.3f}")


def closed_loop(next_request: Callable[[int], Callable[[], Request]],
                seconds: float,
                pass_starts: Callable[[int], bool]
                ) -> Tuple[List[Request], List[int]]:
    """One client: send request ``i`` only after request ``i-1`` ended.

    ``next_request(i)`` returns a thunk that performs request ``i``.
    Runs until ``seconds`` have passed, then on to the end of the
    current pass (``pass_starts(i)`` is True when request ``i`` opens
    one), so every run measures whole copies of the workload's mix.
    Each record carries the host slowdown measured before and after it.
    Returns the records and the request indices in the order they ran
    (for a traced replay).
    """
    records: List[Request] = []
    order: List[int] = []
    started = time.perf_counter()
    index = 0
    before = host_slowdown()
    while not (index > 0 and pass_starts(index)
               and time.perf_counter() - started >= seconds):
        thunk = next_request(index)
        record = thunk()
        after = host_slowdown()
        record.slowdown = (before + after) / 2
        before = after
        records.append(record)
        order.append(index)
        index += 1
    return records, order


def replay(next_request: Callable[[int], Callable[[], Request]],
           order: Sequence[int],
           around: Callable[[Callable[[], Request]], Request]
           ) -> List[Request]:
    """Run exactly the requests in ``order``, each through ``around``;
    records carry the host slowdown as in :func:`closed_loop`."""
    records: List[Request] = []
    before = host_slowdown()
    for index in order:
        record = around(next_request(index))
        after = host_slowdown()
        record.slowdown = (before + after) / 2
        before = after
        records.append(record)
    return records
