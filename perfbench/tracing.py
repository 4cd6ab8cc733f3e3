"""The traced run: spans at layer boundaries and per-layer self time.

The program already records spans inside its pipeline (``parse``,
``compile``, ``prune``, ``cse.detect``, ``optimize.phase1``/``phase2``/
``round``/``fallback``, ``stage_graph.cut``, scheduler vertices and
tasks) when it is handed a :class:`repro.obs.Tracer`.  The benchmark
adds its own spans *from its own files* around the public functions
where one layer calls the next, by wrapping them for the duration of a
traced run (:func:`instrument`); nothing under ``src/`` changes.

A layer's self time is the duration of its spans minus the part of
each span's interval its child spans cover (:func:`attribute`).  Spans
that belong to no layer (the benchmark's ``request`` root and the API's
``run`` glue) are the uncovered remainder.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.tracer import Span, Tracer

#: The repository's modules, in pipeline order.
LAYERS = ("frontend", "plan", "cse", "optimizer", "exec", "service",
          "admission")

#: Span name -> layer, for exact names.
_EXACT = {
    "parse": "frontend",
    "compile": "frontend",
    "frontend.compile_text": "frontend",
    "prune": "plan",
    "verify": "optimizer",
    "execute": "exec",
    "stage_graph.cut": "exec",
    "spool.materialize": "exec",
}

#: Span name prefix -> layer, tried in order.
_PREFIXES = (
    ("cse.", "cse"),
    ("optimize.", "optimizer"),
    ("optimizer.", "optimizer"),
    ("exec.", "exec"),
    ("scheduler.", "exec"),
    ("task/", "exec"),
    ("service.", "service"),
    ("admission.", "admission"),
)


def layer_of(name: str) -> Optional[str]:
    """The layer a span belongs to, or None for harness/glue spans."""
    layer = _EXACT.get(name)
    if layer is not None:
        return layer
    for prefix, layer in _PREFIXES:
        if name.startswith(prefix):
            return layer
    return None


def _wrap(tracer: Tracer, fn, span_name: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(span_name):
            return fn(*args, **kwargs)
    return traced


def _boundaries():
    """``(owner, attribute, span name)`` for every wrapped call."""
    import repro.api as api
    import repro.service.core as core
    from repro.cse.merge import MergedBatch
    from repro.exec.cluster import Cluster
    from repro.exec.dist.supervisor import ProcessScheduler
    from repro.exec.runtime import PlanExecutor
    from repro.exec.scheduler import TaskScheduler
    from repro.service.admission import AdmissionController

    return (
        (api, "compile_text", "frontend.compile_text"),
        (core, "compile_text", "frontend.compile_text"),
        (api, "optimize_plan", "optimizer.optimize_plan"),
        (core, "optimize_plan", "optimizer.optimize_plan"),
        (core, "canonicalize", "cse.canonicalize"),
        (core, "merge_scripts", "cse.merge"),
        (MergedBatch, "split_outputs", "cse.split_outputs"),
        (Cluster, "load_file", "exec.load"),
        (PlanExecutor, "execute", "exec.execute"),
        (TaskScheduler, "execute", "exec.execute"),
        (ProcessScheduler, "execute", "exec.execute"),
        (core.QueryService, "submit", "service.submit"),
        (core.QueryService, "submit_many", "service.submit_many"),
        (core.QueryService, "execute", "service.execute"),
        (core.QueryService, "execute_many", "service.execute_many"),
        (core.QueryService, "update_statistics", "service.stats_update"),
        (AdmissionController, "submit_nowait", "admission.submit"),
        (AdmissionController, "flush", "admission.flush"),
    )


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap each layer-boundary call in a span for the ``with`` body."""
    saved = []
    try:
        for owner, attr, span_name in _boundaries():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, span_name))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def attribute(root: Span) -> Dict[Optional[str], float]:
    """Split ``root``'s wall time among layers by self time.

    At each instant the time goes to the deepest open span, which is a
    span's duration minus the time its children cover.  Scheduler
    vertices and tasks run in parallel; where several spans are deepest
    at once the instant is split between them, so the layers' shares
    add up to the root's duration and never beyond it.
    """
    events = []
    stack = [(root, 0)]
    while stack:
        span, depth = stack.pop()
        start, end = max(span.start, root.start), min(span.end, root.end)
        if end > start:
            events.append((start, 1, depth, id(span), layer_of(span.name)))
            events.append((end, 0, depth, id(span), None))
        stack.extend((child, depth + 1) for child in span.children)
    events.sort()
    shares: Dict[Optional[str], float] = {}
    active: Dict[int, Tuple[int, Optional[str]]] = {}
    last = None
    for at, opening, depth, key, layer in events:
        if active and last is not None and at > last:
            deepest = max(d for d, _ in active.values())
            owners = [lay for d, lay in active.values() if d == deepest]
            piece = (at - last) / len(owners)
            for owner in owners:
                shares[owner] = shares.get(owner, 0.0) + piece
        last = at
        if opening:
            active[key] = (depth, layer)
        else:
            active.pop(key, None)
    return shares


class TraceProfile:
    """Per-layer self time and per-span totals of one traced run."""

    def __init__(self, roots: List[Span]):
        self.roots = roots
        self.request_s = sum(root.duration for root in roots)
        self.layer_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.uncovered_s = 0.0
        #: Span name -> (count, summed duration in seconds).
        self.spans: Dict[str, Tuple[int, float]] = {}
        for root in roots:
            for span in root.walk():
                count, total = self.spans.get(span.name, (0, 0.0))
                self.spans[span.name] = (count + 1, total + span.duration)
            for layer, seconds in attribute(root).items():
                if layer is None:
                    self.uncovered_s += seconds
                else:
                    self.layer_s[layer] += seconds

    def total(self, name: str) -> float:
        """Summed duration (s) of every span called ``name``."""
        return self.spans.get(name, (0, 0.0))[1]

    def count(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0))[0]

    def share(self, layer: str) -> float:
        """The layer's self time as a % of traced request time."""
        return 100.0 * self.layer_s[layer] / self.request_s

    def dominant(self) -> str:
        return max(self.layer_s, key=self.layer_s.get)

    def covered_pct(self) -> float:
        return 100.0 * sum(self.layer_s.values()) / self.request_s
