"""The worker-process side of the distributed runtime.

One :func:`worker_main` loop runs per worker process.  Workers are
**forked** from the supervisor *after* the stage graph is built, so the
graph (with its ``id()``-keyed cut points — see
:class:`~repro.exec.scheduler.FragmentExecutor`), the cluster's input
files and the fault plan all arrive by copy-on-write inheritance.
Nothing plan-shaped is ever pickled: pickling would re-create the plan
nodes under new ``id()``s and silently detach every cut point.

A worker's data plane is files + pipes:

* task *inputs* are read from the run's spill directory as columnar
  wire blobs and fed to the executor as decoded, with no conversion;
* task *outputs* are written back to the spill directory, one wire blob
  per partition, via atomic rename;
* only control metadata — file paths, row counts, the task's metrics
  scratch, and any final ``OUTPUT`` datasets — travels over the duplex
  pipe to the supervisor.

Operator semantics are byte-identical to the thread scheduler: the same
``FragmentExecutor`` executes the same fragment against the same
partition data, and the same seeded fault coin is tossed at the same
point, so the differential suite holds thread and process runs equal on
outputs *and* on every deterministic counter.
"""

from __future__ import annotations

import gc
import os
import signal
import time

from ..cluster import Cluster
from ..columnar.batch import ColumnarDataset
from ..metrics import ExecutionMetrics
from ..scheduler import FragmentExecutor, InjectedFault
from .wire import decode_dataset, encode_dataset


def worker_main(conn, worker_id, graph, files, machines, validate,
                faults, retry, spill) -> None:
    """Recv/execute/reply loop of one forked worker process.

    Exits cleanly on a ``stop`` message or when the supervisor's end of
    the pipe closes.  A ``kill`` flag on a task message makes the worker
    SIGKILL itself *before* touching the task — the supervisor's
    crash-fault injection, indistinguishable from a machine loss.
    """
    # Prefork hygiene: everything inherited (plan, graph, input files)
    # is immortal for this worker's lifetime; freezing it keeps the GC
    # from rescanning — and un-sharing, via refcount writes — the big
    # copy-on-write heap on every collection.
    gc.freeze()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg.get("op") == "stop":
            return
        if msg.get("kill"):
            # Die like a preempted machine, not like an exception: no
            # reply, no cleanup, no atexit — the supervisor must detect
            # the loss from the pipe alone.
            os.kill(os.getpid(), signal.SIGKILL)
        try:
            reply = _run_task(msg, graph, files, machines, validate,
                              faults, retry, spill)
        except BaseException as error:  # noqa: BLE001 - shipped upstream
            reply = {
                "op": "error",
                "vid": msg["vid"],
                "slot": msg["slot"],
                "attempt": msg["attempt"],
                "retryable": isinstance(error, InjectedFault),
                "error": f"{type(error).__name__}: {error}",
            }
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


def _load_cut(spill, relpaths, part):
    """Read one dependency's spilled partitions into one dataset.

    ``part`` selects a single partition for sliced tasks (the file
    granularity is per partition precisely so a slice reads only its
    own shard); ``None`` assembles the whole dataset.
    """
    wanted = [relpaths[part]] if part is not None else relpaths
    decoded = [decode_dataset(spill.read(p)) for p in wanted]
    first = decoded[0]
    return ColumnarDataset(
        first.schema,
        [batch for d in decoded for batch in d.partitions],
        first.props,
    )


def _run_task(msg, graph, files, machines, validate, faults, retry,
              spill):
    vertex = graph.vertices[msg["vid"]]
    part = msg["part"]
    attempt = msg["attempt"]
    delay = retry.delay(attempt)
    if delay > 0.0:
        time.sleep(delay)
    started = time.perf_counter()
    if faults.should_fail(vertex.name, part, attempt):
        raise InjectedFault(
            f"injected fault in {vertex.name} "
            f"(part={part}, attempt={attempt})"
        )
    cuts = {
        node_id: _load_cut(spill, msg["cuts"][dep_vid], part)
        for node_id, dep_vid in vertex.cut_nodes.items()
    }
    scratch = ExecutionMetrics()
    # A fresh per-task cluster shares the inherited input files but
    # collects OUTPUT writes privately, so only the supervisor-side
    # winner of a task commits them (exactly-once under re-dispatch).
    cluster = Cluster(machines=machines, files=files)
    executor = FragmentExecutor(
        cluster, validate, scratch, cuts,
        slice_mode=part is not None,
    )
    result = executor._run(vertex.root)
    parts, rows = [], []
    for p in range(result.n_partitions):
        piece = ColumnarDataset(
            result.schema, [result.partitions[p]], result.props
        )
        relpath = spill.task_file(msg["vid"], msg["slot"], p, attempt)
        spill.write(relpath, encode_dataset(piece))
        parts.append(relpath)
        rows.append(len(result.partitions[p]))
    outputs = {
        path: encode_dataset(data)
        for path, data in cluster.outputs.items()
    }
    return {
        "op": "ok",
        "vid": msg["vid"],
        "slot": msg["slot"],
        "attempt": attempt,
        "parts": parts,
        "rows": rows,
        "outputs": outputs,
        "scratch": scratch,
        "started": started,
        "ended": time.perf_counter(),
    }
