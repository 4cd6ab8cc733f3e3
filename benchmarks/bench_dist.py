"""Thread vs process runtime on a CPU-bound filter/agg workload.

The claim of the distributed-runtime PR, measured: on a CPU-bound
filter/agg pipeline at ``WORKERS`` workers, the multiprocess scheduler
must finish at least ``SPEEDUP_FLOOR``x faster than the thread
scheduler — same plan, same cluster, byte-identical outputs, and the
run-scoped spill directory fully cleaned up afterwards.

Where the win comes from (and why it holds even on a single core):

* **per-worker heap isolation** — the thread scheduler executes every
  task in one shared interpreter heap, so each gen-2 garbage collection
  rescans *all* resident cluster data, including datasets the query
  never touches (``resident.log`` below models the usual cloud cluster
  that hosts far more data than one query reads).  Forked workers
  ``gc.freeze()`` the inherited heap and collect only their task-local
  allocations.
* **serialized exchanges** — the process runtime ships compact columnar
  wire blobs through the spill directory; workers feed the decoded
  batches straight into the executor.

On multi-core CI runners the process runtime additionally gets real
parallelism across the 4-way-partitioned stages, which the GIL denies
the thread scheduler; the floor below is set from single-core runs and
is therefore conservative.

Raw numbers land in ``BENCH_dist.json`` next to this file::

    pytest benchmarks/bench_dist.py -s
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.api import optimize_script
from repro.exec import Cluster, ProcessScheduler, TaskScheduler
from repro.optimizer.cost import CostParams
from repro.optimizer.engine import OptimizerConfig
from repro.plan.columns import ColumnType
from repro.scope.catalog import Catalog
from repro.workloads.datagen import generate_for_catalog

MACHINES = 4
WORKERS = 8
ROWS = 300_000
RESIDENT_ROWS = 4_000_000
BEST_OF = 3
SPEEDUP_FLOOR = 2.0
OUT_PATH = pathlib.Path(__file__).parent / "BENCH_dist.json"

#: Ten-column extract, a selective filter, then a cascade of grouped
#: aggregations whose key sets shrink stage by stage — CPU-bound from
#: the first vertex to the last, with a wide intermediate crossing the
#: one exchange boundary.
WORKLOAD = """
R0 = EXTRACT A,B,C,D,E,F,G,H,I,J FROM "wide.log" USING LogExtractor;
RF = SELECT A,B,C,D,E,F,G,H,I,J FROM R0 WHERE G < 170;
S1 = SELECT A,B,C,D,E,F,G,H,Sum(I) AS SI,Sum(J) AS SJ FROM RF GROUP BY A,B,C,D,E,F,G,H;
S2 = SELECT B,C,D,E,F,G,H,Sum(SI) AS I2,Sum(SJ) AS J2 FROM S1 GROUP BY B,C,D,E,F,G,H;
S3 = SELECT C,D,E,F,G,Sum(I2) AS I3,Sum(J2) AS J3 FROM S2 GROUP BY C,D,E,F,G;
S4 = SELECT D,E,Sum(I3) AS I4,Sum(J3) AS J4 FROM S3 GROUP BY D,E;
S5 = SELECT D,Sum(I4) AS I5,Count(*) AS N5 FROM S4 GROUP BY D;
OUTPUT S5 TO "s5.out";
"""

WIDE_COLUMNS = ("A", "B", "C", "D", "E", "F", "G", "H", "I", "J")
WIDE_NDV = {
    "A": 5_000, "B": 2_000, "C": 500, "D": 50_000, "E": 10_000,
    "F": 1_000, "G": 200, "H": 25_000, "I": 4_000, "J": 100_000,
}


def _make_catalog() -> Catalog:
    catalog = Catalog()
    catalog.register_file(
        "wide.log",
        [(name, ColumnType.INT) for name in WIDE_COLUMNS],
        rows=ROWS,
        ndv=WIDE_NDV,
    )
    # Resident but unqueried: the shared-heap thread runtime still pays
    # garbage-collection scans over it on every collection; the forked
    # workers freeze it out of their collector entirely.
    catalog.register_file(
        "resident.log",
        [(name, ColumnType.INT) for name in ("J", "K", "L", "M")],
        rows=RESIDENT_ROWS,
        ndv={"J": 100_000, "K": 50, "L": 9_000, "M": 70_000},
    )
    return catalog


def _best_of(fn, repeats=BEST_OF):
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def test_process_runtime_is_2x_faster(capsys):
    catalog = _make_catalog()
    config = OptimizerConfig(cost_params=CostParams(machines=MACHINES))
    plan = optimize_script(WORKLOAD, catalog, config).plan
    files = generate_for_catalog(catalog, seed=1)

    def make_cluster():
        cluster = Cluster(machines=MACHINES)
        for path, rows in files.items():
            cluster.load_file(path, rows)
        return cluster

    timings = {}
    outputs = {}
    spill_paths = []
    for label, scheduler_cls in (
        ("thread", TaskScheduler),
        ("process", ProcessScheduler),
    ):

        def run(cls=scheduler_cls, label=label):
            scheduler = cls(
                make_cluster(), workers=WORKERS, validate=False,
            )
            outputs[label] = scheduler.execute(plan)
            if cls is ProcessScheduler:
                spill_paths.append(scheduler.spill.path)

        run()  # warm-up: page cache, fork machinery
        timings[label] = _best_of(run)

    # The speedup only counts if the bytes are identical.
    assert set(outputs["thread"]) == set(outputs["process"])
    for path in outputs["thread"]:
        assert (
            outputs["thread"][path].canonical_bytes()
            == outputs["process"][path].canonical_bytes()
        ), f"output {path} differs between runtimes"
    # Exactly-once bookkeeping: every successful run removed its spill.
    for spill_path in spill_paths:
        assert not os.path.exists(spill_path), spill_path

    speedup = timings["thread"] / timings["process"]
    report = {
        "benchmark": "dist_runtime",
        "machines": MACHINES,
        "workers": WORKERS,
        "rows": ROWS,
        "resident_rows": RESIDENT_ROWS,
        "best_of": BEST_OF,
        "speedup_floor": SPEEDUP_FLOOR,
        "thread_seconds": timings["thread"],
        "process_seconds": timings["process"],
        "speedup": speedup,
    }
    doc = {}
    if OUT_PATH.exists():
        try:
            doc = json.loads(OUT_PATH.read_text())
        except ValueError:
            doc = {}
    doc[report["benchmark"]] = report
    OUT_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    with capsys.disabled():
        print(f"\n=== Thread vs process runtime "
              f"({ROWS:,} rows + {RESIDENT_ROWS:,} resident, "
              f"{WORKERS} workers, best of {BEST_OF}) ===")
        header = f"{'runtime':<10}{'seconds':>9}"
        print(header)
        print("-" * len(header))
        print(f"{'thread':<10}{timings['thread']:>9.3f}")
        print(f"{'process':<10}{timings['process']:>9.3f}")
        print(f"speedup: {speedup:.2f}x (floor {SPEEDUP_FLOOR:.1f}x)")
        print(f"-> {OUT_PATH.name}")

    assert speedup >= SPEEDUP_FLOOR, (
        f"process runtime only {speedup:.2f}x faster "
        f"(floor {SPEEDUP_FLOOR:.1f}x)"
    )
