"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (puts src/ on the path)
from repro.exec.datasets import Dataset  # noqa: E402
from repro.obs.tracer import Span  # noqa: E402
from harness import Request, RunSummary  # noqa: E402
from tracing import attribute  # noqa: E402
from repro.workloads.starjoin import STARJOIN_QUERIES  # noqa: E402
from workloads import (  # noqa: E402
    CTE_PAIR, batch_family, star_data)


def test_smoke_prints_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--seconds", "0.5"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {
        "smoke_ok": True}
    spec = run.load_spec()
    for workload in spec["workloads"]:
        for trace, metrics in ((0, spec["end_to_end"]),
                               (1, spec["per_layer"])):
            for metric in metrics:
                prefix = (f"{workload['name']} trace={trace} "
                          f"{metric['name']} = ")
                lines = [line for line in proc.stdout.splitlines()
                         if line.startswith(prefix)]
                assert len(lines) == 1, prefix
                assert lines[0].endswith(" " + metric["unit"]), lines[0]


def test_corrupted_output_is_caught(monkeypatch):
    honest = Dataset.sorted_rows

    def corrupted(self):
        rows = honest(self)
        return rows[:-1] if rows else [("corrupted",)]

    monkeypatch.setattr(Dataset, "sorted_rows", corrupted)
    code, result, _ = run.run_workload("cold_solo", seed=3, seconds=0.0,
                                       trace=False, smoke=True)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_honest_outputs_pass():
    code, result, _ = run.run_workload("cold_solo", seed=3, seconds=0.0,
                                       trace=False)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0


def test_seed_fixes_the_inputs():
    assert star_data(5, 50) == star_data(5, 50)
    assert star_data(5, 50) != star_data(6, 50)


def test_batch_family_covers_every_size_evenly():
    family = batch_family(STARJOIN_QUERIES)
    assert all(set(CTE_PAIR) <= set(batch) for batch in family)
    sizes = sorted(len(batch) for batch in family)
    assert sizes == [2] + [3] * 8
    riders = [q for batch in family for q in batch if q not in CTE_PAIR]
    assert {riders.count(q) for q in set(riders)} == {1}


def test_timings_scale_by_slowdown_and_take_medians_per_kind():
    requests = [
        Request(0.010, 1, "a", slowdown=1.0),
        Request(0.030, 1, "a", slowdown=1.5),  # 20 ms at reference speed
        Request(0.900, 1, "a", slowdown=1.0),  # one slow pass
        Request(0.100, 2, "b", slowdown=2.0),
        Request(0.050, 2, "b", slowdown=1.0),
        Request(0.050, 2, "b", slowdown=1.0, failed=2),
    ]
    timings = RunSummary(requests, 0.0).timings()
    assert timings["latency_p50_ms"][0] == pytest.approx(35.0)
    assert timings["latency_p90_ms"][0] == pytest.approx(47.0)
    # "a" (20 ms) and "b" (50 ms) at their medians: 3 scripts in 70 ms
    assert timings["throughput_sps"][0] == pytest.approx(3 / 0.070)
    wall = RunSummary(requests, 0.0).timings(scaled=False)
    assert wall["latency_p50_ms"][0] == pytest.approx(65.0)


def _span(name, start, end, *children):
    span = Span(name, start=start, end=end)
    span.children.extend(children)
    return span


def test_self_time_splits_parallel_children():
    root = _span("request", 0.0, 10.0,
                 _span("compile", 0.0, 2.0),
                 _span("exec.execute", 2.0, 10.0,
                       _span("task/0", 2.0, 8.0),
                       _span("task/1", 4.0, 8.0)))
    shares = attribute(root)
    assert shares["frontend"] == pytest.approx(2.0)
    assert shares["exec"] == pytest.approx(8.0)
    assert sum(shares.values()) == pytest.approx(root.duration)
    assert None not in shares
