"""The repository's standing benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold_solo --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the workload once untraced and once traced and prints
every per-layer metric, the dominant layer and the tracing overhead.
Every request's outputs are compared with the ``NaiveEvaluator``
oracle; a mismatch or a failed request makes the exit code 1.  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": 150, "failed": 0, "metrics": {...}}

``--smoke`` runs every workload briefly in both modes and checks that
each metric ``BENCHMARK.json`` names is printed with its unit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False):
    """Run one workload; returns ``(exit code, result dict, notes)``."""
    from workloads import WORKLOADS

    summary = WORKLOADS[name](seed).run(seconds, trace,
                                        whole_passes=not smoke)
    metrics = summary.layers if trace else summary.end_to_end()
    attempted = summary.scripts
    failed = summary.failed + summary.wrong
    correct = summary.wrong == 0
    notes = [
        f"{name}: attempted={attempted} failed={summary.failed} "
        f"wrong_outputs={summary.wrong} "
        f"error_rate={summary.error_rate():.4f}",
        f"{name}: {summary.sample_note()}",
    ] + ([] if trace else [f"{name}: {summary.wall_note()}"]) + summary.notes
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }
    code = 0 if correct and summary.failed == 0 else 1
    return code, result, notes


def check_metrics(result: dict, expected: list) -> list:
    """Problems with ``result``'s metrics against a spec list."""
    problems = []
    got = result["metrics"]
    for spec in expected:
        entry = got.get(spec["name"])
        if entry is None:
            problems.append(f"missing metric {spec['name']}")
        elif entry["unit"] != spec["unit"]:
            problems.append(f"{spec['name']}: unit {entry['unit']} != "
                            f"{spec['unit']}")
        elif not isinstance(entry["value"], (int, float)) or (
                isinstance(entry["value"], float)
                and not math.isfinite(entry["value"])):
            problems.append(f"{spec['name']}: value {entry['value']!r}")
    extra = set(got) - {spec["name"] for spec in expected}
    if extra:
        problems.append(f"unexpected metrics {sorted(extra)}")
    return problems


def smoke(seed: int, seconds: float) -> int:
    """Every workload, both modes, briefly; checks names and units."""
    spec = load_spec()
    problems = []
    for workload in spec["workloads"]:
        for trace, expected in ((False, spec["end_to_end"]),
                                (True, spec["per_layer"])):
            code, result, _ = run_workload(workload["name"], seed, seconds,
                                           trace, smoke=True)
            tag = f"{workload['name']} trace={int(trace)}"
            if code != 0:
                problems.append(f"{tag}: exit code {code}")
            problems += [f"{tag}: {p}" for p in
                         check_metrics(result, expected)]
            for key, entry in sorted(result["metrics"].items()):
                print(f"{tag} {key} = {entry['value']:.6g} {entry['unit']}")
    for problem in problems:
        print(f"SMOKE FAILURE: {problem}", file=sys.stderr)
    print(json.dumps({"smoke_ok": not problems}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: the program's source is missing ({SRC}/repro); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args.seed, min(args.seconds, 1.0))
    if not args.workload:
        parser.error("--workload is required")
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(choose from {', '.join(names)})")
    code, result, notes = run_workload(args.workload, args.seed,
                                       args.seconds, bool(args.trace))
    for key, entry in result["metrics"].items():
        print(f"{args.workload} {key} = {entry['value']:.6g} "
              f"{entry['unit']}")
    for note in notes:
        print(note)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
