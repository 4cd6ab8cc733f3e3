"""Acceptance differential: telemetry must never change results.

Every regression-corpus script, the paper scripts S1–S4, and the
large generated scripts LS1/LS2 executed through a
:class:`~repro.service.QueryService` *with* a
:class:`~repro.obs.MetricsCollector` attached must produce exactly the
rows the :class:`~repro.naive.NaiveEvaluator` oracle computes — as must
the same execution with telemetry disabled — at workers 1 and 4, on
the thread and the process runtime.  The collector is a pure observer:
it subscribes to the EventBus and touches nothing on the execution
path.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.frontend import compile_text
from repro.naive import NaiveEvaluator
from repro.obs import MetricsCollector
from repro.optimizer.cost import CostParams
from repro.optimizer.engine import OptimizerConfig
from repro.scope.statistics import catalog_from_json
from repro.service import ManualClock, QueryService
from repro.workloads.datagen import generate_for_catalog
from repro.workloads.large_scripts import make_large_script
from repro.workloads.paper_scripts import PAPER_SCRIPTS

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"
CORPUS_SCRIPTS = sorted(CORPUS_DIR.glob("*.scope"))
MATRIX = [(w, rt) for rt in ("thread", "process") for w in (1, 4)]
MATRIX_IDS = [f"w{w}-{rt}" for w, rt in MATRIX]


def _config() -> OptimizerConfig:
    return OptimizerConfig(cost_params=CostParams(machines=4))


def _run_both_and_compare(texts, catalog, files, *, workers, runtime):
    plain = QueryService(catalog, _config())
    measured = QueryService(catalog, _config(),
                            metrics=MetricsCollector(clock=ManualClock()))
    oracle = NaiveEvaluator(files)
    for text in texts:
        expected = oracle.run(compile_text(text, catalog))
        for service, mode in ((plain, "off"), (measured, "on")):
            run = service.execute(text, workers=workers, files=files,
                                  runtime=runtime)
            assert run.runtime == runtime
            assert set(run.outputs) == set(expected)
            for path, rows in expected.items():
                assert run.outputs[path].sorted_rows() == rows, (
                    f"output {path} differs from the oracle "
                    f"(telemetry {mode}, workers={workers}, "
                    f"runtime={runtime})"
                )
    # The observer actually observed: executor counters flowed.
    snapshot = measured.metrics_snapshot()
    rows = snapshot["metrics"]["repro_exec_rows_total"]["samples"]
    assert rows, "collector saw no exec.counter events"
    assert not plain.bus.of_kind("exec.counter"), (
        "disabled-path bus must stay free of exec events"
    )


@pytest.fixture(scope="module")
def corpus_catalog():
    return catalog_from_json((CORPUS_DIR / "catalog.json").read_text())


@pytest.mark.parametrize("workers,runtime", MATRIX, ids=MATRIX_IDS)
def test_corpus_with_metrics_matches_without(
        workers, runtime, corpus_catalog):
    texts = [p.read_text() for p in CORPUS_SCRIPTS]
    files = generate_for_catalog(corpus_catalog, seed=3)
    _run_both_and_compare(texts, corpus_catalog, files,
                          workers=workers, runtime=runtime)


@pytest.mark.parametrize("workers,runtime", MATRIX, ids=MATRIX_IDS)
def test_paper_scripts_with_metrics_matches_without(
        workers, runtime, abcd_catalog):
    texts = [PAPER_SCRIPTS[name] for name in sorted(PAPER_SCRIPTS)]
    files = generate_for_catalog(abcd_catalog, seed=7)
    _run_both_and_compare(texts, abcd_catalog, files,
                          workers=workers, runtime=runtime)


@pytest.mark.parametrize("name", ["LS1", "LS2"])
@pytest.mark.parametrize("workers,runtime", MATRIX, ids=MATRIX_IDS)
def test_large_scripts_with_metrics_matches_without(
        workers, runtime, name):
    text, catalog, _spec = make_large_script(name)
    files = generate_for_catalog(catalog, seed=5, rows_override=120)
    _run_both_and_compare([text], catalog, files,
                          workers=workers, runtime=runtime)
