"""Acceptance differential: streaming admission == the naive oracle.

Every regression-corpus script, the paper scripts S1–S4, and the large
generated scripts LS1/LS2 submitted through the streaming admission
front-end (one window holding the whole corpus) must produce exactly the
rows the :class:`~repro.naive.NaiveEvaluator` oracle computes for the
script alone — at workers 1 and 4, on the thread and the process
runtime — while every vertex of the shared window run launches exactly
once.

All runs use a :class:`~repro.service.ManualClock`; the only thread is
the test's own, so the grouping is fully deterministic.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.frontend import compile_text
from repro.naive import NaiveEvaluator
from repro.optimizer.cost import CostParams
from repro.optimizer.engine import OptimizerConfig
from repro.scope.statistics import catalog_from_json
from repro.service import (
    AdmissionConfig,
    AdmissionController,
    ManualClock,
    QueryService,
)
from repro.workloads.datagen import generate_for_catalog
from repro.workloads.large_scripts import make_large_script
from repro.workloads.paper_scripts import PAPER_SCRIPTS

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"
CORPUS_SCRIPTS = sorted(CORPUS_DIR.glob("*.scope"))
WINDOW = 1.0
MATRIX = [(w, rt) for rt in ("thread", "process") for w in (1, 4)]
MATRIX_IDS = [f"w{w}-{rt}" for w, rt in MATRIX]


def _config() -> OptimizerConfig:
    return OptimizerConfig(cost_params=CostParams(machines=4))


def _admit_and_compare(texts, catalog, files, *, workers, runtime):
    """Submit ``texts`` into one admission window; compare each result
    against the oracle's evaluation of the script alone."""
    oracle = NaiveEvaluator(files)
    expected = [oracle.run(compile_text(t, catalog)) for t in texts]

    service = QueryService(catalog, _config())
    clock = ManualClock()
    controller = AdmissionController(
        service, clock=clock, files=files, workers=workers,
        runtime=runtime,
        config=AdmissionConfig(window=WINDOW, max_batch=len(texts)),
    )
    tickets = [
        controller.submit_nowait(t, tenant=f"t{i}")
        for i, t in enumerate(texts)
    ]
    clock.advance(WINDOW)
    controller.pump()

    runs = []
    for ticket, want in zip(tickets, expected):
        result = ticket.result(timeout=0)
        assert set(result.outputs) == set(want)
        for path, rows in want.items():
            assert result.outputs[path].sorted_rows() == rows, (
                f"admitted output {path} differs from the oracle"
            )
        assert result.run.runtime == runtime
        if not any(result.run is run for run in runs):
            runs.append(result.run)

    # Shared stages launch exactly once per window.
    for run in runs:
        if run.stage_graph is None:
            continue
        for vertex in run.stage_graph.vertices:
            stats = run.metrics.vertices[vertex.name]
            assert stats.launches == 1, (
                f"vertex {vertex.name} launched {stats.launches} times"
            )


@pytest.fixture(scope="module")
def corpus_catalog():
    return catalog_from_json((CORPUS_DIR / "catalog.json").read_text())


@pytest.mark.parametrize("workers,runtime", MATRIX, ids=MATRIX_IDS)
def test_corpus_through_admission_matches_oracle(
        workers, runtime, corpus_catalog):
    texts = [p.read_text() for p in CORPUS_SCRIPTS]
    files = generate_for_catalog(corpus_catalog, seed=3)
    _admit_and_compare(texts, corpus_catalog, files,
                       workers=workers, runtime=runtime)


@pytest.mark.parametrize("workers,runtime", MATRIX, ids=MATRIX_IDS)
def test_paper_scripts_through_admission_matches_oracle(
        workers, runtime, abcd_catalog):
    texts = [PAPER_SCRIPTS[name] for name in sorted(PAPER_SCRIPTS)]
    files = generate_for_catalog(abcd_catalog, seed=7)
    _admit_and_compare(texts, abcd_catalog, files,
                       workers=workers, runtime=runtime)


@pytest.mark.parametrize("name", ["LS1", "LS2"])
@pytest.mark.parametrize("workers,runtime", MATRIX, ids=MATRIX_IDS)
def test_large_scripts_through_admission_matches_oracle(
        workers, runtime, name):
    text, catalog, _spec = make_large_script(name)
    files = generate_for_catalog(catalog, seed=5, rows_override=120)
    _admit_and_compare([text], catalog, files,
                       workers=workers, runtime=runtime)
