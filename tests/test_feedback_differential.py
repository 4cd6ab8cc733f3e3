"""Differential tests: the feedback loop never changes query results.

The contract of learned statistics is that they may change *plans*, not
*answers*.  Every regression-corpus script, the paper scripts S1–S4,
the large generated scripts LS1/LS2 and the skewed feedback scenarios
are executed across the full matrix of

    feedback on/off x workers 1/4

with feedback-enabled services executing twice (the second round serves
whatever plan the gate converged to).  Every run's outputs must be
byte-identical under :meth:`Dataset.canonical_bytes` to every other
run's — one shared expectation per script, not pairwise spot checks.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.optimizer.cost import CostParams
from repro.optimizer.engine import OptimizerConfig
from repro.scope.statistics import catalog_from_json
from repro.service import QueryService
from repro.stats.feedback import FeedbackConfig
from repro.workloads.datagen import generate_for_catalog
from repro.workloads.large_scripts import make_large_script
from repro.workloads.paper_scripts import PAPER_SCRIPTS
from repro.workloads.skew import SKEW_SCENARIOS

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"
CORPUS_SCRIPTS = sorted(CORPUS_DIR.glob("*.scope"))
MACHINES = 4
WORKER_COUNTS = (1, 4)


def _config() -> OptimizerConfig:
    return OptimizerConfig(cost_params=CostParams(machines=MACHINES))


@pytest.fixture(scope="module")
def corpus_catalog():
    return catalog_from_json((CORPUS_DIR / "catalog.json").read_text())


def assert_feedback_invariant(text: str, catalog, files) -> None:
    """Outputs are byte-identical across the whole execution matrix."""
    expected = None

    def check(run, label: str) -> None:
        nonlocal expected
        got = {
            path: data.canonical_bytes()
            for path, data in run.outputs.items()
        }
        if expected is None:
            expected = got
            return
        assert got.keys() == expected.keys(), label
        for path in expected:
            assert got[path] == expected[path], (
                f"{label}: output {path} diverged"
            )

    for workers in WORKER_COUNTS:
        plain = QueryService(catalog, _config())
        check(
            plain.execute(text, workers=workers, files=files),
            f"feedback=off workers={workers}",
        )
        fed = QueryService(
            catalog, _config(),
            feedback=FeedbackConfig(min_observations=1),
        )
        for round_no in range(2):
            check(
                fed.execute(text, workers=workers, files=files),
                f"feedback=on round={round_no} workers={workers}",
            )


@pytest.mark.parametrize(
    "script_path", CORPUS_SCRIPTS, ids=[p.stem for p in CORPUS_SCRIPTS]
)
def test_corpus_outputs_invariant_under_feedback(script_path,
                                                 corpus_catalog):
    files = generate_for_catalog(corpus_catalog, seed=3,
                                 rows_override=600)
    assert_feedback_invariant(script_path.read_text(), corpus_catalog,
                              files)


@pytest.mark.parametrize("name", sorted(PAPER_SCRIPTS))
def test_paper_outputs_invariant_under_feedback(name, abcd_catalog):
    files = generate_for_catalog(abcd_catalog, seed=7,
                                 rows_override=600)
    assert_feedback_invariant(PAPER_SCRIPTS[name], abcd_catalog, files)


@pytest.mark.parametrize("name", ["LS1", "LS2"])
def test_large_script_outputs_invariant_under_feedback(name):
    text, catalog, _spec = make_large_script(name)
    files = generate_for_catalog(catalog, seed=5, rows_override=120)
    assert_feedback_invariant(text, catalog, files)


@pytest.mark.parametrize("name", sorted(SKEW_SCENARIOS))
def test_skew_scenario_outputs_invariant_under_feedback(name):
    """The scenarios where feedback *does* rewrite the plan."""
    scenario = SKEW_SCENARIOS[name]
    assert_feedback_invariant(scenario.script, scenario.build_catalog(),
                              scenario.generate_files())
