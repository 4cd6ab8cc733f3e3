"""Differential replay of the regression corpus (``tests/corpus/``).

Every ``.scope`` file in the corpus is a script that exercises a
planner shape worth protecting forever: scripts that ever broke the
optimizer get added here and become permanent differential tests.  Each
one is optimized in both modes, statically verified (all phases),
executed on the simulated cluster with runtime validation ON, and
compared against the naive single-node oracle.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.api import optimize_script
from repro.exec import Cluster, ColumnarExecutor
from repro.naive import NaiveEvaluator
from repro.optimizer.cost import CostParams
from repro.optimizer.engine import OptimizerConfig
from repro.scope.compiler import compile_script
from repro.scope.statistics import catalog_from_json
from repro.verify import verify_plan
from repro.workloads.datagen import generate_for_catalog

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"
SCRIPTS = sorted(CORPUS_DIR.glob("*.scope"))
MACHINES = 4
SEEDS = (3, 11)


@pytest.fixture(scope="module")
def corpus_catalog():
    return catalog_from_json((CORPUS_DIR / "catalog.json").read_text())


@pytest.fixture(scope="module")
def corpus_config():
    return OptimizerConfig(cost_params=CostParams(machines=MACHINES))


def test_corpus_is_not_empty():
    assert len(SCRIPTS) >= 8, "the regression corpus went missing"


@pytest.mark.parametrize(
    "script_path", SCRIPTS, ids=[p.stem for p in SCRIPTS]
)
def test_corpus_script_matches_oracle(script_path, corpus_catalog,
                                      corpus_config):
    text = script_path.read_text()
    logical = compile_script(text, corpus_catalog)

    for seed in SEEDS:
        files = generate_for_catalog(corpus_catalog, seed=seed)
        expected = NaiveEvaluator(files).run(logical)

        for exploit_cse in (False, True):
            result = optimize_script(
                text, corpus_catalog, corpus_config,
                exploit_cse=exploit_cse,
            )
            report = verify_plan(result.plan)
            assert report.ok, (
                f"{script_path.name} (cse={exploit_cse}): "
                f"{report.render()}"
            )
            result.details.verify_phases()

            cluster = Cluster(machines=MACHINES)
            for path, rows in files.items():
                cluster.load_file(path, rows)
            outputs = ColumnarExecutor(cluster, validate=True).execute(
                result.plan
            )
            for path, want in expected.items():
                got = outputs[path].sorted_rows()
                assert got == want, (
                    f"{script_path.name} seed={seed} cse={exploit_cse} "
                    f"differs at {path}: {len(got)} vs {len(want)} rows"
                )


@pytest.mark.parametrize(
    "script_path", SCRIPTS, ids=[p.stem for p in SCRIPTS]
)
def test_corpus_cse_never_costs_more(script_path, corpus_catalog,
                                     corpus_config):
    text = script_path.read_text()
    base = optimize_script(text, corpus_catalog, corpus_config,
                           exploit_cse=False)
    ext = optimize_script(text, corpus_catalog, corpus_config,
                          exploit_cse=True)
    assert ext.cost <= base.cost * (1 + 1e-9)
