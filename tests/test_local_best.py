"""Tests for the related-work (local-best sharing) baseline.

The paper's Section I argument, quantified: sharing with locally optimal
properties beats no sharing, but the cost-based phase 2 beats both.
"""

import pytest

from repro.cse.pipeline import (
    optimize_conventional,
    optimize_local_best,
    optimize_with_cse,
)
from repro.exec import Cluster, ColumnarExecutor
from repro.naive import NaiveEvaluator
from repro.optimizer.cost import CostParams
from repro.optimizer.engine import OptimizerConfig
from repro.plan.physical import PhysSpool
from repro.scope.compiler import compile_script
from repro.workloads.datagen import generate_for_catalog
from repro.workloads.paper_scripts import PAPER_SCRIPTS, S1


def all_three(text, catalog):
    config = OptimizerConfig(cost_params=CostParams(machines=4))
    logical = compile_script(text, catalog)
    return (
        optimize_conventional(logical, catalog, config),
        optimize_local_best(logical, catalog, config),
        optimize_with_cse(logical, catalog, config),
    )


class TestOrdering:
    @pytest.mark.parametrize("name", sorted(PAPER_SCRIPTS))
    def test_cost_ordering(self, name, abcd_catalog):
        conventional, local, full = all_three(
            PAPER_SCRIPTS[name], abcd_catalog
        )
        assert local.cost <= conventional.cost * (1 + 1e-9)
        assert full.cost <= local.cost * (1 + 1e-9)

    def test_s1_local_best_strictly_between(self, abcd_catalog):
        """On S1 the local choice (a full consumer key pair) forces one
        consumer to re-shuffle the shared result: strictly worse than
        the cost-based choice, strictly better than no sharing."""
        conventional, local, full = all_three(S1, abcd_catalog)
        assert full.cost < local.cost < conventional.cost


class TestStructure:
    def test_local_best_shares_via_spool(self, abcd_catalog):
        _, local, _ = all_three(S1, abcd_catalog)
        assert local.plan.find_all(PhysSpool)

    def test_local_best_layout_differs_from_cost_based(self, abcd_catalog):
        _, local, full = all_three(S1, abcd_catalog)
        local_spool = local.plan.find_all(PhysSpool)[0]
        full_spool = full.plan.find_all(PhysSpool)[0]
        # Cost-based phase 2 picks the single-column {B}; the local
        # optimizer prefers a full consumer key pair.
        assert full_spool.props.partitioning.columns <= {"B"}
        assert len(local_spool.props.partitioning.columns) >= 2


class TestCorrectness:
    def test_local_best_plan_matches_oracle(self, abcd_catalog):
        _, local, _ = all_three(S1, abcd_catalog)
        files = generate_for_catalog(abcd_catalog, seed=41)
        cluster = Cluster(machines=4)
        for path, rows in files.items():
            cluster.load_file(path, rows)
        outputs = ColumnarExecutor(cluster, validate=True).execute(local.plan)
        expected = NaiveEvaluator(files).run(
            compile_script(S1, abcd_catalog)
        )
        for path, want in expected.items():
            assert outputs[path].sorted_rows() == want
