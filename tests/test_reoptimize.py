"""Tests for the phase-2 re-optimization rounds (Section VII / Figure 4)."""

import pytest

from repro.cse.pipeline import optimize_with_cse
from repro.optimizer.cost import CostParams
from repro.optimizer.engine import OptimizerConfig
from repro.scope.compiler import compile_script
from repro.workloads.paper_scripts import S1, S3
from tests.test_propagation import CROSS_JOIN_SCRIPT, INDEPENDENT_SCRIPT


def run(text, catalog, **kwargs):
    cfg = OptimizerConfig(cost_params=CostParams(machines=4), **kwargs)
    return optimize_with_cse(compile_script(text, catalog), catalog, cfg)


def rounds_by_lca(result):
    per_lca = {}
    for lca, signature in result.engine.stats.round_log:
        per_lca.setdefault(lca, []).append(signature)
    return per_lca


class TestFigure4a:
    """S3: two shared groups with different LCAs — rounds happen at each
    LCA independently, one shared group per round signature."""

    def test_rounds_at_two_lcas(self, abcd_catalog):
        result = run(S3, abcd_catalog)
        per_lca = rounds_by_lca(result)
        assert len(per_lca) == 2
        for signatures in per_lca.values():
            for signature in signatures:
                assert len(signature) == 1  # one shared group enforced

    def test_round_count_equals_history_sizes(self, abcd_catalog):
        result = run(S3, abcd_catalog)
        per_lca = rounds_by_lca(result)
        for lca, signatures in per_lca.items():
            shared = result.memo.group(lca).lca_for
            assert len(shared) == 1
            history = result.memo.group(shared[0]).history
            assert len(signatures) == len(history)


class TestFigure4b:
    """Cross joins: one LCA for two NON-independent shared groups —
    the full cartesian product of property combinations is evaluated."""

    def test_cartesian_rounds(self, abcd_catalog):
        result = run(CROSS_JOIN_SCRIPT, abcd_catalog)
        per_lca = rounds_by_lca(result)
        assert len(per_lca) == 1
        signatures = next(iter(per_lca.values()))
        shared = sorted(
            {gid for signature in signatures for gid, _entry in signature}
        )
        assert len(shared) == 2
        sizes = [
            len(result.memo.group(gid).history) for gid in shared
        ]
        assert len(signatures) == sizes[0] * sizes[1]
        # Every signature binds BOTH shared groups.
        assert all(len(sig) == 2 for sig in signatures)


class TestFigure5Sequential:
    """Independent shared groups at one LCA: greedy sweep — the round
    count is n1 + (n2 - 1) instead of n1 × n2 (Section VIII-A)."""

    def test_sequential_round_count(self, abcd_catalog):
        result = run(INDEPENDENT_SCRIPT, abcd_catalog)
        per_lca = rounds_by_lca(result)
        assert len(per_lca) == 1
        signatures = next(iter(per_lca.values()))
        shared = sorted(
            {gid for signature in signatures for gid, _entry in signature}
        )
        sizes = [len(result.memo.group(gid).history) for gid in shared]
        assert len(signatures) == sizes[0] + sizes[1] - 1

    def test_cartesian_when_independence_disabled(self, abcd_catalog):
        result = run(
            INDEPENDENT_SCRIPT, abcd_catalog, exploit_independence=False
        )
        signatures = next(iter(rounds_by_lca(result).values()))
        shared = sorted(
            {gid for signature in signatures for gid, _entry in signature}
        )
        sizes = [len(result.memo.group(gid).history) for gid in shared]
        assert len(signatures) == sizes[0] * sizes[1]

    def test_sequential_not_worse_than_cartesian(self, abcd_catalog):
        fast = run(INDEPENDENT_SCRIPT, abcd_catalog)
        slow = run(
            INDEPENDENT_SCRIPT, abcd_catalog, exploit_independence=False
        )
        # Independence is exact for independent groups: same final cost.
        assert fast.cost == pytest.approx(slow.cost, rel=1e-9)
        assert fast.engine.stats.rounds < slow.engine.stats.rounds


class TestPhaseSelection:
    def test_phase2_never_worse_than_phase1(self, abcd_catalog):
        for text in (S1, S3, CROSS_JOIN_SCRIPT, INDEPENDENT_SCRIPT):
            result = run(text, abcd_catalog)
            assert result.cost <= result.phase1_cost

    def test_chosen_phase_consistent_with_costs(self, abcd_catalog):
        result = run(S1, abcd_catalog)
        if result.chosen_phase == 2:
            assert result.phase2_cost <= result.phase1_cost
        else:
            assert result.phase1_cost <= result.phase2_cost


class TestRankingEffects:
    def test_property_ranking_changes_round_order_not_result(
        self, abcd_catalog
    ):
        ranked = run(S1, abcd_catalog, rank_properties=True)
        unranked = run(S1, abcd_catalog, rank_properties=False)
        assert ranked.cost == pytest.approx(unranked.cost, rel=1e-9)

    def test_shared_group_ranking_keeps_result(self, abcd_catalog):
        ranked = run(S3, abcd_catalog, rank_shared_groups=True)
        unranked = run(S3, abcd_catalog, rank_shared_groups=False)
        assert ranked.cost == pytest.approx(unranked.cost, rel=1e-9)

    def test_ranking_finds_best_plan_in_fewer_rounds_under_budget(
        self, abcd_catalog
    ):
        """Section VIII-B/C: under a tight budget the ranked search must
        do at least as well as the unranked one."""
        ranked = run(INDEPENDENT_SCRIPT, abcd_catalog, max_rounds=4,
                     rank_properties=True, rank_shared_groups=True)
        unranked = run(INDEPENDENT_SCRIPT, abcd_catalog, max_rounds=4,
                       rank_properties=False, rank_shared_groups=False)
        assert ranked.cost <= unranked.cost * (1 + 1e-9)


class TestCompensation:
    """The Algorithm 5 'compensating' step: when the enforced layout
    does not satisfy a consumer's own requirement, the engine bridges
    the gap with sorts/repartitions priced into the round."""

    def test_disjoint_consumer_forces_compensation(self, abcd_catalog):
        """One consumer groups on {A,B}, the other on {C,D} — no single
        layout serves both, so whichever is enforced, the other consumer
        must re-shuffle the spooled result (and the plan is still
        correct and cheaper than no sharing)."""
        from repro.exec import Cluster, ColumnarExecutor
        from repro.naive import NaiveEvaluator
        from repro.plan.physical import PhysRepartition, PhysSpool
        from repro.scope.compiler import compile_script
        from repro.workloads.datagen import generate_for_catalog

        text = (
            'R0 = EXTRACT A,B,C,D FROM "test.log" USING E;\n'
            "R = SELECT A,B,C,D,Count(*) AS N FROM R0 GROUP BY A,B,C,D;\n"
            "X = SELECT A,B,Sum(N) AS NX FROM R GROUP BY A,B;\n"
            "Y = SELECT C,D,Sum(N) AS NY FROM R GROUP BY C,D;\n"
            'OUTPUT X TO "x";\nOUTPUT Y TO "y";'
        )
        result = run(text, abcd_catalog)
        spools = result.plan.find_all(PhysSpool)
        if spools:
            # A repartition above the spool = the compensation step.
            spool = spools[0]
            above = [
                n
                for n in result.plan.iter_nodes()
                if isinstance(n.op, PhysRepartition)
                and any(c is spool for c in n.iter_nodes())
                and n is not spool
            ]
            assert above, "the disjoint consumer must re-shuffle"
        files = generate_for_catalog(abcd_catalog, seed=3)
        cluster = Cluster(machines=4)
        for path, rows in files.items():
            cluster.load_file(path, rows)
        outputs = ColumnarExecutor(cluster, validate=True).execute(result.plan)
        expected = NaiveEvaluator(files).run(
            compile_script(text, abcd_catalog)
        )
        for path, want in expected.items():
            assert outputs[path].sorted_rows() == want
