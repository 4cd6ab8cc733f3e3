"""Direct tests of the winner-cache keying (DESIGN.md, decision 1).

The correctness of phase-2 rounds depends on the cache key: the
enforcement context must be projected onto the shared groups a group can
reach, and the phase must separate winners only where an LCA below makes
them differ.  These tests poke the engine internals directly.
"""

import pytest

from repro.cse.history import HistoryEntry
from repro.cse.pipeline import optimize_with_cse
from repro.optimizer.cost import CostParams
from repro.optimizer.engine import (
    PHASE_CONVENTIONAL,
    PHASE_CSE,
    OptimizerConfig,
    SearchEngine,
)
from repro.optimizer.memo import Memo
from repro.plan.logical import LogicalExtract, LogicalSpool
from repro.plan.properties import Partitioning, ReqProps
from repro.scope.compiler import compile_script
from repro.workloads.paper_scripts import S1, S3


def optimized(text, catalog):
    config = OptimizerConfig(cost_params=CostParams(machines=4))
    return optimize_with_cse(compile_script(text, catalog), catalog, config)


def find_gid(memo, op_type):
    return next(
        g.gid
        for g in memo.live_groups()
        if isinstance(g.initial_expr.op, op_type)
    )


class TestSharedReach:
    def test_extract_reaches_no_shared_group(self, abcd_catalog):
        result = optimized(S1, abcd_catalog)
        engine = result.engine
        extract = find_gid(engine.memo, LogicalExtract)
        assert engine._shared_reach(extract) == frozenset()

    def test_spool_reaches_itself(self, abcd_catalog):
        result = optimized(S1, abcd_catalog)
        engine = result.engine
        spool = find_gid(engine.memo, LogicalSpool)
        assert spool in engine._shared_reach(spool)

    def test_root_reaches_all_shared(self, abcd_catalog):
        result = optimized(S3, abcd_catalog)
        engine = result.engine
        shared = {g.gid for g in engine.memo.shared_groups()}
        assert engine._shared_reach(engine.memo.root) >= shared


class TestContextProjection:
    def test_irrelevant_context_entries_projected_away(self, abcd_catalog):
        """A context entry for an unreachable shared group must not
        split the winner cache."""
        result = optimized(S1, abcd_catalog)
        engine = result.engine
        extract = find_gid(engine.memo, LogicalExtract)
        entry = HistoryEntry(Partitioning.hashed({"B"}))
        key_empty = engine._winner_key(
            extract, ReqProps.anything(), {}, PHASE_CSE
        )
        key_ctx = engine._winner_key(
            extract, ReqProps.anything(), {9999: entry}, PHASE_CSE
        )
        assert key_empty == key_ctx

    def test_relevant_context_entries_split_the_cache(self, abcd_catalog):
        result = optimized(S1, abcd_catalog)
        engine = result.engine
        spool = find_gid(engine.memo, LogicalSpool)
        entry_b = HistoryEntry(Partitioning.hashed({"B"}))
        entry_ab = HistoryEntry(Partitioning.hashed({"A", "B"}))
        key_b = engine._winner_key(
            spool, ReqProps.anything(), {spool: entry_b}, PHASE_CSE
        )
        key_ab = engine._winner_key(
            spool, ReqProps.anything(), {spool: entry_ab}, PHASE_CSE
        )
        assert key_b != key_ab


class TestPhaseSeparation:
    def test_groups_below_shared_share_winners_across_phases(
        self, abcd_catalog
    ):
        """The extract group has no LCA below: its phase-2 lookups must
        hit the phase-1 winners (identical keys)."""
        result = optimized(S1, abcd_catalog)
        engine = result.engine
        extract = find_gid(engine.memo, LogicalExtract)
        req = ReqProps.anything()
        key1 = engine._winner_key(extract, req, {}, PHASE_CONVENTIONAL)
        key2 = engine._winner_key(extract, req, {}, PHASE_CSE)
        assert key1 == key2

    def test_root_winners_separate_by_phase(self, abcd_catalog):
        """The root has the LCA below it: phase-2 results differ from
        phase-1 results, so the keys must differ."""
        result = optimized(S1, abcd_catalog)
        engine = result.engine
        req = ReqProps.anything()
        key1 = engine._winner_key(engine.memo.root, req, {},
                                  PHASE_CONVENTIONAL)
        key2 = engine._winner_key(engine.memo.root, req, {}, PHASE_CSE)
        assert key1 != key2

    def test_round_subplans_reused(self, abcd_catalog):
        """Sub-plans not above the shared group are optimized once and
        reused by every round: the number of group optimizations stays
        far below rounds × groups."""
        result = optimized(S1, abcd_catalog)
        stats = result.engine.stats
        n_groups = len(result.memo.live_groups())
        assert stats.rounds >= 5
        # A naive re-optimization would pay ~n_groups per round on top
        # of phase 1; the cache keeps the total far below that.
        assert stats.groups_optimized < n_groups * (stats.rounds + 2) * 4


class TestWinnerIdentity:
    def test_same_key_returns_same_plan_object(self, abcd_catalog):
        result = optimized(S1, abcd_catalog)
        engine = result.engine
        extract = find_gid(engine.memo, LogicalExtract)
        req = ReqProps.anything()
        a = engine.optimize_group(extract, req, {}, PHASE_CONVENTIONAL)
        b = engine.optimize_group(extract, req, {}, PHASE_CONVENTIONAL)
        assert a is b

    def test_winner_objects_enable_dag_dedup(self, abcd_catalog):
        """The final CSE plan references the spool winner through both
        consumers as one object — the prerequisite for DAG costing and
        runtime materialization."""
        from repro.plan.physical import PhysSpool

        result = optimized(S1, abcd_catalog)
        spools = result.plan.find_all(PhysSpool)
        assert len(spools) == 1
        refs = sum(
            1
            for node in result.plan.iter_nodes()
            for child in node.children
            if child is spools[0]
        )
        assert refs == 2


class TestEnforcerSchemaGuard:
    """Regression: enforcers must never reference columns the group does
    not produce.

    Found by the hypothesis fuzzer: a sorted output's RANGE_SORTED(A)
    requirement leaked through a commuted join's broadcast candidate
    into a child whose projection had renamed ``A`` away, and the
    enforcer happily built a RangeRepartition on the missing column,
    crashing at runtime."""

    SCRIPT = '''R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
X0 = SELECT A,B,C,D AS V FROM R0;
X1 = SELECT A,B,C,V FROM X0 WHERE V > 0;
X2 = SELECT X1.A AS A, X1.V AS V, X0.V AS W FROM X1, X0 WHERE X1.A = X0.A;
X3 = SELECT A,B,C,V FROM X0 WHERE V > 0;
X4 = SELECT TOP 1 A,B,C,V FROM X3 ORDER BY A;
X5 = SELECT A,V FROM X2 WHERE V > 0;
OUTPUT X4 TO "out0.res";
OUTPUT X5 TO "out1.res" ORDER BY A;'''

    @pytest.mark.parametrize("exploit_cse", [False, True])
    def test_fuzzer_counterexample_executes(self, exploit_cse):
        from repro.api import optimize_script
        from repro.exec import Cluster, ColumnarExecutor
        from repro.naive import NaiveEvaluator
        from repro.optimizer.cost import CostParams
        from repro.plan.columns import ColumnType
        from repro.scope.catalog import Catalog
        from repro.scope.compiler import compile_script
        from repro.workloads.datagen import generate_rows

        catalog = Catalog()
        catalog.register_file(
            "test.log",
            [(c, ColumnType.INT) for c in ("A", "B", "C", "D")],
            rows=240,
            ndv={"A": 4, "B": 3, "C": 5, "D": 40},
        )
        stats = catalog.lookup("test.log")
        files = {
            "test.log": generate_rows(
                stats.schema.names, stats.rows,
                {c: stats.ndv_of(c) for c in stats.schema.names}, seed=0,
            )
        }
        config = OptimizerConfig(cost_params=CostParams(machines=3))
        result = optimize_script(self.SCRIPT, catalog, config,
                                 exploit_cse=exploit_cse)
        # Every exchange in the plan must reference only columns its
        # input actually produces.
        from repro.plan.physical import PhysRangeRepartition, PhysRepartition

        for node in result.plan.iter_nodes():
            if isinstance(node.op, (PhysRepartition, PhysRangeRepartition)):
                cols = getattr(node.op, "columns", None) or node.op.order
                child_names = set(node.children[0].schema.names)
                assert set(cols) <= child_names
        cluster = Cluster(machines=3)
        cluster.load_file("test.log", files["test.log"])
        outputs = ColumnarExecutor(cluster, validate=True).execute(result.plan)
        expected = NaiveEvaluator(files).run(
            compile_script(self.SCRIPT, catalog)
        )
        for path, want in expected.items():
            assert outputs[path].sorted_rows() == want
