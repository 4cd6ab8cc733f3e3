"""End-to-end correctness: optimized plans vs the naive oracle.

For every evaluation script, both the conventional and the CSE-optimized
plans are executed on the simulated cluster (with runtime property
validation ON) and their per-output row multisets compared against the
naive single-node evaluator.  This is experiment E9 of DESIGN.md.
"""

import pytest

from repro.api import optimize_script
from repro.exec import Cluster, ColumnarExecutor
from repro.naive import NaiveEvaluator
from repro.optimizer.cost import CostParams
from repro.optimizer.engine import OptimizerConfig
from repro.scope.compiler import compile_script
from repro.workloads.datagen import generate_for_catalog
from repro.workloads.paper_scripts import PAPER_SCRIPTS
from tests.test_propagation import (
    CROSS_JOIN_SCRIPT,
    FIG3C_SCRIPT,
    INDEPENDENT_SCRIPT,
)

#: Unary minus in predicates and projections: ``-<number>`` folds into
#: a negative literal, ``-expr`` lowers to ``0 - expr``.
UNARY_MINUS_SCRIPT = """
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A, -B AS NB, D - -1 AS D1 FROM R0 WHERE D > -3 AND -C < -2;
R1 = SELECT A, Sum(NB) AS S FROM R GROUP BY A;
R2 = SELECT A, Sum(D1) AS S FROM R GROUP BY A;
OUTPUT R1 TO "neg1.out";
OUTPUT R2 TO "neg2.out";
"""

ALL_SCRIPTS = dict(PAPER_SCRIPTS)
ALL_SCRIPTS["cross_join"] = CROSS_JOIN_SCRIPT
ALL_SCRIPTS["independent"] = INDEPENDENT_SCRIPT
ALL_SCRIPTS["fig3c"] = FIG3C_SCRIPT
ALL_SCRIPTS["unary_minus"] = UNARY_MINUS_SCRIPT

MACHINES = 4


def run_script(text, catalog, exploit_cse):
    cfg = OptimizerConfig(cost_params=CostParams(machines=MACHINES))
    files = generate_for_catalog(catalog, seed=7)
    result = optimize_script(text, catalog, cfg, exploit_cse=exploit_cse)
    cluster = Cluster(machines=MACHINES)
    for path, rows in files.items():
        cluster.load_file(path, rows)
    executor = ColumnarExecutor(cluster, validate=True)
    outputs = executor.execute(result.plan)
    expected = NaiveEvaluator(files).run(compile_script(text, catalog))
    return outputs, expected, executor.metrics, result


@pytest.mark.parametrize("name", sorted(ALL_SCRIPTS))
@pytest.mark.parametrize("exploit_cse", [False, True])
def test_optimized_plan_matches_oracle(name, exploit_cse, abcd_catalog):
    text = ALL_SCRIPTS[name]
    outputs, expected, _metrics, _res = run_script(
        text, abcd_catalog, exploit_cse
    )
    assert set(outputs) == set(expected)
    for path, want in expected.items():
        got = outputs[path].sorted_rows()
        assert got == want, f"{name} cse={exploit_cse} differs at {path}"


class TestSharingActuallyHappens:
    def test_cse_extracts_input_once(self, abcd_catalog):
        _o, _e, base_metrics, _ = run_script(
            PAPER_SCRIPTS["S1"], abcd_catalog, exploit_cse=False
        )
        _o, _e, cse_metrics, _ = run_script(
            PAPER_SCRIPTS["S1"], abcd_catalog, exploit_cse=True
        )
        assert base_metrics.rows_extracted == 2 * cse_metrics.rows_extracted

    def test_cse_spools_and_rereads(self, abcd_catalog):
        _o, _e, metrics, _ = run_script(
            PAPER_SCRIPTS["S1"], abcd_catalog, exploit_cse=True
        )
        assert metrics.rows_spooled > 0
        assert metrics.spool_reads == 2

    def test_cse_ships_fewer_rows(self, abcd_catalog):
        _o, _e, base_metrics, _ = run_script(
            PAPER_SCRIPTS["S2"], abcd_catalog, exploit_cse=False
        )
        _o, _e, cse_metrics, _ = run_script(
            PAPER_SCRIPTS["S2"], abcd_catalog, exploit_cse=True
        )
        assert cse_metrics.rows_shuffled < base_metrics.rows_shuffled

    def test_s2_single_extraction_for_three_consumers(self, abcd_catalog):
        _o, _e, metrics, _ = run_script(
            PAPER_SCRIPTS["S2"], abcd_catalog, exploit_cse=True
        )
        assert metrics.rows_extracted == 4000
        assert metrics.spool_reads == 3


#: Distinct input files per paper script: the CSE plan must invoke the
#: Extract operator exactly this many times — every shared scan is read
#: once and re-distributed through spools, never re-extracted.
EXPECTED_INPUT_FILES = {"S1": 1, "S2": 1, "S3": 2, "S4": 1}


class TestOperatorInvocationCounters:
    @pytest.mark.parametrize("name", sorted(PAPER_SCRIPTS))
    def test_cse_extracts_each_input_file_once(self, name, abcd_catalog):
        _o, _e, metrics, _ = run_script(
            PAPER_SCRIPTS[name], abcd_catalog, exploit_cse=True
        )
        assert (
            metrics.operator_invocations["Extract"]
            == EXPECTED_INPUT_FILES[name]
        ), (
            f"{name}: CSE plan re-extracted a shared input "
            f"({metrics.operator_invocations})"
        )

    @pytest.mark.parametrize("name", sorted(PAPER_SCRIPTS))
    def test_conventional_extracts_strictly_more(self, name, abcd_catalog):
        _o, _e, base_metrics, _ = run_script(
            PAPER_SCRIPTS[name], abcd_catalog, exploit_cse=False
        )
        _o, _e, cse_metrics, _ = run_script(
            PAPER_SCRIPTS[name], abcd_catalog, exploit_cse=True
        )
        base = base_metrics.operator_invocations["Extract"]
        cse = cse_metrics.operator_invocations["Extract"]
        assert cse == EXPECTED_INPUT_FILES[name]
        assert base > cse, (
            f"{name}: every paper script shares its scans, so the "
            f"conventional plan must extract more often ({base} vs {cse})"
        )

    @pytest.mark.parametrize("name", sorted(PAPER_SCRIPTS))
    def test_spool_invocations_match_spool_reads(self, name, abcd_catalog):
        _o, _e, metrics, _ = run_script(
            PAPER_SCRIPTS[name], abcd_catalog, exploit_cse=True
        )
        assert (
            metrics.operator_invocations.get("Spool", 0)
            == metrics.spool_reads
        )
