"""Unit tests for the learned-statistics feedback loop (``repro.stats``).

Covers each layer on its own terms: canonical fragment fingerprints,
the per-fragment measured cardinalities recorded by both executors, the
capture mapping from measurements back to fingerprints, the versioned
:class:`~repro.stats.store.FeedbackStore`, the re-pricing of incumbent
plans under corrections, and the two decision gates of the
:class:`~repro.stats.feedback.FeedbackController` wired into a
:class:`~repro.service.QueryService`.  The differential, property-based
concurrency and golden layers live in their own modules.
"""

from __future__ import annotations

import math
import pathlib

import pytest

from repro.api import execute_script, optimize_script
from repro.optimizer.cost import CostParams
from repro.optimizer.engine import OptimizerConfig
from repro.optimizer.explain import explain_normalized
from repro.scope.statistics import catalog_from_json
from repro.service import QueryService
from repro.stats import (
    CorrectionSet,
    FeedbackStore,
    FragmentObservation,
    fragment_fingerprints,
)
from repro.stats.capture import capture_observations, group_paths
from repro.stats.feedback import FeedbackConfig, FeedbackController
from repro.stats.recost import recost_plan
from repro.stats.store import Correction
from repro.workloads.paper_scripts import PAPER_SCRIPTS
from repro.workloads.skew import SKEW_SCENARIOS

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"
MACHINES = 4


def _config() -> OptimizerConfig:
    return OptimizerConfig(cost_params=CostParams(machines=MACHINES))


@pytest.fixture(scope="module")
def corpus_catalog():
    return catalog_from_json((CORPUS_DIR / "catalog.json").read_text())


def _scenario_service(name: str) -> tuple:
    scenario = SKEW_SCENARIOS[name]
    service = QueryService(
        scenario.build_catalog(), _config(),
        feedback=FeedbackConfig(**scenario.feedback),
    )
    return scenario, service, scenario.generate_files()


# ---------------------------------------------------------------------------
# Fragment fingerprints
# ---------------------------------------------------------------------------


class TestFingerprints:
    def test_every_reachable_group_is_fingerprinted(self, abcd_catalog):
        result = optimize_script(PAPER_SCRIPTS["S1"], abcd_catalog,
                                 _config())
        prints = fragment_fingerprints(result.details.plan_memo)
        assert prints, "no fragment fingerprints stamped on the memo"
        for fingerprint in prints.values():
            assert fingerprint is None or len(fingerprint) == 64

    def test_fingerprints_deterministic_across_optimizations(
            self, abcd_catalog):
        one = optimize_script(PAPER_SCRIPTS["S1"], abcd_catalog, _config())
        two = optimize_script(PAPER_SCRIPTS["S1"], abcd_catalog, _config())
        assert (sorted(fragment_fingerprints(one.details.plan_memo)
                       .values(), key=str)
                == sorted(fragment_fingerprints(two.details.plan_memo)
                          .values(), key=str))

    def test_different_scripts_share_common_fragments_only(
            self, abcd_catalog):
        s1 = set(fragment_fingerprints(
            optimize_script(PAPER_SCRIPTS["S1"], abcd_catalog,
                            _config()).details.plan_memo).values())
        s3 = set(fragment_fingerprints(
            optimize_script(PAPER_SCRIPTS["S3"], abcd_catalog,
                            _config()).details.plan_memo).values())
        # Both read test.log, so the extract fragment is shared; the
        # aggregates differ, so the sets must not be equal.
        assert s1 & s3
        assert s1 != s3


# ---------------------------------------------------------------------------
# Per-fragment measured cardinalities (executor layer)
# ---------------------------------------------------------------------------


class TestFragmentRows:
    def test_sequential_matches_scheduler(self, abcd_catalog):
        scenario = SKEW_SCENARIOS["filter_selectivity_skew"]
        catalog = scenario.build_catalog()
        files = scenario.generate_files()
        runs = {
            workers: execute_script(
                scenario.script, catalog, _config(), workers=workers,
                files=files,
            )
            for workers in (0, 1, 4)
        }
        base = runs[0].metrics.fragment_rows
        assert base, "sequential executor recorded no fragment rows"
        for workers, run in runs.items():
            assert run.metrics.fragment_rows == base, (
                f"fragment rows differ at workers={workers}"
            )

    def test_duplicate_execution_counted_once(self, abcd_catalog):
        # The conventional plan of the headline scenario extracts the
        # input twice; the recorded fragment cardinality must still be
        # the file's row count, not double it.
        scenario = SKEW_SCENARIOS["filter_selectivity_skew"]
        catalog = scenario.build_catalog()
        run = execute_script(scenario.script, catalog, _config(),
                             workers=2, files=scenario.generate_files())
        assert run.metrics.rows_extracted == 8_000
        assert 4_000 in run.metrics.fragment_rows.values()
        assert 8_000 not in run.metrics.fragment_rows.values()

    def test_interior_fragments_are_recorded(self, abcd_catalog):
        # The decisive misestimate sits *inside* a vertex (the filter
        # under the local pre-aggregation); boundary-only capture used
        # to miss it entirely.
        scenario = SKEW_SCENARIOS["filter_selectivity_skew"]
        catalog = scenario.build_catalog()
        run = execute_script(scenario.script, catalog, _config(),
                             workers=2, files=scenario.generate_files())
        assert 4 in run.metrics.fragment_rows.values(), (
            "the 4-row filter output was not recorded"
        )


# ---------------------------------------------------------------------------
# Capture: measurements -> fingerprints
# ---------------------------------------------------------------------------


class TestCapture:
    def test_capture_pairs_estimates_with_measurements(self):
        scenario, service, files = _scenario_service(
            "filter_selectivity_skew")
        run = service.execute(scenario.script, workers=2, files=files)
        memo = run.submit.result.details.plan_memo
        observations = capture_observations(memo, run.stage_graph,
                                            run.metrics)
        assert observations
        by_actual = {o.actual: o for o in observations}
        filter_obs = by_actual[4]
        assert filter_obs.estimated == pytest.approx(2_000.0)
        assert filter_obs.paths == ("skew.log",)

    def test_capture_works_sequentially(self):
        scenario, service, files = _scenario_service(
            "filter_selectivity_skew")
        run = service.execute(scenario.script, workers=0, files=files)
        memo = run.submit.result.details.plan_memo
        observations = capture_observations(memo, None, run.metrics)
        assert any(o.actual == 4 for o in observations)

    def test_capture_deduplicates_by_fingerprint(self):
        scenario, service, files = _scenario_service(
            "filter_selectivity_skew")
        run = service.execute(scenario.script, workers=2, files=files)
        memo = run.submit.result.details.plan_memo
        observations = capture_observations(memo, run.stage_graph,
                                            run.metrics)
        prints = [o.fingerprint for o in observations]
        assert len(prints) == len(set(prints))

    def test_missing_estimate_never_observed(self):
        # Sequence groups carry a zero-row estimate (estimate missing):
        # they must not appear as observations at all.
        scenario, service, files = _scenario_service(
            "filter_selectivity_skew")
        run = service.execute(scenario.script, workers=2, files=files)
        memo = run.submit.result.details.plan_memo
        for obs in capture_observations(memo, run.stage_graph,
                                        run.metrics):
            assert obs.estimated > 0

    def test_group_paths_walks_the_memo(self):
        scenario, service, files = _scenario_service(
            "filter_selectivity_skew")
        run = service.execute(scenario.script, workers=2, files=files)
        memo = run.submit.result.details.plan_memo
        root_paths = group_paths(memo, memo.root)
        assert root_paths == ("skew.log",)


# ---------------------------------------------------------------------------
# FeedbackStore
# ---------------------------------------------------------------------------


def _obs(fp: str, estimated: float, actual: int,
         paths=("f.log",)) -> FragmentObservation:
    return FragmentObservation(fingerprint=fp, estimated=estimated,
                               actual=actual, paths=paths)


class TestStore:
    def test_record_accumulates_running_mean(self):
        store = FeedbackStore()
        store.record([_obs("x" * 64, 100.0, 10)])
        store.record([_obs("x" * 64, 100.0, 20)])
        entry = store.fragment("x" * 64)
        assert entry.observations == 2
        assert entry.mean_actual == pytest.approx(15.0)
        assert entry.current_qerror == pytest.approx(100.0 / 15.0)

    def test_candidates_respect_threshold(self):
        store = FeedbackStore()
        store.record([_obs("a" * 64, 100.0, 99),
                      _obs("b" * 64, 100.0, 10)])
        names = [c.fingerprint for c in store.candidates(2.0)]
        assert names == ["b" * 64]

    def test_publish_bumps_version_and_activates(self):
        store = FeedbackStore()
        store.record([_obs("b" * 64, 100.0, 10)])
        before = store.active().version
        active = store.publish(store.candidates(2.0))
        assert active.version == before + 1
        assert active.rows_for("b" * 64) == pytest.approx(10.0)

    def test_zero_row_corrections_floor_at_one(self):
        store = FeedbackStore()
        store.record([_obs("z" * 64, 100.0, 0)])
        active = store.publish(store.candidates(2.0))
        assert active.rows_for("z" * 64) == pytest.approx(1.0)

    def test_converged_fragment_stops_candidating(self):
        # A zero-row measurement keeps its raw q-error infinite forever;
        # once corrected (to the 1-row floor) it must not re-candidate.
        store = FeedbackStore()
        store.record([_obs("z" * 64, 100.0, 1)])
        store.publish(store.candidates(2.0))
        assert store.candidates(2.0) == []

    def test_correction_set_is_immutable_snapshot(self):
        one = CorrectionSet(1, {"f": Correction("f", 5.0, 1)})
        two = one.merged([Correction("g", 7.0, 1)], 2)
        assert "g" not in one and "g" in two
        assert one.version == 1 and two.version == 2

    def test_paths_union_across_observations(self):
        store = FeedbackStore()
        store.record([_obs("p" * 64, 100.0, 1, paths=("a.log",))])
        store.record([_obs("p" * 64, 100.0, 1, paths=("b.log",))])
        assert store.fragment("p" * 64).paths == ("a.log", "b.log")


# ---------------------------------------------------------------------------
# Recost: incumbent re-priced under corrections
# ---------------------------------------------------------------------------


class TestRecost:
    @pytest.mark.parametrize("exploit_cse", [True, False])
    def test_no_corrections_reproduces_engine_cost(self, corpus_catalog,
                                                   exploit_cse):
        for path in sorted(CORPUS_DIR.glob("*.scope")):
            result = optimize_script(path.read_text(), corpus_catalog,
                                     _config(), exploit_cse=exploit_cse)
            _, cost = recost_plan(result.plan, result.details.plan_memo,
                                  corpus_catalog, _config())
            assert cost == pytest.approx(result.cost, rel=1e-9), path.stem

    def test_corrections_change_the_price(self):
        scenario = SKEW_SCENARIOS["filter_selectivity_skew"]
        catalog = scenario.build_catalog()
        result = optimize_script(scenario.script, catalog, _config())
        memo = result.details.plan_memo
        _, base = recost_plan(result.plan, memo, catalog, _config())
        prints = fragment_fingerprints(memo)
        # Correct every fragment estimated at 2,000 rows down to 4.
        corrections = CorrectionSet(1, {
            fp: Correction(fp, 4.0, 1)
            for gid, fp in prints.items()
            if fp is not None and memo.group(gid).stats.rows == 2_000.0
        })
        assert corrections, "no 2,000-row fragment found to correct"
        _, corrected = recost_plan(result.plan, memo, catalog, _config(),
                                   corrections=corrections)
        assert corrected < base


# ---------------------------------------------------------------------------
# Controller gates
# ---------------------------------------------------------------------------


class TestGates:
    def test_gate_a_refuses_below_min_observations(self):
        scenario, service, files = _scenario_service(
            "gate_refusal_low_observations")
        first = service.execute(scenario.script, workers=2, files=files)
        second = service.execute(scenario.script, workers=2, files=files)
        actions = {d.action for d in service.feedback.decisions}
        assert actions == {"skip_low_observations"}
        assert len(service.feedback.store.active()) == 0
        assert explain_normalized(second.submit.result.plan) == \
            explain_normalized(first.submit.result.plan)

    def test_gate_a_admits_once_observations_accumulate(self):
        scenario, service, files = _scenario_service(
            "gate_refusal_low_observations")
        for _ in range(3):
            service.execute(scenario.script, workers=2, files=files)
        actions = [d.action for d in service.feedback.decisions]
        assert "publish" in actions and "adopt" in actions

    def test_gate_b_adopts_cheaper_plan(self):
        scenario, service, files = _scenario_service(
            "filter_selectivity_skew")
        first = service.execute(scenario.script, workers=2, files=files)
        second = service.execute(scenario.script, workers=2, files=files)
        adoptions = [d for d in service.feedback.decisions
                     if d.action == "adopt"]
        assert len(adoptions) == 1
        assert adoptions[0].new_cost < adoptions[0].old_cost
        assert second.submit.cache_hit, (
            "the adopted plan must serve from the cache"
        )
        assert (second.metrics.rows_extracted
                < first.metrics.rows_extracted)

    def test_gate_b_keeps_incumbent_without_a_better_plan(self):
        scenario, service, files = _scenario_service(
            "single_consumer_keep")
        first = service.execute(scenario.script, workers=2, files=files)
        second = service.execute(scenario.script, workers=2, files=files)
        keeps = [d for d in service.feedback.decisions
                 if d.action == "keep"]
        assert keeps and all(d.new_cost >= d.old_cost for d in keeps)
        assert explain_normalized(second.submit.result.plan) == \
            explain_normalized(first.submit.result.plan)

    def test_adoption_never_bumps_optimizations_identity(self):
        scenario, service, files = _scenario_service(
            "filter_selectivity_skew")
        service.execute(scenario.script, workers=2, files=files)
        service.execute(scenario.script, workers=2, files=files)
        snap = service.stats_snapshot()
        assert snap["submits"] == (snap["cache_hits"]
                                   + snap["optimizations"]
                                   + snap["coalesced"])
        assert snap["cache_lookups"] == (snap["cache_hits"]
                                         + snap["cache_misses"])
        service.cache.stats.check_consistent(len(service.cache))

    def test_decision_log_round_trips_as_json(self, tmp_path):
        scenario, service, files = _scenario_service(
            "filter_selectivity_skew")
        service.execute(scenario.script, workers=2, files=files)
        log = tmp_path / "decisions.jsonl"
        count = service.feedback.dump_decisions(str(log))
        import json
        lines = [json.loads(line) for line in
                 log.read_text().splitlines()]
        assert len(lines) == count > 0
        assert all("action" in card and "detection" in card
                   for card in lines)

    def test_manual_stepping_without_auto(self):
        scenario = SKEW_SCENARIOS["filter_selectivity_skew"]
        service = QueryService(
            scenario.build_catalog(), _config(),
            feedback=FeedbackConfig(auto=False, min_observations=1),
        )
        files = scenario.generate_files()
        run = service.execute(scenario.script, workers=2, files=files)
        assert service.feedback.decisions == []
        service.feedback.observe_run(run)
        cards = service.feedback.step()
        assert any(card.action == "adopt" for card in cards)

    def test_events_published_on_the_service_bus(self):
        scenario, service, files = _scenario_service(
            "filter_selectivity_skew")
        seen = []
        service.bus.subscribe(
            lambda e: seen.append(e.kind)
            if e.kind.startswith("stats.feedback") else None)
        service.execute(scenario.script, workers=2, files=files)
        assert "stats.feedback.capture" in seen
        assert "stats.feedback.decision" in seen
        assert "stats.feedback.publish" in seen


# ---------------------------------------------------------------------------
# q-error monotonicity on the real loop
# ---------------------------------------------------------------------------


def test_feedback_reduces_fragment_qerror_end_to_end():
    scenario, service, files = _scenario_service(
        "filter_selectivity_skew")
    service.execute(scenario.script, workers=2, files=files)
    worst_before = max(
        entry.current_qerror for entry in service.feedback.store.fragments()
        if entry.current_qerror is not None
        and not math.isinf(entry.current_qerror)
    )
    service.execute(scenario.script, workers=2, files=files)
    worst_after = max(
        entry.current_qerror for entry in service.feedback.store.fragments()
        if entry.current_qerror is not None
        and not math.isinf(entry.current_qerror)
    )
    assert worst_before >= 500.0
    assert worst_after <= 2.0, (
        "corrected estimates must track the measurements"
    )
