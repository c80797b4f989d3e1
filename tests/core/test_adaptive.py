"""Tests for adaptive prediction-window tuning."""

import pytest

from repro.core.adaptive import (
    AdaptiveWindowFramework,
    AdaptiveWindowTuner,
    TuningDecision,
)
from repro.core.framework import FrameworkConfig
from repro.core.meta import MetaLearner
from repro.core.reviser import Reviser
from repro.core.session import SessionCore
from repro.raslog.store import EventLog


class TestTunerValidation:
    def test_needs_two_candidates(self):
        with pytest.raises(ValueError, match="at least two"):
            AdaptiveWindowTuner(candidates=(300.0,))

    def test_candidates_ascending(self):
        with pytest.raises(ValueError, match="ascending"):
            AdaptiveWindowTuner(candidates=(900.0, 300.0))

    def test_validation_fraction_bounds(self):
        with pytest.raises(ValueError, match="validation_fraction"):
            AdaptiveWindowTuner(validation_fraction=0.0)
        with pytest.raises(ValueError, match="validation_fraction"):
            AdaptiveWindowTuner(validation_fraction=1.0)

    def test_tolerance_non_negative(self):
        with pytest.raises(ValueError, match="tolerance"):
            AdaptiveWindowTuner(tolerance=-0.1)


class TestChoose:
    def test_scores_all_candidates(self, mid_trace):
        tuner = AdaptiveWindowTuner(candidates=(300.0, 3600.0))
        meta = MetaLearner(catalog=mid_trace.catalog)
        reviser = Reviser(catalog=mid_trace.catalog)
        decision = tuner.choose(
            26,
            mid_trace.clean.slice_weeks(0, 26),
            meta,
            reviser,
            mid_trace.catalog,
        )
        assert isinstance(decision, TuningDecision)
        assert set(decision.scores) == {300.0, 3600.0}
        assert decision.chosen in (300.0, 3600.0)
        for p, r, f1 in decision.scores.values():
            assert 0.0 <= p <= 1.0
            assert 0.0 <= r <= 1.0
            assert 0.0 <= f1 <= 1.0

    def test_prefers_smallest_near_best(self, mid_trace):
        # with an enormous tolerance every candidate is "near best", so
        # the smallest window must win
        tuner = AdaptiveWindowTuner(candidates=(300.0, 3600.0), tolerance=1.0)
        meta = MetaLearner(catalog=mid_trace.catalog)
        reviser = Reviser(catalog=mid_trace.catalog)
        decision = tuner.choose(
            26,
            mid_trace.clean.slice_weeks(0, 26),
            meta,
            reviser,
            mid_trace.catalog,
        )
        assert decision.chosen == 300.0

    def test_empty_training_defaults_to_smallest(self, catalog):
        tuner = AdaptiveWindowTuner(candidates=(300.0, 900.0))
        meta = MetaLearner(catalog=catalog)
        reviser = Reviser(catalog=catalog)
        decision = tuner.choose(0, EventLog(), meta, reviser, catalog)
        assert decision.chosen == 300.0
        assert decision.scores == {}


class TestAdaptiveFramework:
    def test_tunes_at_each_retraining(self, mid_trace):
        config = FrameworkConfig(initial_train_weeks=20, retrain_weeks=8)
        framework = AdaptiveWindowFramework(
            config,
            catalog=mid_trace.catalog,
            tuner=AdaptiveWindowTuner(candidates=(300.0, 1800.0)),
        )
        result = framework.run(mid_trace.clean, end_week=36)
        assert len(framework.decisions) == len(result.retrains)
        for decision in framework.decisions:
            assert decision.chosen in (300.0, 1800.0)
        # warnings carry the window that was active when they fired
        windows = {w.window for w in result.warnings}
        chosen = {d.chosen for d in framework.decisions}
        assert windows <= chosen | {
            w.window for w in result.warnings if w.learner == "distribution"
        }

    def test_core_tunes_online_like_batch(self, mid_trace):
        """Tuning is a retrain step of the streaming core: a tuned core fed
        event by event matches the batch run over the same weeks."""
        config = FrameworkConfig(initial_train_weeks=20, retrain_weeks=8)
        log = mid_trace.clean
        framework = AdaptiveWindowFramework(
            config,
            catalog=mid_trace.catalog,
            tuner=AdaptiveWindowTuner(candidates=(300.0, 1800.0)),
        )
        result = framework.run(log, end_week=36)
        core = SessionCore(
            config,
            catalog=mid_trace.catalog,
            origin=log.origin,
            tuner=AdaptiveWindowTuner(candidates=(300.0, 1800.0)),
        )
        for event in log.slice_weeks(0, 36):
            core.ingest(event)
        assert len(core.decisions) == len(core.retrains) == 2
        assert core.decisions == framework.decisions
        assert core.warnings == result.warnings

    def test_produces_reasonable_accuracy(self, mid_trace):
        config = FrameworkConfig(initial_train_weeks=20, retrain_weeks=8)
        framework = AdaptiveWindowFramework(config, catalog=mid_trace.catalog)
        result = framework.run(mid_trace.clean, end_week=36)
        assert result.overall.precision > 0.4
        assert result.overall.recall > 0.3
