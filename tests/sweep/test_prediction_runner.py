"""Tests for the cached predictor-suite runner."""

import dataclasses
import json

import numpy as np
import pytest

from repro.data.dataset import EventDataset
from repro.sweep.prediction import (
    PredictionSuiteRunner,
    PredictorScenario,
    predictor_scenarios,
)

SMALL = dict(scale=0.003, num_days=6)

#: Fast training hyper-parameters applied to the neural models only.
FAST_HYPER = (("epochs", 3), ("max_train_samples", 64))


def small_scenarios(**overrides):
    params = {**SMALL, **overrides}
    return predictor_scenarios(
        ["xian_like"],
        models=("historical_average", "mlp"),
        resolutions=(4,),
        seeds=(7,),
        hyper=FAST_HYPER,
        **params,
    )


class TestPredictorScenario:
    def test_defaults_are_valid(self):
        scenario = PredictorScenario(city="nyc_like")
        assert scenario.model == "mlp"
        assert "nyc_like" in scenario.label

    def test_unknown_city_and_model(self):
        with pytest.raises(ValueError):
            PredictorScenario(city="atlantis")
        with pytest.raises(ValueError):
            PredictorScenario(city="nyc_like", model="crystal_ball")

    def test_invalid_resolution_and_days(self):
        with pytest.raises(ValueError):
            PredictorScenario(city="nyc_like", resolution=0)
        with pytest.raises(ValueError):
            PredictorScenario(city="nyc_like", num_days=2)

    def test_cache_payload_excludes_display_name(self):
        plain = PredictorScenario(city="xian_like", **SMALL)
        named = PredictorScenario(city="xian_like", name="something", **SMALL)
        assert plain.cache_payload() == named.cache_payload()

    def test_hyper_applies_only_where_accepted(self):
        neural = PredictorScenario(
            city="xian_like", model="mlp", hyper=FAST_HYPER, **SMALL
        )
        baseline = PredictorScenario(
            city="xian_like", model="historical_average", hyper=FAST_HYPER, **SMALL
        )
        assert neural.make_model().epochs == 3
        baseline.make_model()  # must not raise on unsupported kwargs

    def test_grid_cross_product(self):
        scenarios = predictor_scenarios(
            ["xian_like", "nyc_like"],
            models=("mlp", "historical_average"),
            resolutions=(4, 8),
            seeds=(1, 2),
        )
        assert len(scenarios) == 2 * 2 * 2 * 2

    def test_grid_requires_non_empty_axes(self):
        with pytest.raises(ValueError):
            predictor_scenarios([])
        with pytest.raises(ValueError):
            predictor_scenarios(["xian_like"], models=())
        with pytest.raises(ValueError):
            predictor_scenarios(["xian_like"], seeds=())


class TestPredictionSuiteRunner:
    def test_runs_all_scenarios(self):
        report = PredictionSuiteRunner(small_scenarios()).run()
        assert len(report.outcomes) == 2
        assert report.cache_hits == 0
        assert all(np.isfinite(o.mae) and o.mae >= 0 for o in report.outcomes)
        assert all(o.rmse >= o.mae * 0 for o in report.outcomes)

    def test_requires_scenarios(self):
        with pytest.raises(ValueError):
            PredictionSuiteRunner([])

    def test_neural_outcomes_record_history(self):
        report = PredictionSuiteRunner(small_scenarios()).run()
        by_model = {o.scenario.model: o for o in report.outcomes}
        assert by_model["mlp"].epochs_run >= 1
        assert by_model["historical_average"].epochs_run == 0
        assert by_model["historical_average"].best_epoch is None

    def test_cache_replay_is_byte_identical(self, tmp_path):
        cache_dir = tmp_path / "suite"
        scenarios = small_scenarios()
        first = PredictionSuiteRunner(scenarios, cache_dir=str(cache_dir)).run()
        snapshot = {path.name: path.read_bytes() for path in cache_dir.glob("*.json")}
        assert len(snapshot) == len(scenarios)
        second = PredictionSuiteRunner(scenarios, cache_dir=str(cache_dir)).run()
        assert second.cache_hits == len(scenarios)
        assert second.cache_misses == 0
        for path in cache_dir.glob("*.json"):
            assert path.read_bytes() == snapshot[path.name]
        for before, after in zip(first.outcomes, second.outcomes):
            assert before.mae == after.mae
            assert before.epochs_run == after.epochs_run
            assert after.from_cache

    def test_cache_entries_are_canonical_json(self, tmp_path):
        cache_dir = tmp_path / "suite"
        PredictionSuiteRunner(small_scenarios(), cache_dir=str(cache_dir)).run()
        for path in cache_dir.glob("*.json"):
            text = path.read_text()
            payload = json.loads(text)
            assert text == json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def test_datasets_shared_across_scenarios(self, monkeypatch):
        generated = []
        original = EventDataset.from_city

        def counting(*args, **kwargs):
            generated.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(EventDataset, "from_city", counting)
        PredictionSuiteRunner(small_scenarios()).run()
        # Both models train against the same generated city.
        assert len(generated) == 1

    def test_fresh_outcome_equals_cache_replay(self, tmp_path):
        scenarios = small_scenarios()
        fresh = PredictionSuiteRunner(scenarios, cache_dir=str(tmp_path)).run()
        replay = PredictionSuiteRunner(scenarios, cache_dir=str(tmp_path)).run()
        assert replay.cache_hits == len(scenarios)
        for first, second in zip(fresh.outcomes, replay.outcomes):
            assert not first.from_cache and second.from_cache
            replayed = dataclasses.replace(second, seconds=0.0, from_cache=False)
            assert replayed == dataclasses.replace(first, seconds=0.0)

    def test_by_label_and_best_models(self):
        report = PredictionSuiteRunner(small_scenarios()).run()
        labels = report.by_label()
        assert len(labels) == 2
        best = report.best_models()
        assert set(best) == {("xian_like", 4, 7)}
        assert best[("xian_like", 4, 7)] in ("historical_average", "mlp")

    def test_cache_key_is_stable(self):
        scenario = PredictorScenario(city="xian_like", **SMALL)
        assert PredictionSuiteRunner.cache_key(scenario) == (
            PredictionSuiteRunner.cache_key(PredictorScenario(city="xian_like", **SMALL))
        )


class TestHyperCacheKeys:
    def test_ignored_hyper_does_not_change_cache_key(self):
        """A baseline's cache entry survives neural hyper-parameter changes."""
        base = PredictorScenario(
            city="xian_like", model="historical_average", hyper=(("epochs", 3),), **SMALL
        )
        other = PredictorScenario(
            city="xian_like", model="historical_average", hyper=(("epochs", 5),), **SMALL
        )
        assert PredictionSuiteRunner.cache_key(base) == PredictionSuiteRunner.cache_key(other)

    def test_applied_hyper_still_keys_the_cache(self):
        base = PredictorScenario(
            city="xian_like", model="mlp", hyper=(("epochs", 3),), **SMALL
        )
        other = PredictorScenario(
            city="xian_like", model="mlp", hyper=(("epochs", 5),), **SMALL
        )
        assert PredictionSuiteRunner.cache_key(base) != PredictionSuiteRunner.cache_key(other)
