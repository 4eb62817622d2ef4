"""Tests for repro.sweep — the cached OGSS sweep runner."""

import dataclasses

import pytest

import repro.sweep.runner as runner_module
from repro.data.dataset import EventDataset
from repro.prediction.historical import HistoricalAveragePredictor
from repro.sweep import SweepRunner, SweepTask, sweep_tasks
from repro.utils.cache import ResultCache

FAST = dict(
    algorithm="iterative",
    hgrid_budget=64,
    scale=0.004,
    num_days=8,
    seed=3,
    search_kwargs=(("bound", 2), ("initial_side", 4)),
)


class TestSweepTask:
    def test_rejects_unknown_city(self):
        with pytest.raises(ValueError):
            SweepTask(city="atlantis")

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            SweepTask(city="xian_like", model="crystal_ball")

    def test_rejects_non_square_budget(self):
        with pytest.raises(ValueError):
            SweepTask(city="xian_like", hgrid_budget=63)

    def test_cache_payload_is_stable(self):
        first = SweepTask(city="xian_like", **FAST)
        second = SweepTask(city="xian_like", **FAST)
        assert ResultCache.key_for(first.cache_payload()) == ResultCache.key_for(
            second.cache_payload()
        )

    def test_cache_payload_distinguishes_slots(self):
        base = SweepTask(city="xian_like", slot=16, **FAST)
        other = SweepTask(city="xian_like", slot=17, **FAST)
        assert ResultCache.key_for(base.cache_payload()) != ResultCache.key_for(
            other.cache_payload()
        )


class TestSweepTasksBuilder:
    def test_cross_product(self):
        tasks = sweep_tasks(
            ["xian_like", "nyc_like"], models=["historical_average"], slots=[16, 17]
        )
        assert len(tasks) == 4
        assert {(t.city, t.slot) for t in tasks} == {
            ("xian_like", 16),
            ("xian_like", 17),
            ("nyc_like", 16),
            ("nyc_like", 17),
        }

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            sweep_tasks([])
        with pytest.raises(ValueError):
            sweep_tasks(["xian_like"], slots=[])


class TestSweepRunner:
    @pytest.fixture(scope="class")
    def tasks(self):
        return sweep_tasks(["xian_like"], slots=[16, 17], **FAST)

    def test_requires_tasks(self):
        with pytest.raises(ValueError):
            SweepRunner([])

    def test_run_populates_cache(self, tasks, tmp_path):
        cache_dir = tmp_path / "cache"
        report = SweepRunner(tasks, cache_dir=str(cache_dir)).run()
        assert len(report.outcomes) == 2
        assert report.cache_hits == 0 and report.cache_misses == 2
        for outcome in report.outcomes:
            assert not outcome.from_cache
            assert 2 <= outcome.result.best_side <= 8
            assert outcome.upper_bound == pytest.approx(
                outcome.model_error + outcome.expression_error
            )
        assert len(list(cache_dir.glob("*.json"))) == 2

    def test_rerun_hits_cache_with_identical_results(self, tasks, tmp_path):
        cache_dir = tmp_path / "cache"
        fresh = SweepRunner(tasks, cache_dir=str(cache_dir)).run()
        file_bytes = {
            path.name: path.read_bytes() for path in cache_dir.glob("*.json")
        }
        replayed = SweepRunner(tasks, cache_dir=str(cache_dir)).run()
        assert replayed.cache_hits == 2 and replayed.cache_misses == 0
        for first, second in zip(fresh.outcomes, replayed.outcomes):
            assert second.from_cache and not first.from_cache
            # Fresh and replayed outcomes are built from the same payload, so
            # they agree in every field but the timing and the cache flag.
            replayed = dataclasses.replace(second, seconds=0.0, from_cache=False)
            assert replayed == dataclasses.replace(first, seconds=0.0)
        assert {
            path.name: path.read_bytes() for path in cache_dir.glob("*.json")
        } == file_bytes

    def test_runs_without_cache(self, tasks):
        report = SweepRunner([tasks[0]], cache_dir=None).run()
        assert len(report.outcomes) == 1
        assert not report.outcomes[0].from_cache

    def test_datasets_shared_between_tasks(self, monkeypatch):
        """One dataset per signature, shared across slots and models."""
        generated = []
        original = EventDataset.from_city

        def counting(*args, **kwargs):
            generated.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(EventDataset, "from_city", counting)
        tasks = sweep_tasks(
            ["xian_like"],
            models=["historical_average", "exponential_smoothing"],
            slots=[16, 17],
            **FAST,
        )
        report = SweepRunner(tasks, cache_dir=None).run()
        assert len(report.outcomes) == 4
        assert len(generated) == 1

    def test_group_trains_each_side_once(self, monkeypatch):
        """Slot tasks of one (dataset, model, budget) share a model-error
        cache, so each candidate side is trained once across the group."""
        trained = []

        class CountingPredictor(HistoricalAveragePredictor):
            def fit(self, dataset, mgrid_side):
                trained.append(mgrid_side)
                return super().fit(dataset, mgrid_side)

        monkeypatch.setattr(runner_module, "model_factory", lambda name: CountingPredictor)
        tasks = sweep_tasks(["xian_like"], slots=[16, 17, 18, 19], **FAST)
        report = SweepRunner(tasks, cache_dir=None).run()
        probed = set()
        for outcome in report.outcomes:
            probed.update(outcome.result.probes)
        assert len(report.outcomes) == 4
        assert sorted(trained) == sorted(probed)
        # Model error is slot-independent: equal selected sides, equal error.
        errors = {}
        for outcome in report.outcomes:
            errors.setdefault(outcome.result.best_side, set()).add(outcome.model_error)
        assert all(len(values) == 1 for values in errors.values())

    def test_best_sides_mapping(self, tasks, tmp_path):
        report = SweepRunner(tasks, cache_dir=str(tmp_path / "c")).run()
        mapping = report.best_sides()
        assert set(mapping) == {
            ("xian_like", "historical_average", 16),
            ("xian_like", "historical_average", 17),
        }
