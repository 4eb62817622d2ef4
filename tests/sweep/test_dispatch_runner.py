"""Tests for the cached dispatch scenario-suite runner."""

import dataclasses
import json

import pytest

import repro.dispatch.scenarios as scenarios_module
import repro.sweep.dispatch as dispatch_module
from repro.dispatch.scenarios import DispatchScenario, scenario_grid
from repro.sweep.dispatch import DispatchSuiteRunner

SMALL = dict(scale=0.003, num_days=6, slots=(16, 17))


def small_scenarios(**overrides):
    params = {**SMALL, **overrides}
    return scenario_grid(
        ["xian_like"],
        policies=("polar", "ls"),
        fleet_sizes=(15,),
        demand_scales=(1.0, 2.0),
        seeds=(7,),
        **params,
    )


class TestDispatchSuiteRunner:
    def test_runs_all_scenarios(self):
        report = DispatchSuiteRunner(small_scenarios(), max_workers=2).run()
        assert len(report.outcomes) == 4
        assert report.cache_hits == 0
        assert all(o.metrics.total_orders > 0 for o in report.outcomes)

    def test_requires_scenarios(self):
        with pytest.raises(ValueError):
            DispatchSuiteRunner([])

    def test_invalid_engine(self):
        with pytest.raises(ValueError):
            DispatchSuiteRunner(small_scenarios(), engine="quantum")

    def test_cache_replay_is_byte_identical(self, tmp_path):
        cache_dir = tmp_path / "suite"
        scenarios = small_scenarios()
        first = DispatchSuiteRunner(scenarios, cache_dir=str(cache_dir)).run()
        snapshot = {
            path.name: path.read_bytes() for path in cache_dir.glob("*.json")
        }
        assert len(snapshot) == len(scenarios)
        second = DispatchSuiteRunner(scenarios, cache_dir=str(cache_dir)).run()
        assert second.cache_hits == len(scenarios)
        assert second.cache_misses == 0
        for path in cache_dir.glob("*.json"):
            assert path.read_bytes() == snapshot[path.name]
        for before, after in zip(first.outcomes, second.outcomes):
            assert before.metrics == after.metrics
            assert after.from_cache

    def test_cache_entries_are_canonical_json(self, tmp_path):
        cache_dir = tmp_path / "suite"
        DispatchSuiteRunner(small_scenarios(), cache_dir=str(cache_dir)).run()
        for path in cache_dir.glob("*.json"):
            text = path.read_text()
            payload = json.loads(text)
            assert text == json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def test_scalar_engine_warms_cache_for_vector(self, tmp_path):
        cache_dir = tmp_path / "suite"
        scenarios = small_scenarios()[:1]
        scalar = DispatchSuiteRunner(
            scenarios, cache_dir=str(cache_dir), engine="scalar"
        ).run()
        vector = DispatchSuiteRunner(
            scenarios, cache_dir=str(cache_dir), engine="vector"
        ).run()
        assert vector.cache_hits == 1
        assert scalar.outcomes[0].metrics == vector.outcomes[0].metrics

    def test_datasets_shared_across_scenarios(self, monkeypatch):
        built = []
        original = dispatch_module.build_scenario_dataset

        def counting(scenario):
            built.append(scenario.dataset_signature)
            return original(scenario)

        monkeypatch.setattr(dispatch_module, "build_scenario_dataset", counting)
        DispatchSuiteRunner(small_scenarios(), max_workers=1).run()
        # polar/ls and both demand scales share 2 datasets (one per scale).
        assert len(built) == 2 == len(set(built))

    def test_process_fan_out_equals_inline(self, tmp_path):
        """Two dataset groups across two processes give the outcomes and
        cache bytes of one inline worker."""
        scenarios = small_scenarios()
        assert len({s.dataset_signature for s in scenarios}) >= 2
        inline_dir, pool_dir = tmp_path / "inline", tmp_path / "pool"
        inline = DispatchSuiteRunner(scenarios, cache_dir=str(inline_dir), max_workers=1).run()
        pooled = DispatchSuiteRunner(scenarios, cache_dir=str(pool_dir), max_workers=2).run()
        assert [dataclasses.replace(o, seconds=0.0) for o in pooled.outcomes] == [
            dataclasses.replace(o, seconds=0.0) for o in inline.outcomes
        ]
        inline_files = {p.name: p.read_bytes() for p in inline_dir.glob("*.json")}
        pool_files = {p.name: p.read_bytes() for p in pool_dir.glob("*.json")}
        assert len(inline_files) == len(scenarios)
        assert pool_files == inline_files

    def test_fresh_outcome_equals_cache_replay(self, tmp_path):
        scenarios = small_scenarios()
        fresh = DispatchSuiteRunner(scenarios, cache_dir=str(tmp_path)).run()
        replay = DispatchSuiteRunner(scenarios, cache_dir=str(tmp_path)).run()
        assert replay.cache_hits == len(scenarios)
        for first, second in zip(fresh.outcomes, replay.outcomes):
            assert not first.from_cache and second.from_cache
            replayed = dataclasses.replace(second, seconds=0.0, from_cache=False)
            assert replayed == dataclasses.replace(first, seconds=0.0)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_rejects_worker_counts_below_one(self, workers):
        with pytest.raises(ValueError, match="max_workers"):
            DispatchSuiteRunner(small_scenarios(), max_workers=workers).run()

    def test_by_label(self):
        report = DispatchSuiteRunner(small_scenarios(), max_workers=1).run()
        labels = report.by_label()
        assert len(labels) == 4
        for label, outcome in labels.items():
            assert outcome.scenario.label == label

    def test_cache_key_is_stable(self):
        scenario = DispatchScenario(city="xian_like", **SMALL)
        assert DispatchSuiteRunner.cache_key(scenario) == DispatchSuiteRunner.cache_key(
            DispatchScenario(city="xian_like", **SMALL)
        )

    def test_cache_payload_carries_cancelled_orders(self, tmp_path):
        """Schema-2 payloads persist the lifecycle metrics and replay them."""
        cache_dir = tmp_path / "suite"
        # Tight rider patience so cancellations actually occur.
        scenarios = [
            s for s in small_scenarios(max_wait_minutes=2.0) if s.demand_scale == 2.0
        ]
        first = DispatchSuiteRunner(scenarios, cache_dir=str(cache_dir)).run()
        assert any(o.metrics.cancelled_orders > 0 for o in first.outcomes)
        for path in cache_dir.glob("*.json"):
            payload = json.loads(path.read_text())
            assert "cancelled_orders" in payload
        second = DispatchSuiteRunner(scenarios, cache_dir=str(cache_dir)).run()
        for before, after in zip(first.outcomes, second.outcomes):
            assert after.from_cache
            assert before.metrics == after.metrics
            assert before.metrics.cancelled_orders == after.metrics.cancelled_orders

    def test_lifecycle_scenarios_cache_and_replay(self, tmp_path):
        from repro.dispatch.scenarios import lifecycle_scenarios

        base = DispatchScenario(city="xian_like", fleet_size=15, **SMALL)
        scenarios = lifecycle_scenarios(base)
        cache_dir = tmp_path / "suite"
        first = DispatchSuiteRunner(scenarios, cache_dir=str(cache_dir)).run()
        assert len(first.outcomes) == 4
        two_day = next(
            o for o in first.outcomes if o.scenario.name.endswith("two-day-churn")
        )
        assert two_day.total_orders == two_day.metrics.total_orders
        second = DispatchSuiteRunner(scenarios, cache_dir=str(cache_dir)).run()
        assert second.cache_hits == len(scenarios)
        for before, after in zip(first.outcomes, second.outcomes):
            assert before.metrics == after.metrics

    def test_schema_bump_invalidates_old_entries(self):
        from repro.sweep.dispatch import _CACHE_SCHEMA

        assert _CACHE_SCHEMA >= 2

    def test_invalid_sparse(self):
        with pytest.raises(ValueError):
            DispatchSuiteRunner(small_scenarios(), sparse="maybe")

    def test_sparse_modes_share_metrics(self):
        scenarios = small_scenarios()[:2]
        dense = DispatchSuiteRunner(scenarios, max_workers=1, sparse="never").run()
        sparse = DispatchSuiteRunner(scenarios, max_workers=1, sparse="always").run()
        for a, b in zip(dense.outcomes, sparse.outcomes):
            assert a.metrics == b.metrics


class TestPredictorGuidanceSharing:
    def test_guided_suite_trains_one_provider_per_signature(self, monkeypatch):
        trained = []
        original = scenarios_module._guidance_provider

        def counting(dataset, scenario):
            trained.append(scenario.guidance_signature)
            return original(dataset, scenario)

        monkeypatch.setattr(scenarios_module, "_guidance_provider", counting)
        scenarios = small_scenarios(guidance="historical_average")
        DispatchSuiteRunner(scenarios, max_workers=1).run()
        # 4 scenarios = (polar, ls) x (1.0, 2.0 demand); policies share a
        # provider, demand scales do not (different datasets).
        assert len(trained) == 2 == len(set(trained))

    def test_guided_suite_matches_unshared_bundles(self):
        from repro.dispatch.scenarios import build_scenario_bundle

        scenarios = small_scenarios(guidance="historical_average")[:2]
        shared = DispatchSuiteRunner(scenarios, max_workers=1).run()
        for scenario, outcome in zip(scenarios, shared.outcomes):
            assert build_scenario_bundle(scenario).run("vector") == outcome.metrics
