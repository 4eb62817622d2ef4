"""Tests for repro.core.tuner — the high-level GridTuner API."""

import pytest

from repro.core.errors import ErrorReport
from repro.core.tuner import GridTuner, TuningResult
from repro.prediction.historical import HistoricalAveragePredictor
from repro.prediction.oracle import NoisyOraclePredictor, PerfectPredictor


@pytest.fixture()
def tuner(tiny_dataset):
    return GridTuner(
        tiny_dataset,
        HistoricalAveragePredictor,
        hgrid_budget=64,
        alpha_slot=16,
    )


class TestConstruction:
    def test_explicit_budget_must_be_square(self, tiny_dataset):
        with pytest.raises(ValueError):
            GridTuner(tiny_dataset, HistoricalAveragePredictor, hgrid_budget=63)

    def test_automatic_budget_selection(self, tiny_dataset):
        tuner = GridTuner(tiny_dataset, HistoricalAveragePredictor, hgrid_budget=None)
        side = int(round(tuner.hgrid_budget**0.5))
        assert side * side == tuner.hgrid_budget
        assert side >= 4

    def test_layout_for(self, tuner):
        layout = tuner.layout_for(4)
        assert layout.num_mgrids == 16
        assert layout.total_hgrids >= 64


class TestErrorCurve:
    def test_error_curve_keys_and_ordering(self, tuner):
        curve = tuner.error_curve([2, 4, 8])
        assert list(curve) == [2, 4, 8]
        for side, result in curve.items():
            assert result.num_mgrids == side * side
            assert result.total >= 0

    def test_expression_error_component_decreases(self, tuner):
        curve = tuner.error_curve([2, 4, 8])
        values = [result.expression_error for result in curve.values()]
        assert values[0] >= values[1] >= values[2]

    def test_model_error_component_increases(self, tuner):
        curve = tuner.error_curve([2, 4, 8])
        values = [result.model_error for result in curve.values()]
        assert values[0] <= values[1] <= values[2]


class TestSelect:
    def test_select_returns_probe_consistent_result(self, tuner):
        result = tuner.select("ternary", min_side=2)
        assert isinstance(result, TuningResult)
        assert result.optimal_n == result.optimal_side**2
        assert result.upper_bound.total == pytest.approx(result.search.best_value)

    def test_brute_force_is_never_worse(self, tuner):
        brute = tuner.select("brute_force", min_side=2)
        ternary = tuner.select("ternary", min_side=2)
        iterative = tuner.select("iterative", min_side=2, initial_side=4, bound=2)
        assert brute.upper_bound.total <= ternary.upper_bound.total + 1e-9
        assert brute.upper_bound.total <= iterative.upper_bound.total + 1e-9

    def test_unknown_algorithm_rejected(self, tuner):
        with pytest.raises(ValueError):
            tuner.select("genetic")

    def test_search_reuses_cache_across_algorithms(self, tuner):
        tuner.select("brute_force", min_side=2)
        evaluations_after_brute = tuner.evaluator.evaluations
        tuner.select("ternary", min_side=2)
        assert tuner.evaluator.evaluations == evaluations_after_brute


class TestRealErrorEvaluation:
    def test_report_satisfies_theorem(self, tuner):
        report = tuner.evaluate_real_error(4)
        assert isinstance(report, ErrorReport)
        assert report.satisfies_upper_bound()

    def test_perfect_predictions_reduce_to_expression_error(self, tiny_dataset):
        tuner = GridTuner(tiny_dataset, PerfectPredictor, hgrid_budget=64)
        report = tuner.evaluate_real_error(4)
        assert report.model_error == pytest.approx(0.0, abs=1e-9)
        assert report.real_error == pytest.approx(report.expression_error, abs=1e-9)

    def test_real_error_curve(self, tuner):
        reports = tuner.real_error_curve([2, 8])
        assert set(reports) == {2, 8}
        for report in reports.values():
            assert report.real_error >= 0

    def test_noisier_model_has_larger_real_error(self, tiny_dataset):
        quiet = GridTuner(
            tiny_dataset, lambda: NoisyOraclePredictor(0.2, seed=1), hgrid_budget=64
        )
        noisy = GridTuner(
            tiny_dataset, lambda: NoisyOraclePredictor(2.0, seed=1), hgrid_budget=64
        )
        assert (
            noisy.evaluate_real_error(4).real_error
            > quiet.evaluate_real_error(4).real_error
        )

    def test_predicted_demand_shape(self, tuner, tiny_dataset):
        demand = tuner.predicted_demand(4, list(tiny_dataset.split.test_days))
        assert demand.shape[1:] == (4, 4)
        assert demand.shape[0] == 48


class _CountingFactory:
    """Model factory that counts the ``fit`` calls of the models it makes."""

    def __init__(self, make):
        self.make = make
        self.fits = 0

    def __call__(self):
        model = self.make()
        fit = model.fit

        def counted_fit(dataset, resolution):
            self.fits += 1
            fit(dataset, resolution)

        model.fit = counted_fit
        return model


def _small_deepst():
    from repro.prediction.deepst import DeepSTPredictor

    return DeepSTPredictor(filters=4, epochs=2, max_train_samples=64, seed=0)


class TestRefitReuse:
    """The refit at the selected side reuses the evaluator's fitted model."""

    @pytest.fixture()
    def selected(self, tiny_dataset):
        factory = _CountingFactory(_small_deepst)
        tuner = GridTuner(tiny_dataset, factory, hgrid_budget=64)
        result = tuner.select("iterative", min_side=2)
        return tuner, factory, result.optimal_side

    def test_selected_side_is_not_retrained(self, selected, tiny_dataset):
        tuner, factory, side = selected
        fits = factory.fits
        assert fits == tuner.evaluator.evaluations
        report = tuner.evaluate_real_error(side)
        test_days = list(tiny_dataset.split.test_days)
        demand = tuner.predicted_demand(side, test_days)
        assert factory.fits == fits
        fresh = _small_deepst()
        fresh.fit(tiny_dataset, side)
        assert report == tuner.evaluate_real_error(side, model=fresh)
        assert (demand == tuner.predicted_demand(side, test_days, model=fresh)).all()

    def test_only_the_best_side_keeps_a_model(self, selected):
        tuner, _, side = selected
        evaluated = tuner.evaluator.cached_results()
        assert len(evaluated) > 1
        assert tuner.evaluator.fitted_model(side) is not None
        others = [other for other in evaluated if other != side]
        assert all(tuner.evaluator.fitted_model(other) is None for other in others)

    def test_side_that_is_not_the_best_trains_fresh(self, selected):
        tuner, factory, side = selected
        other = next(s for s in tuner.evaluator.cached_results() if s != side)
        fits = factory.fits
        tuner.evaluate_real_error(other)
        assert factory.fits == fits + 1

    def test_side_served_from_shared_cache_trains_fresh(self, tiny_dataset):
        shared = {}
        first = GridTuner(tiny_dataset, _small_deepst, hgrid_budget=64, alpha_slot=16)
        first.evaluator.model_error_cache = shared
        first.select("iterative", min_side=2)
        factory = _CountingFactory(_small_deepst)
        second = GridTuner(tiny_dataset, factory, hgrid_budget=64, alpha_slot=16)
        second.evaluator.model_error_cache = shared
        side = second.select("iterative", min_side=2).optimal_side
        assert factory.fits == 0
        assert second.evaluator.fitted_model(side) is None
        report = second.evaluate_real_error(side)
        assert factory.fits == 1
        assert report == first.evaluate_real_error(side)
