"""Tests for the concrete demand predictors (MLP, DeepST, DMVST-Net)."""

import numpy as np
import pytest

from repro.core.interfaces import (
    DemandPredictor,
    actual_counts_for_targets,
    evaluation_targets,
)
from repro.core.model_error import mean_absolute_error
from repro.prediction.deepst import DeepSTPredictor, ResidualBlock, SqueezeChannel
from repro.prediction.dmvst import DMVSTNetPredictor, MultiViewNetwork
from repro.prediction.mlp import MLPPredictor

RESOLUTION = 4


def fast_kwargs():
    return dict(epochs=6, max_train_samples=160, seed=3)


@pytest.fixture(scope="module")
def fitted_models(tiny_dataset):
    models = {
        "mlp": MLPPredictor(hidden_sizes=(32, 32), **fast_kwargs()),
        "deepst": DeepSTPredictor(filters=6, period=1, **fast_kwargs()),
        "dmvst": DMVSTNetPredictor(filters=6, period=1, **fast_kwargs()),
    }
    for model in models.values():
        model.fit(tiny_dataset, RESOLUTION)
    return models


class TestProtocolCompliance:
    def test_all_models_satisfy_protocol(self):
        for model in (
            MLPPredictor(),
            DeepSTPredictor(),
            DMVSTNetPredictor(),
        ):
            assert isinstance(model, DemandPredictor)


class TestFitPredict:
    def test_prediction_shapes(self, fitted_models, tiny_dataset):
        targets = evaluation_targets(tiny_dataset, tiny_dataset.split.test_days)
        for model in fitted_models.values():
            predictions = model.predict(tiny_dataset, RESOLUTION, targets)
            assert predictions.shape == (len(targets), RESOLUTION, RESOLUTION)
            assert np.all(predictions >= 0)
            assert np.all(np.isfinite(predictions))

    def test_predictions_beat_trivial_zero_baseline(self, fitted_models, tiny_dataset):
        targets = evaluation_targets(tiny_dataset, tiny_dataset.split.test_days)
        actual = actual_counts_for_targets(tiny_dataset, RESOLUTION, targets)
        zero_mae = mean_absolute_error(np.zeros_like(actual), actual)
        for name, model in fitted_models.items():
            predictions = model.predict(tiny_dataset, RESOLUTION, targets)
            assert mean_absolute_error(predictions, actual) < zero_mae, name

    def test_predict_before_fit_rejected(self, tiny_dataset):
        model = MLPPredictor(**fast_kwargs())
        targets = [(9, 10)]
        with pytest.raises(RuntimeError):
            model.predict(tiny_dataset, RESOLUTION, targets)

    def test_predict_at_wrong_resolution_rejected(self, fitted_models, tiny_dataset):
        targets = [(9, 10)]
        with pytest.raises(ValueError):
            fitted_models["mlp"].predict(tiny_dataset, 8, targets)

    def test_training_history_recorded(self, fitted_models):
        for model in fitted_models.values():
            assert model.is_fitted
            assert model.training_history is not None
            assert model.training_history.epochs_run >= 1

    def test_predict_handles_early_slots_by_clamping(self, fitted_models, tiny_dataset):
        predictions = fitted_models["mlp"].predict(tiny_dataset, RESOLUTION, [(0, 2)])
        assert predictions.shape == (1, RESOLUTION, RESOLUTION)

    def test_out_of_range_target_rejected(self, fitted_models, tiny_dataset):
        with pytest.raises(ValueError):
            fitted_models["mlp"].predict(tiny_dataset, RESOLUTION, [(99, 0)])


class TestConstruction:
    def test_mlp_invalid_hidden_sizes(self):
        with pytest.raises(ValueError):
            MLPPredictor(hidden_sizes=())
        with pytest.raises(ValueError):
            MLPPredictor(hidden_sizes=(0,))

    def test_deepst_invalid_filters(self):
        with pytest.raises(ValueError):
            DeepSTPredictor(filters=0)

    def test_dmvst_invalid_filters(self):
        with pytest.raises(ValueError):
            DMVSTNetPredictor(filters=0)

    def test_invalid_closeness(self):
        with pytest.raises(ValueError):
            MLPPredictor(closeness=0)


class TestArchitectureComponents:
    def test_residual_block_identity_path(self):
        block = ResidualBlock(3, seed=0)
        block.conv1.weight[:] = 0.0
        block.conv2.weight[:] = 0.0
        inputs = np.random.default_rng(0).normal(size=(2, 3, 4, 4))
        np.testing.assert_allclose(block.forward(inputs), inputs)

    def test_residual_block_backward_adds_skip_gradient(self):
        block = ResidualBlock(2, seed=1)
        inputs = np.random.default_rng(1).normal(size=(1, 2, 3, 3))
        block.forward(inputs)
        grad = block.backward(np.ones_like(inputs))
        assert grad.shape == inputs.shape

    def test_squeeze_channel_validation(self):
        with pytest.raises(ValueError):
            SqueezeChannel().forward(np.zeros((1, 2, 3, 3)))

    def test_multiview_network_forward_backward(self):
        network = MultiViewNetwork(
            closeness_channels=4, period_channels=2, filters=3, seed=0
        )
        closeness = np.random.default_rng(0).normal(size=(2, 4, 5, 5))
        period = np.random.default_rng(1).normal(size=(2, 2, 5, 5))
        output = network.forward((closeness, period))
        assert output.shape == (2, 5, 5)
        grad_closeness, grad_period = network.backward(np.ones_like(output))
        assert grad_closeness.shape == closeness.shape
        assert grad_period.shape == period.shape

    def test_multiview_requires_period_when_semantic_branch_exists(self):
        network = MultiViewNetwork(
            closeness_channels=4, period_channels=2, filters=3, seed=0
        )
        with pytest.raises(ValueError):
            network.forward(np.zeros((1, 4, 5, 5)))

    def test_multiview_without_period_branch(self):
        network = MultiViewNetwork(
            closeness_channels=4, period_channels=0, filters=3, seed=0
        )
        closeness = np.zeros((1, 4, 5, 5))
        assert network.forward(closeness).shape == (1, 5, 5)


class TestFittedModelFootprint:
    def test_no_layer_holds_a_batch_sized_array(self, fitted_models, tiny_dataset):
        """A fitted model keeps parameter-shaped arrays only: no unfold
        buffers, cached batch inputs or ReLU masks survive fit/predict."""
        from repro.prediction.layers import Layer

        def reachable_layers(layer):
            # Walk attributes, not children(), so a sub-layer missing from
            # children() is still inspected.
            yield layer
            for value in vars(layer).values():
                for item in value if isinstance(value, list) else [value]:
                    if isinstance(item, Layer):
                        yield from reachable_layers(item)

        targets = evaluation_targets(tiny_dataset, tiny_dataset.split.test_days)
        for name, model in fitted_models.items():
            model.predict(tiny_dataset, RESOLUTION, targets)
            for layer in reachable_layers(model._trainer.network):
                shapes = {value.shape for value in layer.params.values()}
                for attribute, value in vars(layer).items():
                    held = value.values() if isinstance(value, dict) else [value]
                    for array in held:
                        if isinstance(array, np.ndarray):
                            assert array.shape in shapes, (name, type(layer), attribute)
