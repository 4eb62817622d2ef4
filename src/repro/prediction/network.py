"""Training loop, loss functions and parameter discovery for the NumPy models."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.prediction.layers import Layer, _ensure_float, iter_layers
from repro.prediction.optim import Adam
from repro.utils.rng import RandomState, default_rng

#: Model inputs are either a single array or a tuple of view arrays.
Inputs = Union[np.ndarray, Tuple[np.ndarray, ...]]


def mse_loss(predictions: np.ndarray, targets: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean-squared-error loss and its gradient w.r.t. the predictions."""
    predictions = _ensure_float(predictions)
    targets = _ensure_float(targets)
    if predictions.shape != targets.shape:
        raise ValueError(
            f"predictions and targets must have the same shape, got "
            f"{predictions.shape} vs {targets.shape}"
        )
    diff = predictions - targets
    loss = float(np.mean(diff**2))
    grad = 2.0 * diff / diff.size
    return loss, grad


def mae_metric(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Mean absolute error used as the validation metric."""
    return float(np.mean(np.abs(np.asarray(predictions) - np.asarray(targets))))


def collect_parameter_layers(layer: Layer) -> List[Layer]:
    """Every leaf layer of ``layer`` that owns trainable parameters.

    Composite layers expose their sub-layers through ``children()``
    (:class:`~repro.prediction.layers.Sequential` returns its ``layers``).
    """
    return layer.parameter_layers()


def _slice_inputs(inputs: Inputs, indices: np.ndarray) -> Inputs:
    if isinstance(inputs, tuple):
        return tuple(view[indices] for view in inputs)
    return inputs[indices]


def _num_samples(inputs: Inputs) -> int:
    if isinstance(inputs, tuple):
        return inputs[0].shape[0]
    return inputs.shape[0]


@dataclass
class TrainingHistory:
    """Per-epoch training and validation metrics.

    ``train_loss`` entries are sample-weighted epoch means: each batch
    contributes proportionally to its size, so a final partial batch is no
    longer over-weighted.
    """

    train_loss: List[float] = field(default_factory=list)
    val_mae: List[float] = field(default_factory=list)
    #: Index (0-based) of the epoch whose weights the trainer returned, when
    #: validation was tracked; ``None`` otherwise.
    best_epoch: Optional[int] = None

    @property
    def epochs_run(self) -> int:
        """Number of completed epochs."""
        return len(self.train_loss)

    @property
    def best_val_mae(self) -> Optional[float]:
        """Validation MAE of the restored epoch (``None`` without validation)."""
        if self.best_epoch is None:
            return None
        return self.val_mae[self.best_epoch]


class Trainer:
    """Mini-batch Adam trainer with optional early stopping on validation MAE.

    When validation data is provided, the parameters achieving the best
    validation MAE are snapshotted and restored before :meth:`fit` returns —
    both on an early stop and when the epoch budget runs out with a worse
    final epoch.  (The seed implementation kept the *last* epoch's weights,
    silently shipping a worse network whenever training had already started
    to overfit.)

    Parameters
    ----------
    dtype:
        ``None`` (default) trains in ``float64`` exactly as before;
        ``np.float32`` (or ``"float32"``) casts the network parameters and
        every batch to single precision, roughly halving the memory traffic
        of the conv hot path.  Layer parameters must be exposed as
        attributes matching their :attr:`Layer.params` keys (true for all
        built-in layers) for the cast to reach them.
    """

    def __init__(
        self,
        network: Layer,
        learning_rate: float = 1e-3,
        epochs: int = 20,
        batch_size: int = 32,
        patience: Optional[int] = 5,
        seed: RandomState = None,
        dtype: Union[str, np.dtype, None] = None,
    ) -> None:
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.network = network
        self.epochs = epochs
        self.batch_size = batch_size
        self.patience = patience
        self._rng = default_rng(seed)
        self.dtype = None if dtype is None else np.dtype(dtype)
        if self.dtype is not None and self.dtype not in (
            np.dtype(np.float32),
            np.dtype(np.float64),
        ):
            raise ValueError("dtype must be float32, float64 or None")
        parameter_layers = collect_parameter_layers(network)
        if not parameter_layers:
            raise ValueError("the network has no trainable parameters")
        if self.dtype is not None:
            for layer in parameter_layers:
                for name, value in layer.params.items():
                    if value.dtype != self.dtype:
                        setattr(layer, name, value.astype(self.dtype))
        self.optimizer = Adam(parameter_layers, learning_rate=learning_rate)

    def _cast(self, inputs: Inputs) -> Inputs:
        if self.dtype is None:
            return inputs
        if isinstance(inputs, tuple):
            return tuple(np.asarray(view, dtype=self.dtype) for view in inputs)
        return np.asarray(inputs, dtype=self.dtype)

    def _snapshot_params(self) -> List[dict]:
        return [
            {name: value.copy() for name, value in layer.params.items()}
            for layer in self.optimizer.layers
        ]

    def _restore_params(self, snapshot: List[dict]) -> None:
        # In-place so every reference to the parameter arrays (layers,
        # optimizer moments' shapes, user aliases) stays valid.
        for layer, saved in zip(self.optimizer.layers, snapshot):
            for name, value in layer.params.items():
                value[...] = saved[name]

    def fit(
        self,
        inputs: Inputs,
        targets: np.ndarray,
        val_inputs: Optional[Inputs] = None,
        val_targets: Optional[np.ndarray] = None,
    ) -> TrainingHistory:
        """Train the network; returns the per-epoch history.

        With validation data, the returned network carries the weights of
        the best-validation epoch (``history.best_epoch``), not necessarily
        the last one.
        """
        history = TrainingHistory()
        num_samples = _num_samples(inputs)
        if num_samples == 0:
            raise ValueError("cannot train on zero samples")
        inputs = self._cast(inputs)
        targets = np.asarray(targets) if self.dtype is None else np.asarray(
            targets, dtype=self.dtype
        )
        if val_inputs is not None:
            val_inputs = self._cast(val_inputs)
        best_val = np.inf
        best_snapshot: Optional[List[dict]] = None
        epochs_without_improvement = 0
        for epoch in range(self.epochs):
            order = self._rng.permutation(num_samples)
            epoch_loss = 0.0
            for start in range(0, num_samples, self.batch_size):
                indices = order[start : start + self.batch_size]
                batch_inputs = _slice_inputs(inputs, indices)
                batch_targets = targets[indices]
                predictions = self.network.forward(batch_inputs, training=True)
                loss, grad = mse_loss(predictions, batch_targets)
                # The gradient w.r.t. the network input is never used.
                self.network.backward(grad, input_grad=False)
                self.optimizer.step()
                epoch_loss += loss * len(indices)
            history.train_loss.append(epoch_loss / num_samples)
            if val_inputs is not None and val_targets is not None:
                predictions = self.network.forward(val_inputs, training=False)
                val_mae = mae_metric(predictions, val_targets)
                history.val_mae.append(val_mae)
                if val_mae < best_val - 1e-9:
                    best_val = val_mae
                    history.best_epoch = epoch
                    best_snapshot = self._snapshot_params()
                    epochs_without_improvement = 0
                elif self.patience is not None:
                    epochs_without_improvement += 1
                    if epochs_without_improvement >= self.patience:
                        break
        if best_snapshot is not None and history.best_epoch != history.epochs_run - 1:
            self._restore_params(best_snapshot)
        self._release_buffers()
        return history

    def _release_buffers(self) -> None:
        """Drop every layer's work buffers and per-batch caches.

        An idle fitted model then holds its parameters and nothing
        batch-sized.
        """
        for layer in iter_layers(self.network):
            layer.release_buffers()

    def predict(self, inputs: Inputs, batch_size: Optional[int] = None) -> np.ndarray:
        """Run the network in inference mode, optionally in batches.

        Work buffers are reused across the batches of one call and released
        afterwards, so holding a fitted model does not pin
        inference-batch-sized arrays between calls.
        """
        inputs = self._cast(inputs)
        try:
            if batch_size is None:
                return self.network.forward(inputs, training=False)
            num_samples = _num_samples(inputs)
            outputs = []
            for start in range(0, num_samples, batch_size):
                indices = np.arange(start, min(start + batch_size, num_samples))
                outputs.append(
                    self.network.forward(_slice_inputs(inputs, indices), training=False)
                )
            return np.concatenate(outputs, axis=0)
        finally:
            self._release_buffers()
