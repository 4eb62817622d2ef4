"""The seed's convolution pipeline, kept as an explicit reference.

The production :class:`~repro.prediction.layers.Conv2D` unfolds through a
strided view into reusable buffers and back-propagates with a GEMM plus a
gather correlation.  The seed unfolded with per-kernel-offset Python loops,
reduced the weight gradient with an einsum and scattered the input gradient
back with a loop ``col2im``.  That code lives here, outside the package, as
``Conv2D`` subclasses that ``bench_prediction.py`` and the layer tests build
explicitly (no process-global switch):

* :class:`LoopUnfoldConv2D` -- the seed's loop unfold, production backward;
* :class:`SeedConv2D` -- the seed's whole pipeline.  Its backward always
  computes the input gradient, even when the caller asks for parameter
  gradients only, exactly as the seed did, so it stays the faithful
  baseline the production engine is timed against.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Optional, Type

import numpy as np

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.prediction.layers import Conv2D, Layer, iter_layers  # noqa: E402


def im2col_loops(inputs: np.ndarray, kernel: int, pad: int) -> np.ndarray:
    """The seed's loop unfold of (batch, channels, H, W) into columns.

    Returns the ``(batch, H*W, channels*kernel*kernel)`` view that the
    production ``_im2col`` reproduces bit-for-bit and layout-for-layout.
    """
    batch, channels, height, width = inputs.shape
    padded = np.pad(inputs, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")
    columns = np.empty((batch, channels, kernel, kernel, height, width), dtype=inputs.dtype)
    for dy in range(kernel):
        for dx in range(kernel):
            columns[:, :, dy, dx] = padded[:, :, dy : dy + height, dx : dx + width]
    return columns.transpose(0, 4, 5, 1, 2, 3).reshape(
        batch, height * width, channels * kernel * kernel
    )


def col2im_loops(columns: np.ndarray, input_shape: tuple, kernel: int, pad: int) -> np.ndarray:
    """The seed's loop scatter-add of columns back into an image (adjoint of the unfold)."""
    batch, channels, height, width = input_shape
    columns = columns.reshape(batch, height, width, channels, kernel, kernel).transpose(
        0, 3, 4, 5, 1, 2
    )
    padded = np.zeros((batch, channels, height + 2 * pad, width + 2 * pad), dtype=columns.dtype)
    for dy in range(kernel):
        for dx in range(kernel):
            padded[:, :, dy : dy + height, dx : dx + width] += columns[:, :, dy, dx]
    if pad == 0:
        return padded
    return padded[:, :, pad:-pad, pad:-pad]


class LoopUnfoldConv2D(Conv2D):
    """``Conv2D`` unfolding through the seed's loops (no buffer reuse)."""

    def _unfold(self, images: np.ndarray, role: str) -> np.ndarray:
        return im2col_loops(images, self.kernel, self.kernel // 2)


class SeedConv2D(LoopUnfoldConv2D):
    """``Conv2D`` running the seed's exact arithmetic, forward and backward."""

    def backward(self, grad_output: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        if self._columns is None or self._input_shape is None:
            raise RuntimeError("backward called before forward")
        batch, _, height, width = self._input_shape
        grad_flat = grad_output.transpose(0, 2, 3, 1).reshape(
            batch, height * width, self.out_channels
        )
        self._grad_bias = grad_flat.sum(axis=(0, 1))
        self._grad_weight = np.einsum("bpc,bpo->co", self._columns, grad_flat)
        # The seed computed the input gradient whether or not it was used.
        grad_columns = grad_flat @ self.weight.T
        return col2im_loops(grad_columns, self._input_shape, self.kernel, self.kernel // 2)


def with_conv_class(network: Layer, conv_class: Type[Conv2D]) -> Layer:
    """Switch every ``Conv2D`` of ``network`` to ``conv_class`` in place.

    The subclasses add no state, so a re-classed layer keeps its weights,
    buffers and pending columns; only the unfold/backward code changes.
    """
    for layer in iter_layers(network):
        if isinstance(layer, Conv2D):
            layer.__class__ = conv_class
    return network
