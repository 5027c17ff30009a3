"""Sequential CNN container with per-layer quantisation control.

A :class:`Network` is an ordered list of layers.  The forward pass accepts an
optional mapping from layer name to
:class:`~repro.nn.quantization.QuantizationConfig`, which is how the
per-layer precision profiles of Fig. 6 and Table III are expressed: the
accelerator reconfigures its DVAFS mode per layer, and the network model
quantises each layer accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import Conv2D, FullyConnected, Layer
from .quantization import QuantizationConfig


@dataclass(frozen=True)
class LayerSummary:
    """Static workload description of one layer (feeds the hardware models)."""

    name: str
    kind: str
    input_shape: tuple[int, ...]
    output_shape: tuple[int, ...]
    macs: int
    weight_sparsity: float

    @property
    def mmacs(self) -> float:
        """MACs in millions (the unit of Table III)."""
        return self.macs / 1e6


class Network:
    """A sequential neural network.

    Parameters
    ----------
    layers:
        Layers in execution order; weighted layers (conv / fully-connected)
        must have unique names because quantisation configs are keyed by
        name.
    input_shape:
        Shape of one input sample, e.g. ``(1, 28, 28)``.
    name:
        Network name used in reports.
    """

    def __init__(self, layers: list[Layer], input_shape: tuple[int, ...], *, name: str = "network"):
        if not layers:
            raise ValueError("a network needs at least one layer")
        self.layers = list(layers)
        self.input_shape = tuple(input_shape)
        self.name = name
        weighted_names = [layer.name for layer in self.weighted_layers()]
        if len(set(weighted_names)) != len(weighted_names):
            raise ValueError("weighted layer names must be unique")
        # Validate shape propagation eagerly so topology errors surface early.
        self.output_shape = self._propagate_shapes()

    def _propagate_shapes(self) -> tuple[int, ...]:
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.output_shape(shape)
        return shape

    # -- introspection --------------------------------------------------------

    def weighted_layers(self) -> list[Layer]:
        """Layers with learned parameters (conv and fully-connected)."""
        return [layer for layer in self.layers if isinstance(layer, (Conv2D, FullyConnected))]

    def layer_summaries(self) -> list[LayerSummary]:
        """Per-layer workload summaries for the weighted layers."""
        summaries = []
        shape = self.input_shape
        for layer in self.layers:
            output_shape = layer.output_shape(shape)
            if isinstance(layer, (Conv2D, FullyConnected)):
                summaries.append(
                    LayerSummary(
                        name=layer.name,
                        kind=type(layer).__name__,
                        input_shape=shape,
                        output_shape=output_shape,
                        macs=layer.macs(shape),
                        weight_sparsity=layer.weight_sparsity(),
                    )
                )
            shape = output_shape
        return summaries

    def total_macs(self) -> int:
        """Total MAC count of one forward pass."""
        return sum(summary.macs for summary in self.layer_summaries())

    # -- inference ------------------------------------------------------------

    def forward(
        self,
        sample: np.ndarray,
        *,
        configs: dict[str, QuantizationConfig] | None = None,
    ) -> np.ndarray:
        """Run one sample through the network.

        ``configs`` maps weighted-layer names to their quantisation settings;
        unlisted layers run in floating point.
        """
        configs = configs or {}
        tensor = np.asarray(sample, dtype=np.float64)
        if tensor.shape != self.input_shape:
            raise ValueError(
                f"expected input shape {self.input_shape}, got {tensor.shape}"
            )
        for layer in self.layers:
            config = configs.get(layer.name)
            tensor = layer.forward(tensor, config)
        return tensor

    def forward_batch(
        self,
        samples: np.ndarray,
        *,
        configs: dict[str, QuantizationConfig] | None = None,
        batch: bool = True,
    ) -> np.ndarray:
        """Run a batch ``(n, *input_shape)``; returns stacked outputs.

        With ``batch=True`` (the default) every layer processes the whole
        batch in one vectorised call; ``batch=False`` falls back to stacking
        per-sample forward passes (the reference path).
        """
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != len(self.input_shape) + 1:
            raise ValueError("expected a batch with one leading sample dimension")
        if samples.shape[1:] != self.input_shape:
            raise ValueError(
                f"expected input shape {self.input_shape}, got {samples.shape[1:]}"
            )
        if not batch:
            return np.stack([self.forward(sample, configs=configs) for sample in samples])
        configs = configs or {}
        tensors = samples
        for layer in self.layers:
            tensors = layer.forward_batch(tensors, configs.get(layer.name))
        return tensors

    def predict(
        self,
        samples: np.ndarray,
        *,
        configs: dict[str, QuantizationConfig] | None = None,
    ) -> np.ndarray:
        """Arg-max class predictions for a batch of samples."""
        outputs = self.forward_batch(samples, configs=configs)
        if outputs.ndim != 2:
            raise ValueError("predict requires a network with a flat class output")
        return np.argmax(outputs, axis=1)
