"""CNN layers with fixed-point-aware forward passes and workload statistics.

The layers implement equation (4) of the paper (convolution), the ReLU
non-linearity, max pooling and the fully-connected classifier, all in numpy.
Every layer can run in floating point or with its weights/activations
quantised to arbitrary bit widths, and reports the statistics the hardware
models need: MAC counts, parameter counts, weight sparsity and the sparsity
of the activations that flowed through it.

Data layout is ``(channels, height, width)`` for feature maps and
``(filters, channels, k, k)`` for convolution weights; batches add a leading
dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantization import QuantizationConfig, quantize, quantize_per_sample


@dataclass
class LayerStatistics:
    """Workload statistics gathered during forward passes."""

    activations_seen: int = 0
    zero_activations: int = 0

    @property
    def input_sparsity(self) -> float:
        """Fraction of zero input activations observed so far."""
        if self.activations_seen == 0:
            return 0.0
        return self.zero_activations / self.activations_seen

    def observe(self, tensor: np.ndarray) -> None:
        """Record sparsity statistics of an input tensor."""
        self.activations_seen += tensor.size
        self.zero_activations += int(np.count_nonzero(tensor == 0))


class Layer:
    """Base class of all layers."""

    name: str = "layer"

    def forward(self, inputs: np.ndarray, config: QuantizationConfig | None = None) -> np.ndarray:
        """Run the layer on a single sample (no batch dimension)."""
        raise NotImplementedError

    def forward_batch(
        self, inputs: np.ndarray, config: QuantizationConfig | None = None
    ) -> np.ndarray:
        """Run the layer on a batch ``(n, *sample_shape)`` of samples.

        Layers override this with a fully vectorised implementation; the
        default falls back to stacking per-sample forward passes.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        return np.stack([self.forward(sample, config) for sample in inputs])

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Shape of the layer output for a given input shape."""
        raise NotImplementedError

    def macs(self, input_shape: tuple[int, ...]) -> int:
        """Multiply-accumulate operations per sample."""
        return 0

    def weight_sparsity(self) -> float:
        """Fraction of zero-valued weights."""
        return 0.0


class Conv2D(Layer):
    """2-D convolution layer (equation (4) of the paper).

    Parameters
    ----------
    in_channels, out_channels:
        Feature-map counts C and F.
    kernel_size:
        Filter size K (square filters).
    stride:
        Stride S.
    padding:
        Symmetric zero padding added to height and width.
    name:
        Layer name used in reports (e.g. ``"conv1"``).
    rng:
        Random generator for weight initialisation.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        *,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        name: str = "conv",
        rng: np.random.Generator | None = None,
    ):
        if min(in_channels, out_channels, kernel_size, stride, groups) < 1:
            raise ValueError("conv dimensions must be positive")
        if padding < 0:
            raise ValueError("padding must be non-negative")
        if in_channels % groups or out_channels % groups:
            raise ValueError("groups must divide both channel counts")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        self.name = name
        rng = rng or np.random.default_rng(0)
        fan_in = (in_channels // groups) * kernel_size * kernel_size
        self.weights = rng.normal(
            0.0,
            np.sqrt(2.0 / fan_in),
            size=(out_channels, in_channels // groups, kernel_size, kernel_size),
        )
        self.bias = np.zeros(out_channels)
        self.statistics = LayerStatistics()

    # -- structure -----------------------------------------------------------

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        channels, height, width = input_shape
        if channels != self.in_channels:
            raise ValueError(
                f"{self.name}: expected {self.in_channels} input channels, got {channels}"
            )
        out_h = (height + 2 * self.padding - self.kernel_size) // self.stride + 1
        out_w = (width + 2 * self.padding - self.kernel_size) // self.stride + 1
        if out_h < 1 or out_w < 1:
            raise ValueError(f"{self.name}: input {input_shape} too small for the kernel")
        return (self.out_channels, out_h, out_w)

    def macs(self, input_shape: tuple[int, ...]) -> int:
        _, out_h, out_w = self.output_shape(input_shape)
        return (
            self.out_channels
            * out_h
            * out_w
            * (self.in_channels // self.groups)
            * self.kernel_size
            * self.kernel_size
        )

    def weight_sparsity(self) -> float:
        return float(np.count_nonzero(self.weights == 0) / self.weights.size)

    # -- behaviour ------------------------------------------------------------

    def _im2col(self, padded: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
        channels = padded.shape[0]
        k = self.kernel_size
        columns = np.empty((out_h * out_w, channels * k * k))
        index = 0
        for row in range(out_h):
            top = row * self.stride
            for col in range(out_w):
                left = col * self.stride
                patch = padded[:, top : top + k, left : left + k]
                columns[index] = patch.reshape(-1)
                index += 1
        return columns

    def forward(self, inputs: np.ndarray, config: QuantizationConfig | None = None) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 3:
            raise ValueError(f"{self.name}: expected a (C, H, W) tensor")
        config = config or QuantizationConfig()
        self.statistics.observe(inputs)

        activations = quantize(inputs, config.activation_bits)
        weights = quantize(self.weights, config.weight_bits)

        out_channels, out_h, out_w = self.output_shape(inputs.shape)
        if self.padding:
            padded = np.pad(
                activations,
                ((0, 0), (self.padding, self.padding), (self.padding, self.padding)),
            )
        else:
            padded = activations

        group_in = self.in_channels // self.groups
        group_out = self.out_channels // self.groups
        output = np.empty((out_channels, out_h, out_w))
        for group in range(self.groups):
            channels = padded[group * group_in : (group + 1) * group_in]
            columns = self._im2col(channels, out_h, out_w)
            kernel_matrix = weights[group * group_out : (group + 1) * group_out].reshape(
                group_out, -1
            )
            result = columns @ kernel_matrix.T + self.bias[group * group_out : (group + 1) * group_out]
            output[group * group_out : (group + 1) * group_out] = result.T.reshape(
                group_out, out_h, out_w
            )
        return output

    def forward_batch(
        self,
        inputs: np.ndarray,
        config: QuantizationConfig | None = None,
        *,
        weights: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorised convolution of a ``(n, C, H, W)`` batch.

        All window extraction happens through a strided view and every
        (sample, output position, filter) product is computed in one
        tensor contraction per group, which is how the batch datapath keeps
        the figure/table reproductions off the per-sample Python loop.
        ``weights``, when given, stands in for the layer's own weights for
        this call only (the precision search passes pre-quantised weights
        this way, so the layer is never mutated).
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 4:
            raise ValueError(f"{self.name}: expected a (n, C, H, W) batch")
        config = config or QuantizationConfig()
        self.statistics.observe(inputs)

        activations = quantize_per_sample(inputs, config.activation_bits)
        weights = quantize(self.weights if weights is None else weights, config.weight_bits)

        out_channels, out_h, out_w = self.output_shape(inputs.shape[1:])
        if self.padding:
            pad = self.padding
            padded = np.pad(activations, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        else:
            padded = activations

        k = self.kernel_size
        windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(2, 3))
        windows = windows[:, :, :: self.stride, :: self.stride][:, :, :out_h, :out_w]

        group_in = self.in_channels // self.groups
        group_out = self.out_channels // self.groups
        output = np.empty((inputs.shape[0], out_channels, out_h, out_w))
        for group in range(self.groups):
            group_windows = windows[:, group * group_in : (group + 1) * group_in]
            group_weights = weights[group * group_out : (group + 1) * group_out]
            result = np.einsum(
                "ncxykl,fckl->nfxy", group_windows, group_weights, optimize=True
            )
            output[:, group * group_out : (group + 1) * group_out] = (
                result + self.bias[group * group_out : (group + 1) * group_out][:, None, None]
            )
        return output


class ReLU(Layer):
    """Rectified linear unit, ``f(u) = max(0, u)``."""

    def __init__(self, name: str = "relu"):
        self.name = name
        self.statistics = LayerStatistics()

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape

    def forward(self, inputs: np.ndarray, config: QuantizationConfig | None = None) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        self.statistics.observe(inputs)
        return np.maximum(inputs, 0.0)

    def forward_batch(
        self, inputs: np.ndarray, config: QuantizationConfig | None = None
    ) -> np.ndarray:
        return self.forward(inputs, config)


class MaxPool2D(Layer):
    """Max pooling over non-overlapping ``size x size`` windows."""

    def __init__(self, size: int = 2, *, name: str = "pool"):
        if size < 1:
            raise ValueError("pool size must be positive")
        self.size = size
        self.name = name
        self.statistics = LayerStatistics()

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        channels, height, width = input_shape
        return (channels, height // self.size, width // self.size)

    def forward(self, inputs: np.ndarray, config: QuantizationConfig | None = None) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 3:
            raise ValueError(f"{self.name}: expected a (C, H, W) tensor")
        self.statistics.observe(inputs)
        channels, height, width = inputs.shape
        out_h, out_w = height // self.size, width // self.size
        trimmed = inputs[:, : out_h * self.size, : out_w * self.size]
        reshaped = trimmed.reshape(channels, out_h, self.size, out_w, self.size)
        return reshaped.max(axis=(2, 4))

    def forward_batch(
        self, inputs: np.ndarray, config: QuantizationConfig | None = None
    ) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 4:
            raise ValueError(f"{self.name}: expected a (n, C, H, W) batch")
        self.statistics.observe(inputs)
        return window_max(inputs, self.size)[0]


def window_max(inputs: np.ndarray, size: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Max over the non-overlapping ``size x size`` windows of a (n, C, H, W) batch.

    Returns the max and the ``size * size`` strided views it was taken over:
    view ``i * size + j`` holds row ``i``, column ``j`` of every window (the
    row-major order of a flattened window), with H and W trimmed to multiples
    of ``size``.  Folding the views with ``np.maximum`` in that order gives
    the same bits as the reshape-and-reduce ``max(axis=(3, 5))``, NaNs
    included, in whole-array passes instead of a reduction over short strided
    axes (one of numpy's slowest patterns).  The one value the order can
    change is the sign of a zero max in a window of mixed-sign zeros: the
    fold keeps ``np.maximum``'s pick, while the reduction's order depends on
    numpy's loop layout; at size 2, every model's pool size, the two agree.
    """
    out_h, out_w = inputs.shape[2] // size, inputs.shape[3] // size
    windows = [
        inputs[:, :, row : out_h * size : size, col : out_w * size : size]
        for row in range(size)
        for col in range(size)
    ]
    output = windows[0].copy()
    for window in windows[1:]:
        np.maximum(output, window, out=output)
    return output, windows


class Flatten(Layer):
    """Flatten a feature map into a vector for the fully-connected stage."""

    def __init__(self, name: str = "flatten"):
        self.name = name

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        size = 1
        for dimension in input_shape:
            size *= dimension
        return (size,)

    def forward(self, inputs: np.ndarray, config: QuantizationConfig | None = None) -> np.ndarray:
        return np.asarray(inputs, dtype=np.float64).reshape(-1)

    def forward_batch(
        self, inputs: np.ndarray, config: QuantizationConfig | None = None
    ) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        features = int(np.prod(inputs.shape[1:], dtype=np.int64))
        return inputs.reshape(inputs.shape[0], features)


class FullyConnected(Layer):
    """Fully-connected (dense) layer, the classifier stage of the CNN."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        name: str = "fc",
        rng: np.random.Generator | None = None,
    ):
        if min(in_features, out_features) < 1:
            raise ValueError("feature counts must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.name = name
        rng = rng or np.random.default_rng(0)
        self.weights = rng.normal(0.0, np.sqrt(2.0 / in_features), size=(out_features, in_features))
        self.bias = np.zeros(out_features)
        self.statistics = LayerStatistics()

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        (features,) = input_shape
        if features != self.in_features:
            raise ValueError(
                f"{self.name}: expected {self.in_features} inputs, got {features}"
            )
        return (self.out_features,)

    def macs(self, input_shape: tuple[int, ...]) -> int:
        return self.in_features * self.out_features

    def weight_sparsity(self) -> float:
        return float(np.count_nonzero(self.weights == 0) / self.weights.size)

    def forward(self, inputs: np.ndarray, config: QuantizationConfig | None = None) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 1:
            raise ValueError(f"{self.name}: expected a flat vector")
        config = config or QuantizationConfig()
        self.statistics.observe(inputs)
        activations = quantize(inputs, config.activation_bits)
        weights = quantize(self.weights, config.weight_bits)
        return weights @ activations + self.bias

    def forward_batch(
        self,
        inputs: np.ndarray,
        config: QuantizationConfig | None = None,
        *,
        weights: np.ndarray | None = None,
    ) -> np.ndarray:
        """Dense layer on a ``(n, features)`` batch.

        ``weights``, when given, stands in for the layer's own weights for
        this call only, as in :meth:`Conv2D.forward_batch`.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 2:
            raise ValueError(f"{self.name}: expected a (n, features) batch")
        if inputs.shape[1] != self.in_features:
            raise ValueError(
                f"{self.name}: expected {self.in_features} inputs, got {inputs.shape[1]}"
            )
        config = config or QuantizationConfig()
        self.statistics.observe(inputs)
        activations = quantize_per_sample(inputs, config.activation_bits)
        weights = quantize(self.weights if weights is None else weights, config.weight_bits)
        return activations @ weights.T + self.bias
