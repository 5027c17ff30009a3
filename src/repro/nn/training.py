"""Numpy SGD training for the CNN substrate.

The LeNet-5 quantisation study needs a *trained* network (quantisation
tolerance depends on decision margins, which random weights do not have), and
the original MNIST data is not available offline -- so the trainer here
learns the synthetic digit task of :mod:`repro.nn.datasets` from scratch.

The trainer performs its own forward pass with cached intermediates and
implements the backward pass per layer type (convolution via im2col / col2im,
max pooling via argmax masks, ReLU, fully-connected), updating the layer
weights in place with mini-batch SGD and momentum on a softmax cross-entropy
loss.  It is deliberately simple: small networks, small images, a few epochs
-- enough to reach high accuracy on the synthetic digits within seconds.

Both passes run whole mini-batches at once by default (``vectorized=True``):
batched im2col forward, col2im via ``np.add.at``, pooling backward via fancy
indexing.  The original per-sample loops are kept as the reference path
(``vectorized=False``); the two agree to float rounding (gradients are summed
across the batch in a different order).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..artifact_hook import resolve as resolve_artifact
from .datasets import Dataset, synthetic_digits
from .layers import Conv2D, Flatten, FullyConnected, Layer, MaxPool2D, ReLU
from .models import lenet5
from .network import Network


@dataclass
class TrainingHistory:
    """Loss / accuracy trace of a training run."""

    epoch_losses: list[float] = field(default_factory=list)
    epoch_accuracies: list[float] = field(default_factory=list)

    @property
    def final_accuracy(self) -> float:
        """Accuracy after the last epoch (0 if never evaluated)."""
        return self.epoch_accuracies[-1] if self.epoch_accuracies else 0.0


@dataclass
class TrainedLeNet:
    """A trained LeNet-5 plus its training trace -- one picklable artifact.

    The network's weights are plain numpy arrays, so a pickle round trip
    through the artifact store reproduces them bit-exactly; downstream
    precision searches on a replayed network match the live-trained one
    byte for byte.
    """

    network: Network
    history: TrainingHistory


#: fig6's training hyper-parameters; part of the producer, not the artifact
#: key, because the experiment never varies them.
LENET_LEARNING_RATE = 0.1
LENET_BATCH_SIZE = 25


def lenet_state_artifact(
    *, train_samples: int, test_samples: int, image_size: int, epochs: int, seed: int
) -> TrainedLeNet:
    """Artifact producer: LeNet-5 trained from scratch on the synthetic digits.

    This is the dominant shared intermediate of a cold ``run all`` (fig6's
    precision search consumes it); the artifact key embeds this module's
    import-closure fingerprint, so editing the trainer or the CNN substrate
    invalidates the weights while multiplier-side edits never do.
    """
    dataset = synthetic_digits(
        train_samples=train_samples, test_samples=test_samples, size=image_size, seed=seed
    )
    network = lenet5(input_size=image_size, seed=seed)
    trainer = Trainer(network, learning_rate=LENET_LEARNING_RATE)
    history = trainer.fit(dataset, epochs=epochs, batch_size=LENET_BATCH_SIZE, seed=seed)
    return TrainedLeNet(network=network, history=history)


def resolve_trained_lenet(
    *, train_samples: int, test_samples: int, image_size: int, epochs: int, seed: int
) -> TrainedLeNet:
    """Load-or-train the fig6 LeNet through the active artifact store."""
    return resolve_artifact(
        "lenet_state",
        {
            "train_samples": train_samples,
            "test_samples": test_samples,
            "image_size": image_size,
            "epochs": epochs,
            "seed": seed,
        },
        producer=lenet_state_artifact,
    )


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with the usual max-shift for numerical stability."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exponentials = np.exp(shifted)
    return exponentials / exponentials.sum(axis=-1, keepdims=True)


def cross_entropy_loss(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy loss and its gradient w.r.t. the logits."""
    probabilities = softmax(logits)
    count = logits.shape[0]
    clipped = np.clip(probabilities[np.arange(count), labels], 1e-12, None)
    loss = float(-np.mean(np.log(clipped)))
    gradient = probabilities.copy()
    gradient[np.arange(count), labels] -= 1.0
    return loss, gradient / count


class Trainer:
    """Mini-batch SGD trainer for :class:`~repro.nn.network.Network`.

    Parameters
    ----------
    network:
        Network to train (weights are updated in place).
    learning_rate:
        SGD step size.
    momentum:
        Classical momentum coefficient.
    vectorized:
        Process whole mini-batches per numpy call (the default); ``False``
        selects the original per-sample reference loops.
    """

    def __init__(
        self,
        network: Network,
        *,
        learning_rate: float = 0.05,
        momentum: float = 0.9,
        vectorized: bool = True,
    ):
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.network = network
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.vectorized = vectorized
        self._velocity: dict[int, dict[str, np.ndarray]] = {}

    # -- forward with caches ---------------------------------------------------

    def _forward_sample(self, sample: np.ndarray) -> tuple[np.ndarray, list[dict]]:
        caches: list[dict] = []
        tensor = np.asarray(sample, dtype=np.float64)
        for layer in self.network.layers:
            cache: dict = {"input": tensor, "layer": layer}
            if isinstance(layer, Conv2D):
                tensor, cache["columns"], cache["padded_shape"] = _conv_forward(layer, tensor)
            elif isinstance(layer, ReLU):
                tensor = np.maximum(tensor, 0.0)
                cache["mask"] = tensor > 0.0
            elif isinstance(layer, MaxPool2D):
                tensor, cache["argmax"] = _pool_forward(layer, tensor)
            elif isinstance(layer, Flatten):
                cache["shape"] = tensor.shape
                tensor = tensor.reshape(-1)
            elif isinstance(layer, FullyConnected):
                tensor = layer.weights @ tensor + layer.bias
            else:
                raise TypeError(f"trainer does not support layer type {type(layer).__name__}")
            caches.append(cache)
        return tensor, caches

    def _forward_batch(self, samples: np.ndarray) -> tuple[np.ndarray, list[dict]]:
        """Whole-batch forward pass with one cache per *layer* (not sample)."""
        caches: list[dict] = []
        tensors = np.asarray(samples, dtype=np.float64)
        for layer in self.network.layers:
            cache: dict = {"input": tensors, "layer": layer}
            if isinstance(layer, Conv2D):
                tensors, cache["columns"], cache["padded_shape"] = _conv_forward_batch(
                    layer, tensors
                )
            elif isinstance(layer, ReLU):
                tensors = np.maximum(tensors, 0.0)
                cache["mask"] = tensors > 0.0
            elif isinstance(layer, MaxPool2D):
                tensors, cache["argmax"] = _pool_forward_batch(layer, tensors)
            elif isinstance(layer, Flatten):
                cache["shape"] = tensors.shape
                tensors = tensors.reshape(tensors.shape[0], -1)
            elif isinstance(layer, FullyConnected):
                tensors = tensors @ layer.weights.T + layer.bias
            else:
                raise TypeError(f"trainer does not support layer type {type(layer).__name__}")
            caches.append(cache)
        return tensors, caches

    # -- backward ----------------------------------------------------------------

    def _backward_sample(
        self,
        gradient: np.ndarray,
        caches: list[dict],
        gradients: dict[int, dict[str, np.ndarray]],
    ) -> None:
        for cache in reversed(caches):
            layer: Layer = cache["layer"]
            if isinstance(layer, FullyConnected):
                entry = gradients.setdefault(
                    id(layer),
                    {"weights": np.zeros_like(layer.weights), "bias": np.zeros_like(layer.bias)},
                )
                entry["weights"] += np.outer(gradient, cache["input"])
                entry["bias"] += gradient
                gradient = layer.weights.T @ gradient
            elif isinstance(layer, Flatten):
                gradient = gradient.reshape(cache["shape"])
            elif isinstance(layer, ReLU):
                gradient = gradient * cache["mask"]
            elif isinstance(layer, MaxPool2D):
                gradient = _pool_backward(layer, gradient, cache)
            elif isinstance(layer, Conv2D):
                entry = gradients.setdefault(
                    id(layer),
                    {"weights": np.zeros_like(layer.weights), "bias": np.zeros_like(layer.bias)},
                )
                gradient = _conv_backward(layer, gradient, cache, entry)
            else:  # pragma: no cover - forward already rejects unknown layers
                raise TypeError(f"trainer does not support layer type {type(layer).__name__}")

    def _backward_batch(
        self,
        gradient: np.ndarray,
        caches: list[dict],
        gradients: dict[int, dict[str, np.ndarray]],
    ) -> None:
        """Whole-batch backward pass; sums parameter gradients over the batch."""
        for cache in reversed(caches):
            layer: Layer = cache["layer"]
            if isinstance(layer, FullyConnected):
                entry = gradients.setdefault(
                    id(layer),
                    {"weights": np.zeros_like(layer.weights), "bias": np.zeros_like(layer.bias)},
                )
                entry["weights"] += gradient.T @ cache["input"]
                entry["bias"] += gradient.sum(axis=0)
                gradient = gradient @ layer.weights
            elif isinstance(layer, Flatten):
                gradient = gradient.reshape(cache["shape"])
            elif isinstance(layer, ReLU):
                gradient = gradient * cache["mask"]
            elif isinstance(layer, MaxPool2D):
                gradient = _pool_backward_batch(layer, gradient, cache)
            elif isinstance(layer, Conv2D):
                entry = gradients.setdefault(
                    id(layer),
                    {"weights": np.zeros_like(layer.weights), "bias": np.zeros_like(layer.bias)},
                )
                gradient = _conv_backward_batch(layer, gradient, cache, entry)
            else:  # pragma: no cover - forward already rejects unknown layers
                raise TypeError(f"trainer does not support layer type {type(layer).__name__}")

    # -- optimisation -------------------------------------------------------------

    def _apply_gradients(self, gradients: dict[int, dict[str, np.ndarray]], batch_size: int) -> None:
        for layer in self.network.weighted_layers():
            entry = gradients.get(id(layer))
            if entry is None:
                continue
            velocity = self._velocity.setdefault(
                id(layer),
                {"weights": np.zeros_like(layer.weights), "bias": np.zeros_like(layer.bias)},
            )
            for key, parameter in (("weights", layer.weights), ("bias", layer.bias)):
                gradient = entry[key] / batch_size
                velocity[key] = self.momentum * velocity[key] - self.learning_rate * gradient
                parameter += velocity[key]

    def train_epoch(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        *,
        batch_size: int = 32,
        rng: np.random.Generator | None = None,
    ) -> float:
        """One epoch of mini-batch SGD; returns the mean loss."""
        if images.shape[0] != labels.shape[0]:
            raise ValueError("images and labels must have the same length")
        rng = rng or np.random.default_rng(0)
        order = rng.permutation(images.shape[0])
        losses = []
        for start in range(0, len(order), batch_size):
            batch = order[start : start + batch_size]
            gradients: dict[int, dict[str, np.ndarray]] = {}
            if self.vectorized:
                logits, caches = self._forward_batch(images[batch])
                loss, logit_gradients = cross_entropy_loss(logits, labels[batch])
                self._backward_batch(logit_gradients, caches, gradients)
            else:
                logits = []
                caches_per_sample = []
                for index in batch:
                    logit, caches = self._forward_sample(images[index])
                    logits.append(logit)
                    caches_per_sample.append(caches)
                logits = np.stack(logits)
                loss, logit_gradients = cross_entropy_loss(logits, labels[batch])
                for sample_gradient, caches in zip(logit_gradients, caches_per_sample):
                    self._backward_sample(sample_gradient, caches, gradients)
            losses.append(loss)
            self._apply_gradients(gradients, batch_size=len(batch))
        return float(np.mean(losses))

    def evaluate(self, images: np.ndarray, labels: np.ndarray) -> float:
        """Top-1 accuracy of the current weights."""
        predictions = self.network.predict(images)
        return float(np.mean(predictions == labels))

    def fit(self, dataset: Dataset, *, epochs: int = 3, batch_size: int = 32, seed: int = 0) -> TrainingHistory:
        """Train for ``epochs`` epochs and track test accuracy per epoch."""
        if epochs < 1:
            raise ValueError("epochs must be at least 1")
        history = TrainingHistory()
        rng = np.random.default_rng(seed)
        for _ in range(epochs):
            loss = self.train_epoch(
                dataset.train_images, dataset.train_labels, batch_size=batch_size, rng=rng
            )
            accuracy = self.evaluate(dataset.test_images, dataset.test_labels)
            history.epoch_losses.append(loss)
            history.epoch_accuracies.append(accuracy)
        return history


# -- layer-specific forward/backward helpers --------------------------------------


def _conv_forward(layer: Conv2D, tensor: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    if layer.groups != 1:
        raise TypeError("the trainer supports only ungrouped convolutions")
    out_channels, out_h, out_w = layer.output_shape(tensor.shape)
    if layer.padding:
        padded = np.pad(tensor, ((0, 0), (layer.padding, layer.padding), (layer.padding, layer.padding)))
    else:
        padded = tensor
    columns = layer._im2col(padded, out_h, out_w)
    kernel_matrix = layer.weights.reshape(out_channels, -1)
    result = columns @ kernel_matrix.T + layer.bias
    output = result.T.reshape(out_channels, out_h, out_w)
    return output, columns, padded.shape


def _conv_backward(
    layer: Conv2D, gradient: np.ndarray, cache: dict, entry: dict[str, np.ndarray]
) -> np.ndarray:
    out_channels, out_h, out_w = gradient.shape
    gradient_matrix = gradient.reshape(out_channels, -1).T  # (positions, out_channels)
    columns = cache["columns"]
    entry["weights"] += (gradient_matrix.T @ columns).reshape(layer.weights.shape)
    entry["bias"] += gradient.sum(axis=(1, 2))

    kernel_matrix = layer.weights.reshape(out_channels, -1)
    column_gradients = gradient_matrix @ kernel_matrix  # (positions, C*k*k)
    padded_shape = cache["padded_shape"]
    padded_gradient = np.zeros(padded_shape)
    k = layer.kernel_size
    index = 0
    for row in range(out_h):
        top = row * layer.stride
        for col in range(out_w):
            left = col * layer.stride
            patch = column_gradients[index].reshape(layer.in_channels, k, k)
            padded_gradient[:, top : top + k, left : left + k] += patch
            index += 1
    if layer.padding:
        return padded_gradient[:, layer.padding : -layer.padding, layer.padding : -layer.padding]
    return padded_gradient


def _pool_forward(layer: MaxPool2D, tensor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    channels, height, width = tensor.shape
    size = layer.size
    out_h, out_w = height // size, width // size
    trimmed = tensor[:, : out_h * size, : out_w * size]
    windows = trimmed.reshape(channels, out_h, size, out_w, size).transpose(0, 1, 3, 2, 4)
    flat = windows.reshape(channels, out_h, out_w, size * size)
    argmax = flat.argmax(axis=-1)
    output = flat.max(axis=-1)
    return output, argmax


def _pool_backward(layer: MaxPool2D, gradient: np.ndarray, cache: dict) -> np.ndarray:
    tensor = cache["input"]
    argmax = cache["argmax"]
    channels, height, width = tensor.shape
    size = layer.size
    out_h, out_w = height // size, width // size
    result = np.zeros_like(tensor)
    for channel in range(channels):
        for row in range(out_h):
            for col in range(out_w):
                winner = argmax[channel, row, col]
                win_row, win_col = divmod(int(winner), size)
                result[channel, row * size + win_row, col * size + win_col] += gradient[channel, row, col]
    return result


# -- batched layer helpers ---------------------------------------------------------


def _conv_forward_batch(
    layer: Conv2D, tensors: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Batched im2col forward: one strided-view extraction and one matmul."""
    if layer.groups != 1:
        raise TypeError("the trainer supports only ungrouped convolutions")
    batch = tensors.shape[0]
    out_channels, out_h, out_w = layer.output_shape(tensors.shape[1:])
    if layer.padding:
        pad = layer.padding
        padded = np.pad(tensors, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    else:
        padded = tensors
    k = layer.kernel_size
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(2, 3))
    windows = windows[:, :, :: layer.stride, :: layer.stride][:, :, :out_h, :out_w]
    # (batch, C, out_h, out_w, k, k) -> (batch, positions, C*k*k), the same
    # position-major / channel-major column layout as the per-sample _im2col.
    columns = windows.transpose(0, 2, 3, 1, 4, 5).reshape(batch, out_h * out_w, -1)
    kernel_matrix = layer.weights.reshape(out_channels, -1)
    result = columns @ kernel_matrix.T + layer.bias  # (batch, positions, filters)
    output = result.transpose(0, 2, 1).reshape(batch, out_channels, out_h, out_w)
    return output, columns, padded.shape


def _conv_backward_batch(
    layer: Conv2D, gradient: np.ndarray, cache: dict, entry: dict[str, np.ndarray]
) -> np.ndarray:
    """Batched col2im backward: the per-position Python loop becomes one
    ``np.add.at`` scatter (overlapping patches of strided convolutions need
    the unbuffered accumulation)."""
    batch, out_channels, out_h, out_w = gradient.shape
    gradient_matrix = gradient.reshape(batch, out_channels, -1).transpose(0, 2, 1)
    columns = cache["columns"]  # (batch, positions, C*k*k)
    entry["weights"] += np.tensordot(
        gradient_matrix, columns, axes=([0, 1], [0, 1])
    ).reshape(layer.weights.shape)
    entry["bias"] += gradient.sum(axis=(0, 2, 3))

    kernel_matrix = layer.weights.reshape(out_channels, -1)
    column_gradients = gradient_matrix @ kernel_matrix  # (batch, positions, C*k*k)
    k = layer.kernel_size
    patches = column_gradients.reshape(batch, out_h, out_w, layer.in_channels, k, k)
    samples = np.arange(batch)[:, None, None, None, None, None]
    channels = np.arange(layer.in_channels)[None, None, None, :, None, None]
    rows = (
        (np.arange(out_h) * layer.stride)[None, :, None, None, None, None]
        + np.arange(k)[None, None, None, None, :, None]
    )
    cols = (
        (np.arange(out_w) * layer.stride)[None, None, :, None, None, None]
        + np.arange(k)[None, None, None, None, None, :]
    )
    # col2im scatter as a weighted bincount: both it and ``np.add.at``
    # accumulate contributions sequentially in C-order onto a zero base, so
    # per-cell sums are bit-identical -- bincount just runs an order of
    # magnitude faster than the unbuffered ufunc scatter.
    padded_shape = cache["padded_shape"]
    _, _, padded_h, padded_w = padded_shape
    flat_targets = (
        ((samples * layer.in_channels + channels) * padded_h + rows) * padded_w + cols
    )
    padded_gradient = np.bincount(
        flat_targets.ravel(),
        weights=np.ascontiguousarray(patches).ravel(),
        minlength=batch * layer.in_channels * padded_h * padded_w,
    ).reshape(padded_shape)
    if layer.padding:
        return padded_gradient[
            :, :, layer.padding : -layer.padding, layer.padding : -layer.padding
        ]
    return padded_gradient


def _pool_forward_batch(layer: MaxPool2D, tensors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    batch, channels, height, width = tensors.shape
    size = layer.size
    out_h, out_w = height // size, width // size
    trimmed = tensors[:, :, : out_h * size, : out_w * size]
    windows = trimmed.reshape(batch, channels, out_h, size, out_w, size).transpose(
        0, 1, 2, 4, 3, 5
    )
    flat = windows.reshape(batch, channels, out_h, out_w, size * size)
    argmax = flat.argmax(axis=-1)
    output = flat.max(axis=-1)
    return output, argmax


def _pool_backward_batch(layer: MaxPool2D, gradient: np.ndarray, cache: dict) -> np.ndarray:
    """Scatter each window's gradient to its argmax cell via fancy indexing
    (windows are disjoint, so every target cell is written at most once)."""
    argmax = cache["argmax"]
    size = layer.size
    result = np.zeros_like(cache["input"])
    samples, channels, rows, cols = np.indices(argmax.shape, sparse=True)
    result[samples, channels, rows * size + argmax // size, cols * size + argmax % size] = gradient
    return result
