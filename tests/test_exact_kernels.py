"""Byte-equality of the strided max-pooling kernels and the trimmed backward pass.

``MaxPool2D.forward_batch`` and the trainer's ``_pool_forward_batch`` fold
``size * size`` strided window views with ``np.maximum`` instead of reducing
a reshaped tensor, and ``Trainer._backward_batch`` stops at the lowest
weighted layer.  The reshape-and-reduce formulations they replaced are kept
here as references; every float must come out with the same bits.
"""

import numpy as np
import pytest

from repro.nn import (
    Conv2D,
    Flatten,
    FullyConnected,
    MaxPool2D,
    Network,
    ReLU,
    Trainer,
    lenet5,
    synthetic_digits,
    training,
)

# Odd heights and widths exercise the trimming, (2, 3, 5, 4) has a single
# output column at size 3, and (25, 20, 12, 12) is LeNet's pool1 at fig6's
# batch size.
SHAPES = [(3, 4, 7, 9), (2, 3, 11, 13), (1, 1, 6, 6), (2, 3, 5, 4), (25, 20, 12, 12)]


def reference_layer_pool(inputs, size):
    count, channels, height, width = inputs.shape
    out_h, out_w = height // size, width // size
    trimmed = inputs[:, :, : out_h * size, : out_w * size]
    return trimmed.reshape(count, channels, out_h, size, out_w, size).max(axis=(3, 5))


def reference_trainer_pool(layer, tensors):
    batch, channels, height, width = tensors.shape
    size = layer.size
    out_h, out_w = height // size, width // size
    trimmed = tensors[:, :, : out_h * size, : out_w * size]
    windows = trimmed.reshape(batch, channels, out_h, size, out_w, size).transpose(
        0, 1, 2, 4, 3, 5
    )
    flat = windows.reshape(batch, channels, out_h, out_w, size * size)
    return flat.max(axis=-1), flat.argmax(axis=-1)


def reference_backward_batch(self, gradient, caches, gradients):
    """The full backward pass, including the first layer's input gradient."""
    for cache in reversed(caches):
        layer = cache["layer"]
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
            gradient = training._pool_backward_batch(layer, gradient, cache)
        elif isinstance(layer, Conv2D):
            entry = gradients.setdefault(
                id(layer),
                {"weights": np.zeros_like(layer.weights), "bias": np.zeros_like(layer.bias)},
            )
            gradient = training._conv_backward_batch(layer, gradient, cache, entry)


def _tied(shape, seed):
    """Few distinct values, so most windows hold a tie for their max."""
    return np.random.default_rng(seed).integers(-2, 3, size=shape).astype(np.float64)


def _signed_zeros(shape, seed):
    """Windows of mixed-sign zeros, each window's max a zero of either sign."""
    rng = np.random.default_rng(seed)
    values = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    return np.where(rng.random(shape) < 0.2, -rng.random(shape), values)


def _with_nans(shape, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=shape)
    values[rng.random(shape) < 0.1] = np.nan
    return values


def _assert_same_bits(produced, expected):
    assert produced.shape == expected.shape
    assert produced.dtype == expected.dtype
    assert produced.tobytes() == expected.tobytes()


class TestPoolingExactness:
    @pytest.mark.parametrize("size", [2, 3])
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("make", [_tied, _with_nans])
    def test_layer_forward_batch(self, size, shape, make):
        inputs = make(shape, seed=sum(shape) + size)
        produced = MaxPool2D(size).forward_batch(inputs)
        _assert_same_bits(produced, reference_layer_pool(inputs, size))

    @pytest.mark.parametrize("size", [2, 3])
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("make", [_tied, _with_nans])
    def test_trainer_pool_forward(self, size, shape, make):
        layer = MaxPool2D(size)
        inputs = make(shape, seed=sum(shape) * size)
        output, argmax = training._pool_forward_batch(layer, inputs)
        expected_output, expected_argmax = reference_trainer_pool(layer, inputs)
        _assert_same_bits(output, expected_output)
        _assert_same_bits(argmax, expected_argmax)

    def test_nan_windows_propagate_and_pick_first_nan(self):
        inputs = np.array([[[[1.0, np.nan], [np.nan, 5.0]]]])
        output, argmax = training._pool_forward_batch(MaxPool2D(2), inputs)
        assert np.isnan(output).all() and np.isnan(MaxPool2D(2).forward_batch(inputs)).all()
        assert argmax.tolist() == [[[[1]]]]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_signed_zero_windows(self, shape):
        """Size 2, every model's pool size.  At size 3 the reshape references
        resolve a window of mixed-sign zeros in an order set by numpy's
        reduction loops (SIMD lane layout, the shape of the output), so only
        the values' equality and the argmax are compared there."""
        inputs = _signed_zeros(shape, seed=sum(shape))
        layer = MaxPool2D(2)
        _assert_same_bits(layer.forward_batch(inputs), reference_layer_pool(inputs, 2))
        output, argmax = training._pool_forward_batch(layer, inputs)
        expected_output, expected_argmax = reference_trainer_pool(layer, inputs)
        _assert_same_bits(output, expected_output)
        _assert_same_bits(argmax, expected_argmax)

        layer = MaxPool2D(3)
        output, argmax = training._pool_forward_batch(layer, inputs)
        expected_output, expected_argmax = reference_trainer_pool(layer, inputs)
        assert np.array_equal(output, expected_output)
        _assert_same_bits(argmax, expected_argmax)

    @pytest.mark.parametrize("size", [2, 3])
    def test_layer_batch_matches_per_sample_forward(self, size):
        inputs = np.random.default_rng(size).normal(size=(4, 3, 11, 8))
        layer = MaxPool2D(size)
        produced = layer.forward_batch(inputs)
        expected = np.stack([layer.forward(sample) for sample in inputs])
        _assert_same_bits(produced, expected)

    def test_forward_batch_still_observes_statistics(self):
        layer = MaxPool2D(2)
        layer.forward_batch(np.zeros((2, 1, 4, 4)))
        assert layer.statistics.activations_seen == 32
        assert layer.statistics.input_sparsity == 1.0


def _mlp(seed):
    rng = np.random.default_rng(seed)
    layers = [
        Flatten(),
        FullyConnected(256, 32, name="fc1", rng=rng),
        ReLU(),
        FullyConnected(32, 10, name="fc2", rng=rng),
    ]
    return Network(layers, (1, 16, 16), name="mlp")


def _fit(network, dataset):
    trainer = Trainer(network, learning_rate=0.1)
    return trainer.fit(dataset, epochs=2, batch_size=16, seed=3)


class TestTrainerExactness:
    def _dataset(self):
        return synthetic_digits(train_samples=96, test_samples=24, size=16, seed=9)

    @pytest.mark.parametrize("build", [lambda: lenet5(input_size=16, seed=3), lambda: _mlp(4)])
    def test_fit_is_byte_identical_to_the_reference_helpers(self, build, monkeypatch):
        dataset = self._dataset()
        network = build()
        history = _fit(network, dataset)

        with monkeypatch.context() as patch:
            patch.setattr(Trainer, "_backward_batch", reference_backward_batch)
            patch.setattr(training, "_pool_forward_batch", reference_trainer_pool)
            patch.setattr(
                MaxPool2D,
                "forward_batch",
                lambda self, inputs, config=None: reference_layer_pool(inputs, self.size),
            )
            reference_network = build()
            reference_history = _fit(reference_network, dataset)

        assert history.epoch_losses == reference_history.epoch_losses
        assert history.epoch_accuracies == reference_history.epoch_accuracies
        for ours, theirs in zip(network.weighted_layers(), reference_network.weighted_layers()):
            _assert_same_bits(ours.weights, theirs.weights)
            _assert_same_bits(ours.bias, theirs.bias)

    def test_first_layer_input_gradient_is_never_computed(self, monkeypatch):
        dataset = self._dataset()
        network = lenet5(input_size=16, seed=3)
        conv1, conv2 = [layer for layer in network.layers if isinstance(layer, Conv2D)]
        requests = []
        original = training._conv_backward_batch

        def spy_conv_backward(layer, gradient, cache, entry, *, input_gradient=True):
            requests.append((layer, input_gradient))
            result = original(layer, gradient, cache, entry, input_gradient=input_gradient)
            assert (result is None) == (not input_gradient)
            return result

        bincounts = []
        original_bincount = np.bincount

        def spy_bincount(*args, **kwargs):
            bincounts.append(args)
            return original_bincount(*args, **kwargs)

        monkeypatch.setattr(training, "_conv_backward_batch", spy_conv_backward)
        monkeypatch.setattr(np, "bincount", spy_bincount)
        trainer = Trainer(network, learning_rate=0.1)
        trainer.train_epoch(dataset.train_images, dataset.train_labels, batch_size=16)

        batches = -(-dataset.train_images.shape[0] // 16)
        assert requests == [(conv2, True), (conv1, False)] * batches
        # conv2's col2im is the only scatter; conv1's never runs.
        assert len(bincounts) == batches
