"""Unit and integration tests for the CNN substrate."""

import numpy as np
import pytest

from repro.nn import (
    Conv2D,
    Flatten,
    FullyConnected,
    MaxPool2D,
    Network,
    PrecisionSearch,
    QuantizationConfig,
    ReLU,
    alexnet,
    lenet5,
    measure_sparsity,
    prune_network,
    quantization_error,
    quantize,
    quantize_to_codes,
    synthetic_digits,
    synthetic_natural_images,
    vgg16,
)
from repro.nn.training import cross_entropy_loss, softmax


class TestQuantization:
    def test_full_precision_none_is_identity(self):
        values = np.array([0.1, -0.7, 2.5])
        assert np.array_equal(quantize(values, None), values)

    def test_error_decreases_with_bits(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=1000)
        assert quantization_error(values, 4) > quantization_error(values, 8) > quantization_error(values, 12)

    def test_binary_quantization(self):
        values = np.array([0.5, -0.25, 0.75])
        binary = quantize(values, 1)
        assert set(np.sign(binary)) <= {-1.0, 1.0}
        assert len(set(np.abs(binary))) == 1

    def test_quantized_values_on_grid(self):
        values = np.array([0.3, -0.45, 0.11])
        quantized = quantize(values, 6)
        from repro.nn.quantization import quantization_scale

        scale = quantization_scale(values, 6)
        assert np.allclose(quantized / scale, np.round(quantized / scale))

    def test_codes_match_quantize(self):
        values = np.array([0.0, -0.0, 0.3, -0.45, 0.11, -1.7, 2.25, 5e-3])
        for bits in range(1, 17):
            codes, scale = quantize_to_codes(values, bits)
            assert codes.dtype == np.int64
            np.testing.assert_array_equal(codes * scale, quantize(values, bits))
        codes, _scale = quantize_to_codes(values, 1)
        assert set(codes.tolist()) == {-1, 1}

    def test_config_required_bits(self):
        assert QuantizationConfig(weight_bits=5, activation_bits=9).required_bits == 9
        assert QuantizationConfig().required_bits == 16


class TestLayers:
    def test_conv_matches_manual_computation(self):
        conv = Conv2D(1, 1, 2, name="c")
        conv.weights = np.array([[[[1.0, 0.0], [0.0, -1.0]]]])
        conv.bias = np.array([0.5])
        inputs = np.arange(9, dtype=float).reshape(1, 3, 3)
        outputs = conv.forward(inputs)
        assert outputs.shape == (1, 2, 2)
        assert outputs[0, 0, 0] == pytest.approx(inputs[0, 0, 0] - inputs[0, 1, 1] + 0.5)

    def test_conv_stride_and_padding_shapes(self):
        conv = Conv2D(3, 8, 3, stride=2, padding=1)
        assert conv.output_shape((3, 16, 16)) == (8, 8, 8)

    def test_grouped_conv_macs_halved(self):
        plain = Conv2D(4, 4, 3)
        grouped = Conv2D(4, 4, 3, groups=2)
        assert grouped.macs((4, 8, 8)) == plain.macs((4, 8, 8)) // 2

    def test_grouped_conv_forward_block_diagonal(self):
        grouped = Conv2D(2, 2, 1, groups=2, name="g")
        grouped.weights = np.ones_like(grouped.weights)
        grouped.bias = np.zeros(2)
        inputs = np.stack([np.full((2, 2), 3.0), np.full((2, 2), 5.0)])
        outputs = grouped.forward(inputs)
        assert np.allclose(outputs[0], 3.0)
        assert np.allclose(outputs[1], 5.0)

    def test_relu_and_pool(self):
        relu = ReLU()
        assert np.array_equal(relu.forward(np.array([[[-1.0, 2.0]]])), np.array([[[0.0, 2.0]]]))
        pool = MaxPool2D(2)
        inputs = np.arange(16, dtype=float).reshape(1, 4, 4)
        pooled = pool.forward(inputs)
        assert pooled.shape == (1, 2, 2)
        assert pooled[0, 0, 0] == 5.0

    def test_fully_connected(self):
        fc = FullyConnected(3, 2)
        fc.weights = np.array([[1.0, 0.0, -1.0], [0.5, 0.5, 0.5]])
        fc.bias = np.array([0.0, 1.0])
        outputs = fc.forward(np.array([2.0, 4.0, 6.0]))
        assert outputs == pytest.approx([-4.0, 7.0])

    def test_channel_mismatch_rejected(self):
        conv = Conv2D(3, 4, 3)
        with pytest.raises(ValueError):
            conv.forward(np.zeros((1, 8, 8)))


class TestNetworkAndModels:
    def test_lenet_macs_match_table3(self):
        summaries = {s.name: s for s in lenet5().layer_summaries()}
        assert summaries["conv1"].mmacs == pytest.approx(0.29, abs=0.02)
        assert summaries["conv2"].mmacs == pytest.approx(1.60, abs=0.05)

    def test_alexnet_macs_match_table3(self):
        convs = [s for s in alexnet().layer_summaries() if s.kind == "Conv2D"]
        expected = [105, 224, 150, 112, 75]
        for summary, value in zip(convs, expected):
            assert summary.mmacs == pytest.approx(value, rel=0.03)
        assert sum(s.mmacs for s in convs) == pytest.approx(666, rel=0.02)

    def test_vgg16_macs_match_table3(self):
        convs = [s for s in vgg16().layer_summaries() if s.kind == "Conv2D"]
        assert len(convs) == 13
        assert convs[0].mmacs == pytest.approx(87, rel=0.02)
        assert max(s.mmacs for s in convs) == pytest.approx(1850, rel=0.02)
        assert sum(s.mmacs for s in convs) == pytest.approx(15346, rel=0.02)

    def test_forward_shapes(self):
        network = lenet5(input_size=16)
        output = network.forward(np.zeros((1, 16, 16)))
        assert output.shape == (10,)

    def test_per_layer_quantization_changes_output(self):
        network = lenet5(input_size=16)
        sample = np.random.default_rng(0).random((1, 16, 16))
        full = network.forward(sample)
        quantized = network.forward(sample, configs={"conv1": QuantizationConfig(weight_bits=2)})
        assert not np.allclose(full, quantized)

    def test_duplicate_layer_names_rejected(self):
        layers = [Flatten(), FullyConnected(4, 4, name="fc"), FullyConnected(4, 2, name="fc")]
        with pytest.raises(ValueError):
            Network(layers, (2, 2))


class TestTraining:
    def test_softmax_normalised(self):
        probabilities = softmax(np.array([[1.0, 2.0, 3.0]]))
        assert probabilities.sum() == pytest.approx(1.0)

    def test_cross_entropy_gradient_direction(self):
        logits = np.array([[2.0, 0.0]])
        labels = np.array([1])
        _, gradient = cross_entropy_loss(logits, labels)
        assert gradient[0, 1] < 0 < gradient[0, 0]

    def test_lenet_learns_synthetic_digits(self, trained_lenet):
        _, history = trained_lenet
        assert history.final_accuracy > 0.75

    def test_loss_decreases(self, trained_lenet):
        _, history = trained_lenet
        assert history.epoch_losses[-1] < history.epoch_losses[0]


class TestSparsityAndSearch:
    def test_pruning_creates_weight_sparsity(self):
        network = lenet5(input_size=16)
        prune_network(network, 0.5)
        for layer in network.weighted_layers():
            assert layer.weight_sparsity() == pytest.approx(0.5, abs=0.05)

    def test_relu_creates_input_sparsity(self, trained_lenet, digit_dataset):
        network, _ = trained_lenet
        report = measure_sparsity(network, digit_dataset.test_images[:10])
        by_name = {entry.name: entry for entry in report}
        # Layers behind a ReLU see many zero activations.
        assert by_name["conv2"].input_sparsity > 0.2
        assert by_name["fc1"].input_sparsity > 0.2
        assert 0.0 <= by_name["conv1"].input_sparsity <= 1.0

    def test_precision_search_monotone_threshold(self, trained_lenet, digit_dataset):
        network, _ = trained_lenet
        search = PrecisionSearch(
            network, digit_dataset.test_images[:30], labels=digit_dataset.test_labels[:30]
        )
        bits_strict = search.minimum_bits_for_layer("conv1", target="weights")
        relaxed = PrecisionSearch(
            network,
            digit_dataset.test_images[:30],
            labels=digit_dataset.test_labels[:30],
            relative_accuracy_target=0.5,
        )
        bits_relaxed = relaxed.minimum_bits_for_layer("conv1", target="weights")
        assert bits_relaxed <= bits_strict <= 10

    def test_precision_search_agreement_proxy(self):
        network = lenet5(input_size=16, seed=3)
        samples = synthetic_natural_images(samples=8, size=16, channels=1, seed=3).train_images
        search = PrecisionSearch(network, samples)
        assert search.baseline_accuracy() == 1.0
        profile = search.profile()
        assert all(1 <= p.weight_bits <= 16 for p in profile)

    def test_synthetic_digits_are_classifiable_shapes(self):
        dataset = synthetic_digits(train_samples=20, test_samples=5, size=16, seed=1)
        assert dataset.train_images.shape == (20, 1, 16, 16)
        assert dataset.num_classes == 10
        assert dataset.train_images.max() <= 1.0
