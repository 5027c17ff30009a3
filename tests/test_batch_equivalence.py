"""Scalar-vs-batch equivalence of the vectorized bit-plane datapath engine.

The scalar stage-walk models are the golden reference; every test drives the
same operand stream through a scalar-evaluated and a batch-evaluated instance
and demands *bit-identical* results: products, per-stage weighted toggle
activity, word counts, toggle-baseline state and (for the MAC) statistics.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arithmetic.batch import (
    MAX_BATCH_WIDTH,
    batch_booth_digits,
    batch_digit_codes,
    batch_multiply,
    batch_partial_products,
    batch_reduce_rows,
    batch_round_lsbs,
    batch_truncate_lsbs,
    bit_count,
    chained_toggle_counts,
)
from repro.arithmetic.booth import booth_recode, digit_to_code, generate_partial_products
from repro.arithmetic.fixed_point import round_lsbs, signed_range, truncate_lsbs
from repro.arithmetic.mac import MacUnit
from repro.arithmetic.multiplier import BoothWallaceMultiplier
from repro.arithmetic.subword import SubwordParallelMultiplier
from repro.arithmetic.wallace import reduce_rows

# Even widths the structural multiplier accepts, capped at the batch engine's
# 64-bit-product limit.
widths = st.sampled_from([4, 6, 8, 10, 12, 16, 20, 32])


@st.composite
def width_and_operands(draw, min_size=0, max_size=48):
    width = draw(widths)
    lo, hi = signed_range(width)
    operand = st.integers(min_value=lo, max_value=hi)
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    xs = draw(st.lists(operand, min_size=size, max_size=size))
    ys = draw(st.lists(operand, min_size=size, max_size=size))
    precision = draw(st.integers(min_value=2, max_value=width))
    return width, precision, xs, ys


def assert_same_activity(reference, candidate):
    assert reference.activity.stage_toggles == candidate.activity.stage_toggles
    assert reference.activity.words == candidate.activity.words


class TestPrimitiveEquivalence:
    @given(
        values=st.lists(st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1)),
        width=widths,
        active=st.integers(min_value=1, max_value=32),
    )
    def test_gating_matches_scalar(self, values, width, active):
        active = min(active, width)
        arr = np.asarray(values, dtype=np.int64)
        expected_trunc = [truncate_lsbs(v, width, active) for v in values]
        expected_round = [round_lsbs(v, width, active) for v in values]
        assert batch_truncate_lsbs(arr, width, active).tolist() == expected_trunc
        assert batch_round_lsbs(arr, width, active).tolist() == expected_round

    @given(data=width_and_operands(min_size=1, max_size=24))
    def test_booth_digits_and_codes_match_scalar(self, data):
        width, _, xs, _ = data
        digits = batch_booth_digits(np.asarray(xs, dtype=np.int64), width)
        codes = batch_digit_codes(digits)
        for row, value in enumerate(xs):
            expected = booth_recode(value, width)
            assert digits[row].tolist() == expected
            assert codes[row].tolist() == [digit_to_code(d) for d in expected]

    @given(data=width_and_operands(min_size=1, max_size=16))
    def test_partial_products_match_scalar(self, data):
        width, _, xs, ys = data
        digits = batch_booth_digits(np.asarray(ys, dtype=np.int64), width)
        patterns = batch_partial_products(np.asarray(xs, dtype=np.int64), digits, width)
        mask = (1 << (2 * width)) - 1
        for row, (x, y) in enumerate(zip(xs, ys)):
            expected = [pp.value & mask for pp in generate_partial_products(x, y, width)]
            assert patterns[row].tolist() == expected

    @given(
        rows=st.lists(
            st.lists(st.integers(min_value=0, max_value=(1 << 24) - 1), min_size=3, max_size=3),
            min_size=1,
            max_size=12,
        )
    )
    def test_reduction_levels_match_scalar(self, rows):
        bits = 24
        matrix = np.asarray(rows, dtype=np.uint64).T  # (N=3, R) batched columns
        trace = batch_reduce_rows(matrix, bits)
        for batch_index in range(3):
            scalar = reduce_rows([r[batch_index] for r in rows], bits)
            assert len(trace.levels) == len(scalar.levels)
            for level, scalar_level in zip(trace.levels, scalar.levels):
                assert level[batch_index].tolist() == scalar_level.rows
            assert int(trace.sum_rows[batch_index]) == scalar.sum_row
            assert int(trace.carry_rows[batch_index]) == scalar.carry_row

    @given(values=st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), max_size=64))
    def test_bit_count_matches_int_bit_count(self, values):
        arr = np.asarray(values, dtype=np.uint64)
        assert bit_count(arr).tolist() == [int(v).bit_count() for v in values]

    def test_chained_toggles_row_count_change(self):
        patterns = np.asarray([[3, 5], [3, 4]], dtype=np.uint64)
        # Baseline has an extra (disappearing) row, which must toggle fully.
        toggles = chained_toggle_counts(patterns, baseline=[3, 5, 7])
        assert toggles.tolist() == [3, 1]
        # A missing baseline row means the new row toggles in from zero.
        toggles = chained_toggle_counts(patterns, baseline=[3])
        assert toggles.tolist() == [2, 1]


class TestMultiplierEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(data=width_and_operands(), rounding=st.booleans())
    def test_stream_matches_scalar_walk(self, data, rounding):
        width, precision, xs, ys = data
        reference = BoothWallaceMultiplier(width, rounding=rounding)
        candidate = BoothWallaceMultiplier(width, rounding=rounding)
        reference.set_precision(precision)
        candidate.set_precision(precision)

        expected = reference.multiply_stream(xs, ys, batch=False)
        produced = candidate.multiply_stream(xs, ys, batch=True)
        assert produced == expected
        assert_same_activity(reference, candidate)
        assert reference._previous == candidate._previous

    @settings(max_examples=30, deadline=None)
    @given(data=width_and_operands(min_size=1, max_size=24))
    def test_scalar_and_batch_interleave(self, data):
        """Batch evaluation continues (and hands back) the toggle baseline."""
        width, precision, xs, ys = data
        reference = BoothWallaceMultiplier(width)
        candidate = BoothWallaceMultiplier(width)
        reference.set_precision(precision)
        candidate.set_precision(precision)
        split = len(xs) // 2

        reference.multiply_stream(xs, ys, batch=False)
        candidate.multiply_stream(xs[:split], ys[:split], batch=False)
        candidate.multiply_stream(xs[split:], ys[split:], batch=True)
        assert_same_activity(reference, candidate)
        assert reference._previous == candidate._previous

    def test_empty_and_single_element_batches(self):
        multiplier = BoothWallaceMultiplier(16)
        assert multiplier.multiply_stream([], [], batch=True) == []
        assert multiplier.activity.words == 0
        assert multiplier._previous == {}
        assert multiplier.multiply_stream([-321], [123], batch=True) == [-321 * 123]
        reference = BoothWallaceMultiplier(16)
        reference.multiply(-321, 123)
        assert_same_activity(reference, multiplier)

    def test_batch_result_reports_raw_toggles(self):
        reference = BoothWallaceMultiplier(16)
        candidate = BoothWallaceMultiplier(16)
        result = batch_multiply(candidate, [11, -22, 3333], [44, 55, -666])
        reference.multiply_stream([11, -22, 3333], [44, 55, -666], batch=False)
        for stage, raw in result.stage_raw_toggles.items():
            weight = reference.activity.stage_toggles[stage] / raw
            assert reference.activity.stage_toggles[stage] == pytest.approx(raw * weight)
        assert result.per_op_weighted_toggles.shape == (3,)
        assert float(result.per_op_weighted_toggles.sum()) == pytest.approx(
            reference.activity.total_weighted_toggles
        )

    @settings(max_examples=20, deadline=None)
    @given(data=width_and_operands(min_size=1, max_size=16))
    def test_out_of_range_operands_rejected(self, data):
        width, _, xs, ys = data
        multiplier = BoothWallaceMultiplier(width)
        _, hi = signed_range(width)
        with pytest.raises(ValueError):
            multiplier.multiply_stream(xs + [hi + 1], ys + [0], batch=True)

    def test_wide_datapath_falls_back_to_scalar(self):
        multiplier = BoothWallaceMultiplier(2 * MAX_BATCH_WIDTH)
        with pytest.raises(ValueError):
            batch_multiply(multiplier, [1], [1])
        assert multiplier.multiply_stream([3], [5], batch=True) == [15]


class TestSubwordEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        precision=st.sampled_from([16, 12, 8, 6, 4]),
        cycles=st.integers(min_value=0, max_value=10),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_stream_matches_scalar_cycles(self, precision, cycles, seed):
        reference = SubwordParallelMultiplier(16)
        candidate = SubwordParallelMultiplier(16)
        reference.set_precision(precision)
        candidate.set_precision(precision)
        lo, hi = signed_range(reference.mode.subword_bits)
        rng = np.random.default_rng(seed)
        count = cycles * reference.mode.parallelism
        xs = rng.integers(lo, hi + 1, size=count).tolist()
        ys = rng.integers(lo, hi + 1, size=count).tolist()

        expected = reference.multiply_stream(xs, ys, batch=False)
        produced = candidate.multiply_stream(xs, ys, batch=True)
        assert produced == expected
        assert_same_activity(reference, candidate)

        # A second stream keeps chaining off the same baselines.
        xs2 = rng.integers(lo, hi + 1, size=count).tolist()
        ys2 = rng.integers(lo, hi + 1, size=count).tolist()
        assert candidate.multiply_stream(xs2, ys2, batch=True) == reference.multiply_stream(
            xs2, ys2, batch=False
        )
        assert_same_activity(reference, candidate)

    def test_packed_interface_consistent_with_batch_stream(self):
        reference = SubwordParallelMultiplier(16)
        candidate = SubwordParallelMultiplier(16)
        reference.set_precision(4)
        candidate.set_precision(4)
        xs, ys = [1, -2, 3, -4], [5, 6, -7, -8]
        expected = reference.multiply(xs, ys)
        assert candidate.multiply_stream(xs, ys, batch=True) == expected
        assert_same_activity(reference, candidate)


class TestMacEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        precision=st.sampled_from([16, 12, 8, 4]),
        cycles=st.integers(min_value=0, max_value=10),
        sparsity=st.sampled_from([0.0, 0.3, 1.0]),
        guarding=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_dot_product_matches_scalar_cycles(self, precision, cycles, sparsity, guarding, seed):
        reference = MacUnit(16, guard_zero_operands=guarding)
        candidate = MacUnit(16, guard_zero_operands=guarding)
        reference.set_precision(precision)
        candidate.set_precision(precision)
        lo, hi = signed_range(reference.mode.subword_bits)
        rng = np.random.default_rng(seed)
        count = cycles * reference.mode.parallelism
        xs = rng.integers(lo, hi + 1, size=count)
        ys = rng.integers(lo, hi + 1, size=count)
        xs[rng.random(size=count) < sparsity] = 0
        xs, ys = xs.tolist(), ys.tolist()

        expected = reference.dot_product(xs, ys, batch=False)
        produced = candidate.dot_product(xs, ys, batch=True)
        assert produced == expected
        assert candidate.accumulators == reference.accumulators
        assert candidate.statistics.operations == reference.statistics.operations
        assert candidate.statistics.guarded == reference.statistics.guarded
        assert candidate.activity.words == reference.activity.words
        for stage, value in reference.activity.stage_toggles.items():
            if stage == "segmentation":
                # Per-cycle overheads are folded in one merge, which can
                # differ from the scalar running sum by float rounding only.
                assert candidate.activity.stage_toggles[stage] == pytest.approx(
                    value, rel=1e-12, abs=1e-12
                )
            else:
                assert candidate.activity.stage_toggles[stage] == value

    def test_fully_guarded_stream_preserves_multiplier_baseline(self):
        reference = MacUnit(16)
        candidate = MacUnit(16)
        warm_x, warm_y = [7, -9], [11, 13]
        reference.dot_product(warm_x, warm_y, batch=False)
        candidate.dot_product(warm_x, warm_y, batch=True)

        zeros = [0, 0, 0]
        ones = [1, 2, 3]
        assert candidate.dot_product(zeros, ones, batch=True) == reference.dot_product(
            zeros, ones, batch=False
        )
        assert candidate.statistics.guarded == reference.statistics.guarded == 3

        # The guarded stream must not have disturbed the toggle chain.
        follow_x, follow_y = [21, -5, 17], [-3, 19, 2]
        assert candidate.dot_product(follow_x, follow_y, batch=True) == reference.dot_product(
            follow_x, follow_y, batch=False
        )
        assert candidate.statistics.operations == reference.statistics.operations


class TestCharacterizationEquivalence:
    def test_batch_and_scalar_characterizations_identical(self):
        from repro.core.scaling import characterize_multiplier

        scalar = characterize_multiplier(samples=40, seed=99, batch=False)
        batch = characterize_multiplier(samples=40, seed=99, batch=True)
        assert scalar.profiles == batch.profiles
        assert scalar.reference_das_activity == batch.reference_das_activity
        assert scalar.reference_dvafs_activity == batch.reference_dvafs_activity
        assert scalar.baseline_energy_per_word_pj == batch.baseline_energy_per_word_pj


class TestSimdBatchExecution:
    @settings(max_examples=12, deadline=None)
    @given(
        simd_width=st.sampled_from([2, 8, 16]),
        sparsity=st.sampled_from([0.0, 0.5, 1.0]),
        precision=st.sampled_from([16, 12, 8, 4]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_batch_executor_matches_interpreter(self, simd_width, sparsity, precision, seed):
        from dataclasses import asdict

        from repro.simd import SimdProcessor, convolution_kernel, run_convolution

        workload = convolution_kernel(
            simd_width, input_length=24, taps=5, seed=seed, sparsity=sparsity
        )
        interpreter = SimdProcessor(simd_width)
        interpreter.set_precision(precision)
        expected_outputs, expected = run_convolution(interpreter, workload, batch=False)
        vectorized = SimdProcessor(simd_width)
        vectorized.set_precision(precision)
        outputs, result = run_convolution(vectorized, workload, batch=True)

        assert np.array_equal(outputs, expected_outputs)
        if result.parallelism == 1:
            # Packed modes reinterpret the preloaded words as N subwords, so
            # only the single-subword modes match the numpy reference.
            assert np.array_equal(outputs, workload.reference_output())
        assert asdict(result.counters) == asdict(expected.counters)
        assert (result.halted, result.precision_bits, result.parallelism) == (
            expected.halted,
            expected.precision_bits,
            expected.parallelism,
        )
        assert asdict(vectorized.vector_unit.counters) == asdict(interpreter.vector_unit.counters)
        assert asdict(vectorized.memory.counters) == asdict(interpreter.memory.counters)

    def test_batch_executor_covers_packed_modes(self):
        """The trace engine handles subword-parallel modes the old closed-form
        batch path rejected; counters stay bit-identical to the interpreter."""
        from dataclasses import asdict

        from repro.simd import SimdProcessor, convolution_kernel, run_convolution

        workload = convolution_kernel(4, input_length=16, taps=3)
        for precision in (8, 4):  # 2 x 8b and 4 x 4b packed modes
            interpreter = SimdProcessor(4)
            interpreter.set_precision(precision)
            expected_outputs, expected = run_convolution(interpreter, workload, batch=False)
            engine = SimdProcessor(4)
            engine.set_precision(precision)
            outputs, result = run_convolution(engine, workload, batch=True)
            assert result.parallelism == 16 // precision
            assert np.array_equal(outputs, expected_outputs)
            assert asdict(result.counters) == asdict(expected.counters)
            assert asdict(engine.vector_unit.counters) == asdict(interpreter.vector_unit.counters)

    def test_batch_executor_accepts_modified_programs(self):
        """Arbitrary programs run through the engine (vectorised or via the
        interpreter fallback) instead of being rejected."""
        from dataclasses import replace

        from repro.simd import SimdProcessor, convolution_kernel, execute_convolution_batch
        from repro.simd.assembler import assemble

        workload = convolution_kernel(4, input_length=16, taps=3)
        tampered = replace(workload, program=assemble("    nop\n    halt\n"))
        result = execute_convolution_batch(SimdProcessor(4), tampered)
        assert result.halted
        assert result.counters.instructions == 2


class TestNetworkBatchForward:
    @settings(max_examples=10, deadline=None)
    @given(
        count=st.integers(min_value=1, max_value=5),
        weight_bits=st.sampled_from([None, 8, 4, 1]),
        activation_bits=st.sampled_from([None, 8, 4]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_batched_forward_matches_per_sample(self, count, weight_bits, activation_bits, seed):
        from repro.nn.models import lenet5
        from repro.nn.quantization import QuantizationConfig

        network = lenet5()
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=(count,) + network.input_shape)
        configs = {
            layer.name: QuantizationConfig(
                weight_bits=weight_bits, activation_bits=activation_bits
            )
            for layer in network.weighted_layers()
        }
        expected = network.forward_batch(samples, configs=configs, batch=False)
        produced = network.forward_batch(samples, configs=configs, batch=True)
        assert produced.shape == expected.shape
        np.testing.assert_allclose(produced, expected, rtol=1e-9, atol=1e-12)

    def test_grouped_strided_padded_conv_batch(self):
        from repro.nn.layers import Conv2D

        layer = Conv2D(4, 6, 3, stride=2, padding=1, groups=2, rng=np.random.default_rng(5))
        samples = np.random.default_rng(8).normal(size=(7, 4, 11, 9))
        expected = np.stack([layer.forward(sample) for sample in samples])
        produced = layer.forward_batch(samples)
        assert produced.shape == expected.shape
        np.testing.assert_allclose(produced, expected, rtol=1e-9, atol=1e-12)

    def test_empty_batch_flows_through(self):
        from repro.nn.models import lenet5

        network = lenet5()
        empty = np.zeros((0,) + network.input_shape)
        assert network.forward_batch(empty, batch=True).shape == (0, 10)


class TestTrainerVectorization:
    """Vectorised trainer vs the per-sample reference loops."""

    def _dataset(self):
        from repro.nn import synthetic_digits

        return synthetic_digits(train_samples=96, test_samples=24, size=16, seed=9)

    def test_forward_batch_matches_per_sample(self):
        from repro.nn import Trainer, lenet5

        trainer = Trainer(lenet5(input_size=16, seed=3))
        samples = self._dataset().train_images[:6]
        batched, caches = trainer._forward_batch(samples)
        assert len(caches) == len(trainer.network.layers)
        for index, sample in enumerate(samples):
            logits, _ = trainer._forward_sample(sample)
            np.testing.assert_allclose(batched[index], logits, rtol=1e-12, atol=1e-12)

    def test_training_trajectories_agree(self):
        """Losses and learned weights of the two paths agree to float
        tolerance (batch gradients are summed in a different order)."""
        from repro.nn import Trainer, lenet5

        dataset = self._dataset()
        outcomes = {}
        for vectorized in (False, True):
            network = lenet5(input_size=16, seed=3)
            trainer = Trainer(network, learning_rate=0.1, vectorized=vectorized)
            history = trainer.fit(dataset, epochs=2, batch_size=16, seed=3)
            outcomes[vectorized] = (history, network)
        reference, reference_network = outcomes[False]
        produced, produced_network = outcomes[True]
        np.testing.assert_allclose(produced.epoch_losses, reference.epoch_losses, rtol=1e-8)
        assert produced.epoch_accuracies == reference.epoch_accuracies
        for ours, theirs in zip(
            produced_network.weighted_layers(), reference_network.weighted_layers()
        ):
            np.testing.assert_allclose(ours.weights, theirs.weights, rtol=1e-6, atol=1e-9)
            np.testing.assert_allclose(ours.bias, theirs.bias, rtol=1e-6, atol=1e-9)

    def test_strided_padded_conv_backward(self):
        """col2im via a weighted np.bincount must accumulate overlapping
        patches exactly like the per-position reference loop (stride < kernel
        overlaps)."""
        from repro.nn.layers import Conv2D
        from repro.nn.training import (
            _conv_backward,
            _conv_backward_batch,
            _conv_forward,
            _conv_forward_batch,
        )

        layer = Conv2D(3, 5, 3, stride=1, padding=1, rng=np.random.default_rng(11))
        rng = np.random.default_rng(12)
        samples = rng.normal(size=(4, 3, 9, 9))
        out_shape = layer.output_shape(samples.shape[1:])
        upstream = rng.normal(size=(4,) + out_shape)

        batched_out, columns, padded_shape = _conv_forward_batch(layer, samples)
        entry_batch = {"weights": np.zeros_like(layer.weights), "bias": np.zeros_like(layer.bias)}
        grad_batch = _conv_backward_batch(
            layer, upstream, {"columns": columns, "padded_shape": padded_shape}, entry_batch
        )

        entry_ref = {"weights": np.zeros_like(layer.weights), "bias": np.zeros_like(layer.bias)}
        grads_ref = []
        for index in range(samples.shape[0]):
            out, cols, pshape = _conv_forward(layer, samples[index])
            np.testing.assert_allclose(batched_out[index], out, rtol=1e-12, atol=1e-12)
            grads_ref.append(
                _conv_backward(
                    layer, upstream[index], {"columns": cols, "padded_shape": pshape}, entry_ref
                )
            )
        np.testing.assert_allclose(grad_batch, np.stack(grads_ref), rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(entry_batch["weights"], entry_ref["weights"], rtol=1e-9)
        np.testing.assert_allclose(entry_batch["bias"], entry_ref["bias"], rtol=1e-9)

    def test_pool_backward_fancy_indexing(self):
        from repro.nn.layers import MaxPool2D
        from repro.nn.training import (
            _pool_backward,
            _pool_backward_batch,
            _pool_forward,
            _pool_forward_batch,
        )

        layer = MaxPool2D(2)
        rng = np.random.default_rng(21)
        samples = rng.normal(size=(3, 4, 7, 9))  # odd sizes exercise trimming
        outputs, argmax = _pool_forward_batch(layer, samples)
        upstream = rng.normal(size=outputs.shape)
        produced = _pool_backward_batch(
            layer, upstream, {"input": samples, "argmax": argmax}
        )
        for index in range(samples.shape[0]):
            out, arg = _pool_forward(layer, samples[index])
            np.testing.assert_allclose(outputs[index], out)
            reference = _pool_backward(
                layer, upstream[index], {"input": samples[index], "argmax": arg}
            )
            np.testing.assert_allclose(produced[index], reference)
