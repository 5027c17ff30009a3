"""Unit tests for the approximate-multiplier baselines of Fig. 3b."""

import itertools

import numpy as np
import pytest

from repro.arithmetic.baselines import (
    KulkarniUnderdesignedMultiplier,
    KyawErrorTolerantMultiplier,
    LiuPartialErrorRecoveryMultiplier,
    SolazTruncatedMultiplier,
    all_baseline_curves,
    measure_relative_rmse,
)
from repro.arithmetic.fixed_point import signed_range

# -- scalar reference formulations (pure Python ints, one product per call) --


def _sign(x, y):
    return -1 if (x < 0) != (y < 0) else 1


def reference_kulkarni(x, y, width):
    def unsigned(a, b, width):
        if width == 2:
            return 7 if a == 3 and b == 3 else a * b
        half = width // 2
        mask = (1 << half) - 1
        a_lo, a_hi, b_lo, b_hi = a & mask, a >> half, b & mask, b >> half
        return (
            unsigned(a_lo, b_lo, half)
            + (unsigned(a_lo, b_hi, half) << half)
            + (unsigned(a_hi, b_lo, half) << half)
            + (unsigned(a_hi, b_hi, half) << width)
        )

    return _sign(x, y) * unsigned(abs(x), abs(y), width)


def reference_kyaw(x, y, split):
    a, b = abs(x), abs(y)
    mask = (1 << split) - 1
    a_lo, a_hi, b_lo, b_hi = a & mask, a >> split, b & mask, b >> split
    exact_part = ((a_hi * b_hi) << (2 * split)) + (((a_hi * b_lo) + (a_lo * b_hi)) << split)
    combined = a_lo | b_lo
    approx_low = (1 << combined.bit_length()) - 1 if combined else 0
    return _sign(x, y) * (exact_part + approx_low)


def reference_liu(x, y, width, recovery_columns):
    a, b = abs(x), abs(y)
    boundary = max(0, min(2 * width, 2 * width - recovery_columns))
    low_mask = (1 << boundary) - 1
    exact_sum = approx_or = 0
    for bit in range(width):
        if (b >> bit) & 1:
            row = a << bit
            exact_sum += row & ~low_mask
            approx_or |= row & low_mask
    return _sign(x, y) * (exact_sum + approx_or)


def reference_solaz(x, y, width, column):
    a, b = abs(x), abs(y)
    total = 0
    for bit in range(width):
        if (b >> bit) & 1:
            total += (a << bit) & ~((1 << column) - 1)
    if column > 0:
        total += 1 << (column - 1)
    return _sign(x, y) * total


def reference_rmse(multiply, width, *, samples=2000, seed=2017):
    """The scalar loop: one ``multiply`` call per operand pair."""
    rng = np.random.default_rng(seed)
    lo, hi = signed_range(width)
    xs = rng.integers(lo, hi + 1, size=samples)
    ys = rng.integers(lo, hi + 1, size=samples)
    scale = float(1 << (width - 1)) ** 2
    errors = np.empty(samples, dtype=np.float64)
    for index, (x, y) in enumerate(zip(xs, ys)):
        errors[index] = (multiply(int(x), int(y)) - int(x) * int(y)) / scale
    return float(np.sqrt(np.mean(errors**2)))


def _designs(width=16):
    """(array-valued design, scalar reference) pairs, one per scheme setting."""
    pairs = [
        (KulkarniUnderdesignedMultiplier(width), lambda x, y: reference_kulkarni(x, y, width)),
        (KulkarniUnderdesignedMultiplier(8), lambda x, y: reference_kulkarni(x, y, 8)),
    ]
    for split in (1, 4, 8, 12, 15):
        pairs.append(
            (KyawErrorTolerantMultiplier(width, split), lambda x, y, s=split: reference_kyaw(x, y, s))
        )
    for columns in (0, 8, 16, 24, 32):
        pairs.append(
            (
                LiuPartialErrorRecoveryMultiplier(width, columns),
                lambda x, y, c=columns: reference_liu(x, y, width, c),
            )
        )
    for column in (0, 1, 6, 20, 30):
        pairs.append(
            (
                SolazTruncatedMultiplier(width, column),
                lambda x, y, c=column: reference_solaz(x, y, width, c),
            )
        )
    return pairs


EDGE_OPERANDS = (0, 1, -1, 32767, -32768, 3, -3, 255, -256)


class TestArrayMultiply:
    @pytest.mark.parametrize("design, reference", _designs())
    def test_scalar_edge_operands(self, design, reference):
        for x, y in itertools.product(EDGE_OPERANDS, repeat=2):
            product = design.multiply(x, y)
            assert type(product) is int
            assert product == reference(x, y), (x, y)

    @pytest.mark.parametrize("design, reference", _designs())
    def test_array_matches_scalar_calls(self, design, reference):
        rng = np.random.default_rng(5)
        xs = np.concatenate([rng.integers(-32768, 32768, size=300), EDGE_OPERANDS])
        ys = np.concatenate([rng.integers(-32768, 32768, size=300), EDGE_OPERANDS[::-1]])
        products = design.multiply(xs, ys)
        assert products.dtype == np.int64 and products.shape == xs.shape
        assert products.tolist() == [reference(int(x), int(y)) for x, y in zip(xs, ys)]

    def test_curve_rmses_equal_the_scalar_loop(self):
        curves = all_baseline_curves(16)
        references = [
            *(lambda x, y, c=c: reference_liu(x, y, 16, c) for c in (8, 16, 24)),
            *(lambda x, y, c=c: reference_liu(x, y, 16, c) for c in (8, 16, 24)),
            lambda x, y: reference_kulkarni(x, y, 16),
            *(lambda x, y, s=s: reference_kyaw(x, y, s) for s in (4, 8, 12)),
            *(lambda x, y, c=c: reference_solaz(x, y, 16, c) for c in range(0, 26, 3)),
        ]
        points = [point for scheme in curves.values() for point in scheme]
        assert len(points) == len(references) == 19
        for point, reference in zip(points, references):
            assert point.rmse == reference_rmse(reference, 16), point.label

    def test_widths_beyond_int64_products_rejected(self):
        with pytest.raises(ValueError):
            LiuPartialErrorRecoveryMultiplier(32)
        with pytest.raises(ValueError):
            KulkarniUnderdesignedMultiplier(32)


class TestKulkarni:
    def test_2x2_block_error(self):
        multiplier = KulkarniUnderdesignedMultiplier(2)
        assert multiplier.multiply(3, 3) == 7
        assert multiplier.multiply(2, 3) == 6

    def test_exact_when_no_3x3_patterns(self):
        multiplier = KulkarniUnderdesignedMultiplier(8)
        # Operands whose 2-bit chunks never form 3 x 3.
        assert multiplier.multiply(0b01010101, 0b00100010) == 0b01010101 * 0b00100010

    def test_error_is_always_underestimate(self):
        multiplier = KulkarniUnderdesignedMultiplier(8)
        for x in range(0, 128, 7):
            for y in range(0, 128, 11):
                assert multiplier.multiply(x, y) <= x * y

    def test_rmse_nonzero_but_small(self):
        rmse = measure_relative_rmse(KulkarniUnderdesignedMultiplier(16).multiply, 16, samples=400)
        assert 0 < rmse < 0.05


class TestKyaw:
    def test_msb_part_exact(self):
        multiplier = KyawErrorTolerantMultiplier(16, split=8)
        x, y = 0x4000, 0x2000  # no LSB content
        assert multiplier.multiply(x, y) == x * y

    def test_error_bounded_by_lsb_contribution(self):
        multiplier = KyawErrorTolerantMultiplier(16, split=8)
        x, y = 0x1234, 0x0F0F
        error = abs(multiplier.multiply(x, y) - x * y)
        assert error < (1 << 17)

    def test_larger_split_larger_error(self):
        small = measure_relative_rmse(KyawErrorTolerantMultiplier(16, 4).multiply, 16, samples=300)
        large = measure_relative_rmse(KyawErrorTolerantMultiplier(16, 12).multiply, 16, samples=300)
        assert large > small

    def test_energy_decreases_with_split(self):
        assert (
            KyawErrorTolerantMultiplier(16, 12).relative_energy()
            < KyawErrorTolerantMultiplier(16, 4).relative_energy()
        )

    def test_invalid_split(self):
        with pytest.raises(ValueError):
            KyawErrorTolerantMultiplier(16, 16)


class TestLiu:
    def test_full_recovery_is_exact(self):
        multiplier = LiuPartialErrorRecoveryMultiplier(16, recovery_columns=32)
        assert multiplier.multiply(12345, -321) == 12345 * -321

    def test_more_recovery_less_error(self):
        low = measure_relative_rmse(
            LiuPartialErrorRecoveryMultiplier(16, 8).multiply, 16, samples=300
        )
        high = measure_relative_rmse(
            LiuPartialErrorRecoveryMultiplier(16, 24).multiply, 16, samples=300
        )
        assert high < low

    def test_voltage_scaled_variant_cheaper(self):
        plain = LiuPartialErrorRecoveryMultiplier(16, 16)
        scaled = LiuPartialErrorRecoveryMultiplier(16, 16, voltage_scaled=True)
        assert scaled.relative_energy() < plain.relative_energy()


class TestSolaz:
    def test_no_truncation_is_exact(self):
        multiplier = SolazTruncatedMultiplier(16, truncation_column=0)
        assert multiplier.multiply(-1111, 2222) == -1111 * 2222

    def test_truncation_is_runtime_programmable(self):
        multiplier = SolazTruncatedMultiplier(16)
        multiplier.set_truncation(12)
        assert multiplier.truncation_column == 12

    def test_energy_has_a_floor(self):
        multiplier = SolazTruncatedMultiplier(16, truncation_column=30)
        assert multiplier.relative_energy() >= SolazTruncatedMultiplier.FIXED_FRACTION

    def test_error_grows_with_truncation(self):
        small = measure_relative_rmse(SolazTruncatedMultiplier(16, 6).multiply, 16, samples=300)
        large = measure_relative_rmse(SolazTruncatedMultiplier(16, 20).multiply, 16, samples=300)
        assert large > small


class TestBaselineCurves:
    def test_all_schemes_present(self):
        curves = all_baseline_curves(16)
        assert len(curves) == 5
        for points in curves.values():
            assert points
            for point in points:
                assert point.rmse >= 0
                assert 0 < point.relative_energy <= 1.05

    def test_runtime_adaptive_flags(self):
        curves = all_baseline_curves(16)
        truncation = curves[SolazTruncatedMultiplier.name]
        kulkarni = curves[KulkarniUnderdesignedMultiplier.name]
        assert all(p.runtime_adaptive for p in truncation)
        assert not any(p.runtime_adaptive for p in kulkarni)
