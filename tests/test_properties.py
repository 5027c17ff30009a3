"""Property-based tests (hypothesis) on the core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arithmetic.booth import booth_decode, booth_recode, generate_partial_products
from repro.arithmetic.fixed_point import (
    from_twos_complement,
    pack_subwords,
    round_lsbs,
    to_twos_complement,
    truncate_lsbs,
    unpack_subwords,
    wrap_signed,
)
from repro.arithmetic.multiplier import BoothWallaceMultiplier
from repro.arithmetic.subword import SubwordParallelMultiplier
from repro.arithmetic.wallace import reduce_rows
from repro.circuit.delay import CriticalPath, delay_stretch
from repro.circuit.energy import dynamic_power_mw
from repro.circuit.technology import TECH_28NM_FDSOI, TECH_40NM_LP_LVT
from repro.circuit.voltage_scaling import minimum_voltage_for_period
from repro.nn.quantization import quantize

int16 = st.integers(min_value=-32768, max_value=32767)
int8 = st.integers(min_value=-128, max_value=127)


class TestTwosComplementProperties:
    @given(value=int16)
    def test_roundtrip(self, value):
        assert from_twos_complement(to_twos_complement(value, 16), 16) == value

    @given(value=st.integers(min_value=-(10**9), max_value=10**9))
    def test_wrap_is_idempotent(self, value):
        wrapped = wrap_signed(value, 16)
        assert wrap_signed(wrapped, 16) == wrapped
        assert (value - wrapped) % (1 << 16) == 0


class TestPrecisionGatingProperties:
    @given(value=int16, bits=st.integers(min_value=1, max_value=16))
    def test_truncation_error_bounded(self, value, bits):
        truncated = truncate_lsbs(value, 16, bits)
        assert abs(truncated - value) < 2 ** (16 - bits)

    @given(value=int16, bits=st.integers(min_value=1, max_value=16))
    def test_rounding_error_bounded(self, value, bits):
        rounded = round_lsbs(value, 16, bits)
        # Rounding may saturate at the positive end, which can add one step.
        assert abs(rounded - value) <= 2 ** (16 - bits)

    @given(value=int16)
    def test_full_precision_identity(self, value):
        assert truncate_lsbs(value, 16, 16) == value
        assert round_lsbs(value, 16, 16) == value


class TestSubwordPackingProperties:
    @given(values=st.lists(st.integers(min_value=-8, max_value=7), min_size=1, max_size=4))
    def test_pack_unpack_roundtrip(self, values):
        packed = pack_subwords(values, 4)
        assert unpack_subwords(packed, 4, len(values)) == values


class TestBoothProperties:
    @given(value=int16)
    def test_recode_roundtrip(self, value):
        assert booth_decode(booth_recode(value, 16)) == value

    @given(x=int16, y=int16)
    def test_partial_products_sum_to_product(self, x, y):
        assert sum(pp.value for pp in generate_partial_products(x, y, 16)) == x * y


class TestWallaceProperties:
    @given(rows=st.lists(st.integers(min_value=0, max_value=(1 << 20) - 1), max_size=10))
    def test_reduction_preserves_modular_sum(self, rows):
        bits = 24
        result = reduce_rows(rows, bits)
        assert (result.sum_row + result.carry_row) % (1 << bits) == sum(rows) % (1 << bits)


class TestMultiplierProperties:
    @settings(max_examples=40, deadline=None)
    @given(x=int16, y=int16)
    def test_full_precision_product_exact(self, x, y):
        multiplier = BoothWallaceMultiplier(16)
        assert multiplier.multiply(x, y) == x * y

    @settings(max_examples=30, deadline=None)
    @given(x=int8, y=int8)
    def test_gated_product_matches_truncated_operands(self, x, y):
        multiplier = BoothWallaceMultiplier(8)
        multiplier.set_precision(4)
        expected = truncate_lsbs(x, 8, 4) * truncate_lsbs(y, 8, 4)
        assert multiplier.multiply(x, y) == expected

    @settings(max_examples=20, deadline=None)
    @given(
        xs=st.lists(st.integers(min_value=-8, max_value=7), min_size=4, max_size=4),
        ys=st.lists(st.integers(min_value=-8, max_value=7), min_size=4, max_size=4),
    )
    def test_subword_lanes_independent(self, xs, ys):
        multiplier = SubwordParallelMultiplier(16)
        multiplier.set_precision(4)
        assert multiplier.multiply(xs, ys) == [a * b for a, b in zip(xs, ys)]


class TestCircuitProperties:
    @given(voltage=st.floats(min_value=0.71, max_value=1.2))
    def test_delay_stretch_positive_and_monotonic(self, voltage):
        stretch = delay_stretch(TECH_40NM_LP_LVT, voltage)
        assert stretch > 0
        lower = delay_stretch(TECH_40NM_LP_LVT, voltage - 0.005) if voltage > 0.72 else stretch
        assert lower >= stretch - 1e-9

    @given(
        levels=st.floats(min_value=1.0, max_value=25.0),
        period=st.floats(min_value=2.0, max_value=20.0),
    )
    def test_minimum_voltage_meets_timing(self, levels, period):
        from repro.circuit.delay import path_delay_ns

        voltage = minimum_voltage_for_period(TECH_40NM_LP_LVT, levels, period)
        assert (
            path_delay_ns(TECH_40NM_LP_LVT, levels, voltage) <= period + 1e-6
            or voltage == TECH_40NM_LP_LVT.min_voltage
        )


class TestPhysicsInvariants:
    @given(
        capacitance=st.floats(min_value=0.01, max_value=100.0),
        activity=st.floats(min_value=0.01, max_value=1.0),
        frequency=st.floats(min_value=1.0, max_value=2000.0),
        voltage=st.floats(min_value=0.3, max_value=1.5),
        k=st.floats(min_value=0.1, max_value=4.0),
    )
    def test_dynamic_power_quadratic_in_voltage_linear_in_frequency(self, capacitance, activity, frequency, voltage, k):
        """P = alpha * C * f * V^2: scaling V by k scales P by k^2, scaling f by k scales P by k."""
        power = dynamic_power_mw(capacitance, activity, frequency, voltage)
        assert dynamic_power_mw(capacitance, activity, frequency, k * voltage) == pytest.approx(k**2 * power)
        assert dynamic_power_mw(capacitance, activity, k * frequency, voltage) == pytest.approx(k * power)

    @given(
        technology=st.sampled_from([TECH_40NM_LP_LVT, TECH_28NM_FDSOI]),
        levels=st.floats(min_value=1.0, max_value=60.0),
        low=st.floats(min_value=0.0, max_value=1.0),
        high=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_max_frequency_monotone_in_voltage(self, technology, levels, low, high):
        """Over the technology's supply range, a higher voltage never lowers f_max."""
        low, high = sorted((low, high))
        span = technology.max_voltage - technology.min_voltage
        path = CriticalPath(logic_levels=levels, technology=technology)
        slow = path.max_frequency_mhz(technology.min_voltage + low * span)
        fast = path.max_frequency_mhz(technology.min_voltage + high * span)
        assert 0 < slow <= fast * (1 + 1e-12)  # ulp-level rounding aside


class TestQuantizationProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=50,
        ),
        bits=st.integers(min_value=2, max_value=12),
    )
    def test_quantization_error_bounded_by_scale(self, values, bits):
        tensor = np.array(values)
        quantized = quantize(tensor, bits)
        from repro.nn.quantization import quantization_scale

        scale = quantization_scale(tensor, bits)
        assert np.max(np.abs(quantized - tensor)) <= scale * (1.0 + 1e-9)

    @settings(max_examples=30, deadline=None)
    @given(bits=st.integers(min_value=2, max_value=15))
    def test_more_bits_never_worse(self, bits):
        rng = np.random.default_rng(0)
        tensor = rng.normal(size=100)
        coarse = float(np.mean((quantize(tensor, bits) - tensor) ** 2))
        fine = float(np.mean((quantize(tensor, bits + 1) - tensor) ** 2))
        assert fine <= coarse + 1e-12
