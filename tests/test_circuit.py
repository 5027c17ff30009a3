"""Unit tests for the circuit-level substrate (technology, delay, energy, voltage scaling)."""

import pytest

from repro.circuit import (
    CriticalPath,
    TECH_40NM_LP_LVT,
    Technology,
    constant_throughput_frequency,
    delay_stretch,
    dynamic_power_mw,
    minimum_voltage_for_period,
    toggle_energy_pj,
    voltage_energy_scale,
)


class TestTechnology:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Technology("bad", 0.5, 0.6, 0.7, 1.0, 1.4, 50.0, 1.0, 0.5)

    def test_clamp_voltage(self):
        assert TECH_40NM_LP_LVT.clamp_voltage(2.0) == TECH_40NM_LP_LVT.max_voltage
        assert TECH_40NM_LP_LVT.clamp_voltage(0.1) == TECH_40NM_LP_LVT.min_voltage

    def test_with_overrides(self):
        faster = TECH_40NM_LP_LVT.with_overrides(unit_delay_ps=50.0)
        assert faster.unit_delay_ps == 50.0
        assert faster.nominal_voltage == TECH_40NM_LP_LVT.nominal_voltage


class TestDelayModel:
    def test_stretch_is_one_at_nominal(self):
        assert delay_stretch(TECH_40NM_LP_LVT, 1.1) == pytest.approx(1.0)

    def test_stretch_monotonic_in_voltage(self):
        stretches = [delay_stretch(TECH_40NM_LP_LVT, v) for v in (1.1, 1.0, 0.9, 0.8, 0.75)]
        assert stretches == sorted(stretches)

    def test_calibrated_stretch_anchors(self):
        """The 40 nm corner roughly doubles delay at 0.9 V and ~8x at 0.75 V."""
        assert 1.7 <= delay_stretch(TECH_40NM_LP_LVT, 0.9) <= 2.5
        assert 5.0 <= delay_stretch(TECH_40NM_LP_LVT, 0.75) <= 11.0

    def test_below_threshold_rejected(self):
        with pytest.raises(ValueError):
            delay_stretch(TECH_40NM_LP_LVT, 0.5)

    def test_critical_path_slack(self):
        path = CriticalPath(logic_levels=10.0, technology=TECH_40NM_LP_LVT)
        slack = path.positive_slack_ns(1.1, 2.0)
        assert slack == pytest.approx(2.0 - path.delay_ns(1.1))
        assert path.meets_timing(1.1, 2.0) == (slack >= 0)


class TestEnergyModel:
    def test_voltage_scale_quadratic(self):
        assert voltage_energy_scale(TECH_40NM_LP_LVT, 0.55) == pytest.approx(0.25)

    def test_toggle_energy_linear_in_toggles(self):
        one = toggle_energy_pj(TECH_40NM_LP_LVT, 1.0, 1.1)
        thousand = toggle_energy_pj(TECH_40NM_LP_LVT, 1000.0, 1.1)
        assert thousand == pytest.approx(1000 * one)

    def test_dynamic_power_units(self):
        # 1 pF at activity 1, 1000 MHz, 1 V -> 1 mW.
        assert dynamic_power_mw(1.0, 1.0, 1000.0, 1.0) == pytest.approx(1.0)


class TestVoltageScaling:
    def test_minimum_voltage_monotonic_in_period(self):
        tight = minimum_voltage_for_period(TECH_40NM_LP_LVT, 18.0, 2.0)
        loose = minimum_voltage_for_period(TECH_40NM_LP_LVT, 18.0, 8.0)
        assert loose < tight

    def test_infeasible_period_rejected(self):
        with pytest.raises(ValueError):
            minimum_voltage_for_period(TECH_40NM_LP_LVT, 100.0, 0.5)


class TestClock:
    def test_constant_throughput(self):
        assert constant_throughput_frequency(500.0, 4) == 125.0
