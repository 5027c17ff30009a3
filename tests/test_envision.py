"""Unit and integration tests for the Envision chip model."""

import pytest

from repro.envision import (
    EnvisionChip,
    EnvisionPowerModel,
    EnvisionScheduler,
    LayerWorkload,
    PAPER_TABLE_III_WORKLOADS,
    mode_for_precision,
)


class TestModes:
    def test_mode_selection(self):
        assert mode_for_precision(4).label == "4x4b"
        assert mode_for_precision(5).label == "2x8b"
        assert mode_for_precision(9).label == "1x16b"

    def test_too_many_bits_rejected(self):
        with pytest.raises(ValueError):
            mode_for_precision(20)

    def test_constant_throughput_operating_points(self):
        mode = mode_for_precision(4)
        point = mode.operating_point(constant_throughput=True)
        assert point.frequency_mhz == pytest.approx(50.0)
        assert point.as_voltage == pytest.approx(0.65)
        assert point.frequency_mhz * point.parallelism == pytest.approx(200.0)


class TestPowerModel:
    def test_reference_point(self):
        model = EnvisionPowerModel()
        breakdown = model.power(
            precision=16, parallelism=1, frequency_mhz=200.0, as_voltage=1.1, nas_voltage=1.1
        )
        assert breakdown.total_mw == pytest.approx(300.0, rel=1e-6)
        assert sum(breakdown.fractions().values()) == pytest.approx(1.0)

    def test_sparsity_reduces_power(self):
        model = EnvisionPowerModel()
        dense = model.power(
            precision=8, parallelism=2, frequency_mhz=100.0, as_voltage=0.8, nas_voltage=0.8
        )
        sparse = model.power(
            precision=8,
            parallelism=2,
            frequency_mhz=100.0,
            as_voltage=0.8,
            nas_voltage=0.8,
            weight_sparsity=0.3,
            input_sparsity=0.7,
        )
        assert sparse.total_mw < dense.total_mw

    def test_actual_precision_gating_inside_mode(self):
        model = EnvisionPowerModel()
        full = model.power(
            precision=16, parallelism=1, frequency_mhz=200.0, as_voltage=1.03, nas_voltage=1.03
        )
        gated = model.power(
            precision=16,
            parallelism=1,
            frequency_mhz=200.0,
            as_voltage=1.03,
            nas_voltage=1.03,
            actual_precision=9,
        )
        assert gated.total_mw < full.total_mw

    def test_actual_precision_cannot_exceed_mode(self):
        model = EnvisionPowerModel()
        with pytest.raises(ValueError):
            model.power(
                precision=8,
                parallelism=2,
                frequency_mhz=100.0,
                as_voltage=0.8,
                nas_voltage=0.8,
                actual_precision=12,
            )

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValueError):
            EnvisionPowerModel(fractions={"mac_array": 0.5, "accumulation": 0.1, "memory": 0.1, "control": 0.1})


class TestChip:
    def test_peak_throughput_figures(self):
        chip = EnvisionChip()
        assert chip.specs.peak_gops(1) == pytest.approx(102.4, rel=0.01)
        assert chip.specs.peak_gops(4) == pytest.approx(409.6, rel=0.01)
        assert chip.specs.effective_gops(1) == pytest.approx(74.8, rel=0.01)

    def test_fig8_headline_gains(self):
        """Constant-throughput DVAFS beats DAS by ~7x and DVAS by ~4x at 4 bits."""
        from repro.experiments.fig8 import headline_gains, run

        gains = headline_gains(run())
        assert 4.0 <= gains["dvafs_vs_das_4b"] <= 11.0
        assert 2.5 <= gains["dvafs_vs_dvas_4b"] <= 7.0
        assert gains["dvafs_16b_to_4b_range"] > 10.0

    def test_constant_throughput_cheaper_than_constant_frequency(self):
        chip = EnvisionChip()
        const_f = {
            (r["technique"], r["precision"]): r["relative_energy_per_word"]
            for r in chip.energy_per_word_curve(constant_throughput=False)
        }
        const_t = {
            (r["technique"], r["precision"]): r["relative_energy_per_word"]
            for r in chip.energy_per_word_curve(constant_throughput=True)
        }
        assert const_t[("DVAFS", 4)] < const_f[("DVAFS", 4)]

    def test_efficiency_range_covers_paper_span(self):
        """Envision spans roughly 0.3 -> 4 TOPS/W from 1x16b to 4x4b."""
        chip = EnvisionChip()
        rows = chip.energy_per_word_curve(constant_throughput=True)
        efficiencies = {
            (r["technique"], r["precision"]): r["tops_per_watt"] for r in rows
        }
        assert 0.2 <= efficiencies[("DAS", 16)] <= 0.4
        assert 3.0 <= efficiencies[("DVAFS", 4)] <= 7.0

    def test_run_layer_energy_scales_with_macs(self):
        chip = EnvisionChip()
        small = chip.run_layer(name="s", macs=1_000_000, weight_bits=8, activation_bits=8)
        large = chip.run_layer(name="l", macs=2_000_000, weight_bits=8, activation_bits=8)
        assert large.energy_uj == pytest.approx(2 * small.energy_uj, rel=1e-6)


class TestScheduler:
    def test_table3_totals_within_factor_two(self):
        scheduler = EnvisionScheduler()
        expectations = {"VGG16": (26.0, 2.0), "AlexNet": (44.0, 1.8), "LeNet-5": (25.0, 3.0)}
        for network, workloads in PAPER_TABLE_III_WORKLOADS.items():
            schedule = scheduler.schedule_network(network, workloads)
            paper_power, paper_eff = expectations[network]
            assert schedule.average_power_mw == pytest.approx(paper_power, rel=0.6)
            assert schedule.tops_per_watt == pytest.approx(paper_eff, rel=0.6)

    def test_lenet_most_efficient_network(self):
        """Simple tasks run at higher efficiency than complex ones (the paper's point)."""
        scheduler = EnvisionScheduler()
        efficiency = {
            name: scheduler.schedule_network(name, workloads).tops_per_watt
            for name, workloads in PAPER_TABLE_III_WORKLOADS.items()
        }
        assert efficiency["LeNet-5"] > efficiency["AlexNet"]

    def test_mode_assignment_follows_precision(self):
        scheduler = EnvisionScheduler()
        schedule = scheduler.schedule_network("AlexNet", PAPER_TABLE_III_WORKLOADS["AlexNet"])
        modes = {layer.layer: layer.mode_label for layer in schedule.layers}
        assert modes["AlexNet1"] == "2x8b"
        assert modes["AlexNet3"] == "1x16b"

    def test_per_layer_beats_uniform_worst_case(self):
        scheduler = EnvisionScheduler()
        workloads = PAPER_TABLE_III_WORKLOADS["LeNet-5"]
        adaptive = scheduler.schedule_network("LeNet-5", workloads)
        uniform = scheduler.schedule_uniform("LeNet-5", workloads)
        assert adaptive.total_energy_uj < uniform.total_energy_uj

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError):
            EnvisionScheduler().schedule_network("empty", [])

    def test_workload_validation(self):
        with pytest.raises(ValueError):
            LayerWorkload("bad", macs=-1, weight_bits=8, activation_bits=8)
