"""Unit tests for the analytical DAS/DVAS/DVAFS power equations and Table I extraction."""

import pytest

from repro.core import (
    DvafsSystem,
    PAPER_TABLE_I,
    ScalingParameters,
    characterize_multiplier,
    multiplier_energy_curves,
)
from repro.core.operating_point import OperatingPoint


SYSTEM = DvafsSystem(
    as_capacitance_pf=20.0,
    nas_capacitance_pf=40.0,
    as_activity=0.5,
    nas_activity=0.4,
    base_frequency_mhz=500.0,
    nominal_voltage=1.1,
)


class TestScalingParameters:
    def test_paper_table_values(self):
        assert PAPER_TABLE_I[4].k0 == 12.5
        assert PAPER_TABLE_I[4].parallelism == 4
        assert PAPER_TABLE_I[16].k2 == 1.0

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            ScalingParameters(8, k0=0.5, k1=1.0, k2=1.0, k3=1.0, k4=1.0, k5=1.0, parallelism=1)


class TestPowerEquations:
    def test_full_precision_all_techniques_equal(self):
        scaling = PAPER_TABLE_I[16]
        das = SYSTEM.das_power(scaling).total_mw
        dvas = SYSTEM.dvas_power(scaling).total_mw
        dvafs = SYSTEM.dvafs_power(scaling).total_mw
        assert das == pytest.approx(dvas)
        assert das == pytest.approx(dvafs)

    def test_ordering_at_low_precision(self):
        """DVAFS < DVAS < DAS in energy per word at 4 bits (the paper's core claim)."""
        scaling = PAPER_TABLE_I[4]
        das = SYSTEM.das_energy_per_word_pj(scaling)
        dvas = SYSTEM.dvas_energy_per_word_pj(scaling)
        dvafs = SYSTEM.dvafs_energy_per_word_pj(scaling)
        assert dvafs < dvas < das

    def test_das_only_scales_as_part(self):
        scaling = PAPER_TABLE_I[4]
        split = SYSTEM.das_power(scaling)
        reference = SYSTEM.das_power(PAPER_TABLE_I[16])
        assert split.nas_mw == pytest.approx(reference.nas_mw)
        assert split.as_mw < reference.as_mw

    def test_dvafs_scales_nas_part_too(self):
        scaling = PAPER_TABLE_I[4]
        dvafs = SYSTEM.dvafs_power(scaling)
        dvas = SYSTEM.dvas_power(scaling)
        assert dvafs.nas_mw < dvas.nas_mw

    def test_dvfs_reference(self):
        half = SYSTEM.dvfs_power(250.0, 1.1)
        full = SYSTEM.dvfs_power(500.0, 1.1)
        assert half.total_mw == pytest.approx(full.total_mw / 2)

    def test_memory_domain_power(self):
        system = DvafsSystem(
            as_capacitance_pf=10.0,
            nas_capacitance_pf=10.0,
            as_activity=0.5,
            nas_activity=0.5,
            base_frequency_mhz=500.0,
            nominal_voltage=1.1,
            mem_capacitance_pf=10.0,
            mem_voltage=1.1,
        )
        split = system.dvafs_power(PAPER_TABLE_I[4])
        assert split.mem_mw > 0
        fractions = split.fractions()
        assert fractions["mem"] == pytest.approx(split.mem_mw / split.total_mw)


class TestCharacterization:
    def test_table1_shape(self, characterization):
        table = characterization.scaling_parameters()
        assert set(table) == {4, 8, 12, 16}
        assert table[4].parallelism == 4
        assert table[8].parallelism == 2
        assert table[16].parallelism == 1

    def test_k_factors_monotonic_in_precision(self, characterization):
        table = characterization.scaling_parameters()
        assert table[4].k0 > table[8].k0 > table[12].k0 >= table[16].k0
        assert table[4].k4 > table[8].k4 >= table[16].k4

    def test_k_factors_match_paper_within_factor_two(self, characterization):
        table = characterization.scaling_parameters()
        for precision, paper in PAPER_TABLE_I.items():
            ours = table[precision]
            assert ours.k0 == pytest.approx(paper.k0, rel=1.0)
            assert ours.k3 == pytest.approx(paper.k3, rel=0.6)
            assert ours.k4 == pytest.approx(paper.k4, rel=0.25)
            assert ours.parallelism == paper.parallelism

    def test_relative_activity_profiles(self, characterization):
        das = characterization.relative_activity("das")
        dvafs = characterization.relative_activity("dvafs")
        assert das[16] == pytest.approx(1.0, abs=0.05)
        # Per-cycle DVAFS activity drops less steeply than per-word DAS activity.
        assert dvafs[4] > das[4]
        with pytest.raises(ValueError):
            characterization.relative_activity("unknown")

    def test_energy_curves_reproduce_fig3a_shape(self, characterization):
        points = multiplier_energy_curves(characterization)
        by_key = {(p.technique, p.precision): p for p in points}
        # 21 % reconfiguration overhead at full precision.
        assert 1.1 < by_key[("DVAFS", 16)].relative_energy < 1.35
        # >95 % savings at 4x4b relative to the plain 16 b multiplier.
        assert by_key[("DVAFS", 4)].relative_energy < 0.08
        # DVAS sits between DAS and DVAFS at 4 bits.
        assert (
            by_key[("DVAFS", 4)].relative_energy
            < by_key[("DVAS", 4)].relative_energy
            < by_key[("DAS", 4)].relative_energy
        )

    def test_characterization_requires_reference_precision(self):
        with pytest.raises(ValueError):
            characterize_multiplier(precisions=(8, 4), samples=10)


class TestOperatingPoints:
    def test_invalid_operating_point(self):
        with pytest.raises(ValueError):
            OperatingPoint(0, 1, 100.0, 1.0, 1.0)
