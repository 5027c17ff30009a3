"""Unit tests for the cell library and carry-lookahead adder model."""

import pytest

from repro.arithmetic.adder import CarryLookaheadModel
from repro.arithmetic.gates import CELL_COSTS, cell_cost, popcount


class TestBitUtilities:
    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(0b1011) == 3

    def test_popcount_rejects_negative(self):
        with pytest.raises(ValueError):
            popcount(-1)


class TestCellCosts:
    def test_all_entries_positive(self):
        for cost in CELL_COSTS.values():
            assert cost.gate_equivalents > 0
            assert cost.logic_levels > 0

    def test_unknown_cell(self):
        with pytest.raises(KeyError):
            cell_cost("quantum_gate")

    def test_full_adder_bigger_than_half_adder(self):
        assert cell_cost("full_adder").gate_equivalents > cell_cost("half_adder").gate_equivalents


class TestCarryLookaheadModel:
    def test_logarithmic_depth(self):
        ripple_carry_levels = 32 * cell_cost("full_adder").logic_levels
        assert CarryLookaheadModel(32).critical_path_levels < ripple_carry_levels

    def test_depth_monotonic_in_width(self):
        depths = [CarryLookaheadModel(w).critical_path_levels for w in (8, 16, 32, 64)]
        assert depths == sorted(depths)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            CarryLookaheadModel(0)
