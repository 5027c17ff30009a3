"""Cell library: gate-equivalent costs and logic levels.

The structural arithmetic models account for energy in *gate-equivalent
toggles*: every bit that flips in a given stage of the datapath contributes
the stage's gate-equivalent weight.  Delay is accounted in *logic levels*
(reference cell delays) so that the circuit-level delay model can translate a
path into nanoseconds at any supply voltage.
"""

from __future__ import annotations

from dataclasses import dataclass


def popcount(value: int) -> int:
    """Number of set bits in a non-negative integer."""
    if value < 0:
        raise ValueError("popcount is defined for non-negative integers")
    return bin(value).count("1")


@dataclass(frozen=True)
class CellCost:
    """Area/energy and delay cost of one cell type.

    Attributes
    ----------
    gate_equivalents:
        Energy/area weight expressed in NAND2-equivalent gates; one toggle of
        this cell's output costs ``gate_equivalents`` reference toggles.
    logic_levels:
        Delay contribution in reference logic levels when the cell sits on
        the critical path.
    """

    gate_equivalents: float
    logic_levels: float


#: Cost table for the cells used by the arithmetic generators.  Values are
#: typical standard-cell figures (NAND2 = 1 GE); absolute calibration happens
#: against the paper's 16 b multiplier energy in :mod:`repro.core.scaling`.
CELL_COSTS: dict[str, CellCost] = {
    "inv": CellCost(gate_equivalents=0.5, logic_levels=0.5),
    "nand2": CellCost(gate_equivalents=1.0, logic_levels=1.0),
    "and2": CellCost(gate_equivalents=1.25, logic_levels=1.0),
    "or2": CellCost(gate_equivalents=1.25, logic_levels=1.0),
    "xor2": CellCost(gate_equivalents=2.0, logic_levels=1.2),
    "mux2": CellCost(gate_equivalents=2.0, logic_levels=1.0),
    "half_adder": CellCost(gate_equivalents=3.0, logic_levels=1.2),
    "full_adder": CellCost(gate_equivalents=4.5, logic_levels=2.0),
    "booth_encoder": CellCost(gate_equivalents=5.0, logic_levels=1.5),
    "booth_selector": CellCost(gate_equivalents=2.5, logic_levels=1.0),
    "register_bit": CellCost(gate_equivalents=4.0, logic_levels=0.5),
    "cla_stage": CellCost(gate_equivalents=6.0, logic_levels=1.4),
}


def cell_cost(name: str) -> CellCost:
    """Look up the cost entry of a cell type.

    Raises
    ------
    KeyError
        If the cell type is unknown.
    """
    try:
        return CELL_COSTS[name]
    except KeyError as exc:
        known = ", ".join(sorted(CELL_COSTS))
        raise KeyError(f"unknown cell type {name!r}; known: {known}") from exc
