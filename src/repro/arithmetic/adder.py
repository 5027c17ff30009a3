"""Carry-lookahead cost model of the Booth-Wallace multiplier's final adder.

Only the adder's activity and depth matter for the energy analysis, so it is
a *cost model* (logic levels / gate equivalents), not a netlist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gates import cell_cost


@dataclass(frozen=True)
class CarryLookaheadModel:
    """Cost model of a carry-lookahead final adder of a given width.

    A CLA of width ``w`` has a logic depth of roughly ``log2(w)`` lookahead
    stages plus the propagate/generate and sum stages, and an area of a few
    gate equivalents per bit.
    """

    width: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("width must be at least 1")

    @property
    def critical_path_levels(self) -> float:
        """Logic depth of the adder in reference levels."""
        lookahead_stages = max(1.0, math.ceil(math.log2(self.width)))
        return (lookahead_stages + 1.0) * cell_cost("cla_stage").logic_levels

    @property
    def gate_equivalents(self) -> float:
        """Area of the adder in gate equivalents."""
        return self.width * cell_cost("cla_stage").gate_equivalents

    @property
    def gate_equivalents_per_bit(self) -> float:
        """Energy weight per toggling output bit of the adder."""
        return cell_cost("cla_stage").gate_equivalents
