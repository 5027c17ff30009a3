"""Precision-gated Booth-encoded Wallace-tree multiplier (DAS / DVAS datapath).

This is the structural model behind Section III-A of the paper: a signed
``width x width`` multiplier whose input LSBs can be gated at run time.
Every multiplication is executed stage by stage on real bit patterns --
operand registers, Booth encoding, partial-product generation, carry-save
reduction, final addition -- and the bit flips of every stage are accumulated
as gate-equivalent toggles.  The critical path of each precision mode is
reported in logic levels so that the circuit-level delay model can answer
"what supply does this mode need at 500 MHz?" (Fig. 2b/2c).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..circuit.delay import CriticalPath
from ..circuit.energy import toggle_energy_pj
from ..circuit.technology import TECH_40NM_LP_LVT, Technology
from .adder import CarryLookaheadModel
from .booth import booth_digit_count, digit_to_code, generate_partial_products
from .fixed_point import (
    from_twos_complement,
    round_lsbs,
    signed_range,
    to_twos_complement,
    truncate_lsbs,
)
from .gates import cell_cost, popcount
from .wallace import reduce_rows, wallace_levels

#: Gate-equivalent weight applied to each toggling bit of a stage.  The
#: Wallace and final-adder weights are per *output bit* of the respective
#: compressor / adder cell.
STAGE_WEIGHTS = {
    "input": cell_cost("register_bit").gate_equivalents,
    "booth_encode": cell_cost("booth_encoder").gate_equivalents,
    "pp_generate": cell_cost("booth_selector").gate_equivalents,
    "wallace": cell_cost("full_adder").gate_equivalents / 2.0,
    "final_adder": cell_cost("cla_stage").gate_equivalents / 2.0,
}


@dataclass
class ActivityReport:
    """Accumulated switching activity of a multiplier (or MAC) stream.

    Attributes
    ----------
    stage_toggles:
        Weighted (gate-equivalent) toggles per pipeline stage.
    words:
        Number of result words produced while accumulating.
    """

    stage_toggles: dict[str, float] = field(default_factory=dict)
    words: int = 0

    def record(self, stage: str, weighted_toggles: float) -> None:
        """Add ``weighted_toggles`` gate-equivalent toggles to ``stage``."""
        if weighted_toggles < 0:
            raise ValueError("weighted_toggles must be non-negative")
        self.stage_toggles[stage] = self.stage_toggles.get(stage, 0.0) + weighted_toggles

    @property
    def total_weighted_toggles(self) -> float:
        """Total gate-equivalent toggles across all stages."""
        return float(sum(self.stage_toggles.values()))

    @property
    def toggles_per_word(self) -> float:
        """Average gate-equivalent toggles per produced word."""
        if self.words <= 0:
            raise ValueError("no words recorded")
        return self.total_weighted_toggles / self.words

    def energy_pj(self, technology: Technology, voltage: float) -> float:
        """Total dynamic energy (pJ) of the stream at ``voltage``."""
        return toggle_energy_pj(technology, self.total_weighted_toggles, voltage)

    def energy_per_word_pj(self, technology: Technology, voltage: float) -> float:
        """Dynamic energy per word (pJ) of the stream at ``voltage``."""
        if self.words <= 0:
            raise ValueError("no words recorded")
        return self.energy_pj(technology, voltage) / self.words

    def merged_with(self, other: "ActivityReport") -> "ActivityReport":
        """Combine two reports (stage-wise sum, words added)."""
        merged = ActivityReport(stage_toggles=dict(self.stage_toggles), words=self.words)
        for stage, toggles in other.stage_toggles.items():
            merged.record(stage, toggles)
        merged.words += other.words
        return merged


class BoothWallaceMultiplier:
    """Signed Booth-Wallace multiplier with run-time precision gating.

    Parameters
    ----------
    width:
        Physical operand width in bits (the paper uses 16).
    technology:
        Technology corner for delay/energy conversion.
    rounding:
        If true, gated operands are rounded to the active precision instead
        of truncated (used by the rounding ablation).
    """

    def __init__(
        self,
        width: int = 16,
        *,
        technology: Technology = TECH_40NM_LP_LVT,
        rounding: bool = False,
    ):
        if width < 4 or width % 2:
            raise ValueError("width must be an even number >= 4")
        self.width = width
        self.technology = technology
        self.rounding = rounding
        self._precision = width
        self._previous: dict[str, object] = {}
        self.activity = ActivityReport()

    # -- configuration ------------------------------------------------------

    @property
    def precision(self) -> int:
        """Currently active number of input bits."""
        return self._precision

    def set_precision(self, bits: int) -> None:
        """Gate the operands down to ``bits`` active MSBs."""
        if not 2 <= bits <= self.width:
            raise ValueError(f"precision must be in [2, {self.width}], got {bits}")
        self._precision = bits

    def reset_activity(self) -> None:
        """Clear accumulated toggles and the toggle baseline."""
        self._previous = {}
        self.activity = ActivityReport()

    def take_activity(self) -> ActivityReport:
        """Return the accumulated activity and start a fresh report.

        Unlike :meth:`reset_activity` this keeps the toggle baseline (the bit
        patterns of the previous operation), so callers that drain activity
        every cycle -- such as the subword-parallel wrapper -- still count
        transitions between consecutive operations correctly.
        """
        report = self.activity
        self.activity = ActivityReport()
        return report

    # -- structure ----------------------------------------------------------

    @property
    def product_bits(self) -> int:
        """Width of the full product."""
        return 2 * self.width

    def partial_product_rows(self, precision: int | None = None) -> int:
        """Number of non-gated Booth partial products at a given precision."""
        precision = self._precision if precision is None else precision
        return booth_digit_count(precision)

    def critical_path_levels(self, precision: int | None = None) -> float:
        """Logic depth (reference levels) of the active path at ``precision``.

        The multi-mode synthesis constraint of the paper guarantees that the
        path through gated logic is never critical, so the active path is the
        one of an equivalent ``precision``-bit multiplier feeding a final
        adder sized for the active product bits.
        """
        precision = self._precision if precision is None else precision
        if not 2 <= precision <= self.width:
            raise ValueError(f"precision must be in [2, {self.width}]")
        rows = booth_digit_count(precision)
        encoder = cell_cost("booth_encoder").logic_levels
        selector = cell_cost("booth_selector").logic_levels
        tree = wallace_levels(rows) * cell_cost("full_adder").logic_levels
        final = CarryLookaheadModel(2 * precision).critical_path_levels
        return encoder + selector + tree + final

    def critical_path(self, precision: int | None = None) -> CriticalPath:
        """Critical path of the mode bound to this multiplier's technology."""
        return CriticalPath(
            logic_levels=self.critical_path_levels(precision), technology=self.technology
        )

    @property
    def gate_equivalents(self) -> float:
        """Area estimate of the full-precision multiplier in gate equivalents."""
        rows = booth_digit_count(self.width)
        encoders = rows * cell_cost("booth_encoder").gate_equivalents
        selectors = rows * self.width * cell_cost("booth_selector").gate_equivalents
        compressors = (
            wallace_levels(rows) * rows * self.width / 2.0
        ) * cell_cost("full_adder").gate_equivalents
        final = CarryLookaheadModel(self.product_bits).gate_equivalents
        registers = 2 * self.width * cell_cost("register_bit").gate_equivalents
        return encoders + selectors + compressors + final + registers

    # -- behaviour ----------------------------------------------------------

    def _gate_operand(self, value: int) -> int:
        if self.rounding:
            return round_lsbs(value, self.width, self._precision)
        return truncate_lsbs(value, self.width, self._precision)

    def _count_pattern(self, stage: str, key: str, patterns: list[int]) -> None:
        previous = self._previous.get(key)
        if previous is None:
            previous = [0] * len(patterns)
        toggles = 0
        for old, new in zip(previous, patterns):
            toggles += popcount(old ^ new)
        # Rows that appear/disappear when the mode changes also toggle.
        longer, shorter = (patterns, previous) if len(patterns) > len(previous) else (previous, patterns)
        for extra in longer[len(shorter) :]:
            toggles += popcount(extra)
        self._previous[key] = list(patterns)
        self.activity.record(stage, toggles * STAGE_WEIGHTS[stage])

    def multiply(self, x: int, y: int) -> int:
        """Multiply two signed operands at the current precision.

        The returned value is the exact product of the *gated* operands, i.e.
        the arithmetic the approximate hardware actually performs.
        """
        lo, hi = signed_range(self.width)
        if not (lo <= x <= hi and lo <= y <= hi):
            raise ValueError(
                f"operands must fit in {self.width} signed bits, got {x}, {y}"
            )
        gated_x = self._gate_operand(x)
        gated_y = self._gate_operand(y)

        # Stage 1: operand registers.
        self._count_pattern(
            "input",
            "input",
            [
                to_twos_complement(gated_x, self.width),
                to_twos_complement(gated_y, self.width),
            ],
        )

        # Stage 2: Booth encoding of the multiplier operand.
        partial_products = generate_partial_products(gated_x, gated_y, self.width)
        digit_codes = [digit_to_code(pp.digit) for pp in partial_products]
        self._count_pattern("booth_encode", "booth", digit_codes)

        # Stage 3: partial-product selection.
        mask = (1 << self.product_bits) - 1
        pp_patterns = [pp.value & mask for pp in partial_products]
        self._count_pattern("pp_generate", "pp", pp_patterns)

        # Stage 4: Wallace (carry-save) reduction.
        reduction = reduce_rows(pp_patterns, self.product_bits)
        for level_index, level in enumerate(reduction.levels):
            self._count_pattern("wallace", f"wallace{level_index}", level.rows)

        # Stage 5: final carry-propagate addition.
        product_pattern = (reduction.sum_row + reduction.carry_row) & mask
        self._count_pattern("final_adder", "final", [product_pattern])

        self.activity.words += 1
        return from_twos_complement(product_pattern, self.product_bits)

    def multiply_stream(
        self, xs: np.ndarray | list[int], ys: np.ndarray | list[int], *, batch: bool = True
    ) -> list[int]:
        """Multiply two equal-length operand streams, accumulating activity.

        With ``batch=True`` (the default) the stream is evaluated by the
        vectorised bit-plane engine of :mod:`repro.arithmetic.batch`, which
        is bit-identical to the scalar walk (same products, same toggle
        accounting, same baseline state) but orders of magnitude faster.
        ``batch=False`` forces the scalar golden-reference path.
        """
        if len(xs) != len(ys):
            raise ValueError("operand streams must have equal length")
        from .batch import MAX_BATCH_WIDTH, batch_multiply

        if batch and self.width <= MAX_BATCH_WIDTH:
            return [int(v) for v in batch_multiply(self, xs, ys).products]
        xs = [int(v) for v in xs]
        ys = [int(v) for v in ys]
        return [self.multiply(x, y) for x, y in zip(xs, ys)]
