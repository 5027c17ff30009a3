"""Precision-scalable multiply-accumulate (MAC) unit.

The processing elements of both the SIMD processor (Section III-B) and the
Envision chip (Section V) are MACs built around the subword-parallel DVAFS
multiplier.  This model adds the accumulator register and adder on top of
:class:`~repro.arithmetic.subword.SubwordParallelMultiplier`, including the
*guarding* mechanism used for sparsity: when one of the operands is zero the
multiplier inputs are not clocked, so the operation costs (almost) no energy
-- the mechanism behind the ">10 TOPS/W for sparse CONV layers" claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuit.technology import TECH_40NM_LP_LVT, Technology
from .fixed_point import wrap_signed
from .gates import cell_cost, popcount
from .multiplier import ActivityReport
from .subword import SubwordMode, SubwordParallelMultiplier


@dataclass
class MacStatistics:
    """Operation counts of a MAC stream.

    Attributes
    ----------
    operations:
        Total multiply-accumulate operations requested.
    guarded:
        Operations skipped by zero-guarding (at least one operand was zero).
    """

    operations: int = 0
    guarded: int = 0

    @property
    def executed(self) -> int:
        """Operations that actually exercised the multiplier."""
        return self.operations - self.guarded

    @property
    def guard_rate(self) -> float:
        """Fraction of operations that were guarded (0..1)."""
        if self.operations == 0:
            return 0.0
        return self.guarded / self.operations


class MacUnit:
    """A subword-parallel MAC with zero-guarding and a wide accumulator.

    Parameters
    ----------
    width:
        Physical multiplier operand width.
    accumulator_bits:
        Width of each accumulator register (one per subword lane).
    guard_zero_operands:
        Enable sparsity guarding: multiplications with a zero operand bypass
        the multiplier and cost only the guard-detection energy.
    """

    def __init__(
        self,
        width: int = 16,
        *,
        accumulator_bits: int = 48,
        technology: Technology = TECH_40NM_LP_LVT,
        guard_zero_operands: bool = True,
        reconfiguration_overhead: float = 0.21,
    ):
        if accumulator_bits < 2 * width:
            raise ValueError("accumulator_bits must be at least twice the operand width")
        self.width = width
        self.accumulator_bits = accumulator_bits
        self.technology = technology
        self.guard_zero_operands = guard_zero_operands
        self.multiplier = SubwordParallelMultiplier(
            width,
            technology=technology,
            reconfiguration_overhead=reconfiguration_overhead,
        )
        self.statistics = MacStatistics()
        self.activity = ActivityReport()
        self._accumulators = [0]
        self._previous_acc = [0]

    # -- configuration ------------------------------------------------------

    @property
    def mode(self) -> SubwordMode:
        """Current subword mode of the underlying multiplier."""
        return self.multiplier.mode

    def set_precision(self, bits: int) -> SubwordMode:
        """Select the DVAFS mode for ``bits`` precision and clear accumulators."""
        mode = self.multiplier.set_precision(bits)
        self._accumulators = [0] * mode.parallelism
        self._previous_acc = [0] * mode.parallelism
        return mode

    def set_mode(self, parallelism: int, subword_bits: int | None = None) -> SubwordMode:
        """Select an explicit subword mode and clear accumulators."""
        mode = self.multiplier.set_mode(parallelism, subword_bits)
        self._accumulators = [0] * mode.parallelism
        self._previous_acc = [0] * mode.parallelism
        return mode

    def clear(self) -> None:
        """Zero the accumulators (start of a new output pixel / neuron)."""
        self._accumulators = [0] * self.mode.parallelism

    def reset_activity(self) -> None:
        """Clear accumulated activity and statistics."""
        self.multiplier.reset_activity()
        self.activity = ActivityReport()
        self.statistics = MacStatistics()

    @property
    def accumulators(self) -> list[int]:
        """Current accumulator values, one per subword lane."""
        return list(self._accumulators)

    # -- behaviour ----------------------------------------------------------

    def multiply_accumulate(self, xs: list[int], ys: list[int]) -> list[int]:
        """Perform one MAC per lane; returns the updated accumulator values."""
        mode = self.mode
        if len(xs) != mode.parallelism or len(ys) != mode.parallelism:
            raise ValueError(
                f"mode {mode} expects {mode.parallelism} operand pairs"
            )
        self.statistics.operations += mode.parallelism

        guarded = [
            self.guard_zero_operands and (x == 0 or y == 0) for x, y in zip(xs, ys)
        ]
        if all(guarded):
            # The whole cycle is guarded: only the guard-detection logic
            # (a zero-compare per operand) toggles.
            self.statistics.guarded += mode.parallelism
            self.activity.record(
                "guard", mode.parallelism * cell_cost("and2").gate_equivalents
            )
            self.activity.words += mode.parallelism
            return self.accumulators

        effective_xs = [0 if g else x for g, x in zip(guarded, xs)]
        effective_ys = [0 if g else y for g, y in zip(guarded, ys)]
        self.statistics.guarded += sum(guarded)
        products = self.multiplier.multiply(effective_xs, effective_ys)
        self.activity = self.activity.merged_with(_take_multiplier_activity(self.multiplier))

        new_accumulators = []
        toggles = 0
        for lane, product in enumerate(products):
            updated = wrap_signed(self._accumulators[lane] + product, self.accumulator_bits)
            pattern_old = self._previous_acc[lane] & ((1 << self.accumulator_bits) - 1)
            updated_pattern = updated & ((1 << self.accumulator_bits) - 1)
            toggles += popcount(pattern_old ^ updated_pattern)
            self._previous_acc[lane] = updated
            new_accumulators.append(updated)
        self._accumulators = new_accumulators
        self.activity.record(
            "accumulator",
            toggles * cell_cost("full_adder").gate_equivalents / 2.0,
        )
        return self.accumulators

    def dot_product(
        self, xs: list[int], ys: list[int], *, batch: bool = True
    ) -> list[int]:
        """Accumulate an entire operand stream (``parallelism`` values per step).

        The stream is consumed ``parallelism`` elements at a time; the final
        accumulator values are returned.  With ``batch=True`` (the default)
        the whole stream -- zero-guarding, lane multiplications and
        accumulator updates -- is evaluated by the vectorised bit-plane
        engine, bit-identically to the scalar cycle loop (``batch=False``).
        """
        from .batch import MAX_BATCH_WIDTH

        mode = self.mode
        if len(xs) != len(ys):
            raise ValueError("operand streams must have equal length")
        if len(xs) % mode.parallelism:
            raise ValueError(
                f"stream length {len(xs)} is not a multiple of parallelism "
                f"{mode.parallelism}"
            )
        self.clear()
        if (
            batch
            and len(xs)
            and mode.subword_bits <= MAX_BATCH_WIDTH
            and self.accumulator_bits <= 64
        ):
            return self._dot_product_batch(xs, ys)
        for start in range(0, len(xs), mode.parallelism):
            self.multiply_accumulate(
                xs[start : start + mode.parallelism],
                ys[start : start + mode.parallelism],
            )
        return self.accumulators

    def _dot_product_batch(self, xs: list[int], ys: list[int]) -> list[int]:
        """Vectorised dot-product stream with scalar-identical accounting.

        Fully guarded cycles (every lane has a zero operand) bypass the
        multiplier and leave its toggle baseline untouched, exactly like the
        scalar :meth:`multiply_accumulate` guard branch; the remaining cycles
        run through the subword multiplier's batch stream and a wrapped
        cumulative-sum accumulator model.
        """
        from .batch import bit_count

        mode = self.mode
        parallelism = mode.parallelism
        x = np.asarray(xs, dtype=np.int64).reshape(-1, parallelism)
        y = np.asarray(ys, dtype=np.int64).reshape(-1, parallelism)
        self.statistics.operations += x.size

        if self.guard_zero_operands:
            guarded = (x == 0) | (y == 0)
        else:
            guarded = np.zeros_like(x, dtype=bool)
        all_guarded = guarded.all(axis=1)
        fully_guarded_cycles = int(all_guarded.sum())
        self.statistics.guarded += int(guarded[all_guarded].sum())
        if fully_guarded_cycles:
            self.activity.record(
                "guard",
                fully_guarded_cycles * parallelism * cell_cost("and2").gate_equivalents,
            )
            self.activity.words += fully_guarded_cycles * parallelism

        executed = ~all_guarded
        if not executed.any():
            return self.accumulators
        effective_x = np.where(guarded[executed], 0, x[executed])
        effective_y = np.where(guarded[executed], 0, y[executed])
        self.statistics.guarded += int(guarded[executed].sum())

        products = self.multiplier.multiply_stream(
            effective_x.reshape(-1), effective_y.reshape(-1), batch=True
        )
        self.activity = self.activity.merged_with(_take_multiplier_activity(self.multiplier))

        products = np.asarray(products, dtype=np.int64).reshape(-1, parallelism)
        acc_mask = np.uint64((1 << self.accumulator_bits) - 1)
        # Wrapped running sums: int64 wraparound is harmless because the
        # accumulator pattern is taken modulo 2**accumulator_bits anyway.
        running = np.cumsum(products, axis=0, dtype=np.int64)
        patterns = running.astype(np.uint64) & acc_mask
        flips = patterns.copy()
        flips[1:] ^= patterns[:-1]
        flips[0] ^= np.array(
            [previous & int(acc_mask) for previous in self._previous_acc],
            dtype=np.uint64,
        )
        self.activity.record(
            "accumulator",
            int(bit_count(flips).sum()) * cell_cost("full_adder").gate_equivalents / 2.0,
        )

        final = [wrap_signed(int(value), self.accumulator_bits) for value in running[-1]]
        self._accumulators = list(final)
        self._previous_acc = list(final)
        return self.accumulators

    def energy_per_operation_pj(self, voltage: float) -> float:
        """Average dynamic energy per MAC operation at ``voltage`` (pJ)."""
        if self.statistics.operations == 0:
            raise ValueError("no operations executed")
        total = self.activity.energy_pj(self.technology, voltage)
        return total / self.statistics.operations


def _take_multiplier_activity(multiplier: SubwordParallelMultiplier) -> ActivityReport:
    """Drain the multiplier's accumulated activity into a fresh report."""
    report = multiplier.activity
    multiplier.activity = ActivityReport()
    return report
