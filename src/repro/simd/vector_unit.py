"""Precision-scalable vector datapath of the SIMD processor.

Each of the ``SW`` lanes contains a subword-parallel MAC: in the ``1 x 16b``
mode a lane performs one 16-bit MAC per cycle, in ``2 x 8b`` two 8-bit MACs
on packed operands, and in ``4 x 4b`` four 4-bit MACs.  The unit keeps event
counters (MAC operations, ALU operations, guarded operations) that the power
model converts into energy per mode.

For speed the lane arithmetic is vectorised with numpy; the per-operation
switching activity of the datapath is taken from the structural multiplier
characterisation rather than re-simulated per lane, which keeps the
system-level simulation fast while staying anchored to the gate-level model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arithmetic.fixed_point import signed_range
from ..arithmetic.subword import SubwordMode


@dataclass
class VectorUnitCounters:
    """Event counters of the vector datapath."""

    mac_operations: int = 0
    guarded_macs: int = 0
    alu_operations: int = 0
    mac_cycles: int = 0


class VectorUnit:
    """``lanes``-wide precision-scalable vector ALU/MAC array.

    Parameters
    ----------
    lanes:
        SIMD width SW.
    word_bits:
        Physical element width (16).
    guard_zero_operands:
        Skip multiplier activity when an operand is zero (sparsity guarding).
    """

    def __init__(self, lanes: int, *, word_bits: int = 16, guard_zero_operands: bool = True):
        if lanes < 1:
            raise ValueError("lanes must be at least 1")
        if word_bits < 4 or word_bits % 2:
            raise ValueError("word_bits must be an even number >= 4")
        self.lanes = lanes
        self.word_bits = word_bits
        self.guard_zero_operands = guard_zero_operands
        self._mode = SubwordMode(parallelism=1, subword_bits=word_bits)
        self.counters = VectorUnitCounters()

    # -- configuration ------------------------------------------------------

    @property
    def mode(self) -> SubwordMode:
        """Current subword mode."""
        return self._mode

    def set_precision(self, bits: int) -> SubwordMode:
        """Configure the DVAFS mode for ``bits`` of precision."""
        if not 2 <= bits <= self.word_bits:
            raise ValueError(f"precision must be in [2, {self.word_bits}]")
        if self.word_bits % bits == 0:
            self._mode = SubwordMode(parallelism=self.word_bits // bits, subword_bits=bits)
        else:
            self._mode = SubwordMode(parallelism=1, subword_bits=self.word_bits)
        return self._mode

    def reset_counters(self) -> None:
        """Clear the event counters."""
        self.counters = VectorUnitCounters()

    # -- packed-subword helpers ---------------------------------------------

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        """Unpack ``(..., lanes)`` packed words into ``(..., lanes, N)`` signed
        subwords.

        Accepts any leading batch dimensions: the per-cycle interpreter passes
        ``(lanes,)`` vectors, the trace engine whole ``(iterations, lanes)``
        traces; both decode through this single implementation.
        """
        packed = np.asarray(packed, dtype=np.int64)
        mode = self._mode
        bits = mode.subword_bits
        mask = (1 << bits) - 1
        unsigned = packed.astype(np.int64) & ((1 << self.word_bits) - 1)
        lanes = []
        for index in range(mode.parallelism):
            chunk = (unsigned >> (index * bits)) & mask
            chunk = np.where(chunk >= (1 << (bits - 1)), chunk - (1 << bits), chunk)
            lanes.append(chunk)
        return np.stack(lanes, axis=-1)

    def pack(self, subwords: np.ndarray) -> np.ndarray:
        """Pack ``(lanes, N)`` signed subwords into ``(lanes,)`` words."""
        subwords = np.asarray(subwords, dtype=np.int64)
        mode = self._mode
        if subwords.shape != (self.lanes, mode.parallelism):
            raise ValueError(
                f"expected shape ({self.lanes}, {mode.parallelism}), got {subwords.shape}"
            )
        bits = mode.subword_bits
        lo, hi = signed_range(bits)
        if np.any(subwords < lo) or np.any(subwords > hi):
            raise ValueError(f"subwords must fit in {bits} signed bits")
        packed = np.zeros(self.lanes, dtype=np.int64)
        for index in range(mode.parallelism):
            packed |= (subwords[:, index] & ((1 << bits) - 1)) << (index * bits)
        sign_bit = 1 << (self.word_bits - 1)
        packed = np.where(packed >= sign_bit, packed - (1 << self.word_bits), packed)
        return packed

    # -- arithmetic ----------------------------------------------------------

    def multiply_accumulate(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per-lane subword MAC: returns ``(lanes,)`` sums of subword products.

        In ``1 x 16b`` mode this is a plain element-wise product; in the
        subword modes the packed subwords of each lane are multiplied
        pairwise and their products *summed* per lane, which is exactly the
        dot-product-style reduction the convolution kernel needs (N taps are
        consumed per cycle).
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.shape != (self.lanes,) or b.shape != (self.lanes,):
            raise ValueError(f"operands must have shape ({self.lanes},)")
        mode = self._mode
        sub_a = self.unpack(a)
        sub_b = self.unpack(b)
        products = sub_a * sub_b

        operations = self.lanes * mode.parallelism
        self.counters.mac_operations += operations
        self.counters.mac_cycles += 1
        if self.guard_zero_operands:
            guarded = int(np.sum((sub_a == 0) | (sub_b == 0)))
            self.counters.guarded_macs += guarded
        return products.sum(axis=1)

    def elementwise(self, operation: str, a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
        """Element-wise vector ALU operation (``add``, ``mul``, ``relu``)."""
        a = np.asarray(a, dtype=np.int64)
        if a.shape != (self.lanes,):
            raise ValueError(f"operands must have shape ({self.lanes},)")
        self.counters.alu_operations += self.lanes
        if operation == "relu":
            return np.maximum(a, 0)
        if b is None:
            raise ValueError(f"operation {operation!r} needs two operands")
        b = np.asarray(b, dtype=np.int64)
        if b.shape != (self.lanes,):
            raise ValueError(f"operands must have shape ({self.lanes},)")
        if operation == "add":
            return a + b
        if operation == "mul":
            return a * b
        raise ValueError(f"unknown vector operation {operation!r}")
