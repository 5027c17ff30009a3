"""Scalar and vector register files of the SIMD processor."""

from __future__ import annotations

import numpy as np

from ..arithmetic.fixed_point import wrap_signed
from .isa import SCALAR_REGISTERS, VECTOR_REGISTERS


class ScalarRegisterFile:
    """Sixteen general-purpose scalar registers; ``r0`` is hard-wired to zero."""

    def __init__(self, width_bits: int = 32):
        if width_bits < 8:
            raise ValueError("width_bits must be at least 8")
        self.width_bits = width_bits
        self._registers = [0] * SCALAR_REGISTERS
        self.reads = 0
        self.writes = 0

    def read(self, index: int) -> int:
        """Read register ``index`` (r0 always returns 0)."""
        if not 0 <= index < SCALAR_REGISTERS:
            raise IndexError(f"scalar register {index} out of range")
        self.reads += 1
        return self._registers[index]

    def write(self, index: int, value: int) -> None:
        """Write register ``index``; writes to r0 are silently dropped."""
        if not 0 <= index < SCALAR_REGISTERS:
            raise IndexError(f"scalar register {index} out of range")
        self.writes += 1
        if index == 0:
            return
        self._registers[index] = wrap_signed(int(value), self.width_bits)

    def dump(self) -> list[int]:
        """Snapshot of all register values."""
        return list(self._registers)


class VectorRegisterFile:
    """Eight vector registers of ``lanes`` elements plus per-lane accumulators.

    Vector elements are ``element_bits`` wide (16 in the paper's processor);
    accumulators are wider (``accumulator_bits``) so convolution sums do not
    overflow, exactly like a hardware MAC accumulator.
    """

    def __init__(self, lanes: int, *, element_bits: int = 16, accumulator_bits: int = 48):
        if lanes < 1:
            raise ValueError("lanes must be at least 1")
        if element_bits < 2:
            raise ValueError("element_bits must be at least 2")
        if accumulator_bits < 2 * element_bits:
            raise ValueError("accumulator_bits must be at least twice element_bits")
        self.lanes = lanes
        self.element_bits = element_bits
        self.accumulator_bits = accumulator_bits
        self._registers = np.zeros((VECTOR_REGISTERS, lanes), dtype=np.int64)
        self._accumulators = np.zeros(lanes, dtype=np.int64)
        self.reads = 0
        self.writes = 0

    def read(self, index: int) -> np.ndarray:
        """Read vector register ``index`` (a copy)."""
        if not 0 <= index < VECTOR_REGISTERS:
            raise IndexError(f"vector register {index} out of range")
        self.reads += 1
        return self._registers[index].copy()

    def write(self, index: int, values: np.ndarray) -> None:
        """Write vector register ``index``, wrapping each lane to element width."""
        if not 0 <= index < VECTOR_REGISTERS:
            raise IndexError(f"vector register {index} out of range")
        values = np.asarray(values, dtype=np.int64)
        if values.shape != (self.lanes,):
            raise ValueError(f"expected {self.lanes} lanes, got shape {values.shape}")
        self.writes += 1
        self._registers[index] = _wrap_array(values, self.element_bits)

    @property
    def accumulators(self) -> np.ndarray:
        """Copy of the per-lane accumulators."""
        return self._accumulators.copy()

    def clear_accumulators(self) -> None:
        """Zero every lane accumulator."""
        self._accumulators[:] = 0

    def accumulate(self, values: np.ndarray) -> None:
        """Add ``values`` into the accumulators (wrapping at accumulator width)."""
        values = np.asarray(values, dtype=np.int64)
        if values.shape != (self.lanes,):
            raise ValueError(f"expected {self.lanes} lanes, got shape {values.shape}")
        self._accumulators = _wrap_array(self._accumulators + values, self.accumulator_bits)

    def saturate_accumulators(self) -> np.ndarray:
        """Accumulators clamped to the element range (the VSTACC behaviour)."""
        return saturate_to_element_range(self._accumulators, self.element_bits)


def saturate_to_element_range(values: np.ndarray, element_bits: int) -> np.ndarray:
    """Clamp accumulator values to the signed element range (VSTACC semantics).

    Single source of the saturation formula, shared by the per-cycle
    interpreter (via :meth:`VectorRegisterFile.saturate_accumulators`) and the
    trace engine's whole-loop VSTACC evaluation.
    """
    lo = -(1 << (element_bits - 1))
    hi = (1 << (element_bits - 1)) - 1
    return np.minimum(np.maximum(np.asarray(values, dtype=np.int64), lo), hi)


def _wrap_array(values: np.ndarray, bits: int) -> np.ndarray:
    """Vectorised two's-complement wrap of ``values`` to ``bits`` bits.

    Computes ``(x + 2^(b-1)) mod 2^b - 2^(b-1)`` with the modulus taken by a
    mask.  int64 additions wrap modulo 2^64, which 2^b divides, so the mask
    is exact for every int64 input.
    """
    values = np.asarray(values, dtype=np.int64)
    if bits >= 63:
        return values.copy()
    half = 1 << (bits - 1)
    return ((values + half) & ((1 << bits) - 1)) - half
