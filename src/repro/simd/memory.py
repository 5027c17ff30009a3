"""Banked data memory of the SIMD processor.

The processor has one memory bank per SIMD lane (``SW`` banks); a vector
load/store accesses the same address in every bank simultaneously.  The banks
sit in their own power domain at a fixed retention-safe supply (1.1 V in the
paper), and their access energy scales with the number of *active bits* read
or written -- which is why the 1 x 4 b DAS/DVAS modes of Table II spend so
much less memory energy than the full-precision mode while the subword modes
(which use the full word width for N subwords) do not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arithmetic.fixed_point import signed_range


@dataclass
class MemoryAccessCounters:
    """Access statistics of the banked memory."""

    reads: int = 0
    writes: int = 0
    read_bits: int = 0
    write_bits: int = 0

    @property
    def accesses(self) -> int:
        """Total accesses (reads + writes)."""
        return self.reads + self.writes

    @property
    def total_bits(self) -> int:
        """Total bits moved."""
        return self.read_bits + self.write_bits


class BankedMemory:
    """``banks`` independent word-addressable memory banks.

    Parameters
    ----------
    banks:
        Number of banks (= SIMD width SW).
    words_per_bank:
        Capacity of each bank in words.
    word_bits:
        Word width in bits (16 in the paper's processor).
    """

    def __init__(self, banks: int, words_per_bank: int = 4096, *, word_bits: int = 16):
        if banks < 1:
            raise ValueError("banks must be at least 1")
        if words_per_bank < 1:
            raise ValueError("words_per_bank must be at least 1")
        if word_bits < 2:
            raise ValueError("word_bits must be at least 2")
        self.banks = banks
        self.words_per_bank = words_per_bank
        self.word_bits = word_bits
        self._storage = np.zeros((banks, words_per_bank), dtype=np.int64)
        self.counters = MemoryAccessCounters()

    def _check_address(self, address: int) -> None:
        if not 0 <= address < self.words_per_bank:
            raise IndexError(
                f"address {address} out of range [0, {self.words_per_bank})"
            )

    def _check_values(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.int64)
        if values.shape != (self.banks,):
            raise ValueError(f"expected one value per bank ({self.banks})")
        self._check_range(values)
        return values

    def _check_range(self, values: np.ndarray) -> None:
        lo, hi = signed_range(self.word_bits)
        if np.any(values < lo) or np.any(values > hi):
            raise ValueError(f"values must fit in {self.word_bits} signed bits")

    def read_vector(self, address: int, *, active_bits: int | None = None) -> np.ndarray:
        """Read ``address`` from every bank (one word per lane)."""
        self._check_address(address)
        active = self.word_bits if active_bits is None else active_bits
        self.counters.reads += self.banks
        self.counters.read_bits += self.banks * active
        return self._storage[:, address].copy()

    def write_vector(
        self, address: int, values: np.ndarray, *, active_bits: int | None = None
    ) -> None:
        """Write one word per bank at ``address``."""
        self._check_address(address)
        values = self._check_values(values)
        active = self.word_bits if active_bits is None else active_bits
        self.counters.writes += self.banks
        self.counters.write_bits += self.banks * active
        self._storage[:, address] = values

    def load_banks(self, address: int, values: np.ndarray) -> None:
        """Bulk-initialise every bank starting at ``address`` (no energy counted).

        This models the DMA/preload step that fills the scratchpads before a
        kernel runs; it is not part of the measured kernel energy.
        ``values`` is ``(banks, count)`` -- one row per bank -- or
        ``(count,)``, the same row in every bank.
        """
        values = np.asarray(values, dtype=np.int64)
        if values.ndim not in (1, 2) or (values.ndim == 2 and values.shape[0] != self.banks):
            raise ValueError(f"expected one row, or one row per bank ({self.banks})")
        count = values.shape[-1]
        if address < 0 or address + count > self.words_per_bank:
            raise IndexError("bank initialisation exceeds bank capacity")
        self._check_range(values)
        self._storage[:, address : address + count] = values

    def dump_bank(self, bank: int, address: int, count: int) -> np.ndarray:
        """Read back ``count`` words of a bank without counting energy."""
        if not 0 <= bank < self.banks:
            raise IndexError(f"bank {bank} out of range")
        if address + count > self.words_per_bank:
            raise IndexError("dump exceeds bank capacity")
        return self._storage[bank, address : address + count].copy()

    def reset_counters(self) -> None:
        """Clear the access counters."""
        self.counters = MemoryAccessCounters()
