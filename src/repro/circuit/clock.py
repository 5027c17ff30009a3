"""Clock configuration helpers.

The DVAFS experiments keep computational *throughput* constant while varying
the number of words processed per cycle (the subword parallelism N); the
clock frequency therefore scales as ``f = f_base / N``.  These helpers keep
the unit conversions in one place.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ClockConfig:
    """A clock operating point.

    Attributes
    ----------
    frequency_mhz:
        Clock frequency in MHz.
    words_per_cycle:
        Number of words processed per cycle (the subword parallelism N).
    """

    frequency_mhz: float
    words_per_cycle: int = 1

    def __post_init__(self) -> None:
        if self.frequency_mhz <= 0:
            raise ValueError("frequency_mhz must be positive")
        if self.words_per_cycle < 1:
            raise ValueError("words_per_cycle must be at least 1")

    @property
    def period_ns(self) -> float:
        """Clock period in nanoseconds."""
        return 1000.0 / self.frequency_mhz

    @property
    def throughput_mops(self) -> float:
        """Computational throughput in million operations (words) per second."""
        return self.frequency_mhz * self.words_per_cycle


def constant_throughput_frequency(
    base_frequency_mhz: float, subword_parallelism: int
) -> float:
    """Frequency keeping throughput constant with ``subword_parallelism`` words/cycle.

    This is the paper's ``T = 1x500MHz = 2x250MHz = 4x125MHz = 500 MOPS``
    schedule for the multiplier study and the 200 MHz -> 50 MHz scaling of
    Envision at constant 76 GOPS.
    """
    if base_frequency_mhz <= 0:
        raise ValueError("base_frequency_mhz must be positive")
    if subword_parallelism < 1:
        raise ValueError("subword_parallelism must be at least 1")
    return base_frequency_mhz / subword_parallelism
