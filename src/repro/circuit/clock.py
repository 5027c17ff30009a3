"""Clock configuration helpers.

The DVAFS experiments keep computational *throughput* constant while varying
the number of words processed per cycle (the subword parallelism N); the
clock frequency therefore scales as ``f = f_base / N``.  These helpers keep
the unit conversions in one place.
"""

from __future__ import annotations


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
