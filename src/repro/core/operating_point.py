"""Operating points of a DVAFS system.

An operating point bundles everything the power-management unit of a DVAFS
system programs at once: precision, subword parallelism, clock frequency and
the supplies of the accuracy-scalable / non-scalable (and memory) domains.
The Envision measurements of Table III are reported exactly in these terms
(mode, f, V, weight/input precision).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class OperatingPoint:
    """One configuration of a precision-scalable processor.

    Attributes
    ----------
    precision:
        Active bits per subword.
    parallelism:
        Subwords processed per cycle (N).
    frequency_mhz:
        Clock frequency.
    as_voltage:
        Supply of the accuracy-scalable arithmetic domain (V).
    nas_voltage:
        Supply of the non-accuracy-scalable logic domain (V).
    mem_voltage:
        Supply of the memory domain (V); memories often keep a fixed
        retention-safe supply.
    technique:
        Which scaling technique produced this point (``"DAS"``, ``"DVAS"``,
        ``"DVAFS"`` or ``"DVFS"``).
    """

    precision: int
    parallelism: int
    frequency_mhz: float
    as_voltage: float
    nas_voltage: float
    mem_voltage: float | None = None
    technique: str = "DVAFS"

    def __post_init__(self) -> None:
        if self.precision < 1:
            raise ValueError("precision must be positive")
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        if self.frequency_mhz <= 0:
            raise ValueError("frequency_mhz must be positive")
        if self.as_voltage <= 0 or self.nas_voltage <= 0:
            raise ValueError("voltages must be positive")
