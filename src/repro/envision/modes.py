"""Operating modes of the Envision CNN processor.

Envision supports 1 x 16 b, 2 x 8 b and 4 x 4 b subword modes.  Two schedules
are used in the paper's Fig. 8:

* **constant frequency** (200 MHz): throughput grows with N, the core supply
  drops only as far as the (shared) 200 MHz timing of the control logic
  allows;
* **constant throughput** (76 GOPS): the clock is divided by N, letting the
  whole chip scale to the low supplies listed in Table III (0.80 V at
  2 x 8 b, 0.65 V at 4 x 4 b).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..circuit.clock import constant_throughput_frequency
from ..core.operating_point import OperatingPoint

#: Nominal Envision clock in MHz.
NOMINAL_FREQUENCY_MHZ = 200.0
#: Nominal core supply in volts.
NOMINAL_VOLTAGE = 1.1


@dataclass(frozen=True)
class EnvisionMode:
    """One DVAFS mode of the Envision chip.

    Attributes
    ----------
    precision:
        Bits per subword (16, 8 or 4).
    parallelism:
        Subwords per MAC per cycle (1, 2 or 4).
    constant_throughput_voltage:
        Supply when throughput is held at the 16 b nominal (76 GOPS), from
        Table III; the clock is then divided by N.
    constant_frequency_voltage:
        Core supply when the clock stays at 200 MHz (the nas timing path
        limits how far it can drop).
    """

    precision: int
    parallelism: int
    constant_throughput_voltage: float
    constant_frequency_voltage: float

    @property
    def label(self) -> str:
        """Mode label in the paper's notation (``"4x4b"``)."""
        return f"{self.parallelism}x{self.precision}b"

    @property
    def constant_throughput_frequency_mhz(self) -> float:
        """Clock at constant throughput: the 200 MHz nominal divided by N."""
        return constant_throughput_frequency(NOMINAL_FREQUENCY_MHZ, self.parallelism)

    def operating_point(self, *, constant_throughput: bool = True) -> OperatingPoint:
        """The mode as a generic :class:`~repro.core.operating_point.OperatingPoint`."""
        if constant_throughput:
            frequency = self.constant_throughput_frequency_mhz
            voltage = self.constant_throughput_voltage
        else:
            frequency = NOMINAL_FREQUENCY_MHZ
            voltage = self.constant_frequency_voltage
        return OperatingPoint(
            precision=self.precision,
            parallelism=self.parallelism,
            frequency_mhz=frequency,
            as_voltage=voltage,
            nas_voltage=voltage if constant_throughput else max(voltage, 1.03),
            technique="DVAFS",
        )


#: The three Envision modes with the supplies reported in Table III
#: (1.03 V at 1 x 16 b / 200 MHz, 0.80 V at 2 x 8 b / 100 MHz, 0.65 V at
#: 4 x 4 b / 50 MHz) and the constant-frequency supplies implied by Fig. 8a.
ENVISION_MODES: dict[int, EnvisionMode] = {
    16: EnvisionMode(
        precision=16,
        parallelism=1,
        constant_throughput_voltage=1.03,
        constant_frequency_voltage=1.03,
    ),
    8: EnvisionMode(
        precision=8,
        parallelism=2,
        constant_throughput_voltage=0.80,
        constant_frequency_voltage=0.95,
    ),
    4: EnvisionMode(
        precision=4,
        parallelism=4,
        constant_throughput_voltage=0.65,
        constant_frequency_voltage=0.90,
    ),
}


def mode_for_precision(required_bits: int) -> EnvisionMode:
    """Smallest Envision mode offering at least ``required_bits`` of precision.

    This is the per-layer mode-selection rule behind Table III: a layer
    needing 5 bits runs in the 2 x 8 b mode, a layer needing 9 bits in the
    1 x 16 b mode.
    """
    if required_bits < 1:
        raise ValueError("required_bits must be positive")
    for precision in sorted(ENVISION_MODES):
        if precision >= required_bits:
            return ENVISION_MODES[precision]
    raise ValueError(
        f"no Envision mode supports {required_bits} bits (maximum is 16)"
    )
