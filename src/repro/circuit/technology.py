"""Technology parameter sets for the circuit-level models.

The paper evaluates DVAFS in two silicon technologies:

* a 40 nm LP (low-power) LVT library at a nominal 1.1 V supply for the
  stand-alone multiplier and the SIMD processor (Section III), and
* a 28 nm FDSOI technology for the Envision CNN processor (Section V).

We do not have access to the foundry libraries, so each technology is
described by a small set of behavioural parameters that feed the
alpha-power-law delay model (:mod:`repro.circuit.delay`) and the switched
capacitance energy model (:mod:`repro.circuit.energy`).  The parameters are
calibrated such that the paper's anchor points are reproduced:

* the 16 b Booth-Wallace multiplier meets a 2 ns cycle (500 MHz) at 1.1 V and
  consumes 2.16 pJ/word,
* scaling the supply from 1.1 V to roughly 0.9 V doubles the gate delay
  (the DVAS 4 b operating point), and scaling to roughly 0.75 V stretches it
  by about 8x (the DVAFS 4x4 b operating point).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Technology:
    """Behavioural description of a CMOS technology corner.

    Attributes
    ----------
    name:
        Human readable identifier, e.g. ``"40nm-LP-LVT"``.
    nominal_voltage:
        Nominal supply voltage in volts.  Delay and energy figures of the
        standard cells are referenced to this voltage.
    threshold_voltage:
        Effective threshold voltage in volts used by the alpha-power-law
        delay model.  For low-power libraries operated close to threshold
        this is intentionally high, which produces the steep delay increase
        at low supplies reported in the paper.
    min_voltage:
        Lowest supply the library is characterised for.  Voltage-scaling
        solvers clamp to this value.
    max_voltage:
        Highest supply the library is characterised for.
    alpha:
        Velocity-saturation exponent of the alpha-power-law delay model.
    unit_delay_ps:
        Delay of one reference logic level (a loaded full-adder stage
        including local wiring) at the nominal voltage, in picoseconds.
    unit_energy_fj:
        Switching energy of one reference cell toggle at the nominal
        voltage, in femtojoules.
    leakage_per_cell_nw:
        Leakage power per reference cell at the nominal voltage, in
        nanowatts.
    wire_factor:
        Multiplicative factor applied to delay and energy to account for the
        conservative wire models used for synthesis in the paper.
    """

    name: str
    nominal_voltage: float
    threshold_voltage: float
    min_voltage: float
    max_voltage: float
    alpha: float
    unit_delay_ps: float
    unit_energy_fj: float
    leakage_per_cell_nw: float
    wire_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.nominal_voltage <= self.threshold_voltage:
            raise ValueError(
                "nominal_voltage must exceed threshold_voltage "
                f"({self.nominal_voltage} <= {self.threshold_voltage})"
            )
        if self.min_voltage <= self.threshold_voltage:
            raise ValueError(
                "min_voltage must exceed threshold_voltage for the "
                "alpha-power-law model to stay finite"
            )
        if self.min_voltage > self.max_voltage:
            raise ValueError("min_voltage must not exceed max_voltage")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.unit_delay_ps <= 0 or self.unit_energy_fj <= 0:
            raise ValueError("unit delay and energy must be positive")

    def clamp_voltage(self, voltage: float) -> float:
        """Clamp ``voltage`` to the characterised supply range."""
        return min(max(voltage, self.min_voltage), self.max_voltage)

    def with_overrides(self, **kwargs: float) -> "Technology":
        """Return a copy of the technology with selected fields replaced."""
        return replace(self, **kwargs)


#: 40 nm low-power LVT corner used for the multiplier and SIMD studies
#: (Section III of the paper).  Calibrated so that the delay stretch from
#: 1.1 V to 0.9 V is ~2x and from 1.1 V to 0.75 V is ~8x, matching the DVAS
#: and DVAFS 4 b supply values reported in Fig. 2c.
TECH_40NM_LP_LVT = Technology(
    name="40nm-LP-LVT",
    nominal_voltage=1.1,
    threshold_voltage=0.65,
    min_voltage=0.70,
    max_voltage=1.21,
    alpha=1.5,
    unit_delay_ps=82.0,
    unit_energy_fj=2.45,
    leakage_per_cell_nw=0.5,
    wire_factor=1.15,
)

#: 28 nm FDSOI corner used for the Envision processor (Section V).  Envision
#: scales its core supply between 0.65 V and 1.1 V (Table III).
TECH_28NM_FDSOI = Technology(
    name="28nm-FDSOI",
    nominal_voltage=1.1,
    threshold_voltage=0.45,
    min_voltage=0.60,
    max_voltage=1.15,
    alpha=1.35,
    unit_delay_ps=70.0,
    unit_energy_fj=1.1,
    leakage_per_cell_nw=0.3,
    wire_factor=1.10,
)
