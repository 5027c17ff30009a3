"""Top-level model of the Envision DVAFS CNN processor.

Envision (ISSCC 2017, [11] in the paper) is a 28 nm FDSOI C-programmable CNN
processor with 256 16-bit MAC units, 132 kB of on-chip data memory and 16 kB
of program memory.  At 200 MHz it peaks at 102 GOPS in the 1 x 16 b mode and
408 GOPS in the 4 x 4 b mode; the sustained MAC efficiency on convolutional
layers is about 73 %.

:class:`EnvisionChip` combines the mode table, the power model and the MAC
array geometry into per-layer execution estimates (cycles, time, power,
energy, TOPS/W) -- the quantities reported in Fig. 8 and Table III.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.metrics import EfficiencyReport
from .modes import ENVISION_MODES, EnvisionMode, NOMINAL_FREQUENCY_MHZ, mode_for_precision
from .power import EnvisionPowerModel


@dataclass(frozen=True)
class EnvisionSpecs:
    """Published specifications of the Envision chip."""

    mac_units: int = 256
    word_bits: int = 16
    nominal_frequency_mhz: float = NOMINAL_FREQUENCY_MHZ
    data_memory_kb: int = 132
    program_memory_kb: int = 16
    mac_efficiency: float = 0.73
    technology: str = "28nm-FDSOI"

    def peak_gops(self, parallelism: int = 1, frequency_mhz: float | None = None) -> float:
        """Peak throughput in GOPS (a MAC counts as two operations)."""
        frequency = self.nominal_frequency_mhz if frequency_mhz is None else frequency_mhz
        return 2.0 * self.mac_units * parallelism * frequency * 1e-3

    def effective_gops(self, parallelism: int = 1, frequency_mhz: float | None = None) -> float:
        """Sustained throughput at the typical 73 % MAC efficiency."""
        return self.mac_efficiency * self.peak_gops(parallelism, frequency_mhz)


@dataclass(frozen=True)
class LayerExecution:
    """Execution estimate of one CNN layer on Envision.

    Energies in microjoules, times in milliseconds, power in milliwatts.
    """

    layer: str
    mode_label: str
    technique: str
    frequency_mhz: float
    voltage: float
    weight_bits: int
    activation_bits: int
    weight_sparsity: float
    input_sparsity: float
    macs: int
    cycles: float
    time_ms: float
    power_mw: float
    energy_uj: float
    tops_per_watt: float

    @property
    def mmacs(self) -> float:
        """MAC count in millions (Table III unit)."""
        return self.macs / 1e6


class EnvisionChip:
    """Envision processor model.

    Parameters
    ----------
    specs:
        Chip geometry and efficiency figures.
    power_model:
        Component-level power model (defaults to the calibrated one).
    """

    def __init__(
        self,
        *,
        specs: EnvisionSpecs | None = None,
        power_model: EnvisionPowerModel | None = None,
    ):
        self.specs = specs or EnvisionSpecs()
        self.power_model = power_model or EnvisionPowerModel()

    # -- modes ----------------------------------------------------------------

    def select_mode(self, weight_bits: int, activation_bits: int) -> EnvisionMode:
        """Smallest mode covering both the weight and activation precision."""
        return mode_for_precision(max(weight_bits, activation_bits))

    # -- per-layer execution ---------------------------------------------------

    def run_layer(
        self,
        *,
        name: str,
        macs: int,
        weight_bits: int,
        activation_bits: int,
        weight_sparsity: float = 0.0,
        input_sparsity: float = 0.0,
        constant_throughput: bool = True,
        technique: str = "DVAFS",
    ) -> LayerExecution:
        """Estimate the execution of one layer.

        ``constant_throughput`` selects between the Fig. 8b schedule (clock
        divided by N, lowest supplies) and the Fig. 8a schedule (200 MHz).
        ``technique`` allows evaluating the same layer under DAS or DVAS for
        the comparison curves.
        """
        if macs < 0:
            raise ValueError("macs must be non-negative")
        technique = technique.upper()
        mode = self.select_mode(weight_bits, activation_bits)
        point = mode.operating_point(constant_throughput=constant_throughput)
        if technique in ("DAS", "DVAS"):
            # DAS/DVAS keep one word per MAC at the nominal clock; DVAS lowers
            # only the arithmetic supply (approximated by the mode's
            # constant-frequency voltage).
            parallelism = 1
            frequency = self.specs.nominal_frequency_mhz
            as_voltage = 1.1 if technique == "DAS" else mode.constant_frequency_voltage
            nas_voltage = 1.1
        else:
            parallelism = mode.parallelism
            frequency = point.frequency_mhz
            as_voltage = point.as_voltage
            nas_voltage = point.nas_voltage

        breakdown = self.power_model.power(
            precision=mode.precision,
            parallelism=parallelism,
            frequency_mhz=frequency,
            as_voltage=as_voltage,
            nas_voltage=nas_voltage,
            technique=technique,
            weight_sparsity=weight_sparsity,
            input_sparsity=input_sparsity,
            actual_precision=max(weight_bits, activation_bits),
        )
        power_mw = breakdown.total_mw

        macs_per_cycle = self.specs.mac_units * parallelism * self.specs.mac_efficiency
        cycles = macs / macs_per_cycle if macs else 0.0
        time_ms = cycles / (frequency * 1e3) if frequency > 0 else 0.0
        energy_uj = power_mw * time_ms
        effective_gops = self.specs.effective_gops(parallelism, frequency)
        efficiency = EfficiencyReport(effective_gops=effective_gops, power_mw=power_mw)

        return LayerExecution(
            layer=name,
            mode_label=f"{parallelism}x{mode.precision}b",
            technique=technique,
            frequency_mhz=frequency,
            voltage=as_voltage,
            weight_bits=weight_bits,
            activation_bits=activation_bits,
            weight_sparsity=weight_sparsity,
            input_sparsity=input_sparsity,
            macs=macs,
            cycles=cycles,
            time_ms=time_ms,
            power_mw=power_mw,
            energy_uj=energy_uj,
            tops_per_watt=efficiency.tops_per_watt,
        )

    def energy_per_word_curve(
        self, *, constant_throughput: bool, techniques: tuple[str, ...] = ("DAS", "DVAS", "DVAFS")
    ) -> list[dict[str, float]]:
        """Relative energy/operation vs. precision for Fig. 8a / 8b.

        Uses a dense (sparsity-free) 5 x 5 CONV workload, like the paper's
        measurement, and normalises to the 1 x 16 b point of each schedule.
        """
        reference_macs = 10_000_000
        rows: list[dict[str, float]] = []
        baseline_energy: float | None = None
        for technique in techniques:
            for precision in sorted(ENVISION_MODES, reverse=True):
                execution = self.run_layer(
                    name=f"{technique}-{precision}b",
                    macs=reference_macs,
                    weight_bits=precision,
                    activation_bits=precision,
                    constant_throughput=constant_throughput,
                    technique=technique,
                )
                energy_per_op = execution.energy_uj / (2 * reference_macs)
                if baseline_energy is None:
                    baseline_energy = energy_per_op
                rows.append(
                    {
                        "technique": technique,
                        "precision": precision,
                        "power_mw": execution.power_mw,
                        "tops_per_watt": execution.tops_per_watt,
                        "relative_energy_per_word": energy_per_op / baseline_energy,
                    }
                )
        return rows
