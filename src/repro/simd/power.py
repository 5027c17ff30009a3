"""Energy model of the SIMD processor (Fig. 4 and Table II).

The model is event-based: the cycle-level simulator reports how many
instructions were fetched/decoded, how many scalar operations, vector MAC
operations and vector memory accesses a kernel performed, and this module
converts those events into energy per power domain:

* ``as``  -- the vector arithmetic (accuracy-scalable, supply ``V_as``),
* ``nas`` -- instruction fetch/decode, scalar pipeline, address generation
  and other control (supply ``V_nas``),
* ``mem`` -- the SRAM banks (fixed retention supply).

The per-event energies at the ``1 x 16b`` reference point are calibrated so
the domain split matches the first row of Table II (31 % mem / 46 % nas /
23 % as for SW = 8, 36 mW total at 500 MHz).  Precision scaling then follows
the DVAFS power equations: arithmetic activity scales with the Table-I
``k`` factors, memory energy scales with the active bits per access, and the
supplies/frequency follow the selected technique.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.power_model import PAPER_TABLE_I, ScalingParameters
from .processor import ExecutionResult


@dataclass(frozen=True)
class SimdEnergyParameters:
    """Per-event energies of the SIMD processor at nominal voltage (pJ).

    Attributes
    ----------
    mac_energy_pj:
        Energy of one 16-bit MAC in the vector datapath.
    vector_alu_energy_pj:
        Energy of one non-MAC vector ALU lane operation.
    instruction_energy_pj:
        Fetch + decode + issue energy per instruction (nas).
    control_energy_per_lane_pj:
        Per-lane control / address-generation energy per vector instruction
        (nas); grows with SW, which is why wide processors have a larger nas
        share in absolute terms but a smaller relative one.
    memory_bit_energy_pj:
        Energy per memory bit accessed (mem domain).
    nominal_voltage:
        Supply at which the above energies are characterised.
    mem_voltage:
        Fixed supply of the memory banks.
    """

    mac_energy_pj: float = 1.35
    vector_alu_energy_pj: float = 0.45
    instruction_energy_pj: float = 12.0
    control_energy_per_lane_pj: float = 0.9
    memory_bit_energy_pj: float = 0.115
    nominal_voltage: float = 1.1
    mem_voltage: float = 1.1

    def scaled(self, **overrides: float) -> "SimdEnergyParameters":
        """Copy with selected fields replaced."""
        values = self.__dict__ | overrides
        return SimdEnergyParameters(**values)


@dataclass(frozen=True)
class SimdPowerReport:
    """Energy / power of one kernel execution at one operating point.

    All energies are in picojoules, powers in milliwatts.
    """

    technique: str
    precision: int
    parallelism: int
    simd_width: int
    frequency_mhz: float
    as_voltage: float
    nas_voltage: float
    mem_voltage: float
    as_energy_pj: float
    nas_energy_pj: float
    mem_energy_pj: float
    cycles: int
    words: int

    @property
    def total_energy_pj(self) -> float:
        """Total kernel energy (pJ)."""
        return self.as_energy_pj + self.nas_energy_pj + self.mem_energy_pj

    @property
    def energy_per_word_pj(self) -> float:
        """Energy per processed word (pJ)."""
        if self.words <= 0:
            raise ValueError("no words processed")
        return self.total_energy_pj / self.words

    @property
    def power_mw(self) -> float:
        """Average power during the kernel (mW)."""
        if self.cycles <= 0:
            raise ValueError("no cycles executed")
        duration_us = self.cycles / self.frequency_mhz
        return self.total_energy_pj / duration_us * 1e-3

    def domain_fractions(self) -> dict[str, float]:
        """Fractional mem / nas / as energy split (the Table II percentages)."""
        total = self.total_energy_pj
        if total <= 0:
            return {"mem": 0.0, "nas": 0.0, "as": 0.0}
        return {
            "mem": self.mem_energy_pj / total,
            "nas": self.nas_energy_pj / total,
            "as": self.as_energy_pj / total,
        }

    @property
    def mode_label(self) -> str:
        """Mode in the paper's notation (``"4x4b"``)."""
        return f"{self.parallelism}x{self.precision}b"


class SimdPowerModel:
    """Converts execution counters into per-domain energy for any mode.

    Parameters
    ----------
    simd_width:
        SIMD width of the processor being modelled.
    parameters:
        Per-event energies; the defaults are calibrated against Table II.
    scaling_table:
        Per-precision scaling parameters (Table I); defaults to the paper's
        values, but a table extracted from the structural multiplier via
        :func:`repro.core.scaling.characterize_multiplier` can be used
        instead.
    base_frequency_mhz:
        Full-precision clock (500 MHz in the paper).
    word_bits:
        Element width of the datapath (16).
    """

    def __init__(
        self,
        simd_width: int,
        *,
        parameters: SimdEnergyParameters | None = None,
        scaling_table: dict[int, ScalingParameters] | None = None,
        base_frequency_mhz: float = 500.0,
        word_bits: int = 16,
    ):
        if simd_width < 1:
            raise ValueError("simd_width must be at least 1")
        self.simd_width = simd_width
        self.parameters = parameters or SimdEnergyParameters()
        self.scaling_table = dict(scaling_table or PAPER_TABLE_I)
        self.base_frequency_mhz = base_frequency_mhz
        self.word_bits = word_bits

    # -- calibration ----------------------------------------------------------

    @staticmethod
    def reference_power_mw(simd_width: int) -> float:
        """Published full-precision power of the SW-lane processor (Table II).

        Table II reports 36 mW for SW = 8 and 289 mW for SW = 64 at the
        ``1 x 16b`` / 500 MHz point; other widths are interpolated linearly
        in SW (power is dominated by per-lane datapath, control and memory).
        """
        if simd_width < 1:
            raise ValueError("simd_width must be at least 1")
        return 36.0 * simd_width / 8.0

    @staticmethod
    def reference_fractions(simd_width: int) -> dict[str, float]:
        """Published mem/nas/as split at full precision (Table II).

        31 % / 46 % / 23 % at SW = 8 and 31 % / 32 % / 37 % at SW = 64; the
        as-share grows logarithmically with SW because the scalar front-end
        is amortised over more lanes.
        """
        import math

        if simd_width < 1:
            raise ValueError("simd_width must be at least 1")
        position = (math.log2(max(simd_width, 1)) - 3.0) / 3.0
        position = min(max(position, 0.0), 1.5)
        as_fraction = 0.23 + (0.37 - 0.23) * position
        mem_fraction = 0.31
        nas_fraction = 1.0 - as_fraction - mem_fraction
        return {"mem": mem_fraction, "nas": nas_fraction, "as": as_fraction}

    def calibrate(
        self,
        execution: ExecutionResult,
        *,
        total_power_mw: float | None = None,
        fractions: dict[str, float] | None = None,
    ) -> SimdEnergyParameters:
        """Fit the per-event energies to a published full-precision anchor.

        The relative weights *within* each domain (MAC vs. ALU, instruction
        vs. per-lane control) keep their default ratios; only the per-domain
        scales are solved so that the given execution, interpreted as a
        ``1 x 16b`` run at the base frequency, reproduces the target total
        power and mem/nas/as split.  Returns (and installs) the new
        parameters.
        """
        total_power_mw = (
            self.reference_power_mw(self.simd_width) if total_power_mw is None else total_power_mw
        )
        fractions = fractions or self.reference_fractions(self.simd_width)
        for key in ("mem", "nas", "as"):
            if key not in fractions:
                raise ValueError(f"fractions must contain {key!r}")
        counters = execution.counters
        if counters.cycles <= 0:
            raise ValueError("execution has no cycles")

        duration_us = counters.cycles / self.base_frequency_mhz
        total_energy_pj = total_power_mw * duration_us * 1e3
        targets = {key: total_energy_pj * fractions[key] for key in ("mem", "nas", "as")}

        baseline = self.report(execution, technique="DAS", precision=self.word_bits)
        parameters = self.parameters
        scale_as = targets["as"] / baseline.as_energy_pj if baseline.as_energy_pj > 0 else 1.0
        scale_nas = targets["nas"] / baseline.nas_energy_pj if baseline.nas_energy_pj > 0 else 1.0
        scale_mem = targets["mem"] / baseline.mem_energy_pj if baseline.mem_energy_pj > 0 else 1.0
        self.parameters = parameters.scaled(
            mac_energy_pj=parameters.mac_energy_pj * scale_as,
            vector_alu_energy_pj=parameters.vector_alu_energy_pj * scale_as,
            instruction_energy_pj=parameters.instruction_energy_pj * scale_nas,
            control_energy_per_lane_pj=parameters.control_energy_per_lane_pj * scale_nas,
            memory_bit_energy_pj=parameters.memory_bit_energy_pj * scale_mem,
        )
        return self.parameters

    def scaling_for(self, precision: int) -> ScalingParameters:
        """Scaling-parameter row for ``precision`` (must be in the table)."""
        try:
            return self.scaling_table[precision]
        except KeyError as exc:
            known = sorted(self.scaling_table)
            raise KeyError(
                f"no scaling parameters for {precision} bits; known: {known}"
            ) from exc

    def report(
        self,
        execution: ExecutionResult,
        *,
        technique: str = "DVAFS",
        precision: int | None = None,
    ) -> SimdPowerReport:
        """Energy report of an execution under a given technique and precision.

        ``precision`` defaults to the precision the program itself selected
        (via SETPREC); the technique decides which knobs scale:

        * ``"DAS"``   -- activity only,
        * ``"DVAS"``  -- activity + as-domain voltage,
        * ``"DVAFS"`` -- activity + frequency + both voltages (subword mode).
        """
        technique = technique.upper()
        if technique not in ("DAS", "DVAS", "DVAFS"):
            raise ValueError(f"unknown technique {technique!r}")
        precision = execution.precision_bits if precision is None else precision
        scaling = self.scaling_for(precision)
        parameters = self.parameters
        nominal = parameters.nominal_voltage
        counters = execution.counters

        if technique == "DVAFS":
            parallelism = scaling.parallelism
            as_voltage = nominal / scaling.k4
            nas_voltage = nominal / scaling.k5
            frequency = self.base_frequency_mhz / parallelism
            activity_factor = 1.0 / (scaling.k3 * parallelism)
            memory_bits = self.word_bits
        elif technique == "DVAS":
            parallelism = 1
            as_voltage = nominal / scaling.k2
            nas_voltage = nominal
            frequency = self.base_frequency_mhz
            activity_factor = 1.0 / scaling.k1
            memory_bits = precision
        else:  # DAS
            parallelism = 1
            as_voltage = nominal
            nas_voltage = nominal
            frequency = self.base_frequency_mhz
            activity_factor = 1.0 / scaling.k0
            memory_bits = precision

        as_scale = (as_voltage / nominal) ** 2
        nas_scale = (nas_voltage / nominal) ** 2
        mem_scale = (parameters.mem_voltage / nominal) ** 2

        # Accuracy-scalable domain: the vector MAC array and vector ALU.  In
        # subword mode each MAC instruction performs `parallelism` MACs per
        # lane on the same hardware; the per-word activity factor captures
        # that sharing.
        mac_words = counters.vector_alu_instructions * self.simd_width * parallelism
        as_energy = (
            mac_words * parameters.mac_energy_pj * activity_factor
            + counters.vector_alu_instructions
            * self.simd_width
            * parameters.vector_alu_energy_pj
            * activity_factor
        ) * as_scale

        # Non-accuracy-scalable domain: instruction fetch/decode, the scalar
        # pipeline and per-lane control.  Its activity does not change with
        # precision; only its supply (DVAFS) does.
        vector_instructions = (
            counters.vector_alu_instructions
            + counters.vector_memory_reads
            + counters.vector_memory_writes
        )
        nas_energy = (
            counters.instructions * parameters.instruction_energy_pj
            + vector_instructions * self.simd_width * parameters.control_energy_per_lane_pj
        ) * nas_scale

        # Memory domain: energy per active bit moved; the supply is fixed.
        memory_accesses = counters.vector_memory_reads + counters.vector_memory_writes
        mem_energy = (
            memory_accesses
            * self.simd_width
            * memory_bits
            * parameters.memory_bit_energy_pj
            * mem_scale
        )

        words = mac_words if mac_words else counters.instructions
        return SimdPowerReport(
            technique=technique,
            precision=precision,
            parallelism=parallelism,
            simd_width=self.simd_width,
            frequency_mhz=frequency,
            as_voltage=as_voltage,
            nas_voltage=nas_voltage,
            mem_voltage=parameters.mem_voltage,
            as_energy_pj=as_energy,
            nas_energy_pj=nas_energy,
            mem_energy_pj=mem_energy,
            cycles=counters.cycles,
            words=words,
        )
