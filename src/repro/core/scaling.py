"""Extraction of the D(V)A(F)S scaling parameters from structural simulation.

Section III-A of the paper characterises a Booth-encoded Wallace-tree
multiplier by sweeping its precision modes and measuring switching activity,
critical-path slack and the minimum supply voltage at constant throughput;
Table I condenses the result into the ``k`` factors of the power equations.

:func:`characterize_multiplier` repeats that flow on the structural models of
:mod:`repro.arithmetic`: it streams random operands through the DAS/DVAS
multiplier and the subword-parallel DVAFS multiplier at every precision,
collects per-mode activity and critical paths, solves the minimum supplies
with the alpha-power-law delay model, and packages everything both as raw
per-precision profiles (the data behind Fig. 2) and as
:class:`~repro.core.power_model.ScalingParameters` rows (Table I).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arithmetic.fixed_point import signed_range
from ..arithmetic.multiplier import BoothWallaceMultiplier
from ..arithmetic.subword import SubwordParallelMultiplier
from ..artifact_hook import resolve as resolve_artifact
from ..circuit.technology import TECH_40NM_LP_LVT, Technology
from ..circuit.voltage_scaling import minimum_voltage_for_period
from .power_model import ScalingParameters


@dataclass(frozen=True)
class PrecisionProfile:
    """Raw characterisation data of one precision mode.

    All activities are weighted gate-equivalent toggles; voltages are the
    minimum supplies meeting timing at constant computational throughput.
    """

    precision: int
    parallelism: int
    frequency_mhz: float
    das_activity_per_word: float
    dvafs_activity_per_cycle: float
    dvafs_activity_per_word: float
    das_critical_path_levels: float
    dvafs_critical_path_levels: float
    das_slack_ns: float
    dvafs_slack_ns: float
    dvas_voltage: float
    dvafs_as_voltage: float
    dvafs_nas_voltage: float


@dataclass
class MultiplierCharacterization:
    """Complete characterisation of the precision-scalable multiplier.

    Attributes
    ----------
    profiles:
        Per-precision raw data, keyed by precision.
    reference_precision:
        The full-precision mode all factors are normalised to.
    reference_das_activity:
        Activity per word of the plain (non-reconfigurable) multiplier at
        full precision.
    reference_dvafs_activity:
        Per-cycle activity of the reconfigurable multiplier at full precision.
    baseline_energy_per_word_pj:
        Energy per word of the plain full-precision multiplier at nominal
        supply (the 2.16 pJ/word anchor of the paper).
    technology:
        Technology corner used for the characterisation.
    base_frequency_mhz:
        Full-precision clock frequency (500 MHz in the paper).
    """

    profiles: dict[int, PrecisionProfile]
    reference_precision: int
    reference_das_activity: float
    reference_dvafs_activity: float
    baseline_energy_per_word_pj: float
    technology: Technology
    base_frequency_mhz: float
    reconfiguration_overhead: float = 0.21

    def scaling_parameters(self) -> dict[int, ScalingParameters]:
        """Table I: per-precision k factors and subword parallelism."""
        nominal = self.technology.nominal_voltage
        rows: dict[int, ScalingParameters] = {}
        for precision, profile in sorted(self.profiles.items()):
            k0 = self.reference_das_activity / profile.das_activity_per_word
            k3 = self.reference_dvafs_activity / profile.dvafs_activity_per_cycle
            rows[precision] = ScalingParameters(
                precision=precision,
                k0=max(1.0, k0),
                k1=max(1.0, k0),
                k2=max(1.0, nominal / profile.dvas_voltage),
                k3=max(1.0, k3),
                k4=max(1.0, nominal / profile.dvafs_as_voltage),
                k5=max(1.0, nominal / profile.dvafs_nas_voltage),
                parallelism=profile.parallelism,
            )
        return rows

    def relative_activity(self, technique: str) -> dict[int, float]:
        """Relative per-cycle activity per precision (Fig. 2d).

        ``technique`` is ``"das"``/``"dvas"`` (identical activity) or
        ``"dvafs"``.
        """
        technique = technique.lower()
        result = {}
        for precision, profile in sorted(self.profiles.items()):
            if technique in ("das", "dvas"):
                result[precision] = profile.das_activity_per_word / self.reference_das_activity
            elif technique == "dvafs":
                result[precision] = (
                    profile.dvafs_activity_per_cycle / self.reference_dvafs_activity
                )
            else:
                raise ValueError(f"unknown technique {technique!r}")
        return result


def _random_operands(
    rng: np.random.Generator, width: int, count: int
) -> tuple[list[int], list[int]]:
    lo, hi = signed_range(width)
    xs = rng.integers(lo, hi + 1, size=count).tolist()
    ys = rng.integers(lo, hi + 1, size=count).tolist()
    return [int(v) for v in xs], [int(v) for v in ys]


def characterize_multiplier(
    width: int = 16,
    precisions: tuple[int, ...] = (16, 12, 8, 4),
    *,
    base_frequency_mhz: float = 500.0,
    technology: Technology = TECH_40NM_LP_LVT,
    samples: int = 400,
    seed: int = 2017,
    reconfiguration_overhead: float = 0.21,
    rounding: bool = False,
    batch: bool = True,
) -> MultiplierCharacterization:
    """Characterise the DAS/DVAS and DVAFS multipliers across precisions.

    Parameters
    ----------
    width:
        Physical multiplier width (16 in the paper).
    precisions:
        Precision modes to characterise; must include ``width`` itself (the
        normalisation reference).
    base_frequency_mhz:
        Full-precision frequency; constant throughput is
        ``width``-independent (500 MOPS in the paper).
    samples:
        Number of random multiplications per mode used for activity
        estimation.
    seed:
        Seed of the operand generator (results are deterministic).
    reconfiguration_overhead:
        Energy overhead fraction of the subword-parallel datapath.
    rounding:
        Gate operands by rounding instead of truncation (ablation knob).
    batch:
        Evaluate the operand streams with the vectorised bit-plane engine
        (:mod:`repro.arithmetic.batch`); ``False`` forces the scalar
        golden-reference walk.  Both paths produce bit-identical activity.
    """
    if width not in precisions:
        raise ValueError("precisions must include the full width (reference mode)")
    if samples < 2:
        raise ValueError("samples must be at least 2")

    rng = np.random.default_rng(seed)
    base_period_ns = 1000.0 / base_frequency_mhz
    nominal = technology.nominal_voltage

    # Reference: plain, non-reconfigurable multiplier at full precision.
    reference = BoothWallaceMultiplier(width, technology=technology, rounding=rounding)
    xs, ys = _random_operands(rng, width, samples)
    reference.multiply_stream(xs, ys, batch=batch)
    reference_das_activity = reference.activity.toggles_per_word
    baseline_energy = reference.activity.energy_per_word_pj(technology, nominal)

    # Reference per-cycle activity of the reconfigurable (DVAFS) multiplier.
    dvafs_reference = SubwordParallelMultiplier(
        width,
        technology=technology,
        reconfiguration_overhead=reconfiguration_overhead,
        rounding=rounding,
    )
    dvafs_reference.set_precision(width)
    dvafs_reference.multiply_stream(xs, ys, batch=batch)
    reference_dvafs_cycles = samples / dvafs_reference.mode.parallelism
    reference_dvafs_activity = (
        dvafs_reference.activity.total_weighted_toggles / reference_dvafs_cycles
    )

    # The nas parts of a DVAFS system share the clock but not the precision
    # scaling; their pipeline depth is set by the full-precision path.
    nas_logic_levels = dvafs_reference.critical_path_levels()

    profiles: dict[int, PrecisionProfile] = {}
    for precision in sorted(set(precisions), reverse=True):
        # --- DAS / DVAS: same hardware, gated precision, constant frequency.
        das = BoothWallaceMultiplier(width, technology=technology, rounding=rounding)
        das.set_precision(precision)
        px, py = _random_operands(rng, width, samples)
        das.multiply_stream(px, py, batch=batch)
        das_activity = das.activity.toggles_per_word
        das_levels = das.critical_path_levels()
        das_path = das.critical_path()
        das_slack = das_path.positive_slack_ns(nominal, base_period_ns)
        dvas_voltage = minimum_voltage_for_period(technology, das_levels, base_period_ns)

        # --- DVAFS: subword-parallel hardware at constant throughput.
        dvafs = SubwordParallelMultiplier(
            width,
            technology=technology,
            reconfiguration_overhead=reconfiguration_overhead,
            rounding=rounding,
        )
        mode = dvafs.set_precision(precision)
        lo, hi = signed_range(mode.subword_bits)
        sub_x = rng.integers(lo, hi + 1, size=samples).tolist()
        sub_y = rng.integers(lo, hi + 1, size=samples).tolist()
        usable = samples - (samples % mode.parallelism)
        dvafs.multiply_stream(
            [int(v) for v in sub_x[:usable]], [int(v) for v in sub_y[:usable]],
            batch=batch,
        )
        cycles = usable / mode.parallelism
        dvafs_activity_cycle = dvafs.activity.total_weighted_toggles / cycles
        dvafs_activity_word = dvafs.activity.total_weighted_toggles / usable

        parallelism = mode.parallelism
        frequency = base_frequency_mhz / parallelism
        scaled_period_ns = base_period_ns * parallelism
        dvafs_levels = dvafs.critical_path_levels()
        dvafs_path = dvafs.critical_path()
        dvafs_slack = dvafs_path.positive_slack_ns(nominal, scaled_period_ns)
        dvafs_as_voltage = minimum_voltage_for_period(
            technology, dvafs_levels, scaled_period_ns
        )
        dvafs_nas_voltage = minimum_voltage_for_period(
            technology, nas_logic_levels, scaled_period_ns
        )

        profiles[precision] = PrecisionProfile(
            precision=precision,
            parallelism=parallelism,
            frequency_mhz=frequency,
            das_activity_per_word=das_activity,
            dvafs_activity_per_cycle=dvafs_activity_cycle,
            dvafs_activity_per_word=dvafs_activity_word,
            das_critical_path_levels=das_levels,
            dvafs_critical_path_levels=dvafs_levels,
            das_slack_ns=das_slack,
            dvafs_slack_ns=dvafs_slack,
            dvas_voltage=dvas_voltage,
            dvafs_as_voltage=dvafs_as_voltage,
            dvafs_nas_voltage=dvafs_nas_voltage,
        )

    return MultiplierCharacterization(
        profiles=profiles,
        reference_precision=width,
        reference_das_activity=reference_das_activity,
        reference_dvafs_activity=reference_dvafs_activity,
        baseline_energy_per_word_pj=baseline_energy,
        technology=technology,
        base_frequency_mhz=base_frequency_mhz,
        reconfiguration_overhead=reconfiguration_overhead,
    )


def characterization_artifact(*, samples: int, seed: int) -> MultiplierCharacterization:
    """Artifact producer: the default 16-bit characterisation at (samples, seed).

    This is the shared intermediate behind Table I, Fig. 2 and Fig. 3; the
    artifact graph (:mod:`repro.runner.artifacts`) stores it under a content
    address that embeds this module's import-closure fingerprint, so editing
    the multiplier model invalidates exactly this artifact and its consumers.
    """
    return characterize_multiplier(samples=samples, seed=seed)


def resolve_characterization(*, samples: int, seed: int) -> MultiplierCharacterization:
    """The one resolver behind every driver-level characterisation lookup.

    The characterisation is loaded from the active artifact store (populated
    once per cold ``run all`` by the scheduler's artifact wave) or computed
    inline when no store is active -- bit-identical either way.
    """
    return resolve_artifact(
        "multiplier_characterization",
        {"samples": samples, "seed": seed},
        producer=characterization_artifact,
    )


@dataclass(frozen=True)
class EnergyAccuracyPoint:
    """One point of the multiplier energy-accuracy trade-off (Fig. 3a)."""

    technique: str
    precision: int
    parallelism: int
    relative_energy: float
    energy_per_word_pj: float
    voltage_as: float
    voltage_nas: float
    frequency_mhz: float


def multiplier_energy_curves(
    characterization: MultiplierCharacterization,
) -> list[EnergyAccuracyPoint]:
    """Energy-per-word curves of DAS, DVAS and DVAFS, normalised to 16 b.

    The normalisation reference is the plain, non-reconfigurable multiplier
    at full precision and nominal supply (2.16 pJ/word in the paper); the
    DVAFS curve includes its reconfiguration overhead, which is why its full
    precision point sits above 1.0 (21 % in the paper).
    """
    technology = characterization.technology
    nominal = technology.nominal_voltage
    reference_activity = characterization.reference_das_activity
    reference_energy = characterization.baseline_energy_per_word_pj
    points: list[EnergyAccuracyPoint] = []
    for precision, profile in sorted(characterization.profiles.items(), reverse=True):
        energy_scale = reference_energy / reference_activity

        das_energy = profile.das_activity_per_word * energy_scale
        points.append(
            EnergyAccuracyPoint(
                technique="DAS",
                precision=precision,
                parallelism=1,
                relative_energy=das_energy / reference_energy,
                energy_per_word_pj=das_energy,
                voltage_as=nominal,
                voltage_nas=nominal,
                frequency_mhz=characterization.base_frequency_mhz,
            )
        )

        dvas_energy = (
            profile.das_activity_per_word
            * energy_scale
            * (profile.dvas_voltage / nominal) ** 2
        )
        points.append(
            EnergyAccuracyPoint(
                technique="DVAS",
                precision=precision,
                parallelism=1,
                relative_energy=dvas_energy / reference_energy,
                energy_per_word_pj=dvas_energy,
                voltage_as=profile.dvas_voltage,
                voltage_nas=nominal,
                frequency_mhz=characterization.base_frequency_mhz,
            )
        )

        dvafs_energy = (
            profile.dvafs_activity_per_word
            * energy_scale
            * (profile.dvafs_as_voltage / nominal) ** 2
        )
        points.append(
            EnergyAccuracyPoint(
                technique="DVAFS",
                precision=precision,
                parallelism=profile.parallelism,
                relative_energy=dvafs_energy / reference_energy,
                energy_per_word_pj=dvafs_energy,
                voltage_as=profile.dvafs_as_voltage,
                voltage_nas=profile.dvafs_nas_voltage,
                frequency_mhz=profile.frequency_mhz,
            )
        )
    return points
