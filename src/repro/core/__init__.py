"""DVAFS core: power equations, scaling extraction and operating points."""

from .operating_point import OperatingPoint
from .power_model import PAPER_TABLE_I, DvafsSystem, PowerSplit, ScalingParameters
from .scaling import (
    EnergyAccuracyPoint,
    MultiplierCharacterization,
    PrecisionProfile,
    characterize_multiplier,
    multiplier_energy_curves,
)

__all__ = [
    "OperatingPoint",
    "PAPER_TABLE_I",
    "DvafsSystem",
    "PowerSplit",
    "ScalingParameters",
    "EnergyAccuracyPoint",
    "MultiplierCharacterization",
    "PrecisionProfile",
    "characterize_multiplier",
    "multiplier_energy_curves",
]
