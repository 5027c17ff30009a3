"""Analysis utilities: metrics, sweep results and grids, and result reporting."""

from .metrics import (
    EfficiencyReport,
    classification_accuracy,
    relative_accuracy,
    rmse,
    top1_agreement,
    tops_per_watt,
)
from .reporting import format_table, format_value, to_csv, to_json
from .sweep import SweepResult, sweep_grid

__all__ = [
    "EfficiencyReport",
    "classification_accuracy",
    "relative_accuracy",
    "rmse",
    "top1_agreement",
    "tops_per_watt",
    "format_table",
    "format_value",
    "to_csv",
    "to_json",
    "SweepResult",
    "sweep_grid",
]
