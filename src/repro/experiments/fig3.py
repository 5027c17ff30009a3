"""Fig. 3: multiplier energy-accuracy trade-off and baseline comparison.

* Fig. 3a -- energy per word of the DAS, DVAS and DVAFS multipliers vs.
  precision, normalised to the non-reconfigurable 16 b multiplier.
* Fig. 3b -- the same DVAFS curve on an RMSE axis, compared against the
  approximate-multiplier baselines [3], [3]+VS, [4], [5] and [8].
"""

from __future__ import annotations

import numpy as np

from ..analysis.reporting import format_table
from ..arithmetic.baselines import all_baseline_curves
from ..arithmetic.fixed_point import quantization_rmse
from ..core.scaling import (
    MultiplierCharacterization,
    multiplier_energy_curves,
    resolve_characterization,
)


#: Cacheable run() parameters (name -> default); the runner registry's schema.
PARAMS = {"samples": 300, "rmse_samples": 1500, "seed": 2017}
#: Shared sub-experiment intermediates (artifact -> (producer, params subset)).
ARTIFACTS = {
    "multiplier_characterization": (
        "repro.core.scaling:characterization_artifact",
        ("samples", "seed"),
    ),
}


def _fig3a_rows(characterization: MultiplierCharacterization) -> list[dict[str, object]]:
    rows = []
    for point in multiplier_energy_curves(characterization):
        rows.append(
            {
                "technique": point.technique,
                "precision": point.precision,
                "parallelism": point.parallelism,
                "relative_energy": round(point.relative_energy, 4),
                "energy_pj": round(point.energy_per_word_pj, 3),
                "as_voltage": round(point.voltage_as, 2),
                "frequency_mhz": point.frequency_mhz,
            }
        )
    return rows


def _fig3b_rows(
    characterization: MultiplierCharacterization, *, rmse_samples: int, seed: int
) -> list[dict[str, object]]:
    rng = np.random.default_rng(seed)
    operand_values = rng.uniform(-1.0, 1.0, size=rmse_samples)

    rows: list[dict[str, object]] = []
    for point in multiplier_energy_curves(characterization):
        if point.technique != "DVAFS":
            continue
        # RMSE of quantising both operands to `precision` bits, propagated to
        # the product of values in [-1, 1).
        input_rmse = quantization_rmse(point.precision, operand_values)
        product_rmse = float(np.sqrt(2.0) * input_rmse * np.mean(np.abs(operand_values)))
        rows.append(
            {
                "scheme": "DVAFS",
                "configuration": f"{point.parallelism}x{point.precision}b",
                "rmse": product_rmse,
                "relative_energy": round(point.relative_energy, 4),
                "runtime_adaptive": True,
            }
        )
    for name, points in all_baseline_curves().items():
        for baseline_point in points:
            rows.append(
                {
                    "scheme": name,
                    "configuration": baseline_point.label,
                    "rmse": baseline_point.rmse,
                    "relative_energy": round(baseline_point.relative_energy, 4),
                    "runtime_adaptive": baseline_point.runtime_adaptive,
                }
            )
    return rows


def run_fig3a(*, samples: int = 300, seed: int = 2017) -> list[dict[str, object]]:
    """Energy/word (relative to the plain 16 b multiplier) per technique and precision."""
    return _fig3a_rows(resolve_characterization(samples=samples, seed=seed))


def run_fig3b(*, samples: int = 300, rmse_samples: int = 1500, seed: int = 2017) -> list[dict[str, object]]:
    """Relative energy vs. RMSE for DVAFS and the baselines of [3]-[5], [8]."""
    characterization = resolve_characterization(samples=samples, seed=seed)
    return _fig3b_rows(characterization, rmse_samples=rmse_samples, seed=seed)


def run(*, samples: int = 300, rmse_samples: int = 1500, seed: int = 2017) -> list[dict[str, object]]:
    """Both panels' rows, tagged with a ``panel`` column (the Fig. 3 data).

    The characterisation is resolved once and shared by both panels.
    """
    characterization = resolve_characterization(samples=samples, seed=seed)
    rows_a = _fig3a_rows(characterization)
    rows_b = _fig3b_rows(characterization, rmse_samples=rmse_samples, seed=seed)
    return [{"panel": "3a", **row} for row in rows_a] + [{"panel": "3b", **row} for row in rows_b]


def render(rows: list[dict[str, object]]) -> str:
    """Format rows (live or cached) as the two Fig. 3 panels."""
    def panel(tag: str) -> list[dict[str, object]]:
        return [
            {key: value for key, value in row.items() if key != "panel"}
            for row in rows
            if row.get("panel") == tag
        ]

    text = format_table(panel("3a"), title="Fig. 3a: multiplier energy per word vs precision")
    text += "\n"
    text += format_table(panel("3b"), title="Fig. 3b: relative energy vs RMSE (DVAFS vs baselines)")
    return text


def report(**kwargs) -> str:
    """Formatted Fig. 3a and Fig. 3b reproduction."""
    return render(run(**kwargs))


if __name__ == "__main__":  # pragma: no cover - thin shim over the unified CLI
    from ..runner.cli import main

    raise SystemExit(main(["report", "fig3"]))
