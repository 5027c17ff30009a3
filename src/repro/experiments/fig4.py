"""Fig. 4: SIMD-processor energy per word vs. precision (SW = 8 and 64).

Runs the convolution benchmark on the SIMD processor model -- through the
trace-compiled execution engine, which produces counters bit-identical to
the cycle-level interpreter -- calibrates the power model to the
published full-precision reference point, and sweeps
DAS / DVAS / DVAFS across the 16 / 12 / 8 / 4 b precisions at constant
throughput, normalising to the 1 x 16 b point of the same SW.
"""

from __future__ import annotations

import numpy as np

from ..analysis.reporting import format_table
from ..simd import SimdPowerModel, SimdProcessor, convolution_kernel, run_convolution

#: Cacheable run() parameters (name -> default); the runner registry's schema.
PARAMS = {
    "simd_widths": (8, 64),
    "precisions": (16, 12, 8, 4),
    "input_length": 48,
    "taps": 9,
    "seed": 2017,
}


def run(
    *,
    simd_widths: tuple[int, ...] = (8, 64),
    precisions: tuple[int, ...] = (16, 12, 8, 4),
    input_length: int = 48,
    taps: int = 9,
    seed: int = 2017,
) -> list[dict[str, object]]:
    """One record per (SW, technique, precision) with relative energy per word."""
    rows: list[dict[str, object]] = []
    for simd_width in simd_widths:
        processor = SimdProcessor(simd_width)
        workload = convolution_kernel(simd_width, input_length=input_length, taps=taps, seed=seed)
        outputs, execution = run_convolution(processor, workload)
        if not np.array_equal(outputs, workload.reference_output()):
            raise AssertionError("SIMD convolution output mismatch")
        model = SimdPowerModel(simd_width)
        model.calibrate(execution)
        baseline = model.report(execution, technique="DAS", precision=16)
        for technique in ("DAS", "DVAS", "DVAFS"):
            for precision in precisions:
                if precision not in model.scaling_table:
                    continue
                report_ = model.report(execution, technique=technique, precision=precision)
                rows.append(
                    {
                        "simd_width": simd_width,
                        "technique": technique,
                        "precision": precision,
                        "mode": report_.mode_label,
                        "power_mw": round(report_.power_mw, 1),
                        "relative_energy_per_word": round(
                            report_.energy_per_word_pj / baseline.energy_per_word_pj, 4
                        ),
                    }
                )
    return rows


def render(rows: list[dict[str, object]]) -> str:
    """Format rows (live or cached) as the Fig. 4 reproduction."""
    return format_table(
        rows, title="Fig. 4: SIMD processor energy per word vs precision (constant throughput)"
    )


def report(**kwargs) -> str:
    """Formatted Fig. 4 reproduction."""
    return render(run(**kwargs))


if __name__ == "__main__":  # pragma: no cover - thin shim over the unified CLI
    from ..runner.cli import main

    raise SystemExit(main(["report", "fig4"]))
