"""Table II: SIMD-processor power distribution per mode and SIMD width.

For SW = 8 and SW = 64 and the modes 1x16b, 1x8b, 1x4b (DVAS) and 2x8b,
4x4b (DVAFS), reports the supplies, the mem / nas / as percentage split and
the total power, next to the values published in the paper.  The convolution
counters come from the trace-compiled execution engine; they are
bit-identical to the cycle-level interpreter.
"""

from __future__ import annotations

import numpy as np

from ..analysis.reporting import format_table
from ..simd import SimdPowerModel, SimdProcessor, convolution_kernel, run_convolution

#: Published Table II rows: (SW, mode label, total power in mW).
PAPER_TABLE_II_POWER = {
    (8, "1x16b"): 36.0,
    (8, "1x8b"): 24.0,
    (8, "1x4b"): 20.0,
    (8, "2x8b"): 15.0,
    (8, "4x4b"): 7.0,
    (64, "1x16b"): 289.0,
    (64, "1x8b"): 160.0,
    (64, "1x4b"): 111.0,
    (64, "2x8b"): 103.0,
    (64, "4x4b"): 45.0,
}

#: Cacheable run() parameters (name -> default); the runner registry's schema.
PARAMS = {
    "simd_widths": (8, 64),
    "input_length": 48,
    "taps": 9,
    "seed": 2017,
}

#: Modes of Table II as (technique, precision) pairs, in row order.
TABLE_II_MODES = [
    ("DAS", 16),
    ("DVAS", 8),
    ("DVAS", 4),
    ("DVAFS", 8),
    ("DVAFS", 4),
]


def run(
    *,
    simd_widths: tuple[int, ...] = (8, 64),
    input_length: int = 48,
    taps: int = 9,
    seed: int = 2017,
) -> list[dict[str, object]]:
    """One record per Table II row."""
    rows: list[dict[str, object]] = []
    for simd_width in simd_widths:
        processor = SimdProcessor(simd_width)
        workload = convolution_kernel(simd_width, input_length=input_length, taps=taps, seed=seed)
        outputs, execution = run_convolution(processor, workload)
        if not np.array_equal(outputs, workload.reference_output()):
            raise AssertionError("SIMD convolution output mismatch")
        model = SimdPowerModel(simd_width)
        model.calibrate(execution)
        for technique, precision in TABLE_II_MODES:
            report_ = model.report(execution, technique=technique, precision=precision)
            fractions = report_.domain_fractions()
            label = report_.mode_label
            rows.append(
                {
                    "SW": simd_width,
                    "mode": label,
                    "Vnas": round(report_.nas_voltage, 2),
                    "Vas": round(report_.as_voltage, 2),
                    "mem %": round(100 * fractions["mem"]),
                    "nas %": round(100 * fractions["nas"]),
                    "as %": round(100 * fractions["as"]),
                    "P [mW]": round(report_.power_mw, 1),
                    "P paper [mW]": PAPER_TABLE_II_POWER.get((simd_width, label), "-"),
                }
            )
    return rows


def render(rows: list[dict[str, object]]) -> str:
    """Format rows (live or cached) as the Table II reproduction."""
    return format_table(rows, title="Table II: SIMD processor power distribution")


def report(**kwargs) -> str:
    """Formatted Table II reproduction."""
    return render(run(**kwargs))


if __name__ == "__main__":  # pragma: no cover - thin shim over the unified CLI
    from ..runner.cli import main

    raise SystemExit(main(["report", "table2"]))
