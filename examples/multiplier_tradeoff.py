"""Bit-level walk-through of the DVAFS multiplier.

Shows the three mechanisms of the paper on the structural models:

1. precision gating reduces switching activity (DAS),
2. the shortened critical path allows a lower supply (DVAS),
3. subword-parallel reuse allows a lower frequency and therefore an even
   lower supply at constant throughput (DVAFS),

and compares the resulting energy/accuracy points against the approximate
multiplier baselines of Fig. 3b.

Run with:  python examples/multiplier_tradeoff.py
"""

import numpy as np

from repro.analysis import format_table
from repro.arithmetic import (
    BoothWallaceMultiplier,
    SubwordParallelMultiplier,
    all_baseline_curves,
)
from repro.circuit import TECH_40NM_LP_LVT, minimum_voltage_for_period


def main() -> None:
    rng = np.random.default_rng(0)
    xs = [int(v) for v in rng.integers(-32768, 32768, 200)]
    ys = [int(v) for v in rng.integers(-32768, 32768, 200)]

    # -- 1. DAS: activity drops with gated precision --------------------------
    rows = []
    for precision in (16, 12, 8, 4):
        multiplier = BoothWallaceMultiplier(16)
        multiplier.set_precision(precision)
        multiplier.multiply_stream(xs, ys)
        path = multiplier.critical_path()
        voltage = minimum_voltage_for_period(TECH_40NM_LP_LVT, path.logic_levels, 2.0)
        rows.append(
            {
                "precision": precision,
                "activity [GE/word]": round(multiplier.activity.toggles_per_word),
                "critical path [ns @1.1V]": round(path.delay_ns(1.1), 2),
                "slack [ns]": round(path.positive_slack_ns(1.1, 2.0), 2),
                "V_min @500MHz": round(voltage, 2),
            }
        )
    print(format_table(rows, title="DAS/DVAS: gated precision on the 16b Booth-Wallace multiplier"))

    # -- 2. DVAFS: subword parallelism allows frequency scaling ---------------
    rows = []
    for precision in (16, 8, 4):
        multiplier = SubwordParallelMultiplier(16)
        mode = multiplier.set_precision(precision)
        lo, hi = -(1 << (precision - 1)), (1 << (precision - 1)) - 1
        sub_x = [int(v) for v in rng.integers(lo, hi + 1, 200)]
        sub_y = [int(v) for v in rng.integers(lo, hi + 1, 200)]
        usable = len(sub_x) - len(sub_x) % mode.parallelism
        products = multiplier.multiply_stream(sub_x[:usable], sub_y[:usable])
        assert products == [a * b for a, b in zip(sub_x[:usable], sub_y[:usable])]
        period_ns = 2.0 * mode.parallelism
        levels = multiplier.critical_path().logic_levels
        voltage = minimum_voltage_for_period(TECH_40NM_LP_LVT, levels, period_ns)
        energy = multiplier.activity.energy_per_word_pj(TECH_40NM_LP_LVT, voltage)
        rows.append(
            {
                "mode": str(mode),
                "frequency [MHz]": 500 / mode.parallelism,
                "V_min": round(voltage, 2),
                "energy [pJ/word]": round(energy, 3),
            }
        )
    print(format_table(rows, title="DVAFS: subword-parallel modes at constant 500 MOPS"))

    # -- 3. The competing approximate multipliers of Fig. 3b ------------------
    rows = []
    for scheme, points in all_baseline_curves().items():
        for point in points:
            rows.append(
                {
                    "scheme": scheme,
                    "configuration": point.label,
                    "relative RMSE": f"{point.rmse:.2e}",
                    "relative energy": round(point.relative_energy, 2),
                    "runtime adaptive": point.runtime_adaptive,
                }
            )
    print(format_table(rows, title="Approximate-multiplier baselines (Fig. 3b)"))


if __name__ == "__main__":
    main()
