"""Fig. 8: Envision energy per word vs. precision.

Two schedules are reported, both on a dense 5x5 CONV workload at the chip's
typical 73 % MAC efficiency:

* (a) constant 200 MHz clock -- throughput grows with the subword
  parallelism, energy per operation drops through activity + voltage
  scaling;
* (b) constant 76 GOPS throughput -- the clock drops with N, allowing the
  0.80 V / 0.65 V supplies and the full DVAFS gains (4.2 TOPS/W at 4x4b).
"""

from __future__ import annotations

from ..analysis.reporting import format_table
from ..envision import EnvisionChip

#: Cacheable run() parameters (name -> default); the figure is fixed by the
#: default Envision chip model, so it has no knobs.
PARAMS: dict[str, object] = {}


def run() -> list[dict[str, object]]:
    """Records for both Fig. 8a (constant f) and Fig. 8b (constant throughput)."""
    chip = EnvisionChip()
    rows: list[dict[str, object]] = []
    for schedule, constant_throughput in (("8a: constant 200MHz", False), ("8b: constant 76GOPS", True)):
        for record in chip.energy_per_word_curve(constant_throughput=constant_throughput):
            rows.append({"schedule": schedule, **record})
    return rows


def headline_gains(rows: list[dict[str, object]]) -> dict[str, float]:
    """Gains quoted in the paper: DVAFS vs DAS and vs DVAS at 4 b, constant throughput."""
    constant_throughput = [r for r in rows if str(r["schedule"]).startswith("8b")]

    def energy(technique: str, precision: int) -> float:
        for record in constant_throughput:
            if record["technique"] == technique and record["precision"] == precision:
                return float(record["relative_energy_per_word"])
        raise KeyError((technique, precision))

    return {
        "dvafs_vs_das_4b": energy("DAS", 4) / energy("DVAFS", 4),
        "dvafs_vs_dvas_4b": energy("DVAS", 4) / energy("DVAFS", 4),
        "dvafs_16b_to_4b_range": energy("DVAFS", 16) / energy("DVAFS", 4),
    }


def render(rows: list[dict[str, object]]) -> str:
    """Format rows (live or cached) as the Fig. 8 reproduction + headline gains."""
    text = format_table(rows, title="Fig. 8: Envision energy per word vs precision")
    gains = headline_gains(rows)
    text += (
        f"\nDVAFS vs DAS at 4b: {gains['dvafs_vs_das_4b']:.1f}x  "
        f"(paper: 6.9x)\nDVAFS vs DVAS at 4b: {gains['dvafs_vs_dvas_4b']:.1f}x  (paper: 4.1x)\n"
    )
    return text


def report(**kwargs) -> str:
    """Formatted Fig. 8 reproduction."""
    return render(run(**kwargs))


if __name__ == "__main__":  # pragma: no cover - thin shim over the unified CLI
    from ..runner.cli import main

    raise SystemExit(main(["report", "fig8"]))
