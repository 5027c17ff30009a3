"""Table I: D(V)A(F)S scaling parameters of the 16-bit multiplier.

Re-extracts k0, k1, k2, k3, k4 (and k5) plus the subword parallelism N from
the structural multiplier models and prints them next to the values the
paper reports.
"""

from __future__ import annotations

from ..analysis.reporting import format_table
from ..core.power_model import PAPER_TABLE_I
from ..core.scaling import resolve_characterization

#: Cacheable run() parameters (name -> default); the runner registry's schema.
PARAMS = {"samples": 300, "seed": 2017}
#: Shared sub-experiment intermediates (artifact -> (producer, params subset)).
ARTIFACTS = {
    "multiplier_characterization": (
        "repro.core.scaling:characterization_artifact",
        ("samples", "seed"),
    ),
}


def run(*, samples: int = 300, seed: int = 2017) -> list[dict[str, object]]:
    """Compute the Table I rows; returns one record per precision."""
    extracted = resolve_characterization(samples=samples, seed=seed).scaling_parameters()
    rows = []
    for precision in sorted(extracted, reverse=True):
        ours = extracted[precision]
        paper = PAPER_TABLE_I.get(precision)
        rows.append(
            {
                "precision": precision,
                "k0": round(ours.k0, 2),
                "k0 (paper)": paper.k0 if paper else "-",
                "k2": round(ours.k2, 2),
                "k2 (paper)": paper.k2 if paper else "-",
                "k3": round(ours.k3, 2),
                "k3 (paper)": paper.k3 if paper else "-",
                "k4": round(ours.k4, 2),
                "k4 (paper)": paper.k4 if paper else "-",
                "k5": round(ours.k5, 2),
                "N": ours.parallelism,
                "N (paper)": paper.parallelism if paper else "-",
            }
        )
    return rows


def render(rows: list[dict[str, object]]) -> str:
    """Format rows (live or cached) as the Table I reproduction."""
    return format_table(rows, title="Table I: D(V)A(F)S multiplier scaling parameters")


def report(**kwargs) -> str:
    """Formatted Table I reproduction."""
    return render(run(**kwargs))


if __name__ == "__main__":  # pragma: no cover - thin shim over the unified CLI
    from ..runner.cli import main

    raise SystemExit(main(["report", "table1"]))
