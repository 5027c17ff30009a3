"""Fig. 2: frequency, slack, supply voltage and activity vs. precision.

Four series at constant 500 MOPS throughput for the Booth-Wallace multiplier:

* (a) operating frequency of the DVAFS modes,
* (b) positive slack at the nominal 1.1 V supply (DAS/DVAS vs. DVAFS),
* (c) minimum supply voltage at zero positive slack,
* (d) relative switching activity (DAS/DVAS per word, DVAFS per cycle).
"""

from __future__ import annotations

from ..analysis.reporting import format_table
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
    """One record per precision with every Fig. 2 quantity."""
    characterization = resolve_characterization(samples=samples, seed=seed)
    das_activity = characterization.relative_activity("das")
    dvafs_activity = characterization.relative_activity("dvafs")
    rows = []
    for precision in sorted(characterization.profiles, reverse=True):
        profile = characterization.profiles[precision]
        rows.append(
            {
                "precision": precision,
                "frequency_mhz (2a)": profile.frequency_mhz,
                "das_slack_ns (2b)": round(profile.das_slack_ns, 2),
                "dvafs_slack_ns (2b)": round(profile.dvafs_slack_ns, 2),
                "dvas_voltage (2c)": round(profile.dvas_voltage, 2),
                "dvafs_voltage (2c)": round(profile.dvafs_as_voltage, 2),
                "das_activity (2d)": round(das_activity[precision], 3),
                "dvafs_activity (2d)": round(dvafs_activity[precision], 3),
            }
        )
    return rows


def render(rows: list[dict[str, object]]) -> str:
    """Format rows (live or cached) as the Fig. 2 reproduction."""
    return format_table(
        rows,
        title="Fig. 2: multiplier frequency / slack / voltage / activity vs precision",
    )


def report(**kwargs) -> str:
    """Formatted Fig. 2 reproduction."""
    return render(run(**kwargs))


if __name__ == "__main__":  # pragma: no cover - thin shim over the unified CLI
    from ..runner.cli import main

    raise SystemExit(main(["report", "fig2"]))
