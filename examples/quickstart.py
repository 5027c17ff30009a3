"""Quickstart: the DVAFS energy-accuracy trade-off in a dozen lines.

Characterises the precision-scalable Booth-Wallace multiplier, prints the
extracted Table-I scaling parameters and the DAS / DVAS / DVAFS energy
curves, and shows how an operating point is picked for a given precision
requirement.

Run with:  python examples/quickstart.py
"""

from repro import characterize_multiplier, multiplier_energy_curves
from repro.analysis import format_table


def main() -> None:
    # 1. Characterise the multiplier (activity, critical paths, voltages).
    characterization = characterize_multiplier(samples=300)
    print(f"16b baseline energy: {characterization.baseline_energy_per_word_pj:.2f} pJ/word\n")

    # 2. Table I: the extracted k factors and subword parallelism.
    rows = [
        {
            "precision": precision,
            "k0": round(row.k0, 2),
            "k2": round(row.k2, 2),
            "k3": round(row.k3, 2),
            "k4": round(row.k4, 2),
            "N": row.parallelism,
        }
        for precision, row in sorted(characterization.scaling_parameters().items(), reverse=True)
    ]
    print(format_table(rows, title="Extracted scaling parameters (Table I)"))

    # 3. Fig. 3a: energy per word of DAS, DVAS and DVAFS vs precision.
    points = multiplier_energy_curves(characterization)
    curves = [
        {
            "technique": point.technique,
            "precision": point.precision,
            "relative_energy": round(point.relative_energy, 3),
            "V_as": round(point.voltage_as, 2),
            "f [MHz]": point.frequency_mhz,
        }
        for point in points
    ]
    print(format_table(curves, title="Energy per word, normalised to the plain 16b multiplier (Fig. 3a)"))

    # 4. Pick the cheapest DVAFS mode that still covers a task needing 6 bits.
    mode = min(
        (point for point in points if point.technique == "DVAFS" and point.precision >= 6),
        key=lambda point: point.relative_energy,
    )
    print(
        f"A 6-bit task runs in the {mode.parallelism}x{mode.precision}b mode at "
        f"{mode.frequency_mhz:.0f} MHz / {mode.voltage_as:.2f} V, "
        f"costing {mode.relative_energy:.3f}x the 16b baseline energy per word."
    )


if __name__ == "__main__":
    main()
