"""Switched-capacitance energy models.

Dynamic energy of a digital block follows ``E = alpha * C * V^2`` where
``alpha`` is the switching activity, ``C`` the switched capacitance and ``V``
the supply voltage.  The structural arithmetic models count *cell toggles*
directly, so the energy of one operation is simply the number of toggles
multiplied by the per-toggle reference energy scaled quadratically with
voltage.
"""

from __future__ import annotations

from .technology import Technology


def voltage_energy_scale(technology: Technology, voltage: float) -> float:
    """Quadratic energy scale factor of ``voltage`` vs. the nominal supply."""
    if voltage <= 0:
        raise ValueError("voltage must be positive")
    return (voltage / technology.nominal_voltage) ** 2


def toggle_energy_pj(technology: Technology, toggles: float, voltage: float) -> float:
    """Dynamic energy (pJ) of ``toggles`` reference-cell toggles at ``voltage``."""
    if toggles < 0:
        raise ValueError("toggles must be non-negative")
    energy_fj = (
        toggles
        * technology.unit_energy_fj
        * technology.wire_factor
        * voltage_energy_scale(technology, voltage)
    )
    return energy_fj / 1000.0


def dynamic_power_mw(
    switched_capacitance_pf: float,
    activity: float,
    frequency_mhz: float,
    voltage: float,
) -> float:
    """Evaluate ``P = alpha * C * f * V^2`` in engineering units.

    Parameters are in pF, dimensionless activity, MHz and volts; the result
    is in milliwatts.  This is the primitive behind the analytical DAS/DVAS/
    DVAFS power equations of :mod:`repro.core.power_model`.
    """
    if switched_capacitance_pf < 0:
        raise ValueError("switched_capacitance_pf must be non-negative")
    if activity < 0:
        raise ValueError("activity must be non-negative")
    if frequency_mhz < 0:
        raise ValueError("frequency_mhz must be non-negative")
    if voltage < 0:
        raise ValueError("voltage must be non-negative")
    # pF * MHz * V^2 = 1e-12 F * 1e6 Hz * V^2 = 1e-6 W = uW; convert to mW.
    return activity * switched_capacitance_pf * frequency_mhz * voltage**2 * 1e-3
