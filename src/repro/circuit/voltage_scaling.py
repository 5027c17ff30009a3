"""Minimum-supply solvers for DVAS/DVAFS voltage scaling.

Given a critical path (in logic levels) and a target clock period, the
solver finds the lowest supply voltage at which the path still meets timing.
This is the mechanism that converts the *positive slack* created by precision
gating (Fig. 2b of the paper) into energy savings (Fig. 2c).
"""

from __future__ import annotations

from .delay import path_delay_ns
from .technology import Technology


def minimum_voltage_for_period(
    technology: Technology,
    logic_levels: float,
    clock_period_ns: float,
    *,
    resolution_mv: float = 1.0,
    guard_band_mv: float = 0.0,
) -> float:
    """Lowest supply (V) at which ``logic_levels`` fit in ``clock_period_ns``.

    A bisection search over the characterised supply range is used; the delay
    model is monotonic in voltage so bisection converges unconditionally.

    Parameters
    ----------
    technology:
        Technology corner providing the delay model and voltage limits.
    logic_levels:
        Critical path depth in reference logic levels.
    clock_period_ns:
        Target clock period in nanoseconds.
    resolution_mv:
        Search resolution in millivolts.
    guard_band_mv:
        Extra voltage margin added on top of the exact solution, in
        millivolts (models on-chip supply noise margin).

    Raises
    ------
    ValueError
        If the path cannot meet the period even at the maximum supply.
    """
    if clock_period_ns <= 0:
        raise ValueError("clock_period_ns must be positive")
    if logic_levels < 0:
        raise ValueError("logic_levels must be non-negative")
    if resolution_mv <= 0:
        raise ValueError("resolution_mv must be positive")

    lo = technology.min_voltage
    hi = technology.max_voltage

    if path_delay_ns(technology, logic_levels, hi) > clock_period_ns:
        raise ValueError(
            f"critical path of {logic_levels:.1f} levels cannot meet a "
            f"{clock_period_ns:.3f} ns period even at {hi:.2f} V"
        )
    if path_delay_ns(technology, logic_levels, lo) <= clock_period_ns:
        return technology.clamp_voltage(lo + guard_band_mv / 1000.0)

    tolerance = resolution_mv / 1000.0
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if path_delay_ns(technology, logic_levels, mid) <= clock_period_ns:
            hi = mid
        else:
            lo = mid
    return technology.clamp_voltage(hi + guard_band_mv / 1000.0)
