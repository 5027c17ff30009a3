"""Circuit-level substrate: technology corners, delay, energy and voltage scaling."""

from .clock import constant_throughput_frequency
from .delay import CriticalPath, delay_stretch, path_delay_ns, unit_delay_ps
from .energy import dynamic_power_mw, toggle_energy_pj, voltage_energy_scale
from .technology import TECH_28NM_FDSOI, TECH_40NM_LP_LVT, Technology
from .voltage_scaling import minimum_voltage_for_period

__all__ = [
    "constant_throughput_frequency",
    "CriticalPath",
    "delay_stretch",
    "path_delay_ns",
    "unit_delay_ps",
    "dynamic_power_mw",
    "toggle_energy_pj",
    "voltage_energy_scale",
    "TECH_28NM_FDSOI",
    "TECH_40NM_LP_LVT",
    "Technology",
    "minimum_voltage_for_period",
]
