"""Experiment drivers: one module per table/figure of the paper's evaluation.

============  ===========================================================
module        reproduces
============  ===========================================================
``table1``    Table I  -- multiplier scaling parameters k0..k5, N
``fig2``      Fig. 2   -- frequency / slack / voltage / activity vs bits
``fig3``      Fig. 3a  -- multiplier energy vs precision,
              Fig. 3b  -- energy vs RMSE against baselines [3]-[5], [8]
``fig4``      Fig. 4   -- SIMD processor energy vs precision (SW = 8, 64)
``table2``    Table II -- SIMD processor power distribution per mode
``fig6``      Fig. 6   -- per-layer minimum precision (LeNet-5, AlexNet)
``fig8``      Fig. 8   -- Envision energy vs precision (const f / const T)
``table3``    Table III-- per-layer power/efficiency of VGG16/AlexNet/LeNet
============  ===========================================================

Each module exposes ``run(**kwargs) -> list[dict]`` returning the raw rows,
``render(rows) -> str`` formatting rows from a live run or the result cache
alike, and ``report(**kwargs) -> str`` (= ``render(run(**kwargs))``).  A
driver's inputs are the parameters declared in its ``PARAMS`` mapping
(name -> default) -- the schema consumed by :mod:`repro.runner.registry` --
plus the shared intermediates its science resolves through
:mod:`repro.artifact_hook`.  ``python -m repro`` is the unified entry point.

Importing this package imports no driver: the registry reads the literal
declarations from source, and ``EXPERIMENTS[name]`` or ``repro.experiments.<name>``
imports a driver on first use.
"""

import importlib
from collections.abc import Mapping
from types import ModuleType

#: Driver module names, keyed by the paper artefact they regenerate (registry order).
DRIVERS = {
    name: f"{__name__}.{name}"
    for name in ("table1", "fig2", "fig3", "fig4", "table2", "fig6", "fig8", "table3")
}


class _Drivers(Mapping):
    """``DRIVERS`` with the modules as values: a driver is imported when it is looked up."""

    def __getitem__(self, name: str) -> ModuleType:
        return importlib.import_module(DRIVERS[name])

    def __iter__(self):
        return iter(DRIVERS)

    def __len__(self) -> int:
        return len(DRIVERS)


#: Registry of all experiments, keyed by the paper artefact they regenerate.
EXPERIMENTS: Mapping[str, ModuleType] = _Drivers()


def __getattr__(name: str) -> ModuleType:
    if name in DRIVERS:
        return importlib.import_module(DRIVERS[name])
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["DRIVERS", "EXPERIMENTS", *DRIVERS]
