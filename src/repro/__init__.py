"""DVAFS reproduction library.

A from-scratch Python implementation of the systems described in

    Moons, Uytterhoeven, Dehaene, Verhelst,
    "DVAFS: Trading Computational Accuracy for Energy Through
    Dynamic-Voltage-Accuracy-Frequency-Scaling", DATE 2017.

Subpackages
-----------
``repro.arithmetic``
    Fixed point, structural Booth-Wallace multipliers (DAS/DVAS), the
    subword-parallel DVAFS multiplier, MAC units and the approximate
    multiplier baselines of Fig. 3b.
``repro.circuit``
    Technology corners, alpha-power-law delay, energy and voltage scaling.
``repro.core``
    The DVAFS power equations, scaling-parameter extraction (Table I) and
    operating points.
``repro.simd``
    The DVAFS-compatible SIMD RISC vector processor of Section III-B
    (ISA, assembler, cycle-level simulator, calibrated power model).
``repro.nn``
    The CNN substrate: layers, LeNet-5/AlexNet/VGG16 topologies, synthetic
    datasets, training, quantisation search and sparsity analysis.
``repro.envision``
    The Envision CNN-processor model of Section V.
``repro.experiments``
    One driver per table/figure of the paper's evaluation.
``repro.artifact_hook``
    The stdlib slot through which producers reach the runner's artifact
    store, keeping orchestration out of the science's cache keys.
``repro.runner``
    Experiment orchestration: typed registry, content-addressed result
    cache, process-parallel execution and the ``python -m repro`` CLI.
``repro.api``
    The stable public facade (``run``/``run_all``/``sweep``/``serve``/
    ``list_experiments`` plus the typed error taxonomy) that both the CLI
    and the HTTP service are thin renderers over.
``repro.service``
    The stdlib-only HTTP/JSON service behind ``python -m repro serve``.

Only ``repro.analysis`` is imported with the package; every other
subpackage, and each name re-exported here, loads on first attribute access.
"""

import importlib

# Every command renders through ``analysis``; it is the one eager subpackage.
from . import analysis

__version__ = "1.0.0"

#: Submodules loaded on first access (PEP 562), so ``python -m repro list``
#: never runs the science it does not need.
_SUBMODULES = ("api", "arithmetic", "circuit", "core", "envision", "experiments", "nn", "runner", "simd")
#: Subpackage -> the names re-exported here, each loaded on first access.
_SUBMODULE_EXPORTS = {
    "arithmetic": ("BoothWallaceMultiplier", "MacUnit", "SubwordParallelMultiplier"),
    "circuit": ("TECH_28NM_FDSOI", "TECH_40NM_LP_LVT", "Technology"),
    "core": (
        "DvafsSystem",
        "OperatingPoint",
        "PAPER_TABLE_I",
        "ScalingParameters",
        "characterize_multiplier",
        "multiplier_energy_curves",
    ),
    "envision": ("EnvisionChip", "EnvisionScheduler"),
    "nn": ("Network", "PrecisionSearch", "alexnet", "lenet5", "vgg16"),
    "simd": ("SimdPowerModel", "SimdProcessor", "convolution_kernel"),
}
_EXPORTS = {name: module for module, names in _SUBMODULE_EXPORTS.items() for name in names}


def __getattr__(name: str) -> object:
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


__all__ = ["analysis", *_SUBMODULES, *_EXPORTS, "__version__"]
