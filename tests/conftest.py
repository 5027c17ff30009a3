"""Shared fixtures for the test suite.

Expensive artefacts (multiplier characterisation, SIMD kernel execution,
trained LeNet) are built once per session and reused across test modules.
Toy experiment drivers are written as source packages and registered
through :func:`driver_spec`.
"""

from __future__ import annotations

import sys
import textwrap
import uuid
from pathlib import Path

import pytest

# Allow running the tests from a source checkout without installation.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.scaling import characterize_multiplier  # noqa: E402
from repro.nn import Trainer, lenet5, synthetic_digits  # noqa: E402
from repro.runner.registry import ExperimentSpec  # noqa: E402
from repro.simd import SimdProcessor, convolution_kernel, run_convolution  # noqa: E402


@pytest.fixture(scope="session")
def characterization():
    """Multiplier characterisation with a reduced sample count (fast)."""
    return characterize_multiplier(samples=150, seed=7)


@pytest.fixture(scope="session")
def simd_execution():
    """A convolution run on the SW=8 SIMD processor: (workload, outputs, result)."""
    processor = SimdProcessor(8)
    workload = convolution_kernel(8, input_length=32, taps=5, seed=11)
    outputs, result = run_convolution(processor, workload)
    return workload, outputs, result


@pytest.fixture(scope="session")
def digit_dataset():
    """Small synthetic digit dataset shared across NN tests."""
    return synthetic_digits(train_samples=360, test_samples=80, size=16, seed=5)


@pytest.fixture(scope="session")
def trained_lenet(digit_dataset):
    """A LeNet-5 (16x16 input) trained briefly on the synthetic digits."""
    network = lenet5(input_size=16, seed=5)
    trainer = Trainer(network, learning_rate=0.1)
    history = trainer.fit(digit_dataset, epochs=7, batch_size=24, seed=5)
    return network, history


@pytest.fixture()
def driver_spec(tmp_path, monkeypatch):
    """Factory for toy drivers: ``driver_spec(source, name="toy", **modules) -> ExperimentSpec``.

    Each call writes a fresh, uniquely named package under ``tmp_path``:
    ``driver.py`` holds ``source`` and each keyword adds one
    ``<module>.py`` (``__init__`` included; it is empty otherwise).  ``PKG``
    in any text is replaced by the package name.  The spec is read with
    :meth:`ExperimentSpec.from_source`, the builder every run path uses.
    """

    def build(source: str, *, name: str = "toy", **modules: str) -> ExperimentSpec:
        package = f"driverpkg_{uuid.uuid4().hex[:8]}"
        (tmp_path / package).mkdir()
        for module, text in {"__init__": "", **modules, "driver": source}.items():
            (tmp_path / package / f"{module}.py").write_text(textwrap.dedent(text).replace("PKG", package))
        monkeypatch.syspath_prepend(str(tmp_path))
        return ExperimentSpec.from_source(name, f"{package}.driver")

    return build
