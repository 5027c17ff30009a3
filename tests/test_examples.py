"""Every script under ``examples/`` runs to completion.

Each example runs in a fresh interpreter with its result cache and temporary
files under ``tmp_path``, so a run neither reads nor leaves shared state.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

_REPO = Path(__file__).resolve().parent.parent
_EXAMPLES = sorted((_REPO / "examples").glob("*.py"))


def test_examples_found():
    assert len(_EXAMPLES) >= 5


@pytest.mark.parametrize("script", _EXAMPLES, ids=[path.stem for path in _EXAMPLES])
def test_example_runs(script, tmp_path):
    env = {
        **os.environ,
        "PYTHONPATH": str(_REPO / "src"),
        "REPRO_CACHE_DIR": str(tmp_path / "cache"),
        "TMPDIR": str(tmp_path),
    }
    env.pop("REPRO_STORE_URL", None)
    done = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
