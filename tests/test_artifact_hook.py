"""Tests for the artifact hook and the science/orchestration closure boundary.

Covered here:

* :mod:`repro.artifact_hook` semantics: inline compute with nothing
  installed, ``installed(None)`` nested inside a store turning reuse off,
  and the previous store coming back when the block raises;
* the closure gate: no driver in the registry and no producer module named
  in its ``ARTIFACTS`` reaches the ``repro`` package itself, the runner,
  the HTTP service, the facade or the fault harness -- so editing
  orchestration code never changes a cache or artifact key.
"""

from __future__ import annotations

import pytest

from repro import artifact_hook
from repro.runner.artifacts import ArtifactStore, activated, active_store, resolve_artifact
from repro.runner.fingerprint import module_closure
from repro.runner.registry import build_registry


def _counting_producer(calls):
    def producer(*, x):
        calls.append(x)
        return x + 1

    return producer


class TestHook:
    def test_runner_names_are_the_hook(self):
        assert activated is artifact_hook.installed
        assert active_store is artifact_hook.current
        assert resolve_artifact is artifact_hook.resolve

    def test_nothing_installed_runs_producer_inline_every_call(self):
        calls = []
        producer = _counting_producer(calls)
        assert artifact_hook.current() is None
        assert [artifact_hook.resolve("demo", {"x": 4}, producer=producer) for _ in range(3)] == [5, 5, 5]
        assert calls == [4, 4, 4]

    def test_installed_none_inside_store_turns_reuse_off(self, tmp_path):
        calls = []
        producer = _counting_producer(calls)
        store = ArtifactStore(tmp_path)
        with artifact_hook.installed(store):
            assert artifact_hook.resolve("demo", {"x": 1}, producer=producer) == 2
            assert artifact_hook.resolve("demo", {"x": 1}, producer=producer) == 2
            assert calls == [1]  # the second call replayed the stored entry
            with activated(None):
                assert artifact_hook.current() is None
                assert artifact_hook.resolve("demo", {"x": 1}, producer=producer) == 2
                assert calls == [1, 1]  # computed inline despite the stored entry
            assert artifact_hook.current() is store
        assert artifact_hook.current() is None

    def test_previous_store_restored_when_block_raises(self, tmp_path):
        outer, inner = ArtifactStore(tmp_path / "outer"), ArtifactStore(tmp_path / "inner")
        with artifact_hook.installed(outer):
            with pytest.raises(RuntimeError):
                with artifact_hook.installed(inner):
                    assert artifact_hook.current() is inner
                    raise RuntimeError("producer failed")
            assert artifact_hook.current() is outer
        assert artifact_hook.current() is None


def _is_orchestration(module: str) -> bool:
    return module in ("repro", "repro.api", "repro.faults") or any(
        module == package or module.startswith(package + ".") for package in ("repro.runner", "repro.service")
    )


class TestClosureGate:
    def test_hook_imports_nothing_from_repro(self):
        assert module_closure("repro.artifact_hook") == ["repro.artifact_hook"]

    def test_science_closures_exclude_orchestration(self):
        modules = set()
        for spec in build_registry().values():
            modules.add(spec.module.__name__)
            modules.update(binding.producer.partition(":")[0] for binding in spec.artifacts.values())
        assert {"repro.core.scaling", "repro.nn.training"} <= modules
        for module in sorted(modules):
            leaked = [name for name in module_closure(module) if _is_orchestration(name)]
            assert leaked == [], f"{module} closure reaches orchestration: {leaked}"
