"""Tests for the artifact hook and the science/orchestration closure boundary.

Covered here:

* :mod:`repro.artifact_hook` semantics: inline compute with nothing
  installed, ``installed(None)`` nested inside a store turning reuse off,
  and the previous store coming back when the block raises;
* the closure gate: no driver in the registry and no producer module named
  in its ``ARTIFACTS`` reaches the ``repro`` package itself, the runner,
  the HTTP service, the facade or the fault harness -- so editing
  orchestration code never changes a cache or artifact key;
* the reach gate: every science module is in the closure of some driver
  or producer, so no model survives whose only consumer is its own tests;
* the name gate: every function, method and property a science module
  defines is referenced outside its own ``def`` somewhere in the repo.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from repro import artifact_hook
from repro.runner.artifacts import ArtifactStore, activated, active_store, resolve_artifact
from repro.runner.fingerprint import module_closure
from repro.runner.registry import build_registry


#: The science packages whose modules must each be reached by a driver or producer.
_SCIENCE_PACKAGES = ("analysis", "arithmetic", "circuit", "core", "envision", "nn", "simd", "experiments")

#: Science modules allowed outside every closure.  ``MacUnit`` waits for the
#: guard-effectiveness measurement of ROADMAP item 2, which would give it a
#: driver consumer; without one it is deleted.
_UNREACHED_ALLOWED = {"repro.arithmetic.mac"}


def _driver_and_producer_modules() -> set[str]:
    modules = set()
    for spec in build_registry().values():
        modules.add(spec.module_name)
        modules.update(binding.producer.partition(":")[0] for binding in spec.artifacts.values())
    return modules


#: Where a reference keeps a science definition alive.
_REFERENCE_DIRECTORIES = ("src", "tests", "examples", "benchmarks", "perfbench")


def _references(tree: ast.Module):
    """``(identifier, line)`` of every name, attribute and ``"module:function"`` producer path in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and ":" in node.value:
            yield node.value.rpartition(":")[2], node.lineno


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
        modules = _driver_and_producer_modules()
        assert {"repro.core.scaling", "repro.nn.training"} <= modules
        for module in sorted(modules):
            leaked = [name for name in module_closure(module) if _is_orchestration(name)]
            assert leaked == [], f"{module} closure reaches orchestration: {leaked}"

    def test_every_science_module_is_reached(self):
        """Package ``__init__``s aside, each science module is in some driver's or producer's closure."""
        reached = set().union(*(module_closure(module) for module in _driver_and_producer_modules()))
        root = Path(repro.__file__).parent
        science = {
            f"repro.{package}.{path.stem}"
            for package in _SCIENCE_PACKAGES
            for path in (root / package).glob("*.py")
            if path.stem != "__init__"
        }
        assert len(science) > 40
        assert sorted(science - reached - _UNREACHED_ALLOWED) == []
        assert _UNREACHED_ALLOWED <= science - reached, "an allowed exception is reached now: drop it"

    def test_every_science_definition_is_referenced(self):
        """Each science ``def`` (dunders aside) is named somewhere outside its own body.

        A reference is a name, an attribute or a producer path in any file
        of the repo's code directories; the module exceptions of the reach
        gate are exempt here too.
        """
        repo = Path(repro.__file__).parents[2]
        references: dict[str, list[tuple[Path, int]]] = {}
        definitions = []
        for directory in _REFERENCE_DIRECTORIES:
            for path in sorted((repo / directory).rglob("*.py")):
                tree = ast.parse(path.read_bytes())
                for name, line in _references(tree):
                    references.setdefault(name, []).append((path, line))
                parts = path.relative_to(repo).with_suffix("").parts  # ("src", "repro", package, module)
                if (
                    parts[:2] == ("src", "repro")
                    and len(parts) == 4
                    and parts[2] in _SCIENCE_PACKAGES
                    and parts[3] != "__init__"
                    and ".".join(parts[1:]) not in _UNREACHED_ALLOWED
                ):
                    definitions.extend(
                        (path, node)
                        for node in ast.walk(tree)
                        if isinstance(node, ast.FunctionDef)
                        and not (node.name.startswith("__") and node.name.endswith("__"))
                    )
        assert len(definitions) > 300
        unreferenced = [
            f"{path.relative_to(repo)}:{node.lineno} {node.name}"
            for path, node in definitions
            if all(
                where == path and node.lineno <= line <= node.end_lineno
                for where, line in references.get(node.name, ())
            )
        ]
        assert unreferenced == []
