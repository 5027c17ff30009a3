"""Start-up: what a command imports, and the registry read from driver sources.

Covered here:

* the drift guard: for every real driver, the spec the registry reads from
  the driver's literal declarations matches the imported module's own
  ``PARAMS`` and ``ARTIFACTS`` and ``run()``'s signature (which takes
  exactly the declared parameters), and every producer imports and is
  callable;
* one parse per source text, shared by the registry and the fingerprint;
* the static checks of :meth:`ExperimentSpec.from_source` on small
  packages written to ``tmp_path`` (``driver_spec``);
* the import sets of fresh interpreters (``sys.modules`` only, no timing):
  ``repro list`` loads no driver, no science package, no service, no
  facade, no process pool and no store; ``sweep table2`` loads no other
  driver; a warm ``run --json`` replay loads no driver, no science
  package and no process pool; ``import repro`` still loads numpy;
* byte-identity pins taken before the registry stopped importing drivers:
  ``repro list`` stdout, the ``GET /v1/experiments`` body,
  ``api.list_experiments()`` and the import closure of every driver and
  producer (the closures are what the cache and artifact keys hash).
"""

from __future__ import annotations

import hashlib
import http.client
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api
from repro.experiments import DRIVERS
from repro.runner import fingerprint
from repro.runner import registry as registry_module
from repro.runner.artifacts import load_producer
from repro.runner.cache import ResultCache
from repro.runner.fingerprint import module_closure
from repro.runner.registry import build_registry
from repro.runner.service import ExperimentRunner
from repro.service import BackgroundServer, build_app

_SRC = Path(__file__).resolve().parent.parent / "src"
PINS = json.loads((Path(__file__).resolve().parent / "golden" / "registry_pins.json").read_text())

#: Prints ``python -m repro <argv>``'s stdout, then the sorted ``sys.modules`` as one JSON line.
_MODULES_AFTER = """\
import json, runpy, sys
sys.argv = ["repro", *sys.argv[1:]]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    assert not exit.code, exit.code
print(json.dumps(sorted(sys.modules)))
"""


def _fresh(code: str, *args: str, cache_dir: Path | str) -> tuple[str, list[str]]:
    """Run ``code`` in a new interpreter: (stdout before the last line, modules on the last line)."""
    env = {**os.environ, "PYTHONPATH": str(_SRC), "REPRO_CACHE_DIR": str(cache_dir)}
    env.pop("REPRO_STORE_URL", None)
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    out, _, last = done.stdout.rstrip("\n").rpartition("\n")
    return out + "\n", json.loads(last)


def _loaded(modules: list[str], package: str) -> list[str]:
    return [name for name in modules if name == package or name.startswith(package + ".")]


#: A package ``__init__`` that fails any import: the registry must read the driver without one.
_RAISING_INIT = "raise RuntimeError('the registry must not import this package')\n"


class TestRegistryFromSource:
    @pytest.mark.parametrize("name", list(DRIVERS))
    def test_declarations_match_the_imported_driver(self, name):
        spec = build_registry()[name]
        module = importlib.import_module(DRIVERS[name])
        assert spec.module_name == DRIVERS[name] and spec.module is module
        declared = getattr(module, "PARAMS", {})
        assert {pname: param.default for pname, param in spec.params.items()} == declared
        for pname, param in spec.params.items():
            assert param.type is (tuple if isinstance(declared[pname], (list, tuple)) else type(declared[pname]))
        declared_artifacts = getattr(module, "ARTIFACTS", {})
        assert list(spec.artifacts) == list(declared_artifacts)
        for artifact, (producer, params, *options) in declared_artifacts.items():
            binding = spec.artifacts[artifact]
            options = options[0] if options else {}
            assert (binding.producer, binding.params) == (producer, tuple(params))
            assert (binding.when, binding.after) == (options.get("when"), tuple(options.get("after", ())))
            assert binding.level == max((spec.artifacts[dep].level + 1 for dep in binding.after), default=0)
            assert callable(load_producer(producer))  # importable, and names a callable
        # run() takes exactly the declared parameters: by name, each defaulting
        # to the declared value, or through ``**kwargs`` that reject any other.
        signature = inspect.signature(module.run).parameters
        named = {pname: signature[pname].default for pname in spec.params if pname in signature}
        assert named == {pname: declared[pname] for pname in named}
        if any(parameter.kind is inspect.Parameter.VAR_KEYWORD for parameter in signature.values()):
            with pytest.raises(TypeError, match="undeclared"):
                module.run(undeclared=None)
        else:
            assert set(signature) == set(spec.params)

    def test_registry_and_fingerprints_parse_each_source_once(self, monkeypatch):
        parsed = []
        parse = fingerprint._parse_source
        monkeypatch.setattr(fingerprint, "_IMPORTS", {})
        monkeypatch.setattr(fingerprint, "_parse_source", lambda source: parsed.append(source) or parse(source))
        monkeypatch.setattr(registry_module, "_DECLARATIONS", {})
        registry = build_registry()
        build_registry()
        for spec in registry.values():
            fingerprint.code_fingerprint(spec.module_name)
            for binding in spec.artifacts.values():
                fingerprint.code_fingerprint(binding.producer.partition(":")[0])
        assert len(parsed) == len(set(parsed)) > len(DRIVERS)

    def test_reads_a_driver_without_importing_it(self, driver_spec):
        spec = driver_spec(
            """
            PARAMS: dict[str, object] = {"n": 3, "sizes": (1, 2), "flag": False}
            ARTIFACTS = {"a": ("PKG.producers:make", ("n",), {"when": "flag"})}

            def run(*, n=3, sizes=(1, 2), flag=False):
                return []
            """,
            __init__=_RAISING_INIT,
            producers="def make(*, n):\n    return n\n",
        )
        assert {name: param.default for name, param in spec.params.items()} == {
            "n": 3,
            "sizes": (1, 2),
            "flag": False,
        }
        assert spec.artifacts["a"].when == "flag"
        package = spec.module_name.partition(".")[0]
        assert not [name for name in sys.modules if name.startswith(package)]

    @pytest.mark.parametrize(
        ("source", "message"),
        [
            ("SIZE = 3\nPARAMS = {'n': SIZE}\ndef run(*, n=3): return []\n", "must be assigned a literal"),
            ("PARAMS = {'n': 3}\nPARAMS |= {'m': 1}\ndef run(*, n=3, m=1): return []\n", "must be assigned a literal"),
            ("PARAMS = {'n': 3}\ndef run(*, n=4): return []\n", "disagrees with run"),
            ("PARAMS = {'n': 3}\ndef run(*, m=3): return []\n", "not accepted by run"),
            ("N = 3\nPARAMS = {'n': 3}\ndef run(*, n=N): return []\n", "is not a literal"),
            ("PARAMS = {'n': 3}\nrun = print\n", "no top-level def run"),
            (
                "PARAMS = {'n': 3}\nARTIFACTS = {'a': ('PKG.producers:missing', ('n',))}\n"
                "def run(*, n=3): return []\n",
                "top-level def",
            ),
            (
                "PARAMS = {'n': 3}\nARTIFACTS = {'a': ('PKG.producers:aliased', ('n',))}\n"
                "def run(*, n=3): return []\n",
                "top-level def",
            ),
        ],
    )
    def test_static_checks_raise_type_errors(self, driver_spec, source, message):
        with pytest.raises(TypeError, match=message):
            driver_spec(source, __init__=_RAISING_INIT, producers="def make(): pass\naliased = make\n")


class TestStartupImports:
    def test_list_loads_no_driver_science_service_or_pool(self, tmp_path):
        _out, modules = _fresh(_MODULES_AFTER, "list", cache_dir=tmp_path)
        assert not [name for name in modules if name.startswith("repro.experiments.")]
        for package in ("arithmetic", "circuit", "core", "envision", "nn", "simd", "service", "api"):
            assert not _loaded(modules, f"repro.{package}"), package
        assert not _loaded(modules, "multiprocessing")
        assert not _loaded(modules, "concurrent.futures")
        # The cache root in the title needs no store (nor its fault sites).
        assert not _loaded(modules, "repro.runner.store")
        assert not _loaded(modules, "repro.faults")

    def test_sweep_table2_loads_no_other_driver(self, tmp_path):
        _out, modules = _fresh(
            _MODULES_AFTER,
            "sweep", "table2", "--grid", "seed=1", "--param", "input_length=24", "--param", "taps=5",
            "--param", "simd_widths=8", "--json", "--cache-dir", str(tmp_path),
            cache_dir=tmp_path,
        )
        drivers = [name for name in modules if name.startswith("repro.experiments.")]
        assert drivers == ["repro.experiments.table2"]

    def test_warm_json_replay_loads_no_driver_or_science(self, tmp_path):
        argv = ("run", "table1", "--param", "samples=40", "--param", "seed=3", "--json")
        _fresh(_MODULES_AFTER, *argv, cache_dir=tmp_path)  # cold: fills the cache
        _out, modules = _fresh(_MODULES_AFTER, *argv, cache_dir=tmp_path)
        assert not [name for name in modules if name.startswith("repro.experiments.")]
        for package in ("arithmetic", "circuit", "core", "envision", "nn", "simd"):
            assert not _loaded(modules, f"repro.{package}"), package
        # Only a batch that starts a worker pool loads the process machinery.
        assert _loaded(modules, "concurrent.futures") == ["concurrent.futures", "concurrent.futures._base"]
        assert not _loaded(modules, "multiprocessing")

    def test_table2_run_leaves_numpy_ma_unimported(self, tmp_path):
        # The trace engine decides aliasing in closed form; ``np.unique``
        # would import ``numpy.ma`` on its first call.
        code = (
            "import json, sys\nfrom repro.experiments import table2\n"
            "table2.run()\nprint(json.dumps(sorted(sys.modules)))\n"
        )
        _out, modules = _fresh(code, cache_dir=tmp_path)
        assert "repro.simd.engine" in modules
        assert _loaded(modules, "numpy.ma") == []

    def test_store_still_exports_the_cache_root(self):
        from repro.runner import default_cache_root, store

        assert store.default_cache_root is default_cache_root

    @pytest.mark.parametrize("package", ["repro", "repro.runner", "repro.experiments"])
    def test_every_lazy_export_resolves(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert getattr(module, name) is not None, name
        with pytest.raises(AttributeError):
            module.no_such_name

    def test_import_repro_still_loads_numpy(self, tmp_path):
        _out, modules = _fresh("import json, sys, repro\nprint(json.dumps(sorted(sys.modules)))\n", cache_dir=tmp_path)
        assert "numpy" in modules
        assert "repro.analysis" in modules


class TestParentPins:
    def test_list_stdout(self):
        out, _modules = _fresh(_MODULES_AFTER, "list", cache_dir="/pinned-cache-root")
        assert out.splitlines() == PINS["list_stdout"]

    def test_experiments_documents(self, tmp_path):
        assert json.dumps(api.list_experiments()) == json.dumps(PINS["experiments"])
        runner = ExperimentRunner(cache=ResultCache(tmp_path))
        with BackgroundServer(build_app(runner)) as server:
            connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
            connection.request("GET", "/v1/experiments")
            body = connection.getresponse().read()
            connection.close()
        assert hashlib.sha256(body).hexdigest() == PINS["experiments_body_sha256"]

    def test_driver_and_producer_closures(self):
        registry = build_registry()
        modules = {spec.module_name for spec in registry.values()} | {
            binding.producer.partition(":")[0] for spec in registry.values() for binding in spec.artifacts.values()
        }
        assert {name: module_closure(name) for name in sorted(modules)} == PINS["closures"]
