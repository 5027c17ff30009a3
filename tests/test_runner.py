"""Determinism suite for the orchestration layer (registry, cache, executor, CLI).

The contracts gated here:

* the typed registry canonicalises configs deterministically and rejects
  mistyped/unknown parameters;
* code fingerprints track the static import closure and change with source;
* a cache hit replays rows bit-identically (fig4/table2), and the entry
  invalidates when either the params or the code fingerprint change;
* a parallel sweep (``jobs=N``) produces records byte-identical to and in
  the same order as the serial sweep;
* the ``python -m repro`` CLI round-trips rows through JSON/CSV and manages
  the cache.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

import repro
from repro.analysis.sweep import SweepResult, parameter_sweep, sweep_grid
from repro.runner import service as service_module
from repro.runner.cache import CacheEntry, ResultCache, cache_key, run_provenance
from repro.runner.cli import main
from repro.runner.executor import parallel_sweep
from repro.runner.fingerprint import (
    _is_main_guard,
    _is_type_checking_guard,
    _parse_source,
    _walk_importable,
    code_fingerprint,
    module_closure,
)
from repro.runner.registry import ParamSpec, build_registry
from repro.runner.service import ExperimentRunner

#: Small fig4/table2 configs so cache tests stay fast.
FIG4_SMALL = {"input_length": 24, "taps": 5, "simd_widths": (8,)}
TABLE2_SMALL = {"input_length": 24, "taps": 5, "simd_widths": (8,)}


def _evaluate_pair(x, y):
    """Module-level so ProcessPoolExecutor can pickle it."""
    return {"product": x * y, "mean": (x + y) / 2}


@pytest.fixture()
def runner(tmp_path):
    return ExperimentRunner(cache=ResultCache(tmp_path / "cache"))


class TestRegistry:
    def test_every_experiment_registered(self):
        registry = build_registry()
        assert sorted(registry) == sorted(
            ["table1", "fig2", "fig3", "fig4", "table2", "fig6", "fig8", "table3"]
        )

    def test_canonicalization_is_deterministic(self):
        spec = build_registry()["fig4"]
        first = spec.canonical_config({"taps": 5, "input_length": 24})
        second = spec.canonical_config({"input_length": 24, "taps": 5})
        assert first == second
        assert spec.canonical_json(first) == spec.canonical_json(second)
        assert list(first) == sorted(first)  # sorted key order

    def test_list_coerced_to_tuple(self):
        spec = build_registry()["fig4"]
        config = spec.canonical_config({"simd_widths": [8, 64]})
        assert config["simd_widths"] == (8, 64)
        assert spec.canonical_json(config) == spec.canonical_json(
            spec.canonical_config({"simd_widths": (8, 64)})
        )

    def test_unknown_parameter_rejected(self):
        spec = build_registry()["table1"]
        with pytest.raises(KeyError, match="unknown/uncacheable"):
            spec.canonical_config({"bogus": 1})
        # Object parameters are uncacheable, so the canonical path rejects them too.
        with pytest.raises(KeyError):
            spec.canonical_config({"characterization": object()})

    def test_mistyped_value_rejected(self):
        spec = build_registry()["table1"]
        with pytest.raises(TypeError):
            spec.canonical_config({"samples": "many"})
        with pytest.raises(TypeError):
            spec.canonical_config({"samples": True})  # bool is not an int here

    def test_param_parsing(self):
        assert ParamSpec("n", int, 1).parse("42") == 42
        assert ParamSpec("f", float, 1.0).parse("2.5") == 2.5
        assert ParamSpec("b", bool, True).parse("false") is False
        assert ParamSpec("t", tuple, (8, 64)).parse("8,64") == (8, 64)
        with pytest.raises(ValueError):
            ParamSpec("b", bool, True).parse("maybe")


def reference_walk_importable(tree):
    """The full ``ast.walk`` (expressions included) with the same guard skips."""
    pending = [tree]
    while pending:
        node = pending.pop()
        yield node
        if _is_main_guard(node) or _is_type_checking_guard(node):
            pending.extend(node.orelse)
            continue
        pending.extend(ast.iter_child_nodes(node))


def _import_nodes(walk, tree):
    return {id(node) for node in walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))}


NESTED_IMPORTS = """
import a
from . import b
def f():
    import c
    class Inner:
        from .d import e
async def g():
    async with h() as i:
        import j
    async for k in l():
        import m
class C:
    import n
try:
    import o
except ImportError:
    import p
else:
    import r
finally:
    import s
with t() as u:
    import v
for w in x:
    import y
else:
    import z
while cond:
    import aa
else:
    import bb
match value:
    case 1:
        import cc
    case _:
        from .dd import ee
if __name__ == "__main__":
    import dead_main
else:
    import ff
if TYPE_CHECKING:
    import dead_typing
if typing.TYPE_CHECKING:
    import dead_typing2
else:
    import gg
lam = lambda: __import__("not_a_statement")
"""


class TestFingerprint:
    def test_statement_walk_finds_every_import_the_full_walk_does(self):
        trees = [
            _parse_source(path.read_text())
            for path in sorted(Path(repro.__file__).parent.rglob("*.py"))
        ]
        nested = _parse_source(NESTED_IMPORTS)
        for tree in trees + [nested]:
            found = _import_nodes(_walk_importable, tree)
            assert found == _import_nodes(reference_walk_importable, tree)
        names = {
            alias.name
            for node in _walk_importable(nested)
            if isinstance(node, ast.Import)
            for alias in node.names
        }
        assert names >= {"a", "c", "j", "m", "n", "o", "p", "r", "s", "v", "y", "z"}
        assert names >= {"aa", "bb", "cc", "ff", "gg"}
        assert not names & {"dead_main", "dead_typing", "dead_typing2"}

    def test_closure_tracks_static_imports(self, tmp_path, monkeypatch):
        package = tmp_path / "fakepkg"
        package.mkdir()
        (package / "__init__.py").write_text("")
        (package / "beta.py").write_text("VALUE = 1\n")
        (package / "alpha.py").write_text("from .beta import VALUE\n")
        (package / "gamma.py").write_text("OTHER = 2\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        closure = module_closure("fakepkg.alpha", root="fakepkg")
        assert "fakepkg.beta" in closure
        assert "fakepkg.gamma" not in closure

    def test_fingerprint_changes_with_source(self, tmp_path, monkeypatch):
        package = tmp_path / "fppkg"
        package.mkdir()
        (package / "__init__.py").write_text("")
        (package / "dep.py").write_text("VALUE = 1\n")
        (package / "entry.py").write_text("from .dep import VALUE\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        before = code_fingerprint("fppkg.entry", root="fppkg")
        assert before == code_fingerprint("fppkg.entry", root="fppkg")  # stable
        (package / "dep.py").write_text("VALUE = 2\n")
        assert code_fingerprint("fppkg.entry", root="fppkg") != before

    def test_only_exact_main_guard_excluded(self, tmp_path, monkeypatch):
        # ``if __name__ != "__main__"`` DOES run on import; its imports must
        # stay in the closure.  Only the exact equality guard is dead code.
        package = tmp_path / "guardpkg"
        package.mkdir()
        (package / "__init__.py").write_text("")
        (package / "dead.py").write_text("VALUE = 1\n")
        (package / "live.py").write_text("VALUE = 2\n")
        (package / "entry.py").write_text(
            'if __name__ == "__main__":\n'
            "    from .dead import VALUE as DEAD\n"
            'if __name__ != "__main__":\n'
            "    from .live import VALUE as LIVE\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        closure = module_closure("guardpkg.entry", root="guardpkg")
        assert "guardpkg.live" in closure
        assert "guardpkg.dead" not in closure

    def test_main_guard_imports_excluded(self):
        # The drivers' CLI shims live under ``if __name__ == "__main__"`` and
        # must not drag the runner into every experiment's fingerprint.
        for name in ("table1", "fig4", "table2"):
            closure = module_closure(f"repro.experiments.{name}")
            assert "repro.runner.cli" not in closure
            assert "repro.runner.cache" not in closure

    def test_experiment_closures_cover_their_models(self):
        assert "repro.simd.processor" in module_closure("repro.experiments.fig4")
        assert "repro.core.scaling" in module_closure("repro.experiments.table1")
        assert "repro.envision.chip" in module_closure("repro.experiments.fig8")


class TestSweepResultJson:
    def test_round_trip_bit_identical(self):
        result = SweepResult(
            records=[
                {"a": 1, "b": 0.1 + 0.2, "c": "text", "d": True, "e": None},
                {"a": 2, "b": 1e-17, "c": "", "d": False, "e": None},
            ]
        )
        replayed = SweepResult.from_json(result.to_json())
        assert replayed.records == result.records
        assert replayed.to_json() == result.to_json()

    def test_numpy_scalars_sanitized(self):
        numpy = pytest.importorskip("numpy")
        result = SweepResult(records=[{"i": numpy.int64(7), "f": numpy.float64(0.25)}])
        jsonable = result.to_jsonable()
        assert jsonable == [{"i": 7, "f": 0.25}]
        assert type(jsonable[0]["i"]) is int
        assert type(jsonable[0]["f"]) is float

    def test_numpy_arrays_become_lists(self):
        numpy = pytest.importorskip("numpy")
        result = SweepResult(records=[{"xs": numpy.array([1.0, 2.5]), "one": numpy.array([3])}])
        assert result.to_jsonable() == [{"xs": [1.0, 2.5], "one": [3]}]

    def test_unserializable_value_raises(self):
        with pytest.raises(TypeError, match="cannot serialise"):
            SweepResult(records=[{"x": object()}]).to_jsonable()


class TestParallelSweep:
    GRID = {"x": [1, 2, 3, 4], "y": [5, 6, 7]}

    def test_parallel_byte_identical_to_serial(self):
        serial = parameter_sweep(self.GRID, _evaluate_pair)
        parallel = parameter_sweep(self.GRID, _evaluate_pair, jobs=4)
        assert json.dumps(serial.records) == json.dumps(parallel.records)
        assert serial.to_json() == parallel.to_json()

    def test_grid_order_is_row_major(self):
        grid = sweep_grid(self.GRID)
        assert grid[0] == {"x": 1, "y": 5}
        assert grid[1] == {"x": 1, "y": 6}
        assert grid[-1] == {"x": 4, "y": 7}
        result = parallel_sweep(self.GRID, _evaluate_pair, jobs=3)
        assert [record["x"] for record in result] == [g["x"] for g in grid]
        assert [record["y"] for record in result] == [g["y"] for g in grid]

    def test_jobs_one_matches_classic_loop(self):
        assert (
            parallel_sweep(self.GRID, _evaluate_pair, jobs=1).records
            == parameter_sweep(self.GRID, _evaluate_pair).records
        )


class TestResultCache:
    def _entry(self, rows):
        return CacheEntry(
            experiment="table1",
            params={"samples": 10, "seed": 1},
            fingerprint="f" * 64,
            result=SweepResult(records=rows),
            elapsed_seconds=0.5,
            provenance=run_provenance(),
        )

    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        rows = [{"precision": 16, "k0": 1.0}, {"precision": 8, "k0": 2.79}]
        key = cache_key("table1", '{"samples":10,"seed":1}', "f" * 64)
        cache.put(key, self._entry(rows))
        entry = cache.get("table1", key)
        assert entry is not None
        assert entry.rows == rows
        assert entry.fingerprint == "f" * 64
        assert entry.provenance["python"]

    def test_miss_and_corruption(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("table1", "0" * 64) is None
        key = cache_key("table1", "{}", "f" * 64)
        path = tmp_path / "table1" / f"{key}.json"
        quarantined = tmp_path / "corrupt" / "table1" / f"{key}.json"
        for corruption in (
            lambda: path.write_text("{not json"),
            lambda: path.write_bytes(b"\xff\xfe\x00garbage"),  # non-UTF-8 bytes
            lambda: path.write_text('{"schema": 1, "result": "not-an-object"}'),
        ):
            cache.put(key, self._entry([{"a": 1}]))
            quarantined.unlink(missing_ok=True)
            corruption()
            assert cache.get("table1", key) is None  # corrupt entry = miss
            assert not path.exists()  # ...and it was moved aside, not left in place
            assert quarantined.exists()
        assert cache.ls() == []  # quarantined entries are out of the listing
        drained = cache.drain_stats()
        assert drained["result_corrupt"] == 3 and drained["quarantined"] == 3
        assert all(count == 0 for count in cache.drain_stats().values())  # draining resets

    def test_ls_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("table1", "{}", "a" * 64)
        cache.put(key, self._entry([{"a": 1}]))
        listing = cache.ls()
        assert len(listing) == 1 and listing[0]["experiment"] == "table1"
        assert cache.clear() == 1
        assert cache.ls() == []

    def test_traversal_experiment_names_rejected(self, tmp_path):
        cache = ResultCache(tmp_path / "root")
        outside = tmp_path / "outside"
        outside.mkdir()
        (outside / "precious.json").write_text("{}")
        for bad in (str(outside), "../outside", "..", "a/b"):
            with pytest.raises(ValueError, match="invalid experiment name"):
                cache.clear(bad)
            with pytest.raises(ValueError):
                list(cache.entries(bad))
        assert (outside / "precious.json").exists()

    def test_key_depends_on_all_components(self):
        base = cache_key("table1", '{"s":1}', "a" * 64)
        assert cache_key("fig2", '{"s":1}', "a" * 64) != base
        assert cache_key("table1", '{"s":2}', "a" * 64) != base
        assert cache_key("table1", '{"s":1}', "b" * 64) != base


class TestExperimentRunner:
    def test_cache_hit_replays_bit_identical_fig4(self, runner):
        cold = runner.run("fig4", **FIG4_SMALL)
        warm = runner.run("fig4", **FIG4_SMALL)
        assert cold.cached is False and warm.cached is True
        assert json.dumps(cold.rows) == json.dumps(warm.rows)
        # elapsed_seconds is this run's wall time; compute_seconds the stored
        # cold cost -- the warm replay must not report the cold time as spent.
        assert warm.compute_seconds == pytest.approx(cold.compute_seconds)
        assert warm.elapsed_seconds < cold.elapsed_seconds
        assert cold.compute_seconds == cold.elapsed_seconds

    def test_cache_hit_replays_bit_identical_table2(self, runner):
        cold = runner.run("table2", **TABLE2_SMALL)
        warm = runner.run("table2", **TABLE2_SMALL)
        assert cold.cached is False and warm.cached is True
        assert json.dumps(cold.rows) == json.dumps(warm.rows)

    def test_params_change_invalidates(self, runner):
        runner.run("fig4", **FIG4_SMALL)
        changed = runner.run("fig4", **{**FIG4_SMALL, "taps": 7})
        assert changed.cached is False

    def test_fingerprint_change_invalidates(self, runner, monkeypatch):
        first = runner.run("fig4", **FIG4_SMALL)
        monkeypatch.setattr(
            service_module, "code_fingerprint", lambda name: "0" * 64
        )
        second = runner.run("fig4", **FIG4_SMALL)
        assert second.cached is False
        assert second.key != first.key
        # Same (synthetic) fingerprint again: now it hits.
        assert runner.run("fig4", **FIG4_SMALL).cached is True

    def test_no_cache_mode_never_stores(self, tmp_path):
        runner = ExperimentRunner(cache=ResultCache(tmp_path), use_cache=False)
        runner.run("table2", **TABLE2_SMALL)
        assert runner.run("table2", **TABLE2_SMALL).cached is False
        assert runner.cache.ls() == []

    def test_object_parameter_bypasses_cache(self, runner):
        from repro.core.scaling import characterize_multiplier

        characterization = characterize_multiplier(samples=40, seed=3)
        report = runner.run("table1", characterization=characterization)
        assert report.cached is False and report.key is None
        assert runner.cache.ls() == []

    def test_parallel_run_many_matches_serial(self, tmp_path):
        requests = [("fig4", dict(FIG4_SMALL)), ("table2", dict(TABLE2_SMALL))]
        serial = ExperimentRunner(cache=ResultCache(tmp_path / "a")).run_many(requests, jobs=1)
        parallel = ExperimentRunner(cache=ResultCache(tmp_path / "b")).run_many(requests, jobs=2)
        assert [report.name for report in serial] == [report.name for report in parallel]
        assert json.dumps([r.rows for r in serial]) == json.dumps([r.rows for r in parallel])

    def test_duplicate_cold_requests_computed_once(self, runner, monkeypatch):
        executed: list[int] = []
        real_execute = service_module.execute_requests

        def counting_execute(requests, **kwargs):
            executed.append(len(requests))
            return real_execute(requests, **kwargs)

        monkeypatch.setattr(service_module, "execute_requests", counting_execute)
        reports = runner.run_many(
            [("table2", dict(TABLE2_SMALL)), ("table2", dict(TABLE2_SMALL))], jobs=1
        )
        assert executed == [1]  # one execution serves both requests
        assert len(reports) == 2
        assert json.dumps(reports[0].rows) == json.dumps(reports[1].rows)
        assert reports[0].key == reports[1].key

    def test_render_from_cached_rows(self, runner):
        runner.run("table2", **TABLE2_SMALL)
        warm = runner.run("table2", **TABLE2_SMALL)
        text = runner.render(warm)
        assert "Table II" in text and "1x16b" in text

    def test_unknown_experiment(self, runner):
        with pytest.raises(KeyError, match="unknown experiment"):
            runner.run("fig99")


class TestCli:
    def _run(self, tmp_path, *argv):
        return main([*argv, "--cache-dir", str(tmp_path / "cache")])

    def test_run_json_and_warm_cache(self, tmp_path, capsys):
        argv = ["run", "table2", "--param", "input_length=24", "--param", "taps=5", "--json"]
        timing = tmp_path / "timing.json"
        assert self._run(tmp_path, *argv, "--timing-json", str(timing)) == 0
        cold_rows = json.loads(capsys.readouterr().out)["table2"]["rows"]
        assert json.loads(timing.read_text())["experiments"]["table2"]["cached"] is False
        assert self._run(tmp_path, *argv, "--timing-json", str(timing)) == 0
        warm_rows = json.loads(capsys.readouterr().out)["table2"]["rows"]
        assert json.loads(timing.read_text())["experiments"]["table2"]["cached"] is True
        assert json.dumps(cold_rows) == json.dumps(warm_rows)

    def test_run_csv_stdout(self, tmp_path, capsys):
        assert self._run(tmp_path, "run", "table1", "--param", "samples=40", "--csv") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("precision,")
        assert len(lines) == 5  # header + 4 precisions

    def test_run_out_directory(self, tmp_path, capsys):
        out = tmp_path / "rows"
        assert self._run(tmp_path, "run", "table1", "--param", "samples=40", "--out", str(out)) == 0
        capsys.readouterr()
        document = json.loads((out / "table1.json").read_text())
        assert len(document["records"]) == 4

    def test_report_renders_tables(self, tmp_path, capsys):
        assert self._run(tmp_path, "report", "fig8") == 0
        out = capsys.readouterr().out
        assert "Fig. 8" in out and "DVAFS vs DAS at 4b" in out

    def test_sweep_grid(self, tmp_path, capsys):
        assert (
            self._run(
                tmp_path,
                "sweep", "table1",
                "--grid", "samples=30,60",
                "--param", "seed=3",
                "--jobs", "2",
                "--json",
            )
            == 0
        )
        records = json.loads(capsys.readouterr().out)["records"]
        assert len(records) == 8  # 2 grid cells x 4 precisions
        assert [record["samples"] for record in records] == [30] * 4 + [60] * 4

    def test_cache_ls_and_clear(self, tmp_path, capsys):
        self._run(tmp_path, "run", "table1", "--param", "samples=40")
        capsys.readouterr()
        assert self._run(tmp_path, "cache", "ls") == 0
        assert "table1" in capsys.readouterr().out
        assert self._run(tmp_path, "cache", "clear") == 0
        assert "removed 1" in capsys.readouterr().out

    def test_unknown_parameter_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            self._run(tmp_path, "run", "table1", "--param", "bogus=1")

    def test_malformed_values_exit_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="samples"):
            self._run(tmp_path, "run", "table1", "--param", "samples=many")
        with pytest.raises(SystemExit, match="samples"):
            self._run(tmp_path, "sweep", "table1", "--grid", "samples=10,abc")

    def test_param_requires_single_target(self, tmp_path):
        with pytest.raises(SystemExit):
            self._run(tmp_path, "run", "table1", "fig2", "--param", "samples=40")

    def test_unknown_experiment_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown experiment"):
            self._run(tmp_path, "run", "fig99")

    def test_csv_stdout_multi_target_rejected_before_running(self, tmp_path):
        # Must fail fast -- before any experiment computes (fig6 trains a CNN).
        with pytest.raises(SystemExit, match="--csv to stdout"):
            self._run(tmp_path, "run", "--csv")
        assert not (tmp_path / "cache").exists()  # nothing was executed/cached

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "samples=300" in out


class TestDriverModuleShims:
    def test_drivers_route_main_through_cli(self):
        # Every driver's __main__ block must defer to the unified CLI.
        import repro.experiments as experiments

        for name, module in experiments.EXPERIMENTS.items():
            source = open(module.__file__).read()
            guard = source[source.index('if __name__ == "__main__"'):]
            assert "runner.cli import main" in guard, name
            assert f'"{name}"' in guard, name

    def test_declared_params_match_run_signature(self):
        # build_registry() raises if a PARAMS default disagrees with run().
        build_registry()

    def test_report_equals_render_of_run(self):
        from repro.experiments import table3

        rows = table3.run()
        assert table3.report() == table3.render(rows)

    def test_fig6_rejects_unknown_kwargs(self):
        from repro.experiments import fig6

        with pytest.raises(TypeError, match="unexpected keyword"):
            fig6.run(train_sample=800)  # typo for train_samples
