"""Contract suite for the public facade (``repro.api``) and the CLI exit codes.

Gated here:

* the error taxonomy: every failure is a :class:`ReproError` subclass with a
  stable ``code`` field, and the refinements keep subclassing the builtin
  exceptions (``KeyError``/``TypeError``/``ValueError``) that pre-facade
  callers caught;
* ``validate_params`` / ``validate_grid`` / ``parse_param`` are the single
  validation path: coercions and rejections match the registry's;
* ``run`` / ``run_all`` / ``sweep`` return reports whose ``to_jsonable``
  round-trips and whose rows match direct runner execution;
* the CLI maps the taxonomy onto stable exit codes: 2 usage, 3 validation,
  4 execution.
"""

from __future__ import annotations

import json

import pytest

from repro import api
from repro.runner.cache import ResultCache
from repro.runner.cli import EXECUTION_EXIT, USAGE_EXIT, VALIDATION_EXIT, CliError, main
from repro.runner.service import ExperimentRunner, RunReport

FIG4_SMALL = {"input_length": 24, "taps": 5, "simd_widths": (8,)}


@pytest.fixture()
def runner(tmp_path):
    return ExperimentRunner(cache=ResultCache(tmp_path / "cache"))


class TestErrorTaxonomy:
    def test_every_error_is_a_repro_error_with_a_code(self):
        for exc in (
            api.ParamError,
            api.UnknownParamError,
            api.ParamTypeError,
            api.ParamValueError,
            api.UnknownExperimentError,
            api.ExecutionError,
        ):
            assert issubclass(exc, api.ReproError)
            assert isinstance(exc.code, str) and exc.code

    def test_refinements_keep_builtin_bases(self):
        # Pre-facade callers catch KeyError/TypeError/ValueError; the typed
        # taxonomy must not break them.
        assert issubclass(api.UnknownParamError, KeyError)
        assert issubclass(api.ParamTypeError, TypeError)
        assert issubclass(api.ParamValueError, ValueError)
        assert issubclass(api.UnknownExperimentError, KeyError)

    def test_str_is_the_message_not_keyerror_repr(self):
        error = api.UnknownParamError("no such parameter", param="bogus")
        assert str(error) == "no such parameter"  # KeyError would quote it
        assert error.param == "bogus"

    def test_codes_are_distinct_and_stable(self):
        assert api.UnknownParamError.code == "unknown_param"
        assert api.ParamTypeError.code == "invalid_type"
        assert api.ParamValueError.code == "invalid_value"
        assert api.UnknownExperimentError.code == "unknown_experiment"
        assert api.ExecutionError.code == "execution_error"


class TestValidation:
    def test_list_experiments_schemas(self):
        listing = api.list_experiments()
        names = [entry["name"] for entry in listing]
        assert names == ["table1", "fig2", "fig3", "fig4", "table2", "fig6", "fig8", "table3"]
        table1 = next(entry for entry in listing if entry["name"] == "table1")
        assert table1["params"]["samples"] == {"type": "int", "default": 300}

    def test_validate_params_canonicalises(self):
        config = api.validate_params("fig4", {"taps": 5, "input_length": 24})
        assert config["taps"] == 5 and config["input_length"] == 24
        assert list(config) == sorted(config)  # canonical key order

    def test_validate_params_unknown(self):
        with pytest.raises(api.UnknownParamError) as excinfo:
            api.validate_params("table1", {"bogus": 1})
        assert excinfo.value.code == "unknown_param"
        assert excinfo.value.param == "bogus"
        assert "samples" in (excinfo.value.expected or "")

    def test_validate_params_unknown_experiment(self):
        with pytest.raises(api.UnknownExperimentError, match="unknown experiment"):
            api.validate_params("fig99", {})

    def test_parse_param_types_text(self, runner):
        spec = runner.spec("table1")
        assert api.parse_param(spec, "samples", "40") == 40
        with pytest.raises(api.ParamValueError) as excinfo:
            api.parse_param(spec, "samples", "many")
        assert excinfo.value.code == "invalid_value" and excinfo.value.param == "samples"
        with pytest.raises(api.UnknownParamError):
            api.parse_param(spec, "bogus", "1")

    def test_validate_grid_coerces_and_rejects(self):
        grid = api.validate_grid("table1", {"samples": [20, 30]})
        assert grid == {"samples": [20, 30]}
        with pytest.raises(api.UnknownParamError):
            api.validate_grid("table1", {"bogus": [1]})
        with pytest.raises(api.ParamTypeError, match="grid-swept"):
            api.validate_grid("fig4", {"simd_widths": [[8], [64]]})
        with pytest.raises(api.ParamTypeError, match="list of values"):
            api.validate_grid("table1", {"samples": 20})
        with pytest.raises(api.ParamValueError, match="no values"):
            api.validate_grid("table1", {"samples": []})
        with pytest.raises(api.ParamTypeError):
            api.validate_grid("table1", {"samples": ["many"]})


class TestRunFacade:
    def test_run_matches_direct_runner(self, runner):
        report = api.run("fig8", runner=runner)
        direct = runner.lookup("fig8")  # the facade run must have cached it
        assert direct is not None
        assert json.dumps(report.rows) == json.dumps(direct.rows)

    def test_run_report_jsonable_round_trip(self, runner):
        report = api.run("table3", runner=runner)
        document = report.to_jsonable()
        assert set(document) >= {"experiment", "config", "rows", "cached", "key", "fingerprint"}
        restored = RunReport.from_jsonable(json.loads(json.dumps(document)))
        assert restored.name == report.name
        assert json.dumps(restored.rows) == json.dumps(report.rows)
        assert restored.key == report.key and restored.fingerprint == report.fingerprint

    def test_run_all_defaults_to_registry_order(self, runner):
        reports = api.run_all(["fig8", "table3"], runner=runner)
        assert [report.name for report in reports] == ["fig8", "table3"]

    def test_run_all_shared_params_need_single_target(self, runner):
        with pytest.raises(api.ParamError, match="exactly one experiment"):
            api.run_all(["fig8", "table3"], {"seed": 1}, runner=runner)

    def test_run_all_rejects_invalid_executor_settings(self, runner):
        with pytest.raises(api.ParamError) as excinfo:
            api.run_all(["table1"], retries=-1, runner=runner)
        assert excinfo.value.param == "retries"
        with pytest.raises(api.ParamValueError) as excinfo:
            api.run_all(["table1"], timeout=0, runner=runner)
        assert excinfo.value.param == "timeout"
        assert runner.cache.ls() == []

    def test_execution_failures_are_wrapped(self, runner, monkeypatch):
        import repro.experiments.fig8 as fig8

        def boom(**_kwargs):
            raise RuntimeError("driver exploded")

        monkeypatch.setattr(fig8, "run", boom)
        with pytest.raises(api.ExecutionError, match="driver exploded") as excinfo:
            api.run("fig8", runner=runner)
        assert excinfo.value.code == "execution_error"

    def test_sweep_records_tagged_with_assignments(self, runner):
        outcome = api.sweep("table1", {"samples": [20, 30]}, {"seed": 11}, runner=runner)
        assert outcome.experiment == "table1"
        assert len(outcome.assignments) == 2
        assert {record["samples"] for record in outcome.records} == {20, 30}
        document = outcome.to_jsonable()
        assert document["cells"] == 2 and len(document["records"]) == len(outcome.records)
        # Re-sweeping is fully warm.
        again = api.sweep("table1", {"samples": [20, 30]}, {"seed": 11}, runner=runner)
        assert again.cached_cells == 2
        assert json.dumps(again.records) == json.dumps(outcome.records)

    def test_sweep_rejects_grid_fixed_overlap(self, runner):
        with pytest.raises(api.ParamError, match="both the grid and the fixed"):
            api.sweep("table1", {"samples": [20]}, {"samples": 30}, runner=runner)


class TestCliExitCodes:
    def _run(self, tmp_path, *argv):
        return main([*argv, "--cache-dir", str(tmp_path / "cache")])

    def test_usage_errors_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            self._run(tmp_path, "run", "table1", "fig2", "--param", "samples=40")
        assert excinfo.value.code == USAGE_EXIT
        with pytest.raises(SystemExit) as excinfo:
            self._run(tmp_path, "run", "--csv")
        assert excinfo.value.code == USAGE_EXIT
        with pytest.raises(SystemExit) as excinfo:  # argparse's own usage exit
            main(["bogus-command"])
        assert excinfo.value.code == USAGE_EXIT

    def test_validation_errors_exit_3(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown experiment") as excinfo:
            self._run(tmp_path, "run", "fig99")
        assert excinfo.value.code == VALIDATION_EXIT
        with pytest.raises(SystemExit, match="no parameter") as excinfo:
            self._run(tmp_path, "run", "table1", "--param", "bogus=1")
        assert excinfo.value.code == VALIDATION_EXIT
        with pytest.raises(SystemExit, match="cannot parse") as excinfo:
            self._run(tmp_path, "run", "table1", "--param", "samples=many")
        assert excinfo.value.code == VALIDATION_EXIT

    def test_invalid_executor_settings_exit_3_and_run_nothing(self, tmp_path):
        for flag, value in (("--timeout", "0"), ("--retries", "-1")):
            with pytest.raises(SystemExit, match=flag.lstrip("-")) as excinfo:
                self._run(tmp_path, "run", "table1", flag, value)
            assert excinfo.value.code == VALIDATION_EXIT
        assert ResultCache(tmp_path / "cache").ls() == []

    def test_execution_errors_exit_4(self, tmp_path, monkeypatch):
        import repro.experiments.fig8 as fig8

        def boom(**_kwargs):
            raise RuntimeError("driver exploded")

        monkeypatch.setattr(fig8, "run", boom)
        with pytest.raises(SystemExit, match="driver exploded") as excinfo:
            self._run(tmp_path, "run", "fig8")
        assert excinfo.value.code == EXECUTION_EXIT

    def test_cli_error_is_system_exit_with_message(self):
        error = CliError("error: something", code=VALIDATION_EXIT)
        assert isinstance(error, SystemExit)
        assert error.code == VALIDATION_EXIT
        assert str(error) == "error: something"
