"""Tests for the analysis utilities and the experiment drivers (integration)."""

import numpy as np
import pytest

from repro.analysis import (
    EfficiencyReport,
    classification_accuracy,
    format_table,
    parameter_sweep,
    rmse,
    to_csv,
    top1_agreement,
)
from repro.experiments import EXPERIMENTS, fig3, fig8, table2


class TestMetrics:
    def test_rmse_basics(self):
        assert rmse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
        assert rmse(np.zeros(4), np.full(4, 2.0)) == pytest.approx(2.0)

    def test_top1_agreement(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.array([[0.9, 0.1], [0.6, 0.4]])
        assert top1_agreement(a, b) == pytest.approx(0.5)

    def test_classification_accuracy(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert classification_accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_efficiency_report(self):
        report = EfficiencyReport(effective_gops=76.0, power_mw=18.0)
        assert report.tops_per_watt == pytest.approx(4.22, rel=0.01)
        assert report.energy_per_op_pj == pytest.approx(18.0 / 76.0, rel=1e-6)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rmse(np.zeros(3), np.zeros(4))


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": 2.34567}, {"a": 10, "b": 0.001}]
        text = format_table(rows, title="demo")
        assert "demo" in text
        assert "a" in text.splitlines()[1]
        assert len(text.splitlines()) == 5

    def test_empty_table(self):
        assert "(empty)" in format_table([], title="none")

    def test_csv(self):
        rows = [{"x": 1, "y": "a"}, {"x": 2, "y": "b"}]
        text = to_csv(rows)
        assert text.splitlines()[0] == "x,y"
        assert len(text.splitlines()) == 3

    def test_parameter_sweep(self):
        result = parameter_sweep({"a": [1, 2], "b": [3]}, lambda a, b: {"sum": a + b})
        assert len(result) == 2
        assert result.filter(a=2).column("sum") == [5]


class TestExperimentDrivers:
    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "table1",
            "fig2",
            "fig3",
            "fig4",
            "table2",
            "fig6",
            "fig8",
            "table3",
        }

    def test_table1_rows(self, characterization):
        rows = EXPERIMENTS["table1"].run(characterization=characterization)
        assert [row["precision"] for row in rows] == [16, 12, 8, 4]
        assert rows[-1]["N"] == 4

    def test_fig2_rows(self, characterization):
        rows = EXPERIMENTS["fig2"].run(characterization=characterization)
        by_precision = {row["precision"]: row for row in rows}
        assert by_precision[4]["frequency_mhz (2a)"] == pytest.approx(125.0)
        assert by_precision[4]["dvafs_slack_ns (2b)"] > by_precision[4]["das_slack_ns (2b)"]
        assert by_precision[4]["dvafs_voltage (2c)"] < by_precision[4]["dvas_voltage (2c)"]

    def test_fig3a_normalisation(self, characterization):
        rows = fig3.run_fig3a(characterization=characterization)
        das16 = [r for r in rows if r["technique"] == "DAS" and r["precision"] == 16][0]
        assert das16["relative_energy"] == pytest.approx(1.0, abs=0.05)

    def test_fig3b_dvafs_reaches_lowest_energy(self, characterization):
        rows = fig3.run_fig3b(characterization=characterization, rmse_samples=400)
        dvafs_min = min(r["relative_energy"] for r in rows if r["scheme"] == "DVAFS")
        others_min = min(r["relative_energy"] for r in rows if r["scheme"] != "DVAFS")
        assert dvafs_min < others_min

    def test_fig4_dvafs_beats_dvas_at_4b(self):
        rows = EXPERIMENTS["fig4"].run(simd_widths=(8,), input_length=24, taps=5)
        by_key = {(r["technique"], r["precision"]): r["relative_energy_per_word"] for r in rows}
        assert by_key[("DVAFS", 4)] < by_key[("DVAS", 4)] < by_key[("DAS", 4)]
        assert by_key[("DVAFS", 4)] < 0.2

    def test_table2_totals_near_paper(self):
        rows = table2.run(simd_widths=(8,), input_length=24, taps=5)
        by_mode = {row["mode"]: row for row in rows}
        assert by_mode["1x16b"]["P [mW]"] == pytest.approx(36.0, rel=0.05)
        assert by_mode["4x4b"]["P [mW]"] < by_mode["2x8b"]["P [mW]"]

    def test_fig8_report_runs(self):
        text = fig8.report()
        assert "DVAFS" in text and "paper" in text

    def test_table3_rows_and_totals(self):
        rows = EXPERIMENTS["table3"].run()
        totals = [row for row in rows if "TOTAL" in str(row["layer"])]
        assert len(totals) == 3
        lenet_row = [r for r in rows if r["layer"] == "LeNet1"][0]
        assert lenet_row["mode"] == "4x4b"
        assert lenet_row["P [mW]"] < 15
