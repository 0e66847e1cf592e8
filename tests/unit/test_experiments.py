"""Unit tests for the analytic experiment modules (Figs. 2-3, 10-14, Table 2, DSE).

The functional experiments (Fig. 9, Table 1) are exercised in the integration
suite because they train models; everything here runs in milliseconds-to-
seconds off the analytic simulator.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    ANALYTIC_EXPERIMENTS,
    FUNCTIONAL_EXPERIMENTS,
    ExperimentResult,
    run_all,
    run_dse,
    run_fig2,
    run_fig3,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
    run_fig14,
    run_table2,
)
from repro.models import PAPER_MODEL_NAMES


#: every analytic table's row count at its default arguments
DEFAULT_ROWS = {
    "fig2": 25,  # 5 models x 5 sample counts
    "fig3": 5,
    "fig10": 5,
    "fig11": 5,
    "fig12": 5,
    "fig13": 18,  # 3 models x 6 sample counts
    "fig14": 20,  # 5 models x 4 accelerators
    "table2": 5,
    "dse": 4,
    "ablation_grng": 12,  # 4 widths x 3 strides
    "ablation_spu": 5,
    "ablation_bandwidth": 4,
}


@pytest.fixture(scope="module")
def analytic_results():
    return run_all(include_functional=False)


class TestExperimentResult:
    def test_table_and_csv_rendering(self):
        result = ExperimentResult(
            name="x", title="demo", headers=["a", "b"], rows=[[1, 2.0]], notes=["hello"]
        )
        table = result.to_table()
        assert "demo" in table and "hello" in table
        assert result.to_csv().splitlines()[0] == "a,b"

    def test_column_extraction(self):
        result = ExperimentResult(name="x", title="t", headers=["a", "b"], rows=[[1, 2], [3, 4]])
        assert result.column("b") == [2, 4]
        with pytest.raises(KeyError):
            result.column("z")


class TestFig2:
    def test_rows_cover_models_and_samples(self):
        result = run_fig2(sample_counts=(1, 8), model_names=("B-MLP", "B-LeNet"))
        assert len(result.rows) == 4
        assert set(result.column("model")) == {"B-MLP", "B-LeNet"}

    def test_cost_grows_with_sample_count(self):
        result = run_fig2(sample_counts=(8, 32), model_names=("B-LeNet",))
        transfers = result.column("data_transfer_x")
        assert transfers[1] > transfers[0]

    def test_blowup_at_s8_is_several_fold(self):
        result = run_fig2(sample_counts=(8,))
        transfers = result.column("data_transfer_x")
        average = sum(transfers) / len(transfers)
        assert 5.0 < average < 15.0  # paper: 9.1x


class TestFig3:
    def test_shares_sum_to_one(self):
        result = run_fig3()
        for row in result.rows:
            assert row[1] + row[2] + row[3] == pytest.approx(1.0)

    def test_epsilon_dominates_on_every_model(self):
        result = run_fig3()
        assert all(share > 0.5 for share in result.column("epsilon_share"))

    def test_average_epsilon_share_matches_paper_band(self):
        result = run_fig3()
        shares = result.column("epsilon_share")
        assert 0.6 < sum(shares) / len(shares) < 0.9  # paper: 0.71

    def test_all_models_present(self):
        assert set(run_fig3().column("model")) == set(PAPER_MODEL_NAMES)


class TestFig10:
    def test_shift_bnn_is_cheapest_everywhere(self):
        result = run_fig10()
        for row in result.rows:
            values = dict(zip(result.headers, row))
            assert values["Shift-BNN"] <= values["RC-Acc"]
            assert values["Shift-BNN"] <= values["MNShift-Acc"]
            assert values["Shift-BNN"] <= values["MN-Acc"] == 1.0

    def test_average_reduction_in_paper_band(self):
        result = run_fig10()
        reductions = result.column("shift_vs_rc_reduction_%")
        assert 40.0 < sum(reductions) / len(reductions) < 90.0  # paper: 62%

    def test_epsilon_dominated_models_save_most(self):
        result = run_fig10()
        by_model = dict(zip(result.column("model"), result.column("shift_vs_rc_reduction_%")))
        assert by_model["B-MLP"] > by_model["B-VGG"]
        assert by_model["B-LeNet"] > by_model["B-ResNet"]


class TestFig11:
    def test_shift_bnn_never_slower_than_rc(self):
        result = run_fig11()
        assert all(ratio >= 0.99 for ratio in result.column("shift_vs_rc_speedup"))

    def test_average_speedup_in_paper_band(self):
        result = run_fig11()
        ratios = result.column("shift_vs_rc_speedup")
        assert 1.2 < sum(ratios) / len(ratios) < 2.2  # paper: 1.6x

    def test_fc_dominated_model_speeds_up_most(self):
        result = run_fig11()
        by_model = dict(zip(result.column("model"), result.column("shift_vs_rc_speedup")))
        assert by_model["B-MLP"] == max(by_model.values())
        assert by_model["B-MLP"] > 2.0


class TestFig12:
    def test_shift_bnn_most_efficient_design(self):
        result = run_fig12()
        for row in result.rows:
            values = dict(zip(result.headers, row))
            assert values["Shift-BNN"] >= values["MNShift-Acc"]
            assert values["Shift-BNN"] >= values["RC-Acc"]
            assert values["Shift-BNN"] > values["GPU"]

    def test_efficiency_gain_bands(self):
        result = run_fig12()
        vs_rc = result.column("shift_vs_rc_x")
        assert 2.0 < sum(vs_rc) / len(vs_rc) < 8.0  # paper: 4.9x

    def test_gpu_beats_mn_baseline_on_at_least_one_large_model(self):
        result = run_fig12()
        by_model = dict(zip(result.column("model"), result.column("GPU")))
        assert max(by_model["B-AlexNet"], by_model["B-VGG"], by_model["B-ResNet"]) > 0.25


class TestFig13:
    def test_energy_reduction_grows_with_samples(self):
        result = run_fig13(sample_counts=(4, 16, 64), model_names=("B-LeNet",))
        reductions = result.column("shift_vs_rc_reduction_%")
        assert reductions == sorted(reductions)

    def test_efficiency_grows_with_samples(self):
        result = run_fig13(sample_counts=(4, 16, 64), model_names=("B-VGG",))
        efficiency = result.column("shift_efficiency_gops_per_watt")
        assert efficiency == sorted(efficiency)

    def test_lenet_band_matches_paper_extremes(self):
        result = run_fig13(sample_counts=(4, 128), model_names=("B-LeNet",))
        reductions = result.column("shift_vs_rc_reduction_%")
        assert 35.0 < reductions[0] < 70.0  # paper: 55.5% at S=4
        assert 65.0 < reductions[1] < 95.0  # paper: 78.8% at S=128


class TestFig14:
    def test_reversal_designs_cut_dram_accesses(self):
        result = run_fig14()
        for row in result.rows:
            values = dict(zip(result.headers, row))
            if values["accelerator"] in ("Shift-BNN", "MNShift-Acc"):
                assert values["dram_accesses_norm"] < 0.5
            else:
                assert values["dram_accesses_norm"] == pytest.approx(1.0)

    def test_epsilon_footprint_eliminated(self):
        result = run_fig14()
        for row in result.rows:
            values = dict(zip(result.headers, row))
            if values["accelerator"] == "Shift-BNN":
                assert values["footprint_epsilon_share"] == 0.0
            if values["accelerator"] == "MN-Acc":
                assert values["footprint_epsilon_share"] > 0.5

    def test_footprint_reduction_in_paper_band(self):
        result = run_fig14()
        shift_rows = [
            dict(zip(result.headers, row))
            for row in result.rows
            if row[1] == "Shift-BNN"
        ]
        average = sum(1 - r["footprint_norm"] for r in shift_rows) / len(shift_rows)
        assert 0.6 < average < 0.95  # paper: 76.1%


class TestTable2AndDSE:
    def test_table2_rows_and_agreement_flags(self):
        result = run_table2()
        assert len(result.rows) == 5
        for row in result.rows:
            values = dict(zip(result.headers, row))
            if values["lut_paper"]:
                assert values["lut_est"] == pytest.approx(values["lut_paper"], rel=0.06)

    def test_dse_selects_rc(self):
        result = run_dse()
        scores = dict(zip(result.column("mapping"), result.column("overhead_score")))
        assert min(scores, key=scores.get) == "RC"
        assert any("RC" in note for note in result.notes)


class TestRunner:
    def test_registries_are_disjoint_and_complete(self):
        assert set(ANALYTIC_EXPERIMENTS) & set(FUNCTIONAL_EXPERIMENTS) == set()
        assert {
            "fig2",
            "fig3",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "table2",
            "dse",
            "ablation_grng",
            "ablation_spu",
            "ablation_bandwidth",
        } == set(ANALYTIC_EXPERIMENTS)
        assert {"fig9", "table1"} == set(FUNCTIONAL_EXPERIMENTS)

    def test_run_all_analytic(self, analytic_results):
        assert set(analytic_results) == set(ANALYTIC_EXPERIMENTS) == set(DEFAULT_ROWS)
        assert all(
            isinstance(result, ExperimentResult) for result in analytic_results.values()
        )

    @pytest.mark.parametrize("name", list(DEFAULT_ROWS))
    def test_default_table_shape(self, analytic_results, name):
        result = analytic_results[name]
        assert len(result.rows) == DEFAULT_ROWS[name]
        assert all(len(row) == len(result.headers) for row in result.rows)
