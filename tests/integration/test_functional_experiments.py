"""Integration tests for the functional experiment modules (Fig. 9, Table 1).

The experiments are run with deliberately tiny workloads here; the full-size
settings are the defaults of ``run_fig9`` and ``run_table1``.
"""

from __future__ import annotations

import pytest

from repro.experiments import run_fig9, run_table1


@pytest.fixture(scope="module")
def fig9_outcome():
    return run_fig9(
        epochs=2, n_train=64, n_test=32, n_samples=1, batch_size=32, grng_stride=16
    )


class TestFig9:
    def test_curves_are_bit_identical(self, fig9_outcome):
        assert fig9_outcome.max_loss_difference == 0.0
        assert fig9_outcome.max_parameter_difference == 0.0

    def test_result_table_structure(self, fig9_outcome):
        result = fig9_outcome.result
        assert result.headers[0] == "epoch"
        assert len(result.rows) == 2
        assert any("bit-identical" in note for note in result.notes)

    def test_multi_sample_curves_are_bit_identical(self):
        outcome = run_fig9(
            epochs=3, n_train=128, n_test=64, n_samples=2, batch_size=32, grng_stride=64
        )
        assert outcome.max_loss_difference == 0.0
        assert outcome.max_parameter_difference == 0.0
        assert len(outcome.result.rows) == 3

    def test_histories_have_matching_lengths(self, fig9_outcome):
        baseline = fig9_outcome.baseline_history
        shift = fig9_outcome.shift_history
        assert baseline.steps == shift.steps
        assert len(baseline.validation_accuracies) == len(shift.validation_accuracies)


class TestTable1:
    def test_reduced_run_structure_and_ordering(self):
        result = run_table1(
            model_names=("B-MLP",),
            bit_widths=(8, 32),
            epochs=4,
            n_train=128,
            n_test=64,
            n_samples=1,
            grng_stride=32,
        )
        assert result.headers == ["model", "val_acc_8b", "val_acc_32b"]
        assert len(result.rows) == 1
        row = dict(zip(result.headers, result.rows[0]))
        assert 0.0 <= row["val_acc_8b"] <= 1.0
        assert row["val_acc_32b"] > 0.6
        assert row["val_acc_32b"] >= row["val_acc_8b"]

    def test_two_models_three_precisions(self):
        result = run_table1(
            model_names=("B-MLP", "B-LeNet"),
            bit_widths=(8, 16, 32),
            epochs=4,
            n_train=160,
            n_test=64,
            n_samples=2,
            grng_stride=64,
        )
        assert result.headers == ["model", "val_acc_8b", "val_acc_16b", "val_acc_32b"]
        assert [row[0] for row in result.rows] == ["B-MLP", "B-LeNet"]
        for row in result.rows:
            values = dict(zip(result.headers, row))
            assert values["val_acc_32b"] >= values["val_acc_8b"] - 1e-9
