"""Public-API surface tests: imports, exports and the experiments CLI."""

from __future__ import annotations

import importlib

import pytest

import repro


SUBPACKAGES = [
    "repro.core",
    "repro.nn",
    "repro.bnn",
    "repro.models",
    "repro.datasets",
    "repro.accel",
    "repro.analysis",
    "repro.experiments",
]


class TestPackageSurface:
    def test_version_is_exposed(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackage_importable(self, module_name):
        module = importlib.import_module(module_name)
        assert module is not None

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_all_entries_resolve(self, module_name):
        module = importlib.import_module(module_name)
        exported = getattr(module, "__all__", [])
        assert exported, f"{module_name} must declare __all__"
        for name in exported:
            assert hasattr(module, name), f"{module_name}.{name} missing"

    def test_top_level_all_matches_subpackages(self):
        for name in repro.__all__:
            assert hasattr(repro, name)

    def test_core_public_names_are_the_documented_ones(self):
        from repro import core

        for name in (
            "GrngBank",
            "BatchedWeightSampler",
            "StreamBank",
            "StreamUsage",
        ):
            assert name in core.__all__

    def test_bnn_public_names_include_trainers_and_serialization(self):
        from repro import bnn

        for name in (
            "BaselineBNNTrainer",
            "ShiftBNNTrainer",
            "TrainerConfig",
            "mc_predict",
            "save_parameters",
            "load_parameters",
        ):
            assert name in bnn.__all__

    def test_accel_public_names_include_designs_and_simulator(self):
        from repro import accel

        for name in (
            "mn_accelerator",
            "rc_accelerator",
            "mnshift_accelerator",
            "shift_bnn_accelerator",
            "simulate_training_iteration",
            "tesla_p100",
        ):
            assert name in accel.__all__


class TestExperimentsCLI:
    def test_main_runs_a_single_analytic_experiment(self, capsys):
        from repro.experiments.runner import main

        exit_code = main(["--only", "fig3"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "fig3" in captured.out
        assert "B-VGG" in captured.out

    def test_main_rejects_unknown_experiment(self):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["--only", "fig99"])

    def test_docstrings_exist_on_public_callables(self):
        from repro.bnn import ShiftBNNTrainer
        from repro.core import BatchedWeightSampler, GrngBank

        for obj in (GrngBank, BatchedWeightSampler, ShiftBNNTrainer):
            assert obj.__doc__ and len(obj.__doc__.strip()) > 20
