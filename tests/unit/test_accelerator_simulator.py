"""Unit tests for accelerator configurations and the analytic simulator."""

from __future__ import annotations

import pytest

from repro.accel import (
    AcceleratorConfig,
    RC_MAPPING,
    TrainingStage,
    bm_shift_accelerator,
    k_shift_accelerator,
    mn_accelerator,
    mnshift_accelerator,
    rc_accelerator,
    shift_bnn_accelerator,
    simulate_dnn_training_iteration,
    simulate_memory_footprint,
    simulate_training_iteration,
    standard_comparison_set,
)
from repro.models import paper_models


@pytest.fixture(scope="module")
def lenet():
    return paper_models()["B-LeNet"]


@pytest.fixture(scope="module")
def vgg():
    return paper_models()["B-VGG"]


class TestAcceleratorConfig:
    def test_factories_have_expected_flags(self):
        assert mn_accelerator().lfsr_reversal is False
        assert rc_accelerator().lfsr_reversal is False
        assert mnshift_accelerator().lfsr_reversal is True
        assert shift_bnn_accelerator().lfsr_reversal is True
        assert shift_bnn_accelerator().mapping is RC_MAPPING

    def test_standard_comparison_set_order(self):
        names = [a.name for a in standard_comparison_set()]
        assert names == ["MN-Acc", "RC-Acc", "MNShift-Acc", "Shift-BNN"]

    def test_structural_defaults_match_paper(self):
        accel = shift_bnn_accelerator()
        assert accel.n_spus == 16
        assert accel.pes_per_spu == 16
        assert accel.total_pes == 256
        assert accel.pe_array_width == 4
        assert accel.frequency_hz == 200e6
        assert accel.bytes_per_value == 2
        assert accel.lfsr_bits == 256

    def test_scaled_override(self):
        accel = shift_bnn_accelerator(n_spus=8)
        assert accel.n_spus == 8
        assert accel.name == "Shift-BNN"

    def test_samples_per_pass(self):
        accel = shift_bnn_accelerator()
        assert accel.with_samples_per_pass(16) == 1
        assert accel.with_samples_per_pass(17) == 2
        assert accel.with_samples_per_pass(128) == 8
        with pytest.raises(ValueError):
            accel.with_samples_per_pass(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(name="bad", mapping=RC_MAPPING, lfsr_reversal=False, n_spus=0)
        with pytest.raises(ValueError):
            AcceleratorConfig(
                name="bad", mapping=RC_MAPPING, lfsr_reversal=False, bytes_per_value=3
            )

    def test_dse_variants_exist(self):
        assert k_shift_accelerator().mapping.name == "K"
        assert bm_shift_accelerator().mapping.name == "BM"


class TestSimulation:
    def test_result_structure(self, lenet):
        sim = simulate_training_iteration(shift_bnn_accelerator(), lenet, 16)
        assert sim.model_name == "B-LeNet"
        assert sim.accelerator_name == "Shift-BNN"
        assert len(sim.layer_results) == 3 * len(lenet.weighted_layers())
        assert sim.total_cycles > 0
        assert sim.latency_seconds > 0
        assert sim.energy_joules > 0
        assert sim.throughput_gops > 0
        assert sim.energy_efficiency_gops_per_watt > 0

    @pytest.mark.parametrize(
        "accelerator", standard_comparison_set(), ids=lambda accel: accel.name
    )
    def test_every_paper_model_costs_time_and_energy(self, accelerator):
        for spec in paper_models().values():
            sim = simulate_training_iteration(accelerator, spec, 16)
            assert sim.accelerator_name == accelerator.name
            assert 0 < sim.energy_joules < float("inf")
            assert 0 < sim.latency_seconds < float("inf")


    def test_invalid_sample_count(self, lenet):
        with pytest.raises(ValueError):
            simulate_training_iteration(shift_bnn_accelerator(), lenet, 0)

    def test_macs_identical_across_accelerators(self, lenet):
        sims = [
            simulate_training_iteration(accel, lenet, 16)
            for accel in standard_comparison_set()
        ]
        macs = {round(sim.total_macs) for sim in sims}
        assert len(macs) == 1

    def test_shift_bnn_moves_no_epsilon_bytes(self, lenet):
        sim = simulate_training_iteration(shift_bnn_accelerator(), lenet, 16)
        assert sim.traffic.epsilon_bytes == 0
        baseline = simulate_training_iteration(rc_accelerator(), lenet, 16)
        assert baseline.traffic.epsilon_bytes > 0

    def test_shift_bnn_uses_less_energy_and_time_than_rc(self, lenet):
        shift = simulate_training_iteration(shift_bnn_accelerator(), lenet, 16)
        baseline = simulate_training_iteration(rc_accelerator(), lenet, 16)
        assert shift.energy_joules < baseline.energy_joules
        assert shift.latency_seconds <= baseline.latency_seconds

    def test_mnshift_saves_energy_over_mn(self, lenet):
        mnshift = simulate_training_iteration(mnshift_accelerator(), lenet, 16)
        mn = simulate_training_iteration(mn_accelerator(), lenet, 16)
        assert mnshift.energy_joules < mn.energy_joules

    def test_shift_bnn_beats_mnshift_on_energy(self, lenet):
        shift = simulate_training_iteration(shift_bnn_accelerator(), lenet, 16)
        mnshift = simulate_training_iteration(mnshift_accelerator(), lenet, 16)
        assert shift.energy_joules < mnshift.energy_joules

    def test_energy_grows_with_sample_count(self, lenet):
        small = simulate_training_iteration(rc_accelerator(), lenet, 8)
        large = simulate_training_iteration(rc_accelerator(), lenet, 32)
        assert large.energy_joules > small.energy_joules
        assert large.latency_seconds > small.latency_seconds

    def test_samples_beyond_spus_serialise_compute(self, lenet):
        accel = shift_bnn_accelerator()
        s16 = simulate_training_iteration(accel, lenet, 16)
        s32 = simulate_training_iteration(accel, lenet, 32)
        assert s32.total_cycles > s16.total_cycles

    def test_fc_layers_memory_bound_on_baseline(self):
        mlp = paper_models()["B-MLP"]
        sim = simulate_training_iteration(rc_accelerator(), mlp, 16)
        fc_results = [r for r in sim.layer_results if r.kind == "dense"]
        assert any(r.memory_bound for r in fc_results)

    def test_conv_layers_compute_bound_on_shift_bnn(self, vgg):
        sim = simulate_training_iteration(shift_bnn_accelerator(), vgg, 16)
        conv_results = [r for r in sim.layer_results if r.kind == "conv"]
        bound_fraction = sum(not r.memory_bound for r in conv_results) / len(conv_results)
        assert bound_fraction > 0.8

    def test_stage_cycles_cover_all_stages(self, lenet):
        sim = simulate_training_iteration(shift_bnn_accelerator(), lenet, 16)
        total = sum(sim.stage_cycles(stage) for stage in TrainingStage)
        assert total == pytest.approx(sim.total_cycles)

    def test_dnn_simulation_is_much_cheaper(self, lenet):
        bnn = simulate_training_iteration(mn_accelerator(), lenet, 16)
        dnn = simulate_dnn_training_iteration(mn_accelerator(), lenet)
        assert dnn.dram_bytes < bnn.dram_bytes / 5
        assert dnn.energy_joules < bnn.energy_joules

    def test_dram_accesses_word_count(self, lenet):
        sim = simulate_training_iteration(rc_accelerator(), lenet, 16)
        assert sim.dram_accesses == pytest.approx(sim.dram_bytes / 2)

    def test_average_power_consistency(self, lenet):
        sim = simulate_training_iteration(rc_accelerator(), lenet, 16)
        assert sim.average_power_watts == pytest.approx(
            sim.energy_joules / sim.latency_seconds
        )

    def test_energy_breakdown_sums(self, lenet):
        sim = simulate_training_iteration(shift_bnn_accelerator(), lenet, 16)
        parts = sim.energy
        assert parts.total == pytest.approx(
            parts.dram + parts.sram + parts.mac + parts.grng + parts.mapping_overhead + parts.static
        )

    def test_grng_energy_doubles_with_regeneration(self, lenet):
        baseline = simulate_training_iteration(rc_accelerator(), lenet, 16)
        shift = simulate_training_iteration(shift_bnn_accelerator(), lenet, 16)
        assert shift.energy.grng == pytest.approx(2 * baseline.energy.grng, rel=0.01)

    def test_memory_footprint_helper(self, lenet):
        baseline = simulate_memory_footprint(mn_accelerator(), lenet, 16)
        shift = simulate_memory_footprint(shift_bnn_accelerator(), lenet, 16)
        assert shift.epsilon_bytes == 0
        assert baseline.epsilon_bytes > 0
