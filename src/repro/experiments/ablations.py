"""Ablation studies beyond the paper's figures.

DESIGN.md calls out three design choices worth sweeping that the paper fixes
by construction.  Each ablation returns the usual :class:`ExperimentResult`
table so it can be printed by ``python -m repro.experiments.runner`` and
exercised by ``tests/unit/test_serialization_and_ablations.py`` like any other
experiment.

* **GRNG width / stride** -- how many LFSR bits (and how many shifts per
  variable) are needed for the CLT approximation to deliver well-behaved
  Gaussian statistics.  The paper uses 256-bit registers and one shift per
  weight; the sweep quantifies what that buys.
* **SPU count scaling** -- the paper claims the design "scales well to larger
  sample sizes"; the sweep varies the number of Sample Processing Units and
  reports latency and efficiency at a fixed large sample count.
* **DRAM bandwidth sensitivity** -- the benefit of eliminating the epsilon
  traffic depends on how scarce bandwidth is; the sweep varies the number of
  DDR3 channels for both RC-Acc and Shift-BNN.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..accel import (
    DramChannel,
    rc_accelerator,
    shift_bnn_accelerator,
    simulate_training_iteration,
)
from ..analysis import energy_reduction_percent
from ..core import GrngBank
from ..models import paper_models
from .base import ExperimentResult

__all__ = [
    "run_grng_quality_ablation",
    "run_spu_scaling_ablation",
    "run_bandwidth_sensitivity_ablation",
]


def run_grng_quality_ablation(
    widths: Sequence[int] = (32, 64, 128, 256),
    strides: Sequence[int] = (1, 16, 256),
    sample_count: int = 8192,
) -> ExperimentResult:
    """Distribution quality of the CLT-based GRNG across widths and strides."""
    result = ExperimentResult(
        name="ablation_grng",
        title="Ablation: GRNG width / stride vs Gaussian quality",
        headers=["lfsr_bits", "stride", "mean", "std", "skew", "resolution"],
    )
    for width in widths:
        for stride in strides:
            stride_effective = min(stride, width)
            bank = GrngBank(seed_indices=[7], n_bits=width, stride=stride_effective)
            samples = bank.epsilon_blocks(sample_count)[0]
            mean, std = float(np.mean(samples)), float(np.std(samples))
            skew = float(np.mean((samples - samples.mean()) ** 3) / std**3) if std else 0.0
            result.rows.append(
                [width, stride_effective, mean, std, skew, 1.0 / math.sqrt(width / 4.0)]
            )
    result.notes.append(
        "wider registers shrink the quantisation step (resolution = 2/sqrt(n)); "
        "larger strides decorrelate consecutive variables so the sample std "
        "approaches 1.0"
    )
    return result


def run_spu_scaling_ablation(
    spu_counts: Sequence[int] = (4, 8, 16, 32, 64),
    model_name: str = "B-LeNet",
    n_samples: int = 64,
) -> ExperimentResult:
    """Latency / efficiency of Shift-BNN as the number of SPUs grows."""
    spec = paper_models()[model_name]
    result = ExperimentResult(
        name="ablation_spu",
        title=f"Ablation: SPU count scaling ({model_name}, S={n_samples})",
        headers=[
            "n_spus",
            "latency_ms",
            "speedup_vs_4_spus",
            "energy_J",
            "efficiency_gops_per_watt",
        ],
    )
    baseline_latency = None
    for n_spus in spu_counts:
        accel = shift_bnn_accelerator(name=f"Shift-BNN-{n_spus}SPU", n_spus=n_spus)
        sim = simulate_training_iteration(accel, spec, n_samples)
        if baseline_latency is None:
            baseline_latency = sim.latency_seconds
        result.rows.append(
            [
                n_spus,
                sim.latency_seconds * 1e3,
                baseline_latency / sim.latency_seconds,
                sim.energy_joules,
                sim.energy_efficiency_gops_per_watt,
            ]
        )
    result.notes.append(
        "sample-level parallelism scales nearly linearly until the SPU count "
        "approaches the sample count or DRAM bandwidth saturates"
    )
    return result


def run_bandwidth_sensitivity_ablation(
    channel_counts: Sequence[int] = (1, 2, 4, 8),
    model_name: str = "B-VGG",
    n_samples: int = 16,
) -> ExperimentResult:
    """How the Shift-BNN advantage depends on available DRAM bandwidth."""
    spec = paper_models()[model_name]
    result = ExperimentResult(
        name="ablation_bandwidth",
        title=f"Ablation: DRAM bandwidth sensitivity ({model_name}, S={n_samples})",
        headers=[
            "dram_channels",
            "rc_latency_ms",
            "shift_latency_ms",
            "speedup",
            "energy_reduction_%",
        ],
    )
    for channels in channel_counts:
        dram = DramChannel(channels=channels)
        rc = simulate_training_iteration(rc_accelerator(dram=dram), spec, n_samples)
        shift = simulate_training_iteration(
            shift_bnn_accelerator(dram=dram), spec, n_samples
        )
        result.rows.append(
            [
                channels,
                rc.latency_seconds * 1e3,
                shift.latency_seconds * 1e3,
                rc.latency_seconds / shift.latency_seconds,
                energy_reduction_percent(rc.energy_joules, shift.energy_joules),
            ]
        )
    result.notes.append(
        "the scarcer the bandwidth, the larger the latency benefit of removing "
        "the epsilon traffic; the energy saving is bandwidth-independent"
    )
    return result
