"""Large allocations of a warm batched conv step, counted without timing.

A reduced B-LeNet ``stored`` training step at S = 4, batch 64 runs under
``tracemalloc`` and a profile hook.  Between two consecutive profiler events
one Python frame runs (its bytecode or a C function it called); whenever the
traced memory peaked at least 256 KiB above where it stood at the previous
event, that frame made a large allocation.  The frames are filtered to
``nn/functional.py``, whose conv GEMMs write straight into their results:
per step each conv forward makes one large allocation (its folded output),
the second conv's backward one ``grad_flat @ W`` per sample, the first dense
layer's ``sample_matmul`` one per pass.  The eight per-sample GEMM outputs
the forward used to copy from (four per conv layer) must not come back.  The
counts do not depend on the conv kernels' backend: their allocations happen
in ``core/backend.py`` frames.
"""

from __future__ import annotations

import sys
import tracemalloc
from collections import Counter

from repro.bnn import BNNTrainer, TrainerConfig
from repro.datasets import BatchLoader, synthetic_cifar10
from repro.models import get_model

LARGE = 256 * 1024


def _large_allocations(fn, path_suffix: str) -> Counter:
    """Large allocations made while ``fn`` runs, keyed by the function of a
    frame whose file ends with ``path_suffix``."""
    counts: Counter = Counter()
    state: dict = {"frame": None, "base": 0}

    def profile(frame, event, arg):
        _, peak = tracemalloc.get_traced_memory()
        running = state["frame"]
        if peak - state["base"] >= LARGE and running is not None:
            if running.f_code.co_filename.endswith(path_suffix):
                counts[running.f_code.co_name] += 1
        state["frame"] = frame.f_back if event == "return" else frame
        tracemalloc.reset_peak()
        state["base"] = tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        tracemalloc.stop()
        state["frame"] = None
    return counts


def test_a_warm_conv_step_allocates_no_per_sample_gemm_outputs():
    train, _ = synthetic_cifar10(n_train=64, n_test=16, image_size=16, seed=5)
    x, y = BatchLoader(train, batch_size=64).batches()[0]
    trainer = BNNTrainer(
        get_model("B-LeNet", reduced=True).build_bayesian(seed=9),
        TrainerConfig(n_samples=4, learning_rate=5e-3, seed=11),
        policy="stored",
    )
    for _ in range(2):  # the step workspace fills on the first step
        trainer.train_step(x, y, kl_weight=0.05)
    counts = _large_allocations(
        lambda: trainer.train_step(x, y, kl_weight=0.05), "repro/nn/functional.py"
    )
    assert counts == {
        "conv2d_forward_samples": 2,
        "conv2d_backward_samples": 4,
        "sample_matmul": 2,
    }
