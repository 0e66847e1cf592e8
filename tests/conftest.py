"""Shared fixtures and helpers for the Shift-BNN reproduction test suite."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.bnn import BayesConv2D, BayesDense, BayesianNetwork
from repro.models import ActivationSpec, ConvSpec, DenseSpec, FlattenSpec, ModelSpec, PoolSpec
from repro.nn import Flatten, MaxPool2D, ReLU


def central_difference_gradient(
    function, array: np.ndarray, epsilon: float = 1e-6
) -> np.ndarray:
    """Central-difference numerical gradient of a scalar function of ``array``.

    The function is called with no arguments and must read ``array`` by
    reference (the helper mutates it in place and restores it).
    """
    grad = np.zeros_like(array)
    flat = array.ravel()
    grad_flat = grad.ravel()
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        upper = function()
        flat[index] = original - epsilon
        lower = function()
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2.0 * epsilon)
    return grad


def process_running(pid: int) -> bool:
    """Whether ``pid`` still executes (a zombie awaiting its reaper does not)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.fixture
def orphaned_worker_pids():
    """Run a pool-owning script, SIGKILL it, return the workers still running.

    The script must print its worker pids on one line once the pool is up
    and then keep running.  It is killed the way ``subprocess.run(...,
    timeout=)`` kills on expiry -- no ``atexit``, no ``close()`` -- and the
    workers get ``grace_s`` to notice.
    """

    def probe(script: str, grace_s: float = 5.0) -> list[int]:
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        child = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        try:
            pids = [int(pid) for pid in child.stdout.readline().split()]
            assert pids and all(process_running(pid) for pid in pids)
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=10.0)
            child.stdout.close()
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline and any(map(process_running, pids)):
            time.sleep(0.05)
        survivors = [pid for pid in pids if process_running(pid)]
        for pid in survivors:  # never leave them to the next test
            os.kill(pid, signal.SIGKILL)
        return survivors

    return probe


@pytest.fixture
def restore_selection():
    """Snapshot the kernel registry's forced choices and restore them after."""
    import repro.core.backend as backend

    saved = backend.current_selection()
    try:
        yield
    finally:
        backend.apply_selection(saved)


@pytest.fixture
def numeric_gradient():
    """Fixture exposing the central-difference gradient helper."""
    return central_difference_gradient


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic NumPy generator for test inputs."""
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_mlp_spec() -> ModelSpec:
    """A very small fully-connected Bayesian model spec (fast to train)."""
    return ModelSpec(
        name="tiny-mlp",
        input_shape=(1, 4, 4),
        num_classes=3,
        dataset="unit-test",
        flatten_input=True,
        layers=(
            DenseSpec("fc1", 8),
            ActivationSpec("relu1"),
            DenseSpec("fc2", 3),
        ),
    )


@pytest.fixture
def tiny_conv_spec() -> ModelSpec:
    """A very small convolutional Bayesian model spec (fast to train)."""
    return ModelSpec(
        name="tiny-conv",
        input_shape=(2, 8, 8),
        num_classes=3,
        dataset="unit-test",
        layers=(
            ConvSpec("conv1", out_channels=3, kernel_size=3, padding=1),
            ActivationSpec("relu1"),
            PoolSpec("pool1", "max", 2),
            FlattenSpec("flatten"),
            DenseSpec("fc1", 3),
        ),
    )


def build_tiny_bayes_network(seed: int = 0) -> BayesianNetwork:
    """A handwritten two-layer Bayesian conv/dense network for layer tests."""
    rng = np.random.default_rng(seed)
    return BayesianNetwork(
        [
            BayesConv2D(1, 2, kernel_size=3, padding=1, rng=rng, name="conv"),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            BayesDense(2 * 2 * 2, 3, rng=rng, name="fc"),
        ],
        name="tiny",
    )
