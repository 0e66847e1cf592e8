"""Training workloads: ``train_dense_rev``, ``train_conv_stored``, ``distrib_dense_pool2``.

The timed run calls ``BNNTrainer.train_step`` and nothing else.  The traced
run re-enacts the step through the layers' *public* calls
(:func:`reenacted_step`) so each layer boundary gets a span without touching
``src/``; the set-up oracle proves the re-enactment lands on the same bytes.
"""

from __future__ import annotations

import pickle
import time
from typing import Callable

import numpy as np

from repro.bnn import BNNTrainer, TrainerConfig
from repro.bnn.elbo import ELBOReport
from repro.bnn.serialization import state_fingerprint, tensor_fingerprint
from repro.core import backend as kernel_backend
from repro.core.grng_bank import GrngBank
from repro.datasets import BatchLoader, synthetic_cifar10, synthetic_mnist
from repro.distrib import DistributedBackend
from repro.distrib.delta import DeltaEncoder
from repro.distrib.plan import plan_step
from repro.distrib.worker import PARAM_SLOT_PREFIX, data_slots
from repro.models import ReplicaSpec, get_model
from repro.nn import functional
from repro.nn.losses import loss_probabilities
from repro.nn.metrics import accuracy
from repro.obs.metrics import MetricsRegistry

from . import spec as names
from .harness import (
    Calibrator,
    Spans,
    Window,
    digest_arrays,
    kernel_counts_per_op,
    median_ms,
    run_cycles,
    window_metrics,
)

BUILD_SEED = 42
STREAM_SEED = 11
ORACLE_STEPS = 8
N_BATCHES = 4


def model_fingerprint(trainer: BNNTrainer) -> str:
    return state_fingerprint(
        (param.name, tensor_fingerprint(param.value))
        for param in trainer.model.parameters()
    )


# ----------------------------------------------------------------------
# the re-enacted step
# ----------------------------------------------------------------------
class TimedSampler:
    """Delegating sampler proxy: every ``core`` call becomes a child span."""

    def __init__(self, sampler, spans: Spans) -> None:
        self._sampler = sampler
        self._spans = spans
        self.n_samples = sampler.n_samples

    def prefetch_forward(self, counts) -> None:
        with self._spans.span("core.eps_forward"):
            self._sampler.prefetch_forward(counts)

    def sample(self, mu, sigma):
        with self._spans.span("core.eps_forward"):
            return self._sampler.sample(mu, sigma)

    def resample(self, mu, sigma):
        with self._spans.span("core.eps_retrieve"):
            return self._sampler.resample(mu, sigma)


def reenacted_step(trainer: BNNTrainer, x, y, kl_weight: float, spans: Spans) -> None:
    """``BNNTrainer.train_step`` (batched pipeline) spelled out in public calls."""
    config, model, loss = trainer.config, trainer.model, trainer.loss
    with spans.span("train_step", op=spans.next_op()):
        with spans.span("bnn.prepare"):
            model.train()
            model.zero_grad()
            sampler = TimedSampler(trainer.bank.batched_sampler(), spans)
        with spans.span("bnn.forward"):
            logits = model.forward_samples(x, sampler)
        with spans.span("nn.loss"):
            total_nll = 0.0
            correct_probs = np.zeros(logits.shape[1:])
            grad_logits = np.empty_like(logits)
            for index in range(config.n_samples):
                total_nll += loss.forward(logits[index], y)
                correct_probs += loss_probabilities(loss, logits[index])
                grad_logits[index] = loss.backward()
        with spans.span("bnn.backward"):
            model.backward_samples(
                grad_logits,
                sampler,
                kl_weight=kl_weight,
                include_entropy_term=config.include_entropy_term,
            )
        with spans.span("core.finish_iteration"):
            trainer.bank.finish_iteration()
        with spans.span("nn.optimizer_step"):
            scale = 1.0 / config.n_samples
            quantization = model.quantization
            for param in model.parameters():
                param.grad *= scale
                if quantization.gradient_format is not None:
                    param.grad[...] = quantization.quantize_gradients(param.grad)
            trainer.optimizer.step()
        with spans.span("bnn.report"):
            report = ELBOReport(
                nll=total_nll * scale, complexity=model.complexity(), kl_weight=kl_weight
            )
            trainer.history.record_step(report, accuracy(correct_probs * scale, y))


class SpannedBackend:
    """``ExecutionBackend`` proxy: a span around the distributed ``run_step``."""

    def __init__(self, backend: DistributedBackend, spans: Spans) -> None:
        self._backend = backend
        self._spans = spans

    def run_step(self, trainer, x, y, kl_weight):
        with self._spans.span("distrib.run_step"):
            return self._backend.run_step(trainer, x, y, kl_weight)

    def close(self) -> None:
        self._backend.close()


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class TrainWorkload:
    """Single-process ``train_step`` on a reduced model."""

    model_name = "B-MLP"
    policy = "reversible"
    n_samples = 8
    batch_size = 16

    def __init__(self, name: str, seed: int, trace: bool, quick: bool = False) -> None:
        self.name = name
        self.seed = seed
        self.trace = trace
        self.oracle_steps = 2 if quick else ORACLE_STEPS
        self.min_reps = 1 if quick else 3
        self.calibrator = Calibrator()
        self.attempted = 0
        self.failed = 0
        self.fingerprint = ""
        self.spans = Spans()
        self.trainer: BNNTrainer | None = None

    # -- inputs ---------------------------------------------------------
    def _dataset(self):
        train, _ = synthetic_mnist(
            n_train=N_BATCHES * self.batch_size, n_test=16, image_size=14, seed=self.seed
        )
        return BatchLoader(train, batch_size=self.batch_size, flatten=True).batches()

    def _trainer(self, backend=None, **overrides) -> BNNTrainer:
        config = TrainerConfig(
            n_samples=self.n_samples, learning_rate=5e-3, seed=STREAM_SEED, **overrides
        )
        return BNNTrainer(
            self.model_spec.build_bayesian(seed=BUILD_SEED),
            config,
            policy=self.policy,
            backend=backend,
        )

    def worker_pids(self) -> list[int]:
        return []

    # -- set-up: build, oracle, warm-up ---------------------------------
    def _reference(self) -> BNNTrainer:
        """The independent path the first steps are checked against."""
        return self._trainer(batched=False)

    def _subject(self) -> BNNTrainer:
        return self._trainer()

    def _oracle_step(self, x, y) -> None:
        """One step of the path under test: the timed run proves ``train_step``
        against the reference, the traced run proves the re-enactment."""
        if self.trace:
            reenacted_step(self.trainer, x, y, self.kl_weight, Spans())
        else:
            self.trainer.train_step(x, y, kl_weight=self.kl_weight)

    def generate_inputs(self) -> None:
        """Everything ``--seed`` decides: the cycled minibatches."""
        self.batches = self._dataset()
        self.input_digest = digest_arrays(a for batch in self.batches for a in batch)

    def setup(self) -> None:
        self.model_spec = get_model(self.model_name, reduced=True)
        self.generate_inputs()
        self.kl_weight = 1.0 / (N_BATCHES * self.batch_size)
        reference = self._reference()
        expected = []
        for step in range(self.oracle_steps):
            x, y = self.batches[step % N_BATCHES]
            reference.train_step(x, y, kl_weight=self.kl_weight)
            expected.append(model_fingerprint(reference))
        reference.close()
        self.trainer = self._subject()
        for step, want in enumerate(expected):  # doubles as warm-up
            self._oracle_step(*self.batches[step % N_BATCHES])
            self.attempted += 1
            self.failed += model_fingerprint(self.trainer) != want
        self.fingerprint = model_fingerprint(self.trainer)

    # -- windows ---------------------------------------------------------
    def _cycle(self, step: Callable[[np.ndarray, np.ndarray], None]):
        """One pass over the cycled batches, each step an op."""

        def cycle(window: Window) -> None:
            for x, y in self.batches:
                start = time.perf_counter()
                step(x, y)
                window.record(start, time.perf_counter())

        return cycle

    def _plain_cycle(self, trainer: BNNTrainer):
        return self._cycle(lambda x, y: trainer.train_step(x, y, kl_weight=self.kl_weight))

    def timed(self, seconds: float) -> Window:
        window = self._run(self._plain_cycle(self.trainer), seconds)
        self.attempted += window.ops
        return window

    def _run(self, cycle, seconds: float) -> Window:
        return run_cycles(cycle, seconds, self.calibrator, self.worker_pids())

    def traced(self, seconds: float) -> dict[str, float]:
        trainer, spans = self.trainer, self.spans
        plain = self._run(self._plain_cycle(trainer), 0.3 * seconds)
        usages = [stream.usage for stream in trainer.bank.streams]
        generated = sum(usage.generated_values for usage in usages)
        offchip = trainer.epsilon_offchip_bytes()
        kernel_backend.reset_counters()
        traced = self._run(
            self._cycle(lambda x, y: reenacted_step(trainer, x, y, self.kl_weight, spans)),
            0.4 * seconds,
        )
        counters = kernel_backend.counters_snapshot()
        self.attempted += plain.ops + traced.ops
        steps = traced.ops
        eps_per_step = (sum(u.generated_values for u in usages) - generated) / steps
        forward = spans.total_ms("core.eps_forward") / steps
        retrieve = spans.total_ms("core.eps_retrieve") / steps
        metrics = window_metrics(plain)
        metrics.update(
            {
                "core.eps_forward_ms": forward,
                "core.eps_retrieve_ms": retrieve,
                "core.eps_forward_ns_per_eps": 1e6 * forward / eps_per_step,
                "core.eps_retrieve_ns_per_eps": 1e6 * retrieve / eps_per_step,
                "core.eps_per_step": eps_per_step,
                "core.finish_iteration_ms": spans.total_ms("core.finish_iteration") / steps,
                "bnn.forward_self_ms": (
                    spans.total_ms("bnn.forward") - spans.children_ms("bnn.forward")
                ) / steps,
                "bnn.backward_self_ms": (
                    spans.total_ms("bnn.backward") - spans.children_ms("bnn.backward")
                ) / steps,
                "bnn.step_other_ms": (
                    spans.total_ms("bnn.prepare") + spans.total_ms("bnn.report")
                ) / steps,
                "nn.loss_ms": spans.total_ms("nn.loss") / steps,
                "nn.optimizer_step_ms": spans.total_ms("nn.optimizer_step") / steps,
                "eps_offchip_bytes_per_op": (trainer.epsilon_offchip_bytes() - offchip) / steps,
                "eps_footprint_bytes": float(trainer.epsilon_footprint_bytes()),
                "bench.span_coverage": spans.children_ms("train_step")
                / spans.total_ms("train_step"),
                "bench.trace_overhead_ratio": metrics["ops_per_s"]
                / window_metrics(traced)["ops_per_s"],
            }
        )
        metrics.update(kernel_counts_per_op(counters, steps))
        metrics.update(self._isolated_kernels(0.2 * seconds, int(eps_per_step)))
        return metrics

    def _isolated_kernels(self, budget_s: float, eps_per_step: int) -> dict[str, float]:
        """Kernel entry points called directly at the step's shapes."""
        config = self.trainer.config
        count = eps_per_step // config.n_samples
        bank = GrngBank(
            n_rows=config.n_samples, n_bits=config.lfsr_bits, stride=config.grng_stride
        )
        metrics = {
            "core.grng_block_forward_ms": median_ms(
                lambda: bank.epsilon_blocks(count), budget_s / 3, self.min_reps
            ),
            "core.grng_block_reverse_ms": median_ms(
                lambda: bank.epsilon_blocks_reverse(count), budget_s / 3, self.min_reps
            ),
        }
        # forward runs im2col once per conv layer on the folded (S * batch) input
        rows = config.n_samples * self.batch_size
        convs = [
            (np.zeros((rows,) + trace.input_shape), layer)
            for layer, trace in zip(self.model_spec.layers, self.model_spec.trace())
            if trace.kind == "conv"
        ]
        if convs:

            def im2col_per_step() -> None:
                for array, layer in convs:
                    functional.im2col(array, layer.kernel_size, layer.stride, layer.padding)

            metrics["nn.im2col_ms"] = median_ms(im2col_per_step, budget_s / 3, self.min_reps)
        return metrics

    # -- reporting -------------------------------------------------------
    def info(self) -> dict:
        config = self.trainer.config
        return {
            "model": self.model_spec.name,
            "bayesian_weights": self.trainer.model.n_bayesian_weights,
            "policy": self.policy,
            "n_samples": config.n_samples,
            "batch_size": self.batch_size,
            "lfsr_bits": config.lfsr_bits,
            "grng_stride": config.grng_stride,
            "optimizer": config.optimizer,
            "batches_cycled": N_BATCHES,
            "oracle_steps": self.oracle_steps,
            "fingerprint_after_oracle": self.fingerprint,
            "input_digest": self.input_digest,
        }

    def close(self) -> None:
        if self.trainer is not None:
            self.trainer.close()


class ConvStoredWorkload(TrainWorkload):
    model_name = "B-LeNet"
    policy = "stored"
    n_samples = 4
    batch_size = 64

    def _dataset(self):
        train, _ = synthetic_cifar10(
            n_train=N_BATCHES * self.batch_size, n_test=16, image_size=16, seed=self.seed
        )
        return BatchLoader(train, batch_size=self.batch_size).batches()


class DistribWorkload(TrainWorkload):
    """``train_dense_rev``'s model and data through the 2-worker pool."""

    n_workers = 2
    n_shards = 4
    n_row_blocks = 2

    def _backend(self, **overrides) -> DistributedBackend:
        options = dict(
            n_workers=self.n_workers,
            n_shards=self.n_shards,
            n_row_blocks=self.n_row_blocks,
            delta_shipping=True,
            metrics=MetricsRegistry(),
        )
        options.update(overrides)
        return DistributedBackend(
            ReplicaSpec.structural(self.model_spec, build_seed=BUILD_SEED), **options
        )

    def _reference(self) -> BNNTrainer:
        # row blocking is part of the canonical trajectory: the reference is
        # the inline 1-shard backend with the same row blocks, shipping full
        return self._trainer(
            backend=self._backend(n_workers=0, n_shards=1, delta_shipping=False)
        )

    def _subject(self) -> BNNTrainer:
        self.registry = MetricsRegistry()
        self.backend = self._backend(metrics=self.registry)
        return self._trainer(backend=self.backend)

    def _oracle_step(self, x, y) -> None:
        self.trainer.train_step(x, y, kl_weight=self.kl_weight)

    def worker_pids(self) -> list[int]:
        return [process.pid for process in self.backend.processes]

    def _recoveries(self) -> int:
        backend = self.backend
        return backend.resyncs + backend.replans + backend.respawns_used

    def setup(self) -> None:
        super().setup()
        self.failed += self._recoveries() != 0

    def timed(self, seconds: float) -> Window:
        window = super().timed(seconds)
        self.failed += self._recoveries() != 0
        return window

    def _phase_sums_ms(self) -> dict[str, float]:
        children = self.registry.snapshot()["repro_distrib_step_phase_ms"]["children"]
        return {label.split("=", 1)[1]: child["sum"] for label, child in children.items()}

    def traced(self, seconds: float) -> dict[str, float]:
        backend, trainer, spans = self.backend, self.trainer, self.spans
        plain = self._run(self._plain_cycle(trainer), 0.25 * seconds)

        def spanned_step(x, y) -> None:
            with spans.span("train_step", op=spans.next_op()):
                trainer.train_step(x, y, kl_weight=self.kl_weight)

        phases_before = self._phase_sums_ms()
        shipped, full = backend.bytes_shipped, backend.bytes_full_equivalent
        trainer.backend = SpannedBackend(backend, spans)
        traced = self._run(self._cycle(spanned_step), 0.25 * seconds)
        trainer.backend = backend
        steps = traced.ops
        self.attempted += plain.ops + steps
        self.failed += self._recoveries() != 0
        phases = {
            phase: (total - phases_before[phase]) / steps
            for phase, total in self._phase_sums_ms().items()
        }
        step_ms = spans.total_ms("train_step") / steps
        run_step_ms = spans.total_ms("distrib.run_step") / steps
        shipped = (backend.bytes_shipped - shipped) / steps
        full = (backend.bytes_full_equivalent - full) / steps
        plan = plan_step(self.n_samples, self.n_shards, self.batch_size, self.n_row_blocks)
        metrics = window_metrics(plain)
        metrics.update(
            {
                "distrib.run_step_ms": run_step_ms,
                "distrib.coordinator_apply_ms": step_ms - run_step_ms,
                "wire_bytes_per_op": shipped,
                "distrib.wire_bytes_full_equiv_per_step": full,
                "distrib.delta_reduction_ratio": full / shipped,
                "distrib.tasks_per_step": float(len(plan.tasks)),
                "distrib.resyncs": float(backend.resyncs),
                "distrib.replans": float(backend.replans),
                "distrib.respawns": float(backend.respawns_used),
                "distrib.worker_cpu_share": 1.0 - traced.own_cpu_s / traced.cpu_s,
                "eps_footprint_bytes": float(trainer.epsilon_footprint_bytes()),
                "core.eps_per_step": float(self.n_samples * trainer.model.n_bayesian_weights),
                "bench.span_coverage": run_step_ms / step_ms,
                "bench.trace_overhead_ratio": metrics["ops_per_s"]
                / window_metrics(traced)["ops_per_s"],
            }
        )
        metrics.update({f"distrib.phase.{k}_ms": v for k, v in phases.items()})
        metrics.update(self._baselines(0.3 * seconds, metrics["ops_per_s"]))
        metrics.update(self._isolated_transport(0.1 * seconds))
        return metrics

    def _baselines(self, budget_s: float, pooled_rate: float) -> dict[str, float]:
        """The same steps single-process and inline-sharded, in this run."""

        def measure(trainer: BNNTrainer) -> dict[str, float]:
            cycle = self._plain_cycle(trainer)
            try:
                cycle(Window())  # warm-up
                return window_metrics(run_cycles(cycle, budget_s / 2, self.calibrator))
            finally:
                trainer.close()

        single = measure(self._trainer())
        inline = measure(self._trainer(backend=self._backend(n_workers=0)))
        return {
            "distrib.speedup_vs_single": pooled_rate / single["ops_per_s"],
            "distrib.inline_step_ms": inline["op_p50_ms"],
        }

    def _isolated_transport(self, budget_s: float) -> dict[str, float]:
        """Fingerprint / encode / pickle of one step's state, called directly."""
        x, y = self.batches[0]
        plan = plan_step(self.n_samples, self.n_shards, self.batch_size, self.n_row_blocks)
        params = {
            PARAM_SLOT_PREFIX + param.name: param.value
            for param in self.trainer.model.parameters()
        }
        blocks = []
        for block, (start, stop) in enumerate(plan.row_blocks):
            x_slot, y_slot = data_slots(block)
            blocks.append({x_slot: x[start:stop], y_slot: y[start:stop]})
        step_slots = dict(params)  # what run_step hashes once per step
        for block_slots in blocks:
            step_slots.update(block_slots)
        task_slots = dict(params, **blocks[0])  # what one task ships

        def fingerprint_step() -> dict[str, str]:
            return {slot: tensor_fingerprint(array) for slot, array in step_slots.items()}

        fingerprints = fingerprint_step()
        encoder = DeltaEncoder()
        # the cold message ships every tensor, like a step's first task per
        # worker (parameters change every step); later calls are pure deltas
        message = encoder.encode(task_slots, fingerprints).message
        return {
            "distrib.fingerprint_ms": median_ms(fingerprint_step, budget_s / 3),
            "distrib.encode_ms": median_ms(
                lambda: encoder.encode(task_slots, fingerprints), budget_s / 3
            ),
            "distrib.payload_pickle_ms": median_ms(lambda: pickle.dumps(message), budget_s / 3),
            "distrib.payload_pickle_bytes": float(len(pickle.dumps(message))),
        }

    def info(self) -> dict:
        return dict(
            super().info(),
            n_workers=self.n_workers,
            n_shards=self.n_shards,
            n_row_blocks=self.n_row_blocks,
            delta_shipping=True,
        )


def build(name: str, seed: int, trace: bool, quick: bool = False) -> TrainWorkload:
    cls = {names.DENSE: TrainWorkload, names.CONV: ConvStoredWorkload, names.POOL: DistribWorkload}
    return cls[name](name, seed, trace, quick)
