"""BNN trainers: the stored-epsilon baseline and the Shift-BNN policy.

Both trainers run the identical Bayes-by-Backprop algorithm of Fig. 1(a); the
only difference is the epsilon-management policy of the underlying
:class:`~repro.core.checkpoint.StreamBank`:

* :class:`BaselineBNNTrainer` stores every epsilon between the forward and
  backward stages (what a conventional accelerator or GPU must do);
* :class:`ShiftBNNTrainer` stores none of them and regenerates them by LFSR
  reversal.

Because the regenerated values are bit-identical to the stored ones, the two
trainers produce *exactly* the same parameter trajectory when started from the
same model and seed -- the property behind Fig. 9 of the paper.  Each trainer
also reports how many epsilon bytes its policy moved to and from backing
storage, which feeds the characterisation experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Protocol, Sequence

import numpy as np

from ..core.checkpoint import StreamBank, StreamPolicy
from ..core.lfsr import MAXIMAL_TAPS
from ..nn.losses import Loss, SoftmaxCrossEntropy, loss_probabilities
from ..nn.metrics import accuracy
from ..nn.optim import SGD, Adam, Optimizer
from ..nn.quantization import QuantizationConfig
from .elbo import ELBOReport
from .model import BayesianNetwork
from .predict import mc_predict

__all__ = [
    "TrainerConfig",
    "TrainingHistory",
    "ExecutionBackend",
    "BNNTrainer",
    "BaselineBNNTrainer",
    "ShiftBNNTrainer",
]


class ExecutionBackend(Protocol):
    """Pluggable executor of one ``train_step``'s FW / BW / GC stages.

    ``run_step`` must leave the trainer's model holding the step's
    accumulated (un-scaled) parameter gradients and the trainer's bank
    holding the post-step generator states and traffic counters, and return
    ``(total_nll, correct_probs)`` exactly as the built-in pipelines do --
    the trainer then applies the optimiser update.  The distributed
    sample/row-sharded engine (:class:`repro.distrib.DistributedBackend`) is the
    canonical implementation; the contract is that any backend follows the
    single-process parameter trajectory bit for bit.
    """

    def run_step(
        self,
        trainer: "BNNTrainer",
        x: np.ndarray,
        y: np.ndarray,
        kl_weight: float,
    ) -> tuple[float, np.ndarray]: ...

    def close(self) -> None: ...


@dataclass(frozen=True)
class TrainerConfig:
    """Hyper-parameters shared by the baseline and Shift-BNN trainers.

    Attributes
    ----------
    n_samples:
        Number of Monte-Carlo weight samples ``S`` per training example.
    learning_rate, optimizer, momentum:
        Optimiser selection (``"adam"`` or ``"sgd"``).
    kl_weight:
        Weight of the complexity (prior/posterior) term per batch.  ``None``
        selects ``1 / total_training_examples``, the per-example ELBO scaling
        that matches the per-example mean used for the likelihood term (the
        same convention as Blundell et al.'s ``1/M`` once the likelihood is a
        sum over the minibatch).
    quantization_bits:
        8, 16 or 32 -- the datapath word length of Table 1.  ``None`` means
        full precision (same as 32).
    lfsr_bits:
        Width of each GRNG's LFSR.
    grng_stride:
        LFSR shifts per epsilon.  The default uses non-overlapping patterns
        (independent variables); set to 1 for the hardware-faithful sliding
        window.
    include_entropy_term:
        Keep the exact ``-1/sigma`` term of the sigma gradient (Blundell's
        estimator).  Set to ``False`` to mirror the accelerator's simplified
        updater.
    batched:
        Execute the ``S`` Monte-Carlo samples of each step through the
        batched ``(S, batch, ...)`` pipeline (default).  ``False`` selects
        the per-sample loop; both produce bit-identical parameter
        trajectories, only wall-clock time differs.  :meth:`evaluate` always
        runs the batched engine.
    seed:
        Seed for the stream bank (epsilons).  Model initialisation has its own
        rng, owned by whoever builds the model.
    """

    n_samples: int = 4
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    momentum: float = 0.9
    kl_weight: float | None = None
    quantization_bits: int | None = None
    lfsr_bits: int = 256
    grng_stride: int = 256
    include_entropy_term: bool = True
    batched: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError("optimizer must be 'adam' or 'sgd'")
        if self.quantization_bits not in (None, 8, 16, 32):
            raise ValueError("quantization_bits must be one of None, 8, 16, 32")
        # Reject bad GRNG settings here, where the mistake is visible, instead
        # of letting them explode deep inside the LFSR core mid-training.
        if self.lfsr_bits not in MAXIMAL_TAPS:
            widths = ", ".join(str(width) for width in sorted(MAXIMAL_TAPS))
            raise ValueError(
                f"lfsr_bits must be a tabulated maximal-length width "
                f"({widths}), got {self.lfsr_bits}"
            )
        if self.grng_stride < 1:
            raise ValueError(
                f"grng_stride must be at least 1 shift per variable, "
                f"got {self.grng_stride}"
            )


@dataclass
class TrainingHistory:
    """Per-iteration and per-epoch records of a training run."""

    losses: list[float] = field(default_factory=list)
    nlls: list[float] = field(default_factory=list)
    complexities: list[float] = field(default_factory=list)
    train_accuracies: list[float] = field(default_factory=list)
    epoch_losses: list[float] = field(default_factory=list)
    epoch_accuracies: list[float] = field(default_factory=list)
    validation_accuracies: list[float] = field(default_factory=list)

    def record_step(self, report: ELBOReport, batch_accuracy: float) -> None:
        self.losses.append(report.total)
        self.nlls.append(report.nll)
        self.complexities.append(report.complexity)
        self.train_accuracies.append(batch_accuracy)

    @property
    def steps(self) -> int:
        """Number of optimisation steps recorded."""
        return len(self.losses)


class BNNTrainer:
    """Bayes-by-Backprop trainer over a configurable epsilon-stream policy."""

    policy: StreamPolicy = "stored"

    def __init__(
        self,
        model: BayesianNetwork,
        config: TrainerConfig | None = None,
        loss: Loss | None = None,
        policy: StreamPolicy | None = None,
        backend: ExecutionBackend | None = None,
    ) -> None:
        self.model = model
        self.config = config or TrainerConfig()
        self.loss = loss or SoftmaxCrossEntropy()
        self.backend = backend
        if policy is not None:
            self.policy = policy
        self.bank = StreamBank(
            n_samples=self.config.n_samples,
            policy=self.policy,
            seed=self.config.seed,
            lfsr_bits=self.config.lfsr_bits,
            grng_stride=self.config.grng_stride,
        )
        if self.config.quantization_bits in (8, 16):
            quantization = QuantizationConfig.from_word_length(self.config.quantization_bits)
        else:
            quantization = QuantizationConfig.full_precision()
        self.model.quantization = quantization
        self._quantization = quantization
        self.optimizer = self._build_optimizer()
        self.history = TrainingHistory()

    @property
    def step_count(self) -> int:
        """Number of optimisation steps this trainer has applied."""
        return self.history.steps

    def close(self) -> None:
        """Release the execution backend (worker processes), if any."""
        if self.backend is not None:
            self.backend.close()

    def __enter__(self) -> "BNNTrainer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _build_optimizer(self) -> Optimizer:
        params = self.model.parameters()
        if self.config.optimizer == "adam":
            return Adam(params, learning_rate=self.config.learning_rate)
        return SGD(
            params,
            learning_rate=self.config.learning_rate,
            momentum=self.config.momentum,
        )

    # ------------------------------------------------------------------
    # single step
    # ------------------------------------------------------------------
    def train_step(
        self,
        x: np.ndarray,
        y: np.ndarray,
        kl_weight: float = 1.0,
        batched: bool | None = None,
    ) -> ELBOReport:
        """One optimisation step on a single minibatch.

        Runs the FW / BW / GC stages for each of the ``S`` Monte-Carlo samples,
        averages the gradients and applies one optimiser update.  ``batched``
        overrides the config's execution mode for this step; the batched and
        per-sample pipelines follow bit-identical parameter trajectories.
        """
        if self.backend is not None and batched is None:
            # pluggable execution backend (e.g. the distributed sample/row-
            # sharded engine); an explicit ``batched=`` forces the built-in
            # pipelines,
            # which is how equivalence tests compare the two in one process
            total_nll, correct_probs = self.backend.run_step(self, x, y, kl_weight)
        elif self.config.batched if batched is None else batched:
            total_nll, correct_probs = self._run_samples_batched(x, y, kl_weight)
        else:
            total_nll, correct_probs = self._run_samples_sequential(x, y, kl_weight)
        return self._apply_step(total_nll, correct_probs, y, kl_weight)

    def _run_samples_sequential(
        self, x: np.ndarray, y: np.ndarray, kl_weight: float
    ) -> tuple[float, np.ndarray]:
        """FW / BW / GC for each sample in turn through per-sample samplers."""
        config = self.config
        model = self.model
        model.train()
        self.optimizer.zero_grad()
        total_nll = 0.0
        correct_probs = np.zeros((x.shape[0], 0))
        for sample_index in range(config.n_samples):
            sampler = self.bank.sampler(sample_index)
            logits = model.forward_sample(x, sampler)
            if correct_probs.shape[1] == 0:
                correct_probs = np.zeros((x.shape[0], logits.shape[1]))
            total_nll += self.loss.forward(logits, y)
            # the loss's forward already computed the softmax -- reuse it
            correct_probs += self._loss_probabilities(logits)
            grad_logits = self.loss.backward()
            model.backward_sample(
                grad_logits,
                sampler,
                kl_weight=kl_weight,
                include_entropy_term=config.include_entropy_term,
            )
        return total_nll, correct_probs

    def _run_samples_batched(
        self, x: np.ndarray, y: np.ndarray, kl_weight: float
    ) -> tuple[float, np.ndarray]:
        """FW / BW / GC for all samples at once through the batched pipeline.

        The per-sample loss reduction stays a loop over the (tiny) logit
        slices so that scalar losses and gradient scaling accumulate in
        exactly the sequential order -- everything upstream and downstream of
        it is vectorised over the sample axis.
        """
        config = self.config
        model = self.model
        model.train()
        self.optimizer.zero_grad()
        sampler = self.bank.batched_sampler()
        logits = model.forward_samples(x, sampler)
        total_nll = 0.0
        correct_probs = np.zeros(logits.shape[1:])
        grad_logits = np.empty_like(logits)
        for sample_index in range(config.n_samples):
            total_nll += self.loss.forward(logits[sample_index], y)
            correct_probs += self._loss_probabilities(logits[sample_index])
            grad_logits[sample_index] = self.loss.backward()
        model.backward_samples(
            grad_logits,
            sampler,
            kl_weight=kl_weight,
            include_entropy_term=config.include_entropy_term,
        )
        return total_nll, correct_probs

    def _loss_probabilities(self, logits: np.ndarray) -> np.ndarray:
        """Predictive probabilities of the most recent loss forward."""
        return loss_probabilities(self.loss, logits)

    def _apply_step(
        self,
        total_nll: float,
        correct_probs: np.ndarray,
        y: np.ndarray,
        kl_weight: float,
    ) -> ELBOReport:
        """Average the accumulated gradients and apply one optimiser update."""
        model = self.model
        self.bank.finish_iteration()
        scale = 1.0 / self.config.n_samples
        self.optimizer.arena.grad *= scale
        if self._quantization.gradient_format is not None:
            for param in model.parameters():
                param.grad[...] = self._quantization.quantize_gradients(param.grad)
        self.optimizer.step()
        mean_nll = total_nll * scale
        report = ELBOReport(
            nll=mean_nll, complexity=model.complexity(), kl_weight=kl_weight
        )
        batch_accuracy = accuracy(correct_probs * scale, y)
        self.history.record_step(report, batch_accuracy)
        return report

    # ------------------------------------------------------------------
    # full runs
    # ------------------------------------------------------------------
    def fit(
        self,
        batches: Sequence[tuple[np.ndarray, np.ndarray]] | Iterable[tuple[np.ndarray, np.ndarray]],
        epochs: int = 1,
        validation: tuple[np.ndarray, np.ndarray] | None = None,
        verbose: bool = False,
        resume: bool = False,
        checkpoint_callback: Callable[["BNNTrainer", int], None] | None = None,
        checkpoint_every_n_steps: int | None = None,
        checkpoint_path: str | None = None,
    ) -> TrainingHistory:
        """Train for ``epochs`` passes over ``batches``.

        ``batches`` is a sequence of ``(x, y)`` minibatches; when the trainer's
        ``kl_weight`` is unset it defaults to ``1 / total_training_examples``
        (per-example ELBO scaling, consistent with the per-example mean NLL).

        With ``resume=True`` the first ``self.step_count`` steps of the
        schedule are skipped: after :func:`~repro.bnn.serialization.load_checkpoint`
        (same batches, same epochs) the run continues from the recorded step
        onto the exact trajectory of the uninterrupted run.  Epoch aggregates
        are computed from the per-step history records, so an epoch that
        straddles the checkpoint still reports the full-epoch statistics.

        ``checkpoint_callback`` (``callback(trainer, step_index)``), when
        given, is invoked after every completed optimisation step -- the hook
        the checkpoint layer and the distributed demo use to persist mid-run
        state at step granularity.

        ``checkpoint_every_n_steps`` + ``checkpoint_path`` turn on periodic
        **auto-snapshots**: every N completed steps (and after the final
        step) the trainer saves a full v2 checkpoint via
        :func:`~repro.bnn.serialization.save_checkpoint` to
        ``checkpoint_path``, overwriting the previous snapshot.  Combined
        with ``resume=True`` after
        :func:`~repro.bnn.serialization.load_checkpoint`, an interrupted fit
        (worker crash, preemption, power loss) restarts from the latest
        snapshot onto the exact uninterrupted trajectory -- the checkpoint
        captures parameters, optimiser slots, generator states and history,
        so the resumed bits match the uninterrupted run's.  Works with any
        execution backend (the distributed coordinator's bookkeeping bank is
        exactly what the checkpoint layer saves).
        """
        if (checkpoint_every_n_steps is None) != (checkpoint_path is None):
            raise ValueError(
                "checkpoint_every_n_steps and checkpoint_path come as a pair"
            )
        if checkpoint_every_n_steps is not None:
            if checkpoint_every_n_steps < 1:
                raise ValueError("checkpoint_every_n_steps must be at least 1")
            from .serialization import save_checkpoint

            user_callback = checkpoint_callback
            total = None  # bound below, once the schedule length is known

            def checkpoint_callback(trainer: "BNNTrainer", step: int) -> None:
                if (step + 1) % checkpoint_every_n_steps == 0 or step + 1 == total:
                    save_checkpoint(trainer, checkpoint_path)
                if user_callback is not None:
                    user_callback(trainer, step)

        batch_list = list(batches)
        if not batch_list:
            raise ValueError("fit() needs at least one minibatch")
        kl_weight = self.config.kl_weight
        if kl_weight is None:
            total_examples = sum(x.shape[0] for x, _ in batch_list)
            kl_weight = 1.0 / max(total_examples, 1)
        steps_per_epoch = len(batch_list)
        total = steps_per_epoch * epochs  # read by the auto-snapshot hook
        if resume:
            # schedule-absolute bookkeeping: the history up to the checkpoint
            # belongs to this same schedule, so skip what is already recorded
            start_step, base_step, base_epoch = self.step_count, 0, 0
        else:
            # a fresh schedule on top of whatever the trainer did before
            start_step = 0
            base_step = self.step_count
            base_epoch = len(self.history.epoch_losses)
        global_step = 0
        for epoch in range(epochs):
            for x, y in batch_list:
                if global_step >= start_step:
                    self.train_step(x, y, kl_weight=kl_weight)
                    if checkpoint_callback is not None:
                        checkpoint_callback(self, global_step)
                global_step += 1
            # Epoch aggregates come from the per-step records, which a
            # checkpoint preserves: a resumed run reports the same epoch
            # statistics as the uninterrupted one.
            begin = base_step + epoch * steps_per_epoch
            end = begin + steps_per_epoch
            epoch_slot = base_epoch + epoch
            if len(self.history.epoch_losses) <= epoch_slot:
                self.history.epoch_losses.append(
                    float(np.mean(self.history.losses[begin:end]))
                )
                self.history.epoch_accuracies.append(
                    float(np.mean(self.history.train_accuracies[begin:end]))
                )
            if (
                validation is not None
                and len(self.history.validation_accuracies) <= epoch_slot
            ):
                val_acc = self.evaluate(*validation)
                self.history.validation_accuracies.append(val_acc)
            if verbose:
                message = (
                    f"[{type(self).__name__}] epoch {epoch + 1}/{epochs} "
                    f"loss={self.history.epoch_losses[-1]:.4f} "
                    f"acc={self.history.epoch_accuracies[-1]:.3f}"
                )
                if validation is not None:
                    message += f" val_acc={self.history.validation_accuracies[-1]:.3f}"
                print(message)
        return self.history

    def evaluate(
        self, x: np.ndarray, y: np.ndarray, n_samples: int | None = None
    ) -> float:
        """Monte-Carlo predictive accuracy on held-out data."""
        result = mc_predict(
            self.model,
            x,
            n_samples=n_samples or self.config.n_samples,
            seed=self.config.seed + 7919,
            grng_stride=self.config.grng_stride,
            lfsr_bits=self.config.lfsr_bits,
        )
        return accuracy(result.mean_probabilities, y)

    # ------------------------------------------------------------------
    # traffic accounting
    # ------------------------------------------------------------------
    def epsilon_offchip_bytes(self) -> int:
        """Bytes of epsilon traffic to/from backing storage under this policy."""
        return self.bank.total_offchip_epsilon_bytes()

    def epsilon_footprint_bytes(self) -> int:
        """Peak memory footprint attributable to epsilons under this policy."""
        return self.bank.total_epsilon_footprint_bytes()


class BaselineBNNTrainer(BNNTrainer):
    """Vanilla BNN training: epsilons are stored between FW and BW stages."""

    policy: StreamPolicy = "stored"


class ShiftBNNTrainer(BNNTrainer):
    """Shift-BNN training: epsilons are regenerated by reversed LFSR shifting."""

    policy: StreamPolicy = "reversible"
