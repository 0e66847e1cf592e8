"""Shard execution engine and worker-process loop for distributed training.

A :class:`ShardEngine` executes one **dispatch unit** per call: everything
one worker does in one step -- a contiguous run of the plan's sample shards
crossed with *every* row block of the minibatch.  The step's
:class:`~repro.distrib.plan.StepPlan` grid of ``(shard, row-block)`` cells
still defines the canonical reduce order (trajectory); how cells are grouped
into units is placement and never moves a bit.  The engine is deliberately
**stateless between steps**: everything that determines the unit's bits
arrives in the payload -- the current parameter values and minibatch rows
(resolved through the content-addressed
:class:`~repro.distrib.delta.DeltaCache`, a pure transport optimisation),
the samples' canonical generator snapshots and the loss weights.  The
engine's model replica, delta cache and cached banks are performance caches
only; re-executing a payload on a freshly-built engine (e.g. on a respawned
worker after a crash) produces byte-identical results, which is what makes
the coordinator's retry-on-death recovery deterministic.

Bit-exactness contract (the Fig. 9 property, extended across processes):

* The unit's :class:`~repro.core.checkpoint.StreamBank` hosts exactly the
  unit's samples, seeded as the canonical samples would be
  (``sample_indices=samples``) and rewound onto the coordinator's canonical
  generator states before the pass -- epsilon bits never depend on which
  worker runs the unit, or on anything the worker did earlier.
* **Each sample's epsilons are drawn once per step.**  Weight epsilons do
  not depend on minibatch rows, so the unit's first row block draws (one
  forward generation and one retrieval per layer, exactly the
  single-process traffic accounting) and the remaining row blocks replay
  those draws (:class:`_RowBlockReplay`).  Row blocks stay separate
  FW/BW/GC passes: their float sums are trajectory-defining.
* The per-sample forward/backward arithmetic is shard-size independent by
  construction (per-sample matmuls / im2col; element-wise ops broadcast per
  row), so sample ``s`` computes the same bits whatever it is folded with.
* Gradients are not accumulated locally: a
  :class:`~repro.bnn.grad_tape.SampleGradientTape` captures every
  parameter's per-sample contribution stack, and the coordinator replays
  the additions in canonical ``(sample, row-block)`` order across units.
  KL/prior (and entropy) terms are row-count independent, so they enter
  through row block 0 only (other blocks run with ``kl_weight=0``).

The stacks are the step's largest payload by far (``S x n_row_blocks x P``
floats against ``P`` outbound), so between processes they do not ride the
result pipe: a forked worker writes them into its :class:`ResultArena`,
pages it shares with the coordinator, and answers with a message of a few
kilobytes.
"""

from __future__ import annotations

import mmap
import os
import traceback
from collections import deque
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.checkpoint import StreamBank
from ..core.streams import StreamOrderError
from ..nn.losses import loss_probabilities
from ..nn.quantization import QuantizationConfig
from ..bnn.grad_tape import SampleGradientTape
from .delta import DeltaCache, DeltaResyncRequired
from .respawn import next_task

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..bnn.model import BayesianNetwork
    from ..core.sampler import BatchedWeightSampler, SampledWeightsBatch
    from ..models.zoo import ReplicaSpec
    from ..nn.losses import Loss

__all__ = ["ResultArena", "ShardEngine"]

#: Slot-name prefixes of the delta-shipped state (see ``distrib.delta``).
PARAM_SLOT_PREFIX = "param/"

#: Region offsets inside a :class:`ResultArena` are cache-line aligned.
_ARENA_ALIGN = 64


def data_slots(block_index: int) -> tuple[str, str]:
    """The ``(x, y)`` slot names of one row block's minibatch data."""
    return f"data/x/{block_index}", f"data/y/{block_index}"


class ResultArena:
    """One worker's shared pages for the step's per-sample gradient stacks.

    An anonymous shared mapping (``mmap.mmap(-1, n)``) that the coordinator
    creates *before* forking the worker, so both map the same pages with no
    name, no file descriptor and no resource tracker -- nothing to leak and
    nothing to clean up beyond :meth:`close`.  It is laid out for the whole
    step grid, one region per parameter shaped ``(n_row_blocks, n_samples,
    *shape)``: every ``(parameter, row block, sample)`` has exactly one slot,
    so two units queued on one worker (crash re-dispatch) cannot overwrite
    each other, and neither side ships or validates offsets -- both compute
    the layout from the same replica structure.  Only touched pages cost
    memory.
    """

    def __init__(
        self,
        parameters: Sequence[tuple[str, np.dtype, tuple[int, ...]]],
        n_row_blocks: int,
        n_samples: int,
    ) -> None:
        self.n_row_blocks = n_row_blocks
        self.n_samples = n_samples
        layout = []
        size = 0
        for name, dtype, shape in parameters:
            shape = (n_row_blocks, n_samples) + tuple(shape)
            layout.append((name, dtype, shape, size))
            nbytes = np.dtype(dtype).itemsize * int(np.prod(shape))
            size += -(-nbytes // _ARENA_ALIGN) * _ARENA_ALIGN
        self._map: mmap.mmap | None = mmap.mmap(-1, max(size, 1))
        self._regions = {
            name: np.frombuffer(
                self._map, dtype=dtype, count=int(np.prod(shape)), offset=offset
            ).reshape(shape)
            for name, dtype, shape, offset in layout
        }

    @property
    def closed(self) -> bool:
        return self._map is None

    def holds(self, n_row_blocks: int, samples: Sequence[int]) -> bool:
        """Whether a unit's cells all have a slot (a contiguous, in-range run)."""
        return (
            n_row_blocks <= self.n_row_blocks
            and samples[-1] < self.n_samples
            and tuple(samples) == tuple(range(samples[0], samples[-1] + 1))
        )

    def write(
        self, block_index: int, samples: Sequence[int], name: str, stack: np.ndarray
    ) -> np.ndarray:
        """Copy one parameter's ``(len(samples), *shape)`` stack into its slot."""
        if name not in self._regions:
            raise ValueError(f"no arena region for parameter {name!r}")
        slot = self._regions[name][block_index, samples[0] : samples[-1] + 1]
        if stack.shape != slot.shape or stack.dtype != slot.dtype:
            raise ValueError(
                f"stack for {name!r} is {stack.dtype}{stack.shape}, its arena "
                f"slot {slot.dtype}{slot.shape}"
            )
        slot[...] = stack
        return slot

    def cell(self, block_index: int, samples: Sequence[int]) -> dict[str, np.ndarray]:
        """In-place views of one ``(shard, row-block)`` cell's stacks."""
        return {
            name: region[block_index, samples[0] : samples[-1] + 1]
            for name, region in self._regions.items()
        }

    def close(self) -> None:
        """Unmap the pages (idempotent)."""
        self._regions = {}
        arena, self._map = self._map, None
        if arena is None:
            return
        try:
            arena.close()
        except BufferError:
            # a cell view is still referenced -- the traceback of a failed
            # step keeps its frames alive -- and pins the mapping; it is
            # unmapped when the last such view is collected
            pass


class _ArenaTape(SampleGradientTape):
    """Tape that files every stack into its arena slot as it is recorded.

    The engine then never holds a whole row block's stacks beside the
    arena: each one is released as soon as the layer that built it returns.
    """

    def __init__(
        self, arena: ResultArena, block_index: int, samples: Sequence[int]
    ) -> None:
        super().__init__()
        self._slot = (arena, block_index, samples)

    def record(self, name: str, stack: np.ndarray) -> None:
        arena, block_index, samples = self._slot
        stack = np.asarray(stack)
        super().record(name, arena.write(block_index, samples, name, stack))


class _RowBlockReplay:
    """Sampler proxy: the unit's first row block draws, the others replay.

    Row block 0 delegates to the bank's
    :class:`~repro.core.sampler.BatchedWeightSampler` -- one forward
    generation and one retrieval per layer, so ``StreamUsage`` is the
    single-process accounting by construction -- and keeps the
    ``SampledWeightsBatch`` objects it hands out; every later block gets the
    same objects back in the same order.  What is kept is the resident set
    the batched sampler already holds for an outstanding span (its
    prefetched superblock and whole-span retrieval values), held until the
    last block has consumed it: the forward records drain during the last
    block's forward pass, the backward records during its backward pass.
    """

    def __init__(self, sampler: "BatchedWeightSampler", n_blocks: int) -> None:
        self._sampler = sampler
        self._last_block = n_blocks - 1
        self._block = 0
        self._forward: deque = deque()
        self._backward: deque = deque()
        self.n_samples = sampler.n_samples

    def begin_block(self, block_index: int) -> None:
        self._block = block_index

    def prefetch_forward(self, counts: Sequence[int]) -> None:
        if self._block == 0:
            self._sampler.prefetch_forward(counts)

    def _serve(self, records: deque, draw, mu, sigma) -> "SampledWeightsBatch":
        if self._block == 0:
            sampled = draw(mu, sigma)
        else:
            sampled = records.popleft()
            if sampled.weights.shape[1:] != mu.shape:
                raise StreamOrderError(
                    f"row block {self._block} asked for a {mu.shape} block where "
                    f"block 0 drew {sampled.weights.shape[1:]}"
                )
        if self._block < self._last_block:
            records.append(sampled)  # still owed to a later row block
        return sampled

    def sample(self, mu: np.ndarray, sigma: np.ndarray) -> "SampledWeightsBatch":
        return self._serve(self._forward, self._sampler.sample, mu, sigma)

    def resample(self, mu: np.ndarray, sigma: np.ndarray) -> "SampledWeightsBatch":
        return self._serve(self._backward, self._sampler.resample, mu, sigma)


class ShardEngine:
    """Executes dispatch units against a private model replica.

    One engine lives in each worker process (and one serves the inline
    ``n_workers=0`` path on the coordinator).  Banks are cached per
    ``(samples, bank-config)`` key; their generator registers are overwritten
    from the payload's canonical snapshots at every unit, so the cache can
    never leak state into the results.  The delta cache resolves the
    payload's content-addressed state message; on any mismatch it raises
    :class:`~repro.distrib.delta.DeltaResyncRequired`, which the worker
    loop reports for a coordinator-driven full resync.  ``arena`` is the
    worker's :class:`ResultArena`; without one (inline, or a start method
    that cannot inherit the mapping) the stacks are returned as arrays.
    """

    def __init__(
        self,
        model: "BayesianNetwork",
        loss: "Loss",
        arena: ResultArena | None = None,
    ) -> None:
        self.model = model
        self.loss = loss
        self.arena = arena
        self.delta_cache = DeltaCache()
        self._parameters = {param.name: param for param in model.parameters()}
        self._banks: dict[tuple, StreamBank] = {}
        self._applied_quantization: object = None

    # ------------------------------------------------------------------
    def _bank_for(self, samples: tuple[int, ...], bank_cfg: dict) -> StreamBank:
        key = (
            samples,
            bank_cfg["policy"],
            bank_cfg["seed"],
            bank_cfg["lfsr_bits"],
            bank_cfg["grng_stride"],
            bank_cfg["lockstep"],
        )
        bank = self._banks.get(key)
        if bank is None:
            bank = StreamBank(
                n_samples=len(samples),
                policy=bank_cfg["policy"],
                seed=bank_cfg["seed"],
                lfsr_bits=bank_cfg["lfsr_bits"],
                grng_stride=bank_cfg["grng_stride"],
                lockstep=bank_cfg["lockstep"],
                sample_indices=samples,
            )
            self._banks[key] = bank
        return bank

    def _load_parameters(self, values: dict[str, np.ndarray]) -> None:
        if set(values) != set(self._parameters):
            missing = sorted(set(self._parameters) - set(values))
            unexpected = sorted(set(values) - set(self._parameters))
            raise ValueError(
                f"step parameters do not match the replica: missing={missing}, "
                f"unexpected={unexpected}"
            )
        for name, value in values.items():
            parameter = self._parameters[name]
            if parameter.value.shape != value.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: step {value.shape}, "
                    f"replica {parameter.value.shape}"
                )
            parameter.value[...] = value

    def _apply_quantization(self, quantization_bits: int | None) -> None:
        if quantization_bits == self._applied_quantization:
            return
        if quantization_bits in (8, 16):
            config = QuantizationConfig.from_word_length(quantization_bits)
        else:
            config = QuantizationConfig.full_precision()
        self.model.quantization = config
        self._applied_quantization = quantization_bits

    # ------------------------------------------------------------------
    def run_step(self, payload: dict) -> dict:
        """Execute one dispatch unit; returns the wire-format result payload.

        The payload names the unit's ``shards`` (a contiguous run of the
        plan's sample shards) and the step's ``row_blocks``; its ``state``
        message resolves to the parameters and every row block's data.
        Parameters are loaded, the bank rewound and the epsilons drawn once;
        each row block then runs as its own FW/BW/GC pass over those draws.

        The result lists one entry per plan cell in ``cells`` (shard-major,
        the plan's task order): the cell's per-sample loss terms, predictive
        probabilities and gradient contribution stacks in the shard's local
        sample order -- ``None`` for the stacks when they were written into
        the arena instead -- plus the unit's post-step generator
        ``snapshots`` and traffic-counter ``usage`` deltas, one per sample.
        """
        shards = [tuple(shard) for shard in payload["shards"]]
        samples = tuple(index for shard in shards for index in shard)
        row_blocks = payload["row_blocks"]
        total_rows: int = payload["total_rows"]
        row_normalised = len(row_blocks) > 1
        resolved = self.delta_cache.apply(payload["state"])
        self._load_parameters(
            {
                slot[len(PARAM_SLOT_PREFIX):]: array
                for slot, array in resolved.items()
                if slot.startswith(PARAM_SLOT_PREFIX)
            }
        )
        self._apply_quantization(payload.get("quantization_bits"))
        bank = self._bank_for(samples, payload["bank"])
        # adopt the coordinator's canonical generator states and zero the
        # traffic counters: everything shipped back is a pure per-step delta
        bank.load_generator_states(payload["snapshots"])
        bank.reset_usage()
        arena = self.arena
        if arena is not None and not arena.holds(len(row_blocks), samples):
            arena = None  # a grid the arena was not laid out for rides the queue

        model = self.model
        model.train()
        model.zero_grad()
        sampler = _RowBlockReplay(bank.batched_sampler(), len(row_blocks))
        blocks = []
        for block_index in range(len(row_blocks)):
            x_slot, y_slot = data_slots(block_index)
            x, y = resolved[x_slot], resolved[y_slot]
            # KL/prior/entropy terms are row-count independent: they enter
            # exactly once per sample, through row block 0
            first_block = block_index == 0
            sampler.begin_block(block_index)
            if arena is None:
                tape = SampleGradientTape()
            else:
                tape = _ArenaTape(arena, block_index, samples)
            with tape:
                logits = model.forward_samples(x, sampler)
                nlls: list[float] = []
                probabilities = np.empty_like(logits)
                grad_logits = np.empty_like(logits)
                for local_index in range(len(samples)):
                    if row_normalised:
                        nlls.append(
                            self.loss.forward_rows(logits[local_index], y, total_rows)
                        )
                    else:
                        nlls.append(self.loss.forward(logits[local_index], y))
                    probabilities[local_index] = loss_probabilities(
                        self.loss, logits[local_index]
                    )
                    if row_normalised:
                        grad_logits[local_index] = self.loss.backward_rows()
                    else:
                        grad_logits[local_index] = self.loss.backward()
                model.backward_samples(
                    grad_logits,
                    sampler,
                    kl_weight=payload["kl_weight"] if first_block else 0.0,
                    include_entropy_term=(
                        payload["include_entropy_term"] if first_block else False
                    ),
                )
            missing = set(self._parameters) - set(tape.contributions)
            if missing:  # pragma: no cover - layer code failing its contract
                raise RuntimeError(
                    f"no per-sample contributions captured for {sorted(missing)}"
                )
            stacks = tape.contributions if arena is None else None
            blocks.append((stacks, nlls, probabilities))
        bank.finish_iteration()

        cells = []
        offset = 0
        for shard in shards:
            local = slice(offset, offset + len(shard))
            offset += len(shard)
            for block_index, (stacks, nlls, probabilities) in enumerate(blocks):
                cells.append(
                    {
                        "shard": shard,
                        "row_block": block_index,
                        "contributions": None
                        if stacks is None
                        else {name: stack[local] for name, stack in stacks.items()},
                        "nlls": nlls[local],
                        "probabilities": probabilities[local],
                    }
                )
        return {
            "cells": cells,
            "snapshots": bank.snapshots(),
            "usage": bank.usage_state_dicts(),
        }


def _worker_main(
    rank: int,
    replica: "ReplicaSpec",
    loss: "Loss",
    task_queue,
    result_queue,
    arena: ResultArena | None,
) -> None:
    """Training-worker process body: build the replica, then serve units.

    The wire protocol mirrors the serving pool's: a ``("ready", rank, None)``
    handshake after construction, then ``("done" | "error", task_id,
    payload)`` per unit, with exceptions crossing the process boundary as
    formatted tracebacks.  A ``done`` payload names the sending ``rank``:
    the coordinator reads the stacks out of *that* worker's arena.  A
    delta-cache mismatch is not an error: the worker answers ``("resync",
    task_id, {"rank": ...})`` and the coordinator re-ships the unit full.  A
    ``None`` task shuts the worker down, and so does losing the coordinator
    (:func:`~repro.distrib.respawn.next_task`).
    """
    parent_pid = os.getppid()
    try:
        engine = ShardEngine(replica.build(), loss, arena)
        result_queue.put(("ready", rank, None))
    except BaseException:  # pragma: no cover - defensive startup reporting
        result_queue.put(("fatal", rank, traceback.format_exc()))
        return
    while True:
        task = next_task(task_queue, result_queue, parent_pid)
        if task is None:
            break
        task_id, payload = task
        if payload.get("test_crash"):
            # fault-injection hook for the recovery tests: die exactly the
            # way a segfaulting or OOM-killed worker would -- no cleanup,
            # no result message
            os._exit(1)
        try:
            result = engine.run_step(payload)
            result["rank"] = rank
            result_queue.put(("done", task_id, result))
        except DeltaResyncRequired as exc:
            result_queue.put(
                ("resync", task_id, {"rank": rank, "detail": str(exc)})
            )
        except BaseException:
            result_queue.put(("error", task_id, traceback.format_exc()))
