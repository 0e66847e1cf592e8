"""Elastic, delta-shipping distributed training with deterministic recovery.

This package shards one Bayes-by-Backprop ``train_step`` across an elastic
pool of worker processes, in 2-D: along the Monte-Carlo **sample** axis and
(optionally) along the minibatch **row** axis
(:func:`~repro.distrib.plan.plan_step`).  Each worker rebuilds a
bit-identical model replica from a :class:`~repro.models.zoo.ReplicaSpec`,
owns exactly its shard's generator rows (rewound onto the coordinator's
canonical states every step, so epsilon bits never depend on worker state),
runs the batched FW/BW/GC engine on its dispatch unit -- one per worker per
step, each sample's epsilons drawn once -- and hands **per-sample** gradient
contributions back through pages it shares with the coordinator
(:class:`~repro.distrib.worker.ResultArena`); the coordinator reduces them
in canonical ``(sample, row-block)`` order, which keeps the trajectory
bit-for-bit identical to the single-process run at any worker count, under
any join/leave schedule -- the paper's Fig. 9 property, extended across
processes.

Unit state travels as content-fingerprinted **deltas**
(:mod:`repro.distrib.delta`): workers cache the tensors they last applied,
the coordinator mirrors each cache and ships only what changed plus the
expected post-apply fingerprint, and any mismatch triggers an automatic
full resync -- a pure transport optimisation, invisible to the bits.
Workers may join or leave between steps (:meth:`DistributedBackend.
request_join` / :meth:`~DistributedBackend.request_leave`) and crash
mid-step: a dead worker's unit is re-executed from its spec on a
surviving or respawned worker (never dropped), and the full checkpoint
layer in :mod:`repro.bnn.serialization` captures everything needed to
resume an interrupted run onto the exact uninterrupted trajectory.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .coordinator import DistributedBackend, DistributedStepError
from .delta import (
    DeltaCache,
    DeltaEncoder,
    DeltaProtocolError,
    DeltaResyncRequired,
)
from .plan import ShardPlan, StepPlan, plan_row_blocks, plan_shards, plan_step
from .reduce import DistributedReductionError, reduce_step_outputs
from .respawn import RespawnBudget, RespawnPolicy
from .worker import ShardEngine

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..bnn.trainer import BNNTrainer, TrainerConfig
    from ..core.checkpoint import StreamPolicy
    from ..models.specs import ModelSpec

__all__ = [
    "DistributedBackend",
    "DistributedStepError",
    "DistributedReductionError",
    "DeltaCache",
    "DeltaEncoder",
    "DeltaProtocolError",
    "DeltaResyncRequired",
    "RespawnPolicy",
    "RespawnBudget",
    "ShardEngine",
    "ShardPlan",
    "StepPlan",
    "plan_shards",
    "plan_row_blocks",
    "plan_step",
    "reduce_step_outputs",
    "distributed_trainer",
]


def distributed_trainer(
    spec: "ModelSpec",
    config: "TrainerConfig | None" = None,
    n_workers: int = 2,
    n_shards: int | None = None,
    n_row_blocks: int = 1,
    delta_shipping: bool = True,
    policy: "StreamPolicy | None" = None,
    build_seed: int = 0,
    respawn: RespawnPolicy | None = RespawnPolicy(),
    start_method: str | None = None,
) -> "BNNTrainer":
    """Build a :class:`~repro.bnn.trainer.BNNTrainer` on a distributed backend.

    The model is built from ``spec`` (seeded with ``build_seed``) and every
    worker rebuilds the same structure from the shared
    :class:`~repro.models.zoo.ReplicaSpec`; because the coordinator ships
    the current parameter values (as content-addressed deltas) with every
    step, the replicas track the coordinator's trajectory exactly.
    ``n_row_blocks`` is part of the canonical trajectory (hold it fixed per
    fit); ``delta_shipping=False`` ships every unit full, for baselines.
    Close the trainer (it is a context manager) to shut the worker pool
    down.
    """
    from ..bnn.trainer import BNNTrainer
    from ..models.zoo import ReplicaSpec

    model = spec.build_bayesian(seed=build_seed)
    backend = DistributedBackend(
        ReplicaSpec.structural(spec, build_seed=build_seed),
        n_workers=n_workers,
        n_shards=n_shards,
        n_row_blocks=n_row_blocks,
        delta_shipping=delta_shipping,
        respawn=respawn,
        start_method=start_method,
    )
    return BNNTrainer(model, config, policy=policy, backend=backend)
