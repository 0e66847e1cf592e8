"""Canonical-order gradient reduction for distributed training.

The single-process GC stage accumulates every parameter's gradient one
Monte-Carlo sample at a time, left to right: ``grad = ((c0 + c1) + c2) + ...``
Float addition is not associative, so shard-level *partial sums* cannot be
combined into that value bit-exactly.  The reducer therefore consumes the
**per-sample contribution stacks** the task workers captured on their
gradient tapes and replays the additions in canonical order across tasks --
the identical sequence of float operations whatever the worker count or the
shard partition.

With a 2-D :class:`~repro.distrib.plan.StepPlan` the canonical order is
``(sample, row-block)``: for each sample in ``0 .. S-1``, each of its row
blocks' contributions in block order.  The block structure itself is part
of the step's canonical semantics (splitting a float sum over rows changes
its bits), so the trajectory is a function of the plan's ``row_blocks`` --
and with one block it is exactly the classic single-process trajectory.
The same canonical-order replay reduces the scalar loss terms; predictive
probabilities accumulate per row, where blocks never interleave, so they
equal the single-process values at *any* block structure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from .plan import ShardPlan, StepPlan

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..bnn.model import BayesianNetwork

__all__ = ["DistributedReductionError", "reduce_step_outputs"]


class DistributedReductionError(RuntimeError):
    """A task result does not fit the step's plan or the model's parameters."""


def _as_step_plan(
    plan: "ShardPlan | StepPlan", task_results: Sequence[dict]
) -> StepPlan:
    """Promote a legacy sample-axis plan to a single-row-block step plan."""
    if isinstance(plan, StepPlan):
        return plan
    if not task_results:
        raise DistributedReductionError("no task results to reduce")
    n_rows = task_results[0]["probabilities"].shape[1]
    return StepPlan(samples=plan, n_rows=n_rows, row_blocks=((0, n_rows),))


def _validate(
    model: "BayesianNetwork", plan: StepPlan, task_results: Sequence[dict]
) -> None:
    if len(task_results) != plan.n_tasks:
        raise DistributedReductionError(
            f"{len(task_results)} task results for {plan.n_tasks} plan tasks"
        )
    shapes = {param.name: param.value.shape for param in model.parameters()}
    names = set(shapes)
    for (shard_index, block_index), result in zip(plan.tasks, task_results):
        shard = plan.samples.shards[shard_index]
        if tuple(result["shard"]) != shard:
            raise DistributedReductionError(
                f"result shard {result['shard']} does not match plan shard {shard}"
            )
        if result.get("row_block", 0) != block_index:
            raise DistributedReductionError(
                f"result row block {result.get('row_block', 0)} does not match "
                f"plan block {block_index}"
            )
        contributions = result["contributions"]
        missing = sorted(names - set(contributions))
        unexpected = sorted(set(contributions) - names)
        if missing or unexpected:
            raise DistributedReductionError(
                f"shard {shard} contributions do not match the model: "
                f"missing={missing}, unexpected={unexpected}"
            )
        for name, stack in contributions.items():
            if stack.shape != (len(shard),) + shapes[name]:
                raise DistributedReductionError(
                    f"shard {shard} stack for {name!r} has shape {stack.shape}, "
                    f"expected {(len(shard),) + shapes[name]}"
                )
        if len(result["nlls"]) != len(shard):
            raise DistributedReductionError(
                f"shard {shard} returned {len(result['nlls'])} loss terms"
            )
        start, stop = plan.row_blocks[block_index]
        if result["probabilities"].shape[1] != stop - start:
            raise DistributedReductionError(
                f"shard {shard} block {block_index} probabilities cover "
                f"{result['probabilities'].shape[1]} rows, expected {stop - start}"
            )


def reduce_step_outputs(
    model: "BayesianNetwork",
    plan: "ShardPlan | StepPlan",
    task_results: Sequence[dict],
) -> tuple[float, np.ndarray]:
    """Reduce one step's task results into the coordinator's model.

    ``task_results`` follow ``plan.tasks`` order (shard-major); a legacy
    sample-axis :class:`~repro.distrib.plan.ShardPlan` is accepted as a
    single-row-block step plan.  Zeroes the model's gradients, then
    accumulates every parameter's per-sample contributions and the
    per-sample loss terms in canonical ``(sample, row-block)`` order, and
    the predictive probabilities per row.  Returns ``(total_nll,
    correct_probs)`` exactly as the single-process pipelines produce them
    (for any plan with one row block; for blocked plans, exactly as the
    canonical blocked trajectory defines them).
    """
    plan = _as_step_plan(plan, task_results)
    _validate(model, plan, task_results)
    owners = [
        [plan.task_of(s, b) for b in range(plan.n_row_blocks)]
        for s in range(plan.n_samples)
    ]
    model.zero_grad()
    for param in model.parameters():
        grad = param.grad
        for per_block in owners:
            for task_index, local_index in per_block:
                grad += task_results[task_index]["contributions"][param.name][
                    local_index
                ]
    total_nll = 0.0
    n_classes = task_results[0]["probabilities"].shape[2]
    correct_probs = np.zeros((plan.n_rows, n_classes))
    for per_block in owners:
        for block_index, (task_index, local_index) in enumerate(per_block):
            result = task_results[task_index]
            total_nll += result["nlls"][local_index]
            start, stop = plan.row_blocks[block_index]
            correct_probs[start:stop] += result["probabilities"][local_index]
    return total_nll, correct_probs
