"""Unit tests for the distributed-training building blocks.

Covers the shard planner (1-D and the 2-D step plan), the delta-shipping
transport (cache/encoder lockstep, wire-format versioning, resync
triggers), the row-decomposed losses, the respawn budget, the per-sample
gradient tape (including the trainable-deterministic-layer capture path),
the canonical order reducer's validation, the shard-aware ``StreamBank``
seeding, the per-worker result arena and the size of a unit's ``done``
message.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.bnn import BNNTrainer, SampleGradientTape, TrainerConfig
from repro.bnn.grad_tape import active_tape
from repro.bnn.serialization import state_fingerprint, tensor_fingerprint
from repro.core.checkpoint import StreamBank
from repro.core.streams import StreamUsage
from repro.distrib import (
    DeltaCache,
    DeltaEncoder,
    DeltaProtocolError,
    DeltaResyncRequired,
    DistributedReductionError,
    RespawnBudget,
    RespawnPolicy,
    ShardPlan,
    StepPlan,
    plan_row_blocks,
    plan_shards,
    plan_step,
    reduce_step_outputs,
)
from repro.distrib.coordinator import DistributedBackend, DistributedStepError
from repro.distrib.worker import ResultArena, ShardEngine
from repro.models import DenseSpec, ModelSpec, ReplicaSpec, get_model


class TestShardPlanner:
    def test_even_partition(self):
        plan = plan_shards(8, 4)
        assert plan.shards == ((0, 1), (2, 3), (4, 5), (6, 7))

    def test_uneven_partition_front_loads_extras(self):
        plan = plan_shards(7, 3)
        assert plan.shards == ((0, 1, 2), (3, 4), (5, 6))

    def test_more_shards_than_samples_drops_empties(self):
        plan = plan_shards(2, 5)
        assert plan.shards == ((0,), (1,))

    def test_single_shard(self):
        assert plan_shards(4, 1).shards == ((0, 1, 2, 3),)

    def test_owner_lookup(self):
        plan = plan_shards(5, 2)
        assert plan.owner_of(0) == (0, 0)
        assert plan.owner_of(3) == (1, 0)
        assert plan.owner_of(4) == (1, 1)
        with pytest.raises(KeyError):
            plan.owner_of(5)

    def test_invalid_plans_rejected(self):
        with pytest.raises(ValueError):
            plan_shards(0, 1)
        with pytest.raises(ValueError):
            plan_shards(4, 0)
        with pytest.raises(ValueError):
            ShardPlan(n_samples=3, shards=((0, 1),))  # sample 2 unowned
        with pytest.raises(ValueError):
            ShardPlan(n_samples=2, shards=((0, 1), ()))


class TestStepPlanner:
    def test_row_blocks_balanced_and_contiguous(self):
        assert plan_row_blocks(10, 3) == ((0, 4), (4, 7), (7, 10))
        assert plan_row_blocks(4, 1) == ((0, 4),)

    def test_more_blocks_than_rows_drops_empties(self):
        assert plan_row_blocks(2, 5) == ((0, 1), (1, 2))

    def test_invalid_blocking_rejected(self):
        with pytest.raises(ValueError):
            plan_row_blocks(0, 1)
        with pytest.raises(ValueError):
            plan_row_blocks(4, 0)
        with pytest.raises(ValueError):
            StepPlan(
                samples=plan_shards(2, 1), n_rows=4, row_blocks=((0, 2),)
            )  # rows 2..3 uncovered
        with pytest.raises(ValueError):
            StepPlan(
                samples=plan_shards(2, 1),
                n_rows=4,
                row_blocks=((0, 2), (3, 4)),  # gap at row 2
            )

    def test_task_grid_shard_major(self):
        plan = plan_step(n_samples=4, n_shards=2, n_rows=8, n_row_blocks=2)
        assert plan.n_tasks == 4
        assert plan.tasks == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_task_of_resolves_cells(self):
        plan = plan_step(n_samples=5, n_shards=2, n_rows=6, n_row_blocks=3)
        # sample 3 lives in shard 1 at local index 0
        assert plan.task_of(3, 2) == (1 * 3 + 2, 0)
        with pytest.raises(KeyError):
            plan.task_of(0, 3)

    def test_single_block_plan_is_the_legacy_plan(self):
        plan = plan_step(n_samples=4, n_shards=2, n_rows=16)
        assert plan.n_row_blocks == 1
        assert plan.samples == plan_shards(4, 2)
        assert plan.row_blocks == ((0, 16),)


class TestContentFingerprints:
    def test_fingerprint_covers_dtype_shape_and_bytes(self):
        a = np.arange(6, dtype=np.float64)
        assert tensor_fingerprint(a) == tensor_fingerprint(a.copy())
        assert tensor_fingerprint(a) != tensor_fingerprint(a.reshape(2, 3))
        assert tensor_fingerprint(a) != tensor_fingerprint(a.astype(np.float32))
        b = a.copy()
        b[0] += 1.0
        assert tensor_fingerprint(a) != tensor_fingerprint(b)

    def test_fingerprint_is_layout_independent(self):
        a = np.arange(12, dtype=np.float64).reshape(3, 4)
        assert tensor_fingerprint(a) == tensor_fingerprint(
            np.asfortranarray(a)
        )

    def test_state_fingerprint_is_order_independent(self):
        entries = [("param/w", "aa"), ("data/x/0", "bb")]
        assert state_fingerprint(entries) == state_fingerprint(entries[::-1])
        assert state_fingerprint(entries) != state_fingerprint(entries[:1])


class TestDeltaShipping:
    def _slots(self, rng, n=3):
        return {
            f"param/p{i}": rng.normal(size=(4, 4)) for i in range(n)
        }

    def test_cold_encoder_ships_full_and_cache_applies_it(self):
        rng = np.random.default_rng(0)
        slots = self._slots(rng)
        encoder, cache = DeltaEncoder(), DeltaCache()
        encoded = encoder.encode(slots)
        assert encoded.message["kind"] == "full"
        assert encoded.shipped_bytes == encoded.total_bytes > 0
        resolved = cache.apply(encoded.message)
        assert set(resolved) == set(slots)
        for slot, array in slots.items():
            assert np.array_equal(resolved[slot], array)

    def test_unchanged_tensors_ship_as_references(self):
        rng = np.random.default_rng(1)
        slots = self._slots(rng)
        encoder, cache = DeltaEncoder(), DeltaCache()
        cache.apply(encoder.encode(slots).message)
        slots["param/p1"] = rng.normal(size=(4, 4))  # one tensor changes
        encoded = encoder.encode(slots)
        assert encoded.message["kind"] == "delta"
        one_tensor = slots["param/p1"].nbytes
        assert encoded.shipped_bytes == one_tensor
        assert encoded.total_bytes == 3 * one_tensor
        resolved = cache.apply(encoded.message)
        for slot, array in slots.items():
            assert np.array_equal(resolved[slot], array)

    def test_cache_miss_raises_resync_and_full_reship_recovers(self):
        rng = np.random.default_rng(2)
        slots = self._slots(rng)
        encoder, cache = DeltaEncoder(), DeltaCache()
        cache.apply(encoder.encode(slots).message)
        cache2 = DeltaCache()  # a fresh worker that never saw the full message
        delta = encoder.encode(slots)
        assert delta.message["kind"] == "delta"
        with pytest.raises(DeltaResyncRequired):
            cache2.apply(delta.message)
        encoder.mark_cold()
        full = encoder.encode(slots)
        assert full.message["kind"] == "full"
        resolved = cache2.apply(full.message)
        assert set(resolved) == set(slots)

    def test_corrupted_tensor_fingerprint_raises_resync(self):
        rng = np.random.default_rng(3)
        slots = self._slots(rng)
        message = DeltaEncoder().encode(slots).message
        slot, fingerprint, _ = message["entries"][0]
        message["entries"][0] = (slot, fingerprint, rng.normal(size=(4, 4)))
        with pytest.raises(DeltaResyncRequired):
            DeltaCache().apply(message)

    def test_corrupted_state_fingerprint_raises_resync(self):
        rng = np.random.default_rng(4)
        message = DeltaEncoder().encode(self._slots(rng)).message
        message["state_fp"] = "0" * 64
        with pytest.raises(DeltaResyncRequired):
            DeltaCache().apply(message)

    def test_wire_version_mismatch_is_a_protocol_error(self):
        rng = np.random.default_rng(5)
        message = DeltaEncoder().encode(self._slots(rng)).message
        message["version"] = 999
        with pytest.raises(DeltaProtocolError):
            DeltaCache().apply(message)

    def test_lru_eviction_stays_in_lockstep(self):
        """Mirror and cache evict identically, so references never dangle."""
        rng = np.random.default_rng(6)
        encoder = DeltaEncoder(capacity=4)
        cache = DeltaCache()  # enforces the capacity carried by each message
        tensors = [rng.normal(size=(2, 2)) for _ in range(6)]
        for step in range(6):
            # a sliding window of 3 slots forces continuous eviction
            slots = {
                f"param/p{(step + i) % 6}": tensors[(step + i) % 6]
                for i in range(3)
            }
            resolved = cache.apply(encoder.encode(slots).message)
            for slot, array in slots.items():
                assert np.array_equal(resolved[slot], array)
            assert list(cache.fingerprints) == list(encoder.mirror)

    def test_baseline_mode_always_ships_full(self):
        rng = np.random.default_rng(7)
        slots = self._slots(rng)
        encoder, cache = DeltaEncoder(delta_shipping=False), DeltaCache()
        for _ in range(3):
            encoded = encoder.encode(slots)
            assert encoded.message["kind"] == "full"
            assert encoded.shipped_bytes == encoded.total_bytes
            cache.apply(encoded.message)

    def test_full_message_rebaselines_the_cache(self):
        """A full shipment clears stale cache state so both sides converge."""
        rng = np.random.default_rng(8)
        slots = self._slots(rng)
        encoder, cache = DeltaEncoder(), DeltaCache()
        cache.apply(encoder.encode(slots).message)
        stale = len(cache)
        encoder.mark_cold()
        cache.apply(encoder.encode(slots).message)
        assert len(cache) == stale  # re-baselined, not doubled
        assert list(cache.fingerprints) == list(encoder.mirror)


class TestRowDecomposedLosses:
    def test_sce_full_block_matches_forward_bit_for_bit(self):
        from repro.nn.losses import SoftmaxCrossEntropy

        rng = np.random.default_rng(0)
        logits = rng.normal(size=(8, 5))
        y = rng.integers(0, 5, size=8)
        a, b = SoftmaxCrossEntropy(), SoftmaxCrossEntropy()
        assert a.forward(logits, y) == b.forward_rows(logits, y, 8)
        assert np.array_equal(a.backward(), b.backward_rows())

    def test_sce_blocks_are_normalised_by_total_rows(self):
        from repro.nn.losses import SoftmaxCrossEntropy

        rng = np.random.default_rng(1)
        logits = rng.normal(size=(8, 5))
        y = rng.integers(0, 5, size=8)
        loss = SoftmaxCrossEntropy()
        whole = loss.forward_rows(logits, y, 8)
        parts = [
            loss.forward_rows(logits[s:e], y[s:e], 8) for s, e in [(0, 5), (5, 8)]
        ]
        assert np.isclose(sum(parts), whole)
        with pytest.raises(ValueError):
            loss.forward_rows(logits, y, 4)  # total smaller than the block

    def test_mse_blocks_are_normalised_by_total_size(self):
        from repro.nn.losses import MeanSquaredError

        rng = np.random.default_rng(2)
        pred = rng.normal(size=(6, 3))
        target = rng.normal(size=(6, 3))
        loss = MeanSquaredError()
        whole = loss.forward(pred, target)
        parts = [
            loss.forward_rows(pred[s:e], target[s:e], 6)
            for s, e in [(0, 2), (2, 6)]
        ]
        assert np.isclose(sum(parts), whole)
        grad = loss.backward_rows()
        assert grad.shape == (4, 3)

    def test_losses_without_row_support_fail_loudly(self):
        from repro.nn.losses import Loss

        with pytest.raises(NotImplementedError, match="n_row_blocks=1"):
            Loss().forward_rows(np.zeros((2, 2)), np.zeros(2), 4)


class TestRespawnBudget:
    def test_respawns_bounded(self):
        budget = RespawnBudget(RespawnPolicy(max_respawns=2))
        assert budget.try_respawn() and budget.try_respawn()
        assert not budget.try_respawn()
        assert budget.respawns_used == 2

    def test_task_retries_bounded_per_task(self):
        budget = RespawnBudget(RespawnPolicy(max_task_retries=1))
        assert budget.try_retry("a")
        assert not budget.try_retry("a")
        assert budget.try_retry("b")
        budget.forget("a")
        assert budget.try_retry("a")

    def test_negative_bounds_rejected(self):
        with pytest.raises(ValueError):
            RespawnPolicy(max_respawns=-1)


class TestSampleGradientTape:
    def test_nesting_and_duplicate_detection(self):
        assert active_tape() is None
        with SampleGradientTape() as tape:
            assert active_tape() is tape
            tape.record("w", np.zeros((2, 3)))
            with pytest.raises(ValueError):
                tape.record("w", np.zeros((2, 3)))
        assert active_tape() is None
        assert set(tape.contributions) == {"w"}

    def test_capture_matches_accumulation_bit_for_bit(self):
        """A taped pass records exactly what the untaped pass accumulates."""
        spec = get_model("B-MLP", reduced=True)
        config = TrainerConfig(n_samples=3, seed=5, grng_stride=32)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 196))
        y = rng.integers(0, 10, size=8)

        def run(taped):
            trainer = BNNTrainer(spec.build_bayesian(seed=7), config)
            trainer.model.train()
            trainer.model.zero_grad()
            sampler = trainer.bank.batched_sampler()
            tape = SampleGradientTape()
            if taped:
                tape.__enter__()
            try:
                logits = trainer.model.forward_samples(x, sampler)
                grad_logits = np.empty_like(logits)
                for s in range(config.n_samples):
                    trainer.loss.forward(logits[s], y)
                    grad_logits[s] = trainer.loss.backward()
                trainer.model.backward_samples(grad_logits, sampler, kl_weight=0.1)
            finally:
                if taped:
                    tape.__exit__(None, None, None)
            trainer.bank.finish_iteration()
            return trainer, tape

        accumulated, _ = run(taped=False)
        _, tape = run(taped=True)
        for param in accumulated.model.parameters():
            stack = tape.contributions[param.name]
            assert stack.shape == (config.n_samples,) + param.value.shape
            replayed = np.zeros_like(param.grad)
            for s in range(config.n_samples):
                replayed += stack[s]
            assert np.array_equal(replayed, param.grad), param.name

    def test_deterministic_trainable_layer_captured_per_sample(self):
        """The det-layer fallback captures per-sample contributions exactly."""
        from repro.bnn import BayesDense, BayesianNetwork
        from repro.nn.layers import Dense, ReLU

        def build():
            return BayesianNetwork(
                [
                    BayesDense(6, 5, rng=np.random.default_rng(3)),
                    ReLU(),
                    Dense(5, 4, rng=np.random.default_rng(4)),
                ]
            )

        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 6))
        grad_out = rng.normal(size=(3, 4, 4))

        def run(taped):
            model = build()
            bank = StreamBank(n_samples=3, seed=9, grng_stride=16)
            model.train()
            model.zero_grad()
            sampler = bank.batched_sampler()
            model.forward_samples(x, sampler)
            tape = SampleGradientTape()
            if taped:
                with tape:
                    model.backward_samples(grad_out, sampler, kl_weight=0.0)
            else:
                model.backward_samples(grad_out, sampler, kl_weight=0.0)
            bank.finish_iteration()
            return model, tape

        accumulated, _ = run(taped=False)
        _, tape = run(taped=True)
        for param in accumulated.parameters():
            replayed = np.zeros_like(param.grad)
            for s in range(3):
                replayed += tape.contributions[param.name][s]
            assert np.array_equal(replayed, param.grad), param.name


class TestReducerValidation:
    def _plan_and_result(self):
        plan = plan_step(n_samples=2, n_shards=2, n_rows=2)
        result = {
            "shard": (0,),
            "contributions": {},
            "nlls": [0.0],
            "probabilities": np.zeros((1, 2, 3)),
        }
        return plan, result

    def test_shard_count_mismatch_rejected(self):
        spec = get_model("B-MLP", reduced=True)
        model = spec.build_bayesian(seed=1)
        plan, result = self._plan_and_result()
        with pytest.raises(DistributedReductionError):
            reduce_step_outputs(model, plan, [result])

    def test_contribution_names_validated(self):
        spec = get_model("B-MLP", reduced=True)
        model = spec.build_bayesian(seed=1)
        plan = plan_step(n_samples=1, n_shards=1, n_rows=2)
        result = {
            "shard": (0,),
            "contributions": {"nope": np.zeros((1, 2))},
            "nlls": [0.0],
            "probabilities": np.zeros((1, 2, 10)),
        }
        with pytest.raises(DistributedReductionError, match="missing"):
            reduce_step_outputs(model, plan, [result])


    def test_stack_trailing_shape_validated(self):
        """A right-sized sample axis over the wrong parameter shape is refused."""
        spec = get_model("B-MLP", reduced=True)
        model = spec.build_bayesian(seed=1)
        result = {
            "shard": (0,),
            "contributions": {
                param.name: np.zeros((1,) + param.value.shape)
                for param in model.parameters()
            },
            "nlls": [0.0],
            "probabilities": np.zeros((1, 2, 10)),
        }
        plan = plan_step(n_samples=1, n_shards=1, n_rows=2)
        reduce_step_outputs(model, plan, [result])
        result["contributions"]["fc1.bias"] = np.zeros((1, 1))  # would broadcast
        with pytest.raises(DistributedReductionError, match="fc1.bias"):
            reduce_step_outputs(model, plan, [result])


PARAMETERS = [("w", np.dtype(np.float64), (3, 2)), ("b", np.dtype(np.float64), (2,))]


class TestResultArena:
    def test_every_cell_has_its_own_slot(self):
        """Units written back to back never overlap, whatever their order."""
        arena = ResultArena(PARAMETERS, n_row_blocks=2, n_samples=4)
        rng = np.random.default_rng(0)
        written = {}
        for samples in ((2, 3), (0, 1)):
            for block in (0, 1):
                for name, _, shape in PARAMETERS:
                    stack = rng.normal(size=(2,) + shape)
                    arena.write(block, samples, name, stack)
                    written[block, samples, name] = stack
        for (block, samples, name), stack in written.items():
            assert np.array_equal(arena.cell(block, samples)[name], stack)
        arena.close()

    def test_mismatched_stacks_are_refused_not_broadcast(self):
        arena = ResultArena(PARAMETERS, n_row_blocks=1, n_samples=2)
        with pytest.raises(ValueError, match="arena slot"):
            arena.write(0, (0, 1), "b", np.zeros((1, 2)))
        with pytest.raises(ValueError, match="arena slot"):
            arena.write(0, (0, 1), "b", np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="no arena region"):
            arena.write(0, (0, 1), "nope", np.zeros((2, 2)))
        arena.close()

    def test_holds_only_the_grid_it_was_laid_out_for(self):
        arena = ResultArena(PARAMETERS, n_row_blocks=2, n_samples=4)
        assert arena.holds(2, (1, 2, 3))
        assert not arena.holds(3, (0, 1))  # more row blocks
        assert not arena.holds(2, (3, 4))  # past the last sample
        assert not arena.holds(2, (0, 2))  # not one contiguous run
        arena.close()

    def test_close_is_idempotent_and_survives_an_outstanding_view(self):
        arena = ResultArena(PARAMETERS, n_row_blocks=1, n_samples=1)
        view = arena.cell(0, (0,))["w"]
        arena.close()
        arena.close()
        assert arena.closed
        assert view.shape == (1, 3, 2)  # still mapped: the view pins the pages


class TestUnitResultMessage:
    def _unit(self, spec, monkeypatch):
        """One 2-shard x 2-block unit: its payload as it crosses the wire,
        the inline engine's answer, and the same payload run on an engine
        that owns an arena."""
        wire = []
        run_step = ShardEngine.run_step

        def spy(engine, payload):
            wire.append(pickle.loads(pickle.dumps(payload)))
            wire.append(run_step(engine, payload))
            return wire[-1]

        backend = DistributedBackend(
            ReplicaSpec.structural(spec, build_seed=5),
            n_workers=0,
            n_shards=2,
            n_row_blocks=2,
            delta_shipping=False,
        )
        config = TrainerConfig(n_samples=4, seed=3, grng_stride=32)
        rng = np.random.default_rng(0)
        with monkeypatch.context() as patch, BNNTrainer(
            spec.build_bayesian(seed=5), config, backend=backend
        ) as trainer:
            patch.setattr(ShardEngine, "run_step", spy)
            trainer.train_step(
                rng.normal(size=(8, 196)), rng.integers(0, 10, size=8), kl_weight=0.1
            )
        payload, inline_result = wire
        model = spec.build_bayesian(seed=5)
        arena = ResultArena(
            [(p.name, p.value.dtype, p.value.shape) for p in model.parameters()],
            n_row_blocks=2,
            n_samples=4,
        )
        result = ShardEngine(model, trainer.loss, arena).run_step(payload)
        return payload, inline_result, result, arena

    def test_done_message_carries_no_parameter_sized_array(self, monkeypatch):
        """A few kilobytes whatever the model: the stacks are in the arena."""
        small = get_model("B-MLP", reduced=True)
        wide = ModelSpec(
            name="B-MLP-wide",
            input_shape=small.input_shape,
            num_classes=small.num_classes,
            dataset=small.dataset,
            flatten_input=True,
            layers=tuple(
                DenseSpec(layer.name, 4 * layer.out_features)
                if layer.name == "fc1"
                else layer
                for layer in small.layers
            ),
        )
        sizes = []
        for spec in (small, wide):
            _, _, result, arena = self._unit(spec, monkeypatch)
            assert all(cell["contributions"] is None for cell in result["cells"])
            sizes.append(len(pickle.dumps(("done", 0, dict(result, rank=0)))))
            arena.close()
        assert max(sizes) < 16 * 1024
        # 4x the weights move nothing but the width of the traffic counters
        assert abs(sizes[0] - sizes[1]) < 64

    def test_arena_cells_equal_the_inline_stacks(self, monkeypatch):
        spec = get_model("B-MLP", reduced=True)
        payload, inline_result, result, arena = self._unit(spec, monkeypatch)
        bound = DistributedBackend._claim_cells(payload, result, arena)
        assert len(bound["cells"]) == 4
        for got, expected in zip(bound["cells"], inline_result["cells"]):
            assert (got["shard"], got["row_block"]) == (
                expected["shard"],
                expected["row_block"],
            )
            for name, stack in expected["contributions"].items():
                assert np.array_equal(got["contributions"][name], stack), name
        assert bound["snapshots"] == inline_result["snapshots"]
        assert bound["usage"] == inline_result["usage"]

    def test_stacks_without_an_arena_or_foreign_cells_are_errors(self, monkeypatch):
        spec = get_model("B-MLP", reduced=True)
        payload, _, result, arena = self._unit(spec, monkeypatch)
        with pytest.raises(DistributedStepError, match="does not have"):
            DistributedBackend._claim_cells(payload, result, None)
        other_unit = dict(payload, shards=((2, 3),))
        with pytest.raises(DistributedStepError, match="does not cover"):
            DistributedBackend._claim_cells(other_unit, result, arena)
        arena.close()


class TestShardedStreamBank:
    def test_shard_rows_match_full_bank_rows(self):
        """Row j of a shard bank == canonical row shard[j] of the full bank."""
        full = StreamBank(n_samples=4, seed=3, grng_stride=8)
        shard = StreamBank(
            n_samples=2, seed=3, grng_stride=8, sample_indices=(1, 3)
        )
        full_blocks = full.batched_sampler().sample(np.zeros(5), np.ones(5)).weights
        shard_blocks = shard.batched_sampler().sample(np.zeros(5), np.ones(5)).weights
        assert np.array_equal(shard_blocks[0], full_blocks[1])
        assert np.array_equal(shard_blocks[1], full_blocks[3])

    def test_sample_indices_validated(self):
        with pytest.raises(ValueError):
            StreamBank(n_samples=2, sample_indices=(0,))
        with pytest.raises(ValueError):
            StreamBank(n_samples=1, sample_indices=(-1,))

    def test_usage_state_roundtrip_and_merge(self):
        usage = StreamUsage()
        usage.record_generate(10)
        usage.record_store(10)
        usage.record_retrieve(10)
        usage.record_release(10)
        state = usage.state_dict()
        other = StreamUsage()
        other.load_state_dict(state)
        assert other.state_dict() == state
        other.reset()
        assert other.generated_values == 0
        # merging two per-iteration deltas reproduces two recorded iterations
        merged = StreamUsage()
        merged.merge_delta(state)
        merged.merge_delta(state)
        assert merged.generated_values == 20
        assert merged.stored_values_peak == 10
