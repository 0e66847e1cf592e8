"""Unit tests for the stored and reversible epsilon-stream policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    GrngBank,
    ReversibleGaussianStream,
    StoredGaussianStream,
    StreamOrderError,
)


def make_stream(policy: str, seed_index: int = 0, stride: int = 4):
    grng = GrngBank(n_bits=64, seed_indices=[seed_index], stride=stride).row_view(0)
    if policy == "stored":
        return StoredGaussianStream(grng)
    return ReversibleGaussianStream(grng)


ALL_POLICIES = ["stored", "reversible"]


class TestForwardGeneration:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_forward_block_shape(self, policy):
        stream = make_stream(policy)
        block = stream.forward_block((3, 4))
        assert block.shape == (3, 4)

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_invalid_shape_rejected(self, policy):
        stream = make_stream(policy)
        with pytest.raises(ValueError):
            stream.forward_block((0, 4))

    def test_identical_seeds_give_identical_blocks_across_policies(self):
        blocks = {
            policy: make_stream(policy, seed_index=5).forward_block((2, 5))
            for policy in ALL_POLICIES
        }
        assert np.array_equal(blocks["stored"], blocks["reversible"])


class TestRetrieval:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_single_block_roundtrip(self, policy):
        stream = make_stream(policy)
        forward = stream.forward_block((4, 4))
        retrieved = stream.retrieve_block((4, 4))
        assert np.allclose(forward, retrieved)

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_multiple_blocks_lifo_order(self, policy):
        stream = make_stream(policy)
        first = stream.forward_block((3,))
        second = stream.forward_block((2, 2))
        third = stream.forward_block((5,))
        assert np.allclose(stream.retrieve_block((5,)), third)
        assert np.allclose(stream.retrieve_block((2, 2)), second)
        assert np.allclose(stream.retrieve_block((3,)), first)

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_shape_mismatch_raises(self, policy):
        stream = make_stream(policy)
        stream.forward_block((3, 3))
        with pytest.raises(StreamOrderError):
            stream.retrieve_block((9,))

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_refused_shape_keeps_the_block(self, policy):
        """A retrieval refused for its shape consumes nothing: the block is
        still pending, the usage counters did not move, and the right shape
        then retrieves exactly the forward values."""
        stream = make_stream(policy)
        forward = stream.forward_block((3, 3))
        usage = stream.usage.state_dict()
        with pytest.raises(StreamOrderError, match="does not match"):
            stream.retrieve_block((9,))
        assert stream.pending_blocks == 1
        assert stream.usage.state_dict() == usage
        assert np.array_equal(stream.retrieve_block((3, 3)), forward)

    def test_refused_register_keeps_the_block(self):
        """A reversible retrieval refused for a tampered register consumes
        nothing either; putting the register back lets it go through."""
        stream = make_stream("reversible", seed_index=3)
        forward = stream.forward_block((4,))
        usage = stream.usage.state_dict()
        stream.grng.lfsr.state ^= 1
        with pytest.raises(StreamOrderError, match="modified outside"):
            stream.retrieve_block((4,))
        assert stream.pending_blocks == 1
        assert stream.usage.state_dict() == usage
        stream.grng.lfsr.state ^= 1
        assert np.array_equal(stream.retrieve_block((4,)), forward)

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_retrieve_without_forward_raises(self, policy):
        stream = make_stream(policy)
        with pytest.raises(StreamOrderError):
            stream.retrieve_block((1,))

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_reset_epoch_with_pending_raises(self, policy):
        stream = make_stream(policy)
        stream.forward_block((2,))
        with pytest.raises(StreamOrderError):
            stream.reset_epoch()

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_reset_epoch_after_full_retrieval(self, policy):
        stream = make_stream(policy)
        stream.forward_block((2,))
        stream.retrieve_block((2,))
        stream.reset_epoch()  # must not raise

    def test_reversible_policy_matches_stored_values(self):
        shapes = [(3, 3), (7,), (2, 4), (10,)]
        stored = make_stream("stored", seed_index=9)
        reversible = make_stream("reversible", seed_index=9)
        expected = [stored.forward_block(s) for s in shapes]
        for shape in shapes:
            reversible.forward_block(shape)
        for shape, value in zip(reversed(shapes), reversed(expected)):
            assert np.array_equal(stored.retrieve_block(shape), value)
            assert np.array_equal(reversible.retrieve_block(shape), value)


class TestFreshnessAcrossIterations:
    def test_next_iteration_draws_fresh_values(self):
        reference = make_stream("stored", seed_index=4)
        stream = make_stream("reversible", seed_index=4)
        for _ in range(3):  # three "training iterations"
            expected = reference.forward_block((6,))
            reference.retrieve_block((6,))
            reference.reset_epoch()
            actual = stream.forward_block((6,))
            stream.retrieve_block((6,))
            stream.reset_epoch()
            assert np.allclose(actual, expected)

    def test_iterations_are_not_identical_to_each_other(self):
        stream = make_stream("reversible", seed_index=4)
        first = stream.forward_block((8,))
        stream.retrieve_block((8,))
        stream.reset_epoch()
        second = stream.forward_block((8,))
        stream.retrieve_block((8,))
        stream.reset_epoch()
        assert not np.allclose(first, second)


class TestUsageAccounting:
    def test_stored_policy_counts_offchip_bytes(self):
        stream = make_stream("stored")
        stream.forward_block((10, 10))
        stream.retrieve_block((10, 10))
        usage = stream.usage
        assert usage.generated_values == 100
        assert usage.retrieved_values == 100
        assert usage.offchip_write_bytes == 100 * 2
        assert usage.offchip_read_bytes == 100 * 2
        assert usage.footprint_bytes >= 200

    def test_reversible_policy_moves_no_epsilon_bytes(self):
        stream = make_stream("reversible")
        stream.forward_block((10, 10))
        stream.retrieve_block((10, 10))
        usage = stream.usage
        assert usage.offchip_write_bytes == 0
        assert usage.offchip_read_bytes == 0
        # nothing is kept between the passes: no footprint at all
        assert usage.footprint_bytes == 0

    def test_stored_peak_tracks_outstanding_blocks(self):
        stream = make_stream("stored")
        stream.forward_block((4,))
        stream.forward_block((4,))
        assert stream.usage.stored_values_peak == 8
        stream.retrieve_block((4,))
        stream.retrieve_block((4,))
        assert stream.usage.stored_values_current == 0
        assert stream.usage.stored_values_peak == 8

    def test_pending_blocks_property(self):
        stream = make_stream("reversible")
        assert stream.pending_blocks == 0
        stream.forward_block((2,))
        stream.forward_block((2,))
        assert stream.pending_blocks == 2
        stream.retrieve_block((2,))
        assert stream.pending_blocks == 1

    def test_retrieval_detects_external_register_tampering(self):
        stream = make_stream("reversible", seed_index=2)
        stream.forward_block((4,))
        stream.forward_block((3,))
        stream.grng.lfsr.state ^= 1  # corrupt the register between stages
        with pytest.raises(StreamOrderError, match="modified outside"):
            stream.retrieve_block((3,))

    def test_traffic_accounting_trace_hand_computed(self):
        # Hand-computed trace over one training iteration with three layers of
        # 6, 4 and 2 values on a 64-bit GRNG (bytes_per_value=2): nothing is
        # ever stored or checkpointed, so every byte count and the footprint
        # stay zero while the value counters sum the layers.
        stream = make_stream("reversible")
        usage = stream.usage
        for shape in [(6,), (4,), (2,)]:
            stream.forward_block(shape)
        assert (usage.generated_values, usage.footprint_bytes) == (12, 0)
        stream.retrieve_block((2,))
        assert usage.retrieved_values == 2
        stream.retrieve_block((4,))
        stream.retrieve_block((6,))
        stream.reset_epoch()
        assert usage.generated_values == 12
        assert usage.retrieved_values == 12
        assert usage.stored_values_peak == 0
        assert usage.offchip_write_bytes == 0
        assert usage.offchip_read_bytes == 0
        assert usage.footprint_bytes == 0
