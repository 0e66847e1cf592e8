"""Property-based tests of the epsilon-stream policies and the GRNG."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    GrngBank,
    LfsrGaussianRNG,
    ReversibleGaussianStream,
    StoredGaussianStream,
)

block_shapes = st.lists(
    st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=1, max_size=6
)


class TestGRNGProperties:
    @given(
        seed=st.integers(0, 200),
        count=st.integers(1, 300),
        stride=st.sampled_from([1, 2, 7, 32]),
        n_bits=st.sampled_from([32, 64, 256]),
    )
    @settings(max_examples=40, deadline=None)
    def test_block_reversal_retrieves_block(self, seed, count, stride, n_bits):
        grng = LfsrGaussianRNG(n_bits=n_bits, seed_index=seed, stride=stride)
        state = grng.lfsr.state
        forward = grng.epsilon_block(count)
        backward = grng.epsilon_block_reverse(count)
        assert np.allclose(backward, forward[::-1])
        assert grng.lfsr.state == state

    @given(seed=st.integers(0, 100), count=st.integers(1, 200))
    @settings(max_examples=30, deadline=None)
    def test_epsilon_values_bounded_by_register_width(self, seed, count):
        grng = LfsrGaussianRNG(n_bits=64, seed_index=seed)
        values = grng.epsilon_block(count)
        bound = 64 / 2 / np.sqrt(64 / 4)  # all-ones / all-zeros pattern
        assert np.all(np.abs(values) <= bound)


class TestStreamEquivalenceProperties:
    @given(shapes=block_shapes, seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_reversible_stream_reproduces_stored_stream(self, shapes, seed):
        stored = StoredGaussianStream(LfsrGaussianRNG(64, seed_index=seed, stride=4))
        # the scalar generator reverse-shifts, a bank row jumps back and replays
        shifted = ReversibleGaussianStream(LfsrGaussianRNG(64, seed_index=seed, stride=4))
        jumped = ReversibleGaussianStream(
            GrngBank(n_bits=64, seed_indices=[seed], stride=4).row_view(0)
        )
        streams = (stored, shifted, jumped)
        forwards = {id(stream): [] for stream in streams}
        for shape in shapes:
            for stream in streams:
                forwards[id(stream)].append(stream.forward_block(shape))
        # every policy generated identical epsilons
        for a, b, c in zip(*forwards.values()):
            assert np.array_equal(a, b)
            assert np.array_equal(a, c)
        # every policy retrieves exactly what it generated, in LIFO order
        for shape in reversed(shapes):
            retrieved = [stream.retrieve_block(shape) for stream in streams]
            assert np.array_equal(retrieved[0], retrieved[1])
            assert np.array_equal(retrieved[0], retrieved[2])
        for stream in streams:
            stream.reset_epoch()

    @given(
        shapes=block_shapes,
        seed=st.integers(0, 50),
        iterations=st.integers(1, 3),
    )
    @settings(max_examples=20, deadline=None)
    def test_multi_iteration_equivalence(self, shapes, seed, iterations):
        stored = StoredGaussianStream(LfsrGaussianRNG(64, seed_index=seed, stride=2))
        reversible = ReversibleGaussianStream(
            LfsrGaussianRNG(64, seed_index=seed, stride=2)
        )
        for _ in range(iterations):
            expected = [stored.forward_block(shape) for shape in shapes]
            actual = [reversible.forward_block(shape) for shape in shapes]
            for a, b in zip(expected, actual):
                assert np.array_equal(a, b)
            for shape in reversed(shapes):
                stored.retrieve_block(shape)
                reversible.retrieve_block(shape)
            stored.reset_epoch()
            reversible.reset_epoch()

    @given(shapes=block_shapes, seed=st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_usage_accounting_invariants(self, shapes, seed):
        stored = StoredGaussianStream(LfsrGaussianRNG(64, seed_index=seed))
        reversible = ReversibleGaussianStream(LfsrGaussianRNG(64, seed_index=seed))
        total = 0
        for shape in shapes:
            total += int(np.prod(shape))
            stored.forward_block(shape)
            reversible.forward_block(shape)
        for shape in reversed(shapes):
            stored.retrieve_block(shape)
            reversible.retrieve_block(shape)
        assert stored.usage.generated_values == total
        assert stored.usage.retrieved_values == total
        assert stored.usage.offchip_write_bytes == total * 2
        assert reversible.usage.offchip_write_bytes == 0
        assert reversible.usage.offchip_read_bytes == 0
