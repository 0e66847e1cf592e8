"""Property-based tests of the epsilon-stream policies and the GRNG.

Streams run over :class:`~repro.core.GrngBank` row views; their values are
held to :class:`oracle.OracleGRNG`, a from-scratch bit-serial generator.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import OracleGRNG
from repro.core import GrngBank, ReversibleGaussianStream, StoredGaussianStream


def row(n_bits: int, seed_index: int, stride: int = 1):
    """The row view of a one-row bank."""
    return GrngBank(seed_indices=[seed_index], n_bits=n_bits, stride=stride).row_view(0)

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
        grng = row(n_bits, seed, stride)
        state = grng.lfsr.state
        forward = grng.epsilon_block(count)
        assert forward.tobytes() == OracleGRNG(n_bits, seed, stride).epsilon_block(count).tobytes()
        backward = grng.epsilon_block_reverse(count)
        assert np.array_equal(backward, forward[::-1])
        assert grng.lfsr.state == state

    @given(seed=st.integers(0, 100), count=st.integers(1, 200))
    @settings(max_examples=30, deadline=None)
    def test_epsilon_values_bounded_by_register_width(self, seed, count):
        values = row(64, seed).epsilon_block(count)
        bound = 64 / 2 / np.sqrt(64 / 4)  # all-ones / all-zeros pattern
        assert np.all(np.abs(values) <= bound)


class TestStreamEquivalenceProperties:
    @given(shapes=block_shapes, seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_reversible_stream_reproduces_stored_stream(self, shapes, seed):
        stored = StoredGaussianStream(row(64, seed, stride=4))
        # a bank row jumps back and replays; the oracle ticks in reverse
        jumped = ReversibleGaussianStream(row(64, seed, stride=4))
        oracle = OracleGRNG(64, seed, stride=4)
        streams = (stored, jumped)
        for shape in shapes:
            # every policy generated the oracle's epsilons
            expected = oracle.epsilon_block(int(np.prod(shape))).reshape(shape)
            for stream in streams:
                assert stream.forward_block(shape).tobytes() == expected.tobytes()
        # every policy retrieves exactly what it generated, in LIFO order
        for shape in reversed(shapes):
            expected = oracle.epsilon_block_reverse(int(np.prod(shape)))[::-1].reshape(shape)
            for stream in streams:
                assert stream.retrieve_block(shape).tobytes() == expected.tobytes()
        for stream in streams:
            stream.reset_epoch()

    @given(
        shapes=block_shapes,
        seed=st.integers(0, 50),
        iterations=st.integers(1, 3),
    )
    @settings(max_examples=20, deadline=None)
    def test_multi_iteration_equivalence(self, shapes, seed, iterations):
        stored = StoredGaussianStream(row(64, seed, stride=2))
        reversible = ReversibleGaussianStream(row(64, seed, stride=2))
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
        stored = StoredGaussianStream(row(64, seed))
        reversible = ReversibleGaussianStream(row(64, seed))
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
