"""Property-based tests of the two epsilon policies and the GRNG.

Each sample draws through a :class:`~repro.core.BatchedWeightSampler` over a
one-row :class:`~repro.core.GrngBank`; values are held to
:class:`oracle.OracleGRNG`, a from-scratch bit-serial generator.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import draw, one_row_sampler, retrieve
from oracle import OracleGRNG
from repro.core import GrngBank


def row(n_bits: int, seed_index: int, stride: int = 1) -> GrngBank:
    """A one-row bank."""
    return GrngBank(seed_indices=[seed_index], n_bits=n_bits, stride=stride)

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
        bank = row(n_bits, seed, stride)
        states = bank.states()
        forward = bank.epsilon_blocks(count)[0]
        assert forward.tobytes() == OracleGRNG(n_bits, seed, stride).epsilon_block(count).tobytes()
        backward = bank.epsilon_blocks_reverse(count)[0]
        assert np.array_equal(backward, forward[::-1])
        assert bank.states() == states

    @given(seed=st.integers(0, 100), count=st.integers(1, 200))
    @settings(max_examples=30, deadline=None)
    def test_epsilon_values_bounded_by_register_width(self, seed, count):
        values = row(64, seed).epsilon_blocks(count)[0]
        bound = 64 / 2 / np.sqrt(64 / 4)  # all-ones / all-zeros pattern
        assert np.all(np.abs(values) <= bound)


class TestPolicyEquivalenceProperties:
    @given(shapes=block_shapes, seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_reversible_sampler_reproduces_stored_sampler(self, shapes, seed):
        # the reversible row jumps back and replays; the oracle ticks in reverse
        samplers = [one_row_sampler(policy, 64, seed) for policy in ("stored", "reversible")]
        oracle = OracleGRNG(64, seed, stride=4)
        for shape in shapes:
            # every policy generated the oracle's epsilons
            expected = oracle.epsilon_block(int(np.prod(shape))).reshape(shape)
            for sampler in samplers:
                assert draw(sampler, shape).tobytes() == expected.tobytes()
        # every policy retrieves exactly what it generated, in LIFO order
        for shape in reversed(shapes):
            expected = oracle.epsilon_block_reverse(int(np.prod(shape)))[::-1].reshape(shape)
            for sampler in samplers:
                assert retrieve(sampler, shape).tobytes() == expected.tobytes()
        for sampler in samplers:
            sampler.finish_iteration()

    @given(
        shapes=block_shapes,
        seed=st.integers(0, 50),
        iterations=st.integers(1, 3),
    )
    @settings(max_examples=20, deadline=None)
    def test_multi_iteration_equivalence(self, shapes, seed, iterations):
        stored = one_row_sampler("stored", 64, seed, stride=2)
        reversible = one_row_sampler("reversible", 64, seed, stride=2)
        for _ in range(iterations):
            expected = [draw(stored, shape) for shape in shapes]
            actual = [draw(reversible, shape) for shape in shapes]
            for a, b in zip(expected, actual):
                assert np.array_equal(a, b)
            for shape in reversed(shapes):
                retrieve(stored, shape)
                retrieve(reversible, shape)
            stored.finish_iteration()
            reversible.finish_iteration()

    @given(shapes=block_shapes, seed=st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_usage_accounting_invariants(self, shapes, seed):
        stored = one_row_sampler("stored", 64, seed, stride=1)
        reversible = one_row_sampler("reversible", 64, seed, stride=1)
        total = 0
        for shape in shapes:
            total += int(np.prod(shape))
            draw(stored, shape)
            draw(reversible, shape)
        for shape in reversed(shapes):
            retrieve(stored, shape)
            retrieve(reversible, shape)
        assert stored.usage.generated_values == total
        assert stored.usage.retrieved_values == total
        assert stored.usage.offchip_write_bytes == total * 2
        assert reversible.usage.offchip_write_bytes == 0
        assert reversible.usage.offchip_read_bytes == 0
