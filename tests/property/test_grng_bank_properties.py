"""Property-based tests: the batched GRNG bank is bit-identical to the oracle.

The oracle (:class:`oracle.OracleGRNG`) ticks a from-scratch bit-serial
register per row; nothing of it is shared with the bank's kernels.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import draw, retrieve
from oracle import OracleGRNG
from repro.core import GrngBank, StreamBank

block_shapes = st.lists(
    st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=5
)


class TestGrngBankRegisterProperties:
    @given(
        seeds=st.lists(st.integers(0, 500), min_size=1, max_size=6),
        count=st.integers(1, 150),
        n_bits=st.sampled_from([8, 16, 32, 64, 256]),
        stride=st.sampled_from([1, 3, 4]),
    )
    @settings(max_examples=40, deadline=None)
    def test_lockstep_generation_matches_scalar_registers(
        self, seeds, count, n_bits, stride
    ):
        bank = GrngBank(seed_indices=seeds, n_bits=n_bits, stride=stride)
        block = bank.epsilon_blocks(count)
        for row, seed in enumerate(seeds):
            scalar = OracleGRNG(n_bits, seed_index=seed, stride=stride)
            assert block[row].tobytes() == scalar.epsilon_block(count).tobytes()
            assert bank.states()[row] == scalar.state

    @given(
        seeds=st.lists(st.integers(0, 500), min_size=1, max_size=4),
        count=st.integers(1, 150),
        n_bits=st.sampled_from([16, 64, 256]),
        stride=st.sampled_from([1, 3, 64]),
    )
    @settings(max_examples=30, deadline=None)
    def test_reverse_generation_round_trips(self, seeds, count, n_bits, stride):
        bank = GrngBank(seed_indices=seeds, n_bits=n_bits, stride=stride)
        states = bank.states()
        forward = bank.epsilon_blocks(count)
        recovered = bank.epsilon_blocks_reverse(count)
        # Reversed shifting retrieves the forward values newest first, and
        # the registers return bit-exactly to their pre-block patterns.
        assert np.array_equal(recovered, forward[:, ::-1])
        assert bank.states() == states


class TestGrngBankBitIdentical:
    """The acceptance property: batched epsilon blocks equal the oracle's.

    Covered for forward generation and reversed retrieval, explicitly
    including the hardware-faithful stride 1 and the decorrelated stride 256
    the functional trainers use.
    """

    @given(
        n_rows=st.integers(1, 5),
        count=st.integers(1, 200),
        stride=st.sampled_from([1, 256]),
        base_seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_forward_blocks_bit_identical(self, n_rows, count, stride, base_seed):
        seeds = [base_seed + i for i in range(n_rows)]
        bank = GrngBank(seed_indices=seeds, n_bits=256, stride=stride)
        batched = bank.epsilon_blocks(count)
        for row, seed in enumerate(seeds):
            scalar = OracleGRNG(256, seed_index=seed, stride=stride)
            assert batched[row].tobytes() == scalar.epsilon_block(count).tobytes()

    @given(
        n_rows=st.integers(1, 4),
        count=st.integers(1, 150),
        stride=st.sampled_from([1, 256]),
        base_seed=st.integers(0, 1000),
    )
    @settings(max_examples=20, deadline=None)
    def test_reversed_blocks_bit_identical(self, n_rows, count, stride, base_seed):
        seeds = [base_seed + i for i in range(n_rows)]
        bank = GrngBank(seed_indices=seeds, n_bits=256, stride=stride)
        bank.epsilon_blocks(count)
        batched = bank.epsilon_blocks_reverse(count)
        for row, seed in enumerate(seeds):
            scalar = OracleGRNG(256, seed_index=seed, stride=stride)
            scalar.epsilon_block(count)
            assert batched[row].tobytes() == scalar.epsilon_block_reverse(count).tobytes()


class TestRowViewStreamProperties:
    @given(
        shapes=block_shapes,
        seed=st.integers(0, 60),
        n_samples=st.integers(1, 4),
        policy=st.sampled_from(["stored", "reversible"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_bank_streams_reproduce_scalar_streams(
        self, shapes, seed, n_samples, policy
    ):
        # Trainer-style interleaving (per sample: forward all layers, then
        # retrieve them LIFO) across two iterations: every one-row sampler
        # sits out of phase with its siblings between requests, and each must
        # still reproduce its oracle bit for bit.
        bank = StreamBank(
            n_samples, policy=policy, seed=seed, lfsr_bits=64, grng_stride=4
        )
        scalars = [
            OracleGRNG(64, seed_index=seed * 1024 + i, stride=4) for i in range(n_samples)
        ]
        for _ in range(2):
            for i in range(n_samples):
                sampler = bank.sampler(i)
                expected = [scalars[i].epsilon_block(int(np.prod(s))) for s in shapes]
                for shape, reference in zip(shapes, expected):
                    block = draw(sampler, shape)
                    assert np.array_equal(block, reference.reshape(shape))
                for shape, reference in zip(reversed(shapes), reversed(expected)):
                    block = retrieve(sampler, shape)
                    assert np.array_equal(block, reference.reshape(shape))
            bank.finish_iteration()
