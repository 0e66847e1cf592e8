"""Property-based tests of the LFSR reversal invariants (hypothesis).

Every register is a :class:`~repro.core.GrngBank` row at stride 1 (one
pattern per value), checked against the bit-serial register of
``tests/oracle`` over the whole tap table.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import BitSerialLFSR, clt
from repro.core import MAXIMAL_TAPS, GrngBank

WIDTHS = sorted(MAXIMAL_TAPS)


def lfsr_strategy():
    """Strategy producing (width, non-zero seed) pairs over the tap table."""
    return st.sampled_from(WIDTHS).flatmap(
        lambda width: st.tuples(
            st.just(width), st.integers(min_value=1, max_value=(1 << width) - 1)
        )
    )


def one_row(width: int, seed: int, stride: int = 1) -> GrngBank:
    bank = GrngBank(1, n_bits=width, stride=stride)
    bank.set_states([seed])
    return bank


def ticked(width: int, seed: int, count: int, reverse: bool = False):
    """``(popcounts after each tick, end state)`` of the oracle register."""
    lfsr = BitSerialLFSR(width, seed)
    tick = lfsr.tick_reverse if reverse else lfsr.tick_forward
    popcounts = []
    for _ in range(count):
        tick()
        popcounts.append(lfsr.popcount())
    return popcounts, lfsr.state


class TestReversalInvariants:
    @given(config=lfsr_strategy(), steps=st.integers(min_value=0, max_value=400))
    @settings(max_examples=60, deadline=None)
    def test_forward_then_reverse_is_identity(self, config, steps):
        width, seed = config
        bank = one_row(width, seed)
        bank.epsilon_blocks(steps)
        bank.epsilon_blocks_reverse(steps)
        assert bank.states() == [seed]

    @given(config=lfsr_strategy(), steps=st.integers(min_value=0, max_value=400))
    @settings(max_examples=60, deadline=None)
    def test_reverse_then_forward_is_identity(self, config, steps):
        width, seed = config
        bank = one_row(width, seed)
        bank.epsilon_blocks_reverse(steps)
        bank.epsilon_blocks(steps)
        assert bank.states() == [seed]

    @given(config=lfsr_strategy(), count=st.integers(min_value=1, max_value=600))
    @settings(max_examples=40, deadline=None)
    def test_vectorised_forward_equals_stepwise(self, config, count):
        width, seed = config
        bank = one_row(width, seed)
        popcounts, end = ticked(width, seed, count)
        assert bank.epsilon_blocks(count)[0].tobytes() == clt(popcounts, width).tobytes()
        assert bank.states() == [end]

    @given(config=lfsr_strategy(), count=st.integers(min_value=1, max_value=600))
    @settings(max_examples=40, deadline=None)
    def test_vectorised_reverse_equals_stepwise(self, config, count):
        width, seed = config
        bank = one_row(width, seed)
        popcounts, end = ticked(width, seed, count, reverse=True)
        # the current pattern first, then the earlier ones but the last
        sums = [bin(seed).count("1")] + popcounts[:-1]
        assert bank.epsilon_blocks_reverse(count)[0].tobytes() == clt(sums, width).tobytes()
        assert bank.states() == [end]

    @given(config=lfsr_strategy(), count=st.integers(min_value=1, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_reverse_block_returns_forward_bits_reversed_in_time(self, config, count):
        """The patterns passed while shifting forward come back newest first."""
        width, seed = config
        popcounts, end = ticked(width, seed, count)
        bank = one_row(width, end)
        assert bank.epsilon_blocks_reverse(count)[0].tobytes() == (
            clt(popcounts[::-1], width).tobytes()
        )
        assert bank.states() == [seed]

    @given(
        config=lfsr_strategy(),
        count=st.integers(min_value=1, max_value=100),
        stride=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=30, deadline=None)
    def test_window_popcounts_match_state_popcounts(self, config, count, stride):
        width, seed = config
        bank = one_row(width, seed, stride)
        popcounts, end = ticked(width, seed, count * stride)
        emitted = popcounts[stride - 1 :: stride]
        assert bank.epsilon_blocks(count)[0].tobytes() == clt(emitted, width).tobytes()
        assert bank.states() == [end]

    @given(
        config=lfsr_strategy(),
        blocks=st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_state_never_becomes_zero(self, config, blocks):
        width, seed = config
        bank = one_row(width, seed)
        for count in blocks:
            bank.epsilon_blocks(count)
            assert bank.states()[0] != 0
            bank.epsilon_blocks_reverse(count // 2)
            assert bank.states()[0] != 0
