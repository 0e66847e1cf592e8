"""Demonstration of the paper's core mechanism: reversible LFSR pattern retrieval.

The script walks through Section 4 of the paper at machine level:

1. an 8-bit Fibonacci LFSR in a :class:`~repro.core.GrngBank` shifts forward
   one pattern per value and produces a sequence of patterns (Fig. 4(a));
2. retrieving the values one at a time walks the register back through exactly
   the previous patterns (Fig. 4(b/c)) -- each retrieval jumps the register
   back and replays it forward, so no pattern is ever stored;
3. a 256-bit GRNG turns patterns into Gaussian variables, and one reversed
   retrieval returns the same variables in reverse order;
4. two epsilon policies (store vs regenerate) serve identical values to a
   one-sample weight sampler while moving very different amounts of data.

Run with::

    python examples/lfsr_reversal_demo.py
"""

from __future__ import annotations

import numpy as np

from repro.core import GrngBank, StreamBank


def show_pattern_reversal() -> None:
    print("=== 1/2. 8-bit LFSR forward shifting and reversed retrieval (Fig. 4) ===")
    bank = GrngBank(1, n_bits=8, stride=1)
    bank.set_states([0b0000_1111])
    forward_patterns = bank.states()
    for _ in range(3):
        bank.epsilon_blocks(1)
        forward_patterns += bank.states()
    print("forward :", " -> ".join(f"{p:08b}" for p in forward_patterns))
    reverse_patterns = bank.states()
    for _ in range(3):
        bank.epsilon_blocks_reverse(1)
        reverse_patterns += bank.states()
    print("reverse :", " -> ".join(f"{p:08b}" for p in reverse_patterns))
    assert reverse_patterns == forward_patterns[::-1]
    print("the reverse walk reproduces the forward patterns exactly\n")


def show_gaussian_retrieval() -> None:
    print("=== 3. Gaussian variables from a 256-bit GRNG ===")
    bank = GrngBank(seed_indices=[1], n_bits=256, stride=256)
    forward = bank.epsilon_blocks(6)[0]
    retrieved = bank.epsilon_blocks_reverse(6)[0]
    print("generated:", np.round(forward, 3))
    print("retrieved:", np.round(retrieved[::-1], 3), "(after reversing the order)")
    assert np.array_equal(forward, retrieved[::-1])
    print("bit-exact retrieval without storing a single value\n")


def show_stream_policies() -> None:
    print("=== 4. store-and-fetch vs LFSR retrieval for weight sampling ===")
    mu = np.zeros((128, 64))
    sigma = np.full((128, 64), 0.05)
    results = {}
    for name, policy in (("stored", "stored"), ("shift-bnn", "reversible")):
        bank = StreamBank(1, policy=policy, seed=9, lfsr_bits=256, grng_stride=16)
        sampler = bank.sampler(0)
        forward = sampler.sample(mu, sigma)          # FW stage
        reconstructed = sampler.resample(mu, sigma)  # BW stage
        assert np.array_equal(forward.weights, reconstructed.weights)
        usage = bank.usages[0]
        results[name] = usage
        moved = usage.offchip_write_bytes + usage.offchip_read_bytes
        print(
            f"{name:>9s}: {mu.size} weights sampled and reconstructed, "
            f"epsilon bytes moved off-chip = {moved}"
        )
    saved = results["stored"].offchip_write_bytes + results["stored"].offchip_read_bytes
    print(f"Shift-BNN eliminates all {saved} epsilon bytes per layer per sample\n")


if __name__ == "__main__":
    show_pattern_reversal()
    show_gaussian_retrieval()
    show_stream_policies()
