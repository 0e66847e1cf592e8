"""Fused sampling: the GRNG kernel writes ``mu + eps * sigma`` itself.

``GrngBank.weight_blocks`` (one ``grng_block`` call with ``mu``, ``sigma`` and
a weights buffer) and the checkpoint replay of the ``reversible`` policy must
give the bytes of the unfused path -- ``epsilon_blocks`` followed by
``BatchedWeightSampler._build_weights`` -- and the epsilons of the plain
generation, on the compiled ``native`` backend and on the NumPy ``reference``.
Registers must end where the unfused path leaves them.

Weights are compared NaN-aware: where a NaN meets a NaN the payload that
survives depends on operand order inside the vector unit, which the compiler
may swap for a commutative operation; NumPy does not define it either.
Everything else, ``-0.0`` and infinities included, is compared bytewise.

A negative sigma is refused with ``ValueError`` before anything moves:
registers, sums and ``StreamUsage`` stay as they were.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import StreamBank, backend
from repro.core.grng_bank import GrngBank
from repro.core.sampler import BatchedWeightSampler

SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308)


def _available(name: str) -> bool:
    if name == "reference":
        return True
    listing = next(e for e in backend.list_backends() if e["kernel"] == "grng_block")
    return next(b for b in listing["backends"] if b["name"] == name)["available"]


def _force(name: str):
    if not _available(name):
        pytest.skip("grng_block/native unavailable: no C compiler, or the build failed")
    return backend.using("grng_block", name)


BACKENDS = pytest.mark.parametrize("name", ["native", "reference"])


def _calls(name: str) -> int:
    return backend.counters_snapshot().get("grng_block", {}).get(name, {}).get("calls", 0)


def _canonical(array: np.ndarray) -> bytes:
    return np.where(np.isnan(array), np.nan, array).tobytes()


def _parameters(rng, count: int, specials: bool):
    mu = rng.standard_normal(count) * 2.0
    sigma = rng.random(count)
    if specials:
        for array, allowed in ((mu, SPECIALS), (sigma, SPECIALS[:3] + SPECIALS[4:6])):
            picked = rng.random(count) < 0.25
            array[picked] = rng.choice(allowed, size=int(picked.sum()))
    return mu, sigma


GEOMETRIES = st.sampled_from(
    [(256, 64), (256, 256), (256, 512), (128, 128), (128, 64), (192, 192), (192, 64)]
)


@BACKENDS
@given(
    rows=st.sampled_from([1, 3, 8, 9, 16]),
    geometry=GEOMETRIES,
    count=st.integers(1, 300),
    specials=st.booleans(),
    want_eps=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_fused_weights_equal_build_weights(name, rows, geometry, count, specials,
                                           want_eps, seed):
    n_bits, stride = geometry
    rng = np.random.default_rng(seed)
    mu, sigma = _parameters(rng, count, specials)
    indices = rng.integers(0, 1 << 20, size=rows).tolist()
    fused = GrngBank(n_bits=n_bits, seed_indices=indices, stride=stride)
    plain = GrngBank(n_bits=n_bits, seed_indices=indices, stride=stride)
    with _force(name), np.errstate(all="ignore"):
        before = _calls(name)
        weights, epsilon = fused.weight_blocks(mu, sigma, epsilon=want_eps)
        eps = plain.epsilon_blocks(count)
        assert _calls(name) == before + 2, "a call fell through to another backend"
        want = BatchedWeightSampler._build_weights(mu, sigma, eps)
    assert weights.shape == (rows, count) and weights.dtype == np.float64
    assert _canonical(weights) == _canonical(want)
    if want_eps:
        assert epsilon.tobytes() == eps.tobytes()
    else:
        assert epsilon is None
    assert fused.states() == plain.states()
    # a replay from the start words regenerates both, and leaves the bank be
    start = GrngBank(n_bits=n_bits, seed_indices=indices, stride=stride).register_words()
    with _force(name), np.errstate(all="ignore"):
        again, replayed_eps, _, end = fused.replay_weight_blocks(start, mu, sigma)
        # and jumped back from where it ended, in the same one call
        rewound = fused.replay_weight_blocks(end, mu, sigma, rewind=count * stride)
    assert _canonical(again) == _canonical(want)
    assert replayed_eps.tobytes() == eps.tobytes()
    assert np.array_equal(end, fused.register_words())
    assert _canonical(rewound[0]) == _canonical(want)
    assert rewound[1].tobytes() == eps.tobytes()
    assert np.array_equal(rewound[2], start) and np.array_equal(rewound[3], end)
    assert fused.states() == plain.states()


@BACKENDS
@given(
    schedule=st.lists(st.integers(1, 700), min_size=1, max_size=6),
    rows=st.sampled_from([1, 3, 8, 9]),
    policy=st.sampled_from(["stored", "reversible"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_random_layer_schedules_match_the_unfused_path(name, schedule, rows, policy,
                                                       seed):
    """One-value layers and random schedules, forward then LIFO retrieval."""
    rng = np.random.default_rng(seed)
    layers = [_parameters(rng, count, specials=True) for count in schedule]
    bank = StreamBank(rows, policy=policy, seed=seed % 97, grng_stride=256)
    twin = StreamBank(rows, policy=policy, seed=seed % 97, grng_stride=256).grng_bank
    sampler = bank.batched_sampler()
    with _force(name), np.errstate(all="ignore"):
        forward = [sampler.sample(mu, sigma) for mu, sigma in layers]
        epsilons = [twin.epsilon_blocks(count) for count in schedule]
        backward = [sampler.resample(mu, sigma) for mu, sigma in reversed(layers)][::-1]
        bank.finish_iteration()
        for (mu, sigma), eps, fw, bw in zip(layers, epsilons, forward, backward):
            want = _canonical(BatchedWeightSampler._build_weights(mu, sigma, eps))
            assert _canonical(fw.weights) == want
            assert _canonical(bw.weights) == want
            assert bw.epsilon.tobytes() == eps.tobytes()
            if policy == "stored":
                assert fw.epsilon.tobytes() == eps.tobytes()
            else:
                assert fw.epsilon is None
    assert bank.grng_bank.states() == twin.states()


@BACKENDS
@pytest.mark.parametrize("policy", ["stored", "reversible"])
@pytest.mark.parametrize("stage", ["sample", "resample"])
def test_negative_sigma_moves_nothing(name, policy, stage):
    with _force(name):
        _refuse_negative_sigma(policy, stage)


def _refuse_negative_sigma(policy, stage):
    bank = StreamBank(9, policy=policy, seed=4, grng_stride=256)
    sampler = bank.batched_sampler()
    mu, sigma = np.zeros((5, 7)), np.full((5, 7), 0.5)
    sampler.sample(mu, sigma)
    bad = sigma.copy()
    bad[3, 6] = -1e-300  # the very last value of the block
    if stage == "resample":
        sampler.sample(mu, sigma)
    state = bank.grng_bank.states(), bank.grng_bank.register_words()
    usage = [dict(vars(usage)) for usage in bank.usages]
    pending = sampler.pending_blocks
    call = sampler.sample if stage == "sample" else sampler.resample
    with pytest.raises(ValueError, match="sigma must be non-negative"):
        call(mu, bad)
    assert bank.grng_bank.states() == state[0]
    assert np.array_equal(bank.grng_bank.register_words(), state[1])
    assert [vars(usage) for usage in bank.usages] == usage
    assert sampler.pending_blocks == pending
    # and the sampler carries on as if the refused call never happened
    for _ in range(sampler.pending_blocks):
        sampler.resample(mu, sigma)
    bank.finish_iteration()
