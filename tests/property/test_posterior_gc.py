"""Byte-for-byte oracle for the posterior's GC stage on both backends.

``GaussianPosterior.accumulate_sample_gradients`` folds S Monte-Carlo samples'
weight gradients into ``mu.grad`` / ``rho.grad`` through the ``posterior_gc``
dispatch point.  The NumPy body it ran before that dispatch point existed is
pasted below as the oracle, and both backends -- the NumPy ``reference`` and
the compiled ``native`` loop -- are held to its bytes over random sample
counts, dense and conv shapes, KL weights, the entropy switch, NaN / +-inf /
-0.0 in every input, and fresh or pre-filled gradients.  Counters prove the
forced backend ran; inputs outside the compiled loop's domain (a strided
stack, the distributed tape) must be declined and still give these bytes.

NaN-ness is compared, NaN payload bits are not: NumPy's own payload for a
NaN meeting a NaN depends on whether its SIMD body or its scalar tail
handled the element, so the oracle does not define them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bnn.grad_tape import SampleGradientTape
from repro.bnn.posteriors import GaussianPosterior, softplus_grad
from repro.core import backend


# ----------------------------------------------------------------------
# the oracle: accumulate_sample_gradients' body before posterior_gc
# ----------------------------------------------------------------------
def _oracle(posterior, grad_weight, epsilon, kl_weight, prior_nll_grad, sigma,
            include_entropy_term=True, tape=None):
    total_w_grad = grad_weight + kl_weight * prior_nll_grad
    sigma_grad = epsilon * total_w_grad
    if include_entropy_term:
        sigma_grad = sigma_grad - kl_weight / sigma
    rho_grad = sigma_grad * softplus_grad(posterior.rho.value)
    if tape is not None:
        tape.record(posterior.mu.name, total_w_grad)
        tape.record(posterior.rho.name, rho_grad)
        return
    for s in range(grad_weight.shape[0]):
        posterior.mu.grad += total_w_grad[s]
        posterior.rho.grad += rho_grad[s]


def _canonical(array: np.ndarray) -> bytes:
    assert array.dtype == np.float64
    return np.where(np.isnan(array), np.nan, array).tobytes()


def _plant_specials(rng, array: np.ndarray) -> None:
    flat = array.reshape(-1)
    for value in (np.nan, np.inf, -np.inf, -0.0):
        flat[rng.random(flat.size) < 0.08] = value


def _posterior(shape, rng) -> GaussianPosterior:
    return GaussianPosterior(shape, lambda s, r: r.standard_normal(s), 0.1, "w", rng)


def _inputs(seed, samples, shape, specials, prefilled):
    """Two identical posteriors plus the step's stacks."""
    rng = np.random.default_rng(seed)
    stack = (samples, *shape)
    arrays = {
        "grad_weight": rng.standard_normal(stack),
        "epsilon": rng.standard_normal(stack),
        "prior_nll_grad": rng.standard_normal(stack),
    }
    rho = rng.standard_normal(shape) - 2.0
    mu_grad = rng.standard_normal(shape) if prefilled else np.zeros(shape)
    rho_grad = rng.standard_normal(shape) if prefilled else np.zeros(shape)
    if prefilled:
        rho_grad[rng.random(shape) < 0.3] = -0.0
    if specials:
        for array in (*arrays.values(), rho, mu_grad, rho_grad):
            _plant_specials(rng, array)
    posteriors = []
    for _ in range(2):
        posterior = _posterior(shape, rng)
        posterior.rho.value[...] = rho
        posterior.mu.grad[...] = mu_grad
        posterior.rho.grad[...] = rho_grad
        posteriors.append(posterior)
    with np.errstate(all="ignore"):
        arrays["sigma"] = posteriors[0].sigma
    return posteriors, arrays


def _calls(name: str) -> int:
    ran = backend.counters_snapshot().get("posterior_gc", {}).get(name, {})
    return ran.get("calls", 0)


def _force(name: str):
    if name == "native" and not next(
        impl["available"]
        for entry in backend.list_backends()
        if entry["kernel"] == "posterior_gc"
        for impl in entry["backends"]
        if impl["name"] == "native"
    ):
        pytest.skip("no C compiler: posterior_gc/native is unavailable")
    return backend.using("posterior_gc", name)


DENSE = st.tuples(st.integers(1, 40), st.integers(1, 12))
CONV = st.tuples(st.integers(1, 6), st.integers(1, 4), st.integers(1, 3), st.integers(1, 3))
BACKENDS = pytest.mark.parametrize("name", ["reference", "native"])


@BACKENDS
@given(
    seed=st.integers(0, 2**32 - 1),
    samples=st.integers(1, 9),
    shape=st.one_of(DENSE, CONV),
    kl_weight=st.one_of(st.sampled_from([0, 0.0]), st.floats(1e-6, 10.0)),
    include_entropy_term=st.booleans(),
    specials=st.booleans(),
    prefilled=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_gc_matches_the_pre_dispatch_body(
    name, seed, samples, shape, kl_weight, include_entropy_term, specials, prefilled
):
    (got, want), arrays = _inputs(seed, samples, shape, specials, prefilled)
    with np.errstate(all="ignore"):
        _oracle(want, kl_weight=kl_weight, include_entropy_term=include_entropy_term,
                **arrays)
        with _force(name):
            before = _calls(name)
            got.accumulate_sample_gradients(
                kl_weight=kl_weight, include_entropy_term=include_entropy_term, **arrays
            )
            assert _calls(name) == before + 1, "the call fell through to another backend"
    assert _canonical(got.mu.grad) == _canonical(want.mu.grad)
    assert _canonical(got.rho.grad) == _canonical(want.rho.grad)


@pytest.mark.parametrize("tamper", ["strided", "transposed", "float32", "tape"])
def test_outside_the_compiled_domain_the_reference_answers(tamper):
    (got, want), arrays = _inputs(11, 3, (4, 2, 3, 3), specials=False, prefilled=True)
    if tamper == "strided":
        wide = np.empty(arrays["epsilon"].shape[:-1] + (6,))
        wide[..., ::2] = arrays["epsilon"]
        arrays["epsilon"] = wide[..., ::2]
    elif tamper == "transposed":
        arrays["grad_weight"] = np.ascontiguousarray(
            arrays["grad_weight"].transpose(0, 1, 2, 4, 3)
        ).transpose(0, 1, 2, 4, 3)
    elif tamper == "float32":
        arrays["prior_nll_grad"] = arrays["prior_nll_grad"].astype(np.float32)
    assert arrays["epsilon"].flags.c_contiguous == (tamper != "strided")
    got_tape, want_tape = SampleGradientTape(), SampleGradientTape()
    _oracle(want, kl_weight=0.25, tape=want_tape if tamper == "tape" else None, **arrays)
    with _force("native"):
        before = _calls("native"), _calls("reference")
        if tamper == "tape":
            with got_tape:
                got.accumulate_sample_gradients(kl_weight=0.25, **arrays)
        else:
            got.accumulate_sample_gradients(kl_weight=0.25, **arrays)
        assert (_calls("native"), _calls("reference")) == (before[0], before[1] + 1)
    assert got.mu.grad.tobytes() == want.mu.grad.tobytes()
    assert got.rho.grad.tobytes() == want.rho.grad.tobytes()
    assert got_tape.contributions.keys() == want_tape.contributions.keys()
    for key, stack in want_tape.contributions.items():
        assert got_tape.contributions[key].tobytes() == stack.tobytes()
