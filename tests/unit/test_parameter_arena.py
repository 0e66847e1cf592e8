"""The optimiser's parameter arena and the posteriors' sigma pin.

An optimiser packs its parameters into one float64 buffer per role and
updates them with whole-buffer ufuncs; the oracles below are the per-tensor
update loops it replaced, pasted in, so "same bytes" is checked against an
independent formulation.  Every write to an arena moves its generation on,
and a posterior's ``(softplus(rho), sigmoid(rho))`` pin is keyed on it: after
each writer the pin must equal a fresh computation byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bnn import BNNTrainer, TrainerConfig, load_checkpoint, save_checkpoint
from repro.bnn.elbo import gaussian_kl_divergence
from repro.bnn.posteriors import softplus, softplus_grad
from repro.datasets import BatchLoader, synthetic_cifar10, synthetic_mnist
from repro.distrib import distributed_trainer
from repro.models import get_model
from repro.nn.layers import Parameter
from repro.nn.optim import SGD, Adam, ParameterArena


# ----------------------------------------------------------------------
# oracles: the per-tensor updates before the arena
# ----------------------------------------------------------------------
def _sgd_oracle(values, grads, velocity, lr, momentum, weight_decay):
    for value, grad, vel in zip(values, grads, velocity):
        if weight_decay:
            grad = grad + weight_decay * value
        if momentum:
            vel *= momentum
            vel += grad
            grad = vel
        value -= lr * grad


def _adam_oracle(values, grads, m_slots, v_slots, step, lr, beta1, beta2, eps, wd):
    bias1 = 1.0 - beta1**step
    bias2 = 1.0 - beta2**step
    for value, grad, m, v in zip(values, grads, m_slots, v_slots):
        if wd:
            grad = grad + wd * value
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad * grad
        m_hat = m / bias1
        v_hat = v / bias2
        value -= lr * m_hat / (np.sqrt(v_hat) + eps)


def _parameters(seed):
    rng = np.random.default_rng(seed)
    shapes = [(3, 4), (4,), (), (2, 2, 3)]
    return [Parameter(f"p{i}", rng.standard_normal(shape)) for i, shape in enumerate(shapes)]


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize(
    "kind", ["adam", "sgd", "sgd-momentum"]
)
def test_arena_updates_match_the_per_tensor_loops(kind, weight_decay):
    params = _parameters(1)
    values = [np.array(param.value) for param in params]
    if kind == "adam":
        optimizer = Adam(params, learning_rate=0.01, weight_decay=weight_decay)
        m_slots = [np.zeros_like(value) for value in values]
        v_slots = [np.zeros_like(value) for value in values]
    else:
        momentum = 0.9 if kind == "sgd-momentum" else 0.0
        optimizer = SGD(
            params, learning_rate=0.1, momentum=momentum, weight_decay=weight_decay
        )
        velocity = [np.zeros_like(value) for value in values]
    rng = np.random.default_rng(2)
    for step in range(1, 6):
        optimizer.zero_grad()
        grads = [rng.standard_normal(value.shape) for value in values]
        grads[0][0, 0] = -0.0
        for param, grad in zip(params, grads):
            param.grad += grad
        optimizer.step()
        if kind == "adam":
            _adam_oracle(values, grads, m_slots, v_slots, step, 0.01, 0.9, 0.999,
                         1e-8, weight_decay)
        else:
            _sgd_oracle(values, grads, velocity, 0.1, momentum, weight_decay)
        for param, value in zip(params, values):
            assert param.value.tobytes() == value.tobytes()


def test_arena_values_are_read_only_views():
    params = _parameters(3)
    optimizer = Adam(params)
    arena = optimizer.arena
    for param in params:
        assert param.arena is arena
        assert np.shares_memory(param.value, arena.value)
        assert np.shares_memory(param.grad, arena.grad)
        with pytest.raises(ValueError, match="read-only"):
            param.value[...] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            param.value += 1.0
        with pytest.raises(ValueError, match="arena"):
            param.freeze()
    # the writers move the generation on; Parameter.assign is the load path
    before = arena.generation
    params[0].assign(np.full(params[0].value.shape, 2.0))
    assert np.all(params[0].value == 2.0) and arena.generation != before
    before = arena.generation
    optimizer.step()
    assert arena.generation != before


def test_a_second_arena_retires_the_first_optimizer():
    params = _parameters(4)
    first = SGD(params)
    second = SGD(params)
    with pytest.raises(RuntimeError, match="taken over"):
        first.step()
    second.step()


def test_arena_rejects_duplicates_and_other_dtypes():
    param = Parameter("w", np.zeros(3))
    with pytest.raises(ValueError, match="twice"):
        ParameterArena([param, param])
    with pytest.raises(ValueError, match="float64"):
        ParameterArena([Parameter("h", np.zeros(3, dtype=np.float32))])


# ----------------------------------------------------------------------
# the pin stays fresh after every writer
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def dense():
    spec = get_model("B-MLP", reduced=True)
    train, _ = synthetic_mnist(n_train=32, n_test=16, image_size=14, seed=3)
    batches = BatchLoader(train, batch_size=16, flatten=True).batches()
    return spec, batches


def _trainer(spec, optimizer="adam", **kwargs):
    config = TrainerConfig(
        n_samples=2, learning_rate=5e-3, seed=11, optimizer=optimizer, **kwargs
    )
    return BNNTrainer(spec.build_bayesian(seed=99), config)


def _read_pins(model):
    """Fill every pin (the forward pass's sigma, the GC stage's sigmoid)."""
    for layer in model.bayesian_layers():
        posterior = layer.weight_posterior
        posterior.sigma
        posterior._pinned(2, softplus_grad)


def _assert_pins_filled(model):
    """Every pin already carries the current generation: something read it."""
    for layer in model.bayesian_layers():
        posterior = layer.weight_posterior
        assert posterior._pin[0] == posterior.rho.arena.generation


def _assert_pins_fresh(model):
    for layer in model.bayesian_layers():
        posterior = layer.weight_posterior
        rho = np.array(posterior.rho.value)
        assert posterior.sigma is posterior.sigma  # pinned, not recomputed
        assert posterior.sigma.tobytes() == softplus(rho).tobytes()
        sigmoid = posterior._pinned(2, softplus_grad)
        assert sigmoid.tobytes() == softplus_grad(rho).tobytes()
        assert not posterior.sigma.flags.writeable
        assert not sigmoid.flags.writeable


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_pin_is_fresh_after_an_optimizer_step(dense, optimizer):
    spec, batches = dense
    trainer = _trainer(spec, optimizer=optimizer)
    for x, y in batches:
        _read_pins(trainer.model)
        trainer.train_step(x, y)
        _assert_pins_fresh(trainer.model)
    _read_pins(trainer.model)
    trainer.optimizer.step()
    _assert_pins_fresh(trainer.model)


def test_pin_is_fresh_after_checkpoint_and_state_loads(dense, tmp_path):
    spec, batches = dense
    source = _trainer(spec)
    for x, y in batches:
        source.train_step(x, y)
    path = save_checkpoint(source, tmp_path / "ckpt")
    target = _trainer(spec)
    target.train_step(*batches[0])
    _read_pins(target.model)
    load_checkpoint(target, path)
    _assert_pins_fresh(target.model)
    for mine, theirs in zip(target.model.parameters(), source.model.parameters()):
        assert mine.value.tobytes() == theirs.value.tobytes()
    _read_pins(target.model)
    target.optimizer.load_state_dict(source.optimizer.state_dict())
    _assert_pins_fresh(target.model)


def test_pin_is_fresh_after_a_distributed_step(dense):
    spec, batches = dense
    config = TrainerConfig(n_samples=4, learning_rate=5e-3, seed=11)
    reference = BNNTrainer(spec.build_bayesian(seed=0), config)
    with distributed_trainer(spec, config, n_workers=0, n_shards=2) as trainer:
        for x, y in batches:
            _read_pins(trainer.model)
            trainer.train_step(x, y)
            reference.train_step(x, y)
            _assert_pins_fresh(trainer.model)
            _assert_pins_fresh(trainer.backend._inline_engine.model)
        for mine, theirs in zip(trainer.model.parameters(), reference.model.parameters()):
            assert mine.value.tobytes() == theirs.value.tobytes()


def test_public_step_sequence_reads_a_fresh_pin(dense):
    """``zero_grad``, per-parameter ``grad *= scale``, ``optimizer.step()``,
    ``complexity()``, then the next ``forward_samples``: the sequence the
    traced benchmark re-enacts, in public calls, lands on ``train_step``'s
    bytes, and the complexity and the forward pass read the updated rho."""
    spec, batches = dense
    reference, manual = _trainer(spec), _trainer(spec)
    for step, (x, y) in enumerate(batches):
        reference.train_step(x, y)
        model = manual.model
        model.train()
        model.zero_grad()
        sampler = manual.bank.batched_sampler()
        if step:
            _assert_pins_filled(model)  # by complexity() after the last step
        logits = model.forward_samples(x, sampler)
        _assert_pins_fresh(model)
        grad_logits = np.empty_like(logits)
        for index in range(len(logits)):
            manual.loss.forward(logits[index], y)
            grad_logits[index] = manual.loss.backward()
        model.backward_samples(grad_logits, sampler, kl_weight=1.0)
        manual.bank.finish_iteration()
        for param in model.parameters():
            param.grad *= 1.0 / manual.config.n_samples
        manual.optimizer.step()
        fresh = sum(
            gaussian_kl_divergence(_FreshPosterior(layer.weight_posterior), model.prior)
            for layer in model.bayesian_layers()
        )
        assert model.complexity() == fresh
        _assert_pins_filled(model)
        _assert_pins_fresh(model)
    for mine, theirs in zip(manual.model.parameters(), reference.model.parameters()):
        assert mine.value.tobytes() == theirs.value.tobytes()


class _FreshPosterior:
    """A posterior's (mu, sigma) with sigma computed afresh from rho."""

    def __init__(self, posterior):
        self.mu = posterior.mu
        self.sigma = softplus(np.array(posterior.rho.value))

    def scratch(self):
        return np.empty_like(self.sigma), np.empty_like(self.sigma)


# ----------------------------------------------------------------------
# the analytic KL writes into scratch, byte for byte the one expression
# ----------------------------------------------------------------------
def _kl_oracle(posterior, prior) -> float:
    """The analytic KL as one expression over fresh temporaries: the code
    the scratch version replaced, pasted in."""
    sigma = posterior.sigma
    mu = posterior.mu.value
    prior_var = prior.sigma**2
    kl = (
        np.log(prior.sigma / sigma)
        + (sigma**2 + mu**2) / (2.0 * prior_var)
        - 0.5
    )
    return float(np.sum(kl))


@pytest.mark.parametrize("model_name", ["B-MLP", "B-LeNet"])
def test_complexities_equal_the_one_expression_kl_bytewise(model_name):
    spec = get_model(model_name, reduced=True)
    if model_name == "B-MLP":
        train, _ = synthetic_mnist(n_train=32, n_test=16, image_size=14, seed=3)
        batches = BatchLoader(train, batch_size=16, flatten=True).batches()
    else:
        train, _ = synthetic_cifar10(n_train=16, n_test=16, image_size=16, seed=3)
        batches = BatchLoader(train, batch_size=8).batches()
    trainer = _trainer(spec)
    model = trainer.model
    scratch = None
    for step in range(20):
        trainer.train_step(*batches[step % len(batches)])
        want = sum(
            _kl_oracle(layer.weight_posterior, model.prior)
            for layer in model.bayesian_layers()
        )
        got = trainer.history.complexities[-1]
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), step
        held = [layer.weight_posterior.scratch() for layer in model.bayesian_layers()]
        if scratch is not None:  # allocated once, then reused every step
            assert all(a is b for pair in zip(held, scratch) for a, b in zip(*pair))
        scratch = held
