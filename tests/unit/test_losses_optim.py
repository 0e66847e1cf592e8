"""Unit tests for losses, optimisers and the Sequential container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    SGD,
    Adam,
    Dense,
    MeanSquaredError,
    Parameter,
    ReLU,
    Sequential,
    SoftmaxCrossEntropy,
    functional,
)


class TestSoftmaxCrossEntropy:
    def test_matches_manual_computation(self, rng):
        loss = SoftmaxCrossEntropy()
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 1])
        value = loss.forward(logits, labels)
        probs = functional.softmax(logits)
        expected = -np.mean(np.log(probs[np.arange(4), labels]))
        assert value == pytest.approx(expected)

    def test_gradient_numerically(self, rng, numeric_gradient):
        loss = SoftmaxCrossEntropy()
        logits = rng.normal(size=(3, 4))
        labels = np.array([1, 0, 3])

        def value():
            return loss.forward(logits, labels)

        loss.forward(logits, labels)
        grad = loss.backward()
        assert np.allclose(grad, numeric_gradient(value, logits), atol=1e-6)

    def test_perfect_prediction_has_low_loss(self):
        loss = SoftmaxCrossEntropy()
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        assert loss.forward(logits, np.array([0, 1])) < 1e-6

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            SoftmaxCrossEntropy().backward()

    def test_rejects_non_2d_logits(self):
        with pytest.raises(ValueError):
            SoftmaxCrossEntropy().forward(np.zeros(3), np.array([0]))

    def test_callable_interface(self, rng):
        loss = SoftmaxCrossEntropy()
        logits = rng.normal(size=(2, 2))
        assert loss(logits, np.array([0, 1])) == pytest.approx(
            loss.forward(logits, np.array([0, 1]))
        )


class TestMeanSquaredError:
    def test_value_and_gradient(self, rng, numeric_gradient):
        loss = MeanSquaredError()
        predictions = rng.normal(size=(4, 2))
        targets = rng.normal(size=(4, 2))

        def value():
            return loss.forward(predictions, targets)

        assert loss.forward(predictions, targets) == pytest.approx(
            float(np.mean((predictions - targets) ** 2))
        )
        grad = loss.backward()
        assert np.allclose(grad, numeric_gradient(value, predictions), atol=1e-6)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MeanSquaredError().forward(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            MeanSquaredError().backward()


class TestSGD:
    def test_plain_update(self):
        param = Parameter("w", np.array([1.0, 2.0]))
        param.grad[:] = np.array([0.5, -0.5])
        SGD([param], learning_rate=0.1).step()
        assert np.allclose(param.value, [0.95, 2.05])

    def test_momentum_accumulates_velocity(self):
        param = Parameter("w", np.zeros(1))
        optimizer = SGD([param], learning_rate=1.0, momentum=0.9)
        param.grad[:] = 1.0
        optimizer.step()
        first = param.value.copy()
        param.grad[:] = 1.0
        optimizer.step()
        # second step moves further because velocity has built up
        assert abs(param.value[0] - first[0]) > abs(first[0])

    def test_weight_decay_shrinks_parameters(self):
        param = Parameter("w", np.array([1.0]))
        optimizer = SGD([param], learning_rate=0.1, weight_decay=0.5)
        param.grad[:] = 0.0
        optimizer.step()
        assert param.value[0] < 1.0

    def test_zero_grad(self):
        param = Parameter("w", np.zeros(2))
        param.grad[:] = 5.0
        optimizer = SGD([param], learning_rate=0.1)
        optimizer.zero_grad()
        assert np.array_equal(param.grad, np.zeros(2))

    def test_validation(self):
        param = Parameter("w", np.zeros(1))
        with pytest.raises(ValueError):
            SGD([param], learning_rate=0.0)
        with pytest.raises(ValueError):
            SGD([param], learning_rate=0.1, momentum=1.5)
        with pytest.raises(ValueError):
            SGD([], learning_rate=0.1)


class TestAdam:
    def test_first_step_size_is_learning_rate(self):
        param = Parameter("w", np.zeros(1))
        param.grad[:] = 0.3
        Adam([param], learning_rate=0.01).step()
        # With bias correction the first Adam step has magnitude ~= lr.
        assert abs(param.value[0]) == pytest.approx(0.01, rel=1e-3)

    def test_converges_on_quadratic(self):
        param = Parameter("w", np.array([5.0]))
        optimizer = Adam([param], learning_rate=0.2)
        for _ in range(200):
            optimizer.zero_grad()
            param.grad[:] = 2 * param.value  # d/dw of w^2
            optimizer.step()
        assert abs(param.value[0]) < 0.05

    def test_weight_decay(self):
        param = Parameter("w", np.array([1.0]))
        optimizer = Adam([param], learning_rate=0.01, weight_decay=1.0)
        param.grad[:] = 0.0
        optimizer.step()
        assert param.value[0] < 1.0

    def test_load_state_dict_is_all_or_nothing(self):
        params = [Parameter("a", np.zeros(3)), Parameter("b", np.zeros((2, 2)))]
        optimizer = Adam(params, learning_rate=0.1)
        for param in params:
            param.grad[...] = 0.5
        optimizer.step()
        before = {slot: [a.tobytes() for a in arrays]
                  for slot, arrays in optimizer.slot_arrays().items()}
        state = optimizer.state_dict()
        state["slots"] = {slot: [a + 1.0 for a in arrays] for slot, arrays in state["slots"].items()}
        state["slots"]["m"][-1] = np.zeros(4)  # the last m tensor has the wrong shape
        with pytest.raises(ValueError, match="shape mismatch"):
            optimizer.load_state_dict(state)
        after = {slot: [a.tobytes() for a in arrays]
                 for slot, arrays in optimizer.slot_arrays().items()}
        assert after == before

    def test_validation(self):
        param = Parameter("w", np.zeros(1))
        with pytest.raises(ValueError):
            Adam([param], learning_rate=0.01, beta1=1.0)
        with pytest.raises(ValueError):
            Adam([param], learning_rate=-1.0)


class TestSequential:
    def test_forward_backward_chain(self, rng):
        model = Sequential([Dense(4, 8, rng=rng), ReLU(), Dense(8, 2, rng=rng)])
        x = rng.normal(size=(3, 4))
        out = model.forward(x)
        assert out.shape == (3, 2)
        grad = model.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_parameters_collects_all_layers(self, rng):
        model = Sequential([Dense(4, 8, rng=rng), ReLU(), Dense(8, 2, rng=rng)])
        assert len(model.parameters()) == 4
        assert model.parameter_count == 4 * 8 + 8 + 8 * 2 + 2

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_indexing_iteration_len(self, rng):
        model = Sequential([Dense(4, 8, rng=rng), ReLU()])
        assert len(model) == 2
        assert isinstance(model[1], ReLU)
        assert len(list(model)) == 2

    def test_train_eval_propagates(self, rng):
        model = Sequential([Dense(4, 8, rng=rng), ReLU()])
        model.eval()
        assert all(not layer.training for layer in model)
        model.train()
        assert all(layer.training for layer in model)

    def test_summary_mentions_layers(self, rng):
        model = Sequential([Dense(4, 8, rng=rng), ReLU()])
        text = model.summary()
        assert "Dense" in text and "ReLU" in text

    def test_trains_to_fit_toy_problem(self, rng):
        x = rng.normal(size=(128, 6))
        true_w = rng.normal(size=(6, 3))
        y = (x @ true_w).argmax(axis=1)
        model = Sequential([Dense(6, 16, rng=rng), ReLU(), Dense(16, 3, rng=rng)])
        loss = SoftmaxCrossEntropy()
        optimizer = Adam(model.parameters(), learning_rate=0.02)
        first = None
        for _ in range(150):
            optimizer.zero_grad()
            value = loss.forward(model.forward(x), y)
            if first is None:
                first = value
            model.backward(loss.backward())
            optimizer.step()
        assert value < first * 0.2
