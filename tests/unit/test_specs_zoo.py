"""Unit tests for model specifications and the model zoo."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bnn import BayesianNetwork
from repro.core import StreamBank
from repro.models import (
    PAPER_MODEL_NAMES,
    ActivationSpec,
    ConvSpec,
    DenseSpec,
    FlattenSpec,
    ModelSpec,
    PoolSpec,
    get_model,
    paper_models,
    reduced_models,
)
from repro.nn import Sequential


class TestTrace:
    def test_conv_trace_shapes(self, tiny_conv_spec):
        traces = tiny_conv_spec.trace()
        conv = traces[0]
        assert conv.kind == "conv"
        assert conv.input_shape == (2, 8, 8)
        assert conv.output_shape == (3, 8, 8)
        assert conv.weight_count == 3 * 2 * 9
        assert conv.macs == conv.weight_count * 64

    def test_pool_and_flatten_shapes(self, tiny_conv_spec):
        traces = {trace.name: trace for trace in tiny_conv_spec.trace()}
        assert traces["pool1"].output_shape == (3, 4, 4)
        assert traces["flatten"].output_shape == (48,)

    def test_dense_trace(self, tiny_mlp_spec):
        traces = tiny_mlp_spec.trace()
        assert traces[0].kind == "dense"
        assert traces[0].input_shape == (16,)
        assert traces[0].weight_count == 16 * 8
        assert traces[0].macs == 16 * 8

    def test_weighted_layers_filter(self, tiny_conv_spec):
        assert [t.kind for t in tiny_conv_spec.weighted_layers()] == ["conv", "dense"]

    def test_dense_before_flatten_rejected(self):
        spec = ModelSpec(
            name="broken",
            input_shape=(1, 4, 4),
            num_classes=2,
            dataset="x",
            layers=(DenseSpec("fc", 2),),
        )
        with pytest.raises(ValueError):
            spec.trace()

    def test_conv_after_flatten_rejected(self):
        spec = ModelSpec(
            name="broken",
            input_shape=(1, 8, 8),
            num_classes=2,
            dataset="x",
            layers=(FlattenSpec(), ConvSpec("conv", 2, 3)),
        )
        with pytest.raises(ValueError):
            spec.trace()

    def test_double_flatten_rejected(self):
        spec = ModelSpec(
            name="broken",
            input_shape=(1, 8, 8),
            num_classes=2,
            dataset="x",
            layers=(FlattenSpec("f1"), FlattenSpec("f2")),
        )
        with pytest.raises(ValueError):
            spec.trace()

    def test_pool_kind_validation(self):
        with pytest.raises(ValueError):
            PoolSpec("p", "median", 2)

    def test_aggregates(self, tiny_conv_spec):
        assert tiny_conv_spec.weight_count == 3 * 2 * 9 + 48 * 3
        assert tiny_conv_spec.mac_count == 3 * 2 * 9 * 64 + 48 * 3
        assert tiny_conv_spec.output_features == 3


class TestBuilders:
    def test_build_bayesian_structure(self, tiny_conv_spec):
        model = tiny_conv_spec.build_bayesian(seed=1)
        assert isinstance(model, BayesianNetwork)
        assert model.n_bayesian_weights == tiny_conv_spec.weight_count

    def test_build_dnn_structure(self, tiny_conv_spec):
        model = tiny_conv_spec.build_dnn(seed=1)
        assert isinstance(model, Sequential)

    def test_builds_execute_with_consistent_shapes(self, tiny_conv_spec, rng):
        bayesian = tiny_conv_spec.build_bayesian(seed=1)
        dnn = tiny_conv_spec.build_dnn(seed=1)
        x = rng.normal(size=(2, *tiny_conv_spec.input_shape))
        bank = StreamBank(1, seed=0, grng_stride=8)
        out_b = bayesian.forward_sample(x, bank.sampler(0))
        out_d = dnn.forward(x)
        assert out_b.shape == out_d.shape == (2, 3)

    def test_build_is_deterministic_per_seed(self, tiny_mlp_spec):
        a = tiny_mlp_spec.build_bayesian(seed=3)
        b = tiny_mlp_spec.build_bayesian(seed=3)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.value, pb.value)

    def test_mlp_spec_flattened_input(self, tiny_mlp_spec, rng):
        model = tiny_mlp_spec.build_bayesian(seed=0)
        bank = StreamBank(1, seed=0, grng_stride=8)
        out = model.forward_sample(rng.normal(size=(3, 16)), bank.sampler(0))
        assert out.shape == (3, 3)


class TestZoo:
    def test_registries_cover_all_paper_models(self):
        assert set(paper_models()) == set(PAPER_MODEL_NAMES)
        assert set(reduced_models()) == set(PAPER_MODEL_NAMES)

    def test_get_model_lookup_and_error(self):
        assert get_model("B-VGG").name == "B-VGG"
        assert get_model("B-VGG", reduced=True).name == "B-VGG-small"
        with pytest.raises(KeyError):
            get_model("B-Transformer")

    def test_known_parameter_counts(self):
        # Published reference sizes for the backbone networks.
        assert paper_models()["B-VGG"].weight_count == pytest.approx(138e6, rel=0.01)
        assert paper_models()["B-AlexNet"].weight_count == pytest.approx(61e6, rel=0.02)
        assert paper_models()["B-ResNet"].weight_count == pytest.approx(11.2e6, rel=0.05)
        assert paper_models()["B-MLP"].weight_count == pytest.approx(638_000, rel=0.01)

    def test_vgg_mac_count_order_of_magnitude(self):
        # VGG-16 is ~15.5 GMACs for a 224x224 forward pass.
        assert paper_models()["B-VGG"].mac_count == pytest.approx(15.5e9, rel=0.05)

    def test_model_layer_counts(self):
        assert len(paper_models()["B-VGG"].weighted_layers()) == 16
        assert len(paper_models()["B-AlexNet"].weighted_layers()) == 8
        assert len(paper_models()["B-MLP"].weighted_layers()) == 4
        assert len(paper_models()["B-LeNet"].weighted_layers()) == 5
        assert len(paper_models()["B-ResNet"].weighted_layers()) == 18

    def test_full_models_trace_without_error(self):
        for spec in paper_models().values():
            traces = spec.trace()
            assert all(trace.output_size > 0 for trace in traces)

    def test_reduced_models_are_small_enough_to_train(self):
        for spec in reduced_models().values():
            assert spec.weight_count < 100_000

    def test_reduced_models_build_and_run(self, rng):
        for spec in reduced_models().values():
            model = spec.build_bayesian(seed=0)
            bank = StreamBank(1, seed=0, grng_stride=8)
            if spec.flatten_input:
                x = rng.normal(size=(2, int(np.prod(spec.input_shape))))
            else:
                x = rng.normal(size=(2, *spec.input_shape))
            out = model.forward_sample(x, bank.sampler(0))
            assert out.shape == (2, spec.num_classes)

    def test_fc_dominance_of_mlp_vs_conv_dominance_of_vgg(self):
        mlp = paper_models()["B-MLP"]
        vgg = paper_models()["B-VGG"]
        mlp_fc_macs = sum(t.macs for t in mlp.weighted_layers() if t.kind == "dense")
        vgg_conv_macs = sum(t.macs for t in vgg.weighted_layers() if t.kind == "conv")
        assert mlp_fc_macs == mlp.mac_count  # B-MLP is all-FC
        assert vgg_conv_macs / vgg.mac_count > 0.95  # B-VGG is conv-dominated

    def test_weights_much_larger_than_feature_maps(self):
        # Section 3: across the five models weights are on average much larger
        # than the per-sample feature maps (paper quotes ~122x).
        ratios = []
        for spec in paper_models().values():
            feature_elements = sum(t.output_size for t in spec.weighted_layers())
            ratios.append(spec.weight_count / feature_elements)
        assert np.mean(ratios) > 20

    @pytest.mark.parametrize("reduced", [False, True])
    @pytest.mark.parametrize("name", PAPER_MODEL_NAMES)
    def test_every_zoo_spec_round_trips_through_json(self, name, reduced):
        spec = get_model(name, reduced=reduced)
        restored = ModelSpec.from_config(json.loads(json.dumps(spec.to_config())))
        assert restored == spec and repr(restored) == repr(spec)

    def test_dataset_labels(self):
        assert paper_models()["B-MLP"].dataset == "MNIST"
        assert paper_models()["B-LeNet"].dataset == "CIFAR-10"
        assert paper_models()["B-VGG"].dataset == "ImageNet"


class TestSpecValidation:
    def test_activation_and_flatten_default_names(self):
        assert ActivationSpec().name == "relu"
        assert FlattenSpec().name == "flatten"

    def test_spec_is_frozen(self):
        spec = ConvSpec("c", 8, 3)
        with pytest.raises(AttributeError):
            spec.out_channels = 16  # type: ignore[misc]


class TestReplicaSpec:
    def test_capture_and_build_round_trip_is_bit_exact(self, tiny_mlp_spec):
        from repro.models import ReplicaSpec

        source = tiny_mlp_spec.build_bayesian(seed=3)
        # perturb so the replica cannot pass by re-initialisation alone
        for parameter in source.parameters():
            parameter.value += 0.125
        replica = ReplicaSpec.capture(tiny_mlp_spec, source).build()
        for original, copied in zip(source.parameters(), replica.parameters()):
            assert original.name == copied.name
            assert np.array_equal(original.value, copied.value)
            assert original.value is not copied.value  # a real copy

    def test_capture_state_is_a_snapshot(self, tiny_mlp_spec):
        from repro.models import ReplicaSpec

        source = tiny_mlp_spec.build_bayesian(seed=3)
        replica_spec = ReplicaSpec.capture(tiny_mlp_spec, source)
        before = {k: v.copy() for k, v in replica_spec.state.items()}
        for parameter in source.parameters():
            parameter.value += 1.0  # training continues after capture
        for name, value in replica_spec.state.items():
            assert np.array_equal(value, before[name])

    def test_mismatched_state_raises(self, tiny_mlp_spec, tiny_conv_spec):
        from repro.models import ReplicaSpec

        source = tiny_mlp_spec.build_bayesian(seed=0)
        captured = ReplicaSpec.capture(tiny_mlp_spec, source)
        from dataclasses import replace

        mismatched = replace(captured, spec=tiny_conv_spec)
        with pytest.raises(ValueError):
            mismatched.build()

    def test_replica_spec_survives_pickling(self, tiny_mlp_spec):
        import pickle

        from repro.models import ReplicaSpec

        source = tiny_mlp_spec.build_bayesian(seed=3)
        replica_spec = pickle.loads(
            pickle.dumps(ReplicaSpec.capture(tiny_mlp_spec, source))
        )
        replica = replica_spec.build()
        for original, copied in zip(source.parameters(), replica.parameters()):
            assert np.array_equal(original.value, copied.value)
