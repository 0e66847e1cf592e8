"""Model zoo: the paper's five BNN models plus CPU-scale reduced variants.

Full-size specs match the architectures the paper evaluates (Section 7.1):

* **B-MLP** -- fully-connected BNN with 3 hidden layers, trained on MNIST;
* **B-LeNet** -- LeNet-5 on CIFAR-10;
* **B-AlexNet** -- AlexNet on ImageNet;
* **B-VGG** -- VGG-16 on ImageNet;
* **B-ResNet** -- ResNet-18 on ImageNet (residual additions are modelled as a
  flat convolution sequence including the 1x1 downsample projections; the
  element-wise skip additions carry no sampled weights and are negligible for
  the traffic analysis).

Every BNN model shares its spec with its DNN counterpart -- exactly how the
paper constructs the Fig. 2 comparison ("B-AlexNet is based on AlexNet").  The
``*_small`` variants keep the layer structure but shrink widths and input
resolution so that the functional training experiments (Fig. 9, Table 1) run
in seconds on a CPU.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..core import backend as kernel_backend
from .specs import (
    ActivationSpec,
    ConvSpec,
    DenseSpec,
    FlattenSpec,
    ModelSpec,
    PoolSpec,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..bnn.model import BayesianNetwork

__all__ = [
    "ReplicaSpec",
    "mlp_mnist",
    "lenet_cifar10",
    "alexnet_imagenet",
    "vgg16_imagenet",
    "resnet18_imagenet",
    "mlp_mnist_small",
    "lenet_cifar10_small",
    "alexnet_small",
    "vgg_small",
    "resnet_small",
    "paper_models",
    "reduced_models",
    "get_model",
    "PAPER_MODEL_NAMES",
]

#: Canonical order of the five evaluation models, as used in every figure.
PAPER_MODEL_NAMES: tuple[str, ...] = (
    "B-MLP",
    "B-LeNet",
    "B-AlexNet",
    "B-VGG",
    "B-ResNet",
)


# ----------------------------------------------------------------------
# full-size specifications (used analytically by the simulator)
# ----------------------------------------------------------------------
def mlp_mnist() -> ModelSpec:
    """B-MLP: 784-400-400-400-10 fully-connected network on MNIST."""
    return ModelSpec(
        name="B-MLP",
        input_shape=(1, 28, 28),
        num_classes=10,
        dataset="MNIST",
        flatten_input=True,
        description="Fully-connected BNN with 3 hidden layers of 400 units.",
        layers=(
            DenseSpec("fc1", 400),
            ActivationSpec("relu1"),
            DenseSpec("fc2", 400),
            ActivationSpec("relu2"),
            DenseSpec("fc3", 400),
            ActivationSpec("relu3"),
            DenseSpec("fc4", 10),
        ),
    )


def lenet_cifar10() -> ModelSpec:
    """B-LeNet: LeNet-5 adapted to 3-channel CIFAR-10 inputs."""
    return ModelSpec(
        name="B-LeNet",
        input_shape=(3, 32, 32),
        num_classes=10,
        dataset="CIFAR-10",
        description="LeNet-5 with 2 conv and 3 FC layers.",
        layers=(
            ConvSpec("conv1", out_channels=6, kernel_size=5),
            ActivationSpec("relu1"),
            PoolSpec("pool1", "max", 2),
            ConvSpec("conv2", out_channels=16, kernel_size=5),
            ActivationSpec("relu2"),
            PoolSpec("pool2", "max", 2),
            FlattenSpec("flatten"),
            DenseSpec("fc1", 120),
            ActivationSpec("relu3"),
            DenseSpec("fc2", 84),
            ActivationSpec("relu4"),
            DenseSpec("fc3", 10),
        ),
    )


def alexnet_imagenet() -> ModelSpec:
    """B-AlexNet: the standard 5-conv / 3-FC AlexNet on 224x224 ImageNet."""
    return ModelSpec(
        name="B-AlexNet",
        input_shape=(3, 224, 224),
        num_classes=1000,
        dataset="ImageNet",
        description="AlexNet with 5 conv and 3 FC layers.",
        layers=(
            ConvSpec("conv1", 64, kernel_size=11, stride=4, padding=2),
            ActivationSpec("relu1"),
            PoolSpec("pool1", "max", 3, 2),
            ConvSpec("conv2", 192, kernel_size=5, padding=2),
            ActivationSpec("relu2"),
            PoolSpec("pool2", "max", 3, 2),
            ConvSpec("conv3", 384, kernel_size=3, padding=1),
            ActivationSpec("relu3"),
            ConvSpec("conv4", 256, kernel_size=3, padding=1),
            ActivationSpec("relu4"),
            ConvSpec("conv5", 256, kernel_size=3, padding=1),
            ActivationSpec("relu5"),
            PoolSpec("pool3", "max", 3, 2),
            FlattenSpec("flatten"),
            DenseSpec("fc6", 4096),
            ActivationSpec("relu6"),
            DenseSpec("fc7", 4096),
            ActivationSpec("relu7"),
            DenseSpec("fc8", 1000),
        ),
    )


def vgg16_imagenet() -> ModelSpec:
    """B-VGG: VGG-16 (13 conv + 3 FC) on 224x224 ImageNet."""
    layers: list = []
    config = [
        (64, 2),
        (128, 2),
        (256, 3),
        (512, 3),
        (512, 3),
    ]
    index = 1
    for block, (width, repeats) in enumerate(config, start=1):
        for repeat in range(1, repeats + 1):
            layers.append(
                ConvSpec(f"conv{block}_{repeat}", width, kernel_size=3, padding=1)
            )
            layers.append(ActivationSpec(f"relu{index}"))
            index += 1
        layers.append(PoolSpec(f"pool{block}", "max", 2))
    layers.extend(
        [
            FlattenSpec("flatten"),
            DenseSpec("fc1", 4096),
            ActivationSpec("relu_fc1"),
            DenseSpec("fc2", 4096),
            ActivationSpec("relu_fc2"),
            DenseSpec("fc3", 1000),
        ]
    )
    return ModelSpec(
        name="B-VGG",
        input_shape=(3, 224, 224),
        num_classes=1000,
        dataset="ImageNet",
        description="VGG-16 with 13 conv and 3 FC layers.",
        layers=tuple(layers),
    )


def resnet18_imagenet() -> ModelSpec:
    """B-ResNet: ResNet-18 on 224x224 ImageNet, flattened to a conv sequence.

    Each basic block contributes its two 3x3 convolutions.  The element-wise
    skip additions carry no sampled weights and the 1x1 downsample projections
    (which run in parallel with a block, not in series) amount to under 2 % of
    the weights and MACs, so both are omitted from the flattened sequence;
    weight counts, MAC counts and feature-map sizes otherwise match ResNet-18
    for the purposes of the traffic / energy analysis.
    """
    layers: list = [
        ConvSpec("conv1", 64, kernel_size=7, stride=2, padding=3),
        ActivationSpec("relu1"),
        PoolSpec("pool1", "max", 3, 2),
    ]
    stage_widths = (64, 128, 256, 512)
    for stage, width in enumerate(stage_widths, start=1):
        for block in range(1, 3):
            first_stride = 2 if (stage > 1 and block == 1) else 1
            prefix = f"stage{stage}_block{block}"
            layers.append(
                ConvSpec(f"{prefix}_conv1", width, kernel_size=3, stride=first_stride, padding=1)
            )
            layers.append(ActivationSpec(f"{prefix}_relu1"))
            layers.append(ConvSpec(f"{prefix}_conv2", width, kernel_size=3, padding=1))
            layers.append(ActivationSpec(f"{prefix}_relu2"))
    layers.extend(
        [
            PoolSpec("global_pool", "avg", 7),
            FlattenSpec("flatten"),
            DenseSpec("fc", 1000),
        ]
    )
    return ModelSpec(
        name="B-ResNet",
        input_shape=(3, 224, 224),
        num_classes=1000,
        dataset="ImageNet",
        description="ResNet-18 flattened to a convolution sequence.",
        layers=tuple(layers),
    )


# ----------------------------------------------------------------------
# reduced (CPU-trainable) specifications
# ----------------------------------------------------------------------
def mlp_mnist_small() -> ModelSpec:
    """Reduced B-MLP: 196-64-64-64-10 on 14x14 synthetic MNIST."""
    return ModelSpec(
        name="B-MLP-small",
        input_shape=(1, 14, 14),
        num_classes=10,
        dataset="synthetic-MNIST",
        flatten_input=True,
        description="Reduced B-MLP for functional CPU experiments.",
        layers=(
            DenseSpec("fc1", 64),
            ActivationSpec("relu1"),
            DenseSpec("fc2", 64),
            ActivationSpec("relu2"),
            DenseSpec("fc3", 64),
            ActivationSpec("relu3"),
            DenseSpec("fc4", 10),
        ),
    )


def lenet_cifar10_small() -> ModelSpec:
    """Reduced B-LeNet: two 3x3 conv layers and two FC layers on 16x16 inputs."""
    return ModelSpec(
        name="B-LeNet-small",
        input_shape=(3, 16, 16),
        num_classes=10,
        dataset="synthetic-CIFAR-10",
        description="Reduced B-LeNet for functional CPU experiments.",
        layers=(
            ConvSpec("conv1", out_channels=6, kernel_size=3, padding=1),
            ActivationSpec("relu1"),
            PoolSpec("pool1", "max", 2),
            ConvSpec("conv2", out_channels=12, kernel_size=3, padding=1),
            ActivationSpec("relu2"),
            PoolSpec("pool2", "max", 2),
            FlattenSpec("flatten"),
            DenseSpec("fc1", 48),
            ActivationSpec("relu3"),
            DenseSpec("fc2", 10),
        ),
    )


def alexnet_small() -> ModelSpec:
    """Reduced B-AlexNet: three conv and two FC layers on 16x16 inputs."""
    return ModelSpec(
        name="B-AlexNet-small",
        input_shape=(3, 16, 16),
        num_classes=10,
        dataset="synthetic-ImageNet",
        description="Reduced B-AlexNet for functional CPU experiments.",
        layers=(
            ConvSpec("conv1", 12, kernel_size=3, padding=1),
            ActivationSpec("relu1"),
            PoolSpec("pool1", "max", 2),
            ConvSpec("conv2", 24, kernel_size=3, padding=1),
            ActivationSpec("relu2"),
            ConvSpec("conv3", 24, kernel_size=3, padding=1),
            ActivationSpec("relu3"),
            PoolSpec("pool2", "max", 2),
            FlattenSpec("flatten"),
            DenseSpec("fc1", 64),
            ActivationSpec("relu4"),
            DenseSpec("fc2", 10),
        ),
    )


def vgg_small() -> ModelSpec:
    """Reduced B-VGG: four 3x3 conv layers in two blocks plus two FC layers."""
    return ModelSpec(
        name="B-VGG-small",
        input_shape=(3, 16, 16),
        num_classes=10,
        dataset="synthetic-ImageNet",
        description="Reduced B-VGG for functional CPU experiments.",
        layers=(
            ConvSpec("conv1_1", 8, kernel_size=3, padding=1),
            ActivationSpec("relu1_1"),
            ConvSpec("conv1_2", 8, kernel_size=3, padding=1),
            ActivationSpec("relu1_2"),
            PoolSpec("pool1", "max", 2),
            ConvSpec("conv2_1", 16, kernel_size=3, padding=1),
            ActivationSpec("relu2_1"),
            ConvSpec("conv2_2", 16, kernel_size=3, padding=1),
            ActivationSpec("relu2_2"),
            PoolSpec("pool2", "max", 2),
            FlattenSpec("flatten"),
            DenseSpec("fc1", 48),
            ActivationSpec("relu_fc1"),
            DenseSpec("fc2", 10),
        ),
    )


def resnet_small() -> ModelSpec:
    """Reduced B-ResNet: a plain two-stage convolution stack plus a classifier.

    The reduced variant drops the skip additions (they carry no sampled
    weights); it exists so the precision study of Table 1 can exercise a
    deeper convolutional model functionally.
    """
    return ModelSpec(
        name="B-ResNet-small",
        input_shape=(3, 16, 16),
        num_classes=10,
        dataset="synthetic-ImageNet",
        description="Reduced B-ResNet (plain conv stack) for functional CPU experiments.",
        layers=(
            ConvSpec("conv1", 8, kernel_size=3, stride=1, padding=1),
            ActivationSpec("relu1"),
            ConvSpec("stage1_conv1", 8, kernel_size=3, padding=1),
            ActivationSpec("stage1_relu1"),
            ConvSpec("stage1_conv2", 8, kernel_size=3, padding=1),
            ActivationSpec("stage1_relu2"),
            ConvSpec("stage2_conv1", 16, kernel_size=3, stride=2, padding=1),
            ActivationSpec("stage2_relu1"),
            ConvSpec("stage2_conv2", 16, kernel_size=3, padding=1),
            ActivationSpec("stage2_relu2"),
            PoolSpec("global_pool", "avg", 4),
            FlattenSpec("flatten"),
            DenseSpec("fc", 10),
        ),
    )


# ----------------------------------------------------------------------
# registries
# ----------------------------------------------------------------------
def paper_models() -> dict[str, ModelSpec]:
    """The five full-size evaluation models keyed by their paper names."""
    return {
        "B-MLP": mlp_mnist(),
        "B-LeNet": lenet_cifar10(),
        "B-AlexNet": alexnet_imagenet(),
        "B-VGG": vgg16_imagenet(),
        "B-ResNet": resnet18_imagenet(),
    }


def reduced_models() -> dict[str, ModelSpec]:
    """CPU-trainable reduced variants keyed by the full model's paper name."""
    return {
        "B-MLP": mlp_mnist_small(),
        "B-LeNet": lenet_cifar10_small(),
        "B-AlexNet": alexnet_small(),
        "B-VGG": vgg_small(),
        "B-ResNet": resnet_small(),
    }


def get_model(name: str, reduced: bool = False) -> ModelSpec:
    """Look up a model spec by paper name (e.g. ``"B-VGG"``)."""
    registry = reduced_models() if reduced else paper_models()
    if name not in registry:
        raise KeyError(f"unknown model {name!r}; available: {sorted(registry)}")
    return registry[name]


# ----------------------------------------------------------------------
# replica construction (serving worker processes)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplicaSpec:
    """Everything needed to rebuild an exact copy of a trained BNN elsewhere.

    The serving worker processes each hold a private model replica; a
    ``ReplicaSpec`` is the picklable recipe they rebuild it from: the
    :class:`~repro.models.specs.ModelSpec`, the builder seed, and the trained
    parameter values captured by name
    (:meth:`~repro.bnn.model.BayesianNetwork.named_parameters`, the naming
    contract every archive uses).  Because :meth:`build` runs the
    ordinary ``spec.build_bayesian`` path and then overwrites every parameter
    with the captured bytes, every replica is bit-identical to the source
    model -- which is what makes serving results independent of which worker
    (or how many workers) executed a tile.

    ``backend_selection`` snapshots the kernel-backend choices
    (:func:`repro.core.backend.current_selection`) of the capturing process;
    :meth:`build` re-applies them so serving and distributed workers run
    replicas on the same backends.  Every eligible backend is bit-identical
    by the conformance gate, so the selection is deliberately excluded from
    :meth:`fingerprint` -- the rebuilt model's bytes do not depend on it.
    """

    spec: ModelSpec
    build_seed: int = 0
    state: dict[str, np.ndarray] | None = None
    quantization: object | None = field(default=None, repr=False)
    backend_selection: tuple[tuple[str, str], ...] | None = field(
        default=None, repr=False
    )

    @staticmethod
    def _selection_snapshot() -> tuple[tuple[str, str], ...]:
        return tuple(sorted(kernel_backend.current_selection().items()))

    @classmethod
    def structural(cls, spec: ModelSpec, build_seed: int = 0) -> "ReplicaSpec":
        """A replica recipe carrying only the structure, no trained state.

        The distributed *training* workers rebuild from this: the coordinator
        ships the current parameter values with every step (as
        content-addressed deltas against the worker's cache, or full on a
        cold start), so capturing a parameter snapshot here would be dead
        weight -- only the layer structure (and the build seed, for any
        structural randomness) must match the coordinator's model.
        """
        return cls(
            spec=spec,
            build_seed=build_seed,
            backend_selection=cls._selection_snapshot(),
        )

    @classmethod
    def capture(
        cls, spec: ModelSpec, model: "BayesianNetwork", build_seed: int = 0
    ) -> "ReplicaSpec":
        """Snapshot ``model``'s trained parameters against ``spec``."""
        state = {
            name: parameter.value.copy()
            for name, parameter in model.named_parameters().items()
        }
        return cls(
            spec=spec,
            build_seed=build_seed,
            state=state,
            quantization=model.quantization,
            backend_selection=cls._selection_snapshot(),
        )

    def fingerprint(self) -> str:
        """Content hash identifying the replica this spec rebuilds.

        Covers everything :meth:`build` consumes: the structural spec, the
        builder seed, every captured parameter tensor (name, shape, dtype and
        raw bytes) and the quantization setting.  Two specs with equal
        fingerprints rebuild bit-identical models, so the serving model
        registry can use the digest both as a version identity check (the
        same version name may not be re-registered with different contents)
        and as the provenance tag reported over the wire.
        """
        digest = hashlib.sha256()
        # frozen-dataclass reprs are deterministic and cover nested layer specs
        digest.update(repr(self.spec).encode())
        digest.update(f"build_seed={self.build_seed}".encode())
        if self.state is None:
            digest.update(b"structural")
        else:
            for name in sorted(self.state):
                value = np.ascontiguousarray(self.state[name])
                digest.update(name.encode())
                digest.update(f"{value.dtype}{value.shape}".encode())
                digest.update(value.tobytes())
        if self.quantization is not None:
            digest.update(repr(self.quantization).encode())
        return digest.hexdigest()

    def build(self) -> "BayesianNetwork":
        """Instantiate the replica (bit-identical parameters to the source)."""
        if self.backend_selection is not None:
            # Match the capturing process's kernel-backend choices, including
            # an empty selection (which clears any local overrides).  Specs
            # pickled before this field existed carry None and change nothing.
            kernel_backend.apply_selection(dict(self.backend_selection))
        model = self.spec.build_bayesian(seed=self.build_seed)
        if self.state is not None:
            model.assign_parameters(self.state)
        if self.quantization is not None:
            model.quantization = self.quantization
        return model
