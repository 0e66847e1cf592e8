"""Model specifications shared by the functional trainer and the simulator.

A :class:`ModelSpec` is a declarative description of a network: layer kinds
and shapes only, no arrays.  The same spec serves two consumers:

* ``build_bayesian()`` / ``build_dnn()`` instantiate runnable NumPy networks
  for the functional experiments (training equivalence, precision study);
* :meth:`ModelSpec.trace` resolves every layer's tensor shapes, weight counts
  and MAC counts, which is all the analytic accelerator simulator needs to
  reproduce the paper's traffic / energy / latency results for the full-size
  models (B-AlexNet, B-VGG, B-ResNet) that are too large to train on a CPU.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Union

import numpy as np

from ..bnn.bayes_layers import BayesConv2D, BayesDense
from ..bnn.model import BayesianNetwork
from ..nn.layers import AvgPool2D, Conv2D, Dense, Flatten, Layer, MaxPool2D, ReLU
from ..nn.network import Sequential
from ..nn.tensor_utils import conv_output_size

__all__ = [
    "ConvSpec",
    "DenseSpec",
    "PoolSpec",
    "ActivationSpec",
    "FlattenSpec",
    "LayerSpec",
    "LayerTrace",
    "ModelSpec",
    "layer_spec_to_config",
    "layer_spec_from_config",
]


@dataclass(frozen=True)
class ConvSpec:
    """A convolutional layer (square kernel)."""

    name: str
    out_channels: int
    kernel_size: int
    stride: int = 1
    padding: int = 0


@dataclass(frozen=True)
class DenseSpec:
    """A fully-connected layer."""

    name: str
    out_features: int


@dataclass(frozen=True)
class PoolSpec:
    """A pooling layer (``kind`` is ``"max"`` or ``"avg"``)."""

    name: str
    kind: str
    pool_size: int
    stride: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("max", "avg"):
            raise ValueError(f"pool kind must be 'max' or 'avg', got {self.kind!r}")


@dataclass(frozen=True)
class ActivationSpec:
    """A ReLU activation."""

    name: str = "relu"


@dataclass(frozen=True)
class FlattenSpec:
    """Reshape the spatial activations into a feature vector."""

    name: str = "flatten"


LayerSpec = Union[ConvSpec, DenseSpec, PoolSpec, ActivationSpec, FlattenSpec]

#: Kind tag <-> layer-spec class, for the JSON config round-trip.
_LAYER_KINDS: dict[str, type] = {
    "conv": ConvSpec,
    "dense": DenseSpec,
    "pool": PoolSpec,
    "activation": ActivationSpec,
    "flatten": FlattenSpec,
}
_KIND_OF_LAYER = {cls: kind for kind, cls in _LAYER_KINDS.items()}


def layer_spec_to_config(spec: LayerSpec) -> dict:
    """One layer spec as a JSON-safe ``{"kind": ..., **fields}`` dict."""
    config = asdict(spec)
    if isinstance(spec, PoolSpec):  # "kind" is the layer tag
        config["pool"] = config.pop("kind")
    config["kind"] = _KIND_OF_LAYER[type(spec)]
    return config


def layer_spec_from_config(config: dict) -> LayerSpec:
    """Inverse of :func:`layer_spec_to_config`."""
    fields = dict(config)
    kind = fields.pop("kind")
    try:
        cls = _LAYER_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown layer kind {kind!r}") from None
    if cls is PoolSpec:
        if "pool" not in fields:  # written while the tag overwrote it
            raise ValueError(f"pool layer {fields.get('name')!r} has no pool kind")
        fields["kind"] = fields.pop("pool")
    return cls(**fields)


@dataclass(frozen=True)
class LayerTrace:
    """Resolved shape information of one layer of a :class:`ModelSpec`."""

    name: str
    kind: str
    input_shape: tuple[int, ...]
    output_shape: tuple[int, ...]
    weight_count: int
    bias_count: int
    macs: int
    kernel_size: int | None = None

    @property
    def input_size(self) -> int:
        """Number of activation elements entering the layer (batch 1, 1 sample)."""
        return int(np.prod(self.input_shape))

    @property
    def output_size(self) -> int:
        """Number of activation elements leaving the layer (batch 1, 1 sample)."""
        return int(np.prod(self.output_shape))

    @property
    def is_weighted(self) -> bool:
        """True for conv / dense layers that carry sampled weights."""
        return self.kind in ("conv", "dense")


@dataclass(frozen=True)
class ModelSpec:
    """A full network description, buildable and traceable."""

    name: str
    input_shape: tuple[int, int, int]
    num_classes: int
    layers: tuple[LayerSpec, ...]
    dataset: str
    description: str = ""
    flatten_input: bool = field(default=False)
    """MLP-style models consume pre-flattened ``(N, features)`` inputs."""

    # ------------------------------------------------------------------
    # JSON config round-trip (registry persistence)
    # ------------------------------------------------------------------
    def to_config(self) -> dict:
        """This spec as a JSON-safe dict; inverse of :meth:`from_config`.

        The round-trip reconstructs a spec that is ``==`` (and ``repr``-equal,
        which is what :meth:`repro.models.zoo.ReplicaSpec.fingerprint` hashes)
        to the original.
        """
        return {
            "name": self.name,
            "input_shape": list(self.input_shape),
            "num_classes": self.num_classes,
            "layers": [layer_spec_to_config(spec) for spec in self.layers],
            "dataset": self.dataset,
            "description": self.description,
            "flatten_input": self.flatten_input,
        }

    @classmethod
    def from_config(cls, config: dict) -> "ModelSpec":
        """Rebuild a spec from :meth:`to_config` output."""
        return cls(
            name=config["name"],
            input_shape=tuple(config["input_shape"]),
            num_classes=int(config["num_classes"]),
            layers=tuple(
                layer_spec_from_config(layer) for layer in config["layers"]
            ),
            dataset=config["dataset"],
            description=config.get("description", ""),
            flatten_input=bool(config.get("flatten_input", False)),
        )

    # ------------------------------------------------------------------
    # shape resolution
    # ------------------------------------------------------------------
    def trace(self) -> list[LayerTrace]:
        """Resolve tensor shapes, weights and MACs for every layer."""
        traces: list[LayerTrace] = []
        channels, height, width = self.input_shape
        flat: int | None = None
        if self.flatten_input:
            flat = channels * height * width
        for spec in self.layers:
            if isinstance(spec, ConvSpec):
                if flat is not None:
                    raise ValueError(f"{spec.name}: convolution after flatten")
                out_h = conv_output_size(height, spec.kernel_size, spec.stride, spec.padding)
                out_w = conv_output_size(width, spec.kernel_size, spec.stride, spec.padding)
                weight_count = spec.out_channels * channels * spec.kernel_size**2
                macs = weight_count * out_h * out_w
                traces.append(
                    LayerTrace(
                        name=spec.name,
                        kind="conv",
                        input_shape=(channels, height, width),
                        output_shape=(spec.out_channels, out_h, out_w),
                        weight_count=weight_count,
                        bias_count=spec.out_channels,
                        macs=macs,
                        kernel_size=spec.kernel_size,
                    )
                )
                channels, height, width = spec.out_channels, out_h, out_w
            elif isinstance(spec, PoolSpec):
                if flat is not None:
                    raise ValueError(f"{spec.name}: pooling after flatten")
                stride = spec.stride or spec.pool_size
                out_h = conv_output_size(height, spec.pool_size, stride, 0)
                out_w = conv_output_size(width, spec.pool_size, stride, 0)
                traces.append(
                    LayerTrace(
                        name=spec.name,
                        kind="pool",
                        input_shape=(channels, height, width),
                        output_shape=(channels, out_h, out_w),
                        weight_count=0,
                        bias_count=0,
                        macs=0,
                        kernel_size=spec.pool_size,
                    )
                )
                height, width = out_h, out_w
            elif isinstance(spec, ActivationSpec):
                shape = (flat,) if flat is not None else (channels, height, width)
                traces.append(
                    LayerTrace(
                        name=spec.name,
                        kind="activation",
                        input_shape=shape,
                        output_shape=shape,
                        weight_count=0,
                        bias_count=0,
                        macs=0,
                    )
                )
            elif isinstance(spec, FlattenSpec):
                if flat is not None:
                    raise ValueError(f"{spec.name}: flatten applied twice")
                flat = channels * height * width
                traces.append(
                    LayerTrace(
                        name=spec.name,
                        kind="flatten",
                        input_shape=(channels, height, width),
                        output_shape=(flat,),
                        weight_count=0,
                        bias_count=0,
                        macs=0,
                    )
                )
            elif isinstance(spec, DenseSpec):
                if flat is None:
                    raise ValueError(
                        f"{spec.name}: dense layer before flatten (or flatten_input)"
                    )
                weight_count = flat * spec.out_features
                traces.append(
                    LayerTrace(
                        name=spec.name,
                        kind="dense",
                        input_shape=(flat,),
                        output_shape=(spec.out_features,),
                        weight_count=weight_count,
                        bias_count=spec.out_features,
                        macs=weight_count,
                    )
                )
                flat = spec.out_features
            else:  # pragma: no cover - exhaustive by construction
                raise TypeError(f"unknown layer spec {spec!r}")
        return traces

    # ------------------------------------------------------------------
    # aggregate counts
    # ------------------------------------------------------------------
    @property
    def weight_count(self) -> int:
        """Total number of (samplable) weights across conv and dense layers."""
        return sum(trace.weight_count for trace in self.trace())

    @property
    def mac_count(self) -> int:
        """Forward-pass MAC count for one example and one weight sample."""
        return sum(trace.macs for trace in self.trace())

    @property
    def output_features(self) -> int:
        """Feature count produced by the final layer."""
        return int(np.prod(self.trace()[-1].output_shape))

    def weighted_layers(self) -> list[LayerTrace]:
        """Traces of the conv and dense layers only."""
        return [trace for trace in self.trace() if trace.is_weighted]

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------
    def build_bayesian(
        self,
        seed: int = 0,
        initial_sigma: float = 0.05,
        prior=None,
    ) -> BayesianNetwork:
        """Instantiate the runnable Bayesian network described by this spec."""
        rng = np.random.default_rng(seed)
        layers = self._build_layers(rng, bayesian=True, initial_sigma=initial_sigma)
        return BayesianNetwork(layers, prior=prior, name=self.name)

    def build_dnn(self, seed: int = 0) -> Sequential:
        """Instantiate the deterministic (non-Bayesian) counterpart network."""
        rng = np.random.default_rng(seed)
        layers = self._build_layers(rng, bayesian=False, initial_sigma=0.05)
        return Sequential(layers, name=self.name)

    def _build_layers(
        self, rng: np.random.Generator, bayesian: bool, initial_sigma: float
    ) -> list[Layer]:
        layers: list[Layer] = []
        channels = self.input_shape[0]
        flat: int | None = None
        if self.flatten_input:
            flat = int(np.prod(self.input_shape))
        for spec, trace in zip(self.layers, self.trace()):
            if isinstance(spec, ConvSpec):
                common = dict(
                    in_channels=channels,
                    out_channels=spec.out_channels,
                    kernel_size=spec.kernel_size,
                    stride=spec.stride,
                    padding=spec.padding,
                    name=spec.name,
                    rng=rng,
                )
                if bayesian:
                    layers.append(BayesConv2D(initial_sigma=initial_sigma, **common))
                else:
                    layers.append(Conv2D(**common))
                channels = spec.out_channels
            elif isinstance(spec, PoolSpec):
                pool_cls = MaxPool2D if spec.kind == "max" else AvgPool2D
                layers.append(pool_cls(spec.pool_size, spec.stride, name=spec.name))
            elif isinstance(spec, ActivationSpec):
                layers.append(ReLU(name=spec.name))
            elif isinstance(spec, FlattenSpec):
                layers.append(Flatten(name=spec.name))
                flat = int(np.prod(trace.output_shape))
            elif isinstance(spec, DenseSpec):
                if flat is None:
                    raise ValueError(f"{spec.name}: dense layer before flatten")
                if bayesian:
                    layers.append(
                        BayesDense(
                            flat,
                            spec.out_features,
                            initial_sigma=initial_sigma,
                            name=spec.name,
                            rng=rng,
                        )
                    )
                else:
                    layers.append(Dense(flat, spec.out_features, name=spec.name, rng=rng))
                flat = spec.out_features
        return layers
