"""Saving and loading Bayesian networks and full training state.

Three formats live here:

* **Parameter archives** (:func:`save_parameters` / :func:`load_parameters`)
  store just the trainable parameters -- the right format for a finished
  model that will only be served.
* **Replica archives** (:func:`save_replica` / :func:`load_replica`) store a
  complete :class:`~repro.models.zoo.ReplicaSpec` -- model spec, build seed,
  captured parameter bytes, quantisation and backend selection -- so a
  serving registry can persist deployable versions and restore them
  fingerprint-identical after a restart.
* **Training checkpoints** (:func:`save_checkpoint` / :func:`load_checkpoint`)
  capture everything a run's trajectory depends on: the parameters, the
  optimiser's slot tensors and step counter, every Monte-Carlo sample's GRNG
  register, the per-sample epsilon-traffic counters, and the trainer's step
  counter and history.  Restoring a checkpoint and
  continuing (``trainer.fit(..., resume=True)``) follows **bit for bit** the
  trajectory the uninterrupted run would have followed -- for the local
  pipelines and for the distributed sample/row-sharded backend alike, because
  the distributed coordinator keeps its canonical state in exactly the
  structures checkpointed here.

Epsilon *values* are never stored -- they are regenerated from the saved
register states, which is the whole point of the paper.  Both loaders verify
a manifest against the target and raise :class:`CheckpointMismatchError`
early on any structural mismatch.  A register is a generator's whole state:
checkpoints written while the bank kept a bit-sum register also carry that
sum per generator, which loads only when it equals the popcount of its
register (the one value the bank could ever derive) and is refused as
corrupt otherwise.

This module also hosts the **content fingerprints**
(:func:`tensor_fingerprint` / :func:`state_fingerprint`) that the
distributed delta-shipping transport (:mod:`repro.distrib.delta`) uses to
address tensors and verify applied state.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Tuple

import numpy as np

from ..core.checkpoint import LfsrSnapshot
from .model import BayesianNetwork

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .trainer import BNNTrainer

__all__ = [
    "save_parameters",
    "load_parameters",
    "save_checkpoint",
    "load_checkpoint",
    "save_replica",
    "load_replica",
    "tensor_fingerprint",
    "state_fingerprint",
    "CheckpointMismatchError",
]

_MANIFEST_KEY = "__manifest__"
_FORMAT_VERSION = 1
_CHECKPOINT_VERSION = 2
#: What a checkpoint's generator record holds: the LFSR geometry and register.
_GRNG_FIELDS = {"n_bits", "taps", "state"}
_REPLICA_VERSION = 1
_HISTORY_FIELDS = (
    "losses",
    "nlls",
    "complexities",
    "train_accuracies",
    "epoch_losses",
    "epoch_accuracies",
    "validation_accuracies",
)


class CheckpointMismatchError(RuntimeError):
    """Raised when a checkpoint does not match the target network's structure."""


# ----------------------------------------------------------------------
# content fingerprints (delta-shipping addresses)
# ----------------------------------------------------------------------
def tensor_fingerprint(array: np.ndarray) -> str:
    """Content fingerprint of one tensor: SHA-256 over dtype, shape and bytes.

    This is the address under which the distributed delta-shipping layer
    (:mod:`repro.distrib.delta`) caches tensors: two arrays share a
    fingerprint exactly when they are byte-identical with the same dtype
    and shape, so shipping a fingerprint instead of the bytes can never
    change what the receiver computes.
    """
    array = np.ascontiguousarray(array)
    if array.dtype.hasobject:
        raise TypeError("object arrays have no content fingerprint")
    digest = hashlib.sha256()
    digest.update(str(array.dtype).encode("ascii"))
    digest.update(repr(array.shape).encode("ascii"))
    digest.update(array.tobytes())
    return digest.hexdigest()


def state_fingerprint(entries: Iterable[Tuple[str, str]]) -> str:
    """Combined fingerprint of a named tensor set.

    ``entries`` is an iterable of ``(slot_name, tensor_fingerprint)`` pairs;
    the result is order-independent (pairs are sorted) so coordinator and
    worker agree regardless of encoding order.  The delta protocol ships
    this as the expected post-apply fingerprint: a worker whose resolved
    state hashes differently requests a full resync instead of computing
    wrong bits.
    """
    digest = hashlib.sha256()
    for slot, fingerprint in sorted(entries):
        digest.update(slot.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(fingerprint.encode("ascii"))
        digest.update(b"\x00")
    return digest.hexdigest()


def _parameter_names(model: BayesianNetwork) -> list[str]:
    names = [parameter.name for parameter in model.parameters()]
    if len(set(names)) != len(names):
        raise ValueError(
            "parameter names are not unique; give every layer an explicit name "
            "before saving"
        )
    return names


def save_parameters(model: BayesianNetwork, path: str | Path) -> Path:
    """Write every trainable parameter of ``model`` to ``path`` (.npz).

    Returns the path written.  The archive also records a manifest (model
    name, parameter names and shapes) so loading can detect mismatches early.
    """
    path = _npz_path(path)
    names = _parameter_names(model)
    arrays = {name: parameter.value for name, parameter in zip(names, model.parameters())}
    manifest = {
        "format_version": _FORMAT_VERSION,
        "model_name": model.name,
        "parameters": {
            name: list(parameter.value.shape)
            for name, parameter in zip(names, model.parameters())
        },
    }
    arrays[_MANIFEST_KEY] = np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **arrays)
    return path


def load_parameters(model: BayesianNetwork, path: str | Path, strict: bool = True) -> None:
    """Load parameters from ``path`` into ``model`` (in place).

    Parameters
    ----------
    model:
        The network to populate; its structure must match the checkpoint.
    path:
        Archive produced by :func:`save_parameters`.
    strict:
        When ``True`` (default) the checkpoint must contain exactly the
        model's parameters; when ``False`` missing parameters are left at
        their current values and extra entries are ignored.
    """
    manifest, stored = _read_archive(path)
    if manifest.get("format_version") != _FORMAT_VERSION:
        raise CheckpointMismatchError(
            f"unsupported checkpoint format version {manifest.get('format_version')!r}"
        )
    names = _parameter_names(model)
    parameters = dict(zip(names, model.parameters()))
    missing = [name for name in parameters if name not in stored]
    unexpected = [name for name in stored if name not in parameters]
    if strict and (missing or unexpected):
        raise CheckpointMismatchError(
            f"checkpoint does not match the model: missing={missing}, unexpected={unexpected}"
        )
    for name, parameter in parameters.items():
        if name not in stored:
            continue
        value = stored[name]
        if value.shape != parameter.value.shape:
            raise CheckpointMismatchError(
                f"shape mismatch for {name!r}: checkpoint {value.shape}, "
                f"model {parameter.value.shape}"
            )
        parameter.assign(value)


# ----------------------------------------------------------------------
# full training checkpoints
# ----------------------------------------------------------------------
def _npz_path(path: str | Path) -> Path:
    """Append ``.npz`` unless already present.

    Appends rather than ``with_suffix`` so multi-dot names like
    ``ckpt.step3`` map to distinct files (``ckpt.step3.npz``) instead of
    collapsing onto one another.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def save_checkpoint(trainer: "BNNTrainer", path: str | Path) -> Path:
    """Write a full training checkpoint of ``trainer`` to ``path`` (.npz).

    Must be called at a step boundary (which is the only time a trainer is
    observable from outside anyway): between steps every sampler has
    consumed its blocks, so the GRNG registers plus the traffic counters are
    the bank's *complete* state.  The archive carries the parameters, the
    optimiser slots and step counter, one
    :class:`~repro.core.checkpoint.LfsrSnapshot` per Monte-Carlo sample
    (the register state, hex-encoded in the manifest), the
    per-sample :class:`~repro.core.streams.StreamUsage` counters, and the
    per-step history records.
    """
    path = _npz_path(path)
    names = _parameter_names(trainer.model)
    arrays: dict[str, np.ndarray] = {
        f"param/{name}": parameter.value
        for name, parameter in zip(names, trainer.model.parameters())
    }
    optimizer_state = trainer.optimizer.state_dict()
    for slot, slot_arrays in optimizer_state["slots"].items():
        for name, array in zip(names, slot_arrays):
            arrays[f"opt/{slot}/{name}"] = array
    history = trainer.history
    for field in _HISTORY_FIELDS:
        arrays[f"history/{field}"] = np.asarray(getattr(history, field), dtype=np.float64)
    config = trainer.config
    manifest = {
        "format_version": _CHECKPOINT_VERSION,
        "kind": "training-checkpoint",
        "model_name": trainer.model.name,
        "parameters": {
            name: list(parameter.value.shape)
            for name, parameter in zip(names, trainer.model.parameters())
        },
        "step_count": trainer.step_count,
        "optimizer": {
            "type": optimizer_state["type"],
            "slots": sorted(optimizer_state["slots"]),
            "step_count": optimizer_state["step_count"],
        },
        "trainer": {
            "n_samples": config.n_samples,
            "policy": trainer.bank.policy,
            "lfsr_bits": config.lfsr_bits,
            "grng_stride": config.grng_stride,
            "seed": config.seed,
            "quantization_bits": config.quantization_bits,
        },
        "grng": [
            {
                "n_bits": snapshot.n_bits,
                "taps": list(snapshot.taps),
                "state": hex(snapshot.state),
            }
            for snapshot in trainer.bank.snapshots()
        ],
        "stream_usage": trainer.bank.usage_state_dicts(),
    }
    arrays[_MANIFEST_KEY] = np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **arrays)
    return path


def _read_archive(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    path = Path(path)
    if not path.exists():
        path = _npz_path(path)
    with np.load(path, allow_pickle=False) as archive:
        stored = {key: archive[key] for key in archive.files}
    manifest_raw = stored.pop(_MANIFEST_KEY, None)
    if manifest_raw is None:
        raise CheckpointMismatchError(f"{path} is not a Shift-BNN checkpoint (no manifest)")
    manifest = json.loads(bytes(manifest_raw.tolist()).decode("utf-8"))
    return manifest, stored


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckpointMismatchError(message)


def load_checkpoint(trainer: "BNNTrainer", path: str | Path) -> dict:
    """Restore a full training checkpoint into ``trainer`` (in place).

    The trainer must be *structurally* compatible with the run that saved
    the checkpoint: same model parameters, same ``n_samples`` / stream
    policy / LFSR geometry, same optimiser type.  Any mismatch raises
    :class:`CheckpointMismatchError` before anything is modified, as does a
    generator record whose legacy bit-sum register is not the popcount of
    its register.  On
    success the trainer's parameters, optimiser state, generator registers,
    traffic counters and history are exactly the saved run's, so continuing
    (e.g. ``fit(..., resume=True)`` with the same schedule) reproduces the
    uninterrupted trajectory bit for bit.  Returns the checkpoint manifest.
    """
    manifest, stored = _read_archive(path)
    _check(
        manifest.get("format_version") == _CHECKPOINT_VERSION
        and manifest.get("kind") == "training-checkpoint",
        f"not a training checkpoint (format {manifest.get('format_version')!r}, "
        f"kind {manifest.get('kind')!r}); parameter archives load with "
        "load_parameters()",
    )
    names = _parameter_names(trainer.model)
    parameters = dict(zip(names, trainer.model.parameters()))
    saved_params = manifest.get("parameters", {})
    _check(
        set(saved_params) == set(parameters),
        "checkpoint does not match the model: "
        f"missing={sorted(set(parameters) - set(saved_params))}, "
        f"unexpected={sorted(set(saved_params) - set(parameters))}",
    )
    for name, parameter in parameters.items():
        _check(
            tuple(saved_params[name]) == parameter.value.shape,
            f"shape mismatch for {name!r}: checkpoint "
            f"{tuple(saved_params[name])}, model {parameter.value.shape}",
        )
    config = trainer.config
    saved_trainer = manifest.get("trainer", {})
    for key, current in (
        ("n_samples", config.n_samples),
        ("policy", trainer.bank.policy),
        ("lfsr_bits", config.lfsr_bits),
        ("grng_stride", config.grng_stride),
        ("seed", config.seed),
        ("quantization_bits", config.quantization_bits),
    ):
        _check(
            saved_trainer.get(key) == current,
            f"trainer {key} mismatch: checkpoint {saved_trainer.get(key)!r}, "
            f"trainer {current!r}",
        )
    optimizer_state = trainer.optimizer.state_dict()
    saved_optimizer = manifest.get("optimizer", {})
    _check(
        saved_optimizer.get("type") == optimizer_state["type"],
        f"optimizer mismatch: checkpoint {saved_optimizer.get('type')!r}, "
        f"trainer {optimizer_state['type']!r}",
    )
    grng_records = manifest.get("grng", [])
    _check(
        len(grng_records) == config.n_samples,
        f"checkpoint carries {len(grng_records)} generator states for "
        f"{config.n_samples} samples",
    )
    snapshots = [
        LfsrSnapshot(
            n_bits=record["n_bits"],
            taps=tuple(record["taps"]),
            state=int(record["state"], 16),
        )
        for record in grng_records
    ]
    for row, (record, snapshot) in enumerate(zip(grng_records, snapshots)):
        # Checkpoints written while the bank kept a bit-sum register beside
        # each LFSR carry it as one more field.  The popcount of the register
        # is all it could hold; any other value is corruption.
        popcount = snapshot.state.bit_count()
        for key in record.keys() - _GRNG_FIELDS:
            _check(
                record[key] == popcount,
                f"generator {row}'s {key} {record[key]!r} is not the popcount "
                f"{popcount} of its register: corrupt checkpoint",
            )
    # ---- all checks passed; restore ----
    for name, parameter in parameters.items():
        parameter.assign(stored[f"param/{name}"])
    slots = {
        slot: [stored[f"opt/{slot}/{name}"] for name in names]
        for slot in saved_optimizer.get("slots", [])
    }
    trainer.optimizer.load_state_dict(
        {
            "type": saved_optimizer["type"],
            "slots": slots,
            "step_count": saved_optimizer.get("step_count", 0),
        }
    )
    trainer.bank.restore(snapshots)
    trainer.bank.load_usage_state_dicts(manifest.get("stream_usage", []))
    history = trainer.history
    for field in _HISTORY_FIELDS:
        values = stored.get(f"history/{field}")
        records = getattr(history, field)
        records.clear()
        if values is not None:
            records.extend(float(value) for value in values)
    return manifest


# ----------------------------------------------------------------------
# replica archives (serving-registry persistence)
# ----------------------------------------------------------------------
def _format_to_config(fmt) -> list[int] | None:
    return None if fmt is None else [fmt.integer_bits, fmt.fraction_bits]


def _quantization_to_config(quantization) -> dict | None:
    """JSON-safe encoding of a ``QuantizationConfig`` (or ``None``)."""
    if quantization is None:
        return None
    from ..nn.quantization import QuantizationConfig

    if not isinstance(quantization, QuantizationConfig):
        raise TypeError(
            "replica archives can persist QuantizationConfig quantisation "
            f"only, got {type(quantization).__name__}"
        )
    return {
        "weight_format": _format_to_config(quantization.weight_format),
        "activation_format": _format_to_config(quantization.activation_format),
        "gradient_format": _format_to_config(quantization.gradient_format),
    }


def _quantization_from_config(config: dict | None):
    if config is None:
        return None
    from ..nn.quantization import FixedPointFormat, QuantizationConfig

    def fmt(pair):
        return None if pair is None else FixedPointFormat(int(pair[0]), int(pair[1]))

    return QuantizationConfig(
        weight_format=fmt(config.get("weight_format")),
        activation_format=fmt(config.get("activation_format")),
        gradient_format=fmt(config.get("gradient_format")),
    )


def save_replica(replica, path: str | Path) -> Path:
    """Write a :class:`~repro.models.zoo.ReplicaSpec` to ``path`` (.npz).

    The archive carries everything :meth:`ReplicaSpec.fingerprint` hashes
    (spec, build seed, captured parameter bytes, quantisation), plus the
    capturing process's backend selection, so
    ``load_replica(save_replica(r)).fingerprint() == r.fingerprint()`` --
    the property the persistent serving registry verifies on restore.
    Parameter bytes round-trip exactly (``.npz`` stores raw array buffers).
    """
    # local import: models.zoo imports this package
    from ..models.zoo import ReplicaSpec

    if not isinstance(replica, ReplicaSpec):
        raise TypeError(f"expected a ReplicaSpec, got {type(replica).__name__}")
    path = _npz_path(path)
    arrays: dict[str, np.ndarray] = {}
    state_names: list[str] | None = None
    if replica.state is not None:
        state_names = sorted(replica.state)
        for name in state_names:
            arrays[f"state/{name}"] = np.asarray(replica.state[name])
    manifest = {
        "format_version": _REPLICA_VERSION,
        "kind": "replica-spec",
        "spec": replica.spec.to_config(),
        "build_seed": replica.build_seed,
        "state_names": state_names,
        "quantization": _quantization_to_config(replica.quantization),
        "backend_selection": (
            None
            if replica.backend_selection is None
            else [list(pair) for pair in replica.backend_selection]
        ),
    }
    arrays[_MANIFEST_KEY] = np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **arrays)
    return path


def load_replica(path: str | Path):
    """Rebuild the :class:`~repro.models.zoo.ReplicaSpec` saved at ``path``.

    The restored replica is fingerprint-identical to the one saved (same
    spec repr, same build seed, byte-identical parameter state, equal
    quantisation config); :class:`CheckpointMismatchError` is raised for
    archives of any other kind.
    """
    from ..models.specs import ModelSpec
    from ..models.zoo import ReplicaSpec

    manifest, stored = _read_archive(path)
    _check(
        manifest.get("kind") == "replica-spec"
        and manifest.get("format_version") == _REPLICA_VERSION,
        f"not a replica archive (format {manifest.get('format_version')!r}, "
        f"kind {manifest.get('kind')!r})",
    )
    state_names = manifest.get("state_names")
    state: dict[str, np.ndarray] | None = None
    if state_names is not None:
        missing = [name for name in state_names if f"state/{name}" not in stored]
        _check(not missing, f"replica archive is missing state arrays {missing}")
        state = {name: stored[f"state/{name}"] for name in state_names}
    selection = manifest.get("backend_selection")
    return ReplicaSpec(
        spec=ModelSpec.from_config(manifest["spec"]),
        build_seed=int(manifest["build_seed"]),
        state=state,
        quantization=_quantization_from_config(manifest.get("quantization")),
        backend_selection=(
            None
            if selection is None
            else tuple((str(kernel), str(backend)) for kernel, backend in selection)
        ),
    )
