"""Saving and loading Bayesian networks and full training state.

Every archive is one envelope: an ``.npz`` file of named arrays plus a JSON
manifest, written by one writer and read by one reader.  The reader checks
the manifest's ``kind`` and format version once, so each loader refuses the
other kinds before it writes anything.  The writer writes a sibling
``.tmp`` file, syncs it and renames it over the target, so a save that fails
part-way leaves the previous archive intact -- which is what lets
``fit(checkpoint_every_n_steps=...)`` promise that a crashed run resumes
from its last snapshot.  Three kinds share the envelope:

* **Parameter archives** (:func:`save_parameters` / :func:`load_parameters`,
  format 1, no ``kind`` field) store just the trainable parameters -- the
  right format for a finished model that will only be served.
* **Replica archives** (:func:`save_replica` / :func:`load_replica`,
  ``replica-spec`` format 1) store a complete
  :class:`~repro.models.zoo.ReplicaSpec` -- model spec, build seed,
  captured parameter bytes, quantisation and backend selection -- so a
  serving registry can persist deployable versions and restore them
  fingerprint-identical after a restart.
* **Training checkpoints** (:func:`save_checkpoint` / :func:`load_checkpoint`,
  ``training-checkpoint`` format 2) capture everything a run's trajectory
  depends on: the parameters, the optimiser's slot tensors and step
  counter, every Monte-Carlo sample's GRNG register, the per-sample
  epsilon-traffic counters, and the trainer's step counter and history.
  Restoring a checkpoint and
  continuing (``trainer.fit(..., resume=True)``) follows **bit for bit** the
  trajectory the uninterrupted run would have followed -- for the local
  pipelines and for the distributed sample/row-sharded backend alike, because
  the distributed coordinator keeps its canonical state in exactly the
  structures checkpointed here.

Every stored parameter set -- here, in replicas and in distributed steps --
is written through :meth:`~repro.bnn.model.BayesianNetwork.assign_parameters`,
which checks every name and shape before it writes any parameter.

Epsilon *values* are never stored -- they are regenerated from the saved
register states, which is the whole point of the paper.  A register is a
generator's whole state: checkpoints written while the bank kept a bit-sum
register also carry that sum per generator, which loads only when it equals
the popcount of its register (the one value the bank could ever derive) and
is refused as corrupt otherwise.

This module also hosts the **content fingerprints**
(:func:`tensor_fingerprint` / :func:`state_fingerprint`) that the
distributed delta-shipping transport (:mod:`repro.distrib.delta`) uses to
address tensors and verify applied state.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Tuple

import numpy as np

from .model import BayesianNetwork, CheckpointMismatchError

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
_CHECKPOINT_KIND = "training-checkpoint"
_REPLICA_KIND = "replica-spec"
#: kind -> (format version, what the reader calls it).  Parameter archives
#: predate the ``kind`` field and carry none.
_KINDS: dict[str | None, tuple[int, str]] = {
    None: (1, "parameter archive"),
    _CHECKPOINT_KIND: (2, "training checkpoint"),
    _REPLICA_KIND: (1, "replica archive"),
}
#: What a checkpoint's generator record holds: the LFSR geometry and register.
_GRNG_FIELDS = {"n_bits", "taps", "state"}
_HISTORY_FIELDS = (
    "losses",
    "nlls",
    "complexities",
    "train_accuracies",
    "epoch_losses",
    "epoch_accuracies",
    "validation_accuracies",
)


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


# ----------------------------------------------------------------------
# the envelope: one writer, one reader
# ----------------------------------------------------------------------
def _npz_path(path: str | Path) -> Path:
    """Append ``.npz`` unless present (so ``ckpt.step3`` -> ``ckpt.step3.npz``)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def _write_archive(
    path: str | Path, kind: str | None, body: dict, arrays: dict[str, np.ndarray]
) -> Path:
    """Write ``arrays`` plus the manifest of ``kind`` to ``path`` (.npz).

    The archive is written to a sibling ``.tmp`` file, synced to disk and
    renamed over ``path``, so a save that fails leaves the previous archive
    at ``path`` as it was.
    """
    path = _npz_path(path)
    manifest = {"format_version": _KINDS[kind][0]}
    if kind is not None:
        manifest["kind"] = kind
    manifest.update(body)
    arrays = {
        **arrays,
        _MANIFEST_KEY: np.frombuffer(json.dumps(manifest).encode("utf-8"), np.uint8),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_name(path.name + ".tmp")
    try:
        with open(scratch, "wb") as file:
            np.savez(file, **arrays)
            file.flush()
            os.fsync(file.fileno())
        os.replace(scratch, path)
    finally:
        scratch.unlink(missing_ok=True)
    return path


def _read_archive(path: str | Path, kind: str | None) -> tuple[dict, dict[str, np.ndarray]]:
    """The manifest and arrays of the ``kind`` archive at ``path``.

    Raises :class:`CheckpointMismatchError` for a file with no manifest or
    with another kind or format version.
    """
    path = Path(path)
    if not path.exists():
        path = _npz_path(path)
    with np.load(path, allow_pickle=False) as archive:
        stored = {key: archive[key] for key in archive.files}
    manifest_raw = stored.pop(_MANIFEST_KEY, None)
    if manifest_raw is None:
        raise CheckpointMismatchError(f"{path} is not a Shift-BNN checkpoint (no manifest)")
    manifest = json.loads(bytes(manifest_raw.tolist()).decode("utf-8"))
    version, what = _KINDS[kind]
    _check(
        manifest.get("kind") == kind and manifest.get("format_version") == version,
        f"not a {what} (format {manifest.get('format_version')!r}, "
        f"kind {manifest.get('kind')!r})",
    )
    return manifest, stored


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckpointMismatchError(message)


def _shapes(values: dict[str, np.ndarray]) -> dict[str, list[int]]:
    return {name: list(value.shape) for name, value in values.items()}


# ----------------------------------------------------------------------
# parameter archives
# ----------------------------------------------------------------------
def save_parameters(model: BayesianNetwork, path: str | Path) -> Path:
    """Write every trainable parameter of ``model`` to ``path`` (.npz);
    returns the path written."""
    values = {name: param.value for name, param in model.named_parameters().items()}
    body = {"model_name": model.name, "parameters": _shapes(values)}
    return _write_archive(path, None, body, values)


def load_parameters(model: BayesianNetwork, path: str | Path) -> None:
    """Load the parameter archive at ``path`` into ``model`` (in place).

    The archive must hold exactly the model's parameters, each in its
    shape; otherwise :class:`CheckpointMismatchError` is raised and no
    parameter is written.
    """
    _, stored = _read_archive(path, None)
    model.assign_parameters(stored)


# ----------------------------------------------------------------------
# full training checkpoints
# ----------------------------------------------------------------------
def _trainer_record(trainer: "BNNTrainer") -> dict:
    """What a checkpoint's trajectory is bound to besides the parameters."""
    config = trainer.config
    return {
        "n_samples": config.n_samples,
        "policy": trainer.bank.policy,
        "lfsr_bits": config.lfsr_bits,
        "grng_stride": config.grng_stride,
        "seed": config.seed,
        "quantization_bits": config.quantization_bits,
    }


def save_checkpoint(trainer: "BNNTrainer", path: str | Path) -> Path:
    """Write a full training checkpoint of ``trainer`` to ``path`` (.npz).

    Must be called at a step boundary (which is the only time a trainer is
    observable from outside anyway): between steps every sampler has
    consumed its blocks, so the GRNG registers plus the traffic counters are
    the bank's *complete* state.  The archive carries the parameters, the
    optimiser slots and step counter, one generator record per Monte-Carlo
    sample (LFSR width, taps and the register, hex-encoded in the
    manifest), the per-sample :class:`~repro.core.streams.StreamUsage`
    counters, and the per-step history records.
    """
    values = {
        name: param.value for name, param in trainer.model.named_parameters().items()
    }
    arrays = {f"param/{name}": value for name, value in values.items()}
    optimizer_state = trainer.optimizer.state_dict()
    for slot, slot_arrays in optimizer_state["slots"].items():
        for name, array in zip(values, slot_arrays):
            arrays[f"opt/{slot}/{name}"] = array
    history = trainer.history
    for field in _HISTORY_FIELDS:
        arrays[f"history/{field}"] = np.asarray(getattr(history, field), dtype=np.float64)
    grng = trainer.bank.grng_bank
    body = {
        "model_name": trainer.model.name,
        "parameters": _shapes(values),
        "step_count": trainer.step_count,
        "optimizer": {
            "type": optimizer_state["type"],
            "slots": sorted(optimizer_state["slots"]),
            "step_count": optimizer_state["step_count"],
        },
        "trainer": _trainer_record(trainer),
        "grng": [
            {"n_bits": grng.n_bits, "taps": list(grng.taps), "state": hex(state)}
            for state in trainer.bank.snapshots()
        ],
        "stream_usage": trainer.bank.usage_state_dicts(),
    }
    return _write_archive(path, _CHECKPOINT_KIND, body, arrays)


def load_checkpoint(trainer: "BNNTrainer", path: str | Path) -> dict:
    """Restore a full training checkpoint into ``trainer`` (in place).

    The trainer must be *structurally* compatible with the run that saved
    the checkpoint: same model parameters, same ``n_samples`` / stream
    policy / LFSR geometry, same optimiser type.  Any mismatch raises
    :class:`CheckpointMismatchError` before anything is modified, as does a
    generator record whose register is zero or wider than its LFSR, whose
    width or taps are not the bank's, or whose legacy bit-sum register is
    not the popcount of its register.  On
    success the trainer's parameters, optimiser state, generator registers,
    traffic counters and history are exactly the saved run's, so continuing
    (e.g. ``fit(..., resume=True)`` with the same schedule) reproduces the
    uninterrupted trajectory bit for bit.  Returns the checkpoint manifest.
    """
    manifest, stored = _read_archive(path, _CHECKPOINT_KIND)
    params = [key for key in stored if key.startswith("param/")]
    values = {key.removeprefix("param/"): stored[key] for key in params}
    trainer.model.check_parameters(values)
    saved_trainer = manifest.get("trainer", {})
    for key, current in _trainer_record(trainer).items():
        _check(
            saved_trainer.get(key) == current,
            f"trainer {key} mismatch: checkpoint {saved_trainer.get(key)!r}, "
            f"trainer {current!r}",
        )
    # the type and slot names, without state_dict()'s copy of every slot
    optimizer_type = type(trainer.optimizer).__name__.lower()
    saved_optimizer = manifest.get("optimizer", {})
    _check(
        saved_optimizer.get("type") == optimizer_type,
        f"optimizer mismatch: checkpoint {saved_optimizer.get('type')!r}, "
        f"trainer {optimizer_type!r}",
    )
    slots = saved_optimizer.get("slots", [])
    _check(
        sorted(slots) == sorted(trainer.optimizer.slot_arrays())
        and all(
            getattr(stored.get(f"opt/{slot}/{name}"), "shape", None) == value.shape
            for slot in slots
            for name, value in values.items()
        ),
        f"optimizer slots {slots} do not hold one tensor per stored parameter",
    )
    grng_records = manifest.get("grng", [])
    _check(
        len(grng_records) == len(manifest.get("stream_usage", [])) == len(trainer.bank),
        f"checkpoint carries {len(grng_records)} generator states for "
        f"{len(trainer.bank)} samples",
    )
    grng = trainer.bank.grng_bank
    states = [int(record["state"], 16) for record in grng_records]
    for row, (record, state) in enumerate(zip(grng_records, states)):
        _check(
            record["n_bits"] == grng.n_bits and tuple(record["taps"]) == grng.taps,
            f"generator {row} is a {record['n_bits']}-bit LFSR with taps "
            f"{record['taps']}; this bank's are {grng.n_bits}-bit with taps "
            f"{list(grng.taps)}",
        )
        _check(
            0 < state < 1 << grng.n_bits,
            f"generator {row}'s register {record['state']} is not a non-zero "
            f"{grng.n_bits}-bit state: corrupt checkpoint",
        )
        # Checkpoints written while the bank kept a bit-sum register beside
        # each LFSR carry it as one more field.  The popcount of the register
        # is all it could hold; any other value is corruption.
        for key in record.keys() - _GRNG_FIELDS:
            _check(
                record[key] == state.bit_count(),
                f"generator {row}'s {key} {record[key]!r} is not the popcount "
                f"{state.bit_count()} of its register: corrupt checkpoint",
            )
    # ---- all checks passed; restore ----
    trainer.model.assign_parameters(values)
    names = list(trainer.model.named_parameters())
    trainer.optimizer.load_state_dict(
        {
            "type": saved_optimizer["type"],
            "slots": {
                slot: [stored[f"opt/{slot}/{name}"] for name in names] for slot in slots
            },
            "step_count": saved_optimizer.get("step_count", 0),
        }
    )
    trainer.bank.restore(states)
    trainer.bank.load_usage_state_dicts(manifest["stream_usage"])
    history = trainer.history
    for field in _HISTORY_FIELDS:
        saved = stored.get(f"history/{field}")
        records = getattr(history, field)
        records.clear()
        if saved is not None:
            records.extend(float(value) for value in saved)
    return manifest


# ----------------------------------------------------------------------
# replica archives (serving-registry persistence)
# ----------------------------------------------------------------------
_QUANTIZATION_FORMATS = ("weight_format", "activation_format", "gradient_format")


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
    formats = {field: getattr(quantization, field) for field in _QUANTIZATION_FORMATS}
    return {
        field: None if fmt is None else [fmt.integer_bits, fmt.fraction_bits]
        for field, fmt in formats.items()
    }


def _quantization_from_config(config: dict | None):
    if config is None:
        return None
    from ..nn.quantization import FixedPointFormat, QuantizationConfig

    pairs = {field: config.get(field) for field in _QUANTIZATION_FORMATS}
    return QuantizationConfig(
        **{
            field: None if pair is None else FixedPointFormat(int(pair[0]), int(pair[1]))
            for field, pair in pairs.items()
        }
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
    arrays: dict[str, np.ndarray] = {}
    state_names: list[str] | None = None
    if replica.state is not None:
        state_names = sorted(replica.state)
        for name in state_names:
            arrays[f"state/{name}"] = np.asarray(replica.state[name])
    body = {
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
    return _write_archive(path, _REPLICA_KIND, body, arrays)


def load_replica(path: str | Path):
    """Rebuild the :class:`~repro.models.zoo.ReplicaSpec` saved at ``path``.

    The restored replica is fingerprint-identical to the one saved (same
    spec repr, same build seed, byte-identical parameter state, equal
    quantisation config); :class:`CheckpointMismatchError` is raised for
    archives of any other kind.
    """
    from ..models.specs import ModelSpec
    from ..models.zoo import ReplicaSpec

    manifest, stored = _read_archive(path, _REPLICA_KIND)
    state_names = manifest.get("state_names")
    state: dict[str, np.ndarray] | None = None
    if state_names is not None:
        missing = [name for name in state_names if f"state/{name}" not in stored]
        _check(not missing, f"replica archive is missing state arrays {missing}")
        state = {name: stored[f"state/{name}"] for name in state_names}
    selection = manifest.get("backend_selection")
    try:
        spec = ModelSpec.from_config(manifest["spec"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointMismatchError(f"replica archive has no valid model spec: {exc}")
    return ReplicaSpec(
        spec=spec,
        build_seed=int(manifest["build_seed"]),
        state=state,
        quantization=_quantization_from_config(manifest.get("quantization")),
        backend_selection=(
            None
            if selection is None
            else tuple((str(kernel), str(backend)) for kernel, backend in selection)
        ),
    )
