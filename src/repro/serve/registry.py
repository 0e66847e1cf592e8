"""Generation-tagged model registry: versioned replicas with atomic swap.

Rolling a model version in a live serving system has one hard requirement in
this codebase: the bit-exactness contract must hold *per version*.  A request
answered during a rollout must be byte-identical to a standalone
``mc_predict`` on **the version it was pinned to**, never a blend of old and
new weights.  The registry is the piece that makes the pinning well defined:

* every version is an immutable :class:`ModelVersion` -- a name, a picklable
  :class:`~repro.models.zoo.ReplicaSpec` and its content
  :meth:`~repro.models.zoo.ReplicaSpec.fingerprint`.  Re-registering a name
  with different bytes is a :class:`VersionConflictError` (version names are
  identities, not mutable slots);
* :meth:`ModelRegistry.deploy` atomically swaps the **active** version and
  bumps the monotonically increasing *generation* counter.  Requests resolve
  ``(version, generation)`` once, at admission, and carry the pin through
  queueing and execution -- a swap never retroactively changes what an
  in-flight request is served with;
* :meth:`ModelRegistry.rollback` swaps back to the previously active version
  (itself a new generation, so the deploy history stays an append-only log).

The registry is deliberately free of execution machinery: the
:class:`~repro.serve.server.PredictionServer` layers replica loading, sweep
-cache invalidation and worker reload on top of these primitives, and the
HTTP gateway exposes them at ``/models``.

A registry may be **persistent**: constructed via :meth:`ModelRegistry.open`
with a directory, it writes every registration (replica bytes, via the
:mod:`repro.bnn.serialization` replica-archive format) and every
deploy/rollback (the state manifest) through to disk, and restores the full
version set, active pointer, generation counter and deploy history on the
next open -- so a gateway restart resumes exactly where the previous process
stopped, with every replica verified fingerprint-identical on load.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..models.zoo import ReplicaSpec

__all__ = [
    "ModelRegistry",
    "ModelVersion",
    "Deployment",
    "DEFAULT_VERSION",
    "UnknownVersionError",
    "VersionConflictError",
    "RollbackUnavailableError",
    "RegistryPersistenceError",
]

#: Manifest format of a persisted registry directory (``state.json``).
_STATE_VERSION = 1

#: Version name a bare ``ReplicaSpec`` is registered under when a caller uses
#: the single-model convenience constructors (the pre-registry API surface).
DEFAULT_VERSION = "v1"


class UnknownVersionError(KeyError):
    """The named version is not registered (or not loaded, where required)."""

    def __str__(self) -> str:  # KeyError quotes its message; keep it readable
        return self.args[0] if self.args else ""


class VersionConflictError(ValueError):
    """A version name was re-registered with different replica contents."""


class RollbackUnavailableError(RuntimeError):
    """``rollback`` was requested but no previously active version exists."""


class RegistryPersistenceError(RuntimeError):
    """A persisted registry directory is unreadable or fails verification."""


@dataclass(frozen=True)
class ModelVersion:
    """One immutable registered version: name, replica recipe, content hash."""

    version: str
    replica: "ReplicaSpec" = field(repr=False)
    fingerprint: str

    @property
    def short_fingerprint(self) -> str:
        """First 12 hex digits -- the human-facing form used in listings."""
        return self.fingerprint[:12]


@dataclass(frozen=True)
class Deployment:
    """One entry of the append-only deploy log (and the active pointer)."""

    version: str
    generation: int
    deployed_at: float
    rolled_back: bool = False
    """Whether this deployment was produced by ``rollback`` (cosmetic)."""


class ModelRegistry:
    """Thread-safe versioned replica store with an atomic active pointer.

    All mutation happens under one lock, so readers observe either the state
    before a swap or after it -- never a half-applied deploy.  The generation
    counter increments on every successful ``deploy``/``rollback``; it tags
    responses so operators can correlate served traffic with rollout events.
    """

    def __init__(
        self, clock=time.time, persist_dir: str | Path | None = None
    ) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._versions: dict[str, ModelVersion] = {}
        self._active: Deployment | None = None
        self._previous: str | None = None
        self._history: list[Deployment] = []
        self._persist_dir = None if persist_dir is None else Path(persist_dir)
        # version name -> relative archive path (persistent registries only);
        # index-named files keep arbitrary version strings filesystem-safe
        self._version_files: dict[str, str] = {}

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def single(
        cls, replica: "ReplicaSpec", version: str = DEFAULT_VERSION
    ) -> "ModelRegistry":
        """A registry holding one registered *and deployed* version.

        This is how the pre-registry ``PredictionServer(replica)`` surface is
        kept working: a bare replica becomes version ``v1``, already active.
        """
        registry = cls()
        registry.register(version, replica)
        registry.deploy(version)
        return registry

    @classmethod
    def open(cls, persist_dir: str | Path, clock=time.time) -> "ModelRegistry":
        """A write-through persistent registry rooted at ``persist_dir``.

        An existing directory is restored: every archived replica is loaded
        and verified against its recorded fingerprint, and the active
        pointer, generation counter and deploy history continue exactly
        where the previous process left them.  A fresh directory starts an
        empty registry that persists from the first ``register`` on.
        """
        registry = cls(clock=clock, persist_dir=persist_dir)
        registry._restore()
        return registry

    @property
    def persist_dir(self) -> Path | None:
        """Where this registry persists, if anywhere."""
        return self._persist_dir

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _state_path(self) -> Path:
        assert self._persist_dir is not None
        return self._persist_dir / "state.json"

    def _restore(self) -> None:
        from ..bnn.serialization import CheckpointMismatchError, load_replica

        state_path = self._state_path()
        if not state_path.exists():
            self._persist_dir.mkdir(parents=True, exist_ok=True)
            return
        try:
            state = json.loads(state_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise RegistryPersistenceError(
                f"unreadable registry state at {state_path}: {exc}"
            ) from exc
        if state.get("format_version") != _STATE_VERSION:
            raise RegistryPersistenceError(
                f"unsupported registry state version "
                f"{state.get('format_version')!r} at {state_path}"
            )
        for record in state.get("versions", []):
            version = record["version"]
            archive = self._persist_dir / record["file"]
            try:
                replica = load_replica(archive)
            except (OSError, CheckpointMismatchError) as exc:
                raise RegistryPersistenceError(
                    f"cannot restore version {version!r} from {archive}: {exc}"
                ) from exc
            fingerprint = replica.fingerprint()
            if fingerprint != record["fingerprint"]:
                raise RegistryPersistenceError(
                    f"version {version!r} restored from {archive} fingerprints "
                    f"{fingerprint[:12]}, state.json recorded "
                    f"{record['fingerprint'][:12]}"
                )
            self._versions[version] = ModelVersion(
                version=version, replica=replica, fingerprint=fingerprint
            )
            self._version_files[version] = record["file"]
        self._history = [
            Deployment(**record) for record in state.get("history", [])
        ]
        active = state.get("active")
        self._active = None if active is None else Deployment(**active)
        self._previous = state.get("previous")
        if self._active is not None and self._active.version not in self._versions:
            raise RegistryPersistenceError(
                f"active version {self._active.version!r} has no archived replica"
            )

    def _persist_version_locked(self, entry: ModelVersion) -> None:
        from ..bnn.serialization import save_replica

        assert self._persist_dir is not None
        relative = f"versions/{len(self._version_files):04d}.npz"
        save_replica(entry.replica, self._persist_dir / relative)
        self._version_files[entry.version] = relative

    def _write_state_locked(self) -> None:
        assert self._persist_dir is not None
        state = {
            "format_version": _STATE_VERSION,
            "versions": [
                {
                    "version": version,
                    "file": self._version_files[version],
                    "fingerprint": entry.fingerprint,
                }
                for version, entry in self._versions.items()
            ],
            "active": None if self._active is None else asdict(self._active),
            "previous": self._previous,
            "history": [asdict(deployment) for deployment in self._history],
        }
        state_path = self._state_path()
        state_path.parent.mkdir(parents=True, exist_ok=True)
        # atomic replace so a crash mid-write never corrupts the manifest
        tmp_path = state_path.with_name(state_path.name + ".tmp")
        tmp_path.write_text(json.dumps(state, indent=2), encoding="utf-8")
        os.replace(tmp_path, state_path)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, version: str, replica: "ReplicaSpec") -> ModelVersion:
        """Add a version; idempotent for identical contents.

        Registering an existing name with the same fingerprint returns the
        existing entry (safe retries); a different fingerprint raises
        :class:`VersionConflictError` -- roll forward with a new name instead
        of mutating history.
        """
        if not version or not isinstance(version, str):
            raise ValueError("a version name must be a non-empty string")
        fingerprint = replica.fingerprint()
        with self._lock:
            existing = self._versions.get(version)
            if existing is not None:
                if existing.fingerprint == fingerprint:
                    return existing
                raise VersionConflictError(
                    f"version {version!r} is already registered with different "
                    f"contents ({existing.short_fingerprint} != "
                    f"{fingerprint[:12]}); register the new model under a new "
                    "version name"
                )
            entry = ModelVersion(
                version=version, replica=replica, fingerprint=fingerprint
            )
            self._versions[version] = entry
            if self._persist_dir is not None:
                self._persist_version_locked(entry)
                self._write_state_locked()
            return entry

    def get(self, version: str) -> ModelVersion:
        """Look up a registered version or raise :class:`UnknownVersionError`."""
        with self._lock:
            return self._get_locked(version)

    def _get_locked(self, version: str) -> ModelVersion:
        entry = self._versions.get(version)
        if entry is None:
            raise UnknownVersionError(
                f"unknown model version {version!r}; registered: "
                f"{sorted(self._versions)}"
            )
        return entry

    def versions(self) -> list[ModelVersion]:
        """All registered versions in registration order."""
        with self._lock:
            return list(self._versions.values())

    def __contains__(self, version: str) -> bool:
        with self._lock:
            return version in self._versions

    # ------------------------------------------------------------------
    # deployment
    # ------------------------------------------------------------------
    @property
    def active(self) -> Deployment | None:
        """The current deployment (``None`` before the first deploy)."""
        with self._lock:
            return self._active

    @property
    def generation(self) -> int:
        """The current generation (0 before the first deploy)."""
        with self._lock:
            return self._active.generation if self._active else 0

    @property
    def rollback_target(self) -> str | None:
        """The version ``rollback`` would re-activate, if any."""
        with self._lock:
            return self._previous

    def history(self) -> list[Deployment]:
        """The append-only deploy log, oldest first."""
        with self._lock:
            return list(self._history)

    def deploy(self, version: str) -> Deployment:
        """Atomically make ``version`` the active one; returns the deployment.

        Deploying the already-active version is a no-op returning the current
        deployment (idempotent rollout scripts).  The swap is a single pointer
        update under the lock: a concurrent ``resolve`` observes either the
        old or the new ``(version, generation)`` pair, never a mix.
        """
        with self._lock:
            entry = self._get_locked(version)
            if self._active is not None and self._active.version == version:
                return self._active
            return self._activate_locked(entry.version, rolled_back=False)

    def rollback(self) -> Deployment:
        """Swap back to the previously active version (a new generation)."""
        with self._lock:
            if self._previous is None:
                raise RollbackUnavailableError(
                    "no previously active version to roll back to"
                )
            return self._activate_locked(self._previous, rolled_back=True)

    def _activate_locked(self, version: str, rolled_back: bool) -> Deployment:
        generation = (self._active.generation if self._active else 0) + 1
        self._previous = self._active.version if self._active else None
        deployment = Deployment(
            version=version,
            generation=generation,
            deployed_at=self._clock(),
            rolled_back=rolled_back,
        )
        self._active = deployment
        self._history.append(deployment)
        if self._persist_dir is not None:
            self._write_state_locked()
        return deployment

    def resolve(self, version: str | None = None) -> tuple[str, int]:
        """Pin a request: ``(version, generation)`` at this instant.

        ``None`` resolves to the active version.  An explicit version must be
        registered; the returned generation is always the registry's current
        one, so responses tag which rollout state admitted the request.
        """
        with self._lock:
            if self._active is None:
                raise RollbackUnavailableError("no version has been deployed yet")
            if version is None:
                return self._active.version, self._active.generation
            self._get_locked(version)
            return version, self._active.generation

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            active = self._active.version if self._active else None
            return (
                f"ModelRegistry({len(self._versions)} versions, "
                f"active={active!r}, generation="
                f"{self._active.generation if self._active else 0})"
            )
