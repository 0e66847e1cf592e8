"""Delta shipping: content-addressed tensor state for distributed steps.

PR 4's coordinator shipped every task a *full* copy of its state -- all
parameter tensors plus the minibatch -- every step.  This module replaces
that with a fingerprint-addressed delta protocol:

* every tensor a unit needs (a *slot*: ``param/<name>``, ``data/x/<block>``,
  ``data/y/<block>``) is addressed by its content fingerprint
  (:func:`~repro.bnn.serialization.tensor_fingerprint` -- SHA-256 over
  dtype, shape and bytes);
* each worker keeps a bounded, LRU-ordered :class:`DeltaCache` of tensors
  keyed **by fingerprint** (content-addressed: a re-shipped minibatch or an
  unchanged parameter hits the cache no matter which slot asked for it);
* the coordinator keeps one :class:`DeltaEncoder` per worker, mirroring
  exactly what that worker's cache holds, and ships only the tensors the
  worker cannot already have, plus the expected post-apply
  :func:`~repro.bnn.serialization.state_fingerprint` of the resolved slot
  set.

The encoder's mirror and the worker's cache evolve in lockstep because both
replay the same entry sequence with the same capacity and the same LRU
discipline.  Anything that could break the lockstep degrades safely instead
of silently computing wrong bits:

* a cache miss, a fingerprint mismatch on received bytes, or a post-apply
  state-fingerprint mismatch raises :class:`DeltaResyncRequired`; the
  worker reports it and the coordinator re-ships the unit **full** (and
  marks the worker cold, clearing its mirror);
* a ``full`` message clears the receiving cache before applying, so after
  every resync both sides are in a known-identical state;
* an unknown wire version raises :class:`DeltaProtocolError` (never a
  silent misparse).

Wire format (version 1)
-----------------------

One message per dispatch unit, a plain dict (it crosses a ``multiprocessing``
queue):

========== ====================================================================
field       meaning
========== ====================================================================
``version`` wire-format version (this module's ``WIRE_VERSION``)
``kind``    ``"full"`` (receiver clears its cache first; every entry carries
            bytes) or ``"delta"`` (entries may reference cached fingerprints)
``entries`` ordered list of ``(slot, fingerprint, array_or_None)``; ``None``
            means "you hold ``fingerprint`` in cache"
``state_fp`` expected combined fingerprint of the resolved ``(slot,
            fingerprint)`` set after applying
``capacity`` the LRU capacity both sides must enforce
========== ====================================================================
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from ..bnn.serialization import state_fingerprint, tensor_fingerprint

__all__ = [
    "WIRE_VERSION",
    "DEFAULT_CACHE_SLOTS",
    "DeltaProtocolError",
    "DeltaResyncRequired",
    "DeltaCache",
    "DeltaEncoder",
    "EncodedState",
]

#: Version stamp carried by every state message; receivers reject anything
#: they do not speak rather than guessing.
WIRE_VERSION = 1

#: Default LRU capacity (distinct tensors) of a worker's delta cache and its
#: coordinator-side mirror.  Sized for many minibatches plus the parameter
#: set; both sides must agree, so the value rides in every message.
DEFAULT_CACHE_SLOTS = 256


class DeltaProtocolError(RuntimeError):
    """A state message is structurally invalid (e.g. unknown wire version)."""


class DeltaResyncRequired(RuntimeError):
    """The receiver cannot resolve a state message against its cache.

    Raised on a fingerprint cache miss, on received bytes that do not hash
    to their declared fingerprint, or on a post-apply state-fingerprint
    mismatch.  The coordinator answers by re-shipping the unit full.
    """


@dataclass(frozen=True)
class EncodedState:
    """One encoded state message plus its traffic accounting."""

    message: dict
    #: Tensor bytes actually placed on the wire by this message.
    shipped_bytes: int
    #: Tensor bytes a full (non-delta) shipment of the same state would move.
    total_bytes: int


class DeltaCache:
    """Worker-side content-addressed tensor cache (bounded, LRU).

    ``apply`` resolves one state message into the ``{slot: array}`` dict the
    unit executes against, updating the cache exactly as the coordinator's
    mirror predicts.
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[str, np.ndarray]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def fingerprints(self) -> tuple[str, ...]:
        """Cached fingerprints in LRU order (oldest first); for tests."""
        return tuple(self._entries)

    def apply(self, message: Mapping) -> Dict[str, np.ndarray]:
        """Resolve ``message`` into ``{slot: array}``; see module docstring."""
        version = message.get("version")
        if version != WIRE_VERSION:
            raise DeltaProtocolError(
                f"unsupported state wire version {version!r} "
                f"(this worker speaks {WIRE_VERSION})"
            )
        kind = message.get("kind")
        if kind not in ("full", "delta"):
            raise DeltaProtocolError(f"unknown state message kind {kind!r}")
        capacity = int(message["capacity"])
        if kind == "full":
            # a full shipment re-baselines the cache: afterwards its contents
            # are exactly the coordinator's mirror, whatever happened before
            self._entries.clear()
        resolved: Dict[str, np.ndarray] = {}
        missing: list[str] = []
        for slot, fingerprint, data in message["entries"]:
            if data is None:
                array = self._entries.get(fingerprint)
                if array is None:
                    missing.append(slot)
                    continue
                self._entries.move_to_end(fingerprint)
            else:
                if tensor_fingerprint(data) != fingerprint:
                    raise DeltaResyncRequired(
                        f"received tensor for slot {slot!r} does not hash to "
                        "its declared fingerprint"
                    )
                # The cache must own its bytes: the inline transport hands
                # over the coordinator's live arrays by reference, and those
                # mutate in place on the optimiser step.  A private read-only
                # copy keeps every entry's content forever matching its
                # content-addressed key.
                array = np.array(data)
                array.flags.writeable = False
                self._entries[fingerprint] = array
                self._entries.move_to_end(fingerprint)
                while len(self._entries) > capacity:
                    self._entries.popitem(last=False)
            resolved[slot] = array
        if missing:
            raise DeltaResyncRequired(
                f"cache miss for slot(s) {sorted(missing)}; full resync required"
            )
        applied = state_fingerprint(
            (slot, fingerprint) for slot, fingerprint, _ in message["entries"]
        )
        if applied != message["state_fp"]:
            raise DeltaResyncRequired(
                "post-apply state fingerprint mismatch; full resync required"
            )
        return resolved


class DeltaEncoder:
    """Coordinator-side encoder for one worker: ships deltas, mirrors its cache.

    With ``delta_shipping=False`` every message is a full shipment (the
    measurement baseline the delta benchmark compares against); the wire
    format is identical either way.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CACHE_SLOTS,
        delta_shipping: bool = True,
    ) -> None:
        if capacity < 1:
            raise ValueError("delta cache capacity must be at least 1")
        self.capacity = capacity
        self.delta_shipping = delta_shipping
        self._mirror: "OrderedDict[str, None]" = OrderedDict()
        self._cold = True

    @property
    def mirror(self) -> tuple[str, ...]:
        """Fingerprints the worker's cache is believed to hold (LRU order)."""
        return tuple(self._mirror)

    def mark_cold(self) -> None:
        """Forget everything about the worker's cache; next message is full."""
        self._mirror.clear()
        self._cold = True

    def encode(
        self,
        slots: Mapping[str, np.ndarray],
        fingerprints: Mapping[str, str] | None = None,
    ) -> EncodedState:
        """Encode the ``{slot: array}`` state for this worker.

        ``fingerprints`` may carry pre-computed per-slot fingerprints (the
        coordinator hashes each step's tensors once, not once per worker).
        Entries are emitted in sorted slot order -- deterministic, so the
        mirror and the worker cache replay identical LRU sequences.
        """
        if fingerprints is None:
            fingerprints = {
                slot: tensor_fingerprint(array) for slot, array in slots.items()
            }
        full = self._cold or not self.delta_shipping
        entries = []
        shipped = 0
        total = 0
        for slot in sorted(slots):
            array = slots[slot]
            fingerprint = fingerprints[slot]
            total += array.nbytes
            if not full and fingerprint in self._mirror:
                entries.append((slot, fingerprint, None))
                self._mirror.move_to_end(fingerprint)
            else:
                entries.append((slot, fingerprint, array))
                shipped += array.nbytes
                self._mirror[fingerprint] = None
                self._mirror.move_to_end(fingerprint)
                while len(self._mirror) > self.capacity:
                    self._mirror.popitem(last=False)
        message = {
            "version": WIRE_VERSION,
            "kind": "full" if full else "delta",
            "entries": entries,
            "state_fp": state_fingerprint(
                (slot, fingerprints[slot]) for slot in slots
            ),
            "capacity": self.capacity,
        }
        if self.delta_shipping:
            self._cold = False
        else:
            # baseline mode never relies on the worker cache: stay cold so
            # every message re-baselines the receiver too
            self._mirror.clear()
            self._cold = True
        return EncodedState(
            message=message, shipped_bytes=shipped, total_bytes=total
        )
