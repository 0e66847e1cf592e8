"""JSON bodies of the ``/v1`` wire, float64 arrays through the compiled codec.

Both ends of ``/v1/predict`` -- the gateway and
:class:`~repro.serve.client.GatewayClient` -- encode and decode here, and the
bytes and values are exactly the stdlib's:

* :func:`dumps` is ``json.dumps(payload).encode()`` with every ndarray member
  written as ``json.dumps(array.tolist())`` writes it, through the
  ``json_dumps_f64`` dispatch point (shortest round-trip digits, equal to
  ``repr``); :func:`dump_chunks` is the same body in pieces, one per leading
  index of one array, for the chunked writer;
* :func:`loads` is ``json.loads(raw)`` with the ``float_keys`` members already
  ``np.asarray(value, float64)``, parsed through ``json_loads_f64``
  (correctly rounded, so equal to ``float()``).  A non-ASCII body, or any
  deviation from the top-level walk below, goes to ``json.loads(raw)``
  instead, members left as parsed: the caller meets the values and the
  errors it met without the codec.
"""

from __future__ import annotations

import json
import re
from json.decoder import scanstring
from typing import Any, Collection, Iterator, Mapping

import numpy as np

from ..core.backend import dispatch

__all__ = ["dump_chunks", "dumps", "loads"]

_dumps_f64 = dispatch("json_dumps_f64")
_loads_f64 = dispatch("json_loads_f64")
_decoder = json.JSONDecoder()
_whitespace = re.compile(r"[ \t\n\r]*")  # json.decoder's WHITESPACE


def _member(key: str, value: Any) -> bytes:
    if isinstance(value, np.ndarray):
        text = _dumps_f64(value)
    else:
        text = json.dumps(value).encode()
    return json.dumps(key).encode() + b": " + text


def dumps(payload: Mapping[str, Any]) -> bytes:
    """``json.dumps(payload).encode()``, ndarray members through the codec.

    The members are spliced in ``json.dumps``' own layout
    (``{"key": value, ...}``); keys are strings.
    """
    members = b", ".join(_member(key, value) for key, value in payload.items())
    return b"{" + members + b"}"


def dump_chunks(
    payload: Mapping[str, Any], key: str, array: np.ndarray
) -> Iterator[bytes]:
    """``dumps({**payload, key: array})`` in pieces: one per ``array[i]``."""
    head = dumps(payload)[:-1] + (b", " if payload else b"")
    yield head + json.dumps(key).encode() + b": ["
    for index in range(array.shape[0]):
        yield (b", " if index else b"") + _dumps_f64(array[index])
    yield b"]}"


def loads(raw: bytes, float_keys: Collection[str] = ()) -> Any:
    """``json.loads(raw)``, the top-level ``float_keys`` members as float64 arrays."""
    if float_keys and raw.isascii():
        try:
            return _walk(raw, float_keys)
        except (ValueError, TypeError, IndexError, OverflowError, RecursionError):
            pass  # any deviation: the stdlib decides, errors included
    return json.loads(raw)


def _walk(raw: bytes, float_keys: Collection[str]) -> dict:
    """The top-level object member by member, as json's object parser walks it."""
    text = raw.decode("ascii")
    end = _whitespace.match(text, 0).end()
    if text[end] != "{":
        raise ValueError("not an object")
    end = _whitespace.match(text, end + 1).end()
    members: dict = {}
    if text[end] == "}":
        end += 1
    else:
        while True:
            if text[end] != '"':
                raise ValueError("expecting a key")
            key, end = scanstring(text, end + 1)
            end = _whitespace.match(text, end).end()
            if text[end] != ":":
                raise ValueError("expecting ':'")
            end = _whitespace.match(text, end + 1).end()
            if key in float_keys:
                members[key], end = _loads_f64(raw, end)
            else:
                members[key], end = _decoder.raw_decode(text, end)
            end = _whitespace.match(text, end).end()
            if text[end] == "}":
                end += 1
                break
            if text[end] != ",":
                raise ValueError("expecting ','")
            end = _whitespace.match(text, end + 1).end()
    if _whitespace.match(text, end).end() != len(text):
        raise ValueError("extra data")
    return members
