"""The wire's float64 <-> JSON text codec, held to the stdlib calls it replaced.

``json_dumps_f64`` and ``json_loads_f64`` encode and decode every float
tensor of ``/v1/predict`` through :mod:`repro.serve.wire`; their compiled
backends live in ``core/_json.c``.  Before them the wire called
``json.dumps(a.tolist())`` and ``np.asarray(json.loads(t)[k], float64)``.
Those calls are pasted below as the oracles, and both backends -- the
stdlib ``reference`` and the compiled ``native`` codec -- must give their
bytes and values on:

* raw 64-bit patterns viewed as float64, subnormals, ``5e-324``, ``+-max``,
  ``+-0.0``, NaN with several payloads, ``+-inf``, powers of 2 and 10 on both
  sides of ``repr``'s exponent switch, ndim 0-4 with zero-size dimensions;
* the encoder's own output read back, and a table of grammar cases (number
  forms Python's json accepts and refuses, long integers, whitespace, ragged
  and non-numeric arrays, duplicate keys, non-ASCII bodies), which must also
  give the same HTTP status and body through a live gateway on both backends;
* eight threads encoding and decoding at once (the compiled calls run with
  the GIL released);
* both gateway writers (buffered and chunked) with NaN, +-inf and -0.0
  planted, and a process without a C compiler.

The Ryu power-of-5 tables committed in ``_json.c`` are regenerated here from
Python integers and compared.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.core.native as native
from repro.core import backend
from repro.models import ReplicaSpec
from repro.serve import ServerConfig, ServingGateway, wire

C_SOURCE = Path(backend.__file__).with_name("_json.c")
DUMPS = backend.dispatch("json_dumps_f64")
LOADS = backend.dispatch("json_loads_f64")
KERNELS = ("json_dumps_f64", "json_loads_f64")
BACKENDS = pytest.mark.parametrize("name", ["reference", "native"])


# ----------------------------------------------------------------------
# the oracles: what the wire called before the codec
# ----------------------------------------------------------------------
def pre_codec_dumps(array: np.ndarray) -> bytes:
    return json.dumps(array.tolist()).encode()


def pre_codec_loads(text: bytes, key: str) -> np.ndarray:
    return np.asarray(json.loads(text)[key], dtype=np.float64)


def pow5_tables() -> str:
    """The C block of Ryu's tables, from Python integers."""
    mask = (1 << 64) - 1

    def table(name: str, values: list[int]) -> list[str]:
        entries = [f"{{0x{v & mask:016x}, 0x{v >> 64:016x}}}" for v in values]
        rows = [", ".join(entries[i:i + 2]) + "," for i in range(0, len(entries), 2)]
        return [f"static const uint64_t {name}[{len(values)}][2] = {{",
                *("    " + row for row in rows), "};"]

    split = []
    for i in range(326):  # 5^i scaled to its top 125 bits
        shift = (5**i).bit_length() - 125
        split.append(5**i >> shift if shift >= 0 else 5**i << -shift)
    inverse = [(1 << ((5**q).bit_length() - 1 + 125)) // 5**q + 1 for q in range(342)]
    return "\n".join(table("POW5_SPLIT", split) + table("POW5_INV_SPLIT", inverse)) + "\n"


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def native_available() -> bool:
    return all(
        impl["available"]
        for entry in backend.list_backends()
        if entry["kernel"] in KERNELS
        for impl in entry["backends"]
        if impl["name"] == "native"
    )


def calls(kernel: str, name: str) -> int:
    return backend.counters_snapshot().get(kernel, {}).get(name, {}).get("calls", 0)


@contextmanager
def forced(name: str, must_run: bool = True):
    """Both codec points forced onto ``name``; by default it must have run."""
    if name == "native" and not native_available():
        pytest.skip("no C compiler: the json codec's native backend is unavailable")
    before = sum(calls(kernel, name) for kernel in KERNELS)
    with backend.using(KERNELS[0], name), backend.using(KERNELS[1], name):
        yield
    assert not must_run or sum(calls(kernel, name) for kernel in KERNELS) > before


def assert_round_trip(array: np.ndarray) -> None:
    """Encode, then read back inside a predict-like body, against the oracles."""
    text = DUMPS(array)
    assert text == pre_codec_dumps(array)
    document = b'{"x": ' + text + b', "y": 1}'
    want = pre_codec_loads(document, "x")
    got = wire.loads(document, ("x",))["x"]
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # NaN payloads included
    value, end = LOADS(document, 6)
    assert end == 6 + len(text) and value.tobytes() == want.tobytes()


def floats_from_bits(bits) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(np.float64)


def test_pow5_tables_are_the_python_integers():
    source = C_SOURCE.read_text()
    block = source.split("/* BEGIN POW5 TABLES */\n")[1].split("/* END POW5 TABLES */")[0]
    assert block == pow5_tables()


# ----------------------------------------------------------------------
# encoder (and the decoder reading its output back)
# ----------------------------------------------------------------------
EDGES = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-323, 2.2250738585072014e-308,
     2.225073858507201e-308, 1.7976931348623157e308, -1.7976931348623157e308,
     0.1, 0.2, 0.30000000000000004, 1 / 3, 2 / 3, 9007199254740993.0,
     9999999999999998.0, 123456789012345680.0, 1e23, 5e-324 * 3],
    floats_from_bits([
        0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
        0x7FF4000000000000, 0x7FFFFFFFFFFFFFFF, 0xFFF0000000000001,  # NaN payloads
        0x0000000000000001, 0x000FFFFFFFFFFFFF, 0x8000000000000001,
        0x0008000000000000, 0x0010000000000000,  # subnormal / normal boundary
    ]),
])


def decades() -> np.ndarray:
    """Powers of 10 and their neighbours around repr's switches (1e-4 / 1e-5,
    1e15 - 1e17) and across the exponent range."""
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    switches = np.array([1e-4, 1e-5, 9.999999999999999e-05, 1.0000000000000001e-05,
                         1e15, 1e16, 1e17, 9.999999999999998e15, 1.0000000000000002e16])
    return np.concatenate([near, switches, -near])


def powers_of_two() -> np.ndarray:
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    return np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])


@BACKENDS
def test_edge_classes_round_trip(name):
    with forced(name), np.errstate(over="ignore"):
        for values in (EDGES, decades(), powers_of_two()):
            assert_round_trip(values)


@BACKENDS
@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=0, max_size=64))
def test_raw_bit_patterns_round_trip(name, bits):
    with forced(name):
        assert_round_trip(floats_from_bits(bits))


@BACKENDS
@settings(max_examples=150, deadline=None)
@given(
    array=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4),
        elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    )
)
def test_nested_shapes_round_trip(name, array):
    with forced(name):
        if array.ndim:
            assert_round_trip(array)
        else:  # a bare number is not an array: only the encoder takes it
            assert DUMPS(array) == pre_codec_dumps(array)


def test_native_declines_outside_its_domain():
    values = np.arange(12, dtype=np.float64).reshape(3, 4) / 7
    with forced("native", must_run=False):
        for array in (values.T, values[:, ::2], values.astype(np.float32)):
            before = calls("json_dumps_f64", "reference")
            assert DUMPS(array) == pre_codec_dumps(array)
            assert calls("json_dumps_f64", "reference") == before + 1  # declined


# ----------------------------------------------------------------------
# decoder: the grammar table, at the wire and through a live gateway
# ----------------------------------------------------------------------
def row(*tokens: bytes) -> bytes:
    """One 16-feature input row (the tiny MLP's width)."""
    return b"[" + b", ".join(tokens + (b"0",) * (16 - len(tokens))) + b"]"


def body(*rows: bytes, tail: bytes = b"") -> bytes:
    return b'{"x": [' + b", ".join(rows) + b"]" + tail + b"}"


GRAMMAR = {
    "exponent forms": body(row(b"1E5", b"1e+05", b"1e-05", b"2.5E-3", b"-1.5e+300")),
    "negative zeros": body(row(b"-0", b"-0.0", b"0", b"-0e0", b"0.0")),
    "leading zero": body(row(b"01")),
    "bare fraction": body(row(b".5")),
    "trailing dot": body(row(b"1.")),
    "plus sign": body(row(b"+1")),
    "hex float": body(row(b"0x1p3")),
    "dangling exponent": body(row(b"1e")),
    "overflow": body(row(b"1e400", b"-1e400")),
    "underflow": body(row(b"1e-400", b"-1e-400", b"2.4703282292062328e-324")),
    "long fraction": body(row(b"0." + b"3" * 400, b"1." + b"0" * 30 + b"1")),
    "19-digit integers": body(row(b"9999999999999999999", b"-9223372036854775809",
                                  b"9007199254740993", b"18014398509481985")),
    "20-digit integers": body(row(b"12345678901234567890", b"99999999999999999999")),
    "400-digit integer": body(row(b"9" * 400)),
    "5000-digit integer": body(row(b"1" * 5000)),
    "whitespace": b'\n{\t"x" :\r[ ' + row(b"1").replace(b", ", b" ,\t\n") + b" ]\n}\r\n",
    "non-JSON whitespace": body(row(b"1").replace(b", ", b",\x0b")),
    "constants": body(row(b"NaN", b"Infinity", b"-Infinity")),
    "constant typo": body(row(b"Nan")),
    "true and null": body(row(b"true", b"null", b"false")),
    "numeric strings": body(row(b'"1.5"', b'"2"')),
    "ragged": body(row(b"1"), b"[1, 2]"),
    "ragged depth": body(row(b"1"), b"[" + row(b"1") + b"]"),
    "empty": b'{"x": []}',
    "empty rows": b'{"x": [[], []]}',
    "scalar": b'{"x": 5}',
    "null x": b'{"x": null}',
    "two rows": body(row(b"0.25"), row(b"-0.75")),
    "duplicate x": body(row(b"1"), tail=b', "x": [' + row(b"2") + b"]"),
    "duplicate x, first ragged": b'{"x": [[1], [1, 2]], "x": [' + row(b"2") + b"]}",
    "deep nesting": b'{"x": ' + b"[" * 34 + b"1" + b"]" * 34 + b"}",
    "sampling after x": body(row(b"3"), tail=b', "sampling": {"n_samples": 2, "seed": 3}'),
    "non-ASCII body": body(row(b"1"), tail=' , "note": "é"'.encode()),
    "trailing comma": b'{"x": [' + row(b"1")[:-1] + b", ]]}",
    "trailing garbage": body(row(b"1")) + b" x",
    "unterminated": b'{"x": [[1, 2',
    "top-level array": b"[[1, 2]]",
    "no x": b'{"y": [[1, 2]]}',
}


def outcome(parse, raw: bytes):
    """What a predict handler sees: the body (x as float64) or the error."""
    try:
        parsed = parse(raw)
        x = np.asarray(parsed["x"], dtype=np.float64)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)
    rest = {key: value for key, value in parsed.items() if key != "x"}
    return x.shape, x.tobytes(), rest


@BACKENDS
@pytest.mark.parametrize("case", sorted(GRAMMAR))
def test_grammar_table_matches_the_stdlib(name, case):
    raw = GRAMMAR[case]
    with forced(name, must_run=False):  # a body refused before "x" never reaches it
        got = outcome(lambda r: wire.loads(r, ("x",)), raw)
    assert got == outcome(json.loads, raw)


def _post_raw(address, raw: bytes) -> tuple[int, bytes]:
    connection = http.client.HTTPConnection(*address, timeout=60)
    try:
        connection.request("POST", "/v1/predict", body=raw,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN / inf inputs
def test_grammar_table_answers_alike_over_http(tiny_mlp_spec, restore_selection):
    """Every case gets the same status and body whichever backend parses it."""
    if not native_available():
        pytest.skip("no C compiler: the json codec's native backend is unavailable")
    replica = ReplicaSpec.capture(tiny_mlp_spec, tiny_mlp_spec.build_bayesian(seed=11))
    answers = {}
    for name in ("native", "reference"):
        for kernel in KERNELS:
            backend.set_backend(kernel, name)
        with ServingGateway(replica, ServerConfig(max_wait_ms=1.0)) as gateway:
            answers[name] = {
                case: _post_raw(gateway.address, raw) for case, raw in GRAMMAR.items()
            }
    assert answers["native"] == answers["reference"]
    status = {case: answer[0] for case, answer in answers["native"].items()}
    assert status["400-digit integer"] == 400  # was 500: OverflowError
    assert status["5000-digit integer"] == 400  # was 500: int() digit limit
    assert status["exponent forms"] == status["non-ASCII body"] == 200
    assert status["leading zero"] == status["ragged"] == 400


# ----------------------------------------------------------------------
# the wire module's writers and the fallbacks
# ----------------------------------------------------------------------
def planted_payload(rng) -> dict:
    samples = rng.random((3, 4, 5))
    flat = samples.reshape(-1)
    flat[[1, 7, 20, 33]] = [np.nan, np.inf, -np.inf, -0.0]
    mean = samples.mean(axis=0)
    return {
        "version": "v1",
        "generation": 2,
        "predictions": [0, 1, 2, 3],
        "entropy": mean[:, 0],  # a strided view: the reference writes it
        "mean_probabilities": mean,
        "sample_probabilities": samples,
    }


def listed(payload: dict) -> dict:
    """The payload as the gateway built it before the codec: lists."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in payload.items()}


@BACKENDS
def test_both_writers_write_the_pre_codec_bytes(name):
    payload = planted_payload(np.random.default_rng(4))
    samples = payload.pop("sample_probabilities")
    with forced(name), np.errstate(invalid="ignore"):
        buffered = wire.dumps({**payload, "sample_probabilities": samples})
        streamed = b"".join(wire.dump_chunks(payload, "sample_probabilities", samples))
        want = json.dumps(listed({**payload, "sample_probabilities": samples})).encode()
    assert buffered == streamed == want


@BACKENDS
def test_eight_threads_encode_and_decode_at_once(name):
    arrays = [np.random.default_rng(i).standard_normal((16, 24 + i)) for i in range(8)]
    texts = [pre_codec_dumps(a) for a in arrays]
    failures: list[str] = []
    start = threading.Barrier(8)

    def worker(index: int) -> None:
        start.wait()
        for _ in range(40):
            if DUMPS(arrays[index]) != texts[index]:
                failures.append(f"dumps {index}")
            value, end = LOADS(texts[index], 0)
            if end != len(texts[index]) or value.tobytes() != arrays[index].tobytes():
                failures.append(f"loads {index}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter lock around often
    try:
        with forced(name):
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures


def test_no_toolchain_is_correct_not_fast(monkeypatch, tmp_path, restore_selection):
    monkeypatch.setattr(native, "find_compiler", lambda: None)
    monkeypatch.setattr(native, "library", native.NativeLibrary(cache_dir=tmp_path))
    monkeypatch.setattr(backend.registry, "_warned", set())
    for kernel in KERNELS:
        backend.set_backend(kernel, None)
    payload = planted_payload(np.random.default_rng(9))
    before = {(k, name): calls(k, name) for k in KERNELS for name in ("native", "reference")}
    with pytest.warns(RuntimeWarning, match="native kernels unavailable"):
        text = wire.dumps(payload)
    assert text == json.dumps(listed(payload)).encode()
    samples = wire.loads(text, ("sample_probabilities",))["sample_probabilities"]
    assert samples.tobytes() == payload["sample_probabilities"].tobytes()
    for kernel in KERNELS:
        assert calls(kernel, "native") == before[kernel, "native"]
        assert calls(kernel, "reference") > before[kernel, "reference"]
