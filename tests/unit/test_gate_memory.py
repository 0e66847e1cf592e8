"""Memory bounds of the NumPy GRNG path's popcount stage.

The ``reference`` backend of ``grng_block`` composes ``lfsr_step_block >
window_popcounts > clt_standardise`` (the popcounts through the registry),
one 512 KiB packed sequence chunk at a time, and the dense int64
``window_popcounts`` reference walks its chunk in short windows.  Before
that, one 2 MiB chunk on the dense reference peaked at ~280 MiB of traced
allocations.  Two places pay for that chain in production:

* the ``grng_block``/``native`` conformance gate, which runs in the set-up
  of every process that dispatches ``grng_block`` (~3.6 MiB);
* an epsilon sweep at a geometry the compiled kernel declines, which any
  ``/v1/predict`` request can ask for (a ``grng_stride`` that is not a
  multiple of 64, an ``lfsr_bits`` that is not a whole number of words;
  ~6 MiB).

Each test runs in a fresh process without ``REPRO_BACKEND``, which would pin
the stages and measure a different chain.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.core.backend as backend

SRC = Path(backend.__file__).resolve().parents[2]

#: Traced peak allowed for one gate run, in bytes.
PEAK_LIMIT = 16 << 20

#: Traced peak allowed for one served epsilon sweep, in bytes.
SWEEP_PEAK_LIMIT = 64 << 20

CHILD = """
import tracemalloc
from repro.core import backend

if backend.native.library.load() is None:
    print("unavailable")
else:
    tracemalloc.start()
    backend.verify_backend("grng_block", "native")
    print(tracemalloc.get_traced_memory()[1])
"""

SWEEP_CHILD = """
import sys
import tracemalloc
from repro.serve.executor import SamplingConfig, materialize_epsilon_sweep

stride, bits = int(sys.argv[1]), int(sys.argv[2])
config = SamplingConfig(n_samples=8, seed=0, grng_stride=stride, lfsr_bits=bits)
materialize_epsilon_sweep([(4, 4)], config)  # conformance gates run here
tracemalloc.start()
# the gateway's default model: 196 features, 64 hidden units, 10 classes
materialize_epsilon_sweep([(196, 64), (64,), (64, 10), (10,)], config)
print(tracemalloc.get_traced_memory()[1])
"""


def _run_child(source: str, *args: str) -> str:
    env = {key: value for key, value in os.environ.items() if key != "REPRO_BACKEND"}
    env["PYTHONPATH"] = str(SRC)
    child = subprocess.run(
        [sys.executable, "-c", source, *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout.split()[-1]


def test_grng_block_native_gate_stays_small():
    answer = _run_child(CHILD)
    if answer == "unavailable":
        pytest.skip("no C compiler: grng_block's native backend is unavailable")
    peak = int(answer)
    assert peak <= PEAK_LIMIT, (
        f"the grng_block/native gate traced a {peak / 2**20:.1f} MiB peak "
        f"(limit {PEAK_LIMIT / 2**20:.0f} MiB): did a chunk-wide popcount "
        "transient come back?"
    )


@pytest.mark.parametrize(
    "grng_stride, lfsr_bits",
    [(255, 256), (256, 48)],
    ids=["stride-not-word-aligned", "register-not-word-aligned"],
)
def test_served_sweep_off_the_compiled_geometry_stays_small(grng_stride, lfsr_bits):
    peak = int(_run_child(SWEEP_CHILD, str(grng_stride), str(lfsr_bits)))
    assert peak <= SWEEP_PEAK_LIMIT, (
        f"an epsilon sweep at grng_stride={grng_stride}, lfsr_bits={lfsr_bits} "
        f"traced a {peak / 2**20:.1f} MiB peak (limit "
        f"{SWEEP_PEAK_LIMIT / 2**20:.0f} MiB): did a chunk-wide popcount "
        "transient come back?"
    )
