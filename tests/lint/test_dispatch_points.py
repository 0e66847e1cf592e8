"""Ratchet: the kernel registry may not grow.

:mod:`repro.core.backend` has 10 dispatch points.  Each is one
``KernelRegistry.register`` call -- a name, a conformance battery, a gate
and its backends, whose order is the default chain -- so a new capability
of an existing kernel extends that kernel's arguments (fused weight sampling
is an optional ``mu`` / ``sigma`` / ``w_out`` of ``grng_block``), a kernel
with one implementation is a plain function that counts its calls
(``lfsr_step_block``, ``clt_standardise``, ``sample_matmul``), and the
registry diet may only lower the count.  Lower ``MAX_DISPATCH_POINTS`` when
a point goes.
"""

from __future__ import annotations

import repro.core.backend as backend

MAX_DISPATCH_POINTS = 10


def test_the_registry_does_not_grow():
    names = backend.kernel_names()
    assert len(names) <= MAX_DISPATCH_POINTS, (
        f"{len(names)} dispatch points (limit {MAX_DISPATCH_POINTS}): extend an "
        f"existing kernel instead of registering a new one; registered: {names}"
    )
