"""The host's speed at a moment, read from a fixed reference computation.

The benchmark runs on a few cores of a shared host whose speed moves with
the load of its other tenants: the same fixed-input round runs a third
slower or faster from one minute to the next, in CPU time as well as wall
time.  So every timed operation is preceded by one run of a reference
computation that imports nothing from moelab, and its latency is reported
as ``scaled``: the time it would have taken on a host where the reference
takes ``NOMINAL_MS``.  A change to moelab moves the scaled figures as it
moves the raw ones; a change in the host's speed moves the reference with
them and cancels.

A busy host slows interpreted Python more than NumPy's array loops (by
about 1.8 and 1.4 times), so each workload takes the reference whose kind
of work its operations do: ``"array"`` for the EM sweeps, whose time goes
to arithmetic on arrays of a few thousand rows, and ``"python"`` for the
analysis workload, whose time goes to the polynomial search's interpreted
loops over tiny arrays.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_MS = 10.0

_rng = np.random.default_rng(2024)
_A = _rng.standard_normal((2000, 3))
_W = _rng.standard_normal((3, 3))


def array_reference_ms() -> float:
    """Wall milliseconds of a fixed run of small-array NumPy arithmetic."""
    t0 = time.perf_counter()
    for _ in range(40):
        z = _A @ _W
        z -= z.max(axis=1, keepdims=True)
        np.exp(z, out=z)
        z /= z.sum(axis=1, keepdims=True)
        s = 0
        for i in range(200):
            s += i * i
    return 1e3 * (time.perf_counter() - t0)


def python_reference_ms() -> float:
    """Wall milliseconds of a fixed run of interpreted Python."""
    t0 = time.perf_counter()
    d = {}
    for i in range(50000):
        d[i % 97] = d.get(i % 97, 0.0) + float(i) * 0.5
    return 1e3 * (time.perf_counter() - t0)


REFERENCES = {"array": array_reference_ms, "python": python_reference_ms}


def scaled(latency, reference) -> float:
    """``latency`` at the host speed where the reference takes NOMINAL_MS."""
    return latency * NOMINAL_MS / reference
