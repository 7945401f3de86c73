"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the same code runs up to 1.7x slower for tens of seconds
at a time while other tenants load it. Wall time and CPU time both inflate,
so neither takes the slowdown out. The kernel here is timed next to every
op. Its mix follows the library's: a plain Python loop, a loop of small
complex Hermitian ``eigvalsh`` calls on 12 x 12 sums, and a dense ``eig``
and SVD of a 64 x 64 matrix. It never calls the library, so a change to
the library cannot change it. An op's time is then reported at reference
speed::

    wall seconds * REFERENCE_S / kernel seconds measured around the op

``REFERENCE_S`` is the kernel's median time on the 2-vCPU 2.1 GHz Xeon
host the benchmark was built on, so there the scaled figures read as wall
seconds at that host's typical speed.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.0105

_rng = np.random.default_rng(20210903)
_G = _rng.standard_normal((8, 12, 12)) + 1j * _rng.standard_normal((8, 12, 12))
_H = [g @ g.conj().T for g in _G]
_A = _rng.standard_normal((64, 64))


def _kernel():
    s = 0
    for i in range(20000):
        s += i * i
    acc = 0.0
    for k in range(256):
        acc += float(np.linalg.eigvalsh(_H[k & 7] + _H[(k >> 3) & 7])[0])
    np.linalg.eigvals(_A)
    np.linalg.svd(_A)
    return s, acc


def kernel_seconds() -> float:
    """Wall seconds of one run of the reference kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def scaled(seconds: float, kernel_s: float) -> float:
    """``seconds`` of wall time at reference speed, given the kernel's time then."""
    return seconds * REFERENCE_S / kernel_s
