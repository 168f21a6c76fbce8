"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's host is shared: its speed changes by tens of percent from
one half-minute to the next and by up to twofold from one 40 ms window to
the next.  Every timed qkcalc operation is bracketed by runs of this kernel,
and the operation's time is scaled by REF_S / (kernel time next to it).  The
result reads as the seconds the operation takes on a host where this kernel
takes REF_S.

The kernel does the kinds of work qkcalc does: sparse Laurent-polynomial
products kept in dicts keyed by exponent tuples, with big-int coefficients,
and a JSON round trip, like the solvers and the table cache; then rank-one
updates of an int64 matrix mod p in numpy, like the verify suites.  The
host's slowdowns hit the two kinds differently: interpreter work slows more
than numpy's array loops.  A tight integer loop was tried first and tracked
qkcalc's slowdowns less well than either.

Do not change the kernel, its data or REF_S: every recorded figure of the
benchmark is scaled by it, so a change makes old and new figures
incomparable.
"""

from __future__ import annotations

import json
import random
from time import perf_counter

import numpy as np

# kernel time, in seconds, that the scaled figures are expressed against
REF_S = 0.030
P = 10007


def _data():
    rng = random.Random(20240601)
    polys = [
        {(rng.randrange(24), rng.randrange(24)): rng.randrange(-10**15, 10**15) for _ in range(70)}
        for _ in range(6)
    ]
    blob = json.dumps([[[list(k), v] for k, v in p.items()] for p in polys] * 6)
    matrix = np.random.default_rng(20240601).integers(0, P, size=(120, 120), dtype=np.int64)
    return polys, blob, matrix


_POLYS, _BLOB, _MATRIX = _data()


def kernel() -> int:
    acc: dict = {}
    for a in _POLYS[:3]:
        for b in _POLYS[3:]:
            for (i, j), x in a.items():
                for (k, l), y in b.items():
                    key = (i + k, j + l)
                    acc[key] = acc.get(key, 0) + x * y
    decoded = json.loads(_BLOB)
    m = _MATRIX
    for _ in range(4):
        for r in range(40):
            m = (m - np.outer(m[:, r], m[r])) % P
    return len(acc) + len(json.dumps(decoded)) + int(m[0, 0])


def timed() -> float:
    """Seconds one kernel run takes now."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0
