"""A fixed reference computation that measures the speed of the core.

On a shared machine the speed of one core can change by up to half for
tens of seconds at a time while nothing in the program changes: on a
shared 2-CPU Linux host the reference below took 7.3 ms in one run and
12.5 ms in the next.  So timed operations run in blocks of a quarter second
or so, runs of this reference separate the blocks, and the wall time of
each operation is reported scaled to a core on which the reference takes
`REF_S`, with `reference` the median of the runs around its block:

    scaled = wall * REF_S / reference

The reference is pure Python of the same kind as the library's hot paths
(augmenting-path search over lists and a deque, `Fraction` arithmetic) and
uses nothing from `flexconn`, so a change to the program cannot move it.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from checker import disjoint_paths

REF_S = 0.010

_N = 40
_rng = random.Random(7)
_EDGES = [
    (u, v)
    for u, v in ((_rng.randrange(_N), _rng.randrange(_N)) for _ in range(160))
    if u != v
]


def reference_seconds() -> float:
    """Wall time of one run of the reference computation."""
    start = time.perf_counter()
    total = Fraction(0)
    for sink in range(1, 40):
        total += Fraction(disjoint_paths(_N, _EDGES, 0, sink, 10), sink + 3)
        total += sum(Fraction(u, v + 1) for u, v in _EDGES[:60])
    elapsed = time.perf_counter() - start
    if total <= 0:
        raise RuntimeError("reference computation went wrong")
    return elapsed
