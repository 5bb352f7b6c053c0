"""The benchmark's workloads: what each one draws and what it runs.

A workload is a fixed number of cases drawn from its seed; one case is the
unit of work timed as one operation.  Sizes are fixed per workload and
kinds follow a fixed cycle over the case index; only the graphs, costs,
labels and demands come from the seed, so every seed gives a set of the
same make-up.  A warm-up
case of a smaller shape is drawn first from the same stream and run once
before timing starts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import instances as gen


@dataclass(frozen=True)
class Workload:
    name: str
    cases: int      # cases in the timed set
    draw: object    # draw(rng, index, warm) -> tuple of instance dicts
    oracle: bool    # certify each instance with exact_opt as well


def _fgc_mid(rng, i, warm):
    """fgc-q1 and fgc-p1 in turn; 8 nodes, 8 extra edges, 3 demand pairs
    with p, q <= 2."""
    n = 6 if warm else 8
    return (gen.draw_fgc(rng, ("q1", "p1")[i % 2], (n, n), (n, n), (3, 3)),)


def _fst_terminals(rng, i, warm):
    """fst with 20 nodes, 10 extra edges and 10 terminals."""
    n, terminals = (12, 4) if warm else (20, 10)
    return (gen.draw_fst(rng, (n, n), (n // 2, n // 2), (terminals, terminals)),)


def _ncfgc_rooted(rng, i, warm):
    """ncfgc with p = 2 on 10 nodes and 10 extra edges."""
    n = 7 if warm else 10
    return (gen.draw_ncfgc(rng, (n, n), (n, n), 2),)


def _oracle_small(rng, i, warm):
    """One instance of each solver kind, 12 edges on 7 nodes (10 to warm up).

    2^12 subsets are one chunk, so `enumerate` runs them in the calling
    thread: with 13 edges its two chunks go to a thread pool whose speed
    follows the load on the other CPU, which `calibration.py` cannot track.
    """
    extra = 4 if warm else 6
    n = (7, 7)
    return (
        gen.draw_fgc(rng, "q1", n, (extra, extra), (2, 2)),
        gen.draw_fgc(rng, "p1", n, (extra, extra), (2, 2)),
        gen.draw_fst(rng, n, (extra, extra), (3, 3)),
        gen.draw_ncfgc(rng, n, (extra, extra), 2),
    )


# Every case of a workload has one shape: the spread of solve times within
# one shape is already wide (a quartile range of about 2x on fst), and a
# mix of shapes thins the cases near the median, so the median of a set
# moves more from seed to seed.  The counts make one round take 12-30 s on
# a shared 2-CPU host, enough cases for the median to repeat across seeds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fgc-mid", 280, _fgc_mid, False),
        Workload("fst-terminals", 480, _fst_terminals, False),
        Workload("ncfgc-rooted", 64, _ncfgc_rooted, False),
        Workload("oracle-small", 30, _oracle_small, True),
    )
}


def draw_set(workload: Workload, seed: int):
    """(warm-up case, timed cases) for one seed."""
    rng = random.Random(f"{workload.name}/{seed}")
    warm = workload.draw(rng, 0, True)
    return warm, [workload.draw(rng, i, False) for i in range(workload.cases)]
