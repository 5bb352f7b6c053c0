"""Seeded instance generator of the benchmark, kept apart from the library.

Instances are drawn here, checked feasible on the full edge set by the
benchmark's own checker, and handed to the program only as canonical
instance text.  Nothing in this module imports `flexconn`, so a change to
the library's generators cannot change a workload.

An instance is a plain dict:

    {"kind": "fgc" | "fst" | "ncfgc", "n": int,
     "edges": [(u, v, Fraction cost, safe bool), ...],
     "pairs": {(i, j): (p, q)}          # fgc
     "terminals": [t, ...]              # fst
     "safe_nodes": [v, ...], "p": int}  # ncfgc
"""

from __future__ import annotations

import random
from fractions import Fraction

from checker import feasible

_ATTEMPTS = 500


def _graph(rng: random.Random, n: int, extra: int):
    """Random spanning tree plus `extra` further, possibly parallel, edges."""
    edges = []
    for v in range(1, n):
        edges.append(_edge(rng, rng.randrange(v), v))
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        edges.append(_edge(rng, u, v))
    return edges


def _edge(rng: random.Random, u: int, v: int):
    # Costs from 2 to 12 in quarters: exact non-integers are common, and a
    # narrow range keeps the cost of a whole instance set steady across seeds.
    cost = Fraction(rng.randint(8, 48), 4)
    return (u, v, cost, rng.random() < 0.5)


def _redraw(rng: random.Random, draw):
    for _ in range(_ATTEMPTS):
        inst = draw()
        edges = range(len(inst["edges"]))
        if feasible(inst, edges):
            return inst
    raise RuntimeError(f"no feasible draw in {_ATTEMPTS} attempts")


def draw_fgc(rng: random.Random, regime: str, nodes, extra, pairs):
    """fgc instance in the "q1" (q = 1) or "p1" (p = 1) regime, the other
    requirement 1 or 2 per pair."""

    def draw():
        n = rng.randint(*nodes)
        edges = _graph(rng, n, rng.randint(*extra))
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        demand = {}
        for pair in sorted(rng.sample(all_pairs, rng.randint(*pairs))):
            if regime == "q1":
                demand[pair] = (rng.randint(1, 2), 1)
            else:
                demand[pair] = (1, rng.randint(1, 2))
        return {"kind": "fgc", "n": n, "edges": edges, "pairs": demand}

    return _redraw(rng, draw)


def draw_fst(rng: random.Random, nodes, extra, terminals):
    def draw():
        n = rng.randint(*nodes)
        edges = _graph(rng, n, rng.randint(*extra))
        count = min(n, rng.randint(*terminals))
        terms = sorted(rng.sample(range(n), count))
        return {"kind": "fst", "n": n, "edges": edges, "terminals": terms}

    return _redraw(rng, draw)


def draw_ncfgc(rng: random.Random, nodes, extra, p):
    """Node-flexible instance with at least one safe node."""

    def draw():
        n = rng.randint(*nodes)
        edges = _graph(rng, n, rng.randint(*extra))
        safe = sorted(rng.sample(range(n), rng.randint(1, max(1, n // 2))))
        return {"kind": "ncfgc", "n": n, "edges": edges, "safe_nodes": safe, "p": p}

    return _redraw(rng, draw)


def render(inst) -> str:
    """Canonical instance text, in the library's file format."""
    lines = ["flexconn-instance v1", f"kind {inst['kind']}", f"nodes {inst['n']}"]
    for u, v, cost, safe in inst["edges"]:
        lines.append(f"edge {u} {v} {cost} {'safe' if safe else 'unsafe'}")
    if inst["kind"] == "fgc":
        for (i, j), (p, q) in sorted(inst["pairs"].items()):
            lines.append(f"pair {i} {j} {p} {q}")
    elif inst["kind"] == "fst":
        lines.extend(f"terminal {t}" for t in inst["terminals"])
    else:
        lines.extend(f"safe-node {v}" for v in inst["safe_nodes"])
        lines.append(f"requirement {inst['p']}")
    return "\n".join(lines) + "\n"


def edge_cost(inst, edge_ids) -> Fraction:
    """Cost of an edge set, summed from the instance's own edge list."""
    return sum((inst["edges"][e][2] for e in edge_ids), Fraction(0))
