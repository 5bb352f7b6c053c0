"""Deterministic augmenting-path max-flow used by every verifier and separation oracle.

Capacities are ints or exact rationals.  All arithmetic is exact, augmenting
paths are found by BFS in arc insertion order, and the reported min cut side
is always the set of nodes residual-reachable from s.  `reaching(t)` gives
the mirror set, the nodes with a residual path to t; after a max flow that
stops short the nodes outside it are the min cut side farthest from s.

A `Network` keeps the capacities it was built with and starts every max
flow from them, so one network answers any number of (s, t) queries about
one edge set; the residual of the last query stays readable for its cut.
The builders record the edge behind each arc pair; callers name edges by
id and never see an arc.  One network over a whole edge set answers any
subset F of it after `within(F)`: BFS skips an arc of residual 0, so the
paths, values and cuts are those a network over F alone would give.  A
query may block some edges, and `carrying` names the edges its flow used:
see `smallest_failing_set`.  `load` instead replaces every arc's starting
capacity, as the separation oracles do at each LP point on the network
their instance caches; the next `within` puts the built ones back.  A
network cached for every F or every point is not reentrant.

`lp.solve_cut_lp` hands the separation oracles each LP point as Python ints
over one denominator: a float point scaled by `integral` to its common
denominator, an exact vertex as the numerators it was solved in.  That is
still exact, and any positive scale finds the same paths and the same cut
side, since BFS only asks which residuals are positive and every push is
scaled by the same positive factor.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Collection, Iterable, Mapping, TypeVar

from .errors import GuardExceededError, InvalidQueryError
from .graphs import Cut, MultiGraph

K = TypeVar("K")


def integral(values: Mapping[K, object]) -> tuple[int, dict[K, int]]:
    """Common denominator `scale` of rational values (ints, `Fraction`s or
    floats), and each value times it."""
    ratios = {k: v.as_integer_ratio() for k, v in values.items()}
    scale = math.lcm(*(q for _, q in ratios.values()))
    return scale, {k: p * (scale // q) for k, (p, q) in ratios.items()}


class Network:
    """Flow network; arcs 2k and 2k+1 are mutual reverses, pair k, and the
    builders record the edge behind it as `edges[k]` (None for a node arc).
    `base` holds the capacities as built, `start` those with the pairs
    `within` closed at 0 (or those `load` set), `cap` the residual the last
    max flow left and `blocked` the edge ids it shut."""

    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.base: list = []
        self.start: list = []
        self.cap: list = []
        self.blocked: Collection[int] = ()
        self.edges: list[int | None] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]

    def add_pair(self, u: int, v: int, cap_uv, cap_vu) -> None:
        """Add the arc u->v with capacity cap_uv and its reverse with cap_vu.

        A directed arc uses cap_vu = 0; an undirected edge uses cap_vu = cap_uv.
        """
        i = len(self.to)
        self.to.extend((v, u))
        self.base.extend((cap_uv, cap_vu))
        self.start.extend((cap_uv, cap_vu))
        self.cap.extend((cap_uv, cap_vu))
        self.adj[u].append(i)
        self.adj[v].append(i + 1)

    def within(self, edge_ids: Collection[int]) -> Network:
        """Close both arcs of every pair whose edge is not in `edge_ids`, for
        every later max flow, and reopen those an earlier call closed; pairs
        that are no edge stay open.  Returns the network, which then reads
        as if no flow had run."""
        start = self.base.copy()
        for k, eid in enumerate(self.edges):
            if eid is not None and eid not in edge_ids:
                start[2 * k] = start[2 * k + 1] = 0
        self.start = start
        self.cap = start.copy()
        self.blocked = ()
        return self

    def load(self, start: list) -> Network:
        """Start every later max flow, until the next `within`, from the
        capacities `start`, one per arc in arc order; `base` stays as built.
        Returns the network, which then reads as if no flow had run."""
        if len(start) != len(self.to):
            raise InvalidQueryError(
                f"load needs {len(self.to)} arc capacities, got {len(start)}"
            )
        self.start = start
        self.cap = start.copy()
        self.blocked = ()
        return self

    @cached_property
    def _arcs(self) -> dict[int, list[int]]:
        """Forward arc indices of each edge's pairs, built once per network."""
        arcs: dict[int, list[int]] = {}
        for k, eid in enumerate(self.edges):
            if eid is not None:
                arcs.setdefault(eid, []).append(2 * k)
        return arcs

    def _augmenting_path(self, s: int, t: int) -> list[int] | None:
        """Arcs of the first shortest residual s-t path found by BFS in arc
        insertion order; the search ends as soon as it reaches t."""
        cap, to, adj = self.cap, self.to, self.adj
        parent: list[int] = [-1] * self.n
        parent[s] = -2
        queue = [s]
        for u in queue:
            for i in adj[u]:
                if cap[i] <= 0:
                    continue
                v = to[i]
                if parent[v] == -1:
                    parent[v] = i
                    if v == t:
                        path = []
                        while v != s:
                            i = parent[v]
                            path.append(i)
                            v = to[i ^ 1]
                        path.reverse()
                        return path
                    queue.append(v)
        return None

    def max_flow(self, s: int, t: int, cutoff=None, *, blocked: Collection[int] = ()):
        """Exact max s-t flow value from the built capacities less the pairs
        `within` closed, or from those `load` set, stopping early once
        `cutoff` is reached; s and t must be two distinct nodes of the
        network.  A value short of `cutoff` is the max flow.  The arc pairs
        of the edges whose ids are in `blocked` also carry nothing, in this
        flow only."""
        if s == t or not (0 <= s < self.n and 0 <= t < self.n):
            raise InvalidQueryError(
                f"max flow needs two distinct nodes in 0..{self.n - 1}, "
                f"got s = {s}, t = {t}"
            )
        cap = self.cap = self.start.copy()
        for eid in blocked:
            for i in self._arcs[eid]:
                cap[i] = cap[i ^ 1] = 0
        self.blocked = blocked
        total = 0
        while cutoff is None or total < cutoff:
            path = self._augmenting_path(s, t)
            if path is None:
                break
            push = min(map(cap.__getitem__, path))
            if cutoff is not None and push > cutoff - total:
                push = cutoff - total
            for i in path:
                cap[i] -= push
                cap[i ^ 1] += push
            total += push
        return total

    def carrying(self) -> set[int]:
        """Ids of the edges the last max flow sends flow through."""
        cap, start, edges = self.cap, self.start, self.edges
        used = {edges[i >> 1] for i in range(0, len(cap), 2) if cap[i] != start[i]}
        return used.difference((None, *self.blocked))

    def reachable_from(self, s: int) -> frozenset[int]:
        """Nodes reachable from s along residual-positive arcs of the last
        max flow (of the capacities it would start from before the first)."""
        return self._residual_closure(s, 0)

    def reaching(self, t: int) -> frozenset[int]:
        """Nodes with a path to t along residual-positive arcs of the last
        max flow, the mirror of `reachable_from`.  After a max s-t flow the
        nodes outside this set are the source side of the min cut farthest
        from s."""
        return self._residual_closure(t, 1)

    def _residual_closure(self, start: int, flip: int) -> frozenset[int]:
        """BFS from `start` that steps from u to to[i] over each arc i of u
        whose arc i ^ flip has residual: arc i itself for flip 0, its
        reverse, from to[i] into u, for flip 1."""
        cap, to, adj = self.cap, self.to, self.adj
        seen = {start}
        queue = [start]
        for u in queue:
            for i in adj[u]:
                v = to[i]
                if v not in seen and cap[i ^ flip] > 0:
                    seen.add(v)
                    queue.append(v)
        return frozenset(seen)


FAILURE_SET_GUARD = 10**6


def smallest_failing_set(net: Network, s: int, t: int, need, shuts):
    """Least set R of failure elements, by (size, sorted ids), that leaves
    under need[|R|] s-t units when each x in R blocks the edges shuts[x],
    and the flow it leaves, or None.  A set that holds grows only by elements
    on its flow: with need non-increasing, a failing superset must cut it.
    Each level's sets are counted before any runs, and GuardExceededError
    is raised once the count passes `FAILURE_SET_GUARD`, read per call: at
    most that many flows run."""
    level = [()]
    tried = 0
    for size, want in enumerate(need, 1):
        tried += len(level)
        if tried > FAILURE_SET_GUARD:
            raise GuardExceededError(
                f"pair ({s}, {t}) needs up to {tried} failure sets, "
                f"guard is {FAILURE_SET_GUARD}"
            )
        grown = set()
        for down in level:
            value = net.max_flow(s, t, want, blocked=[e for x in down for e in shuts[x]])
            if value < want:
                return frozenset(down), value
            if size < len(need):
                used = net.carrying()
                for x, shut in shuts.items():
                    if not used.isdisjoint(shut):
                        grown.add(tuple(sorted((*down, x))))
        level = sorted(grown)
    return None


def undirected_network(g: MultiGraph, caps: Mapping[int, object]) -> Network:
    """Network with one arc pair per edge id in caps, in caps' order, each
    arc of capacity caps[eid]; an id that is not an edge of g raises
    UnknownEdgeError."""
    net = Network(g.n)
    for eid, cap in caps.items():
        e = g.edge(eid)
        net.add_pair(e.u, e.v, cap, cap)
    net.edges = list(caps)
    return net


def unit_network(g: MultiGraph, ids: Iterable[int] | None = None) -> Network:
    """Network with one arc pair per edge id in `ids` (default: every edge
    of g), in sorted order, each arc of capacity 1."""
    return undirected_network(g, dict.fromkeys(sorted(g.edge_ids if ids is None else ids), 1))


def max_flow_min_cut(g: MultiGraph, capacities: Mapping[int, object], s: int, t: int):
    """Exact max s-t flow and a canonical min cut on a MultiGraph.

    Capacities are keyed by edge id; absent keys mean capacity zero, and an
    id that is not an edge of g raises UnknownEdgeError.  The returned cut
    side is the set of residual-reachable nodes from s, its boundary the ids
    of the edges crossing the cut.
    """
    net = undirected_network(g, capacities)
    value = net.max_flow(s, t)
    side = net.reachable_from(s)
    return value, Cut(side, g.boundary(side))


def edge_connectivity(
    g: MultiGraph,
    s: int,
    t: int,
    edge_ids: Iterable[int] | None = None,
    cutoff: int | None = None,
) -> int:
    """Count of edge-disjoint s-t paths within the given edge subset.

    With `cutoff` the computation stops as soon as that many paths exist, which
    is all a threshold test needs.
    """
    return unit_network(g, edge_ids).max_flow(s, t, cutoff=cutoff)
