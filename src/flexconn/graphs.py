"""The multigraph type plus the structural transformations the solvers build on.

Graphs use dense integer node ids 0..n-1.  Edges carry a stable integer id so
parallel edges stay distinguishable through contractions and splits; every
transformation returns a new graph and never mutates its input.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, Mapping

from .errors import UnknownEdgeError, ValidationError


def as_cost(value) -> Fraction:
    """Coerce a number or numeric string to an exact nonnegative rational
    cost; a `Fraction` comes back as itself, and a bool is not a cost."""
    cost = value
    if type(cost) is not Fraction:
        if isinstance(value, bool):
            raise ValidationError(f"bad cost {value!r}")
        try:
            cost = Fraction(value)
        except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
            raise ValidationError(f"bad cost {value!r}") from exc
    if cost < 0:
        raise ValidationError(f"negative cost {value!r}")
    return cost


def check_count(value, what: str) -> None:
    """Raise ValidationError naming `what` unless value is an int >= 0; a
    bool is not a count."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValidationError(f"{what} must be an integer >= 0, got {value!r}")


def check_node(v, n: int, what: str) -> None:
    """Raise ValidationError naming `what` unless v is a node id of a graph
    on n nodes, an int in 0..n-1; a bool is not a node."""
    if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
        raise ValidationError(f"{what} out of range")


class DisjointSets:
    """Union-find over nodes 0..n-1; each set's root is its smallest node."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        """Join the sets of a and b; False when they are already one set."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True


@dataclass(frozen=True)
class Edge:
    """Undirected edge; parallel edges share endpoints but never ids."""

    eid: int
    u: int
    v: int
    cost: Fraction
    safe: bool

    def other(self, node: int) -> int:
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise ValueError(f"node {node} is not an endpoint of edge {self.eid}")


class MultiGraph:
    """Loop-free undirected multigraph, treated as immutable after
    construction; each edge's cost is held as `as_cost` converts it."""

    def __init__(self, n: int, edges: Iterable[Edge]):
        check_count(n, "node count")
        self.n = n
        self._by_id: dict[int, Edge] = {}
        self._incident: list[list[Edge]] = [[] for _ in range(n)]
        for e in edges:
            if not isinstance(e.eid, int) or isinstance(e.eid, bool):
                raise ValidationError(f"edge id {e.eid!r} is not an integer")
            check_node(e.u, n, f"edge {e.eid} endpoint")
            check_node(e.v, n, f"edge {e.eid} endpoint")
            if e.u == e.v:
                raise ValidationError(f"edge {e.eid} is a self-loop on node {e.u}")
            cost = as_cost(e.cost)
            if not isinstance(e.safe, bool):
                raise ValidationError(f"edge {e.eid} safe label {e.safe!r} is not a bool")
            if cost is not e.cost:
                e = Edge(e.eid, e.u, e.v, cost, e.safe)
            if e.eid in self._by_id:
                raise ValidationError(f"duplicate edge id {e.eid}")
            self._by_id[e.eid] = e
            self._incident[e.u].append(e)
            self._incident[e.v].append(e)
        self.edges: tuple[Edge, ...] = tuple(self._by_id.values())

    @classmethod
    def build(cls, n: int, rows: Iterable[tuple]) -> "MultiGraph":
        """Construct from (u, v, cost, safe) tuples; ids are assigned by position."""
        edges = tuple(
            Edge(i, u, v, c, safe) for i, (u, v, c, safe) in enumerate(rows)
        )
        return cls(n, edges)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def edge_ids(self) -> frozenset[int]:
        return frozenset(self._by_id)

    def edge(self, eid: int) -> Edge:
        try:
            return self._by_id[eid]
        except KeyError:
            raise UnknownEdgeError(f"no edge with id {eid}") from None

    def has_edge(self, eid: int) -> bool:
        return eid in self._by_id

    def subset(self, ids: Iterable[int]) -> frozenset[int]:
        """The ids as a frozenset; one that is not an edge raises UnknownEdgeError."""
        chosen = frozenset(ids)
        for eid in chosen.difference(self._by_id):
            self.edge(eid)
        return chosen

    def incident(self, node: int) -> tuple[Edge, ...]:
        return tuple(self._incident[node])

    def boundary(self, side: Collection[int]) -> frozenset[int]:
        """Ids of the edges with exactly one endpoint in `side`."""
        return frozenset(e.eid for e in self.edges if (e.u in side) != (e.v in side))

    def degree(self, node: int) -> int:
        return len(self._incident[node])

    def cost(self, edge_ids: Iterable[int] | None = None) -> Fraction:
        ids = self.edge_ids if edge_ids is None else edge_ids
        return sum((self.edge(e).cost for e in ids), Fraction(0))

    def with_costs(self, override: Mapping[int, Fraction]) -> "MultiGraph":
        """Copy of the graph with some edge costs replaced."""
        self.subset(override)
        edges = tuple(
            Edge(e.eid, e.u, e.v, override[e.eid], e.safe)
            if e.eid in override
            else e
            for e in self.edges
        )
        return MultiGraph(self.n, edges)

    def components(self, edge_ids: Iterable[int] | None = None) -> list[frozenset[int]]:
        """Connected components under the given edge subset, sorted by smallest node."""
        sets = DisjointSets(self.n)
        ids = self.edge_ids if edge_ids is None else edge_ids
        for eid in ids:
            e = self.edge(eid)
            sets.union(e.u, e.v)
        groups: dict[int, set[int]] = {}
        for v in range(self.n):
            groups.setdefault(sets.find(v), set()).add(v)
        return [frozenset(groups[r]) for r in sorted(groups)]

    def connects(self, nodes: Iterable[int], edge_ids: Iterable[int] | None = None) -> bool:
        """True when all listed nodes lie in one component of the edge subset."""
        want = set(nodes)
        if len(want) <= 1:
            return True
        for comp in self.components(edge_ids):
            if want & comp:
                return want <= comp
        return False

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Cut:
    """One side of a node cut together with its boundary edge ids."""

    side: frozenset[int]
    boundary: frozenset[int]


@dataclass(frozen=True)
class Verdict:
    """A verifier's answer: the first violation it found, which serves as
    the witness, or None when the edge set is feasible."""

    violation: object = None

    @property
    def ok(self) -> bool:
        return self.violation is None


@dataclass(frozen=True)
class ContractionResult:
    graph: MultiGraph
    node_map: dict[int, int]


@dataclass(frozen=True)
class SplitResult:
    graph: MultiGraph
    copy_map: dict[int, int]


@dataclass(frozen=True)
class InflationResult:
    graph: MultiGraph
    node_images: dict[int, tuple[int, ...]]


def contract_edges(g: MultiGraph, edge_ids: Iterable[int]) -> ContractionResult:
    """Contract every component spanned by `edge_ids` into a single node.

    Surviving edges keep their ids, costs and labels; edges interior to a
    contracted component disappear, parallel edges are retained.  New node ids
    are assigned by the smallest original node in each component.
    """
    comps = g.components(g.subset(edge_ids))
    node_map: dict[int, int] = {}
    for new_id, comp in enumerate(comps):
        for v in comp:
            node_map[v] = new_id
    edges = []
    for e in g.edges:
        nu, nv = node_map[e.u], node_map[e.v]
        if nu == nv:
            continue
        edges.append(Edge(e.eid, nu, nv, e.cost, e.safe))
    return ContractionResult(MultiGraph(len(comps), tuple(edges)), node_map)


def split_parallel(g: MultiGraph, multiplicity: Mapping[int, int]) -> SplitResult:
    """Replace each edge e by multiplicity[e] unit copies sharing cost and label.

    Copy ids are assigned 0.. in edge order; `copy_map` sends copies back to the
    original edge id.  An edge of multiplicity 0 gets no copy and takes no id;
    a missing or negative multiplicity is rejected.
    """
    edges = []
    copy_map: dict[int, int] = {}
    for e in g.edges:
        if e.eid not in multiplicity:
            raise ValidationError(f"no multiplicity given for edge {e.eid}")
        count = multiplicity[e.eid]
        if count < 0:
            raise ValidationError(f"multiplicity {count} for edge {e.eid} must be >= 0")
        for _ in range(count):
            copy_map[len(edges)] = e.eid
            edges.append(Edge(len(edges), e.u, e.v, e.cost, e.safe))
    return SplitResult(MultiGraph(g.n, tuple(edges)), copy_map)


def inflate_safe_nodes(g: MultiGraph, safe_nodes: Iterable[int]) -> InflationResult:
    """Expand each safe node v into a zero-cost complete graph on deg(v) nodes.

    Every edge incident to v re-attaches to a distinct member of v's gadget, so
    path families that were free to reuse v become plain edge-disjoint families
    in the image.  An isolated safe node degenerates to a single image node.
    Every original edge keeps its id, so the image graph gives its new
    endpoints.
    """
    safe = set(safe_nodes)
    for v in safe:
        check_node(v, g.n, f"safe node {v}")
    node_images: dict[int, tuple[int, ...]] = {}
    next_node = 0
    for v in range(g.n):
        k = max(1, g.degree(v)) if v in safe else 1
        node_images[v] = tuple(range(next_node, next_node + k))
        next_node += k

    # Each incident edge of a safe node claims the gadget slot matching its
    # rank among that node's incident edges (ordered by edge id).
    slot: dict[tuple[int, int], int] = {}
    for v in range(g.n):
        if v not in safe:
            continue
        for rank, e in enumerate(sorted(g.incident(v), key=lambda e: e.eid)):
            slot[(v, e.eid)] = node_images[v][rank]

    def endpoint(v: int, eid: int) -> int:
        return slot[(v, eid)] if v in safe else node_images[v][0]

    edges = [
        Edge(e.eid, endpoint(e.u, e.eid), endpoint(e.v, e.eid), e.cost, e.safe)
        for e in g.edges
    ]
    next_eid = max((e.eid for e in g.edges), default=-1) + 1
    for v in sorted(safe):
        for a, b in itertools.combinations(node_images[v], 2):
            edges.append(Edge(next_eid, a, b, Fraction(0), True))
            next_eid += 1
    return InflationResult(MultiGraph(next_node, tuple(edges)), node_images)

