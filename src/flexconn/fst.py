"""Terminal connection that survives any single unsafe-edge failure.

A solution F is feasible when the terminals lie in one component of (V, F)
and stay connected in (V, F - {e}) for every unsafe edge e of F.  The solver
works in two stages: buy a Steiner tree F1, then reinforce it by contracting
the safe tree edges, making the unsafe tree edges free, and asking for two
edge-disjoint paths between every pair of contracted terminals.  The second
stage is solved by iterative LP rounding, so the total costs at most 4 times
the optimum with the default tree heuristic and 3 times with an exact tree.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .errors import InfeasibleInstanceError, SolverError, ValidationError
from .flows import integral
from .graphs import DisjointSets, MultiGraph, Verdict, check_node, contract_edges
from .jain import SndpInstance, jain_round


@dataclass(frozen=True)
class FstInstance:
    graph: MultiGraph
    terminals: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "terminals", frozenset(self.terminals))
        for t in self.terminals:
            check_node(t, self.graph.n, f"terminal {t}")


@dataclass(frozen=True)
class FstViolation:
    """Terminals split apart; `removed` is None when even the full solution
    fails, otherwise the unsafe edge whose loss disconnects them."""

    removed: int | None


def verify_fst(inst: FstInstance, edge_ids) -> Verdict:
    """Check that the chosen edges connect the terminals and still do after
    losing any one unsafe edge; the verdict names the first failure."""
    g = inst.graph
    chosen = g.subset(edge_ids)
    if len(inst.terminals) <= 1:
        return Verdict()
    split = _splitting_bridges(g, chosen, inst.terminals)
    if split is None:
        return Verdict(FstViolation(None))
    unsafe = [eid for eid in split if not g.edge(eid).safe]
    return Verdict(FstViolation(min(unsafe))) if unsafe else Verdict()


def _splitting_bridges(g: MultiGraph, chosen, terminals) -> list[int] | None:
    """Chosen edges whose loss splits the terminals, or None when the chosen
    edges do not connect them: the bridges of one DFS from the smallest
    terminal (Tarjan's low links) with terminals on both sides, once the
    DFS has reached every terminal.  The edge a node was entered by is
    skipped by id, so a parallel copy of it counts as a back edge."""
    root = min(terminals)
    tin = [-1] * g.n
    low = [0] * g.n
    below = [0] * g.n    # terminals in each DFS subtree
    tin[root] = 0
    below[root] = 1
    stack = [(root, None, iter(g.incident(root)))]
    clock = 1
    split = []
    while stack:
        u, entry, rest = stack[-1]
        for e in rest:
            if e.eid == entry or e.eid not in chosen:
                continue
            w = e.other(u)
            if tin[w] >= 0:
                low[u] = min(low[u], tin[w])
                continue
            tin[w] = low[w] = clock
            clock += 1
            below[w] = int(w in terminals)
            stack.append((w, e.eid, iter(g.incident(w))))
            break
        else:
            stack.pop()
            if stack:
                parent = stack[-1][0]
                low[parent] = min(low[parent], low[u])
                below[parent] += below[u]
                if low[u] > tin[parent] and 0 < below[u] < len(terminals):
                    split.append(entry)
    return split if below[root] == len(terminals) else None


def _shortest_paths(g: MultiGraph, weight, source: int):
    """Dijkstra distances under int edge weights (keyed by edge id) and the
    edge used to reach each node."""
    dist: list[int | None] = [None] * g.n
    parent: list[int | None] = [None] * g.n
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for e in g.incident(v):
            w = e.other(v)
            nd = d + weight[e.eid]
            if dist[w] is None or nd < dist[w]:
                dist[w] = nd
                parent[w] = e.eid
                heapq.heappush(heap, (nd, w))
    return dist, parent


def _walk_back(g: MultiGraph, parent, source: int, target: int) -> set[int]:
    eids = set()
    node = target
    while node != source:
        eid = parent[node]
        eids.add(eid)
        node = g.edge(eid).other(node)
    return eids


def _prune_to_tree(g: MultiGraph, eids, terminals) -> frozenset[int]:
    """Spanning forest of the chosen edges with non-terminal leaves shaved off."""
    sets = DisjointSets(g.n)
    forest = []
    for eid in sorted(eids, key=lambda k: (g.edge(k).cost, k)):
        e = g.edge(eid)
        if sets.union(e.u, e.v):
            forest.append(eid)
    incident: dict[int, set[int]] = {}
    for eid in forest:
        e = g.edge(eid)
        incident.setdefault(e.u, set()).add(eid)
        incident.setdefault(e.v, set()).add(eid)
    queue = [v for v in sorted(incident) if len(incident[v]) == 1 and v not in terminals]
    alive = set(forest)
    while queue:
        v = queue.pop()
        if v in terminals or len(incident.get(v, ())) != 1:
            continue
        (eid,) = incident[v]
        alive.discard(eid)
        incident.pop(v)
        w = g.edge(eid).other(v)
        incident[w].discard(eid)
        if len(incident[w]) == 1 and w not in terminals:
            queue.append(w)
    return frozenset(alive)


def steiner_tree_approx(g: MultiGraph, terminals) -> frozenset[int]:
    """Tree through the terminals via a spanning tree of their shortest-path
    metric; costs at most twice the cheapest connecting subgraph.

    Dijkstra runs on the costs times their common denominator: one positive
    scale keeps every comparison and tie, so the tree is the one rational
    distances would give."""
    terms = set(terminals)
    for t in terms:
        check_node(t, g.n, f"terminal {t}")
    terms = sorted(terms)
    if len(terms) <= 1:
        return frozenset()
    _, weight = integral({e.eid: e.cost for e in g.edges})
    paths = {t: _shortest_paths(g, weight, t) for t in terms}
    closure = []
    for ai, a in enumerate(terms):
        dist, _ = paths[a]
        for b in terms[ai + 1:]:
            if dist[b] is None:
                raise InfeasibleInstanceError(
                    f"terminals {a} and {b} are disconnected", pair=(a, b)
                )
            closure.append((dist[b], a, b))
    closure.sort()
    sets = DisjointSets(g.n)
    union_eids: set[int] = set()
    for _, a, b in closure:
        if sets.union(a, b):
            union_eids |= _walk_back(g, paths[a][1], a, b)
    return _prune_to_tree(g, union_eids, set(terms))


def _first_pair_apart(g: MultiGraph, terminals: frozenset[int]) -> tuple[int, int] | None:
    """The first sorted pair of terminals in different components of g, as
    `steiner_tree_approx` names it, or None when g connects them all."""
    first = min(terminals)
    away = terminals - next(part for part in g.components() if first in part)
    return (first, min(away)) if away else None


def steiner_tree_exact(g: MultiGraph, terminals, *, budget=None) -> frozenset[int]:
    """Cheapest edge set connecting the terminals, found by exhaustive search
    and trimmed to a tree.  Only viable on small graphs."""
    from .oracle import minimum_cost_subset

    terms = frozenset(terminals)
    for t in terms:
        check_node(t, g.n, f"terminal {t}")
    if len(terms) <= 1:
        return frozenset()
    pair = _first_pair_apart(g, terms)
    if pair is not None:
        raise InfeasibleInstanceError("terminals are disconnected", pair=pair)
    costs = {eid: g.edge(eid).cost for eid in g.edge_ids}
    result = minimum_cost_subset(
        sorted(costs), costs, lambda s: g.connects(terms, s), budget=budget
    )
    return _prune_to_tree(g, result.edges, terms)


def build_second_stage(inst: FstInstance, stage_one_edges) -> SndpInstance:
    """Residual problem after a tree F1: safe tree edges contracted, unsafe
    tree edges free, two edge-disjoint paths wanted between terminal images
    (no pairs when the terminals contract to fewer than two nodes)."""
    g = inst.graph
    f1 = frozenset(stage_one_edges)
    safe1 = [eid for eid in f1 if g.edge(eid).safe]
    contraction = contract_edges(g, safe1)
    cg = contraction.graph
    free = {
        eid: Fraction(0)
        for eid in f1
        if not g.edge(eid).safe and cg.has_edge(eid)
    }
    cg = cg.with_costs(free)
    t2 = frozenset(contraction.node_map[t] for t in inst.terminals)
    pairs = {(a, b): 2 for a in t2 for b in t2 if a < b}
    return SndpInstance(cg, pairs)


@dataclass(frozen=True)
class FstResult:
    edges: frozenset[int]
    cost: Fraction
    stage_one_edges: frozenset[int]
    stage_two_edges: frozenset[int]
    stage_one_method: str    # "approx" or "exact"
    bound: Fraction
    lp_objective: Fraction
    iterations: int


def solve_fst(inst: FstInstance, *, stage_one: str = "approx") -> FstResult:
    """Tree first, reinforcement second.

    Infeasibility shows up already on the full edge set: either the
    terminals are disconnected outright or some unsafe edge is a bridge
    every solution would need.  After that check the second stage always
    has room for its two paths: a cut between two contracted terminals is a
    cut of g between terminals, which F1 crosses by an unsafe edge (its safe
    ones are contracted), and not by that edge alone, which would be an
    unsafe bridge `verify_fst` refuses.
    """
    if stage_one not in ("approx", "exact"):
        raise ValidationError(f"unknown stage-one method {stage_one!r}")
    bound = Fraction(3 if stage_one == "exact" else 4)
    g = inst.graph
    bad = verify_fst(inst, g.edge_ids).violation
    if bad is not None:
        if bad.removed is None:
            raise InfeasibleInstanceError(
                "terminals are disconnected", pair=_first_pair_apart(g, inst.terminals)
            )
        raise InfeasibleInstanceError(
            f"unsafe edge {bad.removed} is a bridge between terminals; every "
            f"connecting set needs it"
        )
    if stage_one == "exact":
        f1 = steiner_tree_exact(g, inst.terminals)
    else:
        f1 = steiner_tree_approx(g, inst.terminals)
    rounded = jain_round(build_second_stage(inst, f1))
    edges = f1 | rounded.edges
    if not verify_fst(inst, edges).ok:
        raise SolverError("second stage left a terminal cut uncovered")
    return FstResult(
        edges, g.cost(edges), f1, rounded.edges, stage_one, bound,
        rounded.lp_objective, rounded.iterations,
    )
