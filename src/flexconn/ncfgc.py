"""Connectivity that survives failures of unsafe nodes.

Here the failure-prone elements are nodes, not edges.  The connectivity
measure between s and t, written q-connectivity, is the largest number of
(s, t)-paths that share no edge and visit each unsafe intermediate node at
most once; it is computed as a max flow after splitting every node into an
in/out pair joined by a capacitated arc, on the one split-node network
`_split_network` builds for verifier and solver alike.  A solution F is
feasible for requirement p when every node pair has q-connectivity at least
p within F.  Both the solver and the verifier's flow route rest on one
stitching fact: a safe node r never fails, so no cut of the split-node
network under p crosses its node arc, and the q-connectivity of i and j is
at least the smaller of theirs to r.

The solver picks a safe root and directs every edge both ways by arc id,
on the graph itself: arcs 2*eid and 2*eid + 1 are edge eid's two
directions, so arc a belongs to edge a >> 1 (see `arc`).  It finds a
minimum-cost arc set giving the root p units of q-flow to every other node,
under the instance's own node caps, as the optimal vertex of one cut LP,
which is integral for this rooted problem (see `solve_rooted_qconn`).  Its
feasibility pre-check and the closing check of the edges it returns both
ask the instance's cached split-node network, opened to the edges at hand
by `Network.within`, and separation loads the LP's arc values into that
same network with `Network.load`.  Taking both arcs of an optimal
undirected solution is always rooted-feasible, and the underlying edges of a
rooted solution are feasible for the instance, so the edge set returned
costs at most twice the undirected optimum.

Feasibility has a second, definitional reading: for every set of failing
unsafe nodes, the survivors must keep max(0, p - failures) edge-disjoint
paths.  `verify_ncfgc` runs each reading on its own up to its first
failing pair and cross-checks the two pairs; the definitional one runs
`flows.smallest_failing_set`, as `verify_fgc` does for edges, and asks
every pair, while the flow route stitches its pairs through the smallest
safe node and runs at most 2n - 3 flows on a feasible set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations

from .errors import (
    InfeasibleInstanceError,
    InvalidQueryError,
    SolverError,
    UnsupportedInstanceError,
    ValidationError,
)
from .flows import Network, smallest_failing_set, unit_network
from .flows import edge_connectivity  # unused here; perfbench/spans.py wraps this name
from .graphs import InflationResult, MultiGraph, Verdict, check_count, check_node
from .graphs import inflate_safe_nodes
from .lp import CutRow, solve_cut_lp


@dataclass(frozen=True)
class NcFgcInstance:
    """Uniform requirement p between all node pairs; nodes outside
    `safe_nodes` can fail."""

    graph: MultiGraph
    safe_nodes: frozenset[int]
    requirement: int

    def __post_init__(self):
        object.__setattr__(self, "safe_nodes", frozenset(self.safe_nodes))
        for v in self.safe_nodes:
            check_node(v, self.graph.n, f"safe node {v}")
        check_count(self.requirement, "requirement")

    def node_caps(self) -> dict[int, int | None]:
        """Path budget per intermediate node; None means unlimited."""
        return {
            v: None if v in self.safe_nodes else 1 for v in range(self.graph.n)
        }

    def unsafe_nodes(self) -> list[int]:
        return [v for v in range(self.graph.n) if v not in self.safe_nodes]

    # The network of each route of `verify_ncfgc` over every edge, built on
    # its first use (see there); one network serves every call on the
    # instance, so neither is reentrant.  The flow route's also serves
    # `solve_rooted_qconn` and its separation oracle.
    @cached_property
    def _flow_route(self) -> Network:
        g = self.graph
        return _split_network(g, self.node_caps(), dict.fromkeys(_both_arcs(g.edge_ids), 1))

    @cached_property
    def _network(self) -> Network:
        return unit_network(self.graph)


def _split_network(g: MultiGraph, caps, arc_caps) -> Network:
    """Network on 2 * g.n nodes, each node v split into the arc 2v -> 2v+1
    of capacity caps.get(v) (index 2v), then one arc per arc id of g in
    `arc_caps`, in its order, from its tail's out half 2u+1 to its head's in
    half 2v with capacity arc_caps[aid] (see `arc`), recorded as its edge's.
    A cap of None (or none given) means unlimited and becomes 1 + the total
    arc capacity: every out-to-in path crosses an arc of `arc_caps`, so no
    flow reaches it."""
    unlimited = 1 + sum(arc_caps.values())
    net = Network(2 * g.n)
    for v in range(g.n):
        cap = caps.get(v)
        net.add_pair(2 * v, 2 * v + 1, unlimited if cap is None else cap, 0)
    for aid, cap in arc_caps.items():
        u, v, _ = arc(g, aid)
        net.add_pair(2 * u + 1, 2 * v, cap, 0)
    net.edges = [None] * g.n + [aid >> 1 for aid in arc_caps]
    return net


def q_connectivity(
    g: MultiGraph,
    caps,
    s: int,
    t: int,
    edge_ids=None,
    *,
    cutoff: int | None = None,
) -> int:
    """Max (s, t)-flow with unit edges and capacitated intermediate nodes:
    the rooted q-flow over both arcs of each edge in `edge_ids` (default:
    every edge).  The endpoints' own caps do not matter.
    """
    ids = g.edge_ids if edge_ids is None else edge_ids
    return rooted_q_flow(g, caps, s, t, _both_arcs(ids), cutoff=cutoff)


@dataclass(frozen=True)
class NcViolation:
    """Pair left short; removed is the failing node set for the definitional
    route and None when measured by capacitated flow."""

    pair: tuple[int, int]
    removed: frozenset[int] | None
    connectivity: int


def verify_ncfgc(inst: NcFgcInstance, edge_ids, *, mode: str = "both") -> Verdict:
    """Check feasibility by capacitated flow, by failure enumeration, or both.
    Each route runs on its own up to its first failing pair, in sorted order,
    on the instance's network narrowed to F by `Network.within`.

    The flow route asks the split-node network for p units of q-flow, from
    node 0 to every node first, then stitches the other pairs through the
    smallest safe node r (see `_first_short_pair`): a pair whose ends both
    have p units to r passes with no flow of its own, so a feasible F costs
    n - 1 flows when node 0 is safe and 2n - 3 when another node is.  Its
    first failing pair, and that pair's flow, are those one flow per pair
    gives.  The enumeration route asks the unit network, for every pair,
    for the least failing unsafe-node set, by (size, sorted ids), each node
    failing as its incident edges, chosen or not (an edge outside F is
    closed anyway and never carries flow), and raises GuardExceededError
    when its search for a pair would try more than
    `flows.FAILURE_SET_GUARD` node sets.  In "both" mode the two must fail
    the same pair, or none, else one is wrong and SolverError is raised;
    the verdict carries the enumeration witness.
    """
    if mode not in ("qconn", "enumeration", "both"):
        raise ValidationError(f"unknown mode {mode!r}")
    g = inst.graph
    chosen = g.subset(edge_ids)
    p = inst.requirement
    hit_q = hit_e = None
    if mode != "enumeration":
        hit_q = _first_short_pair(inst._flow_route.within(chosen), g.n, p, inst.safe_nodes)
    if mode != "qconn":
        unit = inst._network.within(chosen)
        shuts = {v: [e.eid for e in g.incident(v)] for v in inst.unsafe_nodes()}
        for i, j in combinations(range(g.n), 2):
            pool = {v: shut for v, shut in shuts.items() if v not in (i, j)}
            need = [p - s for s in range(min(p, len(pool) + 1))]
            found = smallest_failing_set(unit, i, j, need, pool)
            if found is not None:
                hit_e = NcViolation((i, j), *found)
                break
    first_q, first_e = (hit and hit.pair for hit in (hit_q, hit_e))
    if mode == "both" and first_q != first_e:
        raise SolverError(
            f"feasibility routes disagree: flow fails pair {first_q} first, "
            f"enumeration fails pair {first_e} first"
        )
    return Verdict(hit_e or hit_q)


def _first_short_pair(net: Network, n: int, p: int, safe) -> NcViolation | None:
    """The first pair (i, j), in sorted order, with less than p units of
    q-flow on the split-node network `net`, and that flow, or None.

    Row 0 runs first, each flow cut off at p, as one flow per pair would
    run it: most of the sets the exact oracle asks fail there, and taking
    the safe node's row first made the oracle's subset search slower.

    Once row 0 passes, the pairs are stitched through the smallest safe
    node r.  A cut of `net` under p cannot cross r's unlimited node arc, so
    it separates r from i or from j, and lambda(i, j) >= min(lambda(i, r),
    lambda(r, j)).  With r = 0 row 0 decides it; otherwise the flows (r, t)
    for t outside {0, r} run, and a pair with both ends among r and the t
    that reach p needs no flow.  The network is symmetric, so lambda(i,
    r) = lambda(r, i) and the root row's values serve the pairs that end at
    r.  Every other pair gets its own flow, as every pair does when no node
    is safe.  A flow under p is exact, so the pair and flow returned are
    those one flow per pair gives.
    """

    def flow(i: int, j: int) -> int:
        return net.max_flow(2 * i + 1, 2 * j, cutoff=p)

    for t in range(1, n):
        lam = flow(0, t)
        if lam < p:
            return NcViolation((0, t), None, lam)
    r = min(safe, default=None)
    if r == 0:
        return None
    row: dict[int, int] = {}
    good: set[int] = set()
    if r is not None:
        row = {t: flow(r, t) for t in range(1, n) if t != r}
        good = {r, *(t for t, lam in row.items() if lam >= p)}
    for i, j in combinations(range(1, n), 2):
        if i in good and j in good:
            continue
        lam = row[j] if i == r else row[i] if j == r else flow(i, j)
        if lam < p:
            return NcViolation((i, j), None, lam)
    return None


def reduce_by_inflation(inst: NcFgcInstance) -> tuple[NcFgcInstance, InflationResult]:
    """Same problem with every node failure-prone: each safe node becomes a
    clique of single-use nodes, one per incident edge, joined by free safe
    edges (see `inflate_safe_nodes`).  Pairwise q-connectivity is unchanged
    when each node v is read as its first image, node_images[v][0]."""
    inflated = inflate_safe_nodes(inst.graph, inst.safe_nodes)
    return NcFgcInstance(inflated.graph, frozenset(), inst.requirement), inflated


def arc(g: MultiGraph, aid: int) -> tuple[int, int, Fraction]:
    """Tail, head and cost of arc `aid` of g directed both ways: arc 2*eid
    runs from the edge's u to its v, and arc 2*eid + 1 from v to u."""
    e = g.edge(aid >> 1)
    return (e.v, e.u, e.cost) if aid & 1 else (e.u, e.v, e.cost)


def _both_arcs(edge_ids) -> list[int]:
    """Both arc ids of every edge id, in sorted order."""
    return [a for eid in sorted(edge_ids) for a in (2 * eid, 2 * eid + 1)]


def rooted_q_flow(
    g: MultiGraph,
    caps,
    root: int,
    t: int,
    arcs=None,
    *,
    cutoff: int | None = None,
) -> int:
    """Max root-to-t flow over unit arcs of g directed both ways (see `arc`),
    with capacitated intermediate nodes; `arcs` defaults to every arc."""
    if root == t:
        raise InvalidQueryError("root and t must differ")
    ids = _both_arcs(g.edge_ids) if arcs is None else sorted(arcs)
    net = _split_network(g, caps, dict.fromkeys(ids, 1))
    return net.max_flow(2 * root + 1, 2 * t, cutoff=cutoff)


def _separate_rooted(inst: NcFgcInstance, root: int, scale: int, num) -> list[CutRow]:
    """The most violated rooted cut over all sinks at x_a = num[a] / scale,
    ties to the smaller sink, then the in-cut of every sink it violates; no
    row when no sink is short.

    Every sink's flow runs on the instance's cached split-node network,
    loaded with `num` and the node caps times `scale`, so the flows stay
    exact on ints.  An unsafe node's arc gets the scale; a safe node's is
    unlimited, 1 + the total of `num`, more than all arcs out of the root
    carry, so no min cut crosses it: the wall, the nodes whose arc the cut
    crosses, is unsafe, and the rhs is p - |wall|.  A crossing arc's ends
    are read off the network.

    Each sink's flow stops at p times the scale less the largest violation
    found so far.  A flow that reaches that cutoff cannot be more violated
    than an earlier sink, and a tie keeps the earlier, smaller sink; a flow
    that stops short of it is the max flow, so its residual side is the
    min cut.  The first row is therefore the one every flow run to p times
    the scale gives.

    A sink t's in-cut asks the arcs whose head is t for p: it is the biset
    row ({t}, {t}), with an empty wall.  Those rows follow, most violated
    first, ties to the smaller sink, and one equal to the first row is left
    out.  A sink's flow is no more than its in-cut, so the first row stays
    the most violated; and an LP gains at most n - 1 in-cuts in all, where
    one min cut per short sink in each batch would grow without that bound.
    """
    g = inst.graph
    p = inst.requirement
    net = inst._flow_route
    ids = _both_arcs(g.edge_ids)
    xs = [num.get(aid, 0) for aid in ids]
    unlimited = 1 + sum(xs)
    caps = [unlimited if c is None else c * scale for c in inst.node_caps().values()]
    net.load([c for cap in (*caps, *xs) for c in (cap, 0)])
    s = 2 * root + 1
    need = p * scale
    best_viol, side = 0, None
    for t in range(g.n):
        if t == root:
            continue
        viol = need - net.max_flow(s, 2 * t, cutoff=need - best_viol)
        if viol > best_viol:
            best_viol, side = viol, net.reachable_from(s)
    if side is None:
        return []
    # arc aid is pair k: arc 2k ends at its head's in half, 2k + 1 at its tail's out half
    to = net.to
    crossing = frozenset(
        aid for k, aid in enumerate(ids, g.n)
        if to[2 * k + 1] in side and to[2 * k] not in side
    )
    wall = sum(2 * v in side and 2 * v + 1 not in side for v in range(g.n))
    rows = [CutRow(crossing, Fraction(p - wall))]
    into: list[list[int]] = [[] for _ in range(g.n)]
    inflow = [0] * g.n
    for k, (aid, x) in enumerate(zip(ids, xs), g.n):
        head = to[2 * k] >> 1
        into[head].append(aid)
        inflow[head] += x
    for _, t in sorted((inflow[t], t) for t in range(g.n) if t != root and inflow[t] < need):
        row = CutRow(frozenset(into[t]), Fraction(p))
        if row != rows[0]:
            rows.append(row)
    return rows


@dataclass(frozen=True)
class RootedSolveResult:
    arcs: frozenset[int]
    cost: Fraction


def solve_rooted_qconn(inst: NcFgcInstance, root: int) -> RootedSolveResult:
    """Exact minimum-cost set of arcs of the graph directed both ways (arc
    ids as in `arc`) that gives `root` p units of q-flow to every other
    node, under the instance's node caps: one cut LP, whose optimal vertex
    is 0/1.  Before it, the network of `verify_ncfgc`'s flow route, opened
    to every edge, must give each sink p units; the first sink short
    raises InfeasibleInstanceError.

    Why the vertex is integral.  Every row the oracle returns is a cut of
    the split-node network, so it holds for every arc set that gives the
    root its flow.  The final vertex of the generated system meets every
    such cut, so it is also a vertex of the polytope P of fractional rooted
    q-flows with 0 <= x <= 1.  By max-flow min-cut, P is cut out by one row
    per biset B = (O, I), I a nonempty subset of O and the root outside O:
    the sink side of the cut holds the out halves of O and the in halves of
    I, and the row reads x(arcs from outside O into I) >= p - sum of caps
    over the wall O - I, the nodes whose node arc is cut.  A safe node is
    unlimited, so a wall holding one makes the row trivial; the nontrivial
    rows have walls of unsafe nodes only, with rhs p - |wall|.
    |wall| = |O| - |I| is modular on bisets, and the bisets
    that avoid the root form a crossing family, so the rows are a
    crossing-supermodular biset cover.  Frank's biset form of the
    Edmonds-Giles theorem (Discrete Appl. Math. 157, 2009, Thm 4.4) makes
    such a system TDI, and so integral with 0 <= x <= 1.  A fractional final
    vertex therefore means a broken solver: SolverError.  No sink is asked
    again: `solve_cut_lp` returns x only once `_separate_rooted` finds none
    short at it, the same question at a 0/1 x (scale 1, arcs at 0 shut).

    The oracle hands `solve_cut_lp` the most violated min cut and every
    violated in-cut, both rows of this family, each call.  The in-cuts are
    at most n - 1 per LP; one min cut per short sink, tried before, grew
    these dense rooted tableaus to about 1,250 rows and made ncfgc n = 40,
    seed 1 ten times slower (2.0 to 19.3 s with Python 3.11 on a shared
    2-CPU host).
    """
    g = inst.graph
    p = inst.requirement
    check_node(root, g.n, "root")
    net = inst._flow_route.within(g.edge_ids)
    for t in range(g.n):
        if t == root:
            continue
        flow = net.max_flow(2 * root + 1, 2 * t, cutoff=p)
        if flow < p:
            raise InfeasibleInstanceError(
                f"the full arc set gives the root only {flow} units toward {t}",
                pair=(root, t),
            )
    costs = {aid: arc(g, aid)[2] for aid in _both_arcs(g.edge_ids)}
    sol = solve_cut_lp(costs, partial(_separate_rooted, inst, root), max_rows=4000)
    fractional = sol.fractional_ids()
    if fractional:
        raise SolverError(
            f"rooted cut LP vertex is fractional on arcs {list(fractional)}"
        )
    arcs = frozenset(a for a, v in sol.x.items() if v == 1)
    return RootedSolveResult(arcs, sol.objective)


@dataclass(frozen=True)
class NcSolveResult:
    """`rooted_cost` is the optimum of the rooted cut LP, which is the cost
    of the cheapest rooted arc set: cost <= rooted_cost <= 2 * optimum."""

    edges: frozenset[int]
    cost: Fraction
    bound: Fraction
    root: int | None
    rooted_cost: Fraction


def solve_p_ncfgc(inst: NcFgcInstance) -> NcSolveResult:
    """Orient, solve the rooted problem exactly, keep the touched edges.

    Needs a safe node to serve as root: p paths from i to j can be stitched
    from p paths i-root and root-j only when the root itself cannot fail.
    """
    g = inst.graph
    p = inst.requirement
    if p == 0 or g.n <= 1:
        return NcSolveResult(
            frozenset(), Fraction(0), Fraction(2), None, Fraction(0)
        )
    if not inst.safe_nodes:
        raise UnsupportedInstanceError(
            "a node that never fails is needed as the root"
        )
    root = min(inst.safe_nodes)
    result = solve_rooted_qconn(inst, root)
    edges = frozenset(aid >> 1 for aid in result.arcs)
    bad = verify_ncfgc(inst, edges, mode="qconn").violation
    if bad is not None:
        raise SolverError(
            f"rooted solution leaves pair {bad.pair} at {bad.connectivity} < {p}"
        )
    return NcSolveResult(edges, g.cost(edges), Fraction(2), root, result.cost)
