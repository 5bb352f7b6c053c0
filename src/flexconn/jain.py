"""Survivable network design by iterative LP rounding.

An instance asks, for each node pair, for a number of edge-disjoint paths;
edge labels play no role here.  The solver repeatedly takes an exact vertex of
the cut LP, moves every edge at value 1/2 or more into the chosen set, and
solves the residual LP over the undecided edges until all requirements are
met by the chosen edges alone.  A residual row asks a cut for its requirement
less the chosen edges that cross it, and names only the undecided ones.
Every vertex must offer an undecided edge at 1/2 or more; a miss is a bug in
vertex recovery, not an instance property, and raises JainProgressError.
`first_unmet_pair` checks a dict of pair requirements on a cached network
that `Network.within` narrows to an edge set, and names the first short
pair as an `UnmetPair` (pair, flow, demand): at unit capacities here and in
the oracle, at Cap-NDP capacities for fgc's refusal and closing check.
`separation` loads each LP point into that same unit network with
`Network.load`, so a whole rounding builds one network; the next `within`
puts its unit capacities back.
ncfgc's qconn route and rooted pre-check keep their own loops over
split-node pairs: they hold no such dict, and building one per oracle
predicate call costs more than the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Collection, Mapping

from .errors import JainProgressError, ValidationError
from .flows import Network, unit_network
from .flows import edge_connectivity, max_flow_min_cut  # unused here; perfbench/spans.py wraps these names
from .graphs import DisjointSets, MultiGraph, check_count, check_node
from .lp import CutRow, FractionalSolution, solve_cut_lp


def normalize_pairs(pairs: Mapping[tuple[int, int], object], n: int) -> dict:
    """Validate and key every pair as (min, max), in sorted order; callers
    check the values."""
    out: dict = {}
    for (a, b), value in pairs.items():
        check_node(a, n, f"pair ({a}, {b})")
        check_node(b, n, f"pair ({a}, {b})")
        if a == b:
            raise ValidationError(f"pair ({a}, {b}) joins a node to itself")
        key = (min(a, b), max(a, b))
        if key in out and out[key] != value:
            raise ValidationError(f"conflicting requirements for pair {key}")
        out[key] = value
    return dict(sorted(out.items()))


@dataclass(frozen=True)
class SndpInstance:
    """Connectivity requirements r_ij over a multigraph, labels ignored."""

    graph: MultiGraph
    requirements: dict[tuple[int, int], int]

    def __post_init__(self):
        requirements = normalize_pairs(self.requirements, self.graph.n)
        for (a, b), r in self.requirements.items():
            check_count(r, f"requirement for pair ({a}, {b})")
        object.__setattr__(self, "requirements", requirements)

    @cached_property
    def _network(self) -> Network:
        """Every edge at 1; `jain_round` and the oracle narrow it."""
        return unit_network(self.graph)


@dataclass(frozen=True)
class UnmetPair:
    """A pair whose max flow falls short of its demand."""

    pair: tuple[int, int]
    flow: int
    demand: int


def first_unmet_pair(
    net: Network,
    requirements: Mapping[tuple[int, int], int],
) -> UnmetPair | None:
    """First pair whose max flow on `net` falls short of its requirement,
    with that flow and requirement, or None.  `requirements` must already
    be in sorted pair order, as `normalize_pairs` leaves every instance's
    pairs, so the first is the smallest.  Each flow stops at the pair's
    requirement, so a zero requirement is never short."""
    for pair, r in requirements.items():
        flow = net.max_flow(*pair, cutoff=r)
        if flow < r:
            return UnmetPair(pair, flow, r)
    return None


def separation(
    inst: SndpInstance,
    scale: int,
    num: Mapping[int, int],
    chosen: Collection[int],
) -> list[CutRow]:
    """Every distinct violated residual cut of `inst` under capacities
    x_e = num[e] / scale, chosen edges at 1, most violated first.

    The flows run on the instance's cached network, loaded with `num` and
    with `scale` on the chosen edges, so they stay exact on ints.  Each pair
    (i, j) short of its requirement r gives both extreme min cuts of its
    flow (Ford and Fulkerson, 1962): the side residual-reachable from i,
    nearest i, and the side of every node without a residual path to j,
    farthest from i; they are one side when the min cut is unique.  A side
    several pairs give appears once, at its largest violation.  The rows
    are ranked by violation, then the smaller side, then lexicographic node
    order, so the first is the single most violated cut.  A cut demands the
    largest requirement it separates, at least the violated pair's own.
    Each row is residual: it names the undecided boundary edges and asks
    them for that demand less the number of chosen boundary edges.

    No flow runs that cannot give a row.  Each stops at r times the scale,
    and a flow that stops short of it is the max flow, so its residual side
    is the min cut a flow run to the end leaves.  The pairs run by
    decreasing requirement, and a pair is skipped when pairs already met
    join its two ends: by the min-cut triangle inequality
    lambda(a, b) >= min(lambda(a, c), lambda(c, b)) (Gomory and Hu, 1961),
    it is met too.  The rows are those of every pair's full flow.
    """
    graph = inst.graph
    requirements = inst.requirements
    net = inst._network
    net.load([scale if eid in chosen else num.get(eid, 0) for eid in net.edges for _ in (0, 1)])
    pairs = sorted(requirements.items(), key=lambda item: (-item[1], item[0]))
    met = DisjointSets(graph.n)
    nodes = frozenset(range(graph.n))
    sides: dict[frozenset[int], int] = {}
    for (i, j), r in pairs:
        if r == 0 or met.find(i) == met.find(j):
            continue
        viol = r * scale - net.max_flow(i, j, cutoff=r * scale)
        if viol <= 0:
            met.union(i, j)
            continue
        # every pair that gives a side is short by the side's cut value, so
        # the first to give it, in decreasing requirement, falls shortest
        sides.setdefault(net.reachable_from(i), viol)
        sides.setdefault(nodes.difference(net.reaching(j)), viol)
    rows = []
    for side in sorted(sides, key=lambda s: (-sides[s], len(s), sorted(s))):
        boundary = graph.boundary(side)
        undecided = boundary.difference(chosen)
        rhs = max(r for (i, j), r in pairs if (i in side) != (j in side))
        rows.append(CutRow(undecided, Fraction(rhs - (len(boundary) - len(undecided)))))
    return rows


@dataclass(frozen=True)
class JainResult:
    edges: frozenset[int]
    lp_objective: Fraction   # objective of the first LP vertex
    iterations: int


def jain_round(inst: SndpInstance) -> JainResult:
    """Iteratively round cut-LP vertices; the result costs at most twice the
    first LP objective.  The whole graph must meet the requirements: callers
    decide that first (fgc on its capacities, fst by `verify_fst`), and an
    unmet one raises LpInfeasibleError from the first LP."""
    graph = inst.graph
    requirements = inst.requirements
    costs = {e.eid: e.cost for e in graph.edges}
    chosen: set[int] = set()
    first_objective: Fraction | None = None
    iterations = 0
    threshold = Fraction(1, 2)
    while first_unmet_pair(inst._network.within(chosen), requirements):
        sol: FractionalSolution = solve_cut_lp(
            {e: c for e, c in costs.items() if e not in chosen},
            lambda scale, num: separation(inst, scale, num, chosen),
        )
        if first_objective is None:
            first_objective = sol.objective
        newly = [e for e, v in sol.x.items() if v >= threshold]
        if not newly:
            raise JainProgressError(
                "no undecided edge at or above 1/2 in an LP vertex"
            )
        chosen.update(newly)
        iterations += 1
    if first_objective is None:
        first_objective = Fraction(0)
    return JainResult(frozenset(chosen), first_objective, iterations)
