"""Flexible graph connectivity with per-pair requirements.

A solution F is feasible when, for every pair (i, j) with requirement
(p_ij, q_ij) and every set F' of at most q_ij unsafe edges of F, the graph
(V, F - F') still has p_ij edge-disjoint (i, j)-paths.

Two regimes admit a capacitated reduction solved by iterative rounding:
all q_ij <= 1 (capacities p+1 safe / p unsafe, demand (p+q_ij)*p_ij) and all
p_ij = 1 (capacities q+1 safe / 1 unsafe, demand q_ij + 1), where p and q
are the largest requirement values.  A capacitated instance is checked for
feasibility on its own edges at their capacities, then solved by splitting
each edge into unit copies and rounding the cut LP.

Feasibility can be checked two independent ways: directly against the
definition (verify_fgc, with sound shortcuts) or through the cut view
(check_cut_characterization): F is feasible iff every cut separating a pair
either carries p_ij safe edges of F or p_ij + q_ij edges of F in total.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import GuardExceededError, InfeasibleInstanceError, SolverError
from .errors import UnsupportedInstanceError, WrongRegimeError
from .flows import Network, smallest_failing_set, undirected_network, unit_network
from .flows import edge_connectivity, max_flow_min_cut  # unused here; perfbench/spans.py wraps these names
from .graphs import Cut, MultiGraph, Verdict, check_count, split_parallel
from .jain import SndpInstance, first_unmet_pair, jain_round, normalize_pairs


@dataclass(frozen=True)
class FgcInstance:
    """Edge-labelled multigraph with (p_ij, q_ij) requirements per pair."""

    graph: MultiGraph
    pairs: dict[tuple[int, int], tuple[int, int]]

    def __post_init__(self):
        pairs = normalize_pairs(self.pairs, self.graph.n)
        for (a, b), (p, q) in self.pairs.items():
            check_count(p, f"p for pair ({a}, {b})")
            check_count(q, f"q for pair ({a}, {b})")
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def uniform(cls, graph: MultiGraph, p: int, q: int) -> "FgcInstance":
        """Demand (p, q) between every pair of distinct nodes."""
        pairs = {
            (i, j): (p, q)
            for i in range(graph.n)
            for j in range(i + 1, graph.n)
        }
        return cls(graph, pairs)

    def active_pairs(self) -> list[tuple[tuple[int, int], int, int]]:
        """Pairs with p_ij >= 1, in sorted order; others constrain nothing."""
        return list(self._active)

    @cached_property
    def _active(self) -> tuple[tuple[tuple[int, int], int, int], ...]:
        """`active_pairs`, listed once per instance for `verify_fgc`."""
        return tuple((pair, p, q) for pair, (p, q) in self.pairs.items() if p >= 1)

    def is_q1(self) -> bool:
        return all(q <= 1 for _, _, q in self.active_pairs())

    def is_p1(self) -> bool:
        return all(p == 1 for _, p, _ in self.active_pairs())

    def max_p(self) -> int:
        return max((p for _, p, _ in self.active_pairs()), default=1)

    def max_q(self) -> int:
        return max((q for _, _, q in self.active_pairs()), default=1)

    @cached_property
    def _network(self) -> Network:
        """Every edge at 1; `verify_fgc` narrows it, so it is not reentrant."""
        return unit_network(self.graph)


@dataclass(frozen=True)
class CapNdpInstance:
    """Integer edge capacities u_e and flow demands D_ij.

    F is feasible when for every pair the max (i, j)-flow through the edges
    of F, capped at u_e, reaches D_ij.
    """

    graph: MultiGraph
    capacities: dict[int, int]
    demands: dict[tuple[int, int], int]

    def __post_init__(self):
        self.graph.subset(self.capacities)
        for e in self.graph.edges:
            check_count(self.capacities.get(e.eid), f"capacity of edge {e.eid}")
        demands = normalize_pairs(self.demands, self.graph.n)
        for (a, b), d in self.demands.items():
            check_count(d, f"demand for pair ({a}, {b})")
        object.__setattr__(self, "demands", demands)

    @cached_property
    def _network(self) -> Network:
        """Every edge at its capacity; `solve_capndp` and `check_capacitated_cuts` narrow it."""
        return undirected_network(self.graph, self.capacities)


def build_capndp_q1(inst: FgcInstance) -> CapNdpInstance:
    """Reduction for the regime where every q_ij is 0 or 1.

    A cut with s safe and t unsafe chosen edges gets capacity s(p+1) + tp,
    which reaches (p + q_ij) p_ij exactly when the cut satisfies the pair,
    so the capacitated demands below are equivalent to the original ones.
    """
    active = inst.active_pairs()
    for pair, _, q in active:
        if q > 1:
            raise WrongRegimeError(f"pair {pair} has q = {q}, expected at most 1")
    p = inst.max_p()
    caps = {e.eid: p + 1 if e.safe else p for e in inst.graph.edges}
    demands = {pair: (p + qij) * pij for pair, pij, qij in active}
    return CapNdpInstance(inst.graph, caps, demands)


def build_capndp_p1(inst: FgcInstance) -> CapNdpInstance:
    """Reduction for the all-p_ij = 1 regime."""
    active = inst.active_pairs()
    for pair, p, _ in active:
        if p != 1:
            raise WrongRegimeError(f"pair {pair} has p = {p}, expected 1")
    q = inst.max_q()
    caps = {e.eid: q + 1 if e.safe else 1 for e in inst.graph.edges}
    demands = {pair: qij + 1 for pair, _, qij in active}
    return CapNdpInstance(inst.graph, caps, demands)


@dataclass(frozen=True)
class CapacitatedFailure:
    pair: tuple[int, int]
    flow: int
    demand: int


def check_capacitated_cuts(inst: CapNdpInstance, edge_ids) -> Verdict:
    """Check every demand by an exact max flow over the chosen edges at their
    capacities, on the instance's network narrowed to them; the verdict
    names the first demand that fails."""
    chosen = inst.graph.subset(edge_ids)
    hit = first_unmet_pair(inst._network.within(chosen), inst.demands)
    if hit is None:
        return Verdict()
    pair, flow = hit
    return Verdict(CapacitatedFailure(pair, flow, inst.demands[pair]))


@dataclass(frozen=True)
class CapNdpResult:
    edges: frozenset[int]
    cost: Fraction
    lp_objective: Fraction
    iterations: int


def solve_capndp(inst: CapNdpInstance) -> CapNdpResult:
    """Decide infeasibility on the instance's network, every edge at its
    capacity, then split each edge of capacity u >= 1 into u unit copies,
    round the cut LP and keep the touched originals.  A refusal's cut side is
    residual-reachable from the short pair's first node after its flow, a max
    flow, so it is the inclusion-minimal side in any order of the capacities.
    The returned set is re-checked against the capacitated demands; a
    failure there would mean the rounding is broken.
    """
    g = inst.graph
    net = inst._network.within(g.edge_ids)
    hit = first_unmet_pair(net, inst.demands)
    if hit is not None:
        (i, j), flow = hit
        side = net.reachable_from(i)
        raise InfeasibleInstanceError(
            f"pair ({i}, {j}) needs {inst.demands[i, j]} edge-disjoint "
            f"paths but the graph admits only {flow}",
            pair=(i, j),
            cut=Cut(side, g.boundary(side)),
        )
    usable = MultiGraph(g.n, [e for e in g.edges if inst.capacities[e.eid] >= 1])
    split = split_parallel(usable, inst.capacities)
    rounded = jain_round(SndpInstance(split.graph, inst.demands))
    edges = frozenset(split.copy_map[sid] for sid in rounded.edges)
    bad = check_capacitated_cuts(inst, edges).violation
    if bad is not None:
        raise SolverError(
            f"rounded solution moves {bad.flow} < {bad.demand} units for pair "
            f"{bad.pair}"
        )
    return CapNdpResult(edges, g.cost(edges), rounded.lp_objective, rounded.iterations)


@dataclass(frozen=True)
class FgcViolation:
    """A pair left under-connected after removing `removed` from the solution."""

    pair: tuple[int, int]
    removed: frozenset[int]
    connectivity: int


def verify_fgc(inst: FgcInstance, edge_ids) -> Verdict:
    """Check feasibility against the definition; the verdict names the first
    pair, in sorted order, that some failure set breaks.  The flows run on
    the instance's unit network narrowed to F by `Network.within`; each
    unsafe edge of F fails on its own, and they are listed only once a pair
    needs the failure search.

    Two screens are decisive on their own: connectivity p_ij + q_ij within F
    clears the pair outright, while connectivity below p_ij condemns it with
    no removals at all.  Otherwise `flows.smallest_failing_set` finds the
    least failing set of at most min(q_ij, |U ∩ F|) unsafe edges of F, and
    raises GuardExceededError when it would try more than
    `flows.FAILURE_SET_GUARD` edge sets for one pair.
    """
    g = inst.graph
    chosen = g.subset(edge_ids)
    net = inst._network.within(chosen)
    shuts = None
    for (i, j), p, q in inst._active:
        lam = net.max_flow(i, j, cutoff=p + q)
        if lam >= p + q:
            continue
        if lam < p:
            return Verdict(FgcViolation((i, j), frozenset(), lam))
        if shuts is None:
            shuts = {eid: (eid,) for eid in chosen if not g.edge(eid).safe}
        k = min(q, len(shuts))
        if k == 0:
            continue
        hit = smallest_failing_set(net, i, j, [p] * (k + 1), shuts)
        if hit is not None:
            return Verdict(FgcViolation((i, j), *hit))
    return Verdict()


@dataclass(frozen=True)
class CutCharViolation:
    """A cut side whose boundary is too weak for a pair it separates."""

    side: frozenset[int]
    pair: tuple[int, int]
    safe_crossing: int
    total_crossing: int


CUT_NODE_GUARD = 20


def check_cut_characterization(inst: FgcInstance, edge_ids) -> Verdict:
    """Check feasibility through cuts instead of failure sets.

    F is feasible iff every cut separating a pair (i, j) carries at least
    p_ij safe edges of F or at least p_ij + q_ij edges of F in total.  Each
    cut is enumerated once as its side avoiding node 0; the verdict names the
    first weak cut found.  A graph of more than `CUT_NODE_GUARD` nodes, with
    2**20 - 1 sides or more to try, raises GuardExceededError.
    """
    g = inst.graph
    chosen = g.subset(edge_ids)
    if g.n > CUT_NODE_GUARD:
        raise GuardExceededError(f"{g.n} nodes, cut guard is {CUT_NODE_GUARD}")
    active = inst.active_pairs()
    others = list(range(1, g.n))
    for bits in range(1, 1 << len(others)):
        side = frozenset(others[t] for t in range(len(others)) if bits >> t & 1)
        total = 0
        safe = 0
        for eid in chosen:
            e = g.edge(eid)
            if (e.u in side) != (e.v in side):
                total += 1
                if e.safe:
                    safe += 1
        for (i, j), p, q in active:
            if (i in side) == (j in side):
                continue
            if safe >= p or total >= p + q:
                continue
            return Verdict(CutCharViolation(side, (i, j), safe, total))
    return Verdict()


@dataclass(frozen=True)
class FgcSolveResult:
    edges: frozenset[int]
    cost: Fraction
    regime: str              # which reduction ran, "q1" or "p1"
    bound: Fraction          # approximation factor of that reduction
    lp_objective: Fraction
    iterations: int


def solve_fgc(inst: FgcInstance) -> FgcSolveResult:
    """Dispatch to the applicable reduction.

    When both regimes apply the one with the smaller proven factor runs,
    2(p+1) for all-q <= 1 against 2(q+1) for all-p = 1.
    """
    q1 = inst.is_q1()
    p1 = inst.is_p1()
    if not q1 and not p1:
        raise UnsupportedInstanceError(
            "requirements must have every q_ij <= 1 or every p_ij = 1"
        )
    bound_q1 = Fraction(2 * (inst.max_p() + 1))
    bound_p1 = Fraction(2 * (inst.max_q() + 1))
    if q1 and (not p1 or bound_q1 <= bound_p1):
        regime, bound, capndp = "q1", bound_q1, build_capndp_q1(inst)
    else:
        regime, bound, capndp = "p1", bound_p1, build_capndp_p1(inst)
    result = solve_capndp(capndp)
    return FgcSolveResult(
        result.edges, result.cost, regime, bound, result.lp_objective,
        result.iterations,
    )
