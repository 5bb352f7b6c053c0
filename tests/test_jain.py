"""Iterative rounding for pairwise connectivity requirements."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flexconn import (
    LpInfeasibleError,
    MultiGraph,
    SndpInstance,
    ValidationError,
    edge_connectivity,
    jain_round,
)
from flexconn.flows import integral, undirected_network
from flexconn.fst import _shortest_paths
from flexconn.generators import GenConfig, random_multigraph
from flexconn.jain import first_unmet_pair, separation
from flexconn.lp import CutRow, solve_cut_lp
from flexconn.oracle import exact_opt

from strategies import cut_lp_values, multigraphs, node_pairs


def cycle(n, cost=1):
    rows = [(v, (v + 1) % n, Fraction(cost), True) for v in range(n)]
    return MultiGraph.build(n, rows)


def test_requirement_normalization():
    g = cycle(4)
    inst = SndpInstance(g, {(3, 1): 2})
    assert inst.requirements == {(1, 3): 2}
    inst = SndpInstance(g, {(1, 3): 2, (3, 1): 2})
    assert inst.requirements == {(1, 3): 2}
    with pytest.raises(ValidationError):
        SndpInstance(g, {(0, 0): 1})
    with pytest.raises(ValidationError):
        SndpInstance(g, {(0, 9): 1})
    with pytest.raises(ValidationError):
        SndpInstance(g, {(0, 1): -1})
    with pytest.raises(ValidationError):
        SndpInstance(g, {(0, 1): 1, (1, 0): 2})


def test_cycle_needs_all_edges_for_two_paths():
    g = cycle(4)
    res = jain_round(SndpInstance(g, {(0, 2): 2}))
    assert res.edges == g.edge_ids
    assert g.cost(res.edges) <= 2 * res.lp_objective


def test_trivial_and_empty_requirements():
    g = cycle(3)
    res = jain_round(SndpInstance(g, {}))
    assert res.edges == frozenset() and res.iterations == 0
    res = jain_round(SndpInstance(g, {(0, 1): 0}))
    assert res.edges == frozenset()


def test_infeasible_requirement_reports_a_cut():
    # the check is the caller's (see test_fgc for Cap-NDP's refusal);
    # jain_round itself fails in its first LP, on a cut row too small
    g = MultiGraph.build(3, [(0, 1, Fraction(1), True), (1, 2, Fraction(1), True)])
    with pytest.raises(LpInfeasibleError) as err:
        jain_round(SndpInstance(g, {(0, 2): 2}))
    row = err.value.row
    assert row is not None and row.rhs == 2 and len(row.edge_ids) < 2


def separate(inst, x, chosen):
    """`separation` at x as `solve_cut_lp` hands it over: the undecided
    edges' values scaled to ints by `integral`."""
    return separation(inst, *integral({e: v for e, v in x.items() if e not in chosen}), chosen)


def test_separation_finds_most_violated_cut():
    g = cycle(4)
    inst = SndpInstance(g, {(0, 2): 2})
    x = {eid: Fraction(0) for eid in g.edge_ids}
    rows = separate(inst, x, frozenset())
    assert rows and rows[0].rhs == 2
    # a satisfied requirement yields silence
    x = {eid: Fraction(1) for eid in g.edge_ids}
    assert separate(inst, x, frozenset()) == []


def test_separation_ignores_zero_requirements():
    g = cycle(4)
    x = {eid: Fraction(0) for eid in g.edge_ids}
    for chosen in (frozenset(), frozenset({0})):
        alone = separate(SndpInstance(g, {(0, 2): 2}), x, chosen)
        assert alone
        zeros = SndpInstance(g, {(0, 1): 0, (0, 2): 2, (1, 3): 0})
        assert separate(zeros, x, chosen) == alone


def test_first_unmet_pair_counts_capacity_units():
    # 1-2-3 and 1-0-3 each pass one unit; 0-1-2 alone passes 3
    net = undirected_network(cycle(4), {0: 3, 1: 3, 2: 1, 3: 1})
    assert first_unmet_pair(net, {(0, 1): 0, (0, 2): 2, (1, 3): 3}) == ((1, 3), 2)
    assert first_unmet_pair(net, {(0, 1): 0, (0, 2): 4}) is None
    # a zero requirement is met by no edges at all
    assert first_unmet_pair(net.within(()), {(0, 1): 0}) is None


def test_half_integral_point_on_a_cycle_is_cut_short():
    # x = 1/2 everywhere moves only one unit across the cut around node 0
    g = cycle(4)
    x = {eid: Fraction(1, 2) for eid in g.edge_ids}
    rows = separate(SndpInstance(g, {(0, 2): 2}), x, frozenset())
    assert rows and rows[0].rhs == 2
    assert sum(x[eid] for eid in rows[0].edge_ids) == 1


def reaching_by_fixed_point(net, t):
    """Nodes with a residual-positive path to t on `net`, grown from t by
    adding the tail of every positive arc whose head is in, until none is
    added."""
    arcs = [(net.to[i ^ 1], net.to[i]) for i, cap in enumerate(net.cap) if cap > 0]
    found = {t}
    while True:
        grown = found | {tail for tail, head in arcs if head in found}
        if grown == found:
            return frozenset(found)
        found = grown


def reference_separation(graph, x, requirements, chosen):
    """Separation on Fraction capacities with a new network per pair, a
    flow run to the end for every pair and no pair skipped: one row per
    distinct violated cut side, both the side residual-reachable from i and
    the complement of the nodes with a residual path to j, ranked by
    (violation, side size, sorted side), each naming the undecided boundary
    edges and taking the chosen ones off its rhs."""
    caps = {
        e.eid: Fraction(1) if e.eid in chosen else Fraction(x.get(e.eid, 0))
        for e in graph.edges
    }
    best = {}
    pairs = sorted((p, r) for p, r in requirements.items() if r >= 1)
    for (i, j), r in pairs:
        net = undirected_network(graph, caps)
        viol = Fraction(r) - net.max_flow(i, j)
        if viol <= 0:
            continue
        near = net.reachable_from(i)
        far = frozenset(range(graph.n)) - reaching_by_fixed_point(net, j)
        for side in (near, far):
            rank = (-viol, len(side), tuple(sorted(side)))
            if side not in best or rank < best[side]:
                best[side] = rank
    rows = []
    for rank, side in sorted((rank, side) for side, rank in best.items()):
        boundary = graph.boundary(side)
        rhs = max(r for (i, j), r in pairs if (i in side) != (j in side))
        rows.append(CutRow(boundary - chosen, Fraction(rhs - len(boundary & chosen))))
    return rows


@pytest.mark.parametrize("style", ["float", "rational", "binary", "tie"])
def test_separation_matches_fraction_reference(style):
    rng = random.Random(f"separation/{style}")
    cfg = GenConfig(nodes=(3, 9), extra_edges=(0, 6))
    found = 0
    for k in range(60):
        g = cycle(rng.randint(3, 7)) if k % 4 == 0 else random_multigraph(rng, cfg)
        x = cut_lp_values(rng, style, sorted(g.edge_ids))
        pairs = {
            tuple(sorted(rng.sample(range(g.n), 2))): rng.randint(1, 3)
            for _ in range(rng.randint(1, 5))
        }
        chosen = frozenset(e for e in g.edge_ids if rng.random() < 0.2)
        inst = SndpInstance(g, pairs)
        rows = separate(inst, x, chosen)
        assert rows == reference_separation(g, x, pairs, chosen)
        if style == "float":
            # the cut LP scales its float stage's point from the floats
            assert separate(inst, {e: float(v) for e, v in x.items()}, chosen) == rows
        found += bool(rows)
    assert found >= 20


def test_separation_returns_both_extreme_min_cuts():
    # on the path 0-1-2 at x = 1/2 the pair (0, 2) has two min cuts, {0}
    # nearest 0 and {0, 1} farthest; both rows are violated, the smaller
    # side first
    g = MultiGraph.build(3, [(0, 1, Fraction(1), True), (1, 2, Fraction(1), True)])
    x = {0: Fraction(1, 2), 1: Fraction(1, 2)}
    pairs = {(0, 2): 1}
    rows = separate(SndpInstance(g, pairs), x, frozenset())
    assert rows == [CutRow(frozenset({0}), Fraction(1)), CutRow(frozenset({1}), Fraction(1))]
    assert all(sum(x[e] for e in row.edge_ids) < row.rhs for row in rows)
    assert rows == reference_separation(g, x, pairs, frozenset())
    # a unique min cut gives one row
    x = {0: Fraction(1, 2), 1: Fraction(1)}
    assert separate(SndpInstance(g, pairs), x, frozenset()) == [CutRow(frozenset({0}), Fraction(1))]


def test_separation_breaks_ties_between_pairs_like_the_reference():
    # every pair of a cycle at x = 1/2 falls short by one unit
    g = cycle(6)
    x = {eid: Fraction(1, 2) for eid in g.edge_ids}
    pairs = {(i, j): 2 for i in range(6) for j in range(i + 1, 6)}
    rows = separate(SndpInstance(g, pairs), x, frozenset())
    assert rows == reference_separation(g, x, pairs, frozenset())
    assert rows[0] == CutRow(frozenset({0, 5}), Fraction(2))


def test_pruned_separation_matches_the_reference_on_a_clique_of_pairs(monkeypatch):
    # A uniform requirement over every pair of a terminal set, as fst's
    # second stage asks: pairs already met join most terminals, so the
    # skip fires, and the rows must still be those of every pair's full
    # flow.  Zero requirements on other pairs and chosen edges ride along.
    from flexconn import flows

    flows_run = []
    max_flow = flows.Network.max_flow

    def counted(self, s, t, cutoff=None, **kw):
        flows_run.append(cutoff)
        return max_flow(self, s, t, cutoff, **kw)

    monkeypatch.setattr(flows.Network, "max_flow", counted)
    rng = random.Random("separation/clique")
    cfg = GenConfig(nodes=(6, 10), extra_edges=(3, 8))
    ran = asked = found = 0
    for k in range(60):
        g = random_multigraph(rng, cfg)
        x = cut_lp_values(rng, ("float", "rational", "binary", "tie")[k % 4],
                          sorted(g.edge_ids))
        terminals = sorted(rng.sample(range(g.n), rng.randint(3, g.n)))
        r = rng.randint(1, 3)
        pairs = {(a, b): r for a in terminals for b in terminals if a < b}
        for _ in range(3):
            pair = tuple(sorted(rng.sample(range(g.n), 2)))
            pairs.setdefault(pair, 0)
        chosen = frozenset(e for e in g.edge_ids if rng.random() < 0.2)
        inst = SndpInstance(g, pairs)
        flows_run.clear()
        rows = separate(inst, x, chosen)
        assert all(cutoff is not None for cutoff in flows_run)
        ran += len(flows_run)
        asked += sum(1 for need in pairs.values() if need > 0)
        assert rows == reference_separation(g, x, pairs, chosen)
        found += len(rows) > 1
    # a flow for every pair with a requirement would run `asked` times
    assert ran < asked
    assert found >= 10


def test_unit_requirement_reduces_to_a_shortest_path():
    rng = random.Random(7)
    cfg = GenConfig(nodes=(2, 8), extra_edges=(0, 4))
    for _ in range(50):
        g = random_multigraph(rng, cfg)
        i, j = sorted(rng.sample(range(g.n), 2))
        res = jain_round(SndpInstance(g, {(i, j): 1}))
        scale, weight = integral({e.eid: e.cost for e in g.edges})
        dist, _ = _shortest_paths(g, weight, i)
        assert g.cost(res.edges) * scale == dist[j]


def test_parallel_cheap_route_is_preferred():
    g = MultiGraph.build(2, [
        (0, 1, Fraction(1), True),
        (0, 1, Fraction(1), True),
        (0, 1, Fraction(10), True),
    ])
    res = jain_round(SndpInstance(g, {(0, 1): 2}))
    assert res.edges == frozenset({0, 1})
    assert res.lp_objective == 2


@given(multigraphs(max_nodes=6, max_extra=4), st.data())
def test_rounded_solution_is_feasible_and_2_approximate(g, data):
    pairs = {}
    for _ in range(data.draw(st.integers(1, 3))):
        pair = data.draw(node_pairs(g.n))
        pairs[pair] = data.draw(st.integers(1, 3))
    inst = SndpInstance(g, pairs)
    if first_unmet_pair(inst._network, inst.requirements) is not None:
        return
    res = jain_round(inst)
    for (i, j), r in inst.requirements.items():
        assert edge_connectivity(g, i, j, res.edges, cutoff=r) >= r
    cost = g.cost(res.edges)
    assert cost <= 2 * res.lp_objective
    opt = exact_opt(inst)
    assert opt.feasible
    assert res.lp_objective <= opt.cost
    assert cost <= 2 * opt.cost


@given(multigraphs(max_nodes=5, max_extra=3), st.data())
def test_every_vertex_offers_a_half_edge(g, data):
    """The progress property the rounding relies on, checked at the first
    vertex of each instance rather than trusted."""
    pair = data.draw(node_pairs(g.n))
    r = data.draw(st.integers(1, 2))
    if edge_connectivity(g, pair[0], pair[1]) < r:
        return
    costs = {e.eid: e.cost for e in g.edges}
    inst = SndpInstance(g, {pair: r})
    sol = solve_cut_lp(costs, lambda scale, num: separation(inst, scale, num, frozenset()))
    assert any(v >= Fraction(1, 2) for v in sol.x.values())


def _residual_lp_by_highs(graph, costs, requirements, chosen):
    """The residual cut LP over the undecided edges, written out for every
    cut side S that holds node 0, and solved by scipy's highs: for each S
    separating a requirement, the undecided edges of its boundary carry at
    least the largest requirement S separates less its chosen edges."""
    import itertools

    import numpy as np

    scipy_opt = pytest.importorskip("scipy.optimize")
    undecided = sorted(costs)
    a_ub, b_ub = [], []
    for size in range(graph.n):
        for rest in itertools.combinations(range(1, graph.n), size):
            side = {0, *rest}
            demand = max(
                (r for (i, j), r in requirements.items() if (i in side) != (j in side)),
                default=0,
            )
            if demand < 1:
                continue
            boundary = {e.eid for e in graph.edges if (e.u in side) != (e.v in side)}
            a_ub.append([-1.0 if e in boundary else 0.0 for e in undecided])
            b_ub.append(-float(demand - len(boundary & chosen)))
    res = scipy_opt.linprog(
        np.array([float(costs[e]) for e in undecided]),
        A_ub=np.array(a_ub), b_ub=np.array(b_ub),
        bounds=[(0, 1)] * len(undecided), method="highs",
    )
    assert res.status == 0
    return res.fun


def test_residual_lp_matches_the_explicit_residual_system():
    """The state after a rounding step, which the seeded solver instances
    never reach: with some edges of the first vertex chosen, the LP over the
    undecided edges, fed residual rows by `separation`, has the optimum of
    the residual system written out over every cut side."""
    rng = random.Random(11)
    cfg = GenConfig(nodes=(4, 7), extra_edges=(2, 6))
    compared = 0
    for _ in range(40):
        g = random_multigraph(rng, cfg)
        requirements = {}
        for _ in range(rng.randint(1, 3)):
            i, j = sorted(rng.sample(range(g.n), 2))
            lam = edge_connectivity(g, i, j, g.edge_ids, cutoff=4)
            requirements[(i, j)] = min(rng.randint(1, 4), lam)
        costs = {e.eid: e.cost for e in g.edges}
        inst = SndpInstance(g, requirements)
        first = solve_cut_lp(costs, lambda scale, num: separation(inst, scale, num, frozenset()))
        half = sorted(e for e, v in first.x.items() if v >= Fraction(1, 2))
        if len(half) < 2:
            continue
        chosen = frozenset(half) - {rng.choice(half)}
        undecided = {e: c for e, c in costs.items() if e not in chosen}
        sol = solve_cut_lp(undecided, lambda scale, num: separation(inst, scale, num, chosen))
        assert sol.x.keys() == undecided.keys()
        reference = _residual_lp_by_highs(g, undecided, requirements, chosen)
        assert abs(float(sol.objective) - reference) < 1e-7
        compared += sol.objective > 0
    assert compared >= 30
