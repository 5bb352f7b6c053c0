"""Two-stage solver for tree connectivity that survives one unsafe failure."""

import heapq
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexconn import (
    FstInstance,
    InfeasibleInstanceError,
    MultiGraph,
    OracleBudget,
    OracleRefusalError,
    UnknownEdgeError,
    ValidationError,
    build_second_stage,
    minimum_cost_subset,
    solve_fst,
    steiner_tree_approx,
    steiner_tree_exact,
    verify_fst,
)
from flexconn import fst
from flexconn.flows import integral
from flexconn.fst import FstViolation, _shortest_paths
from flexconn.generators import GenConfig, gen_fst
from flexconn.graphs import Verdict
from flexconn.jain import first_unmet_pair
from flexconn.oracle import exact_opt

from strategies import multigraphs


def detour_square():
    """Cheap unsafe shortcut against an expensive safe detour."""
    g = MultiGraph.build(4, [
        (0, 1, Fraction(1), True),
        (1, 2, Fraction(1), False),
        (0, 3, Fraction(3), True),
        (3, 2, Fraction(3), True),
    ])
    return FstInstance(g, frozenset({0, 2}))


def test_terminal_validation():
    g = MultiGraph.build(2, [(0, 1, Fraction(1), True)])
    inst = FstInstance(g, {1, 0})
    assert inst.terminals == frozenset({0, 1})
    with pytest.raises(ValidationError):
        FstInstance(g, {0, 2})


@pytest.mark.parametrize("terminals", [{0, -1}, {0, 3}, {3}])
def test_steiner_trees_reject_out_of_range_terminals(terminals):
    g = MultiGraph.build(3, [(0, 1, Fraction(1), True), (1, 2, Fraction(1), True)])
    for tree in (steiner_tree_approx, steiner_tree_exact):
        bad = min(t for t in terminals if not 0 <= t < 3)
        with pytest.raises(ValidationError, match=f"terminal {bad} out of range"):
            tree(g, terminals)


# both tree stages and the solver, which names the pair apart for itself
REFUSERS = (
    steiner_tree_approx,
    steiner_tree_exact,
    lambda g, terminals: solve_fst(FstInstance(g, terminals)),
)


def test_steiner_trees_refuse_disconnected_terminals():
    g = MultiGraph.build(4, [(0, 1, Fraction(1), True), (2, 3, Fraction(1), True)])
    for tree in REFUSERS:
        with pytest.raises(InfeasibleInstanceError, match="disconnected") as err:
            tree(g, {0, 2})
        assert err.value.pair == (0, 2)


def test_steiner_trees_name_the_first_pair_apart():
    # one edge joins 0 and 1, so the first sorted pair in two components is (0, 2)
    g = MultiGraph.build(4, [(0, 1, Fraction(1), True), (2, 3, Fraction(1), True)])
    for tree in REFUSERS:
        with pytest.raises(InfeasibleInstanceError, match="disconnected") as err:
            tree(g, {0, 1, 2})
        assert err.value.pair == (0, 2)


def test_exact_tree_shaves_a_free_pendant():
    # the free edge 0 wins the oracle's lexicographic tie but leads nowhere
    g = MultiGraph.build(4, [
        (1, 3, Fraction(0), True),
        (0, 1, Fraction(1), True),
        (1, 2, Fraction(1), True),
    ])
    connects = lambda s: g.connects({0, 2}, s)
    assert minimum_cost_subset(g.edge_ids, {0: 0, 1: 1, 2: 1}, connects).edges == {0, 1, 2}
    assert steiner_tree_exact(g, {0, 2}) == frozenset({1, 2})


def test_exact_tree_shaves_a_free_pendant_path_leaf_by_leaf():
    # the free path 2-3-4 wins the tie; shaving leaf 4 makes 3 a leaf in
    # turn, and leaf 2, queued first, has lost its edge by the time it is asked
    g = MultiGraph.build(5, [
        (2, 3, Fraction(0), True),
        (3, 4, Fraction(0), True),
        (0, 1, Fraction(1), True),
    ])
    connects = lambda s: g.connects({0, 1}, s)
    assert minimum_cost_subset(g.edge_ids, {0: 0, 1: 0, 2: 1}, connects).edges == {0, 1, 2}
    assert steiner_tree_exact(g, {0, 1}) == frozenset({2})
    # hung from terminal 1, the free path 1-2-3 goes only through the cascade
    g = MultiGraph.build(4, [
        (1, 2, Fraction(0), True),
        (2, 3, Fraction(0), True),
        (0, 1, Fraction(1), True),
    ])
    assert steiner_tree_exact(g, {0, 1}) == frozenset({2})


def test_verify_reports_the_failing_mode():
    g = MultiGraph.build(3, [
        (0, 1, Fraction(1), True),
        (1, 2, Fraction(1), False),
    ])
    inst = FstInstance(g, {0, 2})
    assert verify_fst(inst, {0}).violation.removed is None
    report = verify_fst(inst, {0, 1})
    assert not report.ok and report.violation.removed == 1
    assert verify_fst(FstInstance(g, {0, 1}), {0}).ok
    assert verify_fst(FstInstance(g, {2}), set()).ok


def test_stage_one_trees_connect_and_the_shortcut_wins():
    inst = detour_square()
    g = inst.graph
    assert steiner_tree_approx(g, inst.terminals) == frozenset({0, 1})
    assert steiner_tree_exact(g, inst.terminals) == frozenset({0, 1})


def test_second_stage_contracts_and_discounts():
    inst = detour_square()
    stage2 = build_second_stage(inst, frozenset({0, 1}))
    cg = stage2.graph
    # the safe tree edge 0 disappears into the contraction, which joins
    # nodes 0 and 1 into node 0; terminals 0 and 2 become nodes 0 and 1
    assert cg.n == 3
    assert frozenset(e.eid for e in cg.edges) == frozenset({1, 2, 3})
    # the unsafe tree edge rides along for free
    assert cg.edge(1).cost == 0 and not cg.edge(1).safe
    assert cg.edge(2).cost == 3 and cg.edge(3).cost == 3
    assert stage2.requirements == {(0, 1): 2}


def test_golden_trace_both_methods():
    inst = detour_square()
    for method, bound in (("approx", 4), ("exact", 3)):
        res = solve_fst(inst, stage_one=method)
        assert res.edges == frozenset({0, 1, 2, 3})
        assert res.cost == 8
        assert res.stage_one_edges == frozenset({0, 1})
        assert res.stage_two_edges == frozenset({1, 2, 3})
        assert (res.stage_one_method, res.bound) == (method, bound)
        assert verify_fst(inst, res.edges).ok
    opt = exact_opt(inst)
    assert (opt.cost, opt.edges) == (6, frozenset({2, 3}))
    assert verify_fst(inst, opt.edges).ok


def test_leaf_terminals_buy_every_spoke():
    g = MultiGraph.build(4, [(0, v, Fraction(1), True) for v in (1, 2, 3)])
    terminals = frozenset({1, 2, 3})
    assert steiner_tree_approx(g, terminals) == frozenset({0, 1, 2})
    assert steiner_tree_exact(g, terminals) == frozenset({0, 1, 2})


@given(multigraphs(max_nodes=6, max_extra=4))
def test_spanning_terminals_cost_a_minimum_spanning_tree(g):
    # Kruskal here, kept independent of the solver's own tree code
    parent = list(range(g.n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    mst = Fraction(0)
    for e in sorted(g.edges, key=lambda e: (e.cost, e.eid)):
        a, b = find(e.u), find(e.v)
        if a != b:
            parent[a] = b
            mst += e.cost
    terminals = frozenset(range(g.n))
    assert g.cost(steiner_tree_approx(g, terminals)) == mst
    assert g.cost(steiner_tree_exact(g, terminals)) == mst


def test_all_safe_graphs_need_no_second_stage():
    g = MultiGraph.build(3, [
        (0, 1, Fraction(1), True),
        (1, 2, Fraction(2), True),
        (0, 2, Fraction(4), True),
    ])
    res = solve_fst(FstInstance(g, {0, 2}))
    assert res.edges == res.stage_one_edges == frozenset({0, 1})
    assert res.stage_two_edges == frozenset()
    assert res.cost == 3


def test_unsafe_cycle_spanning_all_terminals():
    g = MultiGraph.build(4, [
        (v, (v + 1) % 4, Fraction(1), False) for v in range(4)
    ])
    inst = FstInstance(g, frozenset(range(4)))
    assert verify_fst(inst, g.edge_ids).ok
    res = solve_fst(inst)
    assert res.edges == g.edge_ids and res.cost == 4


def test_single_terminal_needs_nothing():
    g = MultiGraph.build(3, [(0, 1, Fraction(1), False)])
    res = solve_fst(FstInstance(g, {1}))
    assert res.edges == frozenset() and res.cost == 0


def test_unknown_stage_one_method():
    with pytest.raises(ValidationError):
        solve_fst(detour_square(), stage_one="greedy")


def test_infeasibility_is_detected_up_front():
    g = MultiGraph.build(2, [])
    with pytest.raises(InfeasibleInstanceError):
        solve_fst(FstInstance(g, {0, 1}))
    g = MultiGraph.build(3, [
        (0, 1, Fraction(1), True),
        (1, 2, Fraction(1), False),
    ])
    with pytest.raises(InfeasibleInstanceError) as err:
        solve_fst(FstInstance(g, {0, 2}))
    assert "edge 1" in str(err.value)


@given(multigraphs(max_nodes=6, max_extra=4), st.data())
def test_approx_tree_is_within_twice_the_exact_tree(g, data):
    terminals = frozenset(
        data.draw(st.sets(st.integers(0, g.n - 1), min_size=2, max_size=min(3, g.n)))
    )
    if not g.connects(terminals, g.edge_ids):
        return
    approx = steiner_tree_approx(g, terminals)
    exact = steiner_tree_exact(g, terminals)
    assert g.connects(terminals, approx)
    assert g.connects(terminals, exact)
    assert g.cost(exact) <= g.cost(approx) <= 2 * g.cost(exact)


@settings(max_examples=25)
@given(multigraphs(max_nodes=5, max_extra=3), st.data())
def test_solved_instances_verify_and_respect_the_factor(g, data):
    terminals = frozenset(
        data.draw(st.sets(st.integers(0, g.n - 1), min_size=2, max_size=min(3, g.n)))
    )
    method = data.draw(st.sampled_from(["approx", "exact"]))
    inst = FstInstance(g, terminals)
    try:
        res = solve_fst(inst, stage_one=method)
    except InfeasibleInstanceError:
        assert not verify_fst(inst, g.edge_ids).ok
        return
    assert verify_fst(inst, res.edges).ok
    assert res.cost == g.cost(res.edges)
    opt = exact_opt(inst)
    assert opt.feasible and opt.cost <= res.cost <= res.bound * opt.cost


def second_stages_with_their_paths(inst, budget):
    """The argument `solve_fst` rests on to skip asking: once `verify_fst`
    accepts the full edge set, the second stage on either stage-one tree
    meets every requirement on its whole graph.  Returns the second stages
    checked, the exact tree's only where it finished within `budget`."""
    trees = [steiner_tree_approx(inst.graph, inst.terminals)]
    try:
        trees.append(steiner_tree_exact(inst.graph, inst.terminals, budget=budget))
    except OracleRefusalError:
        pass
    stages = [build_second_stage(inst, tree) for tree in trees]
    for second in stages:
        assert first_unmet_pair(second._network, second.requirements) is None
    return stages


def test_second_stage_has_its_paths_on_seeded_instances():
    cfg = GenConfig(nodes=(3, 8), extra_edges=(1, 6), terminals=(2, 5))
    budget = OracleBudget(max_checks=20_000)
    exact = asked = 0
    for seed in range(200):
        inst = gen_fst(seed, cfg=cfg)
        assert verify_fst(inst, inst.graph.edge_ids).ok
        stages = second_stages_with_their_paths(inst, budget)
        exact += len(stages) == 2
        asked += sum(bool(second.requirements) for second in stages)
    assert exact >= 150 and asked >= 200


@given(multigraphs(max_nodes=7, max_extra=5), st.data())
def test_second_stage_has_its_paths_on_random_multigraphs(g, data):
    terminals = data.draw(st.sets(st.integers(0, g.n - 1), min_size=2, max_size=g.n))
    inst = FstInstance(g, terminals)
    if verify_fst(inst, g.edge_ids).ok:
        second_stages_with_their_paths(inst, OracleBudget(max_checks=5_000))


def verify_by_definition(inst, edge_ids):
    """`verify_fst` as the definition reads: one connectivity test per unsafe
    chosen edge, in id order."""
    g = inst.graph
    chosen = g.subset(edge_ids)
    if len(inst.terminals) <= 1:
        return Verdict()
    if not g.connects(inst.terminals, chosen):
        return Verdict(FstViolation(None))
    for eid in sorted(chosen):
        if not g.edge(eid).safe and not g.connects(inst.terminals, chosen - {eid}):
            return Verdict(FstViolation(eid))
    return Verdict()


def test_bridge_pass_handles_parallel_and_safe_bridges():
    # 0 =(unsafe pair)= 1 -(safe)- 2 -(unsafe)- 3, plus a terminal-free 4-5
    g = MultiGraph.build(6, [
        (0, 1, Fraction(1), False),
        (0, 1, Fraction(1), False),
        (1, 2, Fraction(1), True),
        (2, 3, Fraction(1), False),
        (4, 5, Fraction(1), False),
    ])
    inst = FstInstance(g, {0, 2})
    for chosen, want in [
        ({0, 1, 2}, None),          # the parallel pair is no bridge
        ({0, 1, 2, 3, 4}, None),    # pendant and terminal-free edges split no terminals
        ({0, 2}, FstViolation(0)),  # one copy alone is an unsafe bridge
        ({1, 2, 4}, FstViolation(1)),
        ({0, 1}, FstViolation(None)),
    ]:
        assert verify_fst(inst, chosen).violation == want
        assert verify_by_definition(inst, chosen).violation == want
    assert verify_fst(FstInstance(g, {0, 3}), {0, 2, 3}).violation == FstViolation(0)
    assert verify_fst(FstInstance(g, {1, 2}), {2}).ok    # a safe bridge
    assert verify_fst(FstInstance(g, {0, 4}), g.edge_ids).violation == FstViolation(None)
    with pytest.raises(UnknownEdgeError):
        verify_fst(inst, {0, 1, 2, 9})


def test_bridge_pass_matches_the_definition_on_random_multigraphs():
    rng = random.Random(14)
    seen = {"ok": 0, "split": 0, "disconnected": 0, "parallel": 0}
    for _ in range(600):
        n = rng.randint(1, 8)
        rows = []
        for _ in range(rng.randint(0, 2 * n + 2)):
            if n < 2:
                break
            u, v = rng.sample(range(n), 2)
            for _ in range(rng.choice([1, 1, 1, 2])):    # parallel copies
                rows.append((u, v, Fraction(1), rng.random() < 0.3))
        g = MultiGraph.build(n, rows)
        terminals = frozenset(v for v in range(n) if rng.random() < 0.5)
        chosen = frozenset(e for e in g.edge_ids if rng.random() < 0.8)
        inst = FstInstance(g, terminals)
        want = verify_by_definition(inst, chosen)
        assert verify_fst(inst, chosen) == want
        if want.ok:
            seen["ok"] += 1
        else:
            seen["disconnected" if want.violation.removed is None else "split"] += 1
        ends = [tuple(sorted((g.edge(e).u, g.edge(e).v))) for e in chosen]
        seen["parallel"] += len(set(ends)) < len(ends) and want.ok
    assert min(seen.values()) >= 50, seen


def fraction_shortest_paths(g, source):
    """Dijkstra on `Fraction` costs, as stage one ran before it moved to ints."""
    dist = [None] * g.n
    parent = [None] * g.n
    dist[source] = Fraction(0)
    heap = [(Fraction(0), source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for e in g.incident(v):
            w = e.other(v)
            nd = d + e.cost
            if dist[w] is None or nd < dist[w]:
                dist[w] = nd
                parent[w] = e.eid
                heapq.heappush(heap, (nd, w))
    return dist, parent


@pytest.mark.parametrize("costs", [
    [Fraction(k, 3) for k in (1, 2, 4)] + [Fraction(k, 7) for k in (1, 3, 5)],
    [Fraction(1, 3), Fraction(2, 3)],    # few values, so distances tie often
    [Fraction(1, 7)],                    # every path of a given length ties
])
def test_integer_dijkstra_matches_the_fraction_one(costs, monkeypatch):
    rng = random.Random(len(costs))
    cases = []
    for _ in range(120):
        n = rng.randint(2, 10)
        rows = [(rng.randrange(v), v, rng.choice(costs), True) for v in range(1, n)]
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.sample(range(n), 2)
            rows.append((u, v, rng.choice(costs), True))
        g = MultiGraph.build(n, rows)
        terminals = frozenset(rng.sample(range(n), rng.randint(2, n)))
        scale, weight = integral({e.eid: e.cost for e in g.edges})
        for source in terminals:
            dist, parent = _shortest_paths(g, weight, source)
            ref_dist, ref_parent = fraction_shortest_paths(g, source)
            assert parent == ref_parent
            assert dist == [d * scale for d in ref_dist]
        cases.append((g, terminals, steiner_tree_approx(g, terminals)))
    monkeypatch.setattr(
        fst, "_shortest_paths", lambda g, weight, source: fraction_shortest_paths(g, source)
    )
    for g, terminals, tree in cases:
        assert steiner_tree_approx(g, terminals) == tree
