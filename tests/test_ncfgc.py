"""Node-failure connectivity: verifiers, inflation, and the rooted solver."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flexconn import (
    GuardExceededError,
    InfeasibleInstanceError,
    InvalidQueryError,
    MultiGraph,
    NcFgcInstance,
    SolverError,
    UnsupportedInstanceError,
    ValidationError,
    edge_connectivity,
    minimum_cost_subset,
    reduce_by_inflation,
    rooted_q_flow,
    solve_p_ncfgc,
    solve_rooted_qconn,
    verify_ncfgc,
)
from flexconn import flows
from flexconn.flows import Network, integral, smallest_failing_set, undirected_network
from flexconn.generators import GenConfig, gen_ncfgc, random_multigraph
from flexconn.graphs import Edge
from flexconn.lp import CutRow
from flexconn.ncfgc import NcViolation, RootedSolveResult, _both_arcs, _separate_rooted, arc
from flexconn.oracle import exact_opt

from strategies import cut_lp_values, edge_subsets, multigraphs, node_pairs


def all_arcs(g):
    """Both arc ids of every edge: 2 * eid and 2 * eid + 1."""
    return frozenset(2 * eid + d for eid in g.edge_ids for d in (0, 1))


def double_path():
    """Two parallel edges on each side of a middle node."""
    return MultiGraph.build(3, [
        (0, 1, Fraction(1), True),
        (0, 1, Fraction(1), True),
        (1, 2, Fraction(1), True),
        (1, 2, Fraction(1), True),
    ])


def test_instance_validation_and_caps():
    g = double_path()
    with pytest.raises(ValidationError):
        NcFgcInstance(g, {3}, 1)
    with pytest.raises(ValidationError):
        NcFgcInstance(g, set(), -1)
    inst = NcFgcInstance(g, {1}, 2)
    assert inst.node_caps() == {0: 1, 1: None, 2: 1}
    assert inst.unsafe_nodes() == [0, 2]


def test_q_connectivity_hand_cases():
    g = double_path()
    # a single-use middle node throttles both parallel pairs
    assert rooted_q_flow(g, {0: None, 1: 1, 2: None}, 0, 2) == 1
    assert rooted_q_flow(g, {0: None, 1: None, 2: None}, 0, 2) == 2
    # endpoint caps are ignored
    assert rooted_q_flow(g, {0: 1, 1: None, 2: 1}, 0, 2) == 2
    assert rooted_q_flow(g, {1: None}, 0, 2, cutoff=1) == 1
    assert rooted_q_flow(g, {1: None}, 0, 2, _both_arcs({0, 2})) == 1
    with pytest.raises(InvalidQueryError):
        rooted_q_flow(g, {}, 1, 1)

    bypass = MultiGraph.build(3, [
        (0, 1, Fraction(1), True),
        (1, 2, Fraction(1), True),
        (0, 2, Fraction(1), True),
    ])
    # the direct edge dodges the single-use middle node
    assert rooted_q_flow(bypass, {0: None, 1: 1, 2: None}, 0, 2) == 2


@given(multigraphs(max_nodes=5, max_extra=3), st.data())
def test_endpoint_caps_do_not_matter(g, data):
    s, t = data.draw(node_pairs(g.n))
    caps = {v: data.draw(st.sampled_from([None, 0, 1, 2])) for v in range(g.n)}
    zero = {**caps, s: 0, t: 0}
    unlimited = {**caps, s: None, t: None}
    for root, sink in ((s, t), (t, s)):
        assert rooted_q_flow(g, zero, root, sink) == rooted_q_flow(
            g, unlimited, root, sink
        )


@given(multigraphs(max_nodes=5, max_extra=3), st.data())
def test_uncapped_nodes_reduce_to_edge_connectivity(g, data):
    i, j = data.draw(node_pairs(g.n))
    caps = {v: None for v in range(g.n)}
    assert rooted_q_flow(g, caps, i, j) == edge_connectivity(g, i, j)


def test_verify_modes_and_hand_cases():
    g = double_path()
    weak = NcFgcInstance(g, set(), 2)
    with pytest.raises(ValidationError):
        verify_ncfgc(weak, g.edge_ids, mode="flow")
    report = verify_ncfgc(weak, g.edge_ids)
    assert not report.ok
    v = report.violation
    # the enumeration route names the failing node
    assert v.pair == (0, 2) and v.removed == frozenset({1}) and v.connectivity == 0
    flow_only = verify_ncfgc(weak, g.edge_ids, mode="qconn")
    assert not flow_only.ok and flow_only.violation.removed is None
    assert verify_ncfgc(NcFgcInstance(g, {1}, 2), g.edge_ids).ok
    for mode in ("qconn", "enumeration", "both"):
        assert verify_ncfgc(NcFgcInstance(g, set(), 0), set(), mode=mode).ok


def test_enumeration_guard_counts_failure_sets_per_pair(monkeypatch):
    # six nodes that can all fail, p = 3: for pair (0, 1) the search tries
    # the empty set, then nodes 2 and 3 on its flow, then {2, 3}, 4 sets
    g = MultiGraph.build(6, [
        (u, v, Fraction(1), True) for u in range(6) for v in range(u + 1, 6)
    ])
    inst = NcFgcInstance(g, set(), 3)
    monkeypatch.setattr(flows, "FAILURE_SET_GUARD", 3)
    with pytest.raises(
        GuardExceededError,
        match=r"^pair \(0, 1\) needs up to 4 failure sets, guard is 3$",
    ):
        verify_ncfgc(inst, g.edge_ids, mode="enumeration")
    monkeypatch.setattr(flows, "FAILURE_SET_GUARD", 4)
    assert verify_ncfgc(inst, g.edge_ids, mode="enumeration").ok
    # a safe node never fails: with node 2 safe only {3} joins the empty set
    # for pair (0, 1); the guard holds per pair, so (0, 2) is the next to pass it
    inst = NcFgcInstance(g, {2}, 3)
    for guard, message in [
        (1, r"^pair \(0, 1\) needs up to 2 failure sets, guard is 1$"),
        (2, r"^pair \(0, 2\) needs up to 3 failure sets, guard is 2$"),
    ]:
        monkeypatch.setattr(flows, "FAILURE_SET_GUARD", guard)
        with pytest.raises(GuardExceededError, match=message):
            verify_ncfgc(inst, g.edge_ids, mode="both")
    monkeypatch.setattr(flows, "FAILURE_SET_GUARD", 4)
    assert verify_ncfgc(inst, g.edge_ids, mode="both").ok
    # a pair cut before any node fails is answered by the first flow
    path = MultiGraph.build(42, [(v, v + 1, Fraction(1), True) for v in range(41)])
    monkeypatch.setattr(flows, "FAILURE_SET_GUARD", 1)
    v = verify_ncfgc(NcFgcInstance(path, set(), 7), path.edge_ids, mode="enumeration").violation
    assert (v.pair, v.removed, v.connectivity) == ((0, 1), frozenset(), 1)


def test_star_center_is_the_weak_point():
    # two parallel spokes per leaf, so only the shared center is scarce
    g = MultiGraph.build(4, [
        (0, v, Fraction(1), True) for v in (1, 2, 3) for _ in range(2)
    ])
    safe_leaves = frozenset({1, 2, 3})
    assert verify_ncfgc(NcFgcInstance(g, safe_leaves, 1), g.edge_ids).ok
    report = verify_ncfgc(NcFgcInstance(g, safe_leaves, 2), g.edge_ids)
    assert not report.ok
    v = report.violation
    assert v.pair == (1, 2) and v.removed == frozenset({0}) and v.connectivity == 0


def count_flows(monkeypatch):
    """A list that grows by one on every `Network.max_flow` call."""
    calls = []
    real = Network.max_flow

    def counted(net, *args, **kwargs):
        calls.append(args)
        return real(net, *args, **kwargs)

    monkeypatch.setattr(Network, "max_flow", counted)
    return calls


def test_row_0_passes_but_the_unsafe_cut_node_fails_a_later_pair(monkeypatch):
    # two triangles joined at node 0, which fails: every node has 2 paths
    # to node 0, but a pair across it has one path through it.  Node 4 is
    # the stitching root; its row reaches 2 only toward node 3, so (1, 2)
    # and (1, 3) each need a flow of their own: the first passes, the
    # second fails
    g = MultiGraph.build(5, [
        (u, v, Fraction(1), True) for u, v in [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]
    ])
    inst = NcFgcInstance(g, {4}, 2)
    flows_run = count_flows(monkeypatch)
    flow_only = verify_ncfgc(inst, g.edge_ids, mode="qconn").violation
    assert flow_only == NcViolation((1, 3), None, 1)
    # row 0, the root row toward 1, 2 and 3, then (1, 2) and (1, 3)
    assert [(s >> 1, t >> 1) for s, t in flows_run] == [
        (0, 1), (0, 2), (0, 3), (0, 4), (4, 1), (4, 2), (4, 3), (1, 2), (1, 3),
    ]
    # the enumeration route names node 0 for the same pair
    for mode in ("enumeration", "both"):
        v = verify_ncfgc(inst, g.edge_ids, mode=mode).violation
        assert v == NcViolation((1, 3), frozenset({0}), 0)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_a_feasible_set_costs_n_minus_1_flows_with_node_0_safe_else_2n_minus_3(monkeypatch, n):
    # two parallel edges between every pair: every pair has p = 2 paths
    g = MultiGraph.build(n, [
        (u, v, Fraction(1), True) for u in range(n) for v in range(u + 1, n) for _ in range(2)
    ])
    flows_run = count_flows(monkeypatch)
    for safe, count in [({0}, n - 1), ({0, n - 1}, n - 1), ({n - 1}, 2 * n - 3),
                        (set(), n * (n - 1) // 2)]:
        flows_run.clear()
        assert verify_ncfgc(NcFgcInstance(g, safe, 2), g.edge_ids, mode="qconn").ok
        assert len(flows_run) == count, (safe, flows_run)


@given(multigraphs(max_nodes=5, max_extra=3), st.data())
def test_flow_and_enumeration_routes_agree(g, data):
    safe = frozenset(data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n)))
    inst = NcFgcInstance(g, safe, data.draw(st.integers(1, 2)))
    chosen = data.draw(edge_subsets(g))
    by_flow = verify_ncfgc(inst, chosen, mode="qconn").ok
    by_enum = verify_ncfgc(inst, chosen, mode="enumeration").ok
    assert by_flow == by_enum
    # "both" cross-checks internally and raises on any split verdict
    assert verify_ncfgc(inst, chosen, mode="both").ok == by_flow


def _pair_ok_enum(inst, chosen, i, j, subset_guard):
    """The enumeration route as it was before the shared failure-set search:
    every set of fewer than p unsafe nodes other than i and j, smallest
    first and in `combinations` order, each on a network of its own."""
    g = inst.graph
    p = inst.requirement
    pool = [v for v in inst.unsafe_nodes() if v not in (i, j)]
    total = sum(math.comb(len(pool), k) for k in range(min(p, len(pool) + 1)))
    if total > subset_guard:
        raise GuardExceededError(
            f"pair ({i}, {j}) needs {total} failure sets, guard is {subset_guard}"
        )
    for k in range(min(p, len(pool) + 1)):
        need = p - k
        for combo in itertools.combinations(pool, k):
            down = set(combo)
            alive = [
                eid
                for eid in sorted(chosen)
                if down.isdisjoint((g.edge(eid).u, g.edge(eid).v))
            ]
            lam = edge_connectivity(g, i, j, alive, cutoff=need)
            if lam < need:
                return NcViolation((i, j), frozenset(combo), lam)
    return None


def _reference_violation(inst, chosen):
    """The first pair's violation by `_pair_ok_enum`, or None."""
    n = inst.graph.n
    for i in range(n):
        for j in range(i + 1, n):
            hit = _pair_ok_enum(inst, chosen, i, j, 10**6)
            if hit is not None:
                return hit
    return None


def test_enumeration_route_matches_the_combination_reference():
    # two doubled routes 0-2-1 and 0-3-1: only both middles failing cuts 0-1
    g = MultiGraph.build(4, [
        (u, v, Fraction(1), True) for u, v in [(0, 2), (2, 1), (0, 3), (3, 1)]
        for _ in range(2)
    ])
    hand = NcFgcInstance(g, set(), 3)
    witness = NcViolation((0, 1), frozenset({2, 3}), 0)
    assert verify_ncfgc(hand, g.edge_ids, mode="enumeration").violation == witness
    cases = [(hand, [g.edge_ids])]
    # few nodes and many extra edges: parallel edges are common
    rng = random.Random(17)
    for cfg in (GenConfig(nodes=(3, 7), extra_edges=(3, 10), ncfgc_p=(1, 3)),
                GenConfig(nodes=(4, 6), extra_edges=(10, 20), ncfgc_p=(3, 3))):
        for seed in range(40):
            inst = gen_ncfgc(seed, cfg=cfg, ensure_feasible=False)
            ids = sorted(inst.graph.edge_ids)
            subsets = [frozenset(e for e in ids if rng.random() < share)
                       for share in (0.5, 0.7, 0.9)]
            if verify_ncfgc(inst, ids, mode="qconn").ok:
                # a solver output and every set one edge short of it
                edges = solve_p_ncfgc(inst).edges
                subsets += [edges] + [edges - {eid} for eid in edges]
            cases.append((inst, subsets))
    checked = failures = deep = 0
    for inst, subsets in cases:
        for chosen in subsets:
            expected = _reference_violation(inst, chosen)
            v = verify_ncfgc(inst, chosen, mode="enumeration").violation
            assert v == expected
            checked += 1
            if v is not None:
                failures += 1
                deep += len(v.removed) > 0
    assert failures > 100 and checked - failures > 100 and deep > 20


def interleaved_verify(inst, edge_ids, mode):
    """`verify_ncfgc` as it ran with both routes interleaved pair by pair:
    the first pair either route fails ends the loop, a pair the routes split
    on raises, and the enumeration witness wins.  The flow is measured by
    `rooted_q_flow` on a network of its own per pair."""
    g = inst.graph
    chosen = g.subset(edge_ids)
    p = inst.requirement
    if p == 0:
        return None
    caps = inst.node_caps()
    unit = undirected_network(g, dict.fromkeys(sorted(chosen), 1))
    shuts = {
        v: [e.eid for e in g.incident(v) if e.eid in chosen]
        for v in inst.unsafe_nodes()
    }
    for i in range(g.n):
        for j in range(i + 1, g.n):
            hit_q = hit_e = None
            if mode in ("qconn", "both"):
                lam = rooted_q_flow(g, caps, i, j, _both_arcs(chosen), cutoff=p)
                if lam < p:
                    hit_q = NcViolation((i, j), None, lam)
            if mode in ("enumeration", "both"):
                pool = {v: pairs for v, pairs in shuts.items() if v not in (i, j)}
                need = [p - s for s in range(min(p, len(pool) + 1))]
                found = smallest_failing_set(unit, i, j, need, pool)
                hit_e = None if found is None else NcViolation((i, j), *found)
            if mode == "both" and (hit_q is None) != (hit_e is None):
                raise SolverError(f"routes disagree on pair ({i}, {j})")
            hit = hit_e if hit_e is not None else hit_q
            if hit is not None:
                return hit
    return None


def test_whole_routes_match_the_interleaved_loop():
    rng = random.Random(19)
    checked = failures = 0
    for cfg in (GenConfig(nodes=(3, 7), extra_edges=(3, 10), ncfgc_p=(1, 3)),
                GenConfig(nodes=(5, 8), extra_edges=(8, 16), ncfgc_p=(2, 3))):
        for seed in range(25):
            inst = gen_ncfgc(seed, cfg=cfg, ensure_feasible=False)
            ids = sorted(inst.graph.edge_ids)
            subsets = [ids, []] + [
                [e for e in ids if rng.random() < share] for share in (0.5, 0.8)
            ]
            if verify_ncfgc(inst, ids, mode="qconn").ok:
                edges = sorted(solve_p_ncfgc(inst).edges)
                subsets += [edges] + [[e for e in edges if e != eid] for eid in edges]
            for chosen in subsets:
                for mode in ("qconn", "enumeration", "both"):
                    verdict = verify_ncfgc(inst, chosen, mode=mode)
                    expected = interleaved_verify(inst, chosen, mode)
                    assert verdict.ok == (expected is None)
                    assert verdict.violation == expected
                checked += 1
                failures += expected is not None
    assert failures > 50 and checked - failures > 50


def test_routes_that_disagree_raise_in_both_mode(monkeypatch):
    from flexconn import ncfgc

    g = double_path()
    weak = NcFgcInstance(g, set(), 2)
    # an enumeration route that never finds a failing set
    monkeypatch.setattr(ncfgc, "smallest_failing_set", lambda *args: None)
    assert verify_ncfgc(weak, g.edge_ids, mode="enumeration").ok
    assert verify_ncfgc(weak, g.edge_ids, mode="qconn").violation.pair == (0, 2)
    with pytest.raises(
        SolverError,
        match=r"^feasibility routes disagree: flow fails pair \(0, 2\) first, "
        r"enumeration fails pair None first$",
    ):
        verify_ncfgc(weak, g.edge_ids, mode="both")
    # one that fails a later pair than the flow route does
    monkeypatch.setattr(
        ncfgc, "smallest_failing_set",
        lambda net, s, t, *rest: (frozenset(), 0) if (s, t) == (1, 2) else None,
    )
    with pytest.raises(
        SolverError, match=r"flow fails pair \(0, 2\) first, enumeration fails pair \(1, 2\)"
    ):
        verify_ncfgc(weak, g.edge_ids, mode="both")
    # and one that fails every pair on the first set it tries
    monkeypatch.setattr(ncfgc, "smallest_failing_set", lambda *args: (frozenset(), 0))
    strong = NcFgcInstance(g, {1}, 2)
    assert verify_ncfgc(strong, g.edge_ids, mode="qconn").ok
    with pytest.raises(
        SolverError, match=r"flow fails pair None first, enumeration fails pair \(0, 1\)"
    ):
        verify_ncfgc(strong, g.edge_ids, mode="both")


def test_inflation_structure():
    g = MultiGraph.build(3, [
        (0, 1, Fraction(1), True),
        (1, 2, Fraction(2), True),
        (0, 2, Fraction(3), True),
    ])
    reduced, inflated = reduce_by_inflation(NcFgcInstance(g, {0, 1}, 2))
    assert reduced.safe_nodes == frozenset()
    assert reduced.requirement == 2
    ig = reduced.graph
    assert ig is inflated.graph
    assert inflated.node_images == {0: (0, 1), 1: (2, 3), 2: (4,)}
    top = max(e.eid for e in g.edges)
    for e in ig.edges:
        if e.eid > top:
            assert e.safe and e.cost == 0
        else:
            assert e.cost == g.edge(e.eid).cost


def test_inflation_without_safe_nodes_is_the_identity():
    g = double_path()
    reduced, inflated = reduce_by_inflation(NcFgcInstance(g, set(), 2))
    ig = reduced.graph
    assert ig.n == g.n
    assert inflated.node_images == {v: (v,) for v in range(g.n)}
    assert [(e.eid, e.u, e.v, e.cost, e.safe) for e in ig.edges] == [
        (e.eid, e.u, e.v, e.cost, e.safe) for e in g.edges
    ]


@given(multigraphs(max_nodes=5, max_extra=3), st.data())
def test_inflation_preserves_q_connectivity(g, data):
    safe = frozenset(data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n)))
    inst = NcFgcInstance(g, safe, 1)
    reduced, inflated = reduce_by_inflation(inst)
    caps = inst.node_caps()
    red_caps = reduced.node_caps()
    first = {v: images[0] for v, images in inflated.node_images.items()}
    for i in range(g.n):
        for j in range(i + 1, g.n):
            lam = rooted_q_flow(g, caps, i, j)
            image = rooted_q_flow(reduced.graph, red_caps, first[i], first[j])
            assert lam == image


def test_rooted_parallel_pair_buys_both_forward_arcs():
    g = MultiGraph.build(2, [
        (0, 1, Fraction(1), True),
        (0, 1, Fraction(2), True),
    ])
    res = solve_rooted_qconn(NcFgcInstance(g, {0, 1}, 2), 0)
    assert res.arcs == frozenset({0, 2})
    assert all(arc(g, a)[0] == 0 for a in res.arcs)
    assert res.cost == 3


def test_rooted_solver_checks_the_root_before_the_flows():
    # node 2 is cut off, so every root in range fails the pre-check; a root
    # out of range (-1 would index the last node's arcs) is refused first
    g = MultiGraph.build(3, [(0, 1, Fraction(1), True)])
    inst = NcFgcInstance(g, {0}, 1)
    for root in (9, 3, -1, True, 0.5):
        with pytest.raises(ValidationError, match="^root out of range$"):
            solve_rooted_qconn(inst, root)
    with pytest.raises(InfeasibleInstanceError) as info:
        solve_rooted_qconn(inst, 0)
    assert info.value.pair == (0, 2)


def test_rooted_solver_buys_nothing_when_nothing_is_asked():
    nothing = RootedSolveResult(frozenset(), Fraction(0))
    asks_zero = NcFgcInstance(double_path(), {0}, 0)
    assert solve_rooted_qconn(asks_zero, 0) == nothing
    lone = MultiGraph.build(1, [])
    assert solve_rooted_qconn(NcFgcInstance(lone, {0}, 2), 0) == nothing


def test_rooted_solver_matches_brute_force():
    rng = random.Random(1)
    cfg = GenConfig(nodes=(3, 4), extra_edges=(0, 2))
    for _ in range(20):
        g = random_multigraph(rng, cfg)
        safe = frozenset(
            v for v in range(g.n) if rng.random() < 0.5
        ) or frozenset({0})
        p = rng.choice([1, 2, 3])
        root = min(safe)
        inst = NcFgcInstance(g, safe, p)
        if not rooted_feasible(inst, root, all_arcs(g)):
            with pytest.raises(InfeasibleInstanceError):
                solve_rooted_qconn(inst, root)
            continue
        assert_rooted_optimal(inst, root)


@given(multigraphs(), st.data())
def test_rooted_infeasibility_names_the_first_short_sink(g, data):
    root = data.draw(st.integers(0, g.n - 1))
    safe = data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n))
    inst = NcFgcInstance(g, safe, data.draw(st.integers(1, 3)))
    p = inst.requirement
    caps = inst.node_caps()
    flows = {t: rooted_q_flow(g, caps, root, t) for t in range(g.n) if t != root}
    short = [t for t, flow in flows.items() if flow < p]
    assume(short)
    with pytest.raises(InfeasibleInstanceError) as info:
        solve_rooted_qconn(inst, root)
    t = short[0]
    assert info.value.pair == (root, t)
    assert str(info.value) == (
        f"the full arc set gives the root only {flows[t]} units toward {t}"
    )


def rooted_feasible(inst, root, arcs):
    p = inst.requirement
    caps = inst.node_caps()
    return all(
        rooted_q_flow(inst.graph, caps, root, t, arcs, cutoff=p) >= p
        for t in range(inst.graph.n)
        if t != root
    )


def assert_rooted_optimal(inst, root):
    """solve_rooted_qconn buys a feasible arc set of the brute-force optimum."""
    g = inst.graph
    res = solve_rooted_qconn(inst, root)
    costs = {aid: g.edge(aid >> 1).cost for aid in all_arcs(g)}
    opt = minimum_cost_subset(
        all_arcs(g), costs, lambda arcs: rooted_feasible(inst, root, arcs)
    )
    assert opt.feasible and res.cost == opt.cost
    assert res.arcs <= all_arcs(g) and rooted_feasible(inst, root, res.arcs)
    return res


def test_fractional_rooted_vertex_is_an_internal_error(monkeypatch, tmp_path, capsys):
    from flexconn import SolverError, ncfgc
    from flexconn.cli import EX_SOFTWARE, main
    from flexconn.lp import FractionalSolution

    def half_vertex(costs, oracle, *, max_rows):
        x = {aid: Fraction(1, 2) for aid in costs}
        return FractionalSolution(x, sum(costs.values()) / 2, ())

    monkeypatch.setattr(ncfgc, "solve_cut_lp", half_vertex)
    g = double_path()
    with pytest.raises(SolverError, match="fractional"):
        solve_rooted_qconn(NcFgcInstance(g, set(), 1), 1)
    instance = tmp_path / "double-path.instance"
    instance.write_text(
        "flexconn-instance v1\nkind ncfgc\nnodes 3\n"
        + "edge 0 1 1 safe\nedge 0 1 1 safe\nedge 1 2 1 safe\nedge 1 2 1 safe\n"
        + "safe-node 1\nrequirement 2\n"
    )
    capsys.readouterr()
    assert main(["solve", str(instance)]) == EX_SOFTWARE == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: rooted cut LP vertex is fractional")


def separate_rooted(inst, root, x):
    """`_separate_rooted` at x as `solve_cut_lp` hands it over, scaled to
    ints by `integral`."""
    return _separate_rooted(inst, root, *integral(x))


def reference_separate_rooted(inst, root, x):
    """Rooted separation on Fraction capacities with a new network per sink
    (the root, the sink and uncapped nodes on infinite node arcs): the most
    violated row, then each violated sink in-cut (the arcs with head t, rhs
    p) by decreasing violation and then sink, less one equal to the first
    row; or no row."""
    g = inst.graph
    caps = inst.node_caps()
    p = Fraction(inst.requirement)
    arcs = sorted(
        (aid, tail, head)
        for e in g.edges
        for aid, tail, head in ((2 * e.eid, e.u, e.v), (2 * e.eid + 1, e.v, e.u))
    )
    best = None
    for t in range(g.n):
        if t == root:
            continue
        net = Network(2 * g.n)
        for v in range(g.n):
            cap = caps[v]
            if cap is None or v in (root, t):
                cap = math.inf
            net.add_pair(2 * v, 2 * v + 1, cap, 0)
        for aid, tail, head in arcs:
            net.add_pair(2 * tail + 1, 2 * head, x.get(aid, Fraction(0)), 0)
        viol = p - net.max_flow(2 * root + 1, 2 * t)
        if viol <= 0:
            continue
        if best is None or viol > best[0]:
            side = net.reachable_from(2 * root + 1)
            crossing = frozenset(
                aid
                for aid, tail, head in arcs
                if 2 * tail + 1 in side and 2 * head not in side
            )
            node_cost = sum(
                caps[v] or 0
                for v in range(g.n)
                if 2 * v in side and 2 * v + 1 not in side
            )
            best = (viol, CutRow(crossing, p - node_cost))
    if best is None:
        return []
    in_cuts = sorted(
        (sum(x.get(aid, 0) for aid, _, head in arcs if head == t) - p, t)
        for t in range(g.n)
        if t != root
    )
    rows = [best[1]]
    for short, t in in_cuts:
        row = CutRow(frozenset(aid for aid, _, head in arcs if head == t), p)
        if short < 0 and row != rows[0]:
            rows.append(row)
    return rows


@pytest.mark.parametrize("style", ["float", "rational", "binary", "tie"])
def test_rooted_separation_matches_fraction_reference(style):
    rng = random.Random(f"rooted-separation/{style}")
    cfg = GenConfig(nodes=(3, 8), extra_edges=(0, 5))
    found = 0
    for k in range(60):
        if k % 4 == 0:  # a cycle, where sinks tie under uniform values
            n = rng.randint(3, 7)
            rows = [(v, (v + 1) % n, Fraction(1), True) for v in range(n)]
            g = MultiGraph.build(n, rows)
        else:
            g = random_multigraph(rng, cfg)
        p = rng.randint(1, 3)
        safe = {v for v in range(g.n) if rng.random() < 0.4} | {0}
        inst = NcFgcInstance(g, safe, p)
        root = rng.choice(sorted(safe))
        x = cut_lp_values(rng, style, sorted(all_arcs(g)))
        rows = separate_rooted(inst, root, x)
        assert rows == reference_separate_rooted(inst, root, x)
        if style == "float":
            # the cut LP scales its float stage's point from the floats
            assert separate_rooted(inst, root, {e: float(v) for e, v in x.items()}) == rows
        found += bool(rows)
    assert found >= 20


def test_rooted_separation_at_zero_gives_the_root_out_cut_then_every_in_cut():
    # at x = 0 every sink is p short; the first sink's min cut nearest the
    # root is the root's out-arcs, and every sink's in-cut is p short too
    for seed in range(6):
        inst = gen_ncfgc(seed)
        g, p = inst.graph, inst.requirement
        root = min(inst.safe_nodes)
        tails_heads = {aid: arc(g, aid)[:2] for aid in all_arcs(g)}
        out_cut = CutRow(frozenset(a for a, (u, _) in tails_heads.items() if u == root), Fraction(p))
        in_cuts = [
            CutRow(frozenset(a for a, (_, v) in tails_heads.items() if v == t), Fraction(p))
            for t in range(g.n)
            if t != root
        ]
        assert separate_rooted(inst, root, {}) == [out_cut, *in_cuts]
    # on two nodes the root's out-cut is the sink's in-cut, given once
    g = MultiGraph.build(2, [(0, 1, Fraction(1), True), (0, 1, Fraction(2), True)])
    assert separate_rooted(NcFgcInstance(g, {0}, 2), 0, {}) == [CutRow(frozenset({0, 2}), Fraction(2))]


def test_rooted_separation_keeps_the_smaller_of_two_tied_sinks():
    # edges 0-1, 0-2, 1-2; from root 0 the arcs into 1 and 2 carry 1 each,
    # so at p = 2 both sinks fall short by exactly one unit, with other cuts;
    # the second flow stops at the first's cutoff and must not take over
    g = MultiGraph.build(3, [
        (0, 1, Fraction(1), True),
        (0, 2, Fraction(1), True),
        (1, 2, Fraction(1), True),
    ])
    inst = NcFgcInstance(g, {0}, 2)
    x = {0: Fraction(1), 2: Fraction(1)}
    rows = separate_rooted(inst, 0, x)
    # sink 1's side holds the root's out half and both halves of node 2;
    # the in-cuts of sinks 1 and 2, each one unit short, follow in sink order
    assert rows == [
        CutRow(frozenset({0, 3, 5}), Fraction(2)),
        CutRow(frozenset({0, 5}), Fraction(2)),
        CutRow(frozenset({2, 4}), Fraction(2)),
    ]
    assert rows == reference_separate_rooted(inst, 0, x)
    # with arc 2 -> 1 open too, sink 1 is met and sink 2 gives its own cut;
    # sink 1's in-cut now holds, and sink 2's is still one unit short
    x = {**x, 5: Fraction(1)}
    rows = separate_rooted(inst, 0, x)
    assert rows == [
        CutRow(frozenset({1, 2, 4}), Fraction(2)),
        CutRow(frozenset({2, 4}), Fraction(2)),
    ]
    assert rows == reference_separate_rooted(inst, 0, x)


def test_solve_hand_cases():
    cycle = MultiGraph.build(4, [
        (0, 1, Fraction(1), True),
        (1, 2, Fraction(1), True),
        (2, 3, Fraction(1), True),
        (3, 0, Fraction(5), True),
    ])
    res = solve_p_ncfgc(NcFgcInstance(cycle, {0}, 1))
    assert res.edges == frozenset({0, 1, 2}) and res.cost == 3
    assert (res.root, res.bound) == (0, 2)

    res = solve_p_ncfgc(NcFgcInstance(cycle, {0}, 2))
    assert res.edges == cycle.edge_ids and res.cost == 8
    # both directions of the cheap corridor plus the single expensive hop
    assert res.rooted_cost == 10

    trivial = solve_p_ncfgc(NcFgcInstance(cycle, set(), 0))
    assert trivial.edges == frozenset() and trivial.root is None

    # with every node safe the problem is plain 2-edge-connectivity
    triangle = MultiGraph.build(3, [
        (0, 1, Fraction(1), True),
        (1, 2, Fraction(1), True),
        (0, 2, Fraction(1), True),
    ])
    res = solve_p_ncfgc(NcFgcInstance(triangle, {0, 1, 2}, 2))
    assert res.edges == triangle.edge_ids and res.cost == 3


def test_solve_requires_a_safe_root():
    g = double_path()
    with pytest.raises(UnsupportedInstanceError):
        solve_p_ncfgc(NcFgcInstance(g, set(), 1))


def test_solve_detects_infeasibility():
    g = MultiGraph.build(3, [
        (0, 1, Fraction(1), True),
        (1, 2, Fraction(1), True),
    ])
    inst = NcFgcInstance(g, {0}, 2)
    assert not verify_ncfgc(inst, g.edge_ids).ok
    with pytest.raises(InfeasibleInstanceError):
        solve_p_ncfgc(inst)


@settings(max_examples=15)
@given(multigraphs(max_nodes=4, max_extra=2), st.data())
def test_solved_instances_verify_and_respect_the_factor(g, data):
    safe = frozenset(data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n)))
    inst = NcFgcInstance(g, safe, data.draw(st.integers(1, 2)))
    try:
        res = solve_p_ncfgc(inst)
    except UnsupportedInstanceError:
        assert not safe
        return
    except InfeasibleInstanceError:
        assert not verify_ncfgc(inst, g.edge_ids, mode="qconn").ok
        return
    assert verify_ncfgc(inst, res.edges, mode="both").ok
    assert res.cost == g.cost(res.edges)
    opt = exact_opt(inst)
    assert opt.feasible and opt.cost <= res.cost <= 2 * opt.cost
    # doubling an optimal edge set is rooted-feasible, capping the arc cost
    assert res.rooted_cost <= 2 * opt.cost


def relabel(g, ids):
    """g with its edges renumbered to `ids`, in edge order."""
    return MultiGraph(
        g.n, [Edge(eid, e.u, e.v, e.cost, e.safe) for eid, e in zip(ids, g.edges)]
    )


def test_edge_ids_need_not_be_dense():
    g = relabel(MultiGraph.build(3, [
        (0, 1, Fraction(1), True),
        (1, 2, Fraction(2), True),
        (0, 2, Fraction(4), True),
    ]), [5, 9, 12])
    res = solve_p_ncfgc(NcFgcInstance(g, {0}, 1))
    assert res.edges == frozenset({5, 9}) and res.cost == 3
    rooted = assert_rooted_optimal(NcFgcInstance(g, set(), 1), 0)
    # 0 -> 1 on edge 5, then 1 -> 2 on edge 9
    assert rooted.arcs == frozenset({10, 18})

    rng = random.Random(12)
    cfg = GenConfig(nodes=(3, 4), extra_edges=(0, 2))
    solved = 0
    for _ in range(20):
        dense = random_multigraph(rng, cfg)
        ids = sorted(rng.sample(range(3, 60), dense.m))
        g = relabel(dense, ids)
        safe = frozenset(v for v in range(g.n) if rng.random() < 0.5) or {0}
        p = rng.choice([1, 2])
        try:
            res = solve_p_ncfgc(NcFgcInstance(g, safe, p))
        except InfeasibleInstanceError:
            continue
        solved += 1
        # the same solve as on ids 0..m-1, read through the new ids
        base = solve_p_ncfgc(NcFgcInstance(dense, safe, p))
        assert res.edges == {ids[eid] for eid in base.edges}
        assert res.cost == g.cost(res.edges) == base.cost
        opt = exact_opt(NcFgcInstance(g, safe, p))
        assert res.cost <= 2 * opt.cost
        assert_rooted_optimal(NcFgcInstance(g, safe, p), min(safe))
    assert solved >= 10
