"""Reductions, verifiers and the end-to-end solver for (p, q) requirements."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexconn import (
    CapNdpInstance,
    FgcInstance,
    GuardExceededError,
    InfeasibleInstanceError,
    MultiGraph,
    UnknownEdgeError,
    UnsupportedInstanceError,
    ValidationError,
    WrongRegimeError,
    build_capndp_p1,
    build_capndp_q1,
    check_capacitated_cuts,
    check_cut_characterization,
    solve_capndp,
    solve_fgc,
    verify_fgc,
)
from flexconn import flows
from flexconn.fgc import CapacitatedFailure
from flexconn.flows import edge_connectivity, max_flow_min_cut
from flexconn.graphs import Cut
from flexconn.generators import GenConfig, gen_fgc
from flexconn.instance_io import InstanceDoc, render_instance
from flexconn.oracle import exact_opt

from strategies import edge_subsets, multigraphs, node_pairs


def mixed_triangle():
    return MultiGraph.build(3, [
        (0, 1, Fraction(1), True),
        (1, 2, Fraction(2), False),
        (0, 2, Fraction(3), True),
    ])


def unsafe_path():
    return MultiGraph.build(3, [
        (0, 1, Fraction(1), False),
        (1, 2, Fraction(1), False),
    ])


def test_pair_normalization_and_validation():
    g = mixed_triangle()
    inst = FgcInstance(g, {(2, 0): (1, 1)})
    assert inst.pairs == {(0, 2): (1, 1)}
    inst = FgcInstance(g, {(0, 2): (1, 1), (2, 0): (1, 1)})
    assert inst.pairs == {(0, 2): (1, 1)}
    with pytest.raises(ValidationError):
        FgcInstance(g, {(0, 3): (1, 1)})
    with pytest.raises(ValidationError):
        FgcInstance(g, {(1, 1): (1, 1)})
    with pytest.raises(ValidationError):
        FgcInstance(g, {(0, 1): (-1, 1)})
    with pytest.raises(ValidationError):
        FgcInstance(g, {(0, 1): (1, -1)})
    with pytest.raises(ValidationError):
        FgcInstance(g, {(0, 1): (1, 1), (1, 0): (2, 1)})


def test_pair_order_is_fixed_at_construction():
    # verify_fgc's first failing pair and render_instance's pair lines both
    # read the order construction gives, whatever order the caller used
    cfg = GenConfig(nodes=(5, 5), extra_edges=(3, 4), pairs=(5, 6), max_p=2, max_q=2)
    base = gen_fgc(3, regime="any", cfg=cfg, ensure_feasible=False)
    spare = next(pair for pair in itertools.combinations(range(5), 2) if pair not in base.pairs)
    items = [*base.pairs.items(), (spare, (0, 2))]
    rng = random.Random(7)
    built = []
    for _ in range(4):
        rng.shuffle(items)
        written = {
            ((j, i) if t % 2 else (i, j)): pq for t, ((i, j), pq) in enumerate(items)
        }
        built.append(FgcInstance(base.graph, written))
    texts = {render_instance(InstanceDoc(inst)) for inst in built}
    assert len(texts) == 1
    ids = sorted(base.graph.edge_ids)
    failing = 0
    for inst in built:
        assert list(inst.pairs) == sorted(inst.pairs) == sorted(dict(items))
    for size in range(len(ids) + 1):
        for subset in itertools.combinations(ids, size):
            verdicts = {verify_fgc(inst, subset) for inst in built}
            assert len(verdicts) == 1, subset
            failing += not verdicts.pop().ok
    assert failing > 0


def test_uniform_covers_every_pair():
    inst = FgcInstance.uniform(mixed_triangle(), 2, 1)
    assert set(inst.pairs) == {(0, 1), (0, 2), (1, 2)}
    assert set(inst.pairs.values()) == {(2, 1)}


def test_q1_reduction_capacities_and_demands():
    g = mixed_triangle()
    inst = FgcInstance(g, {(0, 1): (2, 1), (0, 2): (1, 1), (1, 2): (0, 5)})
    red = build_capndp_q1(inst)
    # safe edges carry max_p + 1, unsafe ones max_p
    assert red.capacities == {0: 3, 1: 2, 2: 3}
    # p = 0 pairs drop out, the rest ask for (max_p + q_ij) * p_ij
    assert red.demands == {(0, 1): 6, (0, 2): 3}

    # q = 0 pairs stay in this regime with the failure allowance struck out
    zero = build_capndp_q1(FgcInstance(g, {(0, 1): (2, 1), (0, 2): (2, 0)}))
    assert zero.capacities == {0: 3, 1: 2, 2: 3}
    assert zero.demands == {(0, 1): 6, (0, 2): 4}


def test_p1_reduction_capacities_and_demands():
    g = mixed_triangle()
    inst = FgcInstance(g, {(0, 1): (1, 2), (0, 2): (1, 1)})
    red = build_capndp_p1(inst)
    assert red.capacities == {0: 3, 1: 1, 2: 3}
    assert red.demands == {(0, 1): 3, (0, 2): 2}


def test_wrong_regime_is_rejected():
    g = mixed_triangle()
    with pytest.raises(WrongRegimeError):
        build_capndp_q1(FgcInstance(g, {(0, 1): (1, 2)}))
    with pytest.raises(WrongRegimeError):
        build_capndp_p1(FgcInstance(g, {(0, 1): (2, 1)}))


def test_capndp_validation():
    g = mixed_triangle()
    with pytest.raises(ValidationError):
        CapNdpInstance(g, {0: 1, 1: 1}, {})            # capacity missing
    with pytest.raises(ValidationError):
        CapNdpInstance(g, {0: 1, 1: 1, 2: True}, {})   # bool is not a count
    with pytest.raises(ValidationError):
        CapNdpInstance(g, {0: 1, 1: 1, 2: 1}, {(0, 0): 1})
    with pytest.raises(ValidationError):
        CapNdpInstance(g, {0: 1, 1: 1, 2: 1}, {(0, 1): -2})
    with pytest.raises(UnknownEdgeError):
        CapNdpInstance(g, {0: 1, 1: 1, 2: 1, 7: 1}, {})
    assert CapNdpInstance(g, {0: 1, 1: 1, 2: 1}, {(2, 0): 1}).demands == {(0, 2): 1}


def test_capacitated_check_reports_flow_shortfall():
    g = MultiGraph.build(2, [
        (0, 1, Fraction(1), True),
        (0, 1, Fraction(5), True),
    ])
    inst = CapNdpInstance(g, {0: 2, 1: 1}, {(0, 1): 3})
    assert check_capacitated_cuts(inst, {0, 1}).ok
    report = check_capacitated_cuts(inst, {0})
    assert not report.ok
    assert report.violation == report.violation.__class__((0, 1), 2, 3)


def test_capacitated_check_ignores_zero_demands():
    inst = CapNdpInstance(mixed_triangle(), {0: 1, 1: 1, 2: 1}, {(0, 1): 0, (0, 2): 1})
    assert check_capacitated_cuts(inst, set()).violation == CapacitatedFailure((0, 2), 0, 1)
    assert check_capacitated_cuts(inst, {2}).ok


@pytest.mark.parametrize("p", [3, 2000])
def test_capacities_decide_infeasibility_before_splitting(monkeypatch, p):
    """The q1 reduction gives the triangle capacities p + 1, p and p + 1 and
    the pair demand (p + 1) p; the refusal runs on those three edges, not on
    their 3p + 2 unit copies, and its cut names them."""
    g = mixed_triangle()
    built = 0
    add_pair = flows.Network.add_pair

    def counted(self, *args):
        nonlocal built
        built += 1
        return add_pair(self, *args)

    monkeypatch.setattr(flows.Network, "add_pair", counted)
    with pytest.raises(InfeasibleInstanceError) as err:
        solve_fgc(FgcInstance(g, {(0, 2): (p, 1)}))
    assert built < 50
    exc = err.value
    assert str(exc) == (
        f"pair (0, 2) needs {(p + 1) * p} edge-disjoint paths but the graph "
        f"admits only {2 * p + 1}"
    )
    assert exc.pair == (0, 2)
    assert exc.cut.boundary <= g.edge_ids
    assert exc.cut == Cut(frozenset({0, 1}), frozenset({1, 2}))


def test_capndp_refusal_names_the_max_flow_min_cut():
    """Each refusal names the first short demand in sorted order, its max
    flow and the min cut `max_flow_min_cut` finds on the capacities, with the
    capacities in either order and after the cached network was narrowed."""
    cfg = GenConfig(nodes=(3, 7), extra_edges=(0, 4), pairs=(1, 4))
    refused = {"q1": 0, "p1": 0}
    for seed in range(80):
        for regime, reduce in (("q1", build_capndp_q1), ("p1", build_capndp_p1)):
            inst = reduce(gen_fgc(seed, regime=regime, cfg=cfg, ensure_feasible=False))
            g = inst.graph
            expected = None
            for (i, j), demand in sorted(inst.demands.items()):
                value, cut = max_flow_min_cut(g, inst.capacities, i, j)
                if value < demand:
                    expected = (i, j), demand, value, cut
                    break
            if expected is None:
                continue
            (i, j), demand, value, cut = expected
            flipped = CapNdpInstance(g, dict(reversed(inst.capacities.items())), inst.demands)
            for case in (inst, flipped):
                check_capacitated_cuts(case, ())
                with pytest.raises(InfeasibleInstanceError) as err:
                    solve_capndp(case)
                assert str(err.value) == (
                    f"pair ({i}, {j}) needs {demand} edge-disjoint paths but "
                    f"the graph admits only {value}"
                )
                assert err.value.pair == (i, j)
                assert err.value.cut == cut
            refused[regime] += 1
    assert min(refused.values()) >= 20


def test_zero_capacity_edges_are_never_bought():
    # the cheapest edge carries nothing; the path around it is the optimum
    g = MultiGraph.build(3, [(0, 1, 2, True), (1, 2, 2, True), (0, 2, 1, True)])
    inst = CapNdpInstance(g, {0: 1, 1: 1, 2: 0}, {(0, 2): 1})
    res = solve_capndp(inst)
    assert 2 not in res.edges
    assert res.cost == exact_opt(inst).cost == 4


def test_solve_capndp_prefers_cheap_capacity():
    g = MultiGraph.build(2, [
        (0, 1, Fraction(1), True),
        (0, 1, Fraction(5), True),
    ])
    inst = CapNdpInstance(g, {0: 2, 1: 2}, {(0, 1): 2})
    res = solve_capndp(inst)
    assert res.edges == frozenset({0})
    assert res.cost == 1
    # both unit copies of the cheap edge are bought in the split graph
    assert res.lp_objective == 2


def test_verify_fgc_hand_cases():
    g = unsafe_path()
    ok = verify_fgc(FgcInstance(g, {(0, 2): (1, 1)}), g.edge_ids)
    assert not ok.ok
    v = ok.violation
    assert v.pair == (0, 2) and len(v.removed) == 1 and v.connectivity == 0

    safe_path = MultiGraph.build(3, [
        (0, 1, Fraction(1), True),
        (1, 2, Fraction(1), True),
    ])
    assert verify_fgc(FgcInstance(safe_path, {(0, 2): (1, 1)}), {0, 1}).ok

    under = verify_fgc(FgcInstance(g, {(0, 2): (2, 1)}), g.edge_ids)
    assert under.violation == under.violation.__class__(
        (0, 2), frozenset(), 1
    )

    tri = FgcInstance.uniform(
        MultiGraph.build(3, [
            (0, 1, Fraction(1), True),
            (1, 2, Fraction(1), True),
            (0, 2, Fraction(1), True),
        ]),
        1, 1,
    )
    assert verify_fgc(tri, tri.graph.edge_ids).ok


def _first_failure(inst, chosen):
    """(pair, removed) of the first pair some failure set breaks and its
    smallest failing set by (size, sorted ids), by trying every set of at
    most q_ij unsafe edges of F; None when F is feasible."""
    g = inst.graph
    chosen = frozenset(chosen)
    unsafe = sorted(eid for eid in chosen if not g.edge(eid).safe)
    for (i, j), p, q in inst.active_pairs():
        for size in range(min(q, len(unsafe)) + 1):
            for combo in itertools.combinations(unsafe, size):
                if edge_connectivity(g, i, j, chosen.difference(combo)) < p:
                    return (i, j), frozenset(combo)
    return None


def test_verify_fgc_matches_full_enumeration():
    # few nodes and many extra edges: parallel edges are common
    cfg = GenConfig(nodes=(3, 6), extra_edges=(3, 9), pairs=(1, 3))
    rng = random.Random(16)
    checked = failures = 0
    for seed in range(60):
        for regime in ("any", "q1", "p1"):
            inst = gen_fgc(seed, regime=regime, cfg=cfg, ensure_feasible=False)
            ids = sorted(inst.graph.edge_ids)
            subsets = [frozenset(e for e in ids if rng.random() < share)
                       for share in (0.5, 0.7, 0.9)]
            if verify_fgc(inst, ids).ok and regime != "any":
                # a solver output and every set one edge short of it
                edges = solve_fgc(inst).edges
                subsets += [edges] + [edges - {eid} for eid in edges]
            for chosen in subsets:
                verdict = verify_fgc(inst, chosen)
                expected = _first_failure(inst, chosen)
                assert verdict.ok == (expected is None)
                checked += 1
                if expected is None:
                    continue
                failures += 1
                v = verdict.violation
                assert (v.pair, v.removed) == expected
                (i, j), removed = expected
                p = inst.pairs[(i, j)][0]
                rest = chosen - removed
                assert v.connectivity == edge_connectivity(inst.graph, i, j, rest) < p
    assert failures > 100 and checked - failures > 100


def test_verify_fgc_guard(monkeypatch):
    # three unsafe parallel edges, (p, q) = (3, 2): the search tries the
    # empty set, then the three single edges, 4 sets before its answer
    monkeypatch.setattr(flows, "FAILURE_SET_GUARD", 3)
    g = MultiGraph.build(2, [(0, 1, Fraction(1), False) for _ in range(3)])
    inst = FgcInstance(g, {(0, 1): (3, 2)})
    with pytest.raises(
        GuardExceededError,
        match=r"^pair \(0, 1\) needs up to 4 failure sets, guard is 3$",
    ):
        verify_fgc(inst, g.edge_ids)
    monkeypatch.setattr(flows, "FAILURE_SET_GUARD", 4)
    v = verify_fgc(inst, g.edge_ids).violation
    assert (v.pair, v.removed, v.connectivity) == ((0, 1), frozenset({0}), 2)
    # the guard counts the sets the search tries, not the sets that could
    # fail: one safe edge carries the pair's flow and none of the 35 unsafe
    # edges touches it, so the empty set settles the pair
    g = MultiGraph.build(4, [(0, 1, Fraction(1), True)] + [
        (2, 3, Fraction(1), False) for _ in range(35)
    ])
    monkeypatch.setattr(flows, "FAILURE_SET_GUARD", 1)
    assert verify_fgc(FgcInstance(g, {(0, 1): (1, 6)}), g.edge_ids).ok


def test_cut_characterization_hand_case_and_guard():
    g = unsafe_path()
    inst = FgcInstance(g, {(0, 2): (1, 1)})
    report = check_cut_characterization(inst, g.edge_ids)
    assert not report.ok
    v = report.violation
    assert v.side == frozenset({2})
    assert (v.safe_crossing, v.total_crossing) == (0, 1)
    path = MultiGraph.build(21, [(v, v + 1, Fraction(1), False) for v in range(20)])
    with pytest.raises(GuardExceededError, match="^21 nodes, cut guard is 20$"):
        check_cut_characterization(FgcInstance(path, {(0, 20): (1, 1)}), path.edge_ids)


@given(multigraphs(max_nodes=5, max_extra=3), st.data())
def test_cut_characterization_agrees_with_definition(g, data):
    pairs = {}
    for _ in range(data.draw(st.integers(1, 2))):
        pair = data.draw(node_pairs(g.n))
        pairs[pair] = (data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2)))
    inst = FgcInstance(g, pairs)
    chosen = data.draw(edge_subsets(g))
    by_definition = verify_fgc(inst, chosen).ok
    by_cuts = check_cut_characterization(inst, chosen).ok
    assert by_definition == by_cuts


@given(multigraphs(max_nodes=5, max_extra=3), st.data())
def test_q1_reduction_verdict_matches_definition(g, data):
    pairs = {}
    for _ in range(data.draw(st.integers(1, 2))):
        pair = data.draw(node_pairs(g.n))
        pairs[pair] = (data.draw(st.integers(0, 2)), data.draw(st.integers(0, 1)))
    inst = FgcInstance(g, pairs)
    chosen = data.draw(edge_subsets(g))
    red = build_capndp_q1(inst)
    assert verify_fgc(inst, chosen).ok == check_capacitated_cuts(red, chosen).ok


@given(multigraphs(max_nodes=5, max_extra=3), st.data())
def test_feasibility_is_monotone_under_supersets(g, data):
    pair = data.draw(node_pairs(g.n))
    req = (data.draw(st.integers(1, 2)), data.draw(st.integers(0, 2)))
    inst = FgcInstance(g, {pair: req})
    chosen = data.draw(edge_subsets(g))
    if not verify_fgc(inst, chosen).ok:
        return
    grown = frozenset(chosen) | frozenset(data.draw(edge_subsets(g)))
    assert verify_fgc(inst, grown).ok


def test_solve_dispatch_and_bounds():
    g = MultiGraph.build(3, [
        (0, 1, Fraction(1), True),
        (1, 2, Fraction(2), False),
        (0, 2, Fraction(3), True),
        (0, 2, Fraction(4), True),
    ])
    res = solve_fgc(FgcInstance(g, {(0, 2): (2, 1)}))
    assert (res.regime, res.bound) == ("q1", 6)
    res = solve_fgc(FgcInstance(g, {(0, 2): (1, 2)}))
    assert (res.regime, res.bound) == ("p1", 6)
    # a tie lands on the q = 1 route
    res = solve_fgc(FgcInstance(g, {(0, 2): (1, 1)}))
    assert (res.regime, res.bound) == ("q1", 4)
    # q = 0 pairs fit the first regime; with p = 1 too the p = 1 factor wins
    res = solve_fgc(FgcInstance(g, {(0, 2): (2, 0)}))
    assert (res.regime, res.bound) == ("q1", 6)
    res = solve_fgc(FgcInstance(g, {(0, 2): (1, 0)}))
    assert (res.regime, res.bound) == ("p1", 2)
    with pytest.raises(UnsupportedInstanceError):
        solve_fgc(FgcInstance(g, {(0, 1): (2, 2)}))


@settings(max_examples=25)
@given(multigraphs(max_nodes=5, max_extra=3), st.data())
def test_solved_instances_verify_and_respect_the_factor(g, data):
    pair = data.draw(node_pairs(g.n))
    if data.draw(st.booleans()):
        req = (data.draw(st.integers(1, 2)), data.draw(st.integers(0, 1)))
    else:
        req = (1, data.draw(st.integers(1, 2)))
    inst = FgcInstance(g, {pair: req})
    if not verify_fgc(inst, g.edge_ids).ok:
        return
    res = solve_fgc(inst)
    assert verify_fgc(inst, res.edges).ok
    assert res.cost == g.cost(res.edges)
    opt = exact_opt(inst)
    assert opt.feasible and opt.cost <= res.cost <= res.bound * opt.cost
