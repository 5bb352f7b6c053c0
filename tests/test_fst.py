"""Two-stage solver for tree connectivity that survives one unsafe failure."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexconn import (
    FstInstance,
    InfeasibleInstanceError,
    MultiGraph,
    ValidationError,
    build_second_stage,
    solve_fst,
    steiner_tree_approx,
    steiner_tree_exact,
    verify_fst,
)
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
    # the safe tree edge 0 disappears into the contraction
    assert cg.n == 3
    assert stage2.node_map == {0: 0, 1: 0, 2: 1, 3: 2}
    assert stage2.terminals == frozenset({0, 1})
    assert frozenset(e.eid for e in cg.edges) == frozenset({1, 2, 3})
    # the unsafe tree edge rides along for free
    assert cg.edge(1).cost == 0 and not cg.edge(1).safe
    assert cg.edge(2).cost == 3 and cg.edge(3).cost == 3
    assert stage2.sndp is not None
    assert stage2.sndp.requirements == {(0, 1): 2}


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
