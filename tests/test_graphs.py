"""Multigraph container, labelled edges, and the graph surgeries."""

import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flexconn import (
    CapNdpInstance,
    FgcInstance,
    FstInstance,
    MultiGraph,
    NcFgcInstance,
    SndpInstance,
    UnknownEdgeError,
    ValidationError,
    contract_edges,
    inflate_safe_nodes,
    solve_rooted_qconn,
    split_parallel,
    steiner_tree_approx,
    steiner_tree_exact,
)
from flexconn import graphs
from flexconn.graphs import Edge, as_cost
from flexconn.ncfgc import arc

from strategies import edge_subsets, multigraphs


def square():
    return MultiGraph.build(4, [
        (0, 1, Fraction(1), True),
        (1, 2, Fraction(2), False),
        (2, 3, Fraction(3), True),
        (3, 0, Fraction(4), False),
        (0, 2, Fraction(5), True),
    ])


def test_build_assigns_ids_in_order():
    g = square()
    assert g.n == 4 and g.m == 5
    assert g.edge_ids == frozenset({0, 1, 2, 3, 4})
    assert [e.eid for e in g.edges] == [0, 1, 2, 3, 4]
    e = g.edge(1)
    assert (e.u, e.v, e.cost, e.safe) == (1, 2, Fraction(2), False)


def test_as_cost_accepts_exact_forms():
    assert as_cost(3) == Fraction(3)
    assert as_cost("7/2") == Fraction(7, 2)
    assert as_cost(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(ValidationError):
        as_cost(-1)
    with pytest.raises(ValidationError):
        as_cost("spam")


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"), "spam", None, True, False])
@pytest.mark.parametrize("make", [
    lambda cost: MultiGraph.build(2, [(0, 1, cost, True)]),
    lambda cost: MultiGraph(2, [Edge(0, 0, 1, cost, True)]),
    lambda cost: MultiGraph.build(2, [(0, 1, 1, True)]).with_costs({0: cost}),
])
def test_costs_must_be_finite(value, make):
    with pytest.raises(ValidationError, match=f"^bad cost {re.escape(repr(value))}$"):
        make(value)


def test_each_cost_is_converted_once(monkeypatch):
    calls = []
    monkeypatch.setattr(graphs, "as_cost", lambda value: calls.append(value) or as_cost(value))
    g = MultiGraph.build(3, [(0, 1, "1/2", True), (1, 2, 2, False)])
    assert calls == ["1/2", 2]
    assert [e.cost for e in g.edges] == [Fraction(1, 2), Fraction(2)]
    assert all(type(e.cost) is Fraction for e in g.edges)
    # a Fraction cost is held as it is, so a graph on the same edges reuses them
    assert all(a is b for a, b in zip(MultiGraph(3, g.edges).edges, g.edges))


def triangle():
    return MultiGraph.build(3, [
        (0, 1, Fraction(1), True),
        (1, 2, Fraction(1), False),
        (0, 2, Fraction(1), True),
    ])


UNIT_CAPS = {0: 1, 1: 1, 2: 1}


@pytest.mark.parametrize("build, named", [
    (lambda g: SndpInstance(g, {(0, 1): Fraction(3, 2)}), r"pair \(0, 1\)"),
    (lambda g: SndpInstance(g, {(1, 2): True}), r"pair \(1, 2\)"),
    (lambda g: SndpInstance(g, {(0, 2): -1}), r"pair \(0, 2\)"),
    (lambda g: FgcInstance(g, {(0, 1): (Fraction(3, 2), 1)}), r"p for pair \(0, 1\)"),
    (lambda g: FgcInstance(g, {(0, 1): (1, Fraction(1, 2))}), r"q for pair \(0, 1\)"),
    (lambda g: FgcInstance(g, {(1, 2): (1, False)}), r"q for pair \(1, 2\)"),
    (lambda g: NcFgcInstance(g, {0}, 1.5), "requirement"),
    (lambda g: NcFgcInstance(g, {0}, True), "requirement"),
    (lambda g: NcFgcInstance(g, {0}, Fraction(1, 2)), "requirement"),
    (lambda g: NcFgcInstance(g, {0}, -1), "requirement"),
    (lambda g: CapNdpInstance(g, UNIT_CAPS, {(0, 1): 0.5}), r"demand for pair \(0, 1\)"),
    (lambda g: CapNdpInstance(g, {**UNIT_CAPS, 2: True}, {}), "capacity of edge 2"),
    (lambda g: CapNdpInstance(g, {**UNIT_CAPS, 1: -1}, {}), "capacity of edge 1"),
])
def test_counts_must_be_integers(build, named):
    """Requirements, demands and capacities are ints >= 0: a fraction, a bool
    or a negative value is refused when the instance is built."""
    with pytest.raises(ValidationError, match=f"{named} must be an integer >= 0"):
        build(triangle())


@pytest.mark.parametrize("build, text", [
    # ints out of range
    (lambda g: MultiGraph.build(3, [(0, 3, 1, True)]), "edge 0 endpoint out of range"),
    (lambda g: SndpInstance(g, {(0, 3): 1}), "pair (0, 3) out of range"),
    (lambda g: FgcInstance(g, {(-1, 2): (1, 0)}), "pair (-1, 2) out of range"),
    (lambda g: NcFgcInstance(g, {3}, 1), "safe node 3 out of range"),
    (lambda g: inflate_safe_nodes(g, {3}), "safe node 3 out of range"),
    (lambda g: FstInstance(g, {0, 4}), "terminal 4 out of range"),
    (lambda g: steiner_tree_approx(g, [0, 4]), "terminal 4 out of range"),
    (lambda g: solve_rooted_qconn(NcFgcInstance(g, {0}, 1), 3), "root out of range"),
    (lambda g: solve_rooted_qconn(NcFgcInstance(g, {0}, 1), -1), "root out of range"),
    # a non-int or a bool is no node id
    (lambda g: MultiGraph.build(3, [(0, 0.5, 1, True)]), "edge 0 endpoint out of range"),
    (lambda g: MultiGraph.build(3, [(True, 2, 1, True)]), "edge 0 endpoint out of range"),
    (lambda g: FgcInstance(g, {(0, 0.5): (1, 0)}), "pair (0, 0.5) out of range"),
    (lambda g: SndpInstance(g, {(True, 2): 1}), "pair (True, 2) out of range"),
    (lambda g: NcFgcInstance(g, {0.5}, 1), "safe node 0.5 out of range"),
    (lambda g: inflate_safe_nodes(g, {1.5}), "safe node 1.5 out of range"),
    (lambda g: FstInstance(g, {True, 2}), "terminal True out of range"),
    (lambda g: steiner_tree_approx(g, [0, "a"]), "terminal a out of range"),
    (lambda g: steiner_tree_exact(g, [0, "a"]), "terminal a out of range"),
    (lambda g: solve_rooted_qconn(NcFgcInstance(g, {0}, 1), 0.5), "root out of range"),
    (lambda g: solve_rooted_qconn(NcFgcInstance(g, {0}, 1), True), "root out of range"),
])
def test_node_ids_are_ints_in_range(build, text):
    """Every node id an instance or a solver call names is an int in
    0..n-1, checked by `check_node` when the instance is built or the call
    is made."""
    with pytest.raises(ValidationError, match=f"^{re.escape(text)}$"):
        build(triangle())


@pytest.mark.parametrize("n, eid, text", [
    (2.5, 0, "node count must be an integer >= 0, got 2.5"),
    (True, 0, "node count must be an integer >= 0, got True"),
    (-1, 0, "node count must be an integer >= 0, got -1"),
    (2, 0.5, "edge id 0.5 is not an integer"),
    (2, True, "edge id True is not an integer"),
    (2, "0", "edge id '0' is not an integer"),
])
def test_multigraph_checks_node_count_and_edge_ids(n, eid, text):
    """The node count is a count, and an edge id an int that is no bool."""
    edges = [Edge(eid, 0, 1, Fraction(1), True)] if n == 2 else []
    with pytest.raises(ValidationError, match=f"^{re.escape(text)}$"):
        MultiGraph(n, edges)


@pytest.mark.parametrize("safe", ["no", "unsafe", 1, 0, None])
def test_multigraph_checks_safe_labels(safe):
    """A safe label is a bool: a truthy string or int would be read as safe,
    whether the edge comes whole or as a `build` row."""
    text = f"edge 0 safe label {safe!r} is not a bool"
    with pytest.raises(ValidationError, match=f"^{re.escape(text)}$"):
        MultiGraph(2, [Edge(0, 0, 1, Fraction(1), safe)])
    with pytest.raises(ValidationError, match=f"^{re.escape(text)}$"):
        MultiGraph.build(2, [(0, 1, 1, safe)])


def test_boundary_is_the_edges_with_one_end_in_the_side():
    g = square()
    assert g.boundary({0}) == {0, 3, 4}
    assert g.boundary({0, 1}) == {1, 3, 4}
    assert g.boundary(set()) == g.boundary(range(4)) == frozenset()


def test_build_rejects_bad_rows():
    with pytest.raises(ValidationError):
        MultiGraph.build(3, [(0, 0, 1, True)])
    with pytest.raises(ValidationError):
        MultiGraph.build(3, [(0, 5, 1, True)])
    with pytest.raises(ValidationError):
        MultiGraph.build(3, [(0, 1, -2, True)])
    with pytest.raises(ValidationError):
        MultiGraph(2, [Edge(0, 0, 1, Fraction(1), True),
                       Edge(0, 1, 0, Fraction(1), True)])


def test_edge_lookup_and_incidence():
    g = square()
    with pytest.raises(UnknownEdgeError):
        g.edge(99)
    assert not g.has_edge(99)
    assert [e.eid for e in g.incident(0)] == [0, 3, 4]
    assert g.degree(0) == 3
    assert g.edge(0).other(0) == 1


def test_cost_and_label_selectors():
    g = square()
    assert g.cost() == Fraction(15)
    assert g.cost([0, 2]) == Fraction(4)


def test_with_costs_overrides_only_named_edges():
    g = square()
    h = g.with_costs({1: Fraction(0)})
    assert h.edge(1).cost == 0 and h.edge(2).cost == Fraction(3)
    assert g.edge(1).cost == Fraction(2)
    with pytest.raises(UnknownEdgeError):
        g.with_costs({42: Fraction(1)})


def test_components_and_connects():
    g = square()
    assert g.components() == [frozenset({0, 1, 2, 3})]
    assert g.components([0]) == [
        frozenset({0, 1}), frozenset({2}), frozenset({3})
    ]
    assert g.connects({0, 2}, [0, 1])
    assert not g.connects({0, 2}, [0])
    assert g.connects({1}, [])


@given(st.data())
def test_components_are_listed_by_smallest_node(data):
    g = data.draw(multigraphs(max_nodes=9, max_extra=6))
    comps = g.components(data.draw(edge_subsets(g)))
    smallest = [min(c) for c in comps]
    assert smallest == sorted(set(smallest))
    assert sorted(v for c in comps for v in c) == list(range(g.n))


def test_contract_keeps_edge_ids_and_drops_loops():
    g = square()
    res = contract_edges(g, [0])
    assert res.graph.n == 3
    assert res.node_map[0] == res.node_map[1]
    assert set(res.graph.edge_ids) == {1, 2, 3, 4}
    # contracting a cycle turns the chord into a loop, which disappears
    res = contract_edges(g, [0, 1, 4])
    assert set(res.graph.edge_ids) == {2, 3}


@given(multigraphs())
def test_contract_merges_exactly_the_touched_components(g):
    some = [eid for eid in g.edge_ids if eid % 2 == 0]
    res = contract_edges(g, some)
    comps = {min(c): c for c in g.components(some)}
    for comp in comps.values():
        images = {res.node_map[v] for v in comp}
        assert len(images) == 1
    assert res.graph.n == len(comps)


def test_split_parallel_copies_and_copy_map():
    g = square()
    res = split_parallel(g, {0: 2, 1: 1, 2: 3, 3: 1, 4: 1})
    assert res.graph.m == 8
    back = sorted(res.copy_map.items())
    assert [orig for _, orig in back] == [0, 0, 1, 2, 2, 2, 3, 4]
    for sid, orig in res.copy_map.items():
        a, b = res.graph.edge(sid), g.edge(orig)
        assert (a.u, a.v, a.cost, a.safe) == (b.u, b.v, b.cost, b.safe)
    # an edge of multiplicity 0 gets no copy, and later copy ids close up
    res = split_parallel(g, {0: 2, 1: 0, 2: 3, 3: 0, 4: 1})
    assert sorted(res.copy_map.items()) == [(0, 0), (1, 0), (2, 2), (3, 2), (4, 2), (5, 4)]
    assert res.graph.edge_ids == frozenset(range(6))
    assert split_parallel(g, {eid: 0 for eid in g.edge_ids}).graph.m == 0
    with pytest.raises(ValidationError, match="multiplicity -1 for edge 1 must be >= 0"):
        split_parallel(g, {0: 1, 1: -1, 2: 1, 3: 1, 4: 1})
    with pytest.raises(ValidationError):
        split_parallel(g, {0: 1})


def test_inflate_safe_nodes_builds_cliques():
    g = square()
    res = inflate_safe_nodes(g, {0})   # degree 3 becomes a triangle
    assert res.graph.n == 4 - 1 + 3
    gadget = [eid for eid in res.graph.edge_ids if eid >= g.m]
    assert len(gadget) == 3
    for eid in gadget:
        e = res.graph.edge(eid)
        assert e.cost == 0 and e.safe
    assert len(res.node_images[0]) == 3
    assert all(len(res.node_images[v]) == 1 for v in (1, 2, 3))
    # each original edge at 0 attaches to its own gadget node
    ends = [res.graph.edge(eid) for eid in (0, 3, 4)]
    mine = {a for e in ends for a in (e.u, e.v) if a in set(res.node_images[0])}
    assert len(mine) == 3


def test_inflate_handles_isolated_safe_node():
    g = MultiGraph.build(3, [(1, 2, Fraction(1), True)])
    res = inflate_safe_nodes(g, {0})
    assert len(res.node_images[0]) == 1
    assert res.graph.m == 1


@given(multigraphs())
def test_inflate_edge_count(g):
    safe = {v for v in range(g.n) if v % 2 == 0}
    res = inflate_safe_nodes(g, safe)
    expect = g.m
    for v in safe:
        d = max(1, g.degree(v))
        expect += d * (d - 1) // 2
    assert res.graph.m == expect


def test_arcs_direct_each_edge_both_ways():
    g = square()
    for e in g.edges:
        assert arc(g, 2 * e.eid) == (e.u, e.v, e.cost)
        assert arc(g, 2 * e.eid + 1) == (e.v, e.u, e.cost)
    with pytest.raises(UnknownEdgeError):
        arc(g, 2 * g.m)


@given(multigraphs())
def test_graph_equality_is_structural(g):
    same = MultiGraph(g.n, list(g.edges))
    assert g == same
    h = g.with_costs({0: g.edge(0).cost + 1})
    assert g != h
