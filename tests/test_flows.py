"""Exact max flow, min cuts, and edge connectivity."""

from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flexconn import (
    GuardExceededError,
    InvalidQueryError,
    MultiGraph,
    Network,
    UnknownEdgeError,
    edge_connectivity,
    max_flow_min_cut,
    q_connectivity,
    rooted_q_flow,
)

from flexconn import flows as flow_module
from flexconn.flows import integral, smallest_failing_set, undirected_network, unit_network
from flexconn.ncfgc import _both_arcs, _split_network

from strategies import multigraphs, node_pairs


def test_network_basic_flow():
    net = Network(4)
    net.add_pair(0, 1, 3, 0)
    net.add_pair(0, 2, 2, 0)
    net.add_pair(1, 3, 2, 0)
    net.add_pair(2, 3, 3, 0)
    net.add_pair(1, 2, 1, 0)
    assert net.max_flow(0, 3) == 5


def test_network_exact_fractions():
    net = Network(3)
    net.add_pair(0, 1, Fraction(1, 3), 0)
    net.add_pair(1, 2, Fraction(1, 2), 0)
    value = net.max_flow(0, 2)
    assert value == Fraction(1, 3)


def test_integral_scales_by_the_common_denominator():
    assert integral({}) == (1, {})
    assert integral({0: 3, 1: 0, 2: 1}) == (1, {0: 3, 1: 0, 2: 1})
    mixed = {"a": Fraction(1, 4), "b": Fraction(5, 6), "c": 2}
    assert integral(mixed) == (12, {"a": 3, "b": 10, "c": 24})
    near_one = Fraction(1 - 2**-53)
    assert near_one != 1
    assert integral({0: near_one, 1: 1}) == (2**53, {0: 2**53 - 1, 1: 2**53})


def test_network_cutoff_stops_early():
    net = Network(2)
    net.add_pair(0, 1, 100, 0)
    assert net.max_flow(0, 1, cutoff=7) == 7


def test_min_cut_matches_flow_value():
    g = MultiGraph.build(4, [
        (0, 1, Fraction(1), True),
        (1, 3, Fraction(1), True),
        (0, 2, Fraction(1), True),
        (2, 3, Fraction(1), True),
        (1, 2, Fraction(1), True),
    ])
    caps = {0: Fraction(3), 1: Fraction(1), 2: Fraction(2), 3: Fraction(2), 4: Fraction(2)}
    value, cut = max_flow_min_cut(g, caps, 0, 3)
    assert value == 3
    assert 0 in cut.side and 3 not in cut.side
    assert sum(caps[e] for e in cut.boundary) == value


def test_max_flow_min_cut_rejects_same_endpoints():
    g = MultiGraph.build(2, [(0, 1, Fraction(1), True)])
    with pytest.raises(InvalidQueryError):
        max_flow_min_cut(g, {0: 1}, 1, 1)
    with pytest.raises(InvalidQueryError):
        edge_connectivity(g, 0, 0)
    # endpoints must be nodes of the network: none loops, wraps or crashes
    path = MultiGraph.build(3, [(0, 1, Fraction(1), True), (1, 2, Fraction(1), True)])
    for query in (
        lambda: edge_connectivity(path, -1, 0),
        lambda: max_flow_min_cut(path, {0: 1, 1: 1}, -1, 0),
        lambda: q_connectivity(path, {}, -1, 0),
        lambda: max_flow_min_cut(path, {0: 1}, 0, -2),
        lambda: edge_connectivity(path, 0, 3),
        lambda: Network(3).max_flow(0, 0),
    ):
        with pytest.raises(InvalidQueryError):
            query()


def test_absent_capacity_means_zero():
    g = MultiGraph.build(2, [(0, 1, Fraction(1), True)])
    value, cut = max_flow_min_cut(g, {}, 0, 1)
    assert value == 0 and cut.boundary == frozenset({0})


def test_edge_ids_are_checked_and_counted_once():
    g = MultiGraph.build(2, [(0, 1, Fraction(1), True)])
    with pytest.raises(UnknownEdgeError):
        max_flow_min_cut(g, {0: 1, 7: 1}, 0, 1)
    with pytest.raises(UnknownEdgeError):
        edge_connectivity(g, 0, 1, [0, 7])
    assert edge_connectivity(g, 0, 1, [0, 0]) == 1


@given(multigraphs(), st.data())
def test_cut_capacity_equals_flow(g, data):
    s = data.draw(st.integers(0, g.n - 1))
    t = (s + 1 + data.draw(st.integers(0, g.n - 2))) % g.n
    caps = {
        eid: Fraction(data.draw(st.integers(0, 5)), data.draw(st.sampled_from([1, 2])))
        for eid in g.edge_ids
    }
    value, cut = max_flow_min_cut(g, caps, s, t)
    assert s in cut.side and t not in cut.side
    assert sum((caps[e] for e in cut.boundary), Fraction(0)) == value
    # arcs follow the order of caps; the value and the cut side do not
    assert max_flow_min_cut(g, dict(reversed(caps.items())), s, t) == (value, cut)


@given(multigraphs(), st.data())
def test_edge_connectivity_cutoff_truncates(g, data):
    s = data.draw(st.integers(0, g.n - 1))
    t = (s + 1 + data.draw(st.integers(0, g.n - 2))) % g.n
    lam = edge_connectivity(g, s, t)
    cut = data.draw(st.integers(0, 5))
    assert edge_connectivity(g, s, t, cutoff=cut) == min(lam, cut)
    subset = [eid for eid in sorted(g.edge_ids) if eid % 2 == 0]
    assert edge_connectivity(g, s, t, subset) <= lam


@given(multigraphs(), st.data())
def test_directed_antiparallel_matches_undirected(g, data):
    s = data.draw(st.integers(0, g.n - 1))
    t = (s + 1 + data.draw(st.integers(0, g.n - 2))) % g.n
    und, _ = max_flow_min_cut(g, {e: 1 for e in g.edge_ids}, s, t)
    assert und == rooted_q_flow(g, {v: None for v in range(g.n)}, s, t)


@given(multigraphs(), st.data())
def test_one_network_answers_repeated_queries(g, data):
    caps = {eid: data.draw(st.integers(0, 3)) for eid in sorted(g.edge_ids)}
    net = undirected_network(g, caps)
    for _ in range(data.draw(st.integers(1, 6))):
        s = data.draw(st.integers(0, g.n - 1))
        t = (s + 1 + data.draw(st.integers(0, g.n - 2))) % g.n
        cutoff = data.draw(st.none() | st.integers(0, 6))
        value = net.max_flow(s, t, cutoff)
        assert value == undirected_network(g, caps).max_flow(s, t, cutoff)
        # once the flow is maximal its residual shows the canonical min cut
        full, cut = max_flow_min_cut(g, caps, s, t)
        if value == full:
            assert net.reachable_from(s) == cut.side


@given(multigraphs(), st.data())
def test_within_answers_like_a_network_over_f_alone(g, data):
    """Narrowed to F by `within`, a network over every edge finds the paths,
    values, carried edges and cut sides a network over F finds; each
    `within` replaces the last, and `blocked` still applies per flow."""
    ids = sorted(g.edge_ids)
    full = unit_network(g)
    assert full.edges == ids and full.base == [1] * (2 * len(ids))
    for _ in range(data.draw(st.integers(1, 4))):
        kept = sorted(data.draw(st.sets(st.sampled_from(ids))) if ids else ())
        blocked = data.draw(st.sets(st.sampled_from(kept))) if kept else set()
        own = undirected_network(g, dict.fromkeys(kept, 1))
        assert full.within(kept) is full
        s, t = data.draw(node_pairs(g.n))
        cutoff = data.draw(st.none() | st.integers(0, 4))
        value = full.max_flow(s, t, cutoff, blocked=blocked)
        assert value == own.max_flow(s, t, cutoff, blocked=blocked)
        assert full.carrying() == own.carrying()
        assert full.reachable_from(s) == own.reachable_from(s)


@given(multigraphs(), st.data())
def test_load_then_within_answers_like_fresh_networks(g, data):
    """Loaded with capacities, a network over every edge answers like one
    built with them; the next `within(F)` puts the built capacities back,
    and it answers like a fresh network over F alone."""
    ids = sorted(g.edge_ids)
    full = unit_network(g)
    for _ in range(data.draw(st.integers(1, 3))):
        caps = {eid: data.draw(st.integers(0, 3)) for eid in ids}
        assert full.load([c for c in caps.values() for _ in (0, 1)]) is full
        assert full.base == [1] * (2 * len(ids))
        kept = sorted(data.draw(st.sets(st.sampled_from(ids))) if ids else ())
        s, t = data.draw(node_pairs(g.n))
        loaded = undirected_network(g, caps)
        assert full.max_flow(s, t) == loaded.max_flow(s, t)
        assert full.reachable_from(s) == loaded.reachable_from(s)
        own = undirected_network(g, dict.fromkeys(kept, 1))
        assert full.within(kept).max_flow(s, t) == own.max_flow(s, t)
        assert full.reachable_from(s) == own.reachable_from(s)


def test_load_needs_one_capacity_per_arc():
    path = MultiGraph.build(3, [(0, 1, Fraction(1), True), (1, 2, Fraction(1), True)])
    net = unit_network(path)
    for start in ([1] * 3, [1] * 5, []):
        with pytest.raises(InvalidQueryError, match="4 arc capacities"):
            net.load(start)
    assert net.start == [1] * 4
    assert net.load([2] * 4).max_flow(0, 2) == 2


@given(multigraphs(), st.data())
def test_within_narrows_a_split_node_network_like_one_over_f_alone(g, data):
    """The split-node network over every arc, narrowed to F, agrees with the
    one built over F's arcs alone on values, carried edges and reachable
    sets, whatever the node caps; its node arcs belong to no edge."""
    caps = {v: data.draw(st.none() | st.integers(0, 2)) for v in range(g.n)}
    full = _split_network(g, caps, dict.fromkeys(_both_arcs(g.edge_ids), 1))
    assert full.edges == [None] * g.n + [aid >> 1 for aid in _both_arcs(g.edge_ids)]
    for _ in range(data.draw(st.integers(1, 4))):
        kept = data.draw(st.sets(st.sampled_from(sorted(g.edge_ids))))
        own = _split_network(g, caps, dict.fromkeys(_both_arcs(kept), 1))
        full.within(kept)
        i, j = data.draw(node_pairs(g.n))
        s, t = 2 * i + 1, 2 * j
        cutoff = data.draw(st.none() | st.integers(0, 4))
        assert full.max_flow(s, t, cutoff) == own.max_flow(s, t, cutoff)
        assert full.carrying() == own.carrying()
        assert full.reachable_from(s) == own.reachable_from(s)


@given(multigraphs(max_nodes=6, max_extra=6), st.data())
def test_failing_set_search_runs_at_most_limit_flows(g, data):
    """Whatever `FAILURE_SET_GUARD` is, the search refuses before a level
    would take it past the guard, and a search it lets finish gives the
    answer under the default guard."""
    s, t = data.draw(node_pairs(g.n))
    chosen = sorted(g.edge_ids)
    net = undirected_network(g, dict.fromkeys(chosen, 1))
    shuts = {eid: (eid,) for eid in chosen if not g.edge(eid).safe}
    need = [data.draw(st.integers(1, 3))] * data.draw(st.integers(1, 4))
    flows = []
    max_flow = net.max_flow
    net.max_flow = lambda *args, **kwargs: flows.append(args) or max_flow(*args, **kwargs)
    answer = smallest_failing_set(net, s, t, need, shuts)
    for limit in range(1, len(flows) + 1):
        flows.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(flow_module, "FAILURE_SET_GUARD", limit)
            try:
                assert smallest_failing_set(net, s, t, need, shuts) == answer
            except GuardExceededError as refusal:
                assert str(refusal).endswith(f" failure sets, guard is {limit}")
        assert len(flows) <= limit


def _reference_augmenting_path(net, s, t):
    """The BFS `Network._augmenting_path` ran before it stopped at t."""
    parent = [-1] * net.n
    parent[s] = -2
    queue = deque([s])
    while queue:
        u = queue.popleft()
        if u == t:
            break
        for i in net.adj[u]:
            if net.cap[i] > 0 and parent[net.to[i]] == -1:
                parent[net.to[i]] = i
                queue.append(net.to[i])
    if parent[t] == -1:
        return None
    path = []
    v = t
    while v != s:
        i = parent[v]
        path.append(i)
        v = net.to[i ^ 1]
    path.reverse()
    return path


def _reference_reaching(net, t):
    """Nodes with a residual-positive path to t: a BFS from t over the
    residual arcs turned around."""
    into = [[] for _ in range(net.n)]
    for i, cap in enumerate(net.cap):
        if cap > 0:
            into[net.to[i]].append(net.to[i ^ 1])
    seen = {t}
    queue = deque([t])
    while queue:
        for v in into[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return frozenset(seen)


@given(st.data())
def test_reaching_matches_the_reference_bfs(data):
    n = data.draw(st.integers(2, 7))
    capacity = st.integers(0, 4) | st.builds(Fraction, st.integers(0, 4), st.sampled_from([2, 3]))
    arcs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), capacity,
                  capacity | st.just(0)),
        max_size=14,
    ))
    net = Network(n)
    for u, v, cap_uv, cap_vu in arcs:
        net.add_pair(u, v, cap_uv, cap_vu)
    # before any flow the residual is the capacities as built
    assert all(net.reaching(t) == _reference_reaching(net, t) for t in range(n))
    for _ in range(data.draw(st.integers(1, 4))):
        s = data.draw(st.integers(0, n - 1))
        t = (s + 1 + data.draw(st.integers(0, n - 2))) % n
        cutoff = data.draw(st.none() | st.integers(0, 6))
        value = net.max_flow(s, t, cutoff)
        assert all(net.reaching(v) == _reference_reaching(net, v) for v in range(n))
        if cutoff is None or value < cutoff:
            # a max flow: the nodes that cannot reach t are a min cut side,
            # the largest, so it holds the smallest, the nodes s reaches
            far = frozenset(range(n)) - net.reaching(t)
            assert net.reachable_from(s) <= far and t not in far
            out = [i for i in range(len(net.to)) if net.to[i ^ 1] in far and net.to[i] not in far]
            assert sum(net.start[i] for i in out) == value


class _Recording(Network):
    """A network that logs every augmenting path its `find` returns."""

    def __init__(self, n, find):
        super().__init__(n)
        self.find = find
        self.paths = []

    def _augmenting_path(self, s, t):
        path = self.find(self, s, t)
        self.paths.append(path)
        return path


@given(st.data())
def test_augmenting_paths_match_the_reference_bfs(data):
    n = data.draw(st.integers(2, 7))
    fractional = data.draw(st.booleans())
    capacity = st.integers(0, 4)
    if fractional:
        capacity = st.builds(Fraction, capacity, st.sampled_from([1, 2, 3, 7]))
    arcs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), capacity,
                  capacity | st.just(0)),
        max_size=14,
    ))
    nets = [_Recording(n, find) for find in
            (Network._augmenting_path, _reference_augmenting_path)]
    pairs = list(range(len(arcs)))
    for net in nets:
        for u, v, cap_uv, cap_vu in arcs:
            net.add_pair(u, v, cap_uv, cap_vu)
        net.edges = pairs   # pair k is edge k
    for _ in range(data.draw(st.integers(1, 4))):
        s = data.draw(st.integers(0, n - 1))
        t = (s + 1 + data.draw(st.integers(0, n - 2))) % n
        cutoff = data.draw(st.none() | st.integers(0, 6))
        blocked = data.draw(st.lists(st.sampled_from(pairs), unique=True)
                            if pairs else st.just([]))
        runs = []
        for net in nets:
            net.paths.clear()
            value = net.max_flow(s, t, cutoff, blocked=blocked)
            runs.append((value, net.paths[:], net.reachable_from(s), net.carrying()))
        assert runs[0] == runs[1]
        value, paths, _, carrying = runs[0]
        # blocked pairs carry nothing, and the flow lives on the pairs that
        # carry it: shutting every other pair leaves the value as it was
        assert not set(carrying) & set(blocked)
        others = [i for i in pairs if i not in carrying]
        assert nets[0].max_flow(s, t, cutoff, blocked=others) == value
        # blocking a pair is building the network without it
        rest = Network(n)
        for k, (u, v, cap_uv, cap_vu) in enumerate(arcs):
            if k not in blocked:
                rest.add_pair(u, v, cap_uv, cap_vu)
        assert rest.max_flow(s, t, cutoff) == value
