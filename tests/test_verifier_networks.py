"""`verify_fgc` and `verify_ncfgc` answer every edge subset F on one network
per instance, narrowed to F by `Network.within`.  The references below
build a network over F alone on every call, as the verifiers once did; the
verdicts, witnesses included, must be the same."""

import dataclasses
import itertools
import random

import pytest

from flexconn import FgcInstance, NcFgcInstance, flows, jain, ncfgc
from flexconn.fgc import (
    FgcViolation,
    build_capndp_p1,
    build_capndp_q1,
    check_capacitated_cuts,
    solve_fgc,
    verify_fgc,
)
from flexconn.flows import smallest_failing_set, undirected_network
from flexconn.fst import FstViolation, build_second_stage, steiner_tree_approx, verify_fst
from flexconn.generators import GenConfig, gen_instance
from flexconn.graphs import Edge, MultiGraph, Verdict
from flexconn.jain import SndpInstance
from flexconn.ncfgc import (
    NcViolation,
    _both_arcs,
    _split_network,
    solve_rooted_qconn,
    verify_ncfgc,
)
from flexconn.oracle import _sndp_feasible, exact_opt

MODES = ("qconn", "enumeration", "both")
# the oracle tests' default draws (3 to 9 edges), then a few of 9 to 12 edges
LARGER = GenConfig(nodes=(6, 7), extra_edges=(3, 6))
DRAWS = [(seed, GenConfig()) for seed in range(12)] + [(seed, LARGER) for seed in range(3)]


def draws(kind):
    for seed, cfg in DRAWS:
        yield seed, gen_instance(kind, seed, cfg=cfg)


def bowtie(inst):
    """Two copies of the instance's graph glued at node 0, which fails,
    node v of the second copy numbered n - 1 + v; the other safe nodes of
    both copies stay safe, and p is 2.  Row 0 can pass while a pair across
    node 0 fails."""
    g = inst.graph
    shift = lambda v: v and g.n - 1 + v
    rows = [(e.u, e.v, e.cost, e.safe) for e in g.edges]
    rows += [(shift(e.u), shift(e.v), e.cost, e.safe) for e in g.edges]
    safe = {w for v in inst.safe_nodes - {0} for w in (v, shift(v))}
    return NcFgcInstance(MultiGraph.build(2 * g.n - 1, rows), safe, 2)


def ncfgc_draws():
    """Each ncfgc draw as generated, then with node 0 unsafe and its last
    node safe, with no safe node, and at p = 1 and p = 3, and the bowtie of
    each draw of at most 5 edges: the flow route stitches pairs through the
    smallest safe node, so that node's place and the requirement both steer
    which flows run."""
    for seed, inst in draws("ncfgc"):
        yield seed, inst
        later = (inst.safe_nodes - {0}) | {inst.graph.n - 1}
        yield seed, dataclasses.replace(inst, safe_nodes=later)
        yield seed, dataclasses.replace(inst, safe_nodes=frozenset())
        for p in (1, 3):
            yield seed, dataclasses.replace(inst, requirement=p)
        if inst.graph.m <= 5:
            yield seed, bowtie(dataclasses.replace(inst, safe_nodes=later))


def reference_verify_fgc(inst, edge_ids):
    g = inst.graph
    chosen = sorted(g.subset(edge_ids))
    net = undirected_network(g, dict.fromkeys(chosen, 1))
    shuts = {eid: (eid,) for eid in chosen if not g.edge(eid).safe}
    for (i, j), p, q in inst.active_pairs():
        lam = net.max_flow(i, j, cutoff=p + q)
        if lam >= p + q:
            continue
        if lam < p:
            return Verdict(FgcViolation((i, j), frozenset(), lam))
        k = min(q, len(shuts))
        if k == 0:
            continue
        hit = smallest_failing_set(net, i, j, [p] * (k + 1), shuts)
        if hit is not None:
            return Verdict(FgcViolation((i, j), *hit))
    return Verdict()


def reference_verify_ncfgc(inst, edge_ids, mode):
    g = inst.graph
    chosen = g.subset(edge_ids)
    p = inst.requirement
    hit_q = hit_e = None
    if mode != "enumeration":
        net = _split_network(g, inst.node_caps(), dict.fromkeys(_both_arcs(chosen), 1))
        for i, j in itertools.combinations(range(g.n), 2):
            lam = net.max_flow(2 * i + 1, 2 * j, cutoff=p)
            if lam < p:
                hit_q = NcViolation((i, j), None, lam)
                break
    if mode != "qconn":
        unit = undirected_network(g, dict.fromkeys(sorted(chosen), 1))
        shuts = {
            v: [e.eid for e in g.incident(v) if e.eid in chosen]
            for v in inst.unsafe_nodes()
        }
        for i, j in itertools.combinations(range(g.n), 2):
            pool = {v: shut for v, shut in shuts.items() if v not in (i, j)}
            need = [p - s for s in range(min(p, len(pool) + 1))]
            found = smallest_failing_set(unit, i, j, need, pool)
            if found is not None:
                hit_e = NcViolation((i, j), *found)
                break
    if mode == "both":
        assert (hit_q and hit_q.pair) == (hit_e and hit_e.pair)
    return Verdict(hit_e or hit_q)


def subsets(g):
    ids = sorted(g.edge_ids)
    for size in range(len(ids) + 1):
        yield from itertools.combinations(ids, size)


@pytest.mark.parametrize("kind", ["fgc-q1", "fgc-p1"])
def test_verify_fgc_matches_a_network_per_subset(kind):
    failing = 0
    for seed, inst in draws(kind):
        for subset in subsets(inst.graph):
            verdict = verify_fgc(inst, subset)
            assert verdict == reference_verify_fgc(inst, subset), (seed, subset)
            failing += not verdict.ok
    assert failing > 0


@pytest.mark.parametrize("mode", MODES)
def test_verify_ncfgc_matches_a_network_per_subset(mode):
    # `seen` counts the verdicts the stitching decides, node 0 unsafe and
    # another node safe: sets that pass, and sets that fail past row 0
    failing = 0
    seen = {"passed": 0, "failed past row 0": 0}
    for seed, inst in ncfgc_draws():
        stitched = 0 not in inst.safe_nodes and bool(inst.safe_nodes)
        for subset in subsets(inst.graph):
            verdict = verify_ncfgc(inst, subset, mode=mode)
            assert verdict == reference_verify_ncfgc(inst, subset, mode), (seed, inst, subset)
            failing += not verdict.ok
            if stitched:
                bad = verdict.violation
                seen["passed" if bad is None else "failed past row 0"] += (
                    bad is None or bad.pair[0] > 0
                )
    assert failing > 0 and min(seen.values()) > 20, seen


def _interleaved(g):
    """Full set, empty set, full set, then every subset in a seeded order."""
    order = list(subsets(g))
    random.Random(g.m).shuffle(order)
    full = tuple(sorted(g.edge_ids))
    return [full, (), full, *order]


@pytest.mark.parametrize("kind", ["fgc-q1", "fgc-p1", "ncfgc"])
def test_one_instance_answers_like_fresh_ones_in_any_order(kind):
    # a fresh instance has a fresh network, so no earlier subset can leak in
    for seed in range(4):
        inst = gen_instance(kind, seed)
        if kind == "ncfgc":
            fresh = lambda: NcFgcInstance(inst.graph, inst.safe_nodes, inst.requirement)
            for subset in _interleaved(inst.graph):
                for mode in MODES:
                    assert verify_ncfgc(inst, subset, mode=mode) == verify_ncfgc(
                        fresh(), subset, mode=mode
                    ), (seed, subset, mode)
        else:
            for subset in _interleaved(inst.graph):
                assert verify_fgc(inst, subset) == verify_fgc(
                    FgcInstance(inst.graph, inst.pairs), subset
                ), (seed, subset)


@pytest.mark.parametrize("kind, routes", [("fgc-q1", 1), ("fgc-p1", 1), ("ncfgc", 2)])
def test_each_instance_builds_one_network_per_route(monkeypatch, kind, routes):
    # a copy: the generator's own feasibility check filled the original's cache
    inst = dataclasses.replace(gen_instance(kind, 0, cfg=LARGER))
    asked = random.Random(0).sample(list(subsets(inst.graph)), 50)
    built = []
    init = flows.Network.__init__
    monkeypatch.setattr(flows.Network, "__init__", lambda net, n: built.append(n) or init(net, n))
    for subset in asked:
        if kind == "ncfgc":
            verify_ncfgc(inst, subset, mode="both")
        else:
            verify_fgc(inst, subset)
    assert len(built) == routes


@pytest.mark.parametrize("kind", ["fgc-q1", "fst", "ncfgc"])
def test_separation_reuses_the_instance_network(monkeypatch, kind):
    # each oracle loads its LP point into the network its instance caches,
    # so no separation call, of any cut LP, builds a network of its own
    built, during = [], []
    init = flows.Network.__init__
    monkeypatch.setattr(flows.Network, "__init__", lambda net, n: built.append(n) or init(net, n))

    def counted(oracle):
        def run(*args):
            before = len(built)
            rows = oracle(*args)
            during.append(len(built) - before)
            return rows
        return run

    monkeypatch.setattr(jain, "separation", counted(jain.separation))
    monkeypatch.setattr(ncfgc, "_separate_rooted", counted(ncfgc._separate_rooted))
    # six more of the larger draws: each call hands over both sides of every
    # short pair, so fst's LPs need few calls
    more = [(seed, gen_instance(kind, seed, cfg=LARGER)) for seed in range(3, 9)]
    for seed, inst in [*draws(kind), *more]:
        if kind == "fgc-q1":
            solve_fgc(inst)  # `jain_round` on the split Cap-NDP instance
        elif kind == "fst":
            tree = steiner_tree_approx(inst.graph, inst.terminals)
            jain.jain_round(build_second_stage(inst, tree))
        else:
            solve_rooted_qconn(inst, min(inst.safe_nodes))
    assert len(during) > 20 and sum(during) == 0


def test_split_network_never_shuts_a_node_arc():
    for seed, inst in draws("ncfgc"):
        g = inst.graph
        net = inst._flow_route
        # the record: one node arc per node, then both arcs of every edge
        assert net.edges == [None] * g.n + [a >> 1 for a in _both_arcs(g.edge_ids)]
        for subset in subsets(g):
            verify_ncfgc(inst, subset, mode="qconn")
            for k, eid in enumerate(net.edges):
                if eid is None:
                    assert net.start[2 * k] == net.base[2 * k] > 0, (seed, subset, k)
                else:
                    # an edge's arcs are open exactly when it is in F
                    assert net.start[2 * k] == (eid in subset), (seed, subset, eid)


def sparse(inst, seed):
    """The instance with its edge ids spread apart, in the same order, and
    its edges listed shuffled, with the map from old ids to new ones."""
    g = inst.graph
    rng = random.Random(seed)
    new, last = {}, 0
    for eid in sorted(g.edge_ids):
        last = new[eid] = last + rng.randint(2, 9)
    edges = [Edge(new[e.eid], e.u, e.v, e.cost, e.safe) for e in g.edges]
    rng.shuffle(edges)
    if edges == sorted(edges, key=lambda e: e.eid):
        edges.reverse()
    return dataclasses.replace(inst, graph=MultiGraph(g.n, edges)), new


def questions(inst):
    """Every edge-set predicate the instance can be asked through: its own
    verifier (each mode for ncfgc), and for fgc the capacitated check of
    each reduction that applies and the SNDP oracle predicate, each on one
    instance that answers every subset."""
    if isinstance(inst, NcFgcInstance):
        return {
            mode: (inst, lambda s, mode=mode: verify_ncfgc(inst, s, mode=mode))
            for mode in MODES
        }
    if not isinstance(inst, FgcInstance):
        return {"fst": (inst, lambda s: verify_fst(inst, s))}
    asks = {"fgc": (inst, lambda s: verify_fgc(inst, s))}
    for regime, build, applies in (
        ("q1", build_capndp_q1, inst.is_q1()),
        ("p1", build_capndp_p1, inst.is_p1()),
    ):
        if applies:
            capndp = build(inst)
            asks[regime] = (capndp, lambda s, c=capndp: check_capacitated_cuts(c, s))
    sndp = SndpInstance(inst.graph, {pair: p for pair, p, _ in inst.active_pairs()})
    asks["sndp"] = (sndp, lambda s: _sndp_feasible(sndp, frozenset(s)))
    return asks


def in_old_ids(answer, old):
    """A verdict with the edge ids of its witness mapped through `old`; a
    bare feasibility answer as it is."""
    bad = getattr(answer, "violation", None)
    if isinstance(bad, FgcViolation):
        return Verdict(dataclasses.replace(bad, removed=frozenset(old[e] for e in bad.removed)))
    if isinstance(bad, FstViolation) and bad.removed is not None:
        return Verdict(FstViolation(old[bad.removed]))
    return answer


@pytest.mark.parametrize("kind", ["fgc-q1", "fgc-p1", "ncfgc", "fst"])
def test_sparse_out_of_order_edge_ids_answer_like_dense_ones(kind):
    """Generated instances number their edges 0..m-1 in order, so on them an
    edge's id, its rank and its position in the graph coincide and a record
    that mixes them up goes unseen: here each verdict, and each optimum of
    the oracle, must be the dense instance's under the renaming."""
    for seed, dense in draws(kind):
        relabelled, new = sparse(dense, seed)
        old = {v: k for k, v in new.items()}
        dense_asks, sparse_asks = questions(dense), questions(relabelled)
        assert dense_asks.keys() == sparse_asks.keys()
        for name, (inst, ask) in dense_asks.items():
            other, sparse_ask = sparse_asks[name]
            for subset in subsets(dense.graph):
                got = in_old_ids(sparse_ask([new[e] for e in subset]), old)
                assert got == ask(subset), (seed, name, subset)
            opt, sparse_opt = exact_opt(inst), exact_opt(other)
            renamed = opt.edges and frozenset(new[e] for e in opt.edges)
            assert (sparse_opt.cost, sparse_opt.edges) == (opt.cost, renamed), (seed, name)
