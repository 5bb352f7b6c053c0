"""`verify_fgc` and `verify_ncfgc` answer every edge subset F on one network
per instance, with the edges outside F shut.  The references below build a
network over F alone on every call, as the verifiers once did; the verdicts,
witnesses included, must be the same."""

import itertools
import random

import pytest

from flexconn import FgcInstance, NcFgcInstance
from flexconn.fgc import FgcViolation, verify_fgc
from flexconn.flows import smallest_failing_set, undirected_network
from flexconn.generators import GenConfig, gen_instance
from flexconn.graphs import Verdict
from flexconn.ncfgc import NcViolation, _both_arcs, _split_network, verify_ncfgc

MODES = ("qconn", "enumeration", "both")
# the oracle tests' default draws (3 to 9 edges), then a few of 9 to 12 edges
LARGER = GenConfig(nodes=(6, 7), extra_edges=(3, 6))
DRAWS = [(seed, GenConfig()) for seed in range(12)] + [(seed, LARGER) for seed in range(3)]


def draws(kind):
    for seed, cfg in DRAWS:
        yield seed, gen_instance(kind, seed, cfg=cfg)


def reference_verify_fgc(inst, edge_ids, subset_guard=10**6):
    g = inst.graph
    chosen = sorted(g.subset(edge_ids))
    net = undirected_network(g, dict.fromkeys(chosen, 1))
    shuts = {eid: (2 * k,) for k, eid in enumerate(chosen) if not g.edge(eid).safe}
    for (i, j), p, q in inst.active_pairs():
        lam = net.max_flow(i, j, cutoff=p + q)
        if lam >= p + q:
            continue
        if lam < p:
            return Verdict(FgcViolation((i, j), frozenset(), lam))
        k = min(q, len(shuts))
        if k == 0:
            continue
        hit = smallest_failing_set(net, i, j, [p] * (k + 1), shuts, subset_guard)
        if hit is not None:
            return Verdict(FgcViolation((i, j), *hit))
    return Verdict()


def reference_verify_ncfgc(inst, edge_ids, mode, subset_guard=10**6):
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
        arcs = {eid: 2 * k for k, eid in enumerate(sorted(chosen))}
        unit = undirected_network(g, dict.fromkeys(arcs, 1))
        shuts = {
            v: [arcs[e.eid] for e in g.incident(v) if e.eid in arcs]
            for v in inst.unsafe_nodes()
        }
        for i, j in itertools.combinations(range(g.n), 2):
            pool = {v: shut for v, shut in shuts.items() if v not in (i, j)}
            need = [p - s for s in range(min(p, len(pool) + 1))]
            found = smallest_failing_set(unit, i, j, need, pool, subset_guard)
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
    failing = 0
    for seed, inst in draws("ncfgc"):
        for subset in subsets(inst.graph):
            verdict = verify_ncfgc(inst, subset, mode=mode)
            assert verdict == reference_verify_ncfgc(inst, subset, mode), (seed, subset)
            failing += not verdict.ok
    assert failing > 0


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


def test_split_network_never_shuts_a_node_arc():
    for seed, inst in draws("ncfgc"):
        net = inst._flow_route.net
        node_arcs = range(0, 2 * inst.graph.n, 2)
        for subset in subsets(inst.graph):
            verify_ncfgc(inst, subset, mode="qconn")
            assert all(net.start[a] == net.base[a] > 0 for a in node_arcs), (seed, subset)
            # and every arc outside the node arcs is open exactly when its edge is in F
            for eid, pair in inst._flow_route.arcs.items():
                for a in pair:
                    assert net.start[a] == (eid in subset), (seed, subset, eid)
