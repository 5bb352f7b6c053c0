"""Seeded instance generation: determinism and the promised shapes."""

import random

import pytest

from flexconn import ValidationError, verify_fgc, verify_fst, verify_ncfgc
from flexconn.generators import GEN_KINDS, GenConfig, gen_instance, random_multigraph


def test_random_multigraph_is_connected_and_in_range():
    rng = random.Random(0)
    cfg = GenConfig(nodes=(3, 6), extra_edges=(1, 4))
    for _ in range(20):
        g = random_multigraph(rng, cfg)
        assert 3 <= g.n <= 6
        assert g.connects(range(g.n), g.edge_ids)
        # spanning tree plus the configured surplus
        assert g.n - 1 + 1 <= len(g.edge_ids) <= g.n - 1 + 4


@pytest.mark.parametrize("cfg", [
    {"nodes": (1, 1)},        # one node: no second end for an extra edge
    {"nodes": (5, 3)},        # low end above the high end
    {"extra_edges": (-1, 2)},
    {"pairs": (3, 1)},
    {"terminals": (-2, 4)},
    {"ncfgc_p": (2, 1)},
    # fst could draw 3 nodes and then need 4 terminals among them
    {"nodes": (3, 3), "terminals": (4, 5)},
    {"nodes": (3, 6), "terminals": (4, 4)},
])
def test_gen_config_rejects_bad_ranges(cfg):
    # refused at once, not at the first draw, where nodes (1, 1) hangs and
    # nodes (5, 3) or more terminals than nodes raise a bare ValueError
    # from `random`
    with pytest.raises(ValidationError):
        GenConfig(**cfg)


@pytest.mark.parametrize("kind", GEN_KINDS)
def test_instances_are_deterministic_per_seed(kind):
    assert gen_instance(kind, 11) == gen_instance(kind, 11)
    assert gen_instance(kind, 11) != gen_instance(kind, 12)


def test_generated_regimes_hold():
    for seed in range(5):
        q1 = gen_instance("fgc-q1", seed)
        assert q1.is_q1()
        assert verify_fgc(q1, q1.graph.edge_ids).ok
        p1 = gen_instance("fgc-p1", seed)
        assert p1.is_p1()
        assert verify_fgc(p1, p1.graph.edge_ids).ok


def test_generated_fst_and_ncfgc_are_feasible():
    for seed in range(5):
        fst = gen_instance("fst", seed)
        assert len(fst.terminals) >= 2
        assert verify_fst(fst, fst.graph.edge_ids).ok
        nc = gen_instance("ncfgc", seed)
        assert nc.safe_nodes
        assert verify_ncfgc(nc, nc.graph.edge_ids, mode="qconn").ok


def test_unknown_kind_is_rejected():
    with pytest.raises(ValidationError):
        gen_instance("steiner", 0)
