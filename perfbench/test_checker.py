"""Tests of the benchmark's own feasibility checker.

    python3 -m pytest perfbench

The checker must accept the full edge set of every drawn instance, reject
hand-built infeasible solutions, and agree with the library's verifiers on
seeded random edge subsets.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import instances as gen
from checker import disjoint_paths, feasible

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import flexconn  # noqa: E402


def _edges(*rows):
    return [(u, v, Fraction(1), safe) for u, v, safe in rows]


def _draws(seed):
    rng = random.Random(seed)
    yield gen.draw_fgc(rng, "q1", (5, 7), (3, 6), (1, 3))
    yield gen.draw_fgc(rng, "p1", (5, 7), (3, 6), (1, 3))
    yield gen.draw_fst(rng, (5, 8), (2, 5), (2, 4))
    yield gen.draw_ncfgc(rng, (4, 6), (3, 6), rng.randint(1, 2))


def test_disjoint_paths_counts_parallel_edges_and_stops_at_cutoff():
    edges = [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2)]
    assert disjoint_paths(3, edges, 0, 2, 10) == 3
    assert disjoint_paths(3, edges, 0, 2, 2) == 2
    assert disjoint_paths(3, [(0, 1)], 0, 2, 1) == 0


@pytest.mark.parametrize("seed", range(10))
def test_full_edge_set_of_drawn_instances_is_feasible(seed):
    for inst in _draws(seed):
        assert feasible(inst, range(len(inst["edges"])))


def test_fgc_rejects_a_path_that_one_unsafe_failure_cuts():
    inst = {"kind": "fgc", "n": 3, "pairs": {(0, 2): (1, 1)},
            "edges": _edges((0, 1, True), (1, 2, False), (1, 2, False))}
    assert not feasible(inst, [0, 1])
    assert feasible(inst, [0, 1, 2])
    inst["pairs"] = {(0, 2): (2, 0)}
    assert not feasible(inst, [0, 1, 2])


def test_fgc_safe_edges_survive_any_failure_set():
    inst = {"kind": "fgc", "n": 2, "pairs": {(0, 1): (1, 2)},
            "edges": _edges((0, 1, True), (0, 1, False))}
    assert feasible(inst, [0])
    assert not feasible(inst, [1])


def test_fst_rejects_an_unsafe_bridge_between_terminals():
    inst = {"kind": "fst", "n": 4, "terminals": [0, 3],
            "edges": _edges((0, 1, True), (1, 3, False), (1, 3, False), (2, 3, True))}
    assert not feasible(inst, [0, 1])
    assert feasible(inst, [0, 1, 2])
    assert not feasible(inst, [1, 2, 3])


def test_ncfgc_rejects_paths_through_one_unsafe_node():
    # Two 0-2 paths through the unsafe node 1 only: losing it leaves none.
    inst = {"kind": "ncfgc", "n": 3, "safe_nodes": [0, 2], "p": 2,
            "edges": _edges((0, 1, True), (0, 1, True), (1, 2, True), (1, 2, True),
                            (0, 2, True), (0, 2, True))}
    assert not feasible(inst, [0, 1, 2, 3])
    assert feasible(inst, [0, 1, 2, 3, 4])
    assert feasible(inst, range(6))


def test_out_of_range_edge_ids_are_infeasible():
    inst = {"kind": "fst", "n": 2, "terminals": [0, 1], "edges": _edges((0, 1, True))}
    assert not feasible(inst, [0, 1])


def _verify(doc, edges):
    inst = doc.instance
    if doc.kind == "fgc":
        return flexconn.verify_fgc(inst, edges).ok
    if doc.kind == "fst":
        return flexconn.verify_fst(inst, edges).ok
    return flexconn.verify_ncfgc(inst, edges).ok


@pytest.mark.parametrize("seed", range(20))
def test_agrees_with_library_verifiers_on_random_subsets(seed):
    rng = random.Random(1000 + seed)
    verdicts = set()
    for inst in _draws(seed):
        doc = flexconn.parse_instance(gen.render(inst))
        m = len(inst["edges"])
        for _ in range(15):
            subset = [e for e in range(m) if rng.random() < rng.choice((0.5, 0.8, 0.95))]
            mine = feasible(inst, subset)
            assert mine == _verify(doc, subset), (gen.render(inst), subset)
            verdicts.add(mine)
    assert verdicts == {True, False}


def test_render_round_trips_through_the_library_parser():
    for inst in _draws(3):
        text = gen.render(inst)
        assert flexconn.render_instance(flexconn.parse_instance(text)) == text
