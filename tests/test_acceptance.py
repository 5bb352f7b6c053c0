"""Acceptance suite: one test per shipped guarantee, exact arithmetic only.

Each test prints a single "ACCEPTANCE <name>: PASS|FAIL" line so the whole
contract can be read off a test run at a glance.  Instance streams are
seeded and disjoint between tests; every bound is checked with Fractions,
never floats.
"""

import itertools
import random
from fractions import Fraction
from pathlib import Path

from flexconn import (
    MultiGraph,
    NcFgcInstance,
    SndpInstance,
    build_capndp_p1,
    build_capndp_q1,
    check_capacitated_cuts,
    check_cut_characterization,
    edge_connectivity,
    jain_round,
    reduce_by_inflation,
    rooted_q_flow,
    solve_fgc,
    solve_fst,
    solve_p_ncfgc,
    verify_fgc,
    verify_fst,
    verify_ncfgc,
)
from flexconn.generators import (
    GenConfig,
    gen_fgc,
    gen_fst,
    gen_instance,
    gen_ncfgc,
    random_multigraph,
)
from flexconn.instance_io import InstanceDoc, parse_instance, render_instance
from flexconn.jain import first_unmet_pair, separation
from flexconn.lp import solve_cut_lp
from flexconn.oracle import OracleBudget, exact_opt, ratio_report

GOLDEN_DIR = Path(__file__).parent / "golden"

# collected lines are echoed by conftest's terminal summary, so they show up
# even though pytest captures the prints below
LINES: list[str] = []


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    LINES.append(line)
    print(line)
    assert ok, line


def test_feasibility_characterizations_agree():
    """Failure enumeration, the cut characterization, and capacitated
    min-cuts give the same verdict on every subset of every instance."""
    cfg = GenConfig(nodes=(3, 6), extra_edges=(0, 4), pairs=(1, 3))
    checked = instances = 0
    for seed in range(100):
        for regime, reduce in (("q1", build_capndp_q1), ("p1", build_capndp_p1)):
            inst = gen_fgc(seed, regime=regime, cfg=cfg, ensure_feasible=False)
            capndp = reduce(inst)
            ids = sorted(inst.graph.edge_ids)
            instances += 1
            for r in range(len(ids) + 1):
                for subset in itertools.combinations(ids, r):
                    chosen = frozenset(subset)
                    by_enum = verify_fgc(inst, chosen).ok
                    by_cuts = check_cut_characterization(inst, chosen).ok
                    by_caps = check_capacitated_cuts(capndp, chosen).ok
                    assert by_enum == by_cuts == by_caps, (
                        f"seed {seed} regime {regime} subset {sorted(chosen)}: "
                        f"enum={by_enum} cuts={by_cuts} caps={by_caps}"
                    )
                    checked += 1
    _report(
        "feasibility-characterizations",
        instances == 200,
        f"{instances} instances, {checked} subsets, 0 mismatches",
    )


def _ratio_suite(regime: str, base_seed: int):
    worst = Fraction(0)
    results = []
    for seed in range(base_seed, base_seed + 100):
        inst = gen_fgc(seed, regime=regime)
        res = solve_fgc(inst)
        assert verify_fgc(inst, res.edges).ok
        opt = exact_opt(inst)
        assert opt.feasible and opt.cost <= res.cost
        assert res.cost <= res.bound * opt.cost, (
            f"seed {seed}: {res.cost} > {res.bound} * {opt.cost}"
        )
        if opt.cost > 0:
            worst = max(worst, res.cost / opt.cost)
        results.append(seed)
    return len(results), worst


def test_q1_ratio_within_bound():
    """All-q=1 instances solve feasibly at cost <= 2(p+1) * OPT."""
    count, worst = _ratio_suite("q1", 1000)
    _report("q1-ratio", count == 100, f"{count} instances, worst ratio {worst}")


def test_p1_ratio_within_bound():
    """All-p=1 instances solve feasibly at cost <= 2(q+1) * OPT."""
    count, worst = _ratio_suite("p1", 2000)
    _report("p1-ratio", count == 100, f"{count} instances, worst ratio {worst}")


def _random_sndp(rng, cfg) -> SndpInstance:
    """Connected graph with 1..3 requirements clamped to what it can carry."""
    g = random_multigraph(rng, cfg)
    pairs = {}
    nodes = list(range(g.n))
    for _ in range(rng.randint(1, 3)):
        i, j = sorted(rng.sample(nodes, 2))
        want = rng.randint(1, 3)
        lam = edge_connectivity(g, i, j, g.edge_ids, cutoff=want)
        pairs[(i, j)] = max(pairs.get((i, j), 0), min(want, lam))
    return SndpInstance(g, pairs)


def test_rounding_engine_vertex_progress_and_factor():
    """Every LP vertex met during rounding is exact and offers an undecided
    edge at 1/2 or more, and the rounded cost is at most twice the ILP
    optimum.  The loop here mirrors jain_round step by step so the progress
    property is asserted from outside, then the shortcut-free result is
    required to match."""
    rng = random.Random(4000)
    cfg = GenConfig(nodes=(3, 7))
    threshold = Fraction(1, 2)
    vertices = 0
    worst = Fraction(0)
    for _ in range(100):
        inst = _random_sndp(rng, cfg)
        graph = inst.graph
        assert first_unmet_pair(inst._network, inst.requirements) is None
        costs = {e.eid: e.cost for e in graph.edges}
        chosen: set[int] = set()
        iterations = 0
        while not all(
            edge_connectivity(graph, i, j, chosen, cutoff=r) >= r
            for (i, j), r in inst.requirements.items()
            if r >= 1
        ):
            sol = solve_cut_lp(
                {e: c for e, c in costs.items() if e not in chosen},
                lambda scale, num: separation(inst, scale, num, chosen),
            )
            newly = [e for e, v in sol.x.items() if v >= threshold]
            assert newly, "vertex without a half-integral undecided edge"
            vertices += 1
            chosen.update(newly)
            iterations += 1
        res = jain_round(inst)
        assert res.edges == frozenset(chosen) and res.iterations == iterations
        opt = exact_opt(inst)
        assert opt.feasible
        cost = graph.cost(res.edges)
        assert cost <= 2 * opt.cost, f"{cost} > 2 * {opt.cost}"
        if opt.cost > 0:
            worst = max(worst, cost / opt.cost)
    _report(
        "rounding-engine",
        True,
        f"100 instances, {vertices} vertices, worst ratio {worst}",
    )


def test_fst_two_stage_bounds():
    """Both stage-one choices yield verified solutions within their factors:
    3 * OPT with the exact tree, 4 * OPT with the metric-closure tree."""
    cfg = GenConfig(nodes=(3, 8), terminals=(2, 4))
    worst = {"approx": Fraction(0), "exact": Fraction(0)}
    for seed in range(3000, 3100):
        inst = gen_fst(seed, cfg=cfg)
        opt = exact_opt(inst)
        assert opt.feasible
        for method, bound in (("approx", 4), ("exact", 3)):
            res = solve_fst(inst, stage_one=method)
            assert verify_fst(inst, res.edges).ok
            assert res.bound == bound
            assert res.cost <= bound * opt.cost, (
                f"seed {seed} {method}: {res.cost} > {bound} * {opt.cost}"
            )
            if opt.cost > 0:
                worst[method] = max(worst[method], res.cost / opt.cost)
    _report(
        "fst-two-stage",
        True,
        f"100 instances, worst approx {worst['approx']}, "
        f"worst exact {worst['exact']}",
    )


def test_ncfgc_rooted_solver_bound():
    """Node-flexible solutions survive exhaustive failure enumeration and
    cost at most 2 * OPT."""
    cfg = GenConfig(nodes=(3, 7), ncfgc_p=(1, 3))
    worst = Fraction(0)
    for seed in range(5000, 5100):
        inst = gen_ncfgc(seed, cfg=cfg)
        res = solve_p_ncfgc(inst)
        assert verify_ncfgc(inst, res.edges, mode="both").ok
        opt = exact_opt(inst)
        assert opt.feasible and opt.cost <= res.cost
        assert res.cost <= 2 * opt.cost, (
            f"seed {seed}: {res.cost} > 2 * {opt.cost}"
        )
        if opt.cost > 0:
            worst = max(worst, res.cost / opt.cost)
    _report("ncfgc-two-approx", True, f"100 instances, worst ratio {worst}")


def test_inflation_preserves_connectivity():
    """Replacing safe nodes by free single-use cliques changes no pairwise
    capacitated connectivity value."""
    rng = random.Random(6000)
    cfg = GenConfig(nodes=(3, 6))
    pairs_checked = 0
    for _ in range(100):
        g = random_multigraph(rng, cfg)
        safe = frozenset(v for v in range(g.n) if rng.random() < 0.5)
        inst = NcFgcInstance(g, safe, 1)
        reduced, inflated = reduce_by_inflation(inst)
        caps = inst.node_caps()
        red_caps = reduced.node_caps()
        first = {v: images[0] for v, images in inflated.node_images.items()}
        for i in range(g.n):
            for j in range(i + 1, g.n):
                before = rooted_q_flow(g, caps, i, j)
                after = rooted_q_flow(reduced.graph, red_caps, first[i], first[j])
                assert before == after, f"pair ({i}, {j}): {before} != {after}"
                pairs_checked += 1
    _report(
        "inflation-gadget", True, f"100 instances, {pairs_checked} pairs equal"
    )


def test_determinism_and_io():
    """Golden files re-derive byte for byte from their (kind, seed) names,
    parsing inverts rendering, and repeated enumeration-oracle reports are
    byte-identical."""
    golden = sorted(GOLDEN_DIR.glob("*.instance"))
    assert len(golden) >= 10
    for path in golden:
        kind, seed = path.stem.rsplit("-", 1)
        instance = gen_instance(kind, int(seed))
        text = render_instance(InstanceDoc(instance))
        assert text == path.read_text(), f"{path.name} drifted"
        assert render_instance(parse_instance(text)) == text
        assert gen_instance(kind, int(seed)) == instance

    def render() -> str:
        instances = [
            (f"fgc-q1-{seed}", gen_instance("fgc-q1", seed)) for seed in range(4)
        ]
        budget = OracleBudget(max_checks=10**6, strategy="enumerate")
        return ratio_report("fgc-q1", instances, budget=budget).render()

    assert render() == render()
    _report(
        "determinism-io",
        True,
        f"{len(golden)} golden files stable, reports repeatable",
    )
