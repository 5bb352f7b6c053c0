"""Mid-size tier: seeded instances past the oracle's reach, n = 10-16.

No optimum is known here, so the checks are the ones that need none: the
independent verifiers must agree on every solver output and on every
output less one edge (for ncfgc also on seeded random subsets), and each
cost must sit within its certified bound (fgc: 2 x the LP value; ncfgc:
the rooted optimum, which the undirected edges of a rooted solution never
exceed).  No LP solve may take the exact fallback.  fgc stops at 13 nodes,
since the cut characterization tries 2^(n-1) cut sides.
"""

import random

import pytest

from flexconn import (
    OracleRefusalError,
    build_capndp_p1,
    build_capndp_q1,
    check_capacitated_cuts,
    check_cut_characterization,
    solve_fgc,
    solve_p_ncfgc,
    verify_fgc,
    verify_ncfgc,
)
from flexconn.generators import GenConfig, gen_fgc, gen_ncfgc
from flexconn.oracle import OracleBudget, exact_opt

NCFGC = GenConfig(nodes=(10, 16), extra_edges=(10, 24), ncfgc_p=(2, 3))
FGC = GenConfig(nodes=(10, 13), extra_edges=(10, 20), pairs=(2, 4), max_p=3, max_q=3)


@pytest.fixture
def no_exact_fallback(monkeypatch):
    from flexconn import lp

    def refuse(*args):
        raise AssertionError("an LP solve took the exact fallback")

    monkeypatch.setattr(lp, "_simplex", refuse)


def assert_past_the_oracle(inst):
    # 2^m subsets with m >= 20 edges exceed the enumeration budget
    with pytest.raises(OracleRefusalError):
        exact_opt(inst, budget=OracleBudget(strategy="enumerate"))


def test_midsize_ncfgc_routes_agree_and_cost_is_rooted_bounded(no_exact_fallback):
    rng = random.Random(16)
    checked = failures = deep = 0
    for seed in range(20):
        inst = gen_ncfgc(seed, cfg=NCFGC)
        assert_past_the_oracle(inst)
        res = solve_p_ncfgc(inst)
        assert res.cost == inst.graph.cost(res.edges) <= res.rooted_cost
        assert verify_ncfgc(inst, res.edges, mode="both").ok
        ids = sorted(inst.graph.edge_ids)
        subsets = [res.edges - {eid} for eid in sorted(res.edges)] + [
            frozenset(e for e in ids if rng.random() < share) for share in (0.7, 0.9)
        ]
        for rest in subsets:
            by_flow = verify_ncfgc(inst, rest, mode="qconn").violation
            by_enum = verify_ncfgc(inst, rest, mode="enumeration").violation
            assert (by_flow and by_flow.pair) == (by_enum and by_enum.pair), (
                f"seed {seed} subset {sorted(rest)}: flow {by_flow}, enumeration {by_enum}"
            )
            assert verify_ncfgc(inst, rest, mode="both").violation == by_enum
            checked += 1
            failures += by_enum is not None
            deep += by_enum is not None and len(by_enum.removed) > 0
    assert failures > 100 and checked - failures > 10 and deep > 10


def test_midsize_fgc_verifiers_agree_and_cost_is_lp_bounded(no_exact_fallback):
    checked = failures = 0
    for seed in range(10):
        for regime in ("q1", "p1"):
            inst = gen_fgc(seed, regime=regime, cfg=FGC)
            assert_past_the_oracle(inst)
            res = solve_fgc(inst)
            assert res.cost <= 2 * res.lp_objective
            reduce = build_capndp_q1 if res.regime == "q1" else build_capndp_p1
            capndp = reduce(inst)
            for chosen in [res.edges] + [res.edges - {e} for e in sorted(res.edges)]:
                by_enum = verify_fgc(inst, chosen).ok
                by_caps = check_capacitated_cuts(capndp, chosen).ok
                by_cuts = check_cut_characterization(inst, chosen).ok
                assert by_enum == by_caps == by_cuts, (
                    f"seed {seed} {regime} subset {sorted(chosen)}: "
                    f"enum={by_enum} caps={by_caps} cuts={by_cuts}"
                )
                assert by_enum or chosen != res.edges
                checked += 1
                failures += not by_enum
    assert failures > 50 and checked - failures > 50
