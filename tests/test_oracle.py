"""Exhaustive optimum search and the ratio reporting built on it."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from flexconn import (
    FgcInstance,
    FstInstance,
    MultiGraph,
    NcFgcInstance,
    OracleBudget,
    OracleRefusalError,
    SndpInstance,
    ValidationError,
    minimum_cost_subset,
    ratio_report,
)
from flexconn import oracle
from flexconn.fgc import CapNdpInstance
from flexconn.generators import gen_instance
from flexconn.oracle import REPORT_KINDS, exact_opt

BOTH = (OracleBudget(strategy="bnb"), OracleBudget(strategy="enumerate"))


def test_budget_validation():
    with pytest.raises(ValidationError):
        OracleBudget(max_checks=0)
    with pytest.raises(ValidationError):
        OracleBudget(strategy="dfs")
    for limit in (-1.0, float("nan")):
        with pytest.raises(ValidationError):
            OracleBudget(time_limit=limit)
    assert OracleBudget(time_limit=0.0).time_limit == 0
    # `nan < 1` is False, so only a type check keeps NaN from lifting the limit
    for checks in (float("nan"), True, 2.5, "10"):
        with pytest.raises(ValidationError, match="max_checks must be an integer"):
            OracleBudget(max_checks=checks)
    assert OracleBudget(max_checks=1).max_checks == 1


def test_hand_predicate_minimum():
    costs = {0: Fraction(3), 1: Fraction(2), 2: Fraction(2)}
    for budget in BOTH:
        res = minimum_cost_subset(
            costs, costs, lambda s: len(s) >= 2, budget=budget
        )
        assert (res.feasible, res.cost, res.edges) == (True, 4, frozenset({1, 2}))


def test_equal_cost_ties_break_lexicographically():
    ids = [0, 1, 2, 3]
    unit = {eid: Fraction(1) for eid in ids}
    free = {eid: Fraction(0) for eid in ids}
    for budget in BOTH:
        res = minimum_cost_subset(ids, unit, lambda s: len(s) >= 2, budget=budget)
        assert res.edges == frozenset({0, 1})
        # zero-cost ids are not padded in either: {0} sorts before {0, 1}
        res = minimum_cost_subset(ids, free, lambda s: len(s) >= 1, budget=budget)
        assert res.cost == 0 and res.edges == frozenset({0})


def test_infeasible_predicate():
    for budget in BOTH:
        res = minimum_cost_subset(
            [0, 1], {0: Fraction(1), 1: Fraction(1)}, lambda s: False, budget=budget
        )
        assert (res.feasible, res.cost, res.edges) == (False, None, None)


def test_exact_opt_hand_instances():
    # a 5-cycle of unsafe edges must be bought whole to survive one failure
    c5 = MultiGraph.build(5, [
        (v, (v + 1) % 5, Fraction(1), False) for v in range(5)
    ])
    res = exact_opt(FgcInstance.uniform(c5, 1, 1))
    assert (res.feasible, res.cost, res.edges) == (True, 5, c5.edge_ids)

    lone = MultiGraph.build(2, [(0, 1, Fraction(7), True)])
    res = exact_opt(FgcInstance(lone, {(0, 1): (1, 1)}))
    assert (res.feasible, res.cost, res.edges) == (True, 7, frozenset({0}))

    path = MultiGraph.build(3, [
        (0, 1, Fraction(1), True),
        (1, 2, Fraction(1), True),
    ])
    res = exact_opt(SndpInstance(path, {(0, 2): 2}))
    assert (res.feasible, res.cost, res.edges) == (False, None, None)


def test_negative_costs_are_rejected():
    with pytest.raises(ValidationError):
        minimum_cost_subset([0], {0: Fraction(-1)}, lambda s: True)


@pytest.mark.parametrize("budget", BOTH, ids=lambda b: b.strategy)
def test_ids_without_a_cost_are_rejected(budget):
    with pytest.raises(ValidationError, match=r"^no cost for id 1$"):
        minimum_cost_subset([0, 1], {0: Fraction(1)}, lambda s: True, budget=budget)


def test_strategies_agree_on_random_monotone_predicates():
    rng = random.Random(7)
    for _ in range(20):
        m = rng.randint(1, 8)
        ids = list(range(m))
        costs = {eid: Fraction(rng.randint(0, 5)) for eid in ids}
        weights = {eid: rng.randint(0, 2) for eid in ids}
        need = rng.randint(0, 6)

        def pred(subset, weights=weights, need=need):
            return sum(weights[eid] for eid in subset) >= need

        results = [
            minimum_cost_subset(ids, costs, pred, budget=b) for b in BOTH
        ]
        assert results[0] == results[1]


def _fraction_key_optimum(ids, costs, pred):
    """The cheapest subset by exact `Fraction` sums, ties to the smallest
    sorted ids, over every subset of ids."""
    best = None
    for size in range(len(ids) + 1):
        for subset in itertools.combinations(sorted(ids), size):
            if pred(frozenset(subset)):
                key = (sum((costs[e] for e in subset), Fraction(0)), subset)
                best = key if best is None or key < best else best
    return best


def test_integer_keys_match_fraction_keys():
    rng = random.Random(16)
    for trial in range(60):
        m = rng.randint(1, 8)
        ids = list(range(m))
        # thirds and sevenths, zeros, and repeated values for ties
        values = [Fraction(0), Fraction(rng.randint(1, 6), rng.choice([1, 3, 7]))]
        values += [Fraction(rng.randint(0, 9), rng.choice([3, 7, 21]))]
        costs = {eid: rng.choice(values) for eid in ids}
        weights = {eid: rng.randint(0, 2) for eid in ids}
        need = rng.randint(0, 5)

        def pred(subset, weights=weights, need=need):
            return sum(weights[eid] for eid in subset) >= need

        expected = _fraction_key_optimum(ids, costs, pred)
        for budget in BOTH:
            res = minimum_cost_subset(ids, costs, pred, budget=budget)
            if expected is None:
                assert not res.feasible
                continue
            assert res.edges == frozenset(expected[1])
            assert type(res.cost) is Fraction and res.cost == expected[0]


def _random_costs(rng, ids):
    # zero costs let a superset win: its key (0, 5) sorts before (5,)
    return {
        eid: Fraction(rng.choice([0, 0, 1, 2, 5]), rng.choice([1, 3]))
        for eid in ids
    }


def _random_family(rng, ids, share):
    """A predicate true on a random, not monotone, family of subsets."""
    family = {
        frozenset(subset)
        for size in range(len(ids) + 1)
        for subset in itertools.combinations(ids, size)
        if rng.random() < share
    }
    return family.__contains__


def test_enumeration_needs_no_monotone_predicate():
    enumerate_ = OracleBudget(strategy="enumerate")
    # {0, 5} costs what {5} costs and sorts first, although {5} is asked first
    res = minimum_cost_subset(
        [0, 5], {0: Fraction(0), 5: Fraction(1)},
        lambda s: s in ({5}, {0, 5}), budget=enumerate_,
    )
    assert res.edges == frozenset({0, 5})
    rng = random.Random(24)
    for trial in range(80):
        ids = list(range(rng.randint(1, 8)))
        costs = _random_costs(rng, ids)
        pred = _random_family(rng, ids, rng.choice([0.05, 0.2, 0.6]))
        expected = _fraction_key_optimum(ids, costs, pred)
        res = minimum_cost_subset(ids, costs, pred, budget=enumerate_)
        if expected is None:
            assert (res.feasible, res.cost, res.edges) == (False, None, None)
        else:
            assert (res.cost, res.edges) == (expected[0], frozenset(expected[1]))


def test_enumeration_asks_exactly_the_keys_below_the_optimum_in_order():
    """Best-first: `enumerate` asks every subset keyed below the optimum,
    in increasing key order, then the optimum, and stops; the reference
    sorts all 2^m keys by brute force."""
    rng = random.Random(25)
    for trial in range(120):
        ids = list(range(rng.randint(0, 8)))
        costs = _random_costs(rng, ids)
        pred = _random_family(rng, ids, rng.choice([0.0, 0.05, 0.3]))
        asked = []

        def recording(subset, pred=pred):
            asked.append(tuple(sorted(subset)))
            return pred(subset)

        res = minimum_cost_subset(
            ids, costs, recording, budget=OracleBudget(strategy="enumerate")
        )
        ranked = sorted(
            (subset for size in range(len(ids) + 1)
             for subset in itertools.combinations(ids, size)),
            key=lambda subset: (sum((costs[e] for e in subset), Fraction(0)), subset),
        )
        feasible = [rank for rank, subset in enumerate(ranked) if pred(frozenset(subset))]
        stop = feasible[0] + 1 if feasible else len(ranked)
        assert asked == ranked[:stop], trial
        assert res.feasible == bool(feasible)
        if feasible:
            assert res.edges == frozenset(ranked[feasible[0]])


def test_branch_and_bound_never_asks_a_subset_twice(monkeypatch):
    real = oracle._branch_and_bound
    asked = []

    def recording(order, scaled, predicate, budget):
        asked.append([])

        def recorded(subset):
            asked[-1].append(subset)
            return predicate(subset)

        return real(order, scaled, recorded, budget)

    monkeypatch.setattr(oracle, "_branch_and_bound", recording)
    for kind in REPORT_KINDS:
        for seed in range(3):
            exact_opt(gen_instance(kind, seed))
            assert len(set(asked[-1])) == len(asked[-1]), (kind, seed)


def test_enumeration_asks_fewer_subsets_on_generated_instances(monkeypatch):
    real = oracle._enumerate_all
    asked = []

    def counting(order, costs, predicate, budget):
        asked.append(0)

        def counted(subset):
            asked[-1] += 1
            return predicate(subset)

        return real(order, costs, counted, budget)

    monkeypatch.setattr(oracle, "_enumerate_all", counting)
    keyed = 0
    for kind in REPORT_KINDS:
        for seed in range(4):
            instance = gen_instance(kind, seed)
            res = exact_opt(instance, budget=OracleBudget(strategy="enumerate"))
            assert res == exact_opt(instance)
            # costs are positive, so only an optimum that is the whole edge
            # set leaves every subset below the best key until the end
            subsets = 2 ** len(instance.graph.edge_ids)
            if res.edges == instance.graph.edge_ids:
                assert asked[-1] == subsets, (kind, seed)
            else:
                assert asked[-1] < subsets, (kind, seed)
            keyed += subsets
    assert 2 * sum(asked) < keyed


def test_branch_and_bound_runs_deeper_than_the_recursion_limit(monkeypatch):
    """1,100 parallel safe edges make the search 1,100 decisions deep, past
    Python's default recursion limit; its explicit stack makes the 1,467
    predicate calls a recursive descent makes once the limit is raised, one
    per distinct subset."""
    g = MultiGraph.build(2, [(0, 1, 1 + eid % 3, True) for eid in range(1100)])
    asked = []
    verify = oracle.verify_fgc
    monkeypatch.setattr(oracle, "verify_fgc", lambda inst, s: asked.append(s) or verify(inst, s))
    res = exact_opt(FgcInstance(g, {(0, 1): (1, 0)}))
    assert (res.feasible, res.cost, res.edges) == (True, 1, frozenset({0}))
    assert len(asked) == len(set(asked)) == 1467


def test_check_budget_refusals():
    ids = list(range(6))
    costs = {eid: Fraction(1) for eid in ids}
    with pytest.raises(OracleRefusalError):
        minimum_cost_subset(
            ids, costs, lambda s: len(s) >= 3, budget=OracleBudget(max_checks=2)
        )
    # enumeration refuses before checking anything at all
    calls = []
    with pytest.raises(OracleRefusalError):
        minimum_cost_subset(
            ids,
            costs,
            lambda s: calls.append(1) or True,
            budget=OracleBudget(max_checks=32, strategy="enumerate"),
        )
    assert not calls


def test_time_budget_refusal():
    ids = list(range(4))
    costs = {eid: Fraction(1) for eid in ids}

    # false on small sets: enumeration asks the free empty set first, and
    # an always-true predicate would end it after that one check
    def slow(subset):
        time.sleep(0.002)
        return len(subset) >= 3

    for strategy in ("bnb", "enumerate"):
        with pytest.raises(OracleRefusalError, match="time limit"):
            minimum_cost_subset(
                ids, costs, slow,
                budget=OracleBudget(time_limit=1e-9, strategy=strategy),
            )


def test_enumeration_over_many_subsets_matches_bnb():
    ids = list(range(13))
    costs = {eid: Fraction(eid % 3) for eid in ids}

    def pred(subset):
        return sum(eid for eid in subset) >= 40

    results = [
        minimum_cost_subset(
            ids, costs, pred,
            budget=OracleBudget(max_checks=10**5, strategy=strategy),
        )
        for strategy in ("enumerate", "enumerate", "bnb")
    ]
    assert results[0] == results[1] == results[2]


def test_exact_opt_dispatch():
    g = MultiGraph.build(3, [
        (0, 1, Fraction(1), True),
        (1, 2, Fraction(1), True),
        (0, 2, Fraction(5), True),
    ])
    res = exact_opt(SndpInstance(g, {(0, 2): 1}))
    assert res.cost == 2 and res.edges == frozenset({0, 1})
    with pytest.raises(ValidationError):
        exact_opt(object())


PREDICATES = {
    "verify_fgc": lambda g: FgcInstance(g, {(0, 1): (1, 1)}),
    "check_capacitated_cuts": lambda g: CapNdpInstance(g, {0: 1}, {(0, 1): 1}),
    "verify_fst": lambda g: FstInstance(g, {0, 1}),
    "verify_ncfgc": lambda g: NcFgcInstance(g, {0}, 1),
    "_sndp_feasible": lambda g: SndpInstance(g, {(0, 1): 1}),
}


def test_exact_opt_looks_predicates_up_when_called(monkeypatch):
    # tracers wrap these module attributes after import; a table bound at
    # import time would bypass the wrappers without any error
    calls = dict.fromkeys(PREDICATES, 0)
    for name in PREDICATES:
        real = getattr(oracle, name)

        def counted(*args, name=name, real=real, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle, name, counted)
    lone = MultiGraph.build(2, [(0, 1, Fraction(1), True)])
    for make in PREDICATES.values():
        assert exact_opt(make(lone)).edges == frozenset({0})
    assert all(count > 0 for count in calls.values()), calls


def test_ratio_report_on_a_free_optimum():
    # an optimum of cost 0 reports ratio 1 instead of dividing by it
    g = MultiGraph.build(2, [(0, 1, Fraction(0), True)])
    (entry,) = ratio_report("fst", [("free", FstInstance(g, {0, 1}))]).entries
    assert (entry.solver_cost, entry.opt_cost, entry.ratio, entry.within) == (0, 0, 1, True)


def test_ratio_report_contents_and_render():
    instances = [
        (f"fgc-q1-{seed}", gen_instance("fgc-q1", seed)) for seed in (3, 4)
    ]
    report = ratio_report("fgc-q1", instances)
    assert report.kind == "fgc-q1" and len(report.entries) == 2
    for entry in report.entries:
        assert entry.ratio == entry.solver_cost / entry.opt_cost
        assert entry.within == (entry.solver_cost <= entry.bound * entry.opt_cost)
    text = report.render()
    lines = text.splitlines()
    assert lines[0] == "kind=fgc-q1 instances=2"
    assert lines[1].startswith("name=fgc-q1-3 solver=")
    assert lines[-1].startswith("summary worst=")
    assert text == report.render()
    assert report.worst() == max(e.ratio for e in report.entries)
    with pytest.raises(ValidationError):
        ratio_report("mst", instances)
