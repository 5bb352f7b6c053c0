"""Cut LP solver: exact vertices, certified objectives, oracle contract."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flexconn import (
    CutRow,
    LpInfeasibleError,
    LpResourceError,
    OracleContractError,
    solve_cut_lp,
)

scipy_opt = pytest.importorskip("scipy.optimize")


def static_oracle(rows):
    def oracle(x):
        for r in rows:
            if sum(x[e] for e in r.edge_ids) < r.rhs:
                return r
        return None
    return oracle


@pytest.fixture
def exact_fallbacks(monkeypatch):
    """Records every `_simplex(exact=True)` call, i.e. every vertex the float
    tableau failed to deliver in certifiable form."""
    from flexconn import lp

    calls = []
    real = lp._simplex

    def spy(k, rows, costs, exact):
        calls.append(exact)
        return real(k, rows, costs, exact)

    monkeypatch.setattr(lp, "_simplex", spy)
    return calls


def test_triangle_cover_has_half_integral_vertex():
    # cover three overlapping pairs; the optimum sits at x = 1/2 everywhere
    rows = [
        CutRow(frozenset({0, 1}), Fraction(1)),
        CutRow(frozenset({1, 2}), Fraction(1)),
        CutRow(frozenset({0, 2}), Fraction(1)),
    ]
    costs = {i: Fraction(1) for i in range(3)}
    sol = solve_cut_lp(costs, {}, static_oracle(rows))
    assert sol.objective == Fraction(3, 2)
    assert sol.is_vertex
    assert all(sol.x[i] == Fraction(1, 2) for i in range(3))
    assert tuple(sol.fractional_ids()) == (0, 1, 2)


def test_unconstrained_edges_stay_at_zero():
    rows = [CutRow(frozenset({0}), Fraction(1))]
    costs = {0: Fraction(2), 1: Fraction(5)}
    sol = solve_cut_lp(costs, {}, static_oracle(rows))
    assert sol.x == {0: Fraction(1), 1: Fraction(0)}
    assert sol.objective == 2


def test_fixed_edges_cover_rows_and_pay_their_cost():
    rows = [CutRow(frozenset({0, 1}), Fraction(1))]
    costs = {0: Fraction(3), 1: Fraction(1)}
    sol = solve_cut_lp(costs, {0: 1}, static_oracle(rows))
    assert sol.x == {0: Fraction(1), 1: Fraction(0)}
    assert sol.objective == 3
    sol = solve_cut_lp(costs, {1: 0}, static_oracle(rows))
    assert sol.x == {0: Fraction(1), 1: Fraction(0)}


def test_infeasible_row_detected():
    rows = [CutRow(frozenset({0, 1}), Fraction(2))]
    costs = {0: Fraction(1), 1: Fraction(1)}
    with pytest.raises(LpInfeasibleError):
        solve_cut_lp(costs, {1: 0}, static_oracle(rows))
    with pytest.raises(LpInfeasibleError):
        solve_cut_lp(costs, {}, static_oracle([CutRow(frozenset({0}), Fraction(3))]))


def test_oracle_must_name_known_edges():
    def oracle(x):
        return CutRow(frozenset({99}), Fraction(1))
    with pytest.raises(OracleContractError):
        solve_cut_lp({0: Fraction(1)}, {}, oracle)


def test_oracle_must_return_violated_rows():
    # claims a violation that the current point already satisfies
    def oracle(x):
        return CutRow(frozenset({0}), Fraction(0))
    with pytest.raises(OracleContractError):
        solve_cut_lp({0: Fraction(1)}, {}, oracle)


def test_row_budget_enforced():
    rows = [CutRow(frozenset({i}), Fraction(1)) for i in range(5)]
    costs = {i: Fraction(1) for i in range(5)}
    with pytest.raises(LpResourceError):
        solve_cut_lp(costs, {}, static_oracle(rows), max_rows=2)


def test_validates_costs_and_fixed():
    with pytest.raises(Exception):
        solve_cut_lp({0: Fraction(-1)}, {}, static_oracle([]))
    with pytest.raises(Exception):
        solve_cut_lp({0: Fraction(1)}, {0: 2}, static_oracle([]))


def _random_problem(rng):
    k = rng.randint(1, 8)
    ids = list(range(k))
    costs = {i: Fraction(rng.randint(0, 9), rng.choice([1, 2])) for i in ids}
    rows = []
    for _ in range(rng.randint(1, 6)):
        size = rng.randint(1, k)
        members = frozenset(rng.sample(ids, size))
        rows.append(CutRow(members, Fraction(rng.randint(1, size))))
    fixed = {}
    for i in ids:
        if rng.random() < 0.2:
            fixed[i] = rng.choice([0, 1])
    satisfiable = all(
        sum(1 for e in r.edge_ids if fixed.get(e) != 0) >= r.rhs for r in rows
    )
    return ids, costs, rows, fixed, satisfiable


def test_matches_reference_lp_solver(exact_fallbacks):
    import numpy as np

    rng = random.Random(20)
    compared = 0
    for _ in range(150):
        ids, costs, rows, fixed, satisfiable = _random_problem(rng)
        if not satisfiable:
            with pytest.raises(LpInfeasibleError):
                solve_cut_lp(costs, fixed, static_oracle(rows))
            continue
        sol = solve_cut_lp(costs, fixed, static_oracle(rows))
        for r in rows:
            assert sum(sol.x[e] for e in r.edge_ids) >= r.rhs
        for i in ids:
            assert 0 <= sol.x[i] <= 1
            if i in fixed:
                assert sol.x[i] == fixed[i]
        free = [i for i in ids if i not in fixed]
        if not free:
            continue
        c = np.array([float(costs[i]) for i in free])
        a_ub, b_ub = [], []
        for r in rows:
            a_ub.append([-1.0 if i in r.edge_ids else 0.0 for i in free])
            covered = sum(1 for e in r.edge_ids if fixed.get(e) == 1)
            b_ub.append(-(float(r.rhs) - covered))
        res = scipy_opt.linprog(
            c, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
            bounds=[(0, 1)] * len(free), method="highs",
        )
        assert res.status == 0
        reference = res.fun + sum(
            float(costs[i]) for i in ids if fixed.get(i) == 1
        )
        assert abs(float(sol.objective) - reference) < 1e-7
        compared += 1
    assert compared > 50
    assert exact_fallbacks == []


def test_deterministic_resolve():
    rng = random.Random(4)
    for _ in range(20):
        ids, costs, rows, fixed, satisfiable = _random_problem(rng)
        if not satisfiable:
            continue
        a = solve_cut_lp(costs, fixed, static_oracle(rows))
        b = solve_cut_lp(costs, fixed, static_oracle(rows))
        assert a.x == b.x and a.objective == b.objective
    for seed in range(20):
        ids, costs, rows = _thirds_problem(random.Random(seed))
        a = solve_cut_lp(costs, {}, static_oracle(rows))
        b = solve_cut_lp(costs, {}, static_oracle(rows))
        assert a.x == b.x and a.rows == b.rows


@given(st.integers(0, 10_000))
def test_single_row_closed_form(seed):
    rng = random.Random(seed)
    k = rng.randint(1, 6)
    costs = {i: Fraction(rng.randint(1, 9)) for i in range(k)}
    need = rng.randint(1, k)
    row = CutRow(frozenset(range(k)), Fraction(need))
    sol = solve_cut_lp(costs, {}, static_oracle([row]))
    cheapest = sorted(costs.values())[:need]
    assert sol.objective == sum(cheapest, Fraction(0))


def test_basis_read_against_other_rows_is_an_error(monkeypatch):
    from flexconn import SolverError, lp

    solve = lp._DualTableau.solve

    def short_basis(self):
        y, basis = solve(self)
        return y, basis[:-1]

    monkeypatch.setattr(lp._DualTableau, "solve", short_basis)
    rows = [CutRow(frozenset({0, 1}), Fraction(1))]
    with pytest.raises(SolverError):
        solve_cut_lp({0: Fraction(1), 1: Fraction(2)}, {}, static_oracle(rows))


def _thirds_problem(rng):
    """Rows with thirds on the right, so vertices have thirds that no float
    holds exactly."""
    k = rng.randint(3, 8)
    ids = list(range(k))
    costs = {i: Fraction(rng.randint(1, 4)) for i in ids}
    rows = []
    for _ in range(rng.randint(2, 8)):
        size = rng.randint(2, min(4, k))
        members = frozenset(rng.sample(ids, size))
        rows.append(CutRow(members, Fraction(rng.randint(1, 3 * size - 1), 3)))
    return ids, costs, rows


def _tight_rows(ids, x):
    """Every row over two or more ids that holds with equality at `x` and has
    a fractional right-hand side."""
    import itertools

    out = []
    for size in range(2, len(ids) + 1):
        for s in itertools.combinations(ids, size):
            rhs = sum(x[e] for e in s)
            if rhs.denominator > 1:
                out.append(CutRow(frozenset(s), rhs))
    return out


def _highs_objective(ids, costs, rows):
    import numpy as np

    res = scipy_opt.linprog(
        np.array([float(costs[i]) for i in ids]),
        A_ub=np.array([[-1.0 if i in r.edge_ids else 0.0 for i in ids] for r in rows]),
        b_ub=np.array([-float(r.rhs) for r in rows]),
        bounds=[(0, 1)] * len(ids), method="highs",
    )
    assert res.status == 0
    return res.fun


def test_rows_one_at_a_time_match_reference(exact_fallbacks):
    # The second solve of each problem also meets rows that are tight at its
    # optimal vertex; at the float vertex they can read as violated by a
    # rounding error, and each such fresh row must go to the live tableau
    # rather than send a stale basis to exact recovery.
    barely_violated = 0
    for seed in range(60):
        rng = random.Random(seed)
        ids, costs, rows = _thirds_problem(rng)
        first = solve_cut_lp(costs, {}, static_oracle(rows))
        assert abs(float(first.objective) - _highs_objective(ids, costs, rows)) < 1e-7
        pool = rows + _tight_rows(ids, first.x)

        def oracle(x):
            nonlocal barely_violated
            for r in pool:
                gap = r.rhs - sum(x[e] for e in r.edge_ids)
                if gap > 0:
                    barely_violated += gap < Fraction(1, 10**7)
                    return r
            return None

        sol = solve_cut_lp(costs, {}, oracle)
        assert sol.objective == first.objective
        assert all(sum(sol.x[e] for e in r.edge_ids) >= r.rhs for r in pool)
    assert barely_violated > 0
    assert exact_fallbacks == []


def test_fgc_instances_never_take_the_exact_fallback(exact_fallbacks):
    # Two of these seeds meet a fresh cut that the float vertex violates by
    # less than 1e-7; a float basis read against the row set one row longer
    # than the one it was computed for sends them to the exact simplex.
    from flexconn.fgc import solve_fgc
    from flexconn.generators import GenConfig, gen_fgc

    cfg = GenConfig(nodes=(12, 12), extra_edges=(12, 12), pairs=(3, 3),
                    max_p=2, max_q=2)
    for seed in range(12):
        result = solve_fgc(gen_fgc(seed, regime="q1", cfg=cfg))
        assert result.cost <= 2 * result.lp_objective
    assert exact_fallbacks == []


def test_dense_rooted_lp_leaves_a_cycle_by_blands_rule(exact_fallbacks, monkeypatch):
    # On this dense ncfgc instance the most-infeasible leaving rule cycles
    # until the pivot cap; past the cap Bland's rule must finish the float
    # stage instead of a stall handing the LP to the exact simplex.
    from flexconn import lp
    from flexconn.generators import GenConfig, random_multigraph
    from flexconn.ncfgc import NcFgcInstance, solve_p_ncfgc

    solve = lp._DualTableau.solve

    def no_stall(self):
        try:
            return solve(self)
        except lp._SimplexStall:
            pytest.fail(f"float tableau stalled on {self.rows} rows")

    monkeypatch.setattr(lp._DualTableau, "solve", no_stall)
    rng = random.Random("sweep/20/1/28")
    g = random_multigraph(rng, GenConfig(nodes=(20, 20), extra_edges=(40, 60)))
    share = rng.choice([0.1, 0.3, 0.5, 0.8])
    safe = {v for v in range(g.n) if rng.random() < share}
    result = solve_p_ncfgc(NcFgcInstance(g, safe, 1))
    assert result.cost <= result.rooted_cost == Fraction(103, 4)
    assert exact_fallbacks == []
