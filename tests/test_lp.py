"""Cut LP solver: exact vertices, certified objectives, oracle contract."""

import random
from fractions import Fraction
from typing import Sequence

import numpy as np
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
from flexconn.lp import _FLOAT_TOL, _TIE, _SimplexStall

scipy_opt = pytest.importorskip("scipy.optimize")


def static_oracle(rows):
    """The first row of `rows` violated at x, as a batch of one, or no row."""
    def oracle(x):
        for r in rows:
            if sum(Fraction(x[e]) for e in r.edge_ids) < r.rhs:
                return [r]
        return []
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
    sol = solve_cut_lp(costs, static_oracle(rows))
    assert sol.objective == Fraction(3, 2)
    assert all(sol.x[i] == Fraction(1, 2) for i in range(3))
    assert tuple(sol.fractional_ids()) == (0, 1, 2)


def test_unconstrained_edges_stay_at_zero():
    rows = [CutRow(frozenset({0}), Fraction(1))]
    costs = {0: Fraction(2), 1: Fraction(5)}
    sol = solve_cut_lp(costs, static_oracle(rows))
    assert sol.x == {0: Fraction(1), 1: Fraction(0)}
    assert sol.objective == 2


def test_infeasible_row_detected():
    rows = [CutRow(frozenset({0, 1}), Fraction(3))]
    costs = {0: Fraction(1), 1: Fraction(1)}
    with pytest.raises(LpInfeasibleError):
        solve_cut_lp(costs, static_oracle(rows))
    with pytest.raises(LpInfeasibleError):
        solve_cut_lp(costs, static_oracle([CutRow(frozenset({0}), Fraction(3))]))


def test_lp_without_variables():
    # the float tableau over no columns solves at once: objective 0
    sol = solve_cut_lp({}, lambda x: [])
    assert (sol.x, sol.objective, sol.rows) == ({}, 0, ())
    # a row over no edges cannot be met once it asks for anything
    for rhs in (1, 2):
        with pytest.raises(LpInfeasibleError, match=f"cut needs {rhs} but only 0"):
            solve_cut_lp({}, static_oracle([CutRow(frozenset(), Fraction(rhs))]))


def test_oracle_must_name_known_edges():
    def oracle(x):
        return [CutRow(frozenset({99}), Fraction(1))]
    with pytest.raises(OracleContractError):
        solve_cut_lp({0: Fraction(1)}, oracle)


def test_oracle_must_return_violated_rows():
    # claims a violation that the current point already satisfies
    def oracle(x):
        return [CutRow(frozenset({0}), Fraction(0))]
    with pytest.raises(OracleContractError):
        solve_cut_lp({0: Fraction(1)}, oracle)


def test_every_row_of_a_batch_joins_before_the_next_solve():
    # the three rows come in one call at x = 0; the float vertex after them
    # meets all three, and so does the exact one
    rows = [
        CutRow(frozenset({0, 1}), Fraction(1)),
        CutRow(frozenset({1, 2}), Fraction(1)),
        CutRow(frozenset({0, 2}), Fraction(1)),
    ]
    points = []

    def oracle(x):
        points.append(dict(x))
        return [r for r in rows if sum(x[e] for e in r.edge_ids) < r.rhs]

    sol = solve_cut_lp({i: Fraction(1) for i in range(3)}, oracle)
    assert sol.rows == tuple(rows)
    assert sol.objective == Fraction(3, 2)
    assert len(points) == 3 and points[0] == {0: 0, 1: 0, 2: 0}


def test_known_rows_at_the_exact_vertex_break_the_contract():
    # the row is new at x = 0, silent at the float vertex and given again
    # at the exact one, which already meets it
    row = CutRow(frozenset({0, 1}), Fraction(1))
    answers = iter([[row], [], [row]])
    with pytest.raises(OracleContractError):
        solve_cut_lp({0: Fraction(1), 1: Fraction(2)}, lambda x: next(answers))


@pytest.mark.parametrize("exact", [False, True])
def test_rows_as_one_block_or_blocks_of_one_reach_one_vertex(exact):
    # Each problem is solved twice on a live tableau, its rows in two
    # halves with a solve after each: once each half as one block, once
    # row by row.  The bases, and the vertices they certify, must agree.
    from flexconn import lp

    fractional = 0
    for seed in range(40):
        k, cvec, active = _thirds_lp(seed)
        halves = [active[:len(active) // 2], active[len(active) // 2:]]

        def solve_in(blocks_of_each_half):
            tableau = lp._DualTableau(k, cvec, exact=exact)
            for blocks in blocks_of_each_half:
                for block in blocks:
                    tableau.add_rows(block)
                _, basis, upper = tableau.solve()
            return basis, upper

        basis, upper = solve_in([[half] for half in halves])
        assert solve_in([[[row] for row in half] for half in halves]) == (basis, upper)
        assert_basis_contract(k, len(active), basis, upper)
        y = lp._primal_from_basis(k, active, basis, upper)
        assert y is not None and lp._dual_certifies(k, active, cvec, basis, upper)
        fractional += any(v.denominator > 1 for v in y)
    assert fractional > 10


def test_row_budget_enforced():
    rows = [CutRow(frozenset({i}), Fraction(1)) for i in range(5)]
    costs = {i: Fraction(1) for i in range(5)}
    with pytest.raises(LpResourceError):
        solve_cut_lp(costs, static_oracle(rows), max_rows=2)


def test_validates_costs():
    with pytest.raises(Exception):
        solve_cut_lp({0: Fraction(-1)}, static_oracle([]))


def _random_problem(rng):
    """A random cut LP with a random 0/1 fixing substituted into it, as
    iterative rounding does: the costs and rows name the free edges only,
    and each row asks for its rhs less its edges fixed at 1.  Returns (free
    ids, costs, rows, whether every row asks for at most its edge count)."""
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
    free = [i for i in ids if i not in fixed]
    residual = [
        CutRow(
            frozenset(e for e in r.edge_ids if e not in fixed),
            r.rhs - sum(1 for e in r.edge_ids if fixed.get(e) == 1),
        )
        for r in rows
    ]
    satisfiable = all(len(r.edge_ids) >= r.rhs for r in residual)
    return free, {i: costs[i] for i in free}, residual, satisfiable


def _compare_with_highs():
    """Solves 150 problems seeded by 20, checks each solution and the
    objective against scipy's highs, and returns how many were compared."""
    rng = random.Random(20)
    compared = 0
    for _ in range(150):
        ids, costs, rows, satisfiable = _random_problem(rng)
        if not satisfiable:
            with pytest.raises(LpInfeasibleError):
                solve_cut_lp(costs, static_oracle(rows))
            continue
        sol = solve_cut_lp(costs, static_oracle(rows))
        for r in rows:
            assert sum(sol.x[e] for e in r.edge_ids) >= r.rhs
        for i in ids:
            assert type(sol.x[i]) is Fraction
            assert 0 <= sol.x[i] <= 1
        if not ids:
            continue
        assert abs(float(sol.objective) - _highs_objective(ids, costs, rows)) < 1e-7
        compared += 1
    return compared


def test_matches_reference_lp_solver(exact_fallbacks):
    assert _compare_with_highs() > 50
    assert exact_fallbacks == []


def _stall_float_tableaus(monkeypatch):
    """Stalls every float tableau, so every vertex comes from the exact
    fallback, and checks that each exact tableau ends holding `Fraction`s
    only and with a basis that keeps `assert_basis_contract`.  Returns a list
    that collects the y values of every exact solve."""
    import numpy as np

    from flexconn import lp

    solve = lp._DualTableau.solve
    solved = []

    def stall_float(self):
        if self.dtype is not object:
            raise lp._SimplexStall
        y, basis, upper = solve(self)
        for values in (self.tab, self.beta, self.d, y):
            assert all(type(v) is Fraction for v in np.ravel(values))
        assert_basis_contract(self.k, self.rows, basis, upper)
        solved.append(y)
        return y, basis, upper

    monkeypatch.setattr(lp._DualTableau, "solve", stall_float)
    return solved


def test_exact_fallback_matches_reference_lp_solver(monkeypatch):
    solved = _stall_float_tableaus(monkeypatch)
    assert _compare_with_highs() > 50
    assert len(solved) > 50


def test_exact_fallback_solves_like_the_float_stage(monkeypatch):
    # The LP optimum is one number whichever simplex reaches it, so the
    # solvers' LP values must not move when every vertex comes from the
    # exact fallback.  ncfgc seed 9 stalls if a float creeps into the
    # exact tableau.
    from flexconn.fgc import solve_fgc
    from flexconn.fst import solve_fst
    from flexconn.generators import GenConfig, gen_fgc, gen_fst, gen_ncfgc
    from flexconn.ncfgc import solve_p_ncfgc

    cfg = GenConfig(nodes=(5, 7), extra_edges=(3, 6))

    def lp_values():
        return (
            [solve_fgc(gen_fgc(s, regime=regime, cfg=cfg)).lp_objective
             for regime in ("q1", "p1") for s in range(3)]
            + [solve_fst(gen_fst(s, cfg=cfg)).lp_objective for s in range(3)]
            + [solve_p_ncfgc(gen_ncfgc(s, cfg=cfg)).rooted_cost for s in (2, 9, 14)]
        )

    by_float = lp_values()
    solved = _stall_float_tableaus(monkeypatch)
    assert lp_values() == by_float
    assert len(solved) >= len(by_float)


def test_deterministic_resolve():
    rng = random.Random(4)
    for _ in range(20):
        ids, costs, rows, satisfiable = _random_problem(rng)
        if not satisfiable:
            continue
        a = solve_cut_lp(costs, static_oracle(rows))
        b = solve_cut_lp(costs, static_oracle(rows))
        assert a.x == b.x and a.objective == b.objective
    for seed in range(20):
        ids, costs, rows = _thirds_problem(random.Random(seed))
        a = solve_cut_lp(costs, static_oracle(rows))
        b = solve_cut_lp(costs, static_oracle(rows))
        assert a.x == b.x and a.rows == b.rows


@given(st.integers(0, 10_000))
def test_single_row_closed_form(seed):
    rng = random.Random(seed)
    k = rng.randint(1, 6)
    costs = {i: Fraction(rng.randint(1, 9)) for i in range(k)}
    need = rng.randint(1, k)
    row = CutRow(frozenset(range(k)), Fraction(need))
    sol = solve_cut_lp(costs, static_oracle([row]))
    cheapest = sorted(costs.values())[:need]
    assert sol.objective == sum(cheapest, Fraction(0))


def test_basis_read_against_other_rows_is_an_error(monkeypatch):
    from flexconn import SolverError, lp

    solve = lp._DualTableau.solve

    def short_basis(self):
        y, basis, upper = solve(self)
        return y, basis[:-1], upper

    monkeypatch.setattr(lp._DualTableau, "solve", short_basis)
    rows = [CutRow(frozenset({0, 1}), Fraction(1))]
    with pytest.raises(SolverError):
        solve_cut_lp({0: Fraction(1), 1: Fraction(2)}, static_oracle(rows))


def test_exact_basis_that_does_not_certify_is_an_error(exact_fallbacks, monkeypatch):
    from flexconn import SolverError, lp

    monkeypatch.setattr(lp, "_dual_certifies", lambda k, rows, costs, basis, upper: False)
    rows = [CutRow(frozenset({0, 1}), Fraction(1))]
    with pytest.raises(SolverError, match="does not certify"):
        solve_cut_lp({0: Fraction(1), 1: Fraction(2)}, static_oracle(rows))
    assert exact_fallbacks == [True]


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


def _thirds_lp(seed):
    """The problem `_thirds_problem` draws from `seed`, as the tableau takes
    it: (k, costs, rows), each row (cols, cap) in y = 1 - x."""
    ids, costs, rows = _thirds_problem(random.Random(seed))
    active = [(tuple(sorted(r.edge_ids)), len(r.edge_ids) - r.rhs) for r in rows]
    return len(ids), [costs[i] for i in ids], active


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
        first = solve_cut_lp(costs, static_oracle(rows))
        assert abs(float(first.objective) - _highs_objective(ids, costs, rows)) < 1e-7
        pool = rows + _tight_rows(ids, first.x)

        def oracle(x):
            nonlocal barely_violated
            for r in pool:
                gap = r.rhs - sum(Fraction(x[e]) for e in r.edge_ids)
                if gap > 0:
                    barely_violated += gap < Fraction(1, 10**7)
                    return [r]
            return []

        sol = solve_cut_lp(costs, oracle)
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


# Reference oracles: the `Fraction` Gauss-Jordan certification that the
# fraction-free elimination replaced.  A nonsingular system has one solution
# whatever method finds it, so the two must agree on every input.

def ref_solve_square(mat, rhs):
    n = len(mat)
    a = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def ref_det(mat):
    a = [[Fraction(v) for v in row] for row in mat]
    n, det = len(a), Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return det


def ref_decode(k, rows, basis, upper):
    """Values of the y at a bound (None where basic) and the tight rows."""
    y = [None if j in basis else Fraction(j in upper) for j in range(k)]
    tight = [r for r in range(len(rows)) if k + r not in basis]
    return y, tight


def ref_primal_from_basis(k, rows, basis, upper):
    y, tight = ref_decode(k, rows, basis, upper)
    unknown = [j for j in range(k) if y[j] is None]
    if len(tight) != len(unknown):
        return None
    upos = {j: i for i, j in enumerate(unknown)}
    mat, rhs = [], []
    for r in tight:
        cols, cap = rows[r]
        vec = [Fraction(0)] * len(unknown)
        acc = Fraction(cap)
        for j in cols:
            if j in upos:
                vec[upos[j]] = Fraction(1)
            else:
                acc -= y[j]
        mat.append(vec)
        rhs.append(acc)
    sol = ref_solve_square(mat, rhs) if unknown else []
    if sol is None:
        return None
    for j, v in zip(unknown, sol):
        y[j] = v
    if any(v < 0 or v > 1 for v in y):
        return None
    for cols, cap in rows:
        if sum((y[j] for j in cols), Fraction(0)) > cap:
            return None
    return y


def ref_dual_certifies(k, rows, costs, basis, upper):
    y, tight = ref_decode(k, rows, basis, upper)
    d = [-Fraction(c) for c in costs]
    unknown = [j for j in range(k) if y[j] is None]
    if len(tight) != len(unknown):
        return False
    tpos = {r: i for i, r in enumerate(tight)}
    touching = {j: [] for j in range(k)}
    for r in tight:
        for j in rows[r][0]:
            touching[j].append(r)
    mat, rhs = [], []
    for j in unknown:
        vec = [Fraction(0)] * len(tight)
        for r in touching[j]:
            vec[tpos[r]] = Fraction(1)
        mat.append(vec)
        rhs.append(d[j])
    sol = ref_solve_square(mat, rhs) if unknown else []
    if sol is None:
        return False
    price = dict(zip(tight, sol))
    if any(v > 0 for v in price.values()):
        return False
    for j in range(k):
        covered = sum((price[r] for r in touching[j]), Fraction(0))
        if y[j] == 1 and d[j] - covered > 0:
            return False
        if y[j] == 0 and covered > d[j]:
            return False
    return True


def assert_basis_contract(k, n_rows, basis, upper):
    """What the certifiers take on trust: one distinct [y | s] column per
    row, and only nonbasic y at their upper bound."""
    assert len(basis) == n_rows == len(set(basis))
    assert all(0 <= b < k + n_rows for b in basis)
    assert all(0 <= j < k for j in upper)
    assert not set(upper) & set(basis)


def _check_square(mat, rhs):
    """Solves with `_solve_square` and the reference; returns det or 0."""
    import math

    from flexconn.lp import _solve_square

    got = _solve_square([row[:] for row in mat], list(rhs))
    want = ref_solve_square(mat, rhs)
    det = ref_det(mat)
    if want is None:
        assert got is None and det == 0
        return 0
    nums, den = got
    scale = math.lcm(*(Fraction(v).denominator for v in rhs))
    assert den > 0 and den == abs(det) * scale
    assert all(isinstance(v, int) for v in nums)
    assert [Fraction(v, den) for v in nums] == want
    return det


def test_solve_square_matches_fraction_elimination():
    rng = random.Random(31)
    signs = {"+": 0, "-": 0, "singular": 0}
    for n in range(1, 21):
        for trial in range(6):
            density = rng.choice([0.2, 0.35, 0.5, 0.7])
            mat = [[int(rng.random() < density) for _ in range(n)] for _ in range(n)]
            if trial % 2:
                rhs = [Fraction(rng.randint(-12, 12), 4) for _ in range(n)]
            else:
                rhs = [rng.randint(-5, 5) for _ in range(n)]
            det = _check_square(mat, rhs)
            signs["singular" if det == 0 else "+" if det > 0 else "-"] += 1
    assert min(signs.values()) >= 10, signs


def test_solve_square_singular_systems_return_none():
    from flexconn.lp import _solve_square

    rng = random.Random(7)
    for n in range(2, 13):
        mat = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        mat[rng.randrange(n)] = [1] * n
        repeated = [row[:] for row in mat]
        i, j = rng.sample(range(n), 2)
        repeated[i] = repeated[j][:]
        zero_col = [row[:] for row in mat]
        c = rng.randrange(n)
        for row in zero_col:
            row[c] = 0
        for m in (repeated, zero_col):
            assert _solve_square(m, [Fraction(rng.randint(0, 8), 4) for _ in range(n)]) is None
            assert ref_solve_square(m, [1] * n) is None
    assert _solve_square([[0]], [1]) is None
    assert _solve_square([], []) == ([], 1)


def test_solve_square_negative_determinant_after_row_swaps():
    from flexconn.lp import _solve_square

    # det = -1, and the first pivot needs a row swap
    assert _solve_square([[0, 1], [1, 0]], [3, Fraction(5, 4)]) == ([5, 12], 4)
    rng = random.Random(3)
    for n in range(2, 16):
        perm = list(range(n))
        rng.shuffle(perm)
        # an odd permutation of a unit upper triangular matrix: det = -1
        upper = [[int(j == i or (j > i and rng.random() < 0.4)) for j in range(n)]
                 for i in range(n)]
        if sum(1 for i in range(n) for j in range(i) if perm[j] > perm[i]) % 2 == 0:
            perm[0], perm[1] = perm[1], perm[0]
        mat = [upper[perm[i]] for i in range(n)]
        rhs = [Fraction(rng.randint(-8, 8), 4) for _ in range(n)]
        assert _check_square(mat, rhs) == -1


@pytest.fixture(scope="module")
def recorded_bases():
    """Final float bases (with costs) from seeded fgc, fst and cut-LP solves."""
    from flexconn import lp
    from flexconn.fgc import solve_fgc
    from flexconn.fst import solve_fst
    from flexconn.generators import GenConfig, gen_fgc, gen_fst

    calls = []
    dual = lp._dual_certifies

    def record(k, rows, costs, basis, upper):
        calls.append((k, list(rows), list(costs), list(basis), set(upper)))
        return dual(k, rows, costs, basis, upper)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "_dual_certifies", record)
        cfg = GenConfig(nodes=(8, 8), extra_edges=(8, 8), pairs=(3, 3),
                        max_p=2, max_q=2)
        for seed in range(4):
            solve_fgc(gen_fgc(seed, regime=("q1", "p1")[seed % 2], cfg=cfg))
        fst_cfg = GenConfig(nodes=(12, 12), extra_edges=(6, 6), terminals=(6, 6))
        for seed in range(3):
            solve_fst(gen_fst(seed, cfg=fst_cfg))
        for seed in range(15):
            ids, costs, rows = _thirds_problem(random.Random(seed))
            solve_cut_lp(costs, static_oracle(rows))
    return calls


def test_recorded_bases_certify_as_the_reference(recorded_bases):
    from flexconn.lp import _dual_certifies, _primal_from_basis

    assert len(recorded_bases) > 30
    fractional = 0
    for k, rows, costs, basis, upper in recorded_bases:
        assert_basis_contract(k, len(rows), basis, upper)
        y = _primal_from_basis(k, rows, basis, upper)
        assert y is not None and y == ref_primal_from_basis(k, rows, basis, upper)
        assert all(type(v) is Fraction for v in y)
        fractional += any(v.denominator > 1 for v in y)
        assert _dual_certifies(k, rows, costs, basis, upper)
        assert ref_dual_certifies(k, rows, costs, basis, upper)
    assert fractional > 0


def test_swapped_bases_are_judged_as_the_reference(recorded_bases):
    # One basic column traded for a nonbasic one usually gives a basis that
    # is not primal feasible, not dual feasible or singular; none of them
    # may be certified where the reference rejects it.  The entering column
    # leaves its bound, and a leaving y goes to either bound.
    from flexconn.lp import _dual_certifies, _primal_from_basis

    rng = random.Random(5)
    judged = {"primal": 0, "dual": 0}
    for k, rows, costs, basis, upper in recorded_bases:
        nonbasic = sorted(set(range(k + len(rows))) - set(basis))
        for _ in range(6):
            swapped = list(basis)
            r = rng.randrange(len(basis))
            leave, swapped[r] = swapped[r], rng.choice(nonbasic)
            bounds = set(upper) - {swapped[r]}
            if leave < k and rng.random() < 0.5:
                bounds.add(leave)
            assert_basis_contract(k, len(rows), swapped, bounds)
            want = ref_primal_from_basis(k, rows, swapped, bounds)
            assert _primal_from_basis(k, rows, swapped, bounds) == want
            certified = ref_dual_certifies(k, rows, costs, swapped, bounds)
            assert _dual_certifies(k, rows, costs, swapped, bounds) == certified
            judged["primal"] += want is None
            judged["dual"] += not certified
    assert min(judged.values()) > 50, judged


# Reference tableau: the float and exact dual simplex as it stood before the
# tableau kept its bound state across pivots, copied verbatim.  The live
# tableau must take the same pivots and reach the same (y, basis, upper) on
# every input, bit for bit.

class RefDualTableau:
    """Bounded-variable tableau for max costs.y s.t. sum(y[cols]) <= cap.

    Columns are [y_0..y_{k-1} | s_0..s_{R-1}] with s_r the slack of row r, so
    row r of the tableau starts out as row r of the system.  `tab` is B^-1 A,
    `beta` the basic values with every nonbasic at its bound, and `d` the
    reduced costs of minimizing -costs.y.  A nonbasic y sits at 0 or at 1
    (`at_upper`); a nonbasic slack sits at 0.

    The float tableau holds `float64`s and compares within `_FLOAT_TOL` and
    `_TIE`; an `exact` one holds `Fraction`s in an object array and compares
    with no tolerance.  Costs and caps are converted on the way in.
    """

    def __init__(self, k: int, costs: Sequence, *, exact: bool = False):
        self.k = k
        self.num = Fraction if exact else float
        self.dtype = object if exact else np.float64
        self.zero, self.one = self.num(0), self.num(1)
        self.tol, self.tie = (0, 0) if exact else (_FLOAT_TOL, _TIE)
        self.tab = np.full((0, k), self.zero, dtype=self.dtype)
        self.beta = np.full(0, self.zero, dtype=self.dtype)
        self.d = -np.array([self.num(c) for c in costs], dtype=self.dtype)
        self.at_upper = np.ones(k, dtype=bool)
        self.is_basic = np.zeros(k, dtype=bool)
        self.basis: list[int] = []

    @property
    def rows(self) -> int:
        return len(self.basis)

    def add_rows(self, rows: Sequence[tuple[Sequence[int], object]]) -> None:
        """Append sum(y[cols]) + s = cap for each (cols, cap) in `rows`, each
        with its own slack s basic, reduced against the current basis in one
        block; the basis stays dual feasible.  A new row names y only, so no
        new slack enters another new row's reduction."""
        if not rows:
            return
        zero, one = self.zero, self.one
        width, m = self.k + self.rows, len(rows)
        block = np.full((m, width + m), zero, dtype=self.dtype)
        for i, (cols, _) in enumerate(rows):
            block[i, list(cols)] = one
            block[i, width + i] = one
        value = np.where(self.at_upper, one, zero)
        if self.basis:
            block[:, :width] -= block[:, self.basis] @ self.tab
            value[self.basis] = self.beta
        columns = np.full((self.rows, m), zero, dtype=self.dtype)
        self.tab = np.vstack([np.hstack([self.tab, columns]), block])
        caps = [self.num(cap) - value[list(cols)].sum() for cols, cap in rows]
        self.beta = np.append(self.beta, np.array(caps, dtype=self.dtype))
        self.d = np.append(self.d, np.full(m, zero, dtype=self.dtype))
        self.at_upper = np.append(self.at_upper, np.zeros(m, dtype=bool))
        self.is_basic = np.append(self.is_basic, np.ones(m, dtype=bool))
        self.basis.extend(range(width, width + m))

    def solve(self) -> tuple[list, list[int], set[int]]:
        """Dual simplex to a primal feasible basis.

        The leaving row is the most infeasible (ties to the smallest row), the
        entering column the minimum |d_j / alpha_rj| (ties to the smallest
        column).  That leaving rule can cycle on degenerate bases, so after
        `cap` pivots the leaving row becomes the infeasible row with the
        smallest basic column (Bland's rule), which cannot cycle; a second
        `cap` pivots without an answer is a stall.  Returns (y, basis, upper):
        the y values, the basic column of each row in the tableau's own
        [y | s] numbering, and the nonbasic y that sit at 1.
        """
        k, tol = self.k, self.tol
        if not self.basis:
            return self._result()
        upper = np.where(np.arange(k + self.rows) < k, self.one, np.inf)
        cap = max(2000, 80 * (self.rows + k))
        for pivot in range(2 * cap):
            excess = np.maximum(-self.beta, self.beta - upper[self.basis])
            r = int(np.argmax(excess))
            if excess[r] <= tol:
                return self._result()
            if pivot >= cap:
                infeasible = np.flatnonzero(excess > tol)
                r = int(min(infeasible, key=self.basis.__getitem__))
            # A basic value below 0 rises to 0 and one above 1 falls to 1;
            # the entering column must move it that way from its bound.
            raise_it = self.beta[r] < 0
            alpha = self.tab[r] if raise_it else -self.tab[r]
            ok = ~self.is_basic & np.where(self.at_upper, alpha > tol, alpha < -tol)
            if not ok.any():
                raise _SimplexStall
            size = np.where(ok, np.abs(alpha), self.one)
            ratio = np.where(ok, np.abs(self.d) / size, np.inf)
            q = int(np.argmax(ratio <= ratio.min() + self.tie))
            self._pivot(r, q, to_upper=not raise_it)
        raise _SimplexStall

    def _pivot(self, r: int, q: int, *, to_upper: bool) -> None:
        tab, beta = self.tab, self.beta
        if self.at_upper[q]:
            beta += tab[:, q]
            self.at_upper[q] = False
        piv = tab[r, q]
        tab[r] /= piv
        beta[r] /= piv
        col = tab[:, q].copy()
        col[r] = self.zero
        tab -= np.outer(col, tab[r])
        beta -= col * beta[r]
        self.d -= self.d[q] * tab[r]
        leave = self.basis[r]
        self.basis[r] = q
        self.is_basic[q] = True
        self.is_basic[leave] = False
        tab[:, q] = self.zero
        tab[r, q] = self.one
        self.d[q] = self.zero
        if to_upper:
            self.at_upper[leave] = True
            beta -= tab[:, leave]

    def _result(self) -> tuple[list, list[int], set[int]]:
        y = np.where(self.at_upper[:self.k], self.one, self.zero)
        for r, b in enumerate(self.basis):
            if b < self.k:
                y[b] = self.beta[r]
        # Only a nonbasic y is ever at its upper bound; a slack never is.
        return y.tolist(), list(self.basis), set(np.flatnonzero(self.at_upper).tolist())


def _trace_pivots(tableau):
    """Every (r, q, to_upper) pivot `tableau` takes from now on."""
    path = []
    pivot = tableau._pivot

    def record(r, q, *, to_upper):
        path.append((r, q, to_upper))
        pivot(r, q, to_upper=to_upper)

    tableau._pivot = record
    return path


def _replay(cls, k, costs, blocks, exact):
    """Feed `blocks` to a fresh `cls` tableau with a solve after each; the
    outcome of each solve and the whole pivot path."""
    tableau = cls(k, costs, exact=exact)
    path = _trace_pivots(tableau)
    outcomes = []
    for block in blocks:
        tableau.add_rows(block)
        try:
            y, basis, upper = tableau.solve()
        except _SimplexStall:
            outcomes.append("stall")
            break
        outcomes.append((repr(y), basis, upper))
    return outcomes, path


@pytest.fixture(scope="module")
def recorded_lps():
    """(k, costs, blocks) of every live tableau in seeded fgc, fst and ncfgc
    solves: the row blocks in the order `solve_cut_lp` fed them, each
    followed by a solve."""
    from flexconn import lp
    from flexconn.fgc import solve_fgc
    from flexconn.fst import solve_fst
    from flexconn.generators import GenConfig, gen_fgc, gen_fst, gen_ncfgc
    from flexconn.ncfgc import solve_p_ncfgc

    lps = []

    class Recording(lp._DualTableau):
        def __init__(self, k, costs, *, exact=False):
            super().__init__(k, costs, exact=exact)
            self.blocks = []
            lps.append((k, list(costs), self.blocks))

        def add_rows(self, rows):
            self.blocks.append(list(rows))
            super().add_rows(rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "_DualTableau", Recording)
        cfg = GenConfig(nodes=(8, 8), extra_edges=(8, 8), pairs=(3, 3),
                        max_p=2, max_q=2)
        for seed in range(8):
            solve_fgc(gen_fgc(seed, regime=("q1", "p1")[seed % 2], cfg=cfg))
        fst_cfg = GenConfig(nodes=(12, 12), extra_edges=(6, 6), terminals=(6, 6))
        for seed in range(4):
            solve_fst(gen_fst(seed, cfg=fst_cfg))
        nc_cfg = GenConfig(nodes=(8, 8), extra_edges=(6, 8), ncfgc_p=(2, 2))
        for seed in range(4):
            solve_p_ncfgc(gen_ncfgc(seed, cfg=nc_cfg))
    return lps


@pytest.mark.parametrize("exact", [False, True])
def test_tableau_takes_the_reference_pivot_path(exact, recorded_lps):
    from flexconn import lp

    inputs = list(recorded_lps)
    for seed in range(40):
        k, cvec, active = _thirds_lp(seed)
        half = len(active) // 2
        inputs.append((k, cvec, [active[:half], active[half:]]))
        inputs.append((k, cvec, [[row] for row in active]))
    pivots = 0
    for k, costs, blocks in inputs:
        got = _replay(lp._DualTableau, k, costs, blocks, exact)
        assert got == _replay(RefDualTableau, k, costs, blocks, exact)
        pivots += len(got[1])
    assert pivots > 800
