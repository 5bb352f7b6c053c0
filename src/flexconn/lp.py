"""Row-generated cut LPs solved at exact vertices.

A cut LP here is: minimize sum(cost_e * x_e) subject to generated rows of the
form sum(x_e for e in ids) >= rhs, bounds 0 <= x <= 1, and a partial 0/1
fixing.  Rows come from a separation oracle that inspects candidate solutions.

Substituting x = 1 - y turns every row into a packing row sum(y) <= cap.  One
float tableau lives for the whole row generation: it has a row per active cut
and handles 0 <= y <= 1 by bound flips rather than extra rows.  It starts with
every y at its upper bound, which is dual feasible because costs are
nonnegative; each new row is reduced against the current basis and appended,
and dual simplex pivots restore primal feasibility.  The answer handed back is
always rebuilt exactly from the final basis and certified optimal through an
exact dual feasibility check.  Both the rebuild and the check solve a square
0/1 system by Bareiss's fraction-free elimination, on right-hand sides scaled
to ints by their common denominator, and compare integer numerators;
`Fraction`s are built only for the returned vertex.  When the float tableau
stalls or its basis fails the check, the same dual simplex runs again from a
cold start on `Fraction`s with no tolerance, and its basis goes through the
same rebuild and check.  Identical inputs produce identical row sequences and
solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    LpInfeasibleError,
    LpResourceError,
    OracleContractError,
    SolverError,
    ValidationError,
)
from .flows import integral

# Tolerance ledger.  Float arithmetic appears only inside the float tableau;
# the exact tableau compares with no tolerance, and every returned solution
# is exact.
EPS_ROUND = Fraction(1, 10**6)     # slack under 1/2 when choosing edges to round up

_FLOAT_TOL = 1e-9                  # primal infeasibility and pivot size
_TIE = 1e-12                       # ratios this close count as a tie


@dataclass(frozen=True)
class CutRow:
    """Requires sum of x over `edge_ids` to be at least `rhs`."""

    edge_ids: frozenset[int]
    rhs: Fraction


@dataclass(frozen=True)
class FractionalSolution:
    """Exact vertex solution of the generated system, fixed values included."""

    x: dict[int, Fraction]
    objective: Fraction
    rows: tuple[CutRow, ...]

    def fractional_ids(self) -> tuple[int, ...]:
        return tuple(sorted(e for e, v in self.x.items() if 0 < v < 1))


CutOracle = Callable[[Mapping[int, Fraction]], CutRow | None]


class _SimplexStall(Exception):
    """Internal: a tableau hit its pivot cap, or a float one went numerically
    bad."""


class _DualTableau:
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

    def add_row(self, cols: Sequence[int], cap) -> None:
        """Append sum(y[cols]) + s = cap with s basic, reduced against the
        current basis; the basis stays dual feasible."""
        zero, one = self.zero, self.one
        width = self.k + self.rows
        cols = list(cols)
        row = np.full(width + 1, zero, dtype=self.dtype)
        row[cols] = one
        row[width] = one
        value = np.where(self.at_upper, one, zero)
        if self.basis:
            row[:width] -= row[self.basis] @ self.tab
            value[self.basis] = self.beta
        column = np.full((self.rows, 1), zero, dtype=self.dtype)
        self.tab = np.vstack([np.hstack([self.tab, column]), row])
        self.beta = np.append(self.beta, self.num(cap) - value[cols].sum())
        self.d = np.append(self.d, zero)
        self.at_upper = np.append(self.at_upper, False)
        self.is_basic = np.append(self.is_basic, True)
        self.basis.append(width)

    def solve(self) -> tuple[list, list[int]]:
        """Dual simplex to a primal feasible basis.

        The leaving row is the most infeasible (ties to the smallest row), the
        entering column the minimum |d_j / alpha_rj| (ties to the smallest
        column).  That leaving rule can cycle on degenerate bases, so after
        `cap` pivots the leaving row becomes the infeasible row with the
        smallest basic column (Bland's rule), which cannot cycle; a second
        `cap` pivots without an answer is a stall.  Returns the y values and
        the basis in the layout `_primal_from_basis` reads: [y | s | t] with
        t_j = 1 - y_j, R + k entries.
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

    def _result(self) -> tuple[list, list[int]]:
        k, big_r = self.k, self.rows
        y = np.where(self.at_upper[:k], self.one, self.zero)
        for r, b in enumerate(self.basis):
            if b < k:
                y[b] = self.beta[r]
        basis = list(self.basis)
        # y at 1 keeps y basic in the full layout; y at 0 or basic keeps t.
        basis += [j if self.at_upper[j] else k + big_r + j for j in range(k)]
        return y.tolist(), basis


def _simplex(k: int, rows: Sequence[tuple[tuple[int, ...], object]], costs, exact: bool):
    """Solve `rows` on a cold-started `_DualTableau`, on `Fraction`s when
    `exact`, as the exact fallback of `solve_cut_lp` does.

    Returns (y values, basis) as `_DualTableau.solve` does; a stall raises
    LpResourceError.
    """
    tableau = _DualTableau(k, costs, exact=exact)
    for cols, cap in rows:
        tableau.add_row(cols, cap)
    try:
        return tableau.solve()
    except _SimplexStall:
        raise LpResourceError(f"simplex stalled on {len(rows)} rows") from None


def _solve_square(mat: list[list[int]], rhs: Sequence) -> tuple[list[int], int] | None:
    """Solve mat . z = rhs exactly by Bareiss's fraction-free elimination.

    `mat` is a square integer (here 0/1) matrix and `rhs` holds rationals,
    scaled to ints by their common denominator.  Every step is then an
    `int` operation: Bareiss's division by the previous pivot is always
    exact, and by Cramer's rule so is back substitution for det * z.
    Returns the numerators of z over one positive denominator, |det| times
    the scale, or None when the matrix is singular.
    """
    n = len(mat)
    scale, b = integral(dict(enumerate(rhs)))
    a = [row + [b[i]] for i, row in enumerate(mat)]
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        top = a[col]
        p = top[col]
        for r in range(col + 1, n):
            row = a[r]
            f = row[col]
            if f:
                a[r] = [(v * p - f * w) // prev for v, w in zip(row, top)]
            elif p != prev:
                a[r] = [v * p // prev for v in row]
        prev = p
    det = prev
    z = [0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        acc = row[n] * det - sum(row[j] * z[j] for j in range(i + 1, n))
        z[i] = acc // row[i]
    if det < 0:
        det, z = -det, [-v for v in z]
    return z, det * scale


def _basis_sets(k: int, big_r: int, basis: Sequence[int]):
    basic_y = set()
    basic_s = set()
    basic_t = set()
    for b in basis:
        if b < k:
            basic_y.add(b)
        elif b < k + big_r:
            basic_s.add(b - k)
        else:
            basic_t.add(b - k - big_r)
    return basic_y, basic_s, basic_t


def _primal_from_basis(k, rows, basis) -> list[Fraction] | None:
    """Rebuild the basic solution exactly from the basis combinatorics.

    Unit columns pin most variables: a nonbasic y is 0, a basic y whose bound
    slack is nonbasic sits at 1.  Only y variables whose bound slack is also
    basic stay unknown, and the rows with nonbasic row slack supply exactly as
    many tight equations.  The bound and row checks compare integer
    numerators over the denominator `_solve_square` returns.
    """
    big_r = len(rows)
    basic_y, basic_s, basic_t = _basis_sets(k, big_r, basis)
    at_one = set()
    unknown = []
    for j in range(k):
        if j not in basic_y:
            if j not in basic_t:
                return None
        elif j not in basic_t:
            at_one.add(j)
        else:
            unknown.append(j)
    tight = [r for r in range(big_r) if r not in basic_s]
    if len(tight) != len(unknown):
        return None
    upos = {j: i for i, j in enumerate(unknown)}
    mat = []
    rhs = []
    for r in tight:
        cols, cap = rows[r]
        vec = [0] * len(unknown)
        ones = 0
        for j in cols:
            i = upos.get(j)
            if i is not None:
                vec[i] = 1
            elif j in at_one:
                ones += 1
        mat.append(vec)
        rhs.append(cap - ones)
    solved = _solve_square(mat, rhs)
    if solved is None:
        return None
    sol, den = solved
    num = [den if j in at_one else 0 for j in range(k)]
    for j, v in zip(unknown, sol):
        if v < 0 or v > den:
            return None
        num[j] = v
    for cols, cap in rows:
        p, q = cap.as_integer_ratio()
        if sum(num[j] for j in cols) * q > p * den:
            return None
    return [Fraction(v, den) for v in num]


def _dual_certifies(k, rows, costs, basis) -> bool:
    """Exact optimality check: the basis prices must be dual feasible.

    Row prices solve the transposed version of the same structured system; the
    basis is optimal exactly when all prices are nonpositive and every
    nonbasic y column prices out at or above its objective coefficient.  With
    d_j = -cost_j = -p/q and the prices as integer numerators over `den`, both
    tests are integer comparisons.
    """
    big_r = len(rows)
    basic_y, basic_s, basic_t = _basis_sets(k, big_r, basis)
    tight = [r for r in range(big_r) if r not in basic_s]
    unknown = [j for j in range(k) if j in basic_y and j in basic_t]
    if len(tight) != len(unknown):
        return False
    touching: list[list[int]] = [[] for _ in range(k)]
    for i, r in enumerate(tight):
        for j in rows[r][0]:
            touching[j].append(i)
    mat = []
    for j in unknown:
        vec = [0] * len(tight)
        for i in touching[j]:
            vec[i] = 1
        mat.append(vec)
    solved = _solve_square(mat, [-costs[j] for j in unknown])
    if solved is None:
        return False
    price, den = solved
    if any(v > 0 for v in price):
        return False
    for j in range(k):
        if j in basic_y and j in basic_t:
            continue
        covered = sum(price[i] for i in touching[j])
        p, q = costs[j].as_integer_ratio()
        if j in basic_y:
            # at its upper bound: the bound price d_j - covered is <= 0
            if -p * den - covered * q > 0:
                return False
        elif j not in basic_t:
            return False
        elif covered * q > -p * den:
            # bound slack basic means its price is zero, so covered <= d_j
            return False
    return True


def solve_cut_lp(
    costs: Mapping[int, object],
    fixed: Mapping[int, int] | None,
    oracle: CutOracle,
    *,
    max_rows: int = 2000,
) -> FractionalSolution:
    """Row generation over `oracle` until no constraint is violated.

    `costs` maps edge id to a nonnegative cost and defines the variable set;
    `fixed` pins a subset of edges to 0 or 1.  Returns an exact optimal vertex
    of the generated system (fixed values included in `x`) with every
    generated row in `rows`.  Raises LpInfeasibleError when a generated row
    cannot be met under the fixing, and LpResourceError past `max_rows` rows.
    """
    fixed = dict(fixed or {})
    cost_map = {e: Fraction(c) for e, c in costs.items()}
    for e, c in cost_map.items():
        if c < 0:
            raise ValidationError(f"negative cost on edge {e}")
    for e, v in fixed.items():
        if e not in cost_map:
            raise ValidationError(f"fixed edge {e} is not a variable")
        if v not in (0, 1):
            raise ValidationError(f"fixed value {v!r} for edge {e} must be 0 or 1")
    var_ids = sorted(e for e in cost_map if e not in fixed)
    pos = {e: j for j, e in enumerate(var_ids)}
    k = len(var_ids)
    cvec = [cost_map[e] for e in var_ids]
    fixed_cost = sum((cost_map[e] for e, v in fixed.items() if v == 1), Fraction(0))

    rows: list[CutRow] = []
    active: list[tuple[tuple[int, ...], Fraction]] = []
    seen: set[tuple[frozenset[int], Fraction]] = set()

    def register(row: CutRow) -> bool:
        key = (row.edge_ids, Fraction(row.rhs))
        if key in seen:
            return False
        for e in row.edge_ids:
            if e not in cost_map:
                raise ValidationError(f"cut references unknown edge {e}")
        if len(rows) >= max_rows:
            raise LpResourceError(f"row cap {max_rows} exceeded")
        seen.add(key)
        rows.append(row)
        covered = sum(1 for e in row.edge_ids if fixed.get(e) == 1)
        need = Fraction(row.rhs) - covered
        cols = tuple(pos[e] for e in sorted(row.edge_ids) if e in pos)
        if need <= 0:
            return True
        if need > len(cols):
            raise LpInfeasibleError(
                f"cut needs {row.rhs} but only {covered} fixed and "
                f"{len(cols)} free edges cross it",
                row=row,
            )
        active.append((cols, Fraction(len(cols)) - need))
        return True

    def violation(cut: CutRow, x: Mapping[int, Fraction]) -> Fraction:
        total = Fraction(0)
        for e in cut.edge_ids:
            if e not in x:
                raise OracleContractError(f"cut references unknown edge {e}")
            total += x[e]
        return Fraction(cut.rhs) - total

    def certified(basis) -> list[Fraction] | None:
        y = _primal_from_basis(k, active, basis)
        if y is None or not _dual_certifies(k, active, cvec, basis):
            return None
        return y

    tableau: _DualTableau | None = None
    while True:
        # Float stage: feed every new active row to the live tableau and
        # re-solve until the oracle has nothing new to say about its vertex.
        basis = None
        if k > 0:
            if tableau is None:
                tableau = _DualTableau(k, cvec)
            for cols, cap in active[tableau.rows:]:
                tableau.add_row(cols, cap)
            try:
                y_float, basis = tableau.solve()
                basis_rows = tableau.rows
            except _SimplexStall:
                tableau = None
        else:
            y_float, basis, basis_rows = [], [], 0

        if basis is not None:
            x_map = {e: Fraction(v) for e, v in fixed.items()}
            for j, e in enumerate(var_ids):
                x_map[e] = Fraction(min(1.0, max(0.0, 1.0 - y_float[j])))
            cut = oracle(x_map)
            if cut is not None:
                if violation(cut, x_map) <= 0:
                    raise OracleContractError(
                        f"cut {sorted(cut.edge_ids)} >= {cut.rhs} is not violated"
                    )
                if register(cut):
                    continue

        # Exact stage: rebuild the vertex from the float basis and certify
        # it; failing that, solve the rows again in rational arithmetic,
        # whose basis must certify too.
        y_exact = None
        if basis is not None:
            if basis_rows != len(active) or len(basis) != len(active) + k:
                raise SolverError(
                    f"float basis of {len(basis)} columns over {basis_rows} rows "
                    f"read against {len(active)} rows and {k} variables"
                )
            y_exact = certified(basis)
        if y_exact is None:
            tableau = None
            _, basis = _simplex(k, active, cvec, exact=True)
            y_exact = certified(basis)
            if y_exact is None:
                raise SolverError(
                    f"exact simplex basis over {len(active)} rows does not certify"
                )

        x_exact = {e: Fraction(v) for e, v in fixed.items()}
        for j, e in enumerate(var_ids):
            x_exact[e] = 1 - y_exact[j]
        objective = fixed_cost + sum(
            (cost_map[e] * x_exact[e] for e in var_ids), Fraction(0)
        )
        cut = oracle(x_exact)
        if cut is None:
            return FractionalSolution(x_exact, objective, tuple(rows))
        viol = violation(cut, x_exact)
        if viol <= 0:
            raise OracleContractError(
                f"cut {sorted(cut.edge_ids)} >= {cut.rhs} is not violated"
            )
        if not register(cut):
            raise OracleContractError("oracle repeated a row the solution satisfies")
