"""Row-generated cut LPs solved at exact vertices.

A cut LP here is: minimize sum(cost_e * x_e) subject to generated rows of the
form sum(x_e for e in ids) >= rhs and bounds 0 <= x <= 1.  Rows come from a
separation oracle that inspects candidate solutions and answers with a batch
of violated rows, most violated first, or with none.

Substituting x = 1 - y turns every row into a packing row sum(y) <= cap.
One float tableau lives for the whole row generation: it has a row per
active cut and handles 0 <= y <= 1 by bound flips rather than extra rows.
It starts with every y at its upper bound, which is dual feasible because
costs are nonnegative; each batch of new rows is reduced against the current
basis in one block and appended, and dual simplex pivots restore primal
feasibility.  The tableau keeps its basis, each row's upper bound and each
column's move direction as arrays that every pivot updates, so a pivot reads
them rather than rebuilding them.  A solve hands back its basis as the
tableau holds it: one basic [y | s] column per row, and the set of nonbasic
y at 1.  Each point is shown to the oracle as ints over one denominator,
and the oracle's rows are checked on those ints: a float vertex, clipped to
[0, 1], is scaled once to its common denominator by `flows.integral` (a
float is an exact dyadic rational, so it scales as the `Fraction` equal to
it does), and an exact vertex comes as numerators already.  The answer
returned is always rebuilt exactly from that basis and certified optimal
through an exact dual feasibility check.  Both solve one square 0/1 system
of tight rows by basic y, the check on its transpose, by Bareiss's
fraction-free elimination on right-hand sides scaled to ints by their
common denominator, and compare integer numerators.  The vertex stays
numerators over that denominator, which need not be the least one: an
oracle answers the point, whatever its scale.  `Fraction`s
are built only for the x and the objective returned, the objective as one
quotient of integer sums over the costs scaled once per LP.  When the float
tableau stalls, cannot hold a cost or cap as a float, or its basis fails the
check, the same dual simplex runs again from a cold start on `Fraction`s
with no tolerance, and its basis goes through the same rebuild and check.
Identical inputs produce identical row sequences and solutions.
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
_FLOAT_TOL = 1e-9                  # primal infeasibility and pivot size
_TIE = 1e-12                       # ratios this close count as a tie


@dataclass(frozen=True)
class CutRow:
    """Requires sum of x over `edge_ids` to be at least `rhs`."""

    edge_ids: frozenset[int]
    rhs: Fraction


@dataclass(frozen=True)
class FractionalSolution:
    """Exact vertex solution of the generated system."""

    x: dict[int, Fraction]
    objective: Fraction
    rows: tuple[CutRow, ...]

    def fractional_ids(self) -> tuple[int, ...]:
        return tuple(sorted(e for e, v in self.x.items() if 0 < v < 1))


# A separation oracle: given a point as `scale` and integer numerators `num`,
# x_e = num[e] / scale, the rows violated there, most violated first; an
# empty sequence means that none is.
CutOracle = Callable[[int, Mapping[int, int]], Sequence[CutRow]]


class _SimplexStall(Exception):
    """Internal: a tableau hit its pivot cap, or a float one went numerically
    bad."""


class _DualTableau:
    """Bounded-variable tableau for max costs.y s.t. sum(y[cols]) <= cap.

    Columns are [y_0..y_{k-1} | s_0..s_{R-1}] with s_r the slack of row r, so
    row r of the tableau starts out as row r of the system.  `tab` is B^-1 A,
    `beta` the basic values with every nonbasic at its bound, and `d` the
    reduced costs of minimizing -costs.y.  A nonbasic y sits at 0 or at 1; a
    nonbasic slack sits at 0.  Three arrays hold the bound state and are
    kept current by every pivot: `basis`, the basic column of each row;
    `bound`, the upper bound of that column (1 for a y, inf for a slack);
    and `dirn`, the way each column may move off its bound (-1 at its lower
    bound, +1 at its upper, 0 when basic).

    The float tableau holds `float64`s and compares within `_FLOAT_TOL` and
    `_TIE`; an `exact` one holds `Fraction`s in an object array (`dirn` holds
    ints there) and compares with no tolerance.  Costs and caps are
    converted on the way in.
    """

    def __init__(self, k: int, costs: Sequence, *, exact: bool = False):
        self.k = k
        self.num = Fraction if exact else float
        self.dtype = object if exact else np.float64
        self.zero, self.one = self.num(0), self.num(1)
        self.tol, self.tie = (0, 0) if exact else (_FLOAT_TOL, _TIE)
        self.tab = np.full((0, k), self.zero, dtype=self.dtype)
        self.beta = np.full(0, self.zero, dtype=self.dtype)
        self.bound = np.full(0, np.inf, dtype=self.dtype)
        self.d = -np.array([self.num(c) for c in costs], dtype=self.dtype)
        self.dirn = np.ones(k, dtype=self.dtype)
        self.basis = np.zeros(0, dtype=np.intp)

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
        old, m = self.rows, len(rows)
        width = self.k + old
        tab = np.full((old + m, width + m), zero, dtype=self.dtype)
        tab[:old, :width] = self.tab
        block = tab[old:]
        lengths = [len(cols) for cols, _ in rows]
        block[np.repeat(np.arange(m), lengths),
              [j for cols, _ in rows for j in cols]] = one
        block[np.arange(m), np.arange(width, width + m)] = one
        value = np.where(self.dirn > 0, one, zero)
        if old:
            block[:, :width] -= block[:, self.basis] @ self.tab
            value[self.basis] = self.beta
        self.tab = tab
        caps = [self.num(cap) - value[list(cols)].sum() for cols, cap in rows]
        self.beta = np.concatenate([self.beta, np.array(caps, dtype=self.dtype)])
        self.bound = np.concatenate([self.bound, np.full(m, np.inf, dtype=self.dtype)])
        self.d = np.concatenate([self.d, np.full(m, zero, dtype=self.dtype)])
        self.dirn = np.concatenate([self.dirn, np.zeros(m, dtype=self.dtype)])
        self.basis = np.concatenate([self.basis, np.arange(width, width + m)])

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
        tol = self.tol
        if not self.rows:
            return self._result()
        cap = max(2000, 80 * (self.rows + self.k))
        for pivot in range(2 * cap):
            beta = self.beta
            excess = np.maximum(-beta, beta - self.bound)
            r = int(excess.argmax())
            if excess[r] <= tol:
                return self._result()
            if pivot >= cap:
                infeasible = np.flatnonzero(excess > tol)
                r = int(infeasible[np.argmin(self.basis[infeasible])])
            # A basic value below 0 rises to 0 and one above 1 falls to 1;
            # the entering column must move it that way from its bound, and
            # a basic column (dirn 0) cannot enter.
            raise_it = beta[r] < 0
            alpha = self.tab[r] if raise_it else -self.tab[r]
            ok = alpha * self.dirn > tol
            if not ok.any():
                raise _SimplexStall
            ratio = np.full(len(ok), np.inf, dtype=self.dtype)
            np.divide(np.abs(self.d), np.abs(alpha), out=ratio, where=ok)
            q = int((ratio <= ratio.min() + self.tie).argmax())
            self._pivot(r, q, to_upper=not raise_it)
        raise _SimplexStall

    def _pivot(self, r: int, q: int, *, to_upper: bool) -> None:
        tab, beta = self.tab, self.beta
        if self.dirn[q] > 0:
            beta += tab[:, q]
        piv = tab[r, q]
        tab[r] /= piv
        beta[r] /= piv
        col = tab[:, q].copy()
        col[r] = self.zero
        tab -= col[:, None] * tab[r]
        beta -= col * beta[r]
        self.d -= self.d[q] * tab[r]
        leave = self.basis[r]
        self.basis[r] = q
        self.bound[r] = self.one if q < self.k else np.inf
        self.dirn[q] = 0
        self.dirn[leave] = 1 if to_upper else -1
        tab[:, q] = self.zero
        tab[r, q] = self.one
        self.d[q] = self.zero
        if to_upper:
            beta -= tab[:, leave]

    def _result(self) -> tuple[list, list[int], set[int]]:
        y = np.where(self.dirn[:self.k] > 0, self.one, self.zero)
        basic_y = self.basis < self.k
        y[self.basis[basic_y]] = self.beta[basic_y]
        # Only a nonbasic y is ever at its upper bound; a slack never is.
        return y.tolist(), self.basis.tolist(), set(np.flatnonzero(self.dirn > 0).tolist())


def _simplex(k: int, rows: Sequence[tuple[tuple[int, ...], object]], costs, exact: bool):
    """Solve `rows` on a cold-started `_DualTableau`, on `Fraction`s when
    `exact`, as the exact fallback of `solve_cut_lp` does.

    Returns (y, basis, upper) as `_DualTableau.solve` does; a stall raises
    LpResourceError.
    """
    tableau = _DualTableau(k, costs, exact=exact)
    tableau.add_rows(rows)
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


def _tight_system(k, rows, basis):
    """The square 0/1 system a basis leaves: its basic y are the unknowns,
    the rows whose slack is nonbasic are tight, and mat[i][u] is 1 when
    unknown u is in tight row i.  A basis of one distinct column per row has
    as many tight rows as basic y."""
    basic = set(basis)
    unknown = [j for j in range(k) if j in basic]
    tight = [r for r in range(len(rows)) if k + r not in basic]
    upos = {j: u for u, j in enumerate(unknown)}
    mat = []
    for r in tight:
        vec = [0] * len(unknown)
        for j in rows[r][0]:
            u = upos.get(j)
            if u is not None:
                vec[u] = 1
        mat.append(vec)
    return unknown, tight, mat


def _primal_from_basis(k, rows, basis, upper) -> tuple[list[int], int] | None:
    """Rebuild the basic solution exactly from the basis combinatorics, as
    the numerators of y over one positive denominator.

    A nonbasic y is 0, or 1 when it is in `upper`; the basic y solve the
    tight rows.  The bound and row checks compare integer numerators over
    the denominator `_solve_square` returns.
    """
    unknown, tight, mat = _tight_system(k, rows, basis)
    rhs = []
    for r in tight:
        cols, cap = rows[r]
        rhs.append(cap - sum(1 for j in cols if j in upper))
    solved = _solve_square(mat, rhs)
    if solved is None:
        return None
    sol, den = solved
    num = [den if j in upper else 0 for j in range(k)]
    for j, v in zip(unknown, sol):
        if v < 0 or v > den:
            return None
        num[j] = v
    for cols, cap in rows:
        p, q = cap.as_integer_ratio()
        if sum(num[j] for j in cols) * q > p * den:
            return None
    return num, den


def _dual_certifies(k, rows, costs, basis, upper) -> bool:
    """Exact optimality check: the basis prices must be dual feasible.

    The tight-row prices solve the transpose of the primal system; the basis
    is optimal exactly when all prices are nonpositive and every nonbasic y
    column prices out correctly against its objective coefficient.  With
    d_j = -cost_j = -p/q and the prices as integer numerators over `den`,
    both tests are integer comparisons.
    """
    unknown, tight, mat = _tight_system(k, rows, basis)
    solved = _solve_square([list(col) for col in zip(*mat)], [-costs[j] for j in unknown])
    if solved is None:
        return False
    price, den = solved
    if any(v > 0 for v in price):
        return False
    covered = [0] * k
    for i, r in enumerate(tight):
        for j in rows[r][0]:
            covered[j] += price[i]
    basic = set(unknown)
    for j in range(k):
        if j in basic:
            continue
        p, q = costs[j].as_integer_ratio()
        if j in upper:
            # at its upper bound: the bound price d_j - covered is <= 0
            if -p * den - covered[j] * q > 0:
                return False
        elif covered[j] * q > -p * den:
            # at zero: covered <= d_j
            return False
    return True


def solve_cut_lp(
    costs: Mapping[int, object],
    oracle: CutOracle,
    *,
    max_rows: int = 2000,
) -> FractionalSolution:
    """Row generation over `oracle` until no constraint is violated.

    `costs` maps edge id to a nonnegative cost and defines the variable set;
    every row the oracle returns must name variables only and be violated by
    the point it was shown, and every new row of a batch joins the system
    before the next solve.  Returns an exact optimal vertex of the generated
    system with every generated row in `rows`, in the order generated.
    Raises LpInfeasibleError when a row asks for more than the number of
    edges it names, and LpResourceError past `max_rows` rows.
    """
    cost_map = {e: Fraction(c) for e, c in costs.items()}
    for e, c in cost_map.items():
        if c < 0:
            raise ValidationError(f"negative cost on edge {e}")
    var_ids = sorted(cost_map)
    pos = {e: j for j, e in enumerate(var_ids)}
    k = len(var_ids)
    cvec = [cost_map[e] for e in var_ids]
    cost_scale, cost_num = integral(cost_map)

    rows: dict[CutRow, None] = {}     # every generated row, in order
    active: list[tuple[tuple[int, ...], Fraction]] = []

    def register(cuts: Sequence[CutRow]) -> bool:
        """Add every row of `cuts` not generated before, in order; True when
        any was new."""
        fresh = False
        for row in cuts:
            if row in rows:
                continue
            if len(rows) >= max_rows:
                raise LpResourceError(f"row cap {max_rows} exceeded")
            rows[row] = None
            cols = tuple(pos[e] for e in sorted(row.edge_ids))
            if row.rhs > len(cols):
                raise LpInfeasibleError(
                    f"cut needs {row.rhs} but only {len(cols)} edges cross it",
                    row=row,
                )
            active.append((cols, len(cols) - row.rhs))
            fresh = True
        return fresh

    def ask(scale: int, num: Mapping[int, int]) -> Sequence[CutRow]:
        """The oracle's rows at x_e = num[e] / scale, checked on the same
        ints.  Each row must name variables only and be violated: its
        numerators sum below its rhs times the scale."""
        cuts = oracle(scale, num)
        for cut in cuts:
            unknown = cut.edge_ids.difference(num)
            if unknown:
                raise OracleContractError(f"cut references unknown edge {min(unknown)}")
            p, q = cut.rhs.as_integer_ratio()
            if sum(num[e] for e in cut.edge_ids) * q >= p * scale:
                raise OracleContractError(
                    f"cut {sorted(cut.edge_ids)} >= {cut.rhs} is not violated"
                )
        return cuts

    def certified(basis, upper) -> tuple[list[int], int] | None:
        y = _primal_from_basis(k, active, basis, upper)
        if y is None or not _dual_certifies(k, active, cvec, basis, upper):
            return None
        return y

    tableau: _DualTableau | None = None
    while True:
        # Float stage: feed every new active row to the live tableau and
        # re-solve until the oracle has nothing new to say about its vertex.
        # A cost or cap past float range goes exact, as a stall does.
        try:
            if tableau is None:
                tableau = _DualTableau(k, cvec)
            tableau.add_rows(active[tableau.rows:])
            y_float, basis, upper = tableau.solve()
        except (_SimplexStall, OverflowError):
            tableau = basis = None

        if basis is not None and register(ask(*integral({
            e: min(1.0, max(0.0, 1.0 - y_float[j])) for j, e in enumerate(var_ids)
        }))):
            continue

        # Exact stage: rebuild the vertex from the float basis and certify
        # it; failing that, solve the rows again in rational arithmetic,
        # whose basis must certify too.
        y_exact = None
        if basis is not None:
            if len(basis) != len(active):
                raise SolverError(
                    f"float basis of {len(basis)} columns read against "
                    f"{len(active)} rows"
                )
            y_exact = certified(basis, upper)
        if y_exact is None:
            tableau = None
            _, basis, upper = _simplex(k, active, cvec, exact=True)
            y_exact = certified(basis, upper)
            if y_exact is None:
                raise SolverError(
                    f"exact simplex basis over {len(active)} rows does not certify"
                )

        # x = 1 - y, as numerators over the denominator of y
        y_num, den = y_exact
        x_num = {e: den - y_num[j] for j, e in enumerate(var_ids)}
        cuts = ask(den, x_num)
        if not cuts:
            x_exact = {e: Fraction(v, den) for e, v in x_num.items()}
            objective = Fraction(
                sum(cost_num[e] * v for e, v in x_num.items()), cost_scale * den
            )
            return FractionalSolution(x_exact, objective, tuple(rows))
        register(cuts)
