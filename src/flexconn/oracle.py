"""Exhaustive optimum finder and approximation-ratio reporting.

The oracle finds a true minimum-cost feasible edge set by search, so it only
accepts small instances; anything beyond its budget raises
OracleRefusalError rather than returning a guess.  `bnb` prunes on the
predicate of supersets, so its predicate must be monotone: supersets of a
feasible set stay feasible.  All feasibility notions in this package are
monotone because extra edges never remove paths, and an extra unsafe edge
only widens the adversary's choices by options it could ignore.
`bnb` asks no subset twice: each node of its search carries down the
verdicts its parent already holds.  `enumerate` assumes nothing of the
predicate, so it cross-checks `bnb`: it refuses up front when the 2^m
subsets exceed the check budget, then goes best-first, asking subsets in
increasing key (cost, sorted ids) and stopping at the first feasible one.
It so asks exactly the subsets keyed below the optimum, which any search
that assumes nothing must ask.

Among equal-cost optima the one with the lexicographically smallest sorted
edge-id tuple is returned, by both search strategies, so results are
reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Callable, Iterable, Mapping

from .errors import OracleRefusalError, SolverError, ValidationError
from .fgc import FgcInstance, CapNdpInstance, check_capacitated_cuts, verify_fgc
from .flows import integral
from .flows import edge_connectivity  # unused here; perfbench/spans.py wraps this name
from .fst import FstInstance, verify_fst
from .instance_io import KINDS, kind_of
from .jain import SndpInstance, first_unmet_pair
from .ncfgc import NcFgcInstance, verify_ncfgc

REPORT_KINDS = ("fgc-q1", "fgc-p1", "fst", "ncfgc")

@dataclass(frozen=True)
class OracleBudget:
    max_checks: int = 1_000_000
    time_limit: float | None = None
    strategy: str = "bnb"

    def __post_init__(self):
        checks = self.max_checks
        if not isinstance(checks, int) or isinstance(checks, bool) or checks < 1:
            raise ValidationError(
                f"max_checks must be an integer >= 1, got {checks!r}"
            )
        if self.time_limit is not None and not self.time_limit >= 0:  # NaN too
            raise ValidationError(f"time_limit {self.time_limit} is not at least 0")
        if self.strategy not in ("bnb", "enumerate"):
            raise ValidationError(f"unknown strategy {self.strategy!r}")


@dataclass(frozen=True)
class OptResult:
    feasible: bool
    cost: Fraction | None
    edges: frozenset[int] | None


def minimum_cost_subset(
    ids: Iterable[int],
    costs: Mapping[int, Fraction],
    predicate: Callable[[frozenset[int]], bool],
    *,
    budget: OracleBudget | None = None,
) -> OptResult:
    """Cheapest subset of ids satisfying the predicate.  Both strategies
    compare subsets by one integer key, (cost over the costs' common
    denominator, sorted ids).  Only `bnb` needs the predicate monotone;
    `enumerate` refuses up front on 2^m and asks subsets in increasing key
    order until one is feasible."""
    budget = budget or OracleBudget()
    order = sorted(set(ids))
    for eid in order:
        if eid not in costs:
            raise ValidationError(f"no cost for id {eid}")
        if costs[eid] < 0:
            raise ValidationError(f"negative cost for id {eid}")
    # costs over their common denominator order subsets as the costs do
    scale, scaled = integral({eid: costs[eid] for eid in order})
    search = _enumerate_all if budget.strategy == "enumerate" else _branch_and_bound
    best = search(order, scaled, predicate, budget)
    if best is None:
        return OptResult(False, None, None)
    return OptResult(True, Fraction(best[0], scale), frozenset(best[1]))


class _Meter:
    """Counts predicate calls and watches the clock."""

    def __init__(self, budget: OracleBudget):
        self.budget = budget
        self.checks = 0
        self.started = time.monotonic()

    def tick(self):
        self.checks += 1
        if self.checks > self.budget.max_checks:
            raise OracleRefusalError(
                f"needed more than {self.budget.max_checks} feasibility checks"
            )
        if (
            self.budget.time_limit is not None
            and time.monotonic() - self.started > self.budget.time_limit
        ):
            raise OracleRefusalError(
                f"exceeded the {self.budget.time_limit} second time limit"
            )


def _branch_and_bound(order, scaled, predicate, budget) -> tuple | None:
    meter = _Meter(budget)

    def ask(subset):
        meter.tick()
        return predicate(subset)

    if not ask(frozenset(order)):
        return None
    # Expensive ids first so exclusion decisions are made on them early.
    order = sorted(order, key=lambda eid: (-scaled[eid], eid))
    best: tuple | None = None
    # Depth first with an explicit stack, so the depth is not bounded by
    # Python's recursion limit: each node decides order[idx], leaving it out
    # before taking it in, and the pruning test reads `best` when a node is
    # popped, as a recursive descent would on entering it.  A node carries
    # the verdicts its parent knows, None where unknown: `whole` on
    # chosen | rest (an include child's is its parent's, found feasible) and
    # `alone` on chosen (an exclude child's is its parent's).
    stack = [(0, frozenset(), 0, True, None)]
    while stack:
        idx, chosen, cost, whole, alone = stack.pop()
        if best is not None and cost > best[0]:
            continue
        rest = order[idx:]
        # with nothing left to decide, chosen | rest is chosen itself
        if whole is None:
            whole = ask(chosen.union(rest)) if rest else alone
        if not whole:
            continue
        if alone is None:
            alone = ask(chosen) if rest else whole
        if alone:
            key = (cost, tuple(sorted(chosen)))
            if best is None or key < best:
                best = key
            # A strictly positive tail cannot tie, let alone improve.
            if all(scaled[eid] > 0 for eid in rest):
                continue
        if not rest:
            continue
        eid = rest[0]
        stack.append((idx + 1, chosen | {eid}, cost + scaled[eid], True, None))
        stack.append((idx + 1, chosen, cost, None, alone))
    if best is None:
        raise SolverError("search missed the feasible full set")
    return best


def _enumerate_all(order, scaled, predicate, budget) -> tuple | None:
    """Best-first: subsets leave a heap in increasing key (cost, sorted ids)
    and the first feasible one is the minimum, so exactly the subsets keyed
    below it are asked, whatever the predicate.  A subset's parent is the
    subset minus its largest id; `ext[t]` lists the ids above t cheapest
    first (ties by id), the order of the keys of the children of a subset
    whose largest id is t.  Each popped subset pushes its next sibling (its
    last id swapped for the next one in its parent's list) and its first
    child, neither keyed below it, so every subset is pushed once, after
    every subset keyed below it has been pushed."""
    if 2 ** len(order) > budget.max_checks:
        raise OracleRefusalError(
            f"{2 ** len(order)} subsets exceed the {budget.max_checks} check budget"
        )
    meter = _Meter(budget)
    by_cost = sorted(order, key=lambda eid: (scaled[eid], eid))
    ext = {t: [eid for eid in by_cost if eid > t] for t in order}
    # (cost, sorted ids, the parent's list, the last id's place in it); no two
    # entries share ids, so the heap compares no further than them
    heap = [(0, (), (), 0)]
    while heap:
        cost, subset, siblings, k = heappop(heap)
        meter.tick()
        if predicate(frozenset(subset)):
            return cost, subset
        if k + 1 < len(siblings):
            swap = siblings[k + 1]
            heappush(heap, (
                cost - scaled[subset[-1]] + scaled[swap],
                subset[:-1] + (swap,), siblings, k + 1,
            ))
        children = ext[subset[-1]] if subset else by_cost
        if children:
            first = children[0]
            heappush(heap, (cost + scaled[first], subset + (first,), children, 0))
    return None


def _sndp_feasible(inst: SndpInstance, subset: frozenset[int]) -> bool:
    return first_unmet_pair(inst._network.within(subset), inst.requirements) is None


def exact_opt(instance, *, budget: OracleBudget | None = None) -> OptResult:
    """Dispatch the oracle over any instance kind in this package."""
    if isinstance(instance, FgcInstance):
        predicate = lambda s: verify_fgc(instance, s).ok
    elif isinstance(instance, CapNdpInstance):
        predicate = lambda s: check_capacitated_cuts(instance, s).ok
    elif isinstance(instance, FstInstance):
        predicate = lambda s: verify_fst(instance, s).ok
    elif isinstance(instance, NcFgcInstance):
        predicate = lambda s: verify_ncfgc(instance, s, mode="qconn").ok
    elif isinstance(instance, SndpInstance):
        predicate = lambda s: _sndp_feasible(instance, s)
    else:
        raise ValidationError(f"no oracle for {type(instance).__name__}")
    g = instance.graph
    costs = {eid: g.edge(eid).cost for eid in g.edge_ids}
    return minimum_cost_subset(g.edge_ids, costs, predicate, budget=budget)


@dataclass(frozen=True)
class RatioEntry:
    name: str
    solver_cost: Fraction
    opt_cost: Fraction
    ratio: Fraction
    bound: Fraction
    within: bool


@dataclass(frozen=True)
class RatioReport:
    kind: str
    entries: tuple[RatioEntry, ...]

    def all_within(self) -> bool:
        return all(e.within for e in self.entries)

    def worst(self) -> Fraction:
        return max((e.ratio for e in self.entries), default=Fraction(1))

    def render(self) -> str:
        lines = [f"kind={self.kind} instances={len(self.entries)}"]
        for e in self.entries:
            lines.append(
                f"name={e.name} solver={e.solver_cost} opt={e.opt_cost} "
                f"ratio={e.ratio} bound={e.bound} "
                f"within={'yes' if e.within else 'no'}"
            )
        lines.append(
            f"summary worst={self.worst()} "
            f"all_within={'yes' if self.all_within() else 'no'}"
        )
        return "\n".join(lines) + "\n"


def ratio_report(
    kind: str,
    instances: Iterable[tuple[str, object]],
    *,
    budget: OracleBudget | None = None,
    stage_one: str = "approx",
) -> RatioReport:
    """Solve each instance, compare with the oracle optimum, and flag any
    ratio beyond the solver's proven factor."""
    if kind not in REPORT_KINDS:
        raise ValidationError(f"unknown report kind {kind!r}")
    entries = []
    for name, instance in instances:
        result = KINDS[kind_of(instance)].solve(instance, stage_one)
        solver_cost, bound = result.cost, result.bound
        opt = exact_opt(instance, budget=budget)
        if not opt.feasible:
            raise SolverError(f"{name}: solver succeeded on an infeasible instance")
        if opt.cost == 0:
            if solver_cost != 0:
                raise SolverError(f"{name}: positive cost where the optimum is free")
            ratio = Fraction(1)
        else:
            ratio = Fraction(solver_cost, 1) / opt.cost
        entries.append(
            RatioEntry(
                name, solver_cost, opt.cost, ratio, bound,
                solver_cost <= bound * opt.cost,
            )
        )
    return RatioReport(kind, tuple(entries))
