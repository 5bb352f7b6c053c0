"""The calls the benchmark times, and the checks it makes on their results.

The library is imported from `src/` of the checkout the benchmark runs in,
and only through its public entry points: `parse_instance`, `solve_fgc`,
`solve_fst`, `solve_p_ncfgc` and `exact_opt`.
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

from checker import feasible
from instances import edge_cost

# One BLAS thread: the float simplex works on small tableaux, and every
# workload times one thread of work.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


class BenchError(Exception):
    """The checkout cannot be benchmarked; nothing is measured."""


def load(root: Path):
    """Import `flexconn` from `root/src`, refusing any other copy."""
    src = (root / "src").resolve()
    if not (src / "flexconn" / "__init__.py").is_file():
        raise BenchError(f"no flexconn package under {src}")
    sys.path.insert(0, str(src))
    flexconn = importlib.import_module("flexconn")
    if Path(flexconn.__file__).resolve().parent.parent != src:
        raise BenchError(f"flexconn was imported from {flexconn.__file__}")
    return flexconn


def parse_cases(flexconn, texts):
    """Parsed instances of every case, from their instance texts."""
    return [[flexconn.parse_instance(t).instance for t in case] for case in texts]


def solve(flexconn, instance):
    """One solver call on a parsed instance; returns the result record."""
    if isinstance(instance, flexconn.FgcInstance):
        return flexconn.solve_fgc(instance)
    if isinstance(instance, flexconn.FstInstance):
        return flexconn.solve_fst(instance)
    return flexconn.solve_p_ncfgc(instance)


def certify(flexconn, instance):
    """The optimum by branch and bound, then by full enumeration."""
    return tuple(
        flexconn.exact_opt(instance, budget=flexconn.OracleBudget(strategy=s))
        for s in ("bnb", "enumerate")
    )


def operation(flexconn, case, oracle: bool):
    """The timed unit of work: a solve of every instance of the case, each
    followed by both certifications on oracle workloads.  Returns one
    (solver result, optima or None) pair per instance."""
    return [
        (solve(flexconn, inst), certify(flexconn, inst) if oracle else None)
        for inst in case
    ]


def outcome(got):
    """What must repeat exactly when the same case is run again."""
    return [
        (frozenset(result.edges), result.cost,
         None if optima is None else [(o.cost, o.edges) for o in optima])
        for result, optima in got
    ]


def check(inst, result, optima) -> list[str]:
    """Problems found in one operation's output; empty when it is correct.

    Every check is made apart from the library: feasibility by the
    benchmark's own checker, costs recomputed from the instance, and the
    bounds each method proves.
    """
    problems = []
    edges = sorted(result.edges)
    if not feasible(inst, edges):
        problems.append("solver output is infeasible")
    cost = edge_cost(inst, edges)
    if cost != result.cost:
        problems.append(f"reported cost {result.cost} != recomputed {cost}")
    kind = inst["kind"]
    if kind == "fgc" and cost > 2 * result.lp_objective:
        problems.append(f"cost {cost} > 2 x LP {result.lp_objective}")
    if kind == "fst":
        tree = edge_cost(inst, result.stage_one_edges)
        if cost > tree + 2 * result.lp_objective:
            problems.append(f"cost {cost} > tree {tree} + 2 x LP {result.lp_objective}")
    if kind == "ncfgc" and cost > result.rooted_cost:
        problems.append(f"cost {cost} > rooted cost {result.rooted_cost}")
    if optima is not None:
        bnb, enum = optima
        if bnb.cost != enum.cost:
            problems.append(f"bnb optimum {bnb.cost} != enumerate optimum {enum.cost}")
        for opt in optima:
            if not opt.feasible or not feasible(inst, opt.edges):
                problems.append("oracle optimum is infeasible")
            elif edge_cost(inst, opt.edges) != opt.cost:
                problems.append(f"oracle cost {opt.cost} != its edges' cost")
        if not bnb.cost <= cost <= result.bound * bnb.cost:
            problems.append(
                f"solver cost {cost} outside [{bnb.cost}, {result.bound} x {bnb.cost}]"
            )
    return problems
