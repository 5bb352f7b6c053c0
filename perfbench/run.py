"""Seeded benchmark of the flexconn solvers and oracle.

    python3 perfbench/run.py --workload fgc-mid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the library is imported from `src/` there.
The workload's instance set is drawn from the seed by the benchmark's own
generator and handed to the library as instance text.  Whole rounds over the
set are run until `--seconds` have passed; every output of the first round is
checked apart from the library, and later rounds must repeat it exactly.

With `--trace 0` the end-to-end metrics are printed.  With `--trace 1` half
the time runs untraced and half with spans around every layer; the per-layer
metrics and the tracing overhead are printed, and the spans are written to
`perfbench/out/`.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import program
import spans
from calibration import REF_S, reference_seconds
from instances import render
from workloads import WORKLOADS, draw_set

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
# Operations are timed in blocks of about this many seconds, with a run of
# the reference computation between blocks.
REF_EVERY_S = 0.25


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def setup_seconds(root: Path, texts, warm_texts, oracle: bool):
    """Median time, over fresh interpreters, from start to ready; returns
    it scaled to the reference core and as read on the wall clock."""
    job = json.dumps({"cases": texts, "warm": warm_texts, "oracle": oracle})
    scaled = []
    wall = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py")],
            cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        ) as probe:
            probe.stdin.write(job)
            probe.stdin.close()
            line = probe.stdout.readline()
            wall.append(time.perf_counter() - start)
            reference = probe.stdout.read()
        if line.strip() != "ready" or probe.returncode != 0:
            raise program.BenchError("set-up probe did not get ready")
        scaled.append(wall[-1] * REF_S / float(reference))
    return statistics.median(scaled), statistics.median(wall)


class Runner:
    """Runs whole rounds over one case set and keeps what they show."""

    def __init__(self, flexconn, workload, cases):
        self.flexconn = flexconn
        self.workload = workload
        self.cases = cases
        self.times: list[float] = []
        self.scaled: list[float] = []
        self.references: list[float] = []
        self.outcomes: list | None = None
        self.results: list = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def rounds(self, docs, seconds: float) -> tuple[int, float]:
        """Whole rounds until `seconds` pass; returns (rounds, scaled solver
        time)."""
        count = 0
        busy = 0.0
        start = time.perf_counter()
        while count == 0 or time.perf_counter() - start < seconds:
            busy += self._round(docs)
            count += 1
        return count, busy

    def _round(self, docs) -> float:
        outcomes = []
        results = []
        refs = [reference_seconds()]
        done = []  # (wall time, block) of every operation that returned
        block_start = time.perf_counter()
        for i, case in enumerate(docs):
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                got = program.operation(self.flexconn, case, self.workload.oracle)
            except Exception as exc:  # a failed operation is counted, not fatal
                got = None
                self.failed += 1
                outcomes.append(("failed", type(exc).__name__))
            elapsed = time.perf_counter() - t0
            results.append(got)
            if got is not None:
                done.append((elapsed, len(refs) - 1))
                outcomes.append(program.outcome(got))
            if i == len(docs) - 1 or time.perf_counter() - block_start >= REF_EVERY_S:
                refs.append(reference_seconds())
                block_start = time.perf_counter()
        self.references += refs
        # The speed of the core during block b is the median of the
        # references around it: refs[b] and refs[b + 1] bracket it, and two
        # more on each side keep one disturbed reference from moving it.
        busy = 0.0
        for elapsed, b in done:
            scaled = elapsed * REF_S / statistics.median(refs[max(0, b - 2):b + 4])
            self.times.append(elapsed)
            self.scaled.append(scaled)
            busy += scaled
        if self.outcomes is None:
            self.outcomes = outcomes
            self.results = results
            for i, (case, got) in enumerate(zip(self.cases, results)):
                for inst, (result, optima) in zip(case, got or ()):
                    self.problems += [
                        f"case {i}, {inst['kind']}: {p}"
                        for p in program.check(inst, result, optima)
                    ]
        elif outcomes != self.outcomes:
            self.problems.append("a repeated round returned different outputs")
        return busy

    def solver_results(self):
        """Solver result records of the first round."""
        return [result for got in self.results if got for result, _ in got]


def per_layer(rec: spans.Recorder, runner: Runner, rounds: int):
    """Every per-layer metric, per round of the case set."""
    c, t, own, n = defaultdict(float, rec.totals()), rec.total_s, rec.self_s, rec.calls
    results = runner.solver_results()
    jain_iters = sum(getattr(r, "iterations", 0) for r in results)
    bnb_nodes = sum(getattr(r, "nodes_explored", 0) for r in results)
    certified = c["lp.certified"] / rounds
    fallbacks = n["lp.exact_fallback"] / rounds
    values = {
        "lp.solve_cut_lp.calls": (n["lp.solve_cut_lp"], "count"),
        "lp.solve_cut_lp.self_s": (own["lp.solve_cut_lp"], "s"),
        "lp.rows": (c["lp.rows"], "count"),
        "lp.simplex_float.calls": (n["lp.simplex_float"], "count"),
        "lp.simplex_float.s": (t["lp.simplex_float"], "s"),
        "lp.exact_fallbacks": (n["lp.exact_fallback"], "count"),
        "lp.exact_fallback.s": (t["lp.exact_fallback"], "s"),
        "lp.certified": (c["lp.certified"], "count"),
        "lp.certify.s": (t["lp.certify"], "s"),
        "jain.separation.calls": (n["jain.separation"], "count"),
        "jain.separation.self_s": (own["jain.separation"], "s"),
        "fgc.split_edges": (c["fgc.split_edges"], "count"),
        "fgc.recheck.s": (t["fgc.recheck"], "s"),
        "fst.stage_one.s": (t["fst.stage_one"], "s"),
        "fst.second_stage_build.s": (t["fst.second_stage_build"], "s"),
        "fst.verify.s": (t["fst.verify"], "s"),
        "ncfgc.separate_rooted.calls": (n["ncfgc.separate_rooted"], "count"),
        "ncfgc.separate_rooted.self_s": (own["ncfgc.separate_rooted"], "s"),
        "ncfgc.rooted_q_flow.calls": (n["ncfgc.rooted_q_flow"], "count"),
        "ncfgc.verify.s": (t["ncfgc.verify"], "s"),
        "flows.networks": (c["flows.networks"], "count"),
        "flows.arcs": (c["flows.arcs"], "count"),
        "flows.max_flow.calls": (n["flows.max_flow"], "count"),
        "flows.max_flow.s": (t["flows.max_flow"], "s"),
        "flows.augmentations": (c["flows.augmentations"], "count"),
        "flows.max_flow_min_cut.calls": (n["flows.max_flow_min_cut"], "count"),
        "flows.edge_connectivity.calls": (n["flows.edge_connectivity"], "count"),
        "flows.edge_connectivity.s": (t["flows.edge_connectivity"], "s"),
        "oracle.bnb.s": (t["oracle.bnb"], "s"),
        "oracle.enumerate.s": (t["oracle.enumerate"], "s"),
        "oracle.predicate_calls": (n["oracle.predicate"], "count"),
    }
    metrics = {k: {"value": v / rounds, "unit": u} for k, (v, u) in values.items()}
    metrics["lp.certified_ratio"] = {
        "value": certified / (certified + fallbacks) if certified + fallbacks else 0.0,
        "unit": "ratio",
    }
    metrics["jain.iterations"] = {"value": float(jain_iters), "unit": "count"}
    metrics["ncfgc.bnb_nodes"] = {"value": float(bnb_nodes), "unit": "count"}
    metrics["instance_io.parse.s"] = {"value": t["instance_io.parse"], "unit": "s"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    root = Path.cwd()
    try:
        flexconn = program.load(root)
    except program.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    warm, cases = draw_set(workload, args.seed)
    texts = [[render(inst) for inst in case] for case in cases]
    warm_texts = [render(inst) for inst in warm]
    setup, setup_wall = setup_seconds(root, texts, warm_texts, workload.oracle)

    docs = program.parse_cases(flexconn, texts)
    warm_case = program.parse_cases(flexconn, [warm_texts])[0]
    program.operation(flexconn, warm_case, workload.oracle)
    reference_seconds()
    runner = Runner(flexconn, workload, cases)

    if args.trace == 0:
        rounds, busy = runner.rounds(docs, args.seconds)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "solve_s.p50": {"value": statistics.median(runner.scaled), "unit": "s"},
            "cost.sum": {
                "value": float(sum(r.cost for r in runner.solver_results())),
                "unit": "cost",
            },
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    else:
        plain_rounds, plain_busy = runner.rounds(docs, args.seconds / 2)
        plain_ops = runner.attempted - runner.failed
        rec = spans.Recorder()
        spans.install(rec, flexconn)
        docs = program.parse_cases(flexconn, texts)
        rounds, busy = runner.rounds(docs, args.seconds / 2)
        overhead = 100.0 * ((busy / rounds) / (plain_busy / plain_rounds) - 1.0)
        metrics = per_layer(rec, runner, rounds)
        metrics["solves_per_s"] = {"value": plain_ops / plain_busy, "unit": "1/s"}
        metrics["solve_s.p50_wall"] = {
            "value": statistics.median(runner.times[:plain_ops]), "unit": "s",
        }
        metrics["reference_s"] = {
            "value": statistics.median(runner.references), "unit": "s",
        }
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        rec.dump(out / f"trace-{workload.name}-{args.seed}.jsonl")
        print(f"tracing overhead {overhead:+.1f}% "
              f"({plain_rounds} untraced, {rounds} traced rounds)")

    for problem in runner.problems:
        print(f"CHECK FAILED {problem}")
    print(f"wall clock: set-up {setup_wall:.4g} s, operation p50 "
          f"{statistics.median(runner.times):.4g} s, reference p50 "
          f"{statistics.median(runner.references) * 1000:.3g} ms "
          f"(scaled figures assume {REF_S * 1000:g} ms)")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {runner.attempted}, failed {runner.failed}, "
          f"last pass {rounds} rounds of {len(cases)} cases")
    correct = not runner.problems
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
