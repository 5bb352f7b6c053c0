"""Span recorder and the wrappers that install it around library layers.

Wrappers are installed from outside the library, at the module attribute the
caller looks up (`flexconn.jain.solve_cut_lp`, `flexconn.ncfgc.solve_cut_lp`,
`flexconn.lp._simplex`, ...), so the library itself is not edited.  Each
wrapped call opens a span holding a name, start, end and parent; counts are
recorded at the same boundaries.

A span's self time is its duration minus the part of that interval its child
spans cover.  Children are merged as intervals, since the `enumerate`
oracle runs predicates on a thread pool whose spans overlap in time.  Every
span is folded into per-name totals when it closes; the first `keep` spans
are also kept in memory and written out by `Recorder.dump` when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict


class _Open:
    __slots__ = ("sid", "name", "start", "parent", "children")

    def __init__(self, sid, name, start, parent):
        self.sid = sid
        self.name = name
        self.start = start
        self.parent = parent
        self.children: list[tuple[float, float]] = []


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


class Recorder:
    """Collects spans and counters; safe to use from several threads."""

    def __init__(self, keep: int = 200_000):
        self.keep = keep
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._tallies: dict[str, itertools.count] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_top: _Open | None = None
        self._next = 0

    def _stack(self) -> list[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def tally(self, name: str):
        """A cheap unit counter for hot call sites, read by `totals`.

        `next` on an `itertools.count` is a single call into C, so counts
        from pool threads are not lost.
        """
        counter = self._tallies[name] = itertools.count()
        return functools.partial(next, counter)

    def totals(self) -> dict[str, float]:
        """Counts and tallies together, by name; read once, when the run
        ends, since reading a tally advances it."""
        out = dict(self.counts)
        for name, counter in self._tallies.items():
            out[name] = out.get(name, 0) + next(counter)
        return out

    def open(self, name: str) -> _Open:
        stack = self._stack()
        # A span opened on a pool thread belongs to whatever the main thread
        # has open, which is the call that started the pool.
        parent = stack[-1] if stack else self._main_top
        with self._lock:
            sid = self._next
            self._next += 1
        span = _Open(sid, name, time.perf_counter(), parent)
        stack.append(span)
        if threading.current_thread() is self._main:
            self._main_top = span
        return span

    def close(self, span: _Open) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if threading.current_thread() is self._main:
            self._main_top = stack[-1] if stack else None
        duration = end - span.start
        own = duration - _covered(span.children)
        parent = span.parent
        with self._lock:
            if parent is not None:
                parent.children.append((span.start, end))
            self.calls[span.name] += 1
            self.total_s[span.name] += duration
            self.self_s[span.name] += own
            if len(self.spans) < self.keep:
                self.spans.append(
                    (span.sid, span.name, span.start, end,
                     None if parent is None else parent.sid)
                )
            else:
                self.dropped += 1

    def wrap(self, name: str, fn, after=None):
        """`fn` under a span called `name`; `after(result, args)` may count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(result, args)
            return result

        return traced

    def dump(self, path) -> None:
        """Write the kept spans as JSON lines: id, name, start, end, parent."""
        with open(path, "w") as out:
            for sid, name, start, end, parent in self.spans:
                out.write(json.dumps(
                    {"id": sid, "name": name, "start": start, "end": end,
                     "parent": parent}
                ) + "\n")
            if self.dropped:
                out.write(json.dumps({"dropped": self.dropped}) + "\n")


def install(rec: Recorder, flexconn) -> None:
    """Wrap every traced layer of an imported `flexconn` package."""
    from flexconn import fgc, flows, fst, jain, lp, ncfgc, oracle

    def patch(module, attr, name, after=None):
        setattr(module, attr, rec.wrap(name, getattr(module, attr), after))

    def count(name, measure=lambda result, args: 1):
        return lambda result, args: rec.count(name, measure(result, args))

    # lp: the cut LP, its float simplex, exact recovery and the exact fallback.
    for module in (jain, ncfgc):
        patch(module, "solve_cut_lp", "lp.solve_cut_lp",
              count("lp.rows", lambda r, a: len(r.rows)))
    simplex = lp._simplex

    def simplex_traced(k, rows, costs, exact):
        span = rec.open("lp.exact_fallback" if exact else "lp.simplex_float")
        try:
            return simplex(k, rows, costs, exact)
        finally:
            rec.close(span)

    lp._simplex = simplex_traced
    patch(lp, "_primal_from_basis", "lp.certify")
    patch(lp, "_dual_certifies", "lp.certify",
          count("lp.certified", lambda r, a: 1 if r else 0))

    # jain: iterative rounding and its separation oracle.
    patch(jain, "separation", "jain.separation")
    patch(fgc, "jain_round", "jain.jain_round")
    patch(fst, "jain_round", "jain.jain_round")

    # fgc: the unit-edge split that sets the LP width, and the final recheck.
    patch(fgc, "split_parallel", "fgc.split_parallel",
          count("fgc.split_edges", lambda r, a: r.graph.m))
    patch(fgc, "check_capacitated_cuts", "fgc.recheck")

    # fst: the two stages and the solver's own verification.
    patch(fst, "steiner_tree_approx", "fst.stage_one")
    patch(fst, "build_second_stage", "fst.second_stage_build")
    patch(fst, "verify_fst", "fst.verify")

    # ncfgc: rooted separation, rooted flows and the final verification.
    patch(ncfgc, "_separate_rooted", "ncfgc.separate_rooted")
    patch(ncfgc, "rooted_q_flow", "ncfgc.rooted_q_flow")
    patch(ncfgc, "verify_ncfgc", "ncfgc.verify")

    # flows: networks, arcs, augmenting paths and the two entry points.
    net = flows.Network
    init, add_pair = net.__init__, net.add_pair
    bump_networks = rec.tally("flows.networks")
    bump_arcs = rec.tally("flows.arcs")

    def init_counted(self, n):
        bump_networks()
        init(self, n)

    def add_pair_counted(self, u, v, cap_uv, cap_vu):
        bump_arcs()
        return add_pair(self, u, v, cap_uv, cap_vu)

    net.__init__ = init_counted
    net.add_pair = add_pair_counted
    patch(net, "max_flow", "flows.max_flow")
    augmenting_path = net._augmenting_path
    bump_augmentations = rec.tally("flows.augmentations")

    def augmenting_path_counted(self, s, t):
        path = augmenting_path(self, s, t)
        if path is not None:
            bump_augmentations()
        return path

    net._augmenting_path = augmenting_path_counted
    for module in (jain, fgc):
        patch(module, "max_flow_min_cut", "flows.max_flow_min_cut")
    for module in (jain, fgc, ncfgc, oracle):
        patch(module, "edge_connectivity", "flows.edge_connectivity")

    # oracle: the two search strategies and the predicates they call.
    patch(oracle, "_branch_and_bound", "oracle.bnb")
    patch(oracle, "_enumerate_all", "oracle.enumerate")
    for attr in ("verify_fgc", "verify_fst", "verify_ncfgc",
                 "check_capacitated_cuts", "_sndp_feasible"):
        patch(oracle, attr, "oracle.predicate")

    # instance_io: the benchmark parses through the package's public name.
    flexconn.parse_instance = rec.wrap("instance_io.parse", flexconn.parse_instance)
