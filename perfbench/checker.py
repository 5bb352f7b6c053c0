"""Independent feasibility checker for the benchmark's outputs.

Each problem is checked straight from its definition, with a small
unit-capacity augmenting-path routine of its own; no `flexconn` verifier
is used, so a fault shared by the library's solvers and verifiers cannot
pass unseen.

- fgc: after removing any q_ij unsafe chosen edges, p_ij edge-disjoint
  (i, j)-paths remain.  Removing fewer edges never lowers connectivity, so
  only failure sets of the largest allowed size are tried.
- fst: the terminals lie in one component of the chosen edges, also after
  any one unsafe chosen edge is lost.
- ncfgc: for every pair (i, j) and every set U of unsafe nodes other than
  i and j with |U| < p, p - |U| edge-disjoint paths avoid U.
"""

from __future__ import annotations

import itertools
from collections import deque


def disjoint_paths(n: int, edges, s: int, t: int, cutoff: int) -> int:
    """Edge-disjoint s-t paths over undirected unit edges, counted up to cutoff."""
    adj = [[] for _ in range(n)]
    to = []
    cap = []
    for u, v in edges:
        adj[u].append(len(to))
        to.append(v)
        cap.append(1)
        adj[v].append(len(to))
        to.append(u)
        cap.append(1)
    flow = 0
    while flow < cutoff:
        parent = [-1] * n
        parent[s] = -2
        queue = deque([s])
        while queue and parent[t] == -1:
            u = queue.popleft()
            for a in adj[u]:
                w = to[a]
                if cap[a] > 0 and parent[w] == -1:
                    parent[w] = a
                    queue.append(w)
        if parent[t] == -1:
            break
        v = t
        while v != s:
            a = parent[v]
            cap[a] -= 1
            cap[a ^ 1] += 1
            v = to[a ^ 1]
        flow += 1
    return flow


def _connected(n: int, edges, nodes) -> bool:
    root = list(range(n))

    def find(a):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    for u, v in edges:
        root[find(u)] = find(v)
    return len({find(v) for v in nodes}) <= 1


def _fgc_ok(inst, chosen) -> bool:
    n = inst["n"]
    unsafe = [e for e in chosen if not inst["edges"][e][3]]
    for (i, j), (p, q) in sorted(inst["pairs"].items()):
        if p == 0:
            continue
        for down in itertools.combinations(unsafe, min(q, len(unsafe))):
            gone = set(down)
            ends = [inst["edges"][e][:2] for e in chosen if e not in gone]
            if disjoint_paths(n, ends, i, j, p) < p:
                return False
    return True


def _fst_ok(inst, chosen) -> bool:
    n = inst["n"]
    terms = inst["terminals"]
    ends = {e: inst["edges"][e][:2] for e in chosen}
    if not _connected(n, ends.values(), terms):
        return False
    for e in chosen:
        if inst["edges"][e][3]:
            continue
        rest = [uv for f, uv in ends.items() if f != e]
        if not _connected(n, rest, terms):
            return False
    return True


def _ncfgc_ok(inst, chosen) -> bool:
    n = inst["n"]
    p = inst["p"]
    unsafe = [v for v in range(n) if v not in set(inst["safe_nodes"])]
    ends = [inst["edges"][e][:2] for e in chosen]
    for i in range(n):
        for j in range(i + 1, n):
            pool = [v for v in unsafe if v not in (i, j)]
            for k in range(min(p, len(pool) + 1)):
                for down in itertools.combinations(pool, k):
                    alive = [uv for uv in ends if not set(uv) & set(down)]
                    if disjoint_paths(n, alive, i, j, p - k) < p - k:
                        return False
    return True


_CHECKS = {"fgc": _fgc_ok, "fst": _fst_ok, "ncfgc": _ncfgc_ok}


def feasible(inst, edge_ids) -> bool:
    """True when the edge ids form a feasible solution of the instance."""
    chosen = sorted(set(edge_ids))
    if any(not 0 <= e < len(inst["edges"]) for e in chosen):
        return False
    return _CHECKS[inst["kind"]](inst, chosen)
