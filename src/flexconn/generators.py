"""Seeded random instances, small enough for the exhaustive oracle.

Graphs are connected by construction (random spanning tree plus extra,
possibly parallel, edges) with positive rational costs.  Instance
generators redraw until the full edge set is feasible, so solvers always
have something to find; the redraw loop is part of the seeded stream,
making every instance a pure function of its seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import SolverError, ValidationError
from .fgc import FgcInstance
from .fst import FstInstance
from .graphs import MultiGraph
from .instance_io import KINDS
from .ncfgc import NcFgcInstance

_DENOMINATORS = (1, 1, 1, 1, 2, 4)
_MAX_COST = 9
_SAFE_SHARE = 0.5
_ATTEMPTS = 2000


@dataclass(frozen=True)
class GenConfig:
    nodes: tuple[int, int] = (3, 6)
    extra_edges: tuple[int, int] = (1, 4)    # on top of the spanning tree
    pairs: tuple[int, int] = (1, 3)
    max_p: int = 3
    max_q: int = 3
    terminals: tuple[int, int] = (2, 4)
    ncfgc_p: tuple[int, int] = (1, 2)

    def __post_init__(self):
        # an extra edge needs two nodes to join
        for name in ("nodes", "extra_edges", "pairs", "terminals", "ncfgc_p"):
            low, high = getattr(self, name)
            floor = 2 if name == "nodes" else 0
            if not floor <= low <= high:
                raise ValidationError(f"{name} ({low}, {high}) is not {floor} <= low <= high")
        if min(self.max_p, self.max_q) < 1:
            raise ValidationError(f"max_p {self.max_p} and max_q {self.max_q} must be >= 1")
        # fst draws at least terminals[0] of the n nodes, and n may be nodes[0]
        if self.terminals[0] > self.nodes[0]:
            raise ValidationError(
                f"terminals {self.terminals} needs more nodes than nodes {self.nodes} may draw"
            )


def _cost(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, _MAX_COST), rng.choice(_DENOMINATORS))


def random_multigraph(rng: random.Random, cfg: GenConfig) -> MultiGraph:
    n = rng.randint(*cfg.nodes)
    rows = []
    for v in range(1, n):
        rows.append((rng.randrange(v), v, _cost(rng), rng.random() < _SAFE_SHARE))
    for _ in range(rng.randint(*cfg.extra_edges)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        rows.append((u, v, _cost(rng), rng.random() < _SAFE_SHARE))
    return MultiGraph.build(n, rows)


def _draw_pairs(rng: random.Random, n: int, count: int) -> list[tuple[int, int]]:
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return sorted(rng.sample(all_pairs, min(count, len(all_pairs))))


def _redraw(kind: str, seed: int, cfg: GenConfig, ensure_feasible: bool,
            draw: Callable[[random.Random], object]):
    """`draw` from one seeded stream until its full edge set is feasible
    (q-connectivity for ncfgc), or the first draw when not `ensure_feasible`."""
    rng = random.Random(seed)
    verify = KINDS[kind].verify
    for _ in range(_ATTEMPTS):
        inst = draw(rng)
        if not ensure_feasible or verify(inst, inst.graph.edge_ids, "qconn").ok:
            return inst
    raise SolverError(f"no feasible draw in {_ATTEMPTS} attempts for seed {seed}")


def gen_fgc(
    seed: int,
    *,
    regime: str = "q1",
    cfg: GenConfig = GenConfig(),
    ensure_feasible: bool = True,
) -> FgcInstance:
    """Random requirement instance; regime "q1", "p1", or "any"."""
    if regime not in ("q1", "p1", "any"):
        raise ValidationError(f"unknown regime {regime!r}")

    def draw(rng):
        g = random_multigraph(rng, cfg)
        pairs = {}
        for pair in _draw_pairs(rng, g.n, rng.randint(*cfg.pairs)):
            if regime == "q1":
                pairs[pair] = (rng.randint(1, cfg.max_p), 1)
            elif regime == "p1":
                pairs[pair] = (1, rng.randint(1, cfg.max_q))
            else:
                pairs[pair] = (rng.randint(1, cfg.max_p), rng.randint(1, cfg.max_q))
        return FgcInstance(g, pairs)

    return _redraw("fgc", seed, cfg, ensure_feasible, draw)


def gen_fst(seed: int, *, cfg: GenConfig = GenConfig()) -> FstInstance:
    def draw(rng):
        g = random_multigraph(rng, cfg)
        count = rng.randint(cfg.terminals[0], min(cfg.terminals[1], g.n))
        return FstInstance(g, frozenset(rng.sample(range(g.n), count)))

    return _redraw("fst", seed, cfg, True, draw)


def gen_ncfgc(
    seed: int, *, cfg: GenConfig = GenConfig(), ensure_feasible: bool = True
) -> NcFgcInstance:
    """Random node-flexible instance with at least one safe node."""

    def draw(rng):
        g = random_multigraph(rng, cfg)
        safe = frozenset(rng.sample(range(g.n), rng.randint(1, max(1, g.n // 2))))
        return NcFgcInstance(g, safe, rng.randint(*cfg.ncfgc_p))

    return _redraw("ncfgc", seed, cfg, ensure_feasible, draw)


_GENERATORS = {
    "fgc-q1": lambda seed, cfg: gen_fgc(seed, regime="q1", cfg=cfg),
    "fgc-p1": lambda seed, cfg: gen_fgc(seed, regime="p1", cfg=cfg),
    "fgc-any": lambda seed, cfg: gen_fgc(
        seed, regime="any", cfg=cfg, ensure_feasible=False
    ),
    "fst": lambda seed, cfg: gen_fst(seed, cfg=cfg),
    "ncfgc": lambda seed, cfg: gen_ncfgc(seed, cfg=cfg),
}
GEN_KINDS = tuple(_GENERATORS)


def gen_instance(kind: str, seed: int, *, cfg: GenConfig = GenConfig()):
    """Generator dispatch keyed the same way as instance files."""
    if kind not in _GENERATORS:
        raise ValidationError(f"unknown instance kind {kind!r}")
    return _GENERATORS[kind](seed, cfg)
