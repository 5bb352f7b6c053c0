"""Line-oriented instance and solution files with exact rational costs.

An instance file is a header, a kind, a node count, then one line per edge
and per kind-specific item; edge ids are the zero-based order of the edge
lines.  Costs are rendered as exact fractions ("3/2", "2") and parsed
exactly, including decimal forms; integers are taken only as rendered
(0|-?[1-9][0-9]*).  Rendering is canonical: a parsed canonical file renders
back byte for byte, which is what the golden corpus pins down.

    flexconn-instance v1
    kind fgc
    nodes 4
    edge 0 1 3/2 safe
    pair 0 3 2 1

Kind-specific lines: "pair i j p q" (fgc), "terminal t" (fst),
"safe-node v" and "requirement p" (ncfgc).  Solutions carry their kind, the
exact cost, and one "edge" line per chosen id:

    flexconn-solution v1
    kind fgc
    cost 7/2
    edge 0
    edge 3

Blank lines and full-line "#" comments are ignored when parsing and never
emitted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import ParseError, ValidationError
from .fgc import FgcInstance, solve_fgc, verify_fgc
from .fst import FstInstance, solve_fst, verify_fst
from .graphs import MultiGraph
from .ncfgc import NcFgcInstance, solve_p_ncfgc, verify_ncfgc

INSTANCE_HEADER = "flexconn-instance v1"
SOLUTION_HEADER = "flexconn-solution v1"


class Kind(NamedTuple):
    """What serves one file kind: `solve(inst, stage_one)`,
    `verify(inst, edges, mode)` returning a `Verdict`, and the witness line
    for its violation."""

    instance_type: type
    solve: Callable
    verify: Callable
    witness: Callable[[object], str]


def _fgc_witness(v) -> str:
    removed = ",".join(str(e) for e in sorted(v.removed)) or "nothing"
    return (
        f"pair {v.pair[0]},{v.pair[1]}: connectivity {v.connectivity} "
        f"after removing {removed}"
    )


def _fst_witness(v) -> str:
    if v.removed is None:
        return "terminals are disconnected"
    return f"terminals disconnected after removing unsafe edge {v.removed}"


def _ncfgc_witness(v) -> str:
    if v.removed is None:
        return (
            f"pair {v.pair[0]},{v.pair[1]}: capacitated connectivity "
            f"{v.connectivity}"
        )
    removed = ",".join(str(x) for x in sorted(v.removed)) or "nothing"
    return (
        f"pair {v.pair[0]},{v.pair[1]}: connectivity {v.connectivity} "
        f"after nodes {removed} fail"
    )


# The lambdas look solver names up when called, so that a wrapper put on
# this module's attributes after import still sees every call.
KINDS = {
    "fgc": Kind(
        FgcInstance,
        lambda inst, stage_one: solve_fgc(inst),
        lambda inst, edges, mode: verify_fgc(inst, edges),
        _fgc_witness,
    ),
    "fst": Kind(
        FstInstance,
        lambda inst, stage_one: solve_fst(inst, stage_one=stage_one),
        lambda inst, edges, mode: verify_fst(inst, edges),
        _fst_witness,
    ),
    "ncfgc": Kind(
        NcFgcInstance,
        lambda inst, stage_one: solve_p_ncfgc(inst),
        lambda inst, edges, mode: verify_ncfgc(inst, edges, mode=mode),
        _ncfgc_witness,
    ),
}

# The kind each kind-specific instance line belongs to.
_ITEM_KINDS = {"pair": "fgc", "terminal": "fst", "safe-node": "ncfgc",
               "requirement": "ncfgc"}


def kind_of(instance) -> str:
    for name, kind in KINDS.items():
        if isinstance(instance, kind.instance_type):
            return name
    raise ValidationError(f"no file kind for {type(instance).__name__}")


@dataclass(frozen=True)
class InstanceDoc:
    instance: object

    @property
    def kind(self) -> str:
        return kind_of(self.instance)


@dataclass(frozen=True)
class SolutionDoc:
    kind: str
    cost: Fraction
    edges: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "edges", tuple(sorted(set(self.edges))))


def _significant_lines(text: str):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield number, line


_CANONICAL_INT = re.compile(r"0|-?[1-9][0-9]*")


def canonical_int(token: str) -> int:
    """int(token) for an integer in its rendered form; ValueError for the
    other forms int() takes (`+`, leading zeros, `-0`, `_`, other digits)."""
    if not _CANONICAL_INT.fullmatch(token):
        raise ValueError(token)
    return int(token)


def _int(token: str, what: str, number: int) -> int:
    try:
        return canonical_int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}", line=number)


def _fraction(token: str, number: int) -> Fraction:
    try:
        if not token.isascii() or "_" in token:  # Fraction() takes both
            raise ValueError
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad cost {token!r}", line=number)
    if value < 0:
        raise ParseError(f"negative cost {token}", line=number)
    return value


def _node(token: str, n: int, number: int) -> int:
    v = _int(token, "node", number)
    if not 0 <= v < n:
        raise ParseError(f"node {v} out of range for {n} nodes", line=number)
    return v


def _body(text: str, header: str, what: str):
    """(line number, tokens) of each significant line after the header.
    The one kind line is checked here and passed on like the others."""
    lines = _significant_lines(text)
    try:
        number, line = next(lines)
    except StopIteration:
        raise ParseError(f"empty input, expected the {what} header")
    if line != header:
        raise ParseError(f"expected {header!r}", line=number)
    seen_kind = False
    for number, line in lines:
        tokens = line.split()
        if tokens[0] == "kind":
            if seen_kind:
                raise ParseError("kind given twice", line=number)
            if len(tokens) != 2 or tokens[1] not in KINDS:
                raise ParseError(
                    f"kind must be one of {', '.join(KINDS)}", line=number
                )
            seen_kind = True
        yield number, tokens
    if not seen_kind:
        raise ParseError("missing kind line")


def parse_instance(text: str) -> InstanceDoc:
    kind = None
    n = None
    rows: list[tuple[int, int, Fraction, bool]] = []
    pairs: dict[tuple[int, int], tuple[int, int]] = {}
    terminals: set[int] = set()
    safe_nodes: set[int] = set()
    requirement = None
    for number, tokens in _body(text, INSTANCE_HEADER, "instance"):
        word = tokens[0]
        if word == "kind":
            kind = tokens[1]
            continue
        if kind is None:
            raise ParseError("kind must come before other lines", line=number)
        if word == "nodes":
            if n is not None:
                raise ParseError("nodes given twice", line=number)
            if len(tokens) != 2:
                raise ParseError("usage: nodes N", line=number)
            n = _int(tokens[1], "node count", number)
            if n < 1:
                raise ParseError("need at least one node", line=number)
            continue
        if n is None:
            raise ParseError("nodes must come before other lines", line=number)
        owner = _ITEM_KINDS.get(word, kind)
        if owner != kind:
            raise ParseError(f"{word} lines belong to {owner} instances", line=number)
        if word == "edge":
            if len(tokens) != 5:
                raise ParseError("usage: edge u v cost safe|unsafe", line=number)
            u = _node(tokens[1], n, number)
            v = _node(tokens[2], n, number)
            if u == v:
                raise ParseError("loop edges are not allowed", line=number)
            cost = _fraction(tokens[3], number)
            if tokens[4] not in ("safe", "unsafe"):
                raise ParseError(
                    f"safety must be safe or unsafe, got {tokens[4]!r}", line=number
                )
            rows.append((u, v, cost, tokens[4] == "safe"))
        elif word == "pair":
            if len(tokens) != 5:
                raise ParseError("usage: pair i j p q", line=number)
            i = _node(tokens[1], n, number)
            j = _node(tokens[2], n, number)
            if i == j:
                raise ParseError("pair must join two distinct nodes", line=number)
            p = _int(tokens[3], "p", number)
            q = _int(tokens[4], "q", number)
            if p < 0 or q < 0:
                raise ParseError("requirements must not be negative", line=number)
            key = (min(i, j), max(i, j))
            if key in pairs:
                raise ParseError(f"pair {key} repeated", line=number)
            pairs[key] = (p, q)
        elif word == "terminal":
            if len(tokens) != 2:
                raise ParseError("usage: terminal t", line=number)
            t = _node(tokens[1], n, number)
            if t in terminals:
                raise ParseError(f"terminal {t} repeated", line=number)
            terminals.add(t)
        elif word == "safe-node":
            if len(tokens) != 2:
                raise ParseError("usage: safe-node v", line=number)
            v = _node(tokens[1], n, number)
            if v in safe_nodes:
                raise ParseError(f"safe node {v} repeated", line=number)
            safe_nodes.add(v)
        elif word == "requirement":
            if requirement is not None:
                raise ParseError("requirement given twice", line=number)
            if len(tokens) != 2:
                raise ParseError("usage: requirement p", line=number)
            requirement = _int(tokens[1], "requirement", number)
            if requirement < 0:
                raise ParseError("requirement must not be negative", line=number)
        else:
            raise ParseError(f"unknown line {word!r}", line=number)
    if n is None:
        raise ParseError("missing nodes line")
    graph = MultiGraph.build(n, rows)
    if kind == "fgc":
        return InstanceDoc(FgcInstance(graph, pairs))
    if kind == "fst":
        return InstanceDoc(FstInstance(graph, frozenset(terminals)))
    if requirement is None:
        raise ParseError("missing requirement line")
    return InstanceDoc(NcFgcInstance(graph, frozenset(safe_nodes), requirement))


def render_instance(doc: InstanceDoc) -> str:
    g = doc.instance.graph
    lines = [INSTANCE_HEADER, f"kind {doc.kind}", f"nodes {g.n}"]
    for e in g.edges:
        label = "safe" if e.safe else "unsafe"
        lines.append(f"edge {e.u} {e.v} {e.cost} {label}")
    if doc.kind == "fgc":
        for (i, j), (p, q) in doc.instance.pairs.items():
            lines.append(f"pair {i} {j} {p} {q}")
    elif doc.kind == "fst":
        for t in sorted(doc.instance.terminals):
            lines.append(f"terminal {t}")
    else:
        for v in sorted(doc.instance.safe_nodes):
            lines.append(f"safe-node {v}")
        lines.append(f"requirement {doc.instance.requirement}")
    return "\n".join(lines) + "\n"


def parse_solution(text: str) -> SolutionDoc:
    kind = None
    cost = None
    edges: set[int] = set()
    for number, tokens in _body(text, SOLUTION_HEADER, "solution"):
        word = tokens[0]
        if word == "kind":
            kind = tokens[1]
        elif word == "cost":
            if cost is not None:
                raise ParseError("cost given twice", line=number)
            if len(tokens) != 2:
                raise ParseError("usage: cost value", line=number)
            cost = _fraction(tokens[1], number)
        elif word == "edge":
            if len(tokens) != 2:
                raise ParseError("usage: edge id", line=number)
            eid = _int(tokens[1], "edge id", number)
            if eid < 0:
                raise ParseError("edge ids are not negative", line=number)
            if eid in edges:
                raise ParseError(f"edge {eid} repeated", line=number)
            edges.add(eid)
        else:
            raise ParseError(f"unknown line {word!r}", line=number)
    if cost is None:
        raise ParseError("missing cost line")
    return SolutionDoc(kind, cost, tuple(edges))


def render_solution(doc: SolutionDoc) -> str:
    lines = [SOLUTION_HEADER, f"kind {doc.kind}", f"cost {doc.cost}"]
    lines.extend(f"edge {eid}" for eid in doc.edges)
    return "\n".join(lines) + "\n"


def read_instance(path) -> InstanceDoc:
    return parse_instance(Path(path).read_text())


def write_instance(path, doc: InstanceDoc) -> None:
    Path(path).write_text(render_instance(doc))


def read_solution(path) -> SolutionDoc:
    return parse_solution(Path(path).read_text())


def write_solution(path, doc: SolutionDoc) -> None:
    Path(path).write_text(render_solution(doc))
