"""Instance and solution files: canonical rendering, exact parsing."""

from fractions import Fraction

import pytest

from flexconn import (
    FgcInstance,
    FstInstance,
    InstanceDoc,
    MultiGraph,
    ParseError,
    SolutionDoc,
    ValidationError,
    kind_of,
    parse_instance,
    parse_solution,
    read_instance,
    read_solution,
    render_instance,
    render_solution,
    write_instance,
    write_solution,
)
from flexconn.generators import GEN_KINDS, gen_instance


@pytest.mark.parametrize("gen_kind", GEN_KINDS)
def test_round_trip_is_identity(gen_kind):
    for seed in (0, 1, 2):
        instance = gen_instance(gen_kind, seed)
        doc = InstanceDoc(instance)
        text = render_instance(doc)
        parsed = parse_instance(text)
        assert parsed.kind == doc.kind
        assert parsed.instance == instance
        # canonical: rendering what was parsed reproduces the bytes
        assert render_instance(parsed) == text


def test_costs_parse_exactly():
    text = (
        "flexconn-instance v1\n"
        "kind fst\n"
        "nodes 2\n"
        "edge 0 1 0.1 safe\n"
        "edge 0 1 3/2 unsafe\n"
        "terminal 0\n"
    )
    doc = parse_instance(text)
    g = doc.instance.graph
    assert g.edge(0).cost == Fraction(1, 10)
    assert g.edge(1).cost == Fraction(3, 2)
    assert "edge 0 1 1/10 safe" in render_instance(doc)


def test_comments_and_blank_lines_are_ignored():
    text = (
        "\n# generated for a smoke test\n"
        "flexconn-instance v1\n\n"
        "kind ncfgc\n"
        "# three nodes on a path\n"
        "nodes 3\n"
        "edge 0 1 1 safe\n"
        "edge 1 2 2 unsafe\n"
        "safe-node 0\n\n"
        "requirement 1\n"
    )
    doc = parse_instance(text)
    assert doc.kind == "ncfgc"
    assert doc.instance.safe_nodes == frozenset({0})
    assert doc.instance.requirement == 1


BAD_INSTANCES = [
    ("", None, "empty input"),
    ("flexconn-solution v1\n", 1, "expected"),
    ("flexconn-instance v1\nnodes 3\n", 2, "kind must come"),
    ("flexconn-instance v1\nkind mst\n", 2, "kind must be one of"),
    ("flexconn-instance v1\nkind fgc\nkind fgc\n", 3, "twice"),
    ("flexconn-instance v1\nkind fgc\nedge 0 1 1 safe\n", 3, "nodes must come"),
    ("flexconn-instance v1\nkind fgc\nnodes 0\n", 3, "at least one"),
    ("flexconn-instance v1\nkind fgc\nnodes 2\nedge 0 0 1 safe\n", 4, "loop"),
    ("flexconn-instance v1\nkind fgc\nnodes 2\nedge 0 5 1 safe\n", 4, "range"),
    ("flexconn-instance v1\nkind fgc\nnodes 2\nedge 0 1 -2 safe\n", 4, "negative"),
    ("flexconn-instance v1\nkind fgc\nnodes 2\nedge 0 1 1 solid\n", 4, "safety"),
    ("flexconn-instance v1\nkind fst\nnodes 2\npair 0 1 1 1\n", 4, "belong to fgc"),
    (
        "flexconn-instance v1\nkind fgc\nnodes 2\nterminal 0\n",
        4,
        "terminal lines belong to fst instances",
    ),
    (
        "flexconn-instance v1\nkind fst\nnodes 2\nsafe-node 0\n",
        4,
        "safe-node lines belong to ncfgc instances",
    ),
    (
        "flexconn-instance v1\nkind fgc\nnodes 2\nrequirement 1\n",
        4,
        "requirement lines belong to ncfgc instances",
    ),
    (
        "flexconn-instance v1\nkind fgc\nnodes 2\npair 0 1 1 1\npair 1 0 2 1\n",
        5,
        "repeated",
    ),
    (
        "flexconn-instance v1\nkind fst\nnodes 2\nterminal 1\nterminal 1\n",
        5,
        "repeated",
    ),
    ("flexconn-instance v1\nkind fgc\nnodes 2\nroute 0 1\n", 4, "unknown line"),
    ("flexconn-instance v1\nkind ncfgc\nnodes 2\n", None, "missing requirement"),
    ("flexconn-instance v1\n", None, "missing kind"),
    ("flexconn-instance v1\nkind fgc\n", None, "missing nodes"),
    # int() and Fraction() take underscores and other scripts' digits; the
    # grammar does not, and such files would not render back byte for byte
    ("flexconn-instance v1\nkind fgc\nnodes 1_0\n", 3, "node count must be an integer"),
    ("flexconn-instance v1\nkind fgc\nnodes 2\nedge 0 1 1_5 safe\n", 4, "bad cost '1_5'"),
    ("flexconn-instance v1\nkind fgc\nnodes 2\nedge \u0660 1 1 safe\n", 4, "node must be"),
    # nor a sign, leading zeros or -0, which int() takes but render drops
    ("flexconn-instance v1\nkind fgc\nnodes +2\n", 3, "node count must be an integer, got '+2'"),
    (
        "flexconn-instance v1\nkind fgc\nnodes 2\nedge 00 1 1 safe\n",
        4,
        "node must be an integer, got '00'",
    ),
    (
        "flexconn-instance v1\nkind fgc\nnodes 2\npair 0 1 +1 -0\n",
        4,
        "p must be an integer, got '+1'",
    ),
    (
        "flexconn-instance v1\nkind fgc\nnodes 2\npair 0 1 1 -0\n",
        4,
        "q must be an integer, got '-0'",
    ),
    (
        "flexconn-instance v1\nkind ncfgc\nnodes 2\nrequirement 01\n",
        4,
        "requirement must be an integer",
    ),
    ("flexconn-instance v1\nkind ncfgc\nnodes 2\nsafe-node +0\n", 4, "node must be an integer"),
    # canonical negative values still reach their own messages
    ("flexconn-instance v1\nkind fgc\nnodes -2\n", 3, "need at least one node"),
    ("flexconn-instance v1\nkind fgc\nnodes 2\nedge -1 1 1 safe\n", 4, "node -1 out of range"),
    ("flexconn-instance v1\nkind fgc\nnodes 2\npair 0 1 1 -1\n", 4, "must not be negative"),
    ("flexconn-instance v1\nkind ncfgc\nnodes 2\nrequirement -3\n", 4, "must not be negative"),
    # every usage line and repeat the grammar checks
    ("flexconn-instance v1\nkind fgc\nnodes 2\nnodes 2\n", 4, "nodes given twice"),
    ("flexconn-instance v1\nkind fgc\nnodes 2 3\n", 3, "usage: nodes N"),
    ("flexconn-instance v1\nkind fgc\nnodes 2\nedge 0 1 1\n", 4, "usage: edge u v cost"),
    ("flexconn-instance v1\nkind fgc\nnodes 2\npair 0 1 1\n", 4, "usage: pair i j p q"),
    (
        "flexconn-instance v1\nkind fgc\nnodes 2\npair 1 1 1 1\n",
        4,
        "pair must join two distinct nodes",
    ),
    ("flexconn-instance v1\nkind fst\nnodes 2\nterminal\n", 4, "usage: terminal t"),
    ("flexconn-instance v1\nkind ncfgc\nnodes 2\nsafe-node 0 1\n", 4, "usage: safe-node v"),
    (
        "flexconn-instance v1\nkind ncfgc\nnodes 2\nsafe-node 1\nsafe-node 1\n",
        5,
        "safe node 1 repeated",
    ),
    (
        "flexconn-instance v1\nkind ncfgc\nnodes 2\nrequirement 1\nrequirement 1\n",
        5,
        "requirement given twice",
    ),
    ("flexconn-instance v1\nkind ncfgc\nnodes 2\nrequirement\n", 4, "usage: requirement p"),
]


@pytest.mark.parametrize("text,line,needle", BAD_INSTANCES)
def test_parse_errors_name_the_line(text, line, needle):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert needle in str(err.value)
    assert err.value.line == line


def test_doc_kind_is_its_instances():
    g = MultiGraph.build(2, [(0, 1, Fraction(1), True)])
    inst = FgcInstance(g, {(0, 1): (1, 1)})
    assert kind_of(inst) == InstanceDoc(inst).kind == "fgc"
    with pytest.raises(ValidationError):
        kind_of(g)


def test_solution_round_trip_and_canonical_order():
    doc = SolutionDoc("fst", Fraction(7, 2), (3, 0, 3))
    assert doc.edges == (0, 3)
    text = render_solution(doc)
    assert text == "flexconn-solution v1\nkind fst\ncost 7/2\nedge 0\nedge 3\n"
    assert parse_solution(text) == doc
    with pytest.raises(ValidationError):
        SolutionDoc("mst", Fraction(1), ())


BAD_SOLUTIONS = [
    ("", "empty input"),
    ("flexconn-instance v1\n", "expected"),
    ("flexconn-solution v1\nkind fgc\nedge 0\n", "missing cost"),
    ("flexconn-solution v1\ncost 1\n", "missing kind"),
    ("flexconn-solution v1\nkind fgc\ncost 1\nedge 0\nedge 0\n", "repeated"),
    ("flexconn-solution v1\nkind fgc\ncost 1\nedge -1\n", "not negative"),
    ("flexconn-solution v1\nkind fgc\ncost 1\ncost 2\n", "twice"),
    ("flexconn-solution v1\nkind fgc\ncost 1\nbuy 0\n", "unknown line"),
    ("flexconn-solution v1\nkind fgc\ncost 1\nedge 1_0\n", "edge id must be an integer"),
    ("flexconn-solution v1\nkind fgc\ncost 1\nedge +1\n", "edge id must be an integer, got '+1'"),
    ("flexconn-solution v1\nkind fgc\ncost 1\nedge 01\n", "edge id must be an integer, got '01'"),
    ("flexconn-solution v1\nkind fgc\ncost 1\nedge -0\n", "edge id must be an integer, got '-0'"),
    ("flexconn-solution v1\nkind fgc\ncost 1 2\n", "usage: cost value"),
    ("flexconn-solution v1\nkind fgc\ncost 1\nedge 0 1\n", "usage: edge id"),
]


@pytest.mark.parametrize("text,needle", BAD_SOLUTIONS)
def test_solution_parse_errors(text, needle):
    with pytest.raises(ParseError) as err:
        parse_solution(text)
    assert needle in str(err.value)


def test_file_helpers(tmp_path):
    instance = gen_instance("fst", 5)
    doc = InstanceDoc(instance)
    path = tmp_path / "sample.instance"
    write_instance(path, doc)
    assert read_instance(path).instance == instance
    sol = SolutionDoc("fst", Fraction(4), (1, 2))
    spath = tmp_path / "sample.solution"
    write_solution(spath, sol)
    assert read_solution(spath) == sol
