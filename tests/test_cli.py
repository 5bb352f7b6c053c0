"""End-to-end command line behavior, driven through main()."""

from pathlib import Path

import pytest

import flexconn.cli as cli
import flexconn.errors as errors
import flexconn.flows as flows
import flexconn.instance_io as instance_io
from flexconn import parse_solution, read_solution
from flexconn.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

INFEASIBLE_FST = (
    "flexconn-instance v1\n"
    "kind fst\n"
    "nodes 3\n"
    "edge 0 1 1 safe\n"
    "edge 1 2 1 unsafe\n"
    "terminal 0\n"
    "terminal 2\n"
)


def gen_one(tmp_path, kind, seed=0):
    assert main(["gen", kind, "--seed", str(seed), "--out-dir", str(tmp_path)]) == 0
    return tmp_path / f"{kind}-{seed}.instance"


@pytest.mark.parametrize("kind", ["fgc-q1", "fgc-p1", "fst", "ncfgc"])
def test_gen_solve_verify_pipeline(tmp_path, capsys, kind):
    instance = gen_one(tmp_path, kind)
    assert instance.exists()
    solution = tmp_path / "out.solution"
    assert main(["solve", str(instance), "--output", str(solution)]) == 0
    doc = read_solution(solution)
    assert doc.cost == sum(
        (e for e in []), doc.cost
    )  # cost is present and exact
    capsys.readouterr()
    assert main(["verify", str(instance), "--solution", str(solution)]) == 0
    assert capsys.readouterr().out.startswith("feasible")


def test_solve_writes_to_stdout(tmp_path, capsys):
    instance = gen_one(tmp_path, "fst", seed=3)
    capsys.readouterr()                # drop the path printed by gen
    assert main(["solve", str(instance)]) == 0
    doc = parse_solution(capsys.readouterr().out)
    assert doc.kind == "fst"


def test_solve_reproduces_the_golden_solutions(capsys):
    """`flexconn solve` prints each golden instance's .solution file byte for
    byte; fgc-any instances are rejected by design and have none."""
    solved = [
        path
        for path in sorted(GOLDEN_DIR.glob("*.instance"))
        if not path.name.startswith("fgc-any-")
    ]
    assert solved
    assert sorted(GOLDEN_DIR.glob("*.solution")) == [
        path.with_suffix(".solution") for path in solved
    ]
    for path in solved:
        capsys.readouterr()
        assert main(["solve", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.encode() == path.with_suffix(".solution").read_bytes(), path.name


def test_verify_rejects_tampered_solutions(tmp_path, capsys):
    instance = gen_one(tmp_path, "fgc-q1", seed=1)
    solution = tmp_path / "out.solution"
    assert main(["solve", str(instance), "--output", str(solution)]) == 0
    text = solution.read_text()
    solution.write_text(text.replace("kind fgc", "kind fst"))
    assert main(["verify", str(instance), "--solution", str(solution)]) == 65
    assert "error:" in capsys.readouterr().err
    cost_line = next(l for l in text.splitlines() if l.startswith("cost"))
    solution.write_text(text.replace(cost_line, "cost 99999"))
    assert main(["verify", str(instance), "--solution", str(solution)]) == 65
    assert "cost" in capsys.readouterr().err


def test_verify_edge_list_and_witness(tmp_path, capsys):
    instance = tmp_path / "bridge.instance"
    instance.write_text(INFEASIBLE_FST)
    assert main(["verify", str(instance), "--edges", ""]) == 2
    out = capsys.readouterr().out
    assert out.startswith("infeasible")
    assert "disconnected" in out
    assert main(["verify", str(instance), "--edges", "0,1"]) == 2
    assert "unsafe edge 1" in capsys.readouterr().out
    assert main(["verify", str(instance), "--edges", "0,x"]) == 65
    # int() would read these as 10, 0, 1, 1 and 0; ids are written as
    # solution files write them
    for spec in ("1_0", "\u0660", "01", "0,+1", "-0"):
        assert main(["verify", str(instance), "--edges", spec]) == 65
        assert "bad edge list" in capsys.readouterr().err
    # blanks around an id are stripped
    assert main(["verify", str(instance), "--edges", " 0 , 1 "]) == 2
    assert "unsafe edge 1" in capsys.readouterr().out


WITNESS_FGC = (
    "flexconn-instance v1\n"
    "kind fgc\n"
    "nodes 3\n"
    "edge 0 2 1 unsafe\n"
    "edge 0 2 1 unsafe\n"
    "edge 0 2 1 unsafe\n"
    "edge 0 1 1 safe\n"
    "edge 1 2 1 unsafe\n"
    "pair 0 2 1 2\n"
)

WITNESS_NCFGC = (
    "flexconn-instance v1\n"
    "kind ncfgc\n"
    "nodes 3\n"
    "edge 0 1 1 safe\n"
    "edge 0 1 1 safe\n"
    "edge 1 2 1 safe\n"
    "edge 1 2 1 safe\n"
    "safe-node 0\n"
    "safe-node 2\n"
    "requirement 2\n"
)


@pytest.mark.parametrize(
    "text,edges,mode,witness",
    [
        (WITNESS_FGC, "0,1", "both",
         "pair 0,2: connectivity 0 after removing 0,1"),
        (WITNESS_FGC, "3", "both",
         "pair 0,2: connectivity 0 after removing nothing"),
        # q = 2 allows two failures, but one already cuts the only path
        (WITNESS_FGC, "0,4", "both",
         "pair 0,2: connectivity 0 after removing 0"),
        (INFEASIBLE_FST, "", "both", "terminals are disconnected"),
        (INFEASIBLE_FST, "0,1", "both",
         "terminals disconnected after removing unsafe edge 1"),
        (WITNESS_NCFGC, "0,1,2,3", "qconn",
         "pair 0,2: capacitated connectivity 1"),
        (WITNESS_NCFGC, "0,1,2,3", "enumeration",
         "pair 0,2: connectivity 0 after nodes 1 fail"),
        (WITNESS_NCFGC, "", "enumeration",
         "pair 0,1: connectivity 0 after nodes nothing fail"),
    ],
)
def test_verify_witness_lines(tmp_path, capsys, text, edges, mode, witness):
    instance = tmp_path / "witness.instance"
    instance.write_text(text)
    args = ["verify", str(instance), "--edges", edges, "--mode", mode]
    assert main(args) == 2
    assert capsys.readouterr().out == f"infeasible\n{witness}\n"


def test_solve_reports_infeasibility(tmp_path, capsys):
    instance = tmp_path / "bridge.instance"
    instance.write_text(INFEASIBLE_FST)
    assert main(["solve", str(instance)]) == 2
    assert capsys.readouterr().out.startswith("infeasible:")
    assert main(["oracle", str(instance)]) == 2
    assert capsys.readouterr().out == "infeasible\n"


# one edge each whose cost 10**400 no float holds; the cut LP goes exact
HUGE_COST = [
    "kind fgc\nnodes 3\nedge 0 1 1 safe\nedge 1 2 1 safe\nedge 0 2 1e400 safe\n"
    "pair 0 2 1 0\n",
    "kind fst\nnodes 3\nedge 0 1 1 unsafe\nedge 1 2 1 safe\nedge 0 1 3 unsafe\n"
    "edge 0 2 1e400 safe\nterminal 0\nterminal 2\n",
    "kind ncfgc\nnodes 3\nedge 0 1 1 unsafe\nedge 1 2 2 unsafe\n"
    "edge 0 2 1e400 unsafe\nsafe-node 0\nrequirement 1\n",
]


@pytest.mark.parametrize("body", HUGE_COST, ids=["fgc", "fst", "ncfgc"])
def test_costs_past_float_range_solve_to_the_optimum(tmp_path, capsys, body):
    instance = tmp_path / "huge.instance"
    instance.write_text("flexconn-instance v1\n" + body)
    assert main(["solve", str(instance)]) == 0
    solved = parse_solution(capsys.readouterr().out)
    assert main(["oracle", str(instance)]) == 0
    assert solved.cost == parse_solution(capsys.readouterr().out).cost


def test_oracle_finds_optima_and_respects_budget(tmp_path, capsys):
    instance = gen_one(tmp_path, "fst", seed=2)
    solved = tmp_path / "solver.solution"
    best = tmp_path / "oracle.solution"
    assert main(["solve", str(instance), "--output", str(solved)]) == 0
    assert main(["oracle", str(instance), "--output", str(best)]) == 0
    assert read_solution(best).cost <= read_solution(solved).cost
    capsys.readouterr()
    assert main(["oracle", str(instance), "--max-checks", "1"]) == 3
    assert "refused:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "instance", sorted(GOLDEN_DIR.glob("*.instance")), ids=lambda path: path.stem
)
def test_oracle_strategies_print_the_same_solution(capsys, instance):
    outcomes = []
    for strategy in ("bnb", "enumerate"):
        capsys.readouterr()
        code = main(["oracle", str(instance), "--strategy", strategy])
        outcomes.append((code, capsys.readouterr().out))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] in (0, 2)


def test_ratio_report_command(tmp_path, capsys):
    assert main(["ratio-report", "fst", "--count", "2", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("kind=fst instances=2\n")
    assert "summary worst=" in out and "all_within=yes" in out


def test_ratio_violation_dumps_the_instance(capsys, monkeypatch):
    # no honest violation exists, so fake the report and watch the fallout
    from fractions import Fraction

    from flexconn import parse_instance
    from flexconn.oracle import RatioEntry, RatioReport

    def forged(kind, instances, *, budget=None, stage_one="approx"):
        name = instances[0][0]
        entry = RatioEntry(name, Fraction(9), Fraction(1), Fraction(9),
                           Fraction(4), False)
        return RatioReport(kind, (entry,))

    monkeypatch.setattr(cli, "ratio_report", forged)
    assert main(["ratio-report", "fst", "--count", "1", "--seed", "5"]) == 1
    captured = capsys.readouterr()
    assert "all_within=no" in captured.out
    assert captured.err.startswith("counterexample fst-5:\n")
    header, _, body = captured.err.partition("\n")
    assert parse_instance(body).kind == "fst"


def test_usage_errors_exit_64(capsys):
    assert main([]) == 64
    assert main(["frobnicate"]) == 64
    assert main(["gen", "spanning-tree"]) == 64
    assert main(["verify", "x.instance"]) == 64  # needs --solution or --edges
    assert main(["gen", "fst", "--count", "-1"]) == 64
    assert main(["ratio-report", "fst", "--count", "-3"]) == 64
    # oracle budgets: checks at least 1, a time limit of at least 0 seconds
    assert main(["oracle", "x.instance", "--max-checks", "0"]) == 64
    assert main(["ratio-report", "fst", "--max-checks", "0"]) == 64
    assert main(["oracle", "x.instance", "--max-checks", "many"]) == 64
    for limit in ("-1", "nan", "soon"):
        assert main(["oracle", "x.instance", "--time-limit", limit]) == 64
    capsys.readouterr()


def test_unreadable_or_malformed_input_exits_65(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "missing.instance")]) == 65
    garbage = tmp_path / "garbage.instance"
    garbage.write_text("not an instance\n")
    assert main(["solve", str(garbage)]) == 65
    assert "error:" in capsys.readouterr().err


def break_fgc_solver(monkeypatch, error):
    def broken(inst):
        raise error("solver stack broke")

    monkeypatch.setattr(instance_io, "solve_fgc", broken)


@pytest.mark.parametrize(
    "error", [*cli._DATA_ERRORS, OSError], ids=lambda error: error.__name__
)
def test_data_errors_exit_65(tmp_path, capsys, monkeypatch, error):
    break_fgc_solver(monkeypatch, error)
    instance = gen_one(tmp_path, "fgc-q1")
    capsys.readouterr()
    assert main(["solve", str(instance)]) == cli.EX_DATA == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: solver stack broke\n"


@pytest.mark.parametrize(
    "error", [errors.OracleRefusalError, errors.GuardExceededError],
    ids=lambda error: error.__name__,
)
def test_refusals_exit_3(tmp_path, capsys, monkeypatch, error):
    break_fgc_solver(monkeypatch, error)
    instance = gen_one(tmp_path, "fgc-q1")
    capsys.readouterr()
    assert main(["solve", str(instance)]) == cli.EX_REFUSED == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "refused: solver stack broke\n"


def test_verify_refuses_past_the_enumeration_guard(tmp_path, capsys, monkeypatch):
    """Three unsafe parallel edges and (p, q) = (3, 2): the search would try
    the empty set and then the three single edges, one more than the guard."""
    monkeypatch.setattr(flows, "FAILURE_SET_GUARD", 3)
    instance = tmp_path / "guard.instance"
    instance.write_text(
        "flexconn-instance v1\nkind fgc\nnodes 2\n"
        + "edge 0 1 1 unsafe\n" * 3
        + "pair 0 1 3 2\n"
    )
    capsys.readouterr()
    assert main(["verify", str(instance), "--edges", "0,1,2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "refused: pair (0, 1) needs up to 4 failure sets, guard is 3\n"


def test_verify_refuses_past_the_ncfgc_enumeration_guard(tmp_path, capsys, monkeypatch):
    """Six nodes that can all fail, every edge between them and p = 3: for
    pair (0, 1) the search tries the empty set, the two nodes on its flow
    and then the one pair of them, one more set than the guard."""
    monkeypatch.setattr(flows, "FAILURE_SET_GUARD", 3)
    instance = tmp_path / "guard.instance"
    instance.write_text(
        "flexconn-instance v1\nkind ncfgc\nnodes 6\n"
        + "".join(f"edge {u} {v} 1 safe\n" for u in range(6) for v in range(u + 1, 6))
        + "requirement 3\n"
    )
    capsys.readouterr()
    args = ["verify", str(instance), "--edges", ",".join(map(str, range(15)))]
    assert main([*args, "--mode", "enumeration"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "refused: pair (0, 1) needs up to 4 failure sets, guard is 3\n"


def test_verify_answers_many_unsafe_edges_off_the_flow(tmp_path, capsys):
    """One safe edge joins the pair and 35 unsafe edges lie elsewhere: the
    first flow uses none of them, so no set of them can cut it, although
    C(35, 6) = 1623160 sets of 6 exist."""
    instance = tmp_path / "wide.instance"
    instance.write_text(
        "flexconn-instance v1\nkind fgc\nnodes 4\nedge 0 1 1 safe\n"
        + "edge 2 3 1 unsafe\n" * 35
        + "pair 0 1 1 6\n"
    )
    edges = ",".join(str(eid) for eid in range(36))
    capsys.readouterr()
    assert main(["verify", str(instance), "--edges", edges]) == 0
    assert capsys.readouterr() == ("feasible\n", "")


def test_verify_answers_a_long_ncfgc_path_before_any_node_fails(tmp_path, capsys):
    """Every node of a 42-node path can fail and p = 7: pair (0, 1) has one
    path with no node failing, so the empty set is the witness, although
    the sum of C(40, s) over s < 7 is 4598479 sets."""
    instance = tmp_path / "path.instance"
    instance.write_text(
        "flexconn-instance v1\nkind ncfgc\nnodes 42\n"
        + "".join(f"edge {v} {v + 1} 1 safe\n" for v in range(41))
        + "requirement 7\n"
    )
    edges = ",".join(str(eid) for eid in range(41))
    capsys.readouterr()
    args = ["verify", str(instance), "--edges", edges, "--mode", "enumeration"]
    assert main(args) == 2
    assert capsys.readouterr() == (
        "infeasible\npair 0,1: connectivity 1 after nodes nothing fail\n", ""
    )


@pytest.mark.parametrize(
    "error",
    ["LpResourceError", "LpInfeasibleError", "SolverError",
     "JainProgressError", "OracleContractError", "FlexconnError"],
)
def test_internal_errors_exit_70(tmp_path, capsys, monkeypatch, error):
    break_fgc_solver(monkeypatch, getattr(errors, error))
    instance = gen_one(tmp_path, "fgc-q1")
    capsys.readouterr()
    assert main(["solve", str(instance)]) == cli.EX_SOFTWARE == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: solver stack broke\n"


def test_crashes_exit_70(tmp_path, capsys, monkeypatch):
    """A crash is no ratio past its bound (exit 1): it exits 70 with its type."""
    break_fgc_solver(monkeypatch, RuntimeError)
    instance = gen_one(tmp_path, "fgc-q1")
    capsys.readouterr()
    assert main(["solve", str(instance)]) == cli.EX_SOFTWARE
    assert capsys.readouterr() == ("", "internal error: RuntimeError: solver stack broke\n")


def test_oracle_searches_deeper_than_the_recursion_limit(tmp_path, capsys):
    instance = tmp_path / "deep.instance"
    instance.write_text(
        "flexconn-instance v1\nkind fgc\nnodes 2\n"
        + "".join(f"edge 0 1 {1 + eid % 3} safe\n" for eid in range(1100))
        + "pair 0 1 1 0\n"
    )
    assert main(["oracle", str(instance)]) == 0
    assert capsys.readouterr().out == "flexconn-solution v1\nkind fgc\ncost 1\nedge 0\n"


def test_gen_is_deterministic(tmp_path):
    a = gen_one(tmp_path / "a", "ncfgc", seed=9)
    b = gen_one(tmp_path / "b", "ncfgc", seed=9)
    assert a.read_text() == b.read_text()
