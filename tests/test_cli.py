import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import minkclust
from minkclust import cli
from minkclust import Cost, DistanceOrder, SelectionInstance, cost_eval, select_bruteforce
from minkclust.cli import (
    budget_to_string,
    instance_from_obj,
    instance_to_obj,
    main,
    parse_budget,
    CliError,
)
from minkclust.generators import (
    gen_l0_clustering_from_clique,
    gen_l0_selection_from_mcc,
    gen_l1_selection_from_mcc,
    gen_linf_clustering_from_clique,
    gen_linf_selection_from_mcc,
    gen_lp_selection_from_mcc,
)
from tests.helpers import EX_CLIQUE_COLORED, EX_CLIQUE_GRAPH, EX_LINF_COLORED


def run_module(args, module="minkclust.cli"):
    """Run ``python -m <module>`` on the package the tests import."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(minkclust.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", module, *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def run_cli(args, capsys=None):
    code = main(args)
    return code


def test_budget_strings():
    l2 = DistanceOrder.l2()
    assert parse_budget("3", l2).exact == 3
    assert parse_budget("z/s2:9/2", l2).exact == Fraction(9, 4)
    assert parse_budget("3/2", DistanceOrder.linf()).exact == Fraction(3, 2)
    half = DistanceOrder.lp(Fraction(1, 2))
    b = parse_budget("basis:4:1,9:2", half)
    assert b.terms == ((4, 1), (9, 2))
    assert parse_budget("2.5", half).exact == Fraction(5, 2)
    with pytest.raises(CliError):
        parse_budget("2.5", l2)
    with pytest.raises(CliError):
        parse_budget("basis:4:1", l2)
    # round trips
    for cost in (Cost.of(7), Cost.of(Fraction(9, 4)), Cost.of(Fraction(3, 2)),
                 Cost.basis({4: 1, 9: 2}, Fraction(1, 2))):
        text = budget_to_string(cost)
        order = half if cost.terms is not None else (
            l2 if cost.exact.denominator == 4 else DistanceOrder.linf())
        again = parse_budget(text, order)
        assert again == cost


def test_exponent_budgets_are_decimals(tmp_path, capsys):
    """A literal with an exponent is a decimal: legal for p in (0, 1), an
    error (exit 2) elsewhere, where it used to be read as a rational and
    decided."""
    l1, half = DistanceOrder.l1(), DistanceOrder.lp(Fraction(1, 2))
    for text in ("1e-3", "2E1", "5e0"):
        with pytest.raises(CliError, match="decimal budgets"):
            parse_budget(text, l1)
    assert parse_budget("1e-3", half).exact == Fraction(1, 1000)
    assert parse_budget("2E1", half).exact == 20
    body = {"kind": "clustering", "p": "1", "dimension": 1,
            "vectors": [[0], [5]], "k": 1, "budget": "1e-3"}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(body))
    assert run_cli(["solve", str(path), "--mode", "oracle"]) == 2
    assert "decimal budgets" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("z/s2:3", "z/s2:<z>/<s>"),
    ("z/s2:3/1/2", "z/s2:<z>/<s>"),
    ("1/0", "zero denominator"),
])
def test_malformed_budgets_are_cli_errors(text, message):
    """A ``z/s2:`` budget without exactly one slash and a zero denominator
    each raise ``CliError`` with a message naming the fault."""
    with pytest.raises(CliError, match=message):
        parse_budget(text, DistanceOrder.l2())


@pytest.mark.parametrize("text, item", [
    ("basis:4", "'4'"),
    ("basis:", "''"),
    ("basis:4:1,", "''"),
])
def test_malformed_basis_budgets_are_cli_errors(tmp_path, capsys, text, item):
    """A ``basis:`` item that is not one ``<base>:<coeff>`` pair raises
    ``CliError`` naming the item, and an instance file holding it exits 2."""
    half = DistanceOrder.lp(Fraction(1, 2))
    with pytest.raises(CliError, match=f"basis budget item {item} "):
        parse_budget(text, half)
    body = {"kind": "clustering", "p": "1/2", "dimension": 1,
            "vectors": [[0], [5]], "k": 1, "budget": text}
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(body))
    assert run_cli(["solve", str(path), "--mode", "oracle"]) == 2
    assert f"basis budget item {item}" in capsys.readouterr().err


GENERATED = [
    gen_l0_clustering_from_clique(EX_CLIQUE_GRAPH, 3),
    gen_l0_selection_from_mcc(EX_CLIQUE_COLORED, 3),
    gen_l1_selection_from_mcc(EX_CLIQUE_COLORED, 3),
    gen_linf_clustering_from_clique(EX_CLIQUE_GRAPH, 3),
    gen_linf_selection_from_mcc(EX_LINF_COLORED, 3),
    gen_lp_selection_from_mcc(EX_CLIQUE_COLORED, 3, Fraction(2)),
]


@pytest.mark.parametrize("inst", [pytest.param(inst, id=f"{type(inst).__name__}-{i}")
                                  for i, inst in enumerate(GENERATED)])
def test_round_trip_identity(inst):
    obj = instance_to_obj(inst)
    again = instance_from_obj(json.loads(json.dumps(obj)))
    assert again == inst


def test_cli_select_paths(tmp_path, capsys):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(
        {"n": 4, "edges": [[1, 2], [1, 3], [1, 4], [2, 4]], "colors": [1, 2, 2, 3]}
    ))
    inst = tmp_path / "inst.json"
    assert run_cli(["generate", "lp-mcc", str(graph), "-o", str(inst), "--k", "3", "--p", "2"]) == 0
    body = json.loads(inst.read_text())
    assert body["budget"] == "z/s2:2/1"
    assert body["provenance"]["reduction"] == "lp-mcc"
    capsys.readouterr()

    assert run_cli(["select", str(inst)]) == 0
    out = capsys.readouterr().out
    assert "decision: yes" in out and "cost: 2" in out

    assert run_cli(["select", str(inst), "--mode", "oracle"]) == 0
    out = capsys.readouterr().out
    assert "stat tuples: 2" in out and "stat columns: 3" in out and "stat states: 2" in out

    # raise the bar: still yes; lower it: no (exit 1, not an error)
    body["budget"] = "z/s2:1/1"
    lower = tmp_path / "lower.json"
    lower.write_text(json.dumps(body))
    assert run_cli(["select", str(lower)]) == 1
    capsys.readouterr()


def test_cli_empty_group_is_error(tmp_path, capsys):
    inst = {
        "kind": "selection", "p": "1", "dimension": 1,
        "vectors": [[0]], "groups": [2], "weights": [1], "budget": "1",
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(inst))
    assert run_cli(["select", str(path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("field,value", [
    ("groups", [1, 1, 2]),
    ("weights", [1, 1, 1]),
    ("vectors", [[0], [5], [1]]),
], ids=["short-groups", "short-weights", "short-vectors"])
def test_cli_selection_lists_must_have_one_length(tmp_path, capsys, field, value):
    """A selection file whose vectors, groups and weights differ in length is
    an error (exit 2); zipping them would silently drop vectors."""
    inst = {
        "kind": "selection", "p": "1", "dimension": 1,
        "vectors": [[0], [5], [1], [9]], "groups": [1, 1, 2, 2],
        "weights": [1, 1, 1, 1], "budget": "1",
    }
    inst[field] = value
    path = tmp_path / "short.json"
    path.write_text(json.dumps(inst))
    assert run_cli(["select", str(path), "--mode", "oracle"]) == 2
    assert "same length" in capsys.readouterr().err


def test_cli_solve_paths(tmp_path, capsys):
    """The oracle's counters on the example Hamming clique instance read 297
    parts tried (steps of the member walk) and 86 pricings (66 pairs and the
    20 triples the pair bounds let through); before the pair table they read
    556 and 286."""
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": 4, "edges": [[1, 2], [1, 3], [1, 4], [2, 4]]}))
    inst = tmp_path / "cl.json"
    assert run_cli(["generate", "l0-clique", str(graph), "-o", str(inst)]) == 0
    capsys.readouterr()
    assert run_cli(["solve", str(inst), "--mode", "oracle"]) == 0
    out = capsys.readouterr().out
    assert "minimal cost: 3" in out
    assert "stat parts: 297" in out and "stat pricings: 86" in out

    body = json.loads(inst.read_text())
    body["budget"] = "2"
    low = tmp_path / "low.json"
    low.write_text(json.dumps(body))
    assert run_cli(["solve", str(low), "--policy", "exhaustive"]) == 1
    capsys.readouterr()

    # the exhaustive walk prices the three pairs, tries the part {0, 1} and
    # stops there, within the budget; it prints no coloring count
    small = tmp_path / "small.json"
    ds = minkclust.Dataset(1, ((0,), (1,), (5,)), (1, 1, 1))
    small.write_text(json.dumps(instance_to_obj(
        minkclust.ClusteringInstance(ds, 2, Cost.of(3), DistanceOrder.l1()))))
    assert run_cli(["solve", str(small), "--policy", "exhaustive"]) == 0
    out = capsys.readouterr().out
    assert "total cost: 1" in out and "iterations" not in out
    assert "stat families: 1" in out and "stat parts: 1" in out and "stat pricings: 3" in out
    # the auto policy runs the same walk over its first coloring's classes,
    # which tries one part, the bundle of its two colour classes; its pair
    # table is the same three pairs, counted as pricings
    assert run_cli(["solve", str(small)]) == 0
    out = capsys.readouterr().out
    assert "total cost: 1" in out and "stat iterations: 1" in out
    assert "stat parts: 1" in out and "stat cuts" not in out
    assert "stat pricings: 3" in out

    assert run_cli(["solve", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_cli_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run_cli(["solve", str(bad)]) == 2
    assert run_cli(["select", str(bad)]) == 2
    capsys.readouterr()


def test_cli_verify(tmp_path, capsys):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(
        {"n": 4, "edges": [[1, 2], [1, 3], [1, 4], [2, 4]], "colors": [1, 2, 2, 3]}
    ))
    assert run_cli(["verify", "l1-mcc", str(graph)]) == 0
    out = capsys.readouterr().out
    assert "disagreements: 0" in out
    sat = tmp_path / "f.json"
    sat.write_text(json.dumps({"kind": "3sat", "num_vars": 3, "clauses": [[1, -2, 3]]}))
    assert run_cli(["verify", "3sat-hioct-linf2", str(sat)]) == 0
    capsys.readouterr()


def test_cli_verify_sweep_small(capsys):
    assert run_cli(["verify", "l0-clique", "--sweep", "4"]) == 0
    out = capsys.readouterr().out
    assert "disagreements: 0" in out


def test_cli_verify_sweep_rejects_a_formula_reduction(monkeypatch, capsys):
    """The sweep enumerates graphs; a reduction that starts from a 3-CNF
    formula is an error before any source runs, with no table."""
    def ran(*args, **kwargs):
        raise AssertionError("a sweep source ran")

    monkeypatch.setattr(cli, "verify_reduction", ran)
    assert run_cli(["verify", "3sat-hioct-linf2", "--sweep", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "3sat-hioct-linf2 starts from a 3-CNF formula" in captured.err


def test_cli_verify_sweep_reports_past_a_raising_source(monkeypatch, capsys):
    real, seen = cli.verify_reduction, []

    def raise_on_second(name, source, params):
        seen.append(source)
        if len(seen) == 2:
            raise RuntimeError("family cap exceeded")
        return real(name, source, params)

    monkeypatch.setattr(cli, "verify_reduction", raise_on_second)
    assert run_cli(["verify", "l0-clique", "--sweep", "4"]) == 2
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if line.count(" | ") == 3][1:]
    assert len(rows) == len(seen) > 2
    assert "ERROR | RuntimeError: family cap exceeded" in rows[1]
    assert sum("ERROR" in row for row in rows) == 1
    assert f"checked {len(seen)} instance(s); disagreements: 0; errors: 1" in out


def test_cli_determinism(tmp_path, capsys):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": 4, "edges": [[1, 2], [1, 3], [1, 4], [2, 4]]}))
    inst = tmp_path / "cl.json"
    run_cli(["generate", "l0-clique", str(graph), "-o", str(inst)])
    capsys.readouterr()
    outputs = []
    for _ in range(2):
        run_cli(["solve", str(inst), "--policy", "iters=5", "--seed", "11"])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_cli_bench_and_tol_flags_are_gone(tmp_path):
    """The toy ``bench`` suites and the ``--tol`` flag are deleted: costs
    compare exactly, and ``perfbench/`` is the benchmark."""
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": 3, "edges": [[1, 2]]}))
    for argv in (["bench", "partitions"],
                 ["verify", "linf-clique", str(graph), "--tol", "1e-9"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2


def test_cli_subcommands_take_only_the_options_they_read(tmp_path):
    """``generate`` reads no seed or cap, ``select`` no seed, ``verify`` no
    cap and ``solve`` no tuple cap and no iteration cap (``--policy
    iters=<n>`` sets the count), so argparse rejects them (exit 2)."""
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": 3, "edges": [[1, 2]]}))
    inst = tmp_path / "inst.json"
    for argv in (["generate", "l0-clique", str(graph), "--cap-tuples", "5"],
                 ["select", str(inst), "--seed", "1"],
                 ["verify", "l0-clique", str(graph), "--cap-centroids", "5"],
                 ["solve", str(inst), "--cap-tuples", "5"],
                 ["solve", str(inst), "--cap-iterations", "5"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2


def test_cli_select_lp_basis_budget(tmp_path, capsys):
    """The default ``select`` decides a p = 1/2 instance at its irrational
    optimum, given as a ``basis:`` budget, and just below it; the
    ``paper`` and ``exhaustive`` modes are gone."""
    half = DistanceOrder.lp(Fraction(1, 2))
    groups = [[(0, 0), (5, 5)], [(1, 0), (4, 1)], [(0, 2), (6, 6)]]
    body = instance_to_obj(SelectionInstance.of(groups, Cost.of(0), half))
    opt = select_bruteforce(instance_from_obj(body)).cost
    below = Cost.of(Fraction(math.ceil(float(cost_eval(opt)) * 10**6) - 1, 10**6))
    path = tmp_path / "inst.json"
    for budget, code in ((below, 1), (opt, 0)):
        body["budget"] = budget_to_string(budget, half)
        path.write_text(json.dumps(body))
        assert run_cli(["select", str(path)]) == code
    assert body["budget"].startswith("basis:")
    capsys.readouterr()
    for mode in ("paper", "exhaustive"):
        with pytest.raises(SystemExit) as exc:
            run_cli(["select", str(path), "--mode", mode])
        assert exc.value.code == 2


def test_cli_entrypoint_subprocess(tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]}))
    proc = run_module(["generate", "linf-clique", str(graph)])
    assert proc.returncode == 0
    assert '"kind": "clustering"' in proc.stdout


def test_package_runs_as_module(tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]}))
    proc = run_module(["generate", "linf-clique", str(graph)], module="minkclust")
    assert proc.returncode == 0, proc.stderr
    assert '"kind": "clustering"' in proc.stdout


def test_cli_verify_jobs_flag(capsys):
    assert run_cli(["verify", "linf-clique", "--sweep", "4"]) == 0
    out = capsys.readouterr().out
    assert "disagreements: 0" in out
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "linf-clique", "--sweep", "4", "--jobs", "2"])
    assert exc.value.code == 2


def test_cli_unknown_reduction_exits_2(tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": 3, "edges": [[1, 2]]}))
    proc = run_module(["generate", "not-a-thing", str(graph)])
    assert proc.returncode == 2


SELECTION_FILE = {"kind": "selection", "p": "1", "dimension": 1,
                  "vectors": [[2], [7], [3], [9]], "groups": [1, 1, 2, 2], "budget": "1"}
CLUSTERING_FILE = {"kind": "clustering", "p": "1", "dimension": 1,
                   "vectors": [[0], [1], [5], [6]], "multiplicities": [1, 1, 1, 1],
                   "k": 2, "budget": "2"}


@pytest.mark.parametrize("command,body,field,value", [
    ("select", SELECTION_FILE, "vectors", [[2.9], [7], [3], [9]]),
    ("select", SELECTION_FILE, "weights", [1, 1.5, 1, 1]),
    ("select", SELECTION_FILE, "groups", [1, 1, 2, 2.5]),
    ("select", SELECTION_FILE, "dimension", True),
    ("solve", CLUSTERING_FILE, "k", 2.9),
    ("solve", CLUSTERING_FILE, "multiplicities", [1, 1.5, 1, 1]),
    ("solve", CLUSTERING_FILE, "vectors", [[0], [1], [5], [True]]),
], ids=["vectors", "weights", "groups", "bool-dimension", "k", "multiplicities",
        "bool-vectors"])
def test_cli_non_integer_numbers_are_errors(tmp_path, capsys, command, body, field, value):
    """A boolean or a non-integral number where an instance file needs an
    integer is an error (exit 2), not truncated; the file is otherwise
    valid, and an integral float such as 2.0 still reads as 2."""
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(body))
    assert run_cli([command, str(path)]) == 0
    assert instance_from_obj({**body, "dimension": 1.0}) == instance_from_obj(body)
    path.write_text(json.dumps({**body, field: value}))
    assert run_cli([command, str(path)]) == 2
    assert "not an integer" in capsys.readouterr().err


GRAPH_FILE = {"n": 3, "edges": [[1, 2]], "colors": [1, 2, 1]}
CNF_FILE = {"kind": "3sat", "num_vars": 3, "clauses": [[1, -2, 3]]}


@pytest.mark.parametrize("argv,body,bad", [
    (["generate", "l0-clique"], GRAPH_FILE, {"n": 3.9, "colors": [1, 2.5, True]}),
    (["generate", "l0-clique"], GRAPH_FILE, {"edges": [[1, 2.5]]}),
    (["verify", "3sat-hioct-linf2"], CNF_FILE, {"clauses": [[1, -2, 3.5]]}),
    (["verify", "3sat-hioct-linf2"], CNF_FILE, {"num_vars": 3.5}),
], ids=["graph", "edge", "cnf-literal", "cnf-num-vars"])
def test_cli_graph_non_integer_numbers_are_errors(tmp_path, capsys, argv, body, bad):
    """Graph and 3-CNF files read their numbers as instance files do: a
    boolean or a non-integral number is an error (exit 2), where ``int``
    once truncated a vertex count of 3.9 to 3 and a color of 2.5 to 2."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(body))
    assert run_cli(argv + [str(path)]) == 0
    capsys.readouterr()
    with pytest.raises(CliError, match="not an integer"):
        cli.graph_from_obj({**body, **bad})
    path.write_text(json.dumps({**body, **bad}))
    assert run_cli(argv + [str(path)]) == 2
    assert "not an integer" in capsys.readouterr().err
