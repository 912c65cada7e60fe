import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from treeshift.cli import InputError, Schema, load_document, main, parse_document

from conftest import NEGATIVE_NODE_BRANCH, exact_half_line_sequences


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def unilateral_inputs(tmp_path):
    tree = write(tmp_path, "tree.json", {"family": "unilateral", "params": {"depth": 4}})
    weights = write(tmp_path, "weights.json", {"weights": [1.0, 1.0, 1.0, 1.0]})
    system = write(
        tmp_path,
        "system.json",
        {
            "measures": {
                str(k): {"atoms": [{"x": 1.0, "w": 1.0}]} for k in range(5)
            },
            "eps": {str(k): 0.0 for k in range(5)},
        },
    )
    return tree, weights, system


def test_validate_tree_exit_codes(tmp_path, capsys):
    good = write(tmp_path, "good.json", {"vertices": [0, 1], "edges": [[0, 1]]})
    code, out = run_cli(["validate-tree", "--tree", good], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "valid"
    bad = write(tmp_path, "bad.json", {"edges": [[0, 1], [1, 0]]})
    code, out = run_cli(["validate-tree", "--tree", bad], capsys)
    assert code == 1
    report = json.loads(out)
    assert any("cycle" in v for v in report["report"]["violations"])


def test_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"weights": [1,2,')
    code = main(["certify", "--family", "unilateral", "--weights", str(path)])
    assert code == 3


def test_schema_violation_is_input_error(tmp_path, capsys):
    bad = write(tmp_path, "bad.json", {"atoms": [{"x": -1.0, "w": 1.0}]})
    code = main(["backward-extend", "--measure", bad, "--theta", "2.0"])
    assert code == 3


def test_check_stieltjes_inline(capsys):
    code, out = run_cli(["check-stieltjes", "--t", "[1,1,0,0]"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "refuted"
    assert doc["verdict"]["witness"]["quadratic_form"] < 0
    code2, out2 = run_cli(["check-stieltjes", "--t", "[1,1,1,1]"], capsys)
    assert code2 == 0


def test_moments_table(unilateral_inputs, capsys):
    tree, weights, _ = unilateral_inputs
    code, out = run_cli(
        ["moments", "--tree", tree, "--weights", weights, "--vertex", "0"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["norms_sq"]["0"] == [1.0, 1.0, 1.0, 1.0, 1.0]
    assert doc["config"]["horizon"] == 16


def test_backward_extend_roundtrip(tmp_path, capsys):
    measure = write(tmp_path, "m.json", {"atoms": [{"x": 1.0, "w": 1.0}]})
    code, out = run_cli(
        ["backward-extend", "--measure", measure, "--theta", "2.0"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["measure"]["atoms"][0] == {"x": 0.0, "w": 1.0}
    assert doc["moments"][0] == 2.0
    zero = write(tmp_path, "z.json", {"atoms": [{"x": 0.0, "w": 1.0}]})
    code2, out2 = run_cli(
        ["backward-extend", "--measure", zero, "--theta", "5.0"], capsys
    )
    assert code2 == 1
    assert json.loads(out2)["witness"]["required"] == "inf"


def test_check_consistency_and_truncate(unilateral_inputs, capsys):
    tree, weights, system = unilateral_inputs
    code, out = run_cli(
        ["check-consistency", "--tree", tree, "--weights", weights, "--system", system],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["status"] == "consistent"
    code2, out2 = run_cli(
        [
            "truncate",
            "--tree",
            tree,
            "--weights",
            weights,
            "--system",
            system,
            "--window",
            "2",
        ],
        capsys,
    )
    assert code2 == 0
    entry = json.loads(out2)["entry"]
    assert entry["index"] == 2


def _truncate(tree, weights, system, capsys):
    args = ["truncate", "--tree", tree, "--weights", weights, "--system", system, "--window", "2"]
    return run_cli(args, capsys)


def test_truncate_survives_a_subnormal_window_mass(tmp_path, capsys):
    # a consistent depth-1 path whose window [0, 1] holds the mass 1e-320
    # at vertex 1: the entry divides by it, and its reciprocal overflows
    from treeshift import AtomicMeasure, WeightedShift, make_family, parent_from_children

    mu1 = AtomicMeasure(((0.5, 1e-320), (3.0, 1.0)))
    mu0, eps0 = parent_from_children(
        WeightedShift(make_family("unilateral", 1), {1: 1.0}), 0, {1: mu1}
    )
    tree = write(tmp_path, "tree.json", {"family": "unilateral", "params": {"depth": 1}})
    weights = write(tmp_path, "weights.json", {"weights": [1.0]})
    measures = {"0": mu0.as_dict(), "1": mu1.as_dict()}
    system = write(tmp_path, "system.json", {"measures": measures, "eps": {"0": eps0, "1": 0.0}})
    args = ["truncate", "--tree", tree, "--weights", weights, "--system", system]
    code, out = run_cli(args + ["--window", "1"], capsys)
    report = json.loads(out)
    assert code == 0 and report["status"] == "ok"
    entry = report["entry"]
    assert entry["window_mass"]["1"] == 1e-320
    assert entry["system"]["measures"]["1"] == {"atoms": [{"x": 0.5, "w": 1.0}]}


def test_truncate_compares_the_norm_bound_with_the_window_relatively(tmp_path, capsys):
    # the depth-2 half line with weights sqrt(3e7) and d_3e7 at every vertex:
    # certified, and its window of height 3e7 is the identity, whose norm
    # bound reads 30000000.000000004, one ulp of the height above it
    w = math.sqrt(3e7)
    tree = write(tmp_path, "tree.json", {"family": "unilateral", "params": {"depth": 2}})
    weights = write(tmp_path, "weights.json", {"weights": [w, w]})
    measures = {str(k): {"atoms": [{"x": 3e7, "w": 1.0}]} for k in range(3)}
    system = write(tmp_path, "system.json", {"measures": measures, "eps": {}})
    docs = ["--tree", tree, "--weights", weights, "--system", system]
    assert run_cli(["certify", "--family", "general", *docs], capsys)[0] == 0
    code, out = run_cli(["truncate", *docs, "--window", "30000000"], capsys)
    report = json.loads(out)
    assert report["verification"]["norm_bound"] > 3e7
    assert code == 0 and report["status"] == "ok" and report["witness"] is None


def test_truncate_refutes_a_tampered_system_at_its_vertex(unilateral_inputs, tmp_path, capsys):
    tree, weights, _ = unilateral_inputs
    measures = {str(k): {"atoms": [{"x": 1.0, "w": 1.0}]} for k in range(5)}
    measures["2"] = {"atoms": [{"x": 2.0, "w": 1.0}]}
    system = write(tmp_path, "tampered.json", {"measures": measures, "eps": {}})
    code, out = _truncate(tree, weights, system, capsys)
    report = json.loads(out)
    assert code == 1 and report["status"] == "refuted"
    witness = report["witness"]
    assert witness["check"] == "consistency-identity" and witness["vertex"] == "1"
    bad = next(r for r in report["verification"]["consistency"] if not r["ok"])
    assert bad["vertex"] == "1" and witness["discrepancy"] == bad["max_discrepancy"]


def test_truncate_names_the_vertex_whose_power_norms_fail(unilateral_inputs, monkeypatch, capsys):
    # a consistent system passes the Hankel test, so the sweep is handed a
    # shift with a broken weight to stand for a failure that only it sees
    from treeshift import WeightedShift, truncation

    sweep = truncation.lambert_sweep

    def broken(shift, tol, horizon):
        weights = dict(shift.weights)
        weights[2] = 0.5
        return sweep(WeightedShift(shift.tree, weights), tol, horizon=horizon)

    monkeypatch.setattr(truncation, "lambert_sweep", broken)
    code, out = _truncate(*unilateral_inputs, capsys)
    report = json.loads(out)
    assert code == 1 and report["verification"]["stieltjes_failures"] == ["0"]
    assert all(r["ok"] for r in report["verification"]["consistency"])
    witness = report["witness"]
    assert witness["check"] == "hankel" and witness["vertex"] == "0"
    assert witness["quadratic_form"] < 0


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_check_consistency_depth_checks_vertices_with_that_many_levels(
    unilateral_inputs, capsys, depth
):
    tree, weights, system = unilateral_inputs
    args = ["check-consistency", "--tree", tree, "--weights", weights, "--system", system]
    code, out = run_cli(args + ["--depth", str(depth)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "consistent"
    # the window has 4 levels below vertex 0, so 0 .. 4 - depth qualify
    assert [r["vertex"] for r in doc["reports"]] == [str(k) for k in range(5 - depth)]
    assert all(r["depth"] == depth for r in doc["reports"])
    # an explicit vertex without that many levels below it is still refused
    code, _ = run_cli(args + ["--depth", str(depth), "--vertex", str(5 - depth)], capsys)
    assert code == 3


def test_check_consistency_depth_past_the_window_is_an_input_error(
    unilateral_inputs, capsys
):
    tree, weights, system = unilateral_inputs
    args = ["check-consistency", "--tree", tree, "--weights", weights, "--system", system]
    assert main(args + ["--depth", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--depth 5 exceeds the window height 4" in captured.err


@pytest.fixture
def depth_six_path(tmp_path):
    """A depth-6 path with unit weights, a full system and one that stores no
    measure at vertex 3."""
    tree = write(tmp_path, "tree.json", {"family": "unilateral", "params": {"depth": 6}})
    weights = write(tmp_path, "weights.json", {"weights": [1.0] * 6})
    delta = {"atoms": [{"x": 1.0, "w": 1.0}]}
    eps = {str(k): 0.0 for k in range(7)}
    full = write(
        tmp_path, "full.json", {"measures": {str(k): delta for k in range(7)}, "eps": eps}
    )
    holed = write(
        tmp_path,
        "holed.json",
        {"measures": {str(k): delta for k in range(7) if k != 3}, "eps": eps},
    )
    return tree, weights, full, holed


@pytest.mark.parametrize(
    "argv, message",
    [
        (["moments", "--vertex", "9"], "vertex 9 is not in the tree"),
        (
            ["converge", "--system", "full", "--vertex", "9", "--power", "1"],
            "vertex 9 is not in the tree",
        ),
        (["check-consistency", "--system", "holed"], "no measure stored for vertex 3"),
    ],
)
def test_missing_vertices_are_named_in_a_sentence(depth_six_path, capsys, argv, message):
    tree, weights, full, holed = depth_six_path
    argv = [{"full": full, "holed": holed}.get(a, a) for a in argv]
    code = main(argv[:1] + ["--tree", tree, "--weights", weights] + argv[1:])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == f"input error: {message}\n"


def test_converge_table(unilateral_inputs, capsys):
    tree, weights, system = unilateral_inputs
    code, out = run_cli(
        [
            "converge",
            "--tree",
            tree,
            "--weights",
            weights,
            "--system",
            system,
            "--vertex",
            "0",
            "--power",
            "2",
            "--i-list",
            "1,2",
        ],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)["table"]["rows"]
    assert [r["index"] for r in rows] == [1, 2]
    assert rows[-1]["residual_sq"] == 0.0


def test_certify_unilateral_ok(tmp_path, capsys):
    weights = write(tmp_path, "w.json", {"weights": [1.0] * 8})
    code, out = run_cli(
        ["certify", "--family", "unilateral", "--weights", weights], capsys
    )
    assert code == 0
    assert json.loads(out)["status"] == "certified-up-to-horizon"


def test_certify_bilateral_ok(tmp_path, capsys):
    entries = [{"v": k, "re": math.sqrt(2)} for k in range(-6, 7)]
    weights = write(tmp_path, "w.json", {"weights": entries})
    code, out = run_cli(
        ["certify", "--family", "bilateral", "--weights", weights], capsys
    )
    assert code == 0


@pytest.mark.parametrize(
    "args, entries, message",
    [
        (
            ["moments", "--tree", "{tree}"],
            [1.0, {"v": 2, "re": 1.0}],
            "weights entry 1 ({'v': 2, 're': 1.0}) is vertex-keyed, "
            "but entry 0 is a bare number",
        ),
        (
            ["certify", "--family", "unilateral"],
            [1.0, {"v": 2, "re": 1.0}, 1],
            "weights entry 1 ({'v': 2, 're': 1.0}) is vertex-keyed, "
            "but entry 0 is a bare number",
        ),
        (
            ["certify", "--family", "bilateral"],
            [{"v": 0, "re": 1}, {"v": 1, "re": 1}, 2.0],
            "weights entry 2 (2.0) is a bare number, but entry 0 is vertex-keyed",
        ),
    ],
    ids=["moments", "certify-unilateral", "certify-bilateral"],
)
def test_weights_mixing_both_forms_are_input_errors(
    tmp_path, capsys, args, entries, message
):
    tree = write(tmp_path, "tree.json", {"family": "unilateral", "params": {"depth": 2}})
    weights = write(tmp_path, "weights.json", {"weights": entries})
    argv = [a.format(tree=tree) for a in args] + ["--weights", weights]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == f"input error: {message}\n"


@pytest.mark.parametrize(
    "args, doc",
    [
        (["validate-tree", "--tree"], {"family": "unilateral", "params": {"depth": 3}}),
        (
            ["validate-tree", "--tree"],
            {"family": "t-eta-kappa", "params": {"depth": 3, "eta": 2, "kappa": 2}},
        ),
        (
            ["certify", "--family", "t-eta-kappa", "--input"],
            {
                "eta": 2,
                "kappa": 0,
                "branch_measures": [
                    {"atoms": [{"x": 1, "w": 1}]},
                    {"atoms": [{"x": 2, "w": 1}]},
                ],
                "entry_weights": [0.5, 0.5],
            },
        ),
    ],
    ids=["unilateral-tree", "branching-tree", "branch"],
)
def test_integer_valued_floats_read_as_integers(tmp_path, capsys, args, doc):
    # JSON Schema's "integer" admits 3.0: spelling every integer as a float
    # must not change the report
    spelled = json.loads(json.dumps(doc), parse_int=float)
    code, out = run_cli(args + [write(tmp_path, "int.json", doc)], capsys)
    assert code == 0
    assert run_cli(args + [write(tmp_path, "float.json", spelled)], capsys) == (0, out)


PATH_EDGES = {"edges": [[0, 1], [1, 2], [2, 3]]}
PAIR_EDGES = {"edges": [[0, [1, 1]], [0, [2, 1]], [[1, 1], [1, 2]]]}


@pytest.mark.parametrize(
    "argv, docs",
    [
        (["validate-tree", "--tree", "{0}"], [PATH_EDGES]),
        (["validate-tree", "--tree", "{0}"], [PAIR_EDGES]),
        (
            ["moments", "--tree", "{0}", "--weights", "{1}"],
            [PATH_EDGES, {"weights": [{"v": k, "re": 1} for k in (1, 2, 3)]}],
        ),
        (
            ["moments", "--tree", "{0}", "--weights", "{1}"],
            [PAIR_EDGES, {"weights": [{"v": v, "re": 1} for v in ([1, 1], [2, 1], [1, 2])]}],
        ),
        (
            ["certify", "--family", "bilateral", "--weights", "{0}"],
            [{"weights": [{"v": k, "re": math.sqrt(2)} for k in range(-6, 7)]}],
        ),
    ],
    ids=["validate-tree", "validate-tree-pairs", "moments", "moments-pairs", "bilateral"],
)
def test_integer_valued_float_vertex_ids_read_as_integers(tmp_path, capsys, argv, docs):
    # a vertex id spelled 1.0 or [1.0, 2.0] is the vertex 1 or (1, 2); 1.5 is
    # no vertex at all
    runs = {}
    for spelling, parse_int in (("int", int), ("float", float), ("half", lambda s: int(s) + 0.5)):
        paths = [
            write(tmp_path, f"{spelling}{i}.json", json.loads(json.dumps(doc), parse_int=parse_int))
            for i, doc in enumerate(docs)
        ]
        runs[spelling] = run_cli([a.format(*paths) for a in argv], capsys)
    assert runs["int"][0] == 0
    assert runs["float"] == runs["int"]
    assert runs["half"] == (3, "")


@pytest.mark.parametrize("vertex", [1.5, [1, 1.5], True, [1, 2, 3]])
def test_as_vertex_refuses_what_is_no_integer(vertex):
    from treeshift.tree import as_vertex

    with pytest.raises(ValueError, match="invalid vertex id"):
        as_vertex(vertex)


def test_certify_branching_fixture(tmp_path, capsys):
    doc = {
        "eta": 2,
        "kappa": 0,
        "branch_measures": [
            {"atoms": [{"x": 1.0, "w": 1.0}]},
            {"atoms": [{"x": 2.0, "w": 1.0}]},
        ],
        "entry_weights": [math.sqrt(0.5), math.sqrt(0.5)],
    }
    path = write(tmp_path, "branch.json", doc)
    code, out = run_cli(["certify", "--family", "t-eta-kappa", "--input", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["detail"]["eps"]["0"] == pytest.approx(0.25, abs=1e-12)
    doc["entry_weights"] = [1.0, 1.0]
    path2 = write(tmp_path, "branch2.json", doc)
    code2, out2 = run_cli(
        ["certify", "--family", "t-eta-kappa", "--input", path2], capsys
    )
    assert code2 == 1
    assert json.loads(out2)["witness"]["value"] == pytest.approx(1.5)


def test_certify_a_branch_without_a_representing_measure_exits_conditional(tmp_path, capsys):
    path = write(tmp_path, "branch.json", NEGATIVE_NODE_BRANCH)
    code = main(["certify", "--family", "t-eta-kappa", "--input", path])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    report = json.loads(captured.out)
    assert report["status"] == "conditional" and report["exit_code"] == 2
    assert report["system_certificate"] is None and report["witness"] is None
    assert report["detail"]["note"].startswith("branch 2: no representing measure")
    assert list(report["stieltjes"]) == ["-2", "1,1", "2,1"]


def _bilateral_document(tmp_path, values):
    entries = [{"v": v, "re": w} for v, w in zip(range(-1, len(values) - 1), values)]
    return write(tmp_path, "w.json", {"weights": entries})


@pytest.mark.parametrize(
    "values, code, status",
    [([1.0, 0.0, 1.0, 1.0], 1, "refuted"), ([0.0, 1.0, 1.0, 1.0], 2, "conditional")],
    ids=["refuted", "conditional"],
)
def test_certify_bilateral_zero_weights_get_a_verdict(tmp_path, capsys, values, code, status):
    # weights over -1..2: a zero weight is a verdict of the power norms, not
    # an input error
    path = _bilateral_document(tmp_path, values)
    got, out = run_cli(["certify", "--family", "bilateral", "--weights", path], capsys)
    report = json.loads(out)
    assert (got, report["status"]) == (code, status)
    if status == "refuted":
        assert report["witness"]["check"] == "hankel" and report["witness"]["shift"] == 2
        assert report["detail"]["sequence"] == [1.0, 1.0, 0.0, 0.0, 0.0]


def test_certify_branch_weights_with_a_zero_entry_weight_exits_conditional(tmp_path, capsys):
    doc = {
        "eta": 2,
        "kappa": 1,
        "entry_weights": [0.0, 1.0],
        "trunk_weights": [1.0],
        "branch_weights": [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]],
    }
    path = write(tmp_path, "branch.json", doc)
    code, out = run_cli(["certify", "--family", "t-eta-kappa", "--input", path], capsys)
    report = json.loads(out)
    assert code == 2 and report["status"] == "conditional" and report["witness"] is None


def test_certify_branch_weights_shorter_than_the_horizon_clamp_the_depth(tmp_path, capsys):
    # three weights per branch: the cross-certified window has depth 4, not
    # the default 8, and the report says so
    doc = {
        "eta": 2,
        "kappa": 1,
        "entry_weights": [math.sqrt(0.5)] * 2,
        "trunk_weights": [1.0],
        "branch_weights": [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]],
    }
    path = write(tmp_path, "branch.json", doc)
    code, out = run_cli(["certify", "--family", "t-eta-kappa", "--input", path], capsys)
    report = json.loads(out)
    assert code == 2 and report["status"] == "conditional"
    assert report["detail"]["window_note"] == (
        "system checked to depth 4, the shortest branch plus one"
    )
    assert report["system_certificate"]["status"] == "certified-up-to-horizon"
    assert sorted(report["stieltjes"]) == ["-1", "1,1", "2,1"]


def test_certify_infinite_trunk_branch_weights_shorter_than_the_trunk(tmp_path, capsys):
    # five trunk weights, three per branch: a verdict on the depth-4 system,
    # not an input error
    doc = {
        "eta": 2,
        "kappa": "inf",
        "entry_weights": [math.sqrt(0.5)] * 2,
        "trunk_weights": [1.0] * 5,
        "branch_weights": [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]],
    }
    path = write(tmp_path, "branch.json", doc)
    code, out = run_cli(["certify", "--family", "t-eta-kappa", "--input", path], capsys)
    report = json.loads(out)
    assert code == 2 and report["status"] == "conditional"
    assert report["detail"]["window_note"] == (
        "system checked to depth 4, the shortest branch plus one"
    )
    assert report["system_certificate"]["status"] == "certified-up-to-horizon"


def test_certify_bilateral_refuses_a_vertex_listed_twice(tmp_path, capsys):
    entries = [{"v": 0, "re": 1.0}, {"v": 0, "re": 5.0}, {"v": 1, "re": 1.0}, {"v": 2, "re": 1.0}]
    weights = write(tmp_path, "w.json", {"weights": entries})
    code = main(["certify", "--family", "bilateral", "--weights", weights])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "duplicate weight for vertex 0" in captured.err


@pytest.mark.parametrize(
    "branch_one, vertex",
    [([1.0, 0.1, 5.0, 0.1, 5.0], "1,1"), ([0.0, 1.0, 0.1, 5.0, 0.1, 5.0], "1,2")],
    ids=["head", "past-zero"],
)
def test_certify_refutes_a_branch_whose_power_norms_fail(tmp_path, capsys, branch_one, vertex):
    # the power norms 1, 1, 0.01, 0.25, ... fail the Hankel test, which by
    # Lambert's necessity is a verdict, not an input error
    doc = {
        "eta": 2,
        "kappa": 0,
        "entry_weights": [0.5, 0.5],
        "branch_weights": [branch_one, [1.0, 1.0, 1.0]],
    }
    path = write(tmp_path, "branch.json", doc)
    code = main(["certify", "--family", "t-eta-kappa", "--input", path])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    report = json.loads(captured.out)
    assert report["status"] == "refuted"
    assert report["witness"]["check"] == "hankel"
    assert report["witness"]["vertex"] == vertex
    assert report["witness"]["vector"] == [-1.24999999875, 1.25, 0.0]


def test_certify_general_with_sequences_is_conditional(tmp_path, capsys):
    tree = write(tmp_path, "tree.json", {"family": "unilateral", "params": {"depth": 3}})
    weights = write(tmp_path, "w.json", {"weights": [1.0, 1.0, 1.0]})
    seqs = write(
        tmp_path,
        "seqs.json",
        {"sequences": {str(k): [1.0] * 8 for k in range(4)}},
    )
    code, out = run_cli(
        [
            "certify",
            "--family",
            "general",
            "--tree",
            tree,
            "--weights",
            weights,
            "--sequences",
            seqs,
        ],
        capsys,
    )
    assert code == 2
    assert json.loads(out)["status"] == "conditional"


def test_certify_general_with_two_atom_sequences_is_conditional(tmp_path, capsys):
    # the half line carrying s^n (0.4 d_0.5 + 0.6 d_2), normalized, at vertex n
    depth = 6
    base = [(0.5, 0.4), (2.0, 0.6)]
    t = [math.fsum(w * x**n for x, w in base) for n in range(depth + 5)]
    tree = write(tmp_path, "tree.json", {"family": "unilateral", "params": {"depth": depth}})
    weights = write(
        tmp_path, "w.json", {"weights": [math.sqrt(t[n + 1] / t[n]) for n in range(depth)]}
    )
    seqs = write(
        tmp_path,
        "seqs.json",
        {"sequences": {str(v): [t[v + k] / t[v] for k in range(5)] for v in range(depth + 1)}},
    )
    args = ["certify", "--family", "general", "--tree", tree, "--weights", weights]
    code, out = run_cli(args + ["--sequences", seqs], capsys)
    assert code == 2, json.loads(out)["witness"]
    assert json.loads(out)["status"] == "conditional"


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the Gauss fit at the frontier under-estimates the integral of 1/s, so the "
    "identity above it keeps a deficit at zero and refutes a genuine shift",
)
@pytest.mark.parametrize("family", ["bergman", "factorial"])
def test_certify_general_does_not_refute_exact_power_norms(family, tmp_path, capsys):
    weights, sequences = exact_half_line_sequences(family, 2, 6)
    tree = write(tmp_path, "tree.json", {"family": "unilateral", "params": {"depth": 2}})
    weights = write(tmp_path, "w.json", {"weights": weights})
    sequences = {str(v): list(t) for v, t in sequences.items()}
    seqs = write(tmp_path, "seqs.json", {"sequences": sequences})
    args = ["certify", "--family", "general", "--tree", tree, "--weights", weights]
    code, out = run_cli(args + ["--sequences", seqs], capsys)
    assert code != 1, json.loads(out)["witness"]


def test_certify_general_names_the_vertex_whose_sequence_fails_hankel(tmp_path, capsys):
    tree = write(tmp_path, "tree.json", {"family": "unilateral", "params": {"depth": 3}})
    weights = write(tmp_path, "w.json", {"weights": [1.0, 1.0, 1.0]})
    sequences = {str(k): [1, 1, 1, 1] for k in range(3)}
    sequences["3"] = [1, 2, 1, 5]
    seqs = write(tmp_path, "seqs.json", {"sequences": sequences})
    args = ["certify", "--family", "general", "--tree", tree, "--weights", weights]
    code, out = run_cli(args + ["--sequences", seqs], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "refuted"
    assert report["witness"] == {
        "vertex": "3",
        "check": "hankel",
        "block": "hankel",
        "vector": [-1.9999999979999998, 1.0],
        "quadratic_form": -3.0,
        "reason": "cannot reconstruct a measure from a refuted sequence",
    }
    assert report["consistency"] == [] and report["moments"] == []


def test_env_tolerance_override(unilateral_inputs, capsys, monkeypatch):
    tree, weights, system = unilateral_inputs
    monkeypatch.setenv("TREESHIFT_TOL", "1e-3")
    code, out = run_cli(
        ["check-consistency", "--tree", tree, "--weights", weights, "--system", system],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["config"]["tol"] == 1e-3


def test_reports_are_byte_identical_across_processes(tmp_path):
    doc = {
        "eta": 2,
        "kappa": 0,
        "branch_measures": [
            {"atoms": [{"x": 1.0, "w": 1.0}]},
            {"atoms": [{"x": 2.0, "w": 1.0}]},
        ],
        "entry_weights": [math.sqrt(0.5), math.sqrt(0.5)],
    }
    path = write(tmp_path, "branch.json", doc)
    cmd = [
        sys.executable,
        "-m",
        "treeshift",
        "certify",
        "--family",
        "t-eta-kappa",
        "--input",
        str(path),
    ]
    env = dict(os.environ)
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout



@pytest.mark.parametrize(
    "family, given, missing",
    [
        ("unilateral", [], "--weights"),
        ("bilateral", [], "--weights"),
        ("general", ["--weights"], "--tree"),
        ("general", ["--tree"], "--weights"),
        ("t-eta-kappa", [], "--input"),
    ],
)
def test_certify_without_its_document_is_an_input_error(
    unilateral_inputs, family, given, missing
):
    # a missing document once reached open(None): a TypeError traceback
    # that exited 1, the refuted code
    tree, weights, _ = unilateral_inputs
    paths = {"--tree": tree, "--weights": weights}
    cmd = [sys.executable, "-m", "treeshift", "certify", "--family", family]
    for flag in given:
        cmd += [flag, paths[flag]]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=dict(os.environ))
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == f"input error: --family {family} needs {missing}\n"


def test_certify_report_grows_with_the_window_not_with_the_horizon(tmp_path):
    # a 192-vertex unit path with the point mass at 1 everywhere: one moment
    # summary per vertex of the window, where the moment rows alone once
    # took 2.7 MB
    tree = write(tmp_path, "tree.json", {"family": "unilateral", "params": {"depth": 191}})
    weights = write(tmp_path, "weights.json", {"weights": [1.0] * 191})
    delta = {"atoms": [{"x": 1.0, "w": 1.0}]}
    system = write(
        tmp_path, "system.json",
        {"measures": {str(k): delta for k in range(192)}, "eps": {str(k): 0.0 for k in range(192)}},
    )
    cmd = [sys.executable, "-m", "treeshift", "certify", "--horizon", "192"]
    proc = subprocess.run(
        cmd + ["--family", "general", "--tree", tree, "--weights", weights, "--system", system],
        capture_output=True, text=True, env=dict(os.environ),
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.encode()) < 100_000
    cert = json.loads(proc.stdout)
    window = [str(v) for v in range(192)]
    assert [m["vertex"] for m in cert["moments"]] == window
    assert all("rows" not in m and m["worst_row"]["n"] <= m["top"] for m in cert["moments"])
    assert max(m["top"] for m in cert["moments"]) == 191
    # the classical certificate carries the Hankel verdict and its evidence only
    weights = write(tmp_path, "weights.json", {"weights": [1.0] * 192})
    proc = subprocess.run(
        cmd + ["--family", "unilateral", "--weights", weights],
        capture_output=True, text=True, env=dict(os.environ),
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.encode()) < 10_000
    assert json.loads(proc.stdout)["system_certificate"] is None


def test_text_format(unilateral_inputs, capsys):
    tree, weights, _ = unilateral_inputs
    code, out = run_cli(
        ["moments", "--tree", tree, "--weights", weights, "--format", "text"], capsys
    )
    assert code == 0
    assert "norms_sq" in out and "{" not in out.splitlines()[0]


def test_every_status_exits_with_its_code_from_the_table(tmp_path, unilateral_inputs, capsys):
    # one command per status in the table: a status missing from it would
    # raise KeyError and exit 3 with no report
    from treeshift.report import EXIT_CODE

    tree, weights, system = unilateral_inputs
    path = write(tmp_path, "path.json", {"vertices": [0, 1], "edges": [[0, 1]]})
    cycle = write(tmp_path, "cycle.json", {"edges": [[0, 1], [1, 0]]})
    seqs = write(tmp_path, "seqs.json", {"sequences": {str(k): [1.0] * 8 for k in range(5)}})
    shift = ["--tree", tree, "--weights", weights]
    runs = [
        ["certify", "--family", "unilateral", "--weights", weights],
        ["check-stieltjes", "--t", "[1,1,1,1]"],
        ["check-consistency", *shift, "--system", system],
        ["truncate", *shift, "--system", system, "--window", "2"],
        ["validate-tree", "--tree", path],
        ["check-stieltjes", "--t", "[1,1,0,0]"],
        ["validate-tree", "--tree", cycle],
        ["certify", "--family", "general", *shift, "--sequences", seqs],
    ]
    seen = set()
    for argv in runs:
        code, out = run_cli(argv, capsys)
        report = json.loads(out)
        assert code == report["exit_code"] == EXIT_CODE[report["status"]], argv
        seen.add(report["status"])
        code, out = run_cli(argv + ["--format", "text"], capsys)
        lines = [line for line in out.splitlines() if line[0] != " " and ": " in line]
        top = dict(line.split(": ", 1) for line in lines)
        assert code == int(top["exit_code"]) == EXIT_CODE[top["status"]], argv
    assert seen == set(EXIT_CODE)
    # converge prints its table alone under --format text
    converge = ["converge", *shift, "--system", system]
    for fmt in ("json", "text"):
        code = main(converge + ["--vertex", "0", "--power", "2", "--format", fmt])
        assert code == EXIT_CODE["ok"]


# -- input boundary -----------------------------------------------------------

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "treeshift" / "schemas"


def test_shipped_schemas_pass_their_meta_schema():
    paths = sorted(SCHEMA_DIR.glob("*.v1.schema.json"))
    assert len(paths) == 7
    for path in paths:
        schema = json.loads(path.read_text())
        validator_for(schema).check_schema(schema)


@pytest.mark.parametrize(
    "schema_name, doc",
    [
        ("measure", {"atoms": [{"x": -1.0, "w": 1.0}]}),
        ("weights", {"weights": [1.0, "x"]}),
        ("weights", {"weights": [{"v": [0, 1, 2]}]}),
        ("moments", {"t": [1.0]}),
        ("moments", {"t": [1.0, 2.0], "extra": 1}),
        ("system", {"measures": {"0": {"atoms": [{"x": 1.0}]}}}),
        ("tree", []),
    ],
)
def test_schema_messages_match_jsonschema_validate(schema_name, doc):
    schema = json.loads((SCHEMA_DIR / f"{schema_name}.v1.schema.json").read_text())
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(doc, schema)
    exc = expected.value
    with pytest.raises(InputError) as got:
        parse_document(json.dumps(doc), schema_name, source="doc.json")
    assert str(got.value) == (
        f"schema violation in doc.json at {exc.json_path}: {exc.message}"
    )


def test_cli_import_does_not_load_scipy():
    out = subprocess.run(
        [sys.executable, "-c", "import treeshift.cli, sys; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_package_import_loads_neither_numpy_nor_jsonschema():
    code = (
        "import sys, treeshift, treeshift.cli; "
        "print(sorted(m for m in ('numpy', 'jsonschema') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


# the certifier modules, the one standard module that only the exact
# arithmetic of the Hankel test needs, and the standard modules that no
# subcommand may load (see tests/test_package.py's AVOIDED)
HEAVY_MODULES = ("treeshift.moments", "treeshift.consistency", "treeshift.models",
                 "treeshift.truncation", "fractions", "decimal", "dataclasses", "inspect")


def _heavy_modules_after_main(argv):
    """Exit code of ``main(argv)`` in a fresh interpreter, and which of
    ``HEAVY_MODULES`` it left in ``sys.modules`` (without the package prefix)."""
    code = (
        "import json, sys; from treeshift.cli import main; code = main(%r); "
        "print(json.dumps([code, [m.removeprefix('treeshift.') for m in %r "
        "if m in sys.modules]]))" % (argv, HEAVY_MODULES)
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, unilateral_inputs):
    tree, weights, system = unilateral_inputs
    measure = write(tmp_path, "m.json", {"atoms": [{"x": 1.0, "w": 1.0}]})
    broken = tmp_path / "broken.json"
    broken.write_text('{"weights": [1,')
    general = ["certify", "--family", "general", "--tree", tree, "--weights", weights]
    cases = [
        (["validate-tree", "--tree", tree], 0, []),
        (["certify", "--family", "unilateral", "--weights", str(broken)], 3, []),
        (["check-stieltjes", "--t", "[1,2,5,14,42]"], 0, ["moments"]),
        # fractions imports decimal
        (["check-stieltjes", "--t", "[1,1,0,0]"], 1, ["moments", "fractions", "decimal"]),
        (["backward-extend", "--measure", measure, "--theta", "2.0"], 0, ["moments"]),
        (["check-consistency", "--tree", tree, "--weights", weights, "--system", system],
         0, ["moments", "consistency"]),
        (general + ["--system", system], 0, ["moments", "consistency"]),
        (["truncate", "--tree", tree, "--weights", weights, "--system", system,
          "--window", "2"], 0, ["moments", "consistency", "truncation"]),
        # quadrature's chord polish is exact integer arithmetic: decimal
        # loads only where its Newton fallback runs
        (["certify", "--family", "unilateral", "--weights", weights],
         0, ["moments", "consistency", "models"]),
    ]
    for argv, exit_code, loaded in cases:
        assert _heavy_modules_after_main(argv) == [exit_code, loaded], argv


def _main_in_subprocess(argv, blocked=None):
    """Run the CLI in a fresh interpreter, with the module ``blocked`` made
    unimportable when one is named."""
    block = f"sys.modules[{blocked!r}] = None; " if blocked else ""
    code = f"import sys; {block}from treeshift.cli import main; sys.exit(main({argv!r}))"
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)


def test_quadrature_runs_without_mpmath(tmp_path):
    weights = write(tmp_path, "w.json", {"weights": [1.0] * 8})
    argv = ["certify", "--family", "unilateral", "--weights", weights]
    unblocked = _main_in_subprocess(argv)
    blocked = _main_in_subprocess(argv, "mpmath")
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stdout == unblocked.stdout
    assert json.loads(blocked.stdout)["status"] == "certified-up-to-horizon"


def test_commands_run_without_numpy(tmp_path, unilateral_inputs):
    # commands that reach the Hankel test, quadrature and the Carleman slope
    tree, weights, system = unilateral_inputs
    sequences = write(tmp_path, "seqs.json", {"sequences": {str(k): [1.0] * 8 for k in range(5)}})
    cases = [
        (["certify", "--family", "unilateral", "--weights", weights], 0),
        (["check-stieltjes", "--t", "[1,1,0,0]"], 1),
        (["certify", "--family", "general", "--tree", tree, "--weights", weights,
          "--sequences", sequences], 2),
        (["truncate", "--tree", tree, "--weights", weights, "--system", system,
          "--window", "2"], 0),
    ]
    for argv, code in cases:
        unblocked = _main_in_subprocess(argv)
        blocked = _main_in_subprocess(argv, "numpy")
        assert blocked.returncode == unblocked.returncode == code, blocked.stderr
        assert blocked.stdout == unblocked.stdout


# A valid document per shipped schema, reaching every branch of its oneOf and
# anyOf keywords; the property below mutates them into invalid ones.
VALID_DOCUMENTS = {
    "branch": {
        "eta": 2,
        "kappa": "inf",
        "entry_weights": [1.0, {"re": 0.5, "im": 0.5}],
        "trunk_weights": [2, {"re": 1.0}],
        "branch_weights": [[1.0, {"im": 1.0}], [2.0]],
        "branch_measures": [{"atoms": [{"x": 1.0, "w": 1.0}]}],
        "nu": {"atoms": [{"x": 0.0, "w": 0.5}]},
    },
    "measure": {"atoms": [{"x": 1.0, "w": 0.5}, {"x": 0, "w": 0.5}]},
    "moments": {"t": [1.0, 2.0, 5]},
    "sequences": {"sequences": {"0": [1.0, 1.0], "a b": [1, 2, 5]}},
    "system": {
        "measures": {"0": {"atoms": [{"x": 1.0, "w": 1.0}]}, "1": {"atoms": []}},
        "eps": {"0": 0.0, "1": 2},
    },
    "tree": {
        "family": "t-eta-kappa",
        "params": {"depth": 3, "eta": 2, "kappa": 1, "back": 1},
    },
    "weights": {"weights": [1.0, {"v": [0, 1], "re": 1.0, "im": 0.5}, {"v": 3}]},
}
EXTRA_TREES = [
    {"family": "unilateral", "params": {"kappa": "inf"}},
    {"vertices": [0, [1, 2]], "edges": [[0, 1], [[1, 2], 3]]},
]
MUTANT_VALUES = [
    None, True, False, 0, 1, -1, 2, 2.0, 2.5, -0.5, 1e300, "inf", "x", "",
    [], {}, [1.0], [0, 1], [[0, 1], 2], {"x": 1.0, "w": 1.0}, {"re": 1.0}, {"v": 0},
    {"atoms": []}, {"family": "unilateral"},
]
MUTANT_KEYS = [
    "x", "w", "v", "re", "im", "t", "atoms", "eta", "kappa", "family", "params",
    "depth", "edges", "branch_weights", "extra", "0", "a b", "it's", "Zeta_2", "_x",
]


def _nodes(doc, path=()):
    yield path, doc
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        return
    for key, value in children:
        yield from _nodes(value, path + (key,))


def _mutated(data, doc):
    """Drop keys, add keys, retype values, shorten and lengthen arrays."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        path, node = data.draw(st.sampled_from(list(_nodes(doc))))
        ops = ["retype"]
        if isinstance(node, dict):
            ops += ["drop", "add"] if node else ["add"]
        if isinstance(node, list):
            ops += ["shorten", "lengthen"] if node else ["lengthen"]
        op = data.draw(st.sampled_from(ops))
        value = copy.deepcopy(data.draw(st.sampled_from(MUTANT_VALUES)))
        if op == "drop":
            del node[data.draw(st.sampled_from(sorted(node)))]
        elif op == "add":
            node[data.draw(st.sampled_from(MUTANT_KEYS))] = value
        elif op == "shorten":
            del node[data.draw(st.integers(min_value=0, max_value=len(node) - 1))]
        elif op == "lengthen":
            extra = copy.deepcopy(data.draw(st.sampled_from(node))) if node else value
            node.insert(data.draw(st.integers(min_value=0, max_value=len(node))), extra)
        elif path:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
        else:
            doc = value
    return doc


@pytest.mark.parametrize("schema_name", sorted(VALID_DOCUMENTS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_built_in_checker_agrees_with_jsonschema(schema_name, data):
    schema = json.loads((SCHEMA_DIR / f"{schema_name}.v1.schema.json").read_text())
    seeds = [VALID_DOCUMENTS[schema_name]]
    if schema_name == "tree":
        seeds += EXTRA_TREES
    doc = _mutated(data, data.draw(st.sampled_from(seeds)))
    expected = best_match(validator_for(schema)(schema).iter_errors(doc))
    if expected is None:
        assert parse_document(json.dumps(doc), schema_name) == doc
        return
    with pytest.raises(InputError) as got:
        parse_document(json.dumps(doc), schema_name, source="doc.json")
    assert str(got.value) == (
        f"schema violation in doc.json at {expected.json_path}: {expected.message}"
    )


def test_valid_documents_pass_both_checkers():
    for name, doc in VALID_DOCUMENTS.items():
        schema = json.loads((SCHEMA_DIR / f"{name}.v1.schema.json").read_text())
        for each in [doc] + (EXTRA_TREES if name == "tree" else []):
            jsonschema.validate(each, schema)
            assert parse_document(json.dumps(each), name) == each


@pytest.mark.parametrize(
    "schema, doc",
    [
        ({"const": 1}, True),
        ({"const": 1}, 1.0),
        ({"enum": [[1], {"a": False}]}, [True]),
        ({"enum": [[1], {"a": False}]}, {"a": 0}),
        ({"enum": [[1], {"a": False}]}, {"a": False}),
        ({"type": "integer"}, 2.0),
        ({"type": "integer"}, 2.5),
        ({"type": "number"}, True),
        ({"minimum": 0}, False),
        ({"type": "array", "minItems": 1}, []),
        ({"type": "array", "maxItems": 0}, [1]),
        ({"additionalProperties": False}, {"b": 1, "a": 2, "it's": 3}),
        ({"properties": {"a b": {"items": {"type": "object"}}}}, {"a b": [{}, 1]}),
        ({"oneOf": [{"type": "number"}, {"minimum": 1}]}, 2),
        ({"oneOf": [{"minimum": 3}, {"type": "array", "minItems": 2}]}, [1]),
        ({"anyOf": [{"required": ["a"]}, {"required": ["b"]}], "type": "object"}, {}),
    ],
)
def test_checker_matches_jsonschema_on_edge_cases(schema, doc):
    expected = best_match(validator_for(schema)(schema).iter_errors(doc))
    got = Schema(schema).best_match(doc)
    if expected is None:
        assert got is None
    else:
        assert (got.json_path, got.message) == (expected.json_path, expected.message)


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "object", "pattern": "^a"},
        {"type": ["number", "null"]},
        {"properties": {"a": {"type": "string"}}},
        {"items": {"$ref": "#"}},
        {"additionalProperties": True},
        {"oneOf": [{"minimum": 0}, {"format": "date"}]},
        {"anyOf": [{"required": ["a"]}], "properties": {"a": {"exclusiveMinimum": 0}}},
    ],
)
def test_schema_with_an_unsupported_keyword_is_refused(schema):
    with pytest.raises(ValueError, match="unsupported schema"):
        Schema(schema)


@pytest.mark.parametrize(
    "atoms, code",
    [([(1e-310, 1e-320), (1.0, 1.0)], 0), ([(1e-310, 1e-10), (1.0, 1.0 - 1e-10)], 1)],
    ids=["extends", "refuted"],
)
def test_backward_extend_where_the_reciprocal_overflows(tmp_path, capsys, atoms, code):
    # 1 / 1e-310 overflows, but w / x does not: the integral of 1/s is
    # 1 + 1e-10 (an extension with theta = 2) or about 1e300 (none)
    doc = {"atoms": [{"x": x, "w": w} for x, w in atoms]}
    measure = write(tmp_path, "m.json", doc)
    got, out = run_cli(["backward-extend", "--measure", measure, "--theta", "2"], capsys)
    report = json.loads(out)
    assert got == code
    if code == 1:
        assert report["status"] == "refuted"
        assert report["witness"]["check"] == "inverse-moment-threshold"
        assert report["witness"]["required"] == pytest.approx(1e300)
    else:
        assert report["moments"][:3] == [2.0, 1.0, 1.0]  # theta, then the moments of mu


def test_overflowing_moments_are_input_errors(tmp_path, capsys):
    big = write(tmp_path, "big.json", {"atoms": [{"x": 1e200, "w": 1.0}]})
    code = main(["backward-extend", "--measure", big, "--theta", "1.0"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == (
        "input error: moment of order 2 overflows: x**2 at the atom x = 1e+200, w = 1.0\n"
    )



@pytest.mark.parametrize("argv", [["certify", "--family", "general"], ["check-consistency"]])
def test_an_overflowing_identity_refutes(tmp_path, capsys, argv):
    # weights [1e160, 1] under delta_1 at every vertex: |1e160|^2 overflows,
    # so the identity at 0 fails with discrepancy inf, not an input error
    tree = write(tmp_path, "tree.json", {"family": "unilateral", "params": {"depth": 2}})
    weights = write(tmp_path, "weights.json", {"weights": [1e160, 1.0]})
    delta = {"atoms": [{"x": 1.0, "w": 1.0}]}
    system = write(tmp_path, "system.json", {"measures": {str(k): delta for k in range(3)}})
    code, out = run_cli(argv + ["--tree", tree, "--weights", weights, "--system", system], capsys)
    report = json.loads(out)
    assert code == 1 and report["status"] == "refuted"
    first = report["consistency" if argv[0] == "certify" else "reports"][0]
    assert first["vertex"] == "0" and not first["ok"] and first["max_discrepancy"] == "inf"
    if argv[0] == "certify":
        assert report["witness"]["check"] == "consistency-identity"
        assert report["witness"]["vertex"] == "0"


@pytest.mark.parametrize("argv", [["certify", "--family", "general"], ["check-consistency"]])
def test_an_overflowing_inverse_moment_refutes(tmp_path, capsys, argv):
    # delta at x = 5e-324 at every vertex under unit weights: x**-1 overflows,
    # so the identity at 0 fails with discrepancy inf, not an input error
    tree = write(tmp_path, "tree.json", {"family": "unilateral", "params": {"depth": 2}})
    weights = write(tmp_path, "weights.json", {"weights": [1.0, 1.0]})
    delta = {"atoms": [{"x": 5e-324, "w": 1.0}]}
    system = write(tmp_path, "system.json", {"measures": {str(k): delta for k in range(3)}})
    code, out = run_cli(argv + ["--tree", tree, "--weights", weights, "--system", system], capsys)
    report = json.loads(out)
    assert code == 1 and report["status"] == "refuted"
    first = report["consistency" if argv[0] == "certify" else "reports"][0]
    assert first["vertex"] == "0" and not first["ok"] and first["max_discrepancy"] == "inf"
    assert first["reason"] == (
        "inverse-moment sum is not finite: "
        "moment of order -1 overflows: x**-1 at the atom x = 5e-324, w = 1.0"
    )
    if argv[0] == "certify":
        assert report["witness"]["check"] == "consistency-identity"
        assert report["witness"]["vertex"] == "0"


@pytest.mark.parametrize("argv", [["certify", "--family", "general"], ["check-consistency"]])
def test_an_exact_identity_under_a_subnormal_squared_weight_holds(tmp_path, capsys, argv):
    # |w|^2 = 5e-324 and delta at 5e-324 at both vertices: x**-1 overflows,
    # but the scaled mass |w|^2 * x**-1 is exactly 1 and the identity holds
    tree = write(tmp_path, "tree.json", {"family": "unilateral", "params": {"depth": 1}})
    weights = write(tmp_path, "weights.json", {"weights": [math.sqrt(5e-324)]})
    delta = {"atoms": [{"x": 5e-324, "w": 1.0}]}
    system = write(tmp_path, "system.json", {"measures": {"0": delta, "1": delta}})
    argv = argv + ["--tree", tree, "--weights", weights, "--system", system, "--horizon", "1"]
    code, out = run_cli(argv, capsys)
    report = json.loads(out)
    assert code == 0 and report["witness"] is None
    certified = "consistent" if argv[0] == "check-consistency" else "certified-up-to-horizon"
    assert report["status"] == certified
    first = report["consistency" if argv[0] == "certify" else "reports"][0]
    assert first["vertex"] == "0" and first["ok"] and first["max_discrepancy"] == 0.0


def test_subnormal_entry_weights_whose_sum_is_one_certify(tmp_path, capsys):
    # |entry weight|^2 = 5e-324 over delta at 1e-323 on both branches: x**-1
    # overflows, but each scaled mass is exactly 1/2 and the sum is 1
    delta = {"atoms": [{"x": 1e-323, "w": 1.0}]}
    doc = {
        "eta": 2,
        "kappa": 0,
        "entry_weights": [math.sqrt(5e-324)] * 2,
        "branch_measures": [delta, delta],
    }
    path = write(tmp_path, "branch.json", doc)
    argv = ["certify", "--family", "t-eta-kappa", "--horizon", "2", "--input", path]
    code, out = run_cli(argv, capsys)
    report = json.loads(out)
    assert code == 0 and report["status"] == "certified-up-to-horizon"
    assert report["detail"]["condition"]["sum"] == 1.0


def test_a_branch_whose_scaled_entry_weight_underflows_certifies(tmp_path, capsys):
    # |entry weight|^2 * P_1 = 1e-300 * 5e-101 underflows, yet that branch
    # carries half of level 1, which reads 1/2
    doc = {
        "eta": 2,
        "kappa": 1,
        "entry_weights": [1e-150, 1.0],
        "trunk_weights": [math.sqrt(5e-101)],
        "branch_measures": [
            {"atoms": [{"x": 1e-200, "w": 1.0}]},
            {"atoms": [{"x": 1.0, "w": 1.0}]},
        ],
    }
    path = write(tmp_path, "branch.json", doc)
    argv = ["certify", "--family", "t-eta-kappa", "--horizon", "2", "--input", path]
    code, out = run_cli(argv, capsys)
    report = json.loads(out)
    assert code == 0 and report["status"] == "certified-up-to-horizon"
    assert [c["value"] for c in report["detail"]["condition"]["checks"]] == [1.0, 0.5]


def test_overflowing_branch_moments_are_input_errors(tmp_path, capsys):
    # a branch weight of 1e160 gives the branch moments (1, inf), which
    # quadrature refuses up front
    doc = {
        "eta": 2,
        "kappa": 0,
        "entry_weights": [0.5, 0.5],
        "branch_weights": [[1e160], [1]],
    }
    path = write(tmp_path, "branch.json", doc)
    code = main(["certify", "--family", "t-eta-kappa", "--input", path])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "input error: moment t_1 = inf is not finite\n"

def test_non_finite_inline_moments_are_input_errors(capsys):
    code = main(["check-stieltjes", "--t", "[1, NaN, 1, 1, 1]"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "non-finite number in --t at $[1]" in captured.err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_weights_are_input_errors(tmp_path, capsys, literal):
    path = tmp_path / "weights.json"
    path.write_text('{"weights": [1.0, %s, 1.0]}' % literal)
    code = main(["certify", "--family", "unilateral", "--weights", str(path)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert f"non-finite number in {path} at $.weights[1]" in captured.err


def test_non_finite_number_is_located_in_nested_documents(tmp_path):
    path = tmp_path / "system.json"
    path.write_text('{"measures": {"0": {"atoms": [{"x": 1.0, "w": NaN}]}}}')
    with pytest.raises(InputError, match=r"at \$\.measures\['0'\]\.atoms\[0\]\.w$"):
        load_document(str(path), "system")


def test_malformed_inline_moments_name_their_source(capsys):
    code = main(["check-stieltjes", "--t", "[1, 1,"])
    assert code == 3
    assert "malformed JSON in --t: line 1" in capsys.readouterr().err


@pytest.mark.parametrize("by_env", [False, True])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerance_is_input_error(capsys, monkeypatch, by_env, value):
    args = ["check-stieltjes", "--t", "[1,1,0,0]"]
    if by_env:
        monkeypatch.setenv("TREESHIFT_TOL", value)
    else:
        args += ["--tol", value]
    code = main(args)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "tolerance must be positive and finite" in captured.err


def test_tolerance_flag_wins_over_env(capsys, monkeypatch):
    monkeypatch.setenv("TREESHIFT_TOL", "nan")
    code, out = run_cli(["check-stieltjes", "--t", "[1,1,1,1]", "--tol", "1e-6"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["tol"] == 1e-6


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_theta_is_input_error(tmp_path, capsys, value):
    measure = write(tmp_path, "m.json", {"atoms": [{"x": 1.0, "w": 1.0}]})
    code = main(["backward-extend", "--measure", measure, f"--theta={value}"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert f"--theta must be finite, got {float(value)}" in captured.err
