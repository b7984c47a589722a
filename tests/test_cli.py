"""Command line behavior: flows, exit codes, determinism."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import monores.cli
import monores.ideals
import monores.jsonio
from monores.cli import main
from monores.errors import AlgorithmInvariantViolation
from monores.jsonio import TRACE_VERSION, canonical_dumps, manifold_to_json, star_to_json
from monores import ReductionProblem, reduce_problem, support_from_rows
from helpers import dotted_id_manifold

PROBLEM = {"variables": ["z1", "z2"], "points": [["2", "1"], ["0", "2"]]}
IDEAL = {"dimension": 2, "labels": ["z1", "z2"], "generators": [["2", "1"], ["0", "2"]]}
WORKED = reduce_problem(ReductionProblem(support_from_rows(("z1", "z2"), [[2, 1], [0, 2]])))
TRACE = star_to_json(WORKED.star)
MANIFOLD = manifold_to_json(WORKED.star.end)
B_C0_Z1 = TRACE["steps"][0]["B"]["c0.z1"]
LONG = "1" + "0" * 5000
EMPTY_LABEL_ROOT = {
    "dimension": 2,
    "components": ["", "b"],
    "corners": [{"id": "c0", "index_set": ["", "b"]}],
    "edges": [],
}


def edited(doc, path, value):
    """A deep copy of `doc` with the item at `path` (keys and indices) set to `value`."""
    doc = copy.deepcopy(doc)
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return doc


def write(path, doc):
    """Write `doc` as canonical JSON, or as it is when it is already text."""
    text = doc if isinstance(doc, str) else canonical_dumps(doc)
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_reduce_then_replay(tmp_path, capsys):
    inp = write(tmp_path / "problem.json", PROBLEM)
    trace = tmp_path / "out.json"
    dot = tmp_path / "out.dot"
    code = main(
        ["reduce", "--input", inp, "--trace", str(trace), "--dot", str(dot),
         "--check-numeric", "--samples", "20", "--seed", "42"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "age 1" in out and "numeric oracle" in out
    assert "cluster" in dot.read_text(encoding="utf-8")

    assert main(["replay", "--trace", str(trace)]) == 0
    assert "replayed: age 1" in capsys.readouterr().out


def test_reduce_is_byte_deterministic(tmp_path):
    inp = write(tmp_path / "problem.json", PROBLEM)
    t1, t2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["reduce", "--input", inp, "--trace", str(t1)]) == 0
    assert main(["reduce", "--input", inp, "--trace", str(t2)]) == 0
    assert t1.read_bytes() == t2.read_bytes()


def test_principalize_flow(tmp_path, capsys):
    inp = write(tmp_path / "ideal.json", IDEAL)
    trace = tmp_path / "tr.json"
    assert main(["principalize", "--input", inp, "--trace", str(trace)]) == 0
    doc = json.loads(trace.read_text(encoding="utf-8"))
    assert doc["stats"]["age"] == 1
    assert len(doc["final_corners"]) == 2
    for corner in doc["final_corners"]:
        assert corner["principal_exponent"] in corner["all_generator_exponents"]
        assert len(corner["all_generator_exponents"]) == 2


def test_validate_flow(tmp_path, capsys):
    rep = reduce_problem(
        ReductionProblem(support_from_rows(("z1", "z2"), [[2, 1], [0, 2]]))
    )
    good = write(tmp_path / "m.json", manifold_to_json(rep.star.end))
    assert main(["validate", "--input", good]) == 0

    doc = manifold_to_json(rep.star.end)
    doc["corners"][0]["index_set"] = ["z1"]  # wrong size
    bad = write(tmp_path / "bad.json", doc)
    assert main(["validate", "--input", bad]) == 2
    assert "violation" in capsys.readouterr().out


@pytest.mark.parametrize(
    "corners, edge",
    [
        (
            [("c0", ["a", "b", "c"]), ("c1", ["a", "d", "e"])],
            {
                "from": "c0",
                "to": "c1",
                "matrix": {
                    "rows": ["a", "d", "e"],
                    "cols": ["a", "b", "c"],
                    "entries": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                },
            },
        ),
        (
            [("c0", ["a"]), ("c1", ["a", "b"])],
            {
                "from": "c0",
                "to": "c1",
                "matrix": {"rows": ["a", "b"], "cols": ["a"], "entries": [["1"], ["0"]]},
            },
        ),
    ],
    ids=["too-large", "too-small"],
)
def test_edge_at_a_wrong_size_corner_is_a_violation(tmp_path, capsys, corners, edge):
    doc = {
        "dimension": 2,
        "components": sorted({lab for _, labels in corners for lab in labels}),
        "corners": [{"id": cid, "index_set": labels} for cid, labels in corners],
        "edges": [edge],
    }
    assert main(["validate", "--input", write(tmp_path / "m.json", doc)]) == 2
    out = capsys.readouterr().out
    assert "violation: edge c0->c1: an endpoint's index set does not have size 2" in out
    assert "index set size" in out


# Two corners on {a, b}, one edge whose matrix breaks triangular form on
# both shared labels: a nonpositive diagonal, an off-diagonal entry and a
# new-label row entry at each.
UNSORTED_VIOLATIONS = {
    "dimension": 3,
    "components": ["a", "b", "c", "d"],
    "corners": [{"id": "c0", "index_set": ["a", "b", "c"]}, {"id": "c1", "index_set": ["a", "b", "d"]}],
    "edges": [
        {
            "from": "c0",
            "to": "c1",
            "matrix": {
                "rows": ["a", "b", "d"],
                "cols": ["a", "b", "c"],
                "entries": [["-1", "5", "0"], ["7", "-2", "0"], ["3", "4", "1"]],
            },
        }
    ],
}


def test_edge_violations_come_in_sorted_label_order(tmp_path, capsys):
    assert main(["validate", "--input", write(tmp_path / "m.json", UNSORTED_VIOLATIONS)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "violation: edge c0->c1: diagonal entry at a is not positive",
        "violation: edge c0->c1: off-diagonal entry (a,b) on shared labels",
        "violation: edge c0->c1: new-label row has entry at shared column a",
        "violation: edge c0->c1: diagonal entry at b is not positive",
        "violation: edge c0->c1: off-diagonal entry (b,a) on shared labels",
        "violation: edge c0->c1: new-label row has entry at shared column b",
    ]


def test_edge_violations_do_not_depend_on_the_hash_seed(tmp_path):
    """The shared labels were once walked in frozenset order, which the
    string hash seed decides, so two processes listed the same violations
    in different orders."""
    path = write(tmp_path / "m.json", UNSORTED_VIOLATIONS)
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        run = subprocess.run(
            [sys.executable, "-m", "monores.cli", "validate", "--input", path],
            env=env, capture_output=True, text=True,
        )
        assert run.returncode == 2 and run.stderr == ""
        outs.append(run.stdout)
    assert outs[0].count("violation:") == 6 and outs[1] == outs[0]


NEGATIVE_ROWS = [["-1", "2"], ["3", "-4"], ["-5", "6"], ["7", "-8"]]


@pytest.mark.parametrize(
    "command, doc",
    [
        ("reduce", {"variables": ["a", "b"], "points": NEGATIVE_ROWS}),
        ("principalize", {"dimension": 2, "labels": ["a", "b"], "generators": NEGATIVE_ROWS}),
    ],
)
def test_negative_point_message_does_not_depend_on_the_hash_seed(tmp_path, command, doc):
    """The points were once checked in frozenset order, so the message named
    a different bad point under each PYTHONHASHSEED; it names the file's
    first."""
    path = write(tmp_path / "in.json", doc)
    src = str(Path(__file__).resolve().parent.parent / "src")
    errs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        run = subprocess.run(
            [sys.executable, "-m", "monores.cli", command, "--input", path,
             "--trace", str(tmp_path / "t.json")],
            env=env, capture_output=True, text=True,
        )
        assert run.returncode == 1 and run.stdout == ""
        errs.append(run.stderr)
    assert errs[0] == "error: support point with a negative entry: ExponentVector({a: -1, b: 2})\n"
    assert errs[1] == errs[0]
    assert not (tmp_path / "t.json").exists()


def test_budget_exit_code_writes_partial_trace(tmp_path, capsys):
    inp = write(tmp_path / "problem.json", PROBLEM)
    trace = tmp_path / "t.json"
    code = main(["reduce", "--input", inp, "--trace", str(trace), "--max-steps", "0"])
    assert code == 3
    err = capsys.readouterr().err
    assert "stopped after 0 blow-ups (budget 0)" in err
    assert "generator pair (0, 1)" in err
    assert "obstruction count 1, 1 at the pair's start" in err
    assert "end manifold corner count 1" in err
    partial = json.loads(trace.read_text(encoding="utf-8"))
    assert partial["steps"] == []
    assert main(["replay", "--trace", str(trace)]) == 0


@pytest.mark.parametrize("command", ["reduce", "principalize"])
@pytest.mark.parametrize(
    "options, message",
    [
        (["--check-numeric", "--samples", "0"], "--samples must be at least 1, got 0"),
        (["--check-numeric", "--samples", "-3"], "--samples must be at least 1, got -3"),
        (["--max-steps", "-1"], "the step budget must be nonnegative, got -1"),
    ],
    ids=["no-samples", "negative-samples", "negative-budget"],
)
def test_meaningless_option_values_are_bad_input(tmp_path, capsys, command, options, message):
    """Options under which the run would check or do nothing exit 1 before
    any trace is written."""
    inp = write(tmp_path / "in.json", PROBLEM if command == "reduce" else IDEAL)
    trace = tmp_path / "t.json"
    assert main([command, "--input", inp, "--trace", str(trace), *options]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not trace.exists()


@pytest.mark.parametrize("command", ["reduce", "principalize"])
@pytest.mark.parametrize("trace, dot", [("out.txt", "out.txt"), ("out.txt", "./out.txt")])
def test_dot_onto_the_trace_is_bad_input(tmp_path, monkeypatch, capsys, command, trace, dot):
    """A `--dot` path that resolves to the `--trace` file would overwrite
    the trace; it exits 1 before the input is read and writes nothing."""
    monkeypatch.chdir(tmp_path)
    argv = [command, "--input", "missing.json", "--trace", trace, "--dot", dot]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: --dot {dot} would overwrite --trace {trace}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--max-steps", "abc"], "monores reduce: argument --max-steps: invalid int value: 'abc'"),
        (["--samples", "x"], "monores reduce: argument --samples: invalid int value: 'x'"),
        (["--bogus"], "monores: unrecognized arguments: --bogus"),
        (None, "monores: the following arguments are required: command"),
    ],
    ids=["max-steps-abc", "samples-x", "unknown-option", "no-subcommand"],
)
def test_malformed_command_line_is_bad_input(tmp_path, capsys, argv, message):
    """argparse's usage errors exit 1 with one `error:` line, not 2 (the
    code for validation violations); `--help` still exits 0."""
    trace = tmp_path / "t.json"
    if argv is not None:
        inp = write(tmp_path / "in.json", PROBLEM)
        argv = ["reduce", "--input", inp, "--trace", str(trace), *argv]
    assert main(argv or []) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not trace.exists()
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--help"])
    assert exc.value.code == 0


def test_replayed_weights_off_the_edge_diagonals_are_bad_input(tmp_path, capsys):
    rep = reduce_problem(
        ReductionProblem(support_from_rows(("z1", "z2", "z3"), [[2, 1, 0], [0, 2, 1], [1, 0, 3]]))
    )
    doc = star_to_json(rep.star)
    k = next(k for k, step in enumerate(doc["steps"]) if len(step["alpha_at_centers"]) > 1)
    cid = sorted(doc["steps"][k]["alpha_at_centers"])[0]
    lab = doc["steps"][k]["center"][0]
    bad = edited(doc, ["steps", k, "alpha_at_centers", cid, lab], "13/7")
    assert main(["replay", "--trace", write(tmp_path / "t.json", bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: step {k}: the weights at the center") and err.count("\n") == 1


@pytest.mark.parametrize("where", ["trace", "dot", "partial trace"])
def test_unwritable_output_path_is_bad_input(tmp_path, capsys, where):
    inp = write(tmp_path / "problem.json", PROBLEM)
    missing = str(tmp_path / "missing" / "out")
    argv = {
        "trace": ["--trace", missing],
        "dot": ["--trace", str(tmp_path / "t.json"), "--dot", missing],
        "partial trace": ["--trace", missing, "--max-steps", "0"],
    }[where]
    assert main(["reduce", "--input", inp, *argv]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(f"error: cannot write {missing}: ")
    assert "Traceback" not in err


def test_a_budget_stop_that_cannot_write_its_trace_is_bad_input(tmp_path, capsys):
    """The stop is reported, then the unwritable path, and the run exits 1,
    not 3: a path that cannot be written is bad input, whatever stopped
    the run.  Nothing is written."""
    inp = write(tmp_path / "problem.json", PROBLEM)
    missing = str(tmp_path / "missing_dir" / "t.json")
    try:  # the operating system's reason, which the CLI reports as it is
        Path(missing).write_bytes(b"")
    except OSError as exc:
        reason = exc
    assert main(["reduce", "--input", inp, "--trace", missing, "--max-steps", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: stopped after 0 blow-ups (budget 0) at generator pair (0, 1): obstruction "
        "count 1, 1 at the pair's start; end manifold corner count 1\n"
        f"error: cannot write {missing}: {reason}\n"
    )
    assert not (tmp_path / "missing_dir").exists()


def test_bad_input_exit_code(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["validate", "--input", missing]) == 1
    garbled = tmp_path / "g.json"
    garbled.write_text("{", encoding="utf-8")
    assert main(["validate", "--input", str(garbled)]) == 1


def test_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    def broken(problem, max_steps):
        raise AlgorithmInvariantViolation("blow-up produced an invalid manifold")

    monkeypatch.setattr(monores.cli, "reduce_problem", broken)
    inp = write(tmp_path / "problem.json", PROBLEM)
    assert main(["reduce", "--input", inp, "--trace", str(tmp_path / "t.json")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error (bug): ")
    assert "invalid manifold" in err


def test_non_principal_end_after_principalize_is_a_bug(tmp_path, monkeypatch, capsys):
    # a sweep that sees no obstruction stops at once; the two generators
    # (2,1) and (0,2) stay incomparable at the root, which the sweep's own
    # end certificate catches
    monkeypatch.setattr(monores.ideals, "uncoupled_centers", lambda lam, mu: set())
    inp = write(tmp_path / "ideal.json", IDEAL)
    trace = tmp_path / "t.json"
    assert main(["principalize", "--input", inp, "--trace", str(trace)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error (bug): ")
    assert "'c0'" in err and "not a singleton" in err
    assert not trace.exists()


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("replay", {"version": "monores-trace/1", "steps": []}, "missing 'root'"),
        (
            "replay",
            {
                "version": "monores-trace/1",
                "root": {"dimension": 2, "components": ["z1", "z2"], "corners": [{"id": "c0"}]},
            },
            "missing 'index_set'",
        ),
        ("replay", [1, 2], "must be a JSON object"),
        (
            "validate",
            {
                "dimension": 2,
                "components": ["z1", "z2"],
                "corners": [{"id": "c0", "index_set": ["z1", "z2"]}],
                "edges": [{"from": "c0", "matrix": {"rows": [], "cols": [], "entries": []}}],
            },
            "missing 'to'",
        ),
        ("reduce", {**PROBLEM, "stratum_dim": "x"}, "stratum_dim must be an integer"),
        ("replay", edited(TRACE, ["steps", 0, "B"], []), "field 'B' must be a JSON object"),
        (
            "replay",
            edited(TRACE, ["root", "corners", 0, "index_set"], 5),
            "field 'index_set' must be an array",
        ),
        ("replay", edited(TRACE, ["steps"], 3), "field 'steps' must be an array"),
        (
            "replay",
            edited(TRACE, ["steps", 0, "alpha_at_centers"], [1]),
            "field 'alpha_at_centers' must be a JSON object",
        ),
        ("replay", edited(TRACE, ["steps", 0, "center"], 7), "field 'center' must be an array"),
        (
            "replay",
            edited(TRACE, ["steps", 0, "alpha_at_centers", "c0"], 3),
            "vector must be a JSON object",
        ),
        (
            "replay",
            edited(TRACE, ["steps", 0, "B", "c0.z1", "rows"], 1),
            "field 'rows' must be an array",
        ),
        (
            "replay",
            edited(TRACE, ["steps", 0, "B", "c0.z1", "entries"], 5),
            "field 'entries' must be an array",
        ),
        ("replay", edited(TRACE, ["root", "dimension"], "2"), "must be an integer, not str"),
        ("replay", edited(TRACE, ["root", "components"], 3), "field 'components' must be"),
        ("validate", edited(MANIFOLD, ["edges"], 4), "field 'edges' must be an array"),
        ("validate", edited(MANIFOLD, ["corners"], 4), "field 'corners' must be an array"),
        (
            "validate",
            edited(MANIFOLD, ["edges", 0, "matrix", "entries", 0], 3),
            "each item of matrix field 'entries' must be an array",
        ),
        ("validate", edited(MANIFOLD, ["dimension"], None), "must be an integer, not NoneType"),
        ("reduce", {**PROBLEM, "points": [1]}, "each item of support field 'points'"),
        ("reduce", {**PROBLEM, "variables": 5}, "field 'variables' must be an array"),
        ("reduce", {**PROBLEM, "points": 3}, "field 'points' must be an array"),
        (
            "principalize",
            {**IDEAL, "generators": [1, 2]},
            "each item of ideal field 'generators'",
        ),
        ("principalize", {**IDEAL, "labels": 7}, "field 'labels' must be an array"),
        (
            "validate",
            {
                "dimension": 2,
                "components": ["a", "b"],
                "corners": [{"id": "c0", "index_set": ["a", "b"]}] * 2,
            },
            "duplicate corner id 'c0'",
        ),
        (
            "validate",
            {
                "dimension": 2,
                "components": ["a", "b"],
                "corners": [{"id": "c0", "index_set": ["a", "b", "a"]}],
            },
            "corner 'c0' repeats a label",
        ),
        # JSON booleans are ints to Python, but no exponent
        ("reduce", {**PROBLEM, "points": [[True, "1"], ["0", False]]}, "out of bool"),
        ("principalize", {**IDEAL, "generators": [["2", "1"], [False, "2"]]}, "out of bool"),
        (
            "replay",
            edited(TRACE, ["steps", 0, "alpha_at_centers", "c0", "z2"], True),
            "out of bool",
        ),
        # a dict, a set or Python's int conversion would hide these
        (
            "replay",
            canonical_dumps(TRACE).replace('"z1": "2"', '"z1": "999",\n"z1": "2"'),
            "repeated key 'z1'",
        ),
        (
            "replay",
            edited(
                TRACE,
                ["steps", 0, "B", "c0.z1"],
                {
                    **B_C0_Z1,
                    "rows": ["z2", *B_C0_Z1["rows"]],
                    "entries": [["5", "5"], *B_C0_Z1["entries"]],
                },
            ),
            "matrix repeats a row or column label",
        ),
        (
            "validate",
            edited(MANIFOLD, ["components"], [*MANIFOLD["components"], "z1"]),
            "repeats a label in its components",
        ),
        ("reduce", {**PROBLEM, "points": [[LONG, "1"], ["0", "2"]]}, "rational literal of 5001"),
        (
            "validate",
            canonical_dumps(MANIFOLD).replace('"dimension": 2', f'"dimension": {LONG}'),
            "cannot read",
        ),
        ("validate", "[" * 100_000 + "]" * 100_000, "cannot read"),
        # every label is a nonempty string, in a manifold file too
        ("validate", EMPTY_LABEL_ROOT, "labels must be nonempty strings"),
        (
            "replay",
            {"version": TRACE_VERSION, "root": EMPTY_LABEL_ROOT, "steps": []},
            "labels must be nonempty strings",
        ),
        (
            "validate",
            {**EMPTY_LABEL_ROOT, "components": ["a", "b"]},
            "labels must be nonempty strings",
        ),
        # a lone surrogate is legal in a JSON string (json.dumps escapes
        # it, so the file is UTF-8) but has no UTF-8 encoding, so no trace
        # could hold it
        (
            "reduce",
            json.dumps({"variables": ["a", "\ud800"], "points": [["2", "1"], ["0", "2"]]}),
            "labels must be UTF-8-encodable text",
        ),
        (
            "principalize",
            json.dumps({**IDEAL, "labels": ["a", "\udfff"]}),
            "labels must be UTF-8-encodable text",
        ),
        (
            "validate",
            json.dumps({**EMPTY_LABEL_ROOT, "components": ["a", "\udfff"],
                        "corners": [{"id": "c0", "index_set": ["a", "\udfff"]}]}),
            "labels must be UTF-8-encodable text",
        ),
    ],
    ids=["trace-without-root", "corner-without-index-set", "top-level-list",
         "edge-without-to", "non-integer-stratum-dim", "b-block-list", "index-set-number",
         "steps-number", "alphas-list", "center-number", "alpha-vector-number",
         "b-rows-number", "b-entries-number", "dimension-string", "components-number",
         "edges-number", "corners-number", "entries-row-number", "dimension-null",
         "points-row-number", "variables-number", "points-number", "generators-rows-numbers",
         "labels-number", "duplicate-corner-id", "repeated-index-label", "point-bool",
         "generator-bool", "alpha-bool", "duplicate-key", "repeated-b-row-label",
         "repeated-component", "long-point", "long-dimension", "deep-nesting",
         "empty-label", "empty-label-root", "empty-index-label", "surrogate-variable",
         "surrogate-ideal-label", "surrogate-component"],
)
def test_malformed_file_is_bad_input(tmp_path, capsys, command, doc, message):
    path = write(tmp_path / "in.json", doc)
    argv = {
        "replay": ["replay", "--trace", path],
        "validate": ["validate", "--input", path],
        "reduce": ["reduce", "--input", path, "--trace", str(tmp_path / "t.json")],
        "principalize": ["principalize", "--input", path, "--trace", str(tmp_path / "t.json")],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not (tmp_path / "t.json").exists()


B_REPEATED_ROW = {
    **B_C0_Z1,
    "rows": ["z2", *B_C0_Z1["rows"]],
    "entries": [["5", "5"], *B_C0_Z1["entries"]],
}


@pytest.mark.parametrize(
    "path, value, message",
    [
        (["steps", 0, "B"], [], "step field 'B' must be a JSON object, not list"),
        (["steps", 0, "B", "c0.z1", "rows"], 1, "matrix field 'rows' must be an array, not int"),
        (
            ["steps", 0, "B", "c0.z1", "entries"],
            5,
            "matrix field 'entries' must be an array, not int",
        ),
        (["steps", 0, "B", "c0.z1"], B_REPEATED_ROW, "matrix repeats a row or column label"),
        # after a corner whose matrix is recorded exactly as written
        (["steps", 0, "B", "c0.z2", "cols"], 2, "matrix field 'cols' must be an array, not int"),
    ],
    ids=["b-block-list", "b-rows-number", "b-entries-number", "repeated-b-row-label",
         "b-cols-number-second-corner"],
)
def test_malformed_b_block_keeps_its_exact_message(tmp_path, capsys, path, value, message):
    """The whole line, not a part of it: a malformed recorded matrix is
    reported as parsing reports it, whichever corner holds it."""
    trace = write(tmp_path / "t.json", edited(TRACE, path, value))
    assert main(["replay", "--trace", trace]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_library_key_error_during_replay_is_not_bad_input(tmp_path, monkeypatch):
    def broken(*args):
        raise KeyError("c0")

    rep = reduce_problem(ReductionProblem(support_from_rows(("z1", "z2"), [[2, 1], [0, 2]])))
    monkeypatch.setattr(monores.jsonio, "apply_center", broken)
    trace = write(tmp_path / "t.json", star_to_json(rep.star))
    with pytest.raises(KeyError):
        main(["replay", "--trace", trace])


def test_child_id_collision_exit_code(tmp_path, capsys):
    # dotted labels no longer collide: the labels in child ids are escaped
    doc = {"variables": ["a", "a.b", "b"], "points": [["0", "1", "0"], ["1", "0", "1"]]}
    inp = write(tmp_path / "problem.json", doc)
    trace = str(tmp_path / "t.json")
    assert main(["reduce", "--input", inp, "--trace", trace]) == 0
    assert main(["replay", "--trace", trace]) == 0
    capsys.readouterr()
    # a root with a dotted id of its own can still make a child collide
    step = {
        "center": ["E∞1", "z2"],
        "alpha_at_centers": {"c0.z1": {"E∞1": "1", "z2": "1"}},
        "new_label": "E∞2",
        "B": {},
    }
    root = manifold_to_json(dotted_id_manifold())
    doc = {"version": TRACE_VERSION, "root": root, "steps": [step]}
    assert main(["replay", "--trace", write(tmp_path / "dotted.json", doc)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error (bug): ")
    assert "'c0.z1.z2'" in err


def test_stratum_dim_flag_annotates(tmp_path):
    inp = write(tmp_path / "problem.json", PROBLEM)
    trace = tmp_path / "t.json"
    assert main(["reduce", "--input", inp, "--trace", str(trace), "--stratum-dim", "2"]) == 0
    doc = json.loads(trace.read_text(encoding="utf-8"))
    assert doc["centers"][0]["annotation"] == "ℝ^2 × Z̄"
    assert doc["problem"]["stratum_dim"] == 2


def test_text_that_does_not_encode_leaves_an_existing_file_as_it_was(tmp_path):
    """The text is encoded before the path is opened.  No input reaches
    this: a label that does not encode is bad input when it is read."""
    path = tmp_path / "t.json"
    path.write_text("old\n", encoding="utf-8")
    with pytest.raises(UnicodeEncodeError):
        monores.cli._write_text(str(path), '{"a": "\ud800"}\n')
    assert path.read_text(encoding="utf-8") == "old\n"
