"""Serialization round trips and trace replay guarantees."""

import collections
import copy
import functools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monores import (
    ExponentMatrix,
    ExponentVector,
    ReductionProblem,
    StructuralError,
    reduce_problem,
    support_from_rows,
)
import monores.jsonio
from monores.jsonio import (
    canonical_dumps,
    ideal_from_json,
    manifold_from_json,
    manifold_to_json,
    matrix_from_json,
    matrix_to_json,
    problem_from_json,
    replay_trace,
    report_to_json,
    star_to_json,
    support_from_json,
    support_to_json,
    vector_from_json,
    vector_to_json,
)
from helpers import random_reports, two_point_problem

F = Fraction


def worked_report():
    return reduce_problem(
        ReductionProblem(support_from_rows(("z1", "z2"), [[2, 1], [0, 2]]))
    )


def test_vector_round_trip():
    v = ExponentVector({"E1": F(3, 2), "E2": 0, "E∞1": 7})
    assert vector_from_json(vector_to_json(v)) == v
    assert vector_to_json(v) == {"E1": "3/2", "E2": "0", "E∞1": "7"}


def test_matrix_round_trip_and_order():
    m = ExponentMatrix.from_row_table(
        ("E2", "E1"), ("a", "b"), [[1, F(-1, 2)], [0, 3]]
    )
    doc = matrix_to_json(m)
    assert doc["rows"] == ["E1", "E2"] and doc["cols"] == ["a", "b"]
    assert matrix_from_json(doc) == m
    # importer honors whatever order the file declares
    shuffled = {
        "rows": ["E2", "E1"],
        "cols": ["b", "a"],
        "entries": [["-1/2", "1"], ["3", "0"]],
    }
    assert matrix_from_json(shuffled) == m


def test_support_round_trip():
    s = support_from_rows(("z1", "z2"), [[F(3, 1), 0], [0, 2]])
    doc = support_to_json(s)
    assert doc == {"variables": ["z1", "z2"], "points": [["0", "2"], ["3", "0"]]}
    assert support_from_json(doc) == s
    with pytest.raises(StructuralError):
        support_from_json({"variables": ["z1"]})


def test_manifold_round_trip():
    rep = worked_report()
    m = rep.star.end
    doc = manifold_to_json(m)
    back = manifold_from_json(doc)
    assert back.validate() == []
    assert back.dimension == m.dimension
    assert back.components == m.components
    assert {c.id: c.index_set for c in back.corners.values()} == {
        c.id: c.index_set for c in m.corners.values()
    }
    assert [(e.p, e.q, e.matrix) for e in back.edges] == [
        (e.p, e.q, e.matrix) for e in m.edges
    ]


def test_ideal_from_json():
    ideal = ideal_from_json(
        {"dimension": 2, "labels": ["z1", "z2"], "generators": [["2", "1"], ["0", "2"]]}
    )
    assert len(ideal.generators) == 2
    with pytest.raises(StructuralError):
        ideal_from_json({"dimension": 3, "labels": ["z1"], "generators": [["1"]]})


def test_problem_from_json_stratum_override():
    doc = {"variables": ["z1"], "points": [["1"]], "stratum_dim": 2}
    assert problem_from_json(doc).stratum_dim == 2
    assert problem_from_json(doc, stratum_dim=5).stratum_dim == 5


def test_trace_replay_round_trip():
    rep = worked_report()
    doc = json.loads(canonical_dumps(report_to_json(rep)))
    star = replay_trace(doc)
    assert star.age == rep.age
    end, orig = star.end, rep.star.end
    assert {c.index_set for c in end.corners.values()} == {
        c.index_set for c in orig.corners.values()
    }
    assert end.validate() == []


@pytest.mark.parametrize("n", [20, 32])
def test_a_wide_one_step_trace_replays_and_validates(n):
    """The two children of the one step share n-1 labels, so validating
    by every label set they share would walk 2^(n-1) - 1 sets; the
    pairwise family walks one, and replay validates the root and the end
    in full."""
    rep = reduce_problem(two_point_problem(n))
    assert rep.age == 1
    star = replay_trace(json.loads(canonical_dumps(report_to_json(rep))))
    end = star.end
    assert end.validate() == []
    assert len(end._label_sets()) == 1


def test_trace_version_is_enforced():
    rep = worked_report()
    doc = star_to_json(rep.star)
    doc["version"] = "monores-trace/999"
    with pytest.raises(StructuralError):
        replay_trace(doc)


def test_replay_rejects_tampered_matrices():
    rep = worked_report()
    doc = json.loads(canonical_dumps(star_to_json(rep.star)))
    step = doc["steps"][0]
    some_corner = sorted(step["B"])[0]
    step["B"][some_corner]["entries"][0][0] = "99"
    with pytest.raises(StructuralError):
        replay_trace(doc)


@pytest.mark.parametrize("change", ["drop a corner", "add a corner"])
def test_replay_rejects_a_b_block_over_other_corners(change):
    rep = worked_report()
    doc = json.loads(canonical_dumps(star_to_json(rep.star)))
    block = doc["steps"][0]["B"]
    some_corner = sorted(block)[0]
    if change == "drop a corner":
        del block[some_corner]
    else:
        block["c9"] = block[some_corner]
    with pytest.raises(StructuralError, match="matrices differ from the trace"):
        replay_trace(doc)


def three_variable_trace():
    """A 3-variable reduction and its trace as read back from JSON: steps
    with untouched corners, whose morphism is their shared identity."""
    rep = reduce_problem(
        ReductionProblem(support_from_rows(("z1", "z2", "z3"), [[2, 1, 0], [0, 2, 1], [1, 0, 3]]))
    )
    return rep, json.loads(canonical_dumps(star_to_json(rep.star)))


def test_replay_accepts_equal_entries_written_non_canonically():
    """At every corner of every step, one `"1"` written `"2/2"` and one
    `"0"` written `"0/3"`: the values are those of the rebuilt matrices,
    so the trace replays to the same tower."""
    rep, doc = three_variable_trace()
    edited = copy.deepcopy(doc)
    untouched = 0
    for k, step in enumerate(edited["steps"]):
        for cid, mat in step["B"].items():
            cells = [(i, j) for i, row in enumerate(mat["entries"]) for j in range(len(row))]
            for old, new in (("1", "2/2"), ("0", "0/3")):
                i, j = next((i, j) for i, j in cells if mat["entries"][i][j] == old)
                mat["entries"][i][j] = new
            untouched += cid not in rep.star.steps[k].children
    assert untouched > 0 and edited != doc
    assert star_to_json(replay_trace(edited)) == doc


def test_replay_rejects_a_changed_identity_at_an_untouched_corner():
    """An untouched corner's morphism is its shared identity at every step;
    a recorded diagonal entry of 3/2 there is rejected at its step."""
    rep, doc = three_variable_trace()
    k, step = next(
        (k, step) for k, step in enumerate(rep.star.steps) if k > 0 and set(step.after.corners) - set(step.children)
    )
    cid = min(set(step.after.corners) - set(step.children))
    doc["steps"][k]["B"][cid]["entries"][0][0] = "3/2"
    with pytest.raises(StructuralError, match=f"step {k}: rebuilt morphism matrices differ"):
        replay_trace(doc)


@pytest.mark.parametrize("change", ["drop a corner", "add a corner", "rename a corner"])
def test_replay_rejects_other_corner_keys_at_a_later_step(change):
    """Every recorded matrix is right, but the block's corners are not the
    step's."""
    rep, doc = three_variable_trace()
    k = len(doc["steps"]) - 1
    block = doc["steps"][k]["B"]
    some_corner = sorted(block)[0]
    if change == "drop a corner":
        del block[some_corner]
    elif change == "add a corner":
        block["c9"] = block[some_corner]
    else:
        block["c9"] = block.pop(some_corner)
    with pytest.raises(StructuralError, match=f"step {k}: rebuilt morphism matrices differ"):
        replay_trace(doc)


def test_replay_rejects_weights_that_do_not_transform_by_the_edge_diagonals():
    """Each center weight of a step with two center corners, edited alone,
    is bad input, caught before the blow-up is rebuilt from it."""
    rep = reduce_problem(
        ReductionProblem(support_from_rows(("z1", "z2", "z3"), [[2, 1, 0], [0, 2, 1], [1, 0, 3]]))
    )
    doc = json.loads(canonical_dumps(star_to_json(rep.star)))
    multi = [k for k, step in enumerate(doc["steps"]) if len(step["alpha_at_centers"]) > 1]
    assert len(multi) == 4
    for k in multi:
        step = doc["steps"][k]
        for cid, alpha in step["alpha_at_centers"].items():
            for lab in step["center"]:
                assert alpha[lab] != "13/7"
                bad = copy.deepcopy(doc)
                bad["steps"][k]["alpha_at_centers"][cid][lab] = "13/7"
                with pytest.raises(StructuralError, match=f"step {k}: the weights at the center"):
                    replay_trace(bad)


def test_canonical_dumps_is_stable():
    rep1 = worked_report()
    rep2 = worked_report()
    assert canonical_dumps(report_to_json(rep1)) == canonical_dumps(report_to_json(rep2))


# text with everything json escapes or passes through: quotes,
# backslashes, control characters, U+2028, non-BMP characters, `E∞`
_TEXT = st.one_of(
    st.text(),
    st.text(
        st.sampled_from(
            ['"', "\\", "\n", "\x00", "\x1f", "\x7f", "\u2028", "😀", "E", "∞", "a"]
        )
    ),
    st.sampled_from(["E∞", "E∞1"]),
)
_SCALARS = st.one_of(
    _TEXT,
    st.integers(),
    st.integers(min_value=2**64),
    st.integers(max_value=-(2**64)),
    st.booleans(),
    st.none(),
)
_TREES = st.recursive(
    _SCALARS,
    lambda kids: st.one_of(
        st.lists(_TEXT),
        st.lists(kids),
        st.lists(kids).map(tuple),
        st.dictionaries(_TEXT, kids),
    ),
    max_leaves=40,
)


@settings(max_examples=150)
@given(_TREES)
def test_canonical_dumps_writes_what_json_dumps_writes(doc):
    expected = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert canonical_dumps(doc) == expected


@pytest.mark.parametrize(
    "doc",
    [
        1.5,
        [1.0],
        ["a", 2.5],
        {"a": float("nan")},
        {1: "a"},
        {"a": {None: 1}},
        {("a",): 1},
        {"a": 1, 2: "b"},
    ],
    ids=["float", "float-in-list", "float-after-a-string", "nan-value", "int-key", "none-key",
         "tuple-key", "mixed-keys"],
)
def test_canonical_dumps_rejects_floats_and_keys_that_are_not_str(doc):
    with pytest.raises(TypeError):
        canonical_dumps(doc)


@functools.lru_cache(maxsize=1)
def corpus_a_tower():
    """The deepest tower of corpus A (seed 77, 100 problems): 28 steps."""
    return max((rep.star for rep in random_reports(77, 100)), key=lambda star: star.age)


def placements(star):
    """(step index, corner id, morphism) of every `B` block of the trace."""
    return [
        (k, cid, step.morphism(cid))
        for k, step in enumerate(star.steps)
        for cid in step.after.corners
    ]


def test_each_morphism_object_is_formatted_once_per_trace(monkeypatch):
    """An untouched corner keeps one identity object step after step, so
    the deepest corpus-A tower places each object several times; each is
    formatted once, and every block is what formatting it alone gives."""
    star = corpus_a_tower()
    placed = placements(star)
    distinct = {id(mat) for _, _, mat in placed}
    assert star.age == 28 and len(placed) > 3 * len(distinct)
    formatted = []
    to_json = monores.jsonio.matrix_to_json

    def counting(mat):
        formatted.append(id(mat))
        return to_json(mat)

    monkeypatch.setattr(monores.jsonio, "matrix_to_json", counting)
    doc = star_to_json(star)
    assert sorted(formatted) == sorted(distinct)
    for k, cid, mat in placed:
        assert doc["steps"][k]["B"][cid] == to_json(mat)


def test_editing_one_placed_block_leaves_every_other_block():
    """Blocks of one morphism object hold no shared list, so an edit of one
    corner's `B` (entries, rows or columns) stays at that corner."""
    star = corpus_a_tower()
    placed = placements(star)
    counts = collections.Counter(id(mat) for _, _, mat in placed)
    k, cid, mat = max(placed, key=lambda p: counts[id(p[2])])
    assert counts[id(mat)] > 10
    doc = star_to_json(star)
    block = doc["steps"][k]["B"][cid]
    block["entries"][0][0] = "99"
    block["entries"][-1].append("7")
    block["rows"].append("x")
    block["cols"][0] = "y"
    fresh = star_to_json(star)
    for j, step in enumerate(fresh["steps"]):
        for other, recorded in step["B"].items():
            if (j, other) != (k, cid):
                assert doc["steps"][j]["B"][other] == recorded
    assert block != fresh["steps"][k]["B"][cid]
