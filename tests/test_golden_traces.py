"""Golden-trace gate: canonical traces must reproduce byte for byte.

Each digest is the sha256 of `canonical_dumps(...)` of a trace recorded
before any change to the arithmetic.  A change that alters one of these
traces alters the trace format's promise and must bump the trace version.
"""

import hashlib
import json
import random

import pytest

from monores import BudgetExceededError, ReductionProblem, reduce_problem, support_from_rows
from monores.cli import main
from monores.jsonio import canonical_dumps, replay_trace, report_to_json, star_to_json
from helpers import corpus_c_problem, random_problem, shared_reports, wide_probe_report

WORKED_DIGEST = "467404d4f2d75cdaffad07a7f03a3e9dfb5e8dfb5736f0d6ddfcafe0d780792a"

SHARED_DIGESTS = [
    "47ec59d9bcb229c9437bd0009c05be46a3c9bafcb9e26d978811113e07377552",
    "374f648b6a2f0e2e0a4ad716c20641ca8c6ed88627752f37b17075aaf634e6f9",
    "29bfeaabb5b1caef58d2faf4831b2e1da05a388f82907fc1fdddab6f06a00dbe",
    "b59d13410cb41b317815f06986699bf49d912b18535d16c0b40f8b88a57e86bd",
    "65f37a51df54a7eeccc5f0d60d10c31c7ce1ce7c5388f479e95ca51ebe5920f9",
    "2cab363d2252472a475e339628bb9fad87db37a0edc0cf3958851ef9a3b28c16",
    "7ec54fc2100ca4e4736cc5aea955929780dcc52b561ff2a67d62a0de73ab74e8",
    "7b746f64be51f94af887532d621c612bb42ff766fbe08b8ecb0a5a6b4419a27a",
]

# Corpus C: the 15th draw of 4 variables x 6 points from seed 77, which
# does not finish within 5 blow-ups; the digest is of its partial trace.
TOWER_INDEX = 14
TOWER_BUDGET = 5
TOWER_DIGEST = "e44a42d9133b61ac75deb3252fdc8c04644e130af18fdbd09d4f6ec8c907ce7b"

# The same tower stopped at 100 blow-ups, with 353 end corners.  Not
# replayed here: its 12 MB trace takes seconds to rebuild.
DEEP_BUDGET = 100
DEEP_CORNERS = 353
DEEP_DIGEST = "e60848e140c9d8001896e582ad0518a060f4e6532c79ffaa1d0287af92845572"

# The wide probe (`helpers.wide_probe_problem`), 6 variables x 3 points:
# each of its steps adds tens of corners, where corpus C adds about five.
# Its trace is 11.7 MB.
WIDE_AGE = 57
WIDE_CORNERS = 403
WIDE_DIGEST = "7b3745aa57592c5e4134c9ac7dd266ddac15c94a2f31636afc0cb9c6bd888564"

# `monores principalize` on three generators in three variables: age 10,
# 15 end corners.
IDEAL = {
    "dimension": 3,
    "labels": ["z1", "z2", "z3"],
    "generators": [["2", "1", "0"], ["0", "2", "1"], ["1", "0", "3"]],
}
PRINCIPALIZE_DIGEST = "e0c85df20e95ceddb47b4597e315275ee7e4aa1d822f2688b227c965c3ac2b44"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def assert_replays(text: str) -> None:
    """The trace rebuilds into a valid tower whose own trace is the recorded one."""
    doc = json.loads(text)
    star = replay_trace(doc)
    assert star.end.validate() == []
    assert star_to_json(star) == {k: doc[k] for k in ("version", "root", "steps")}


def test_worked_instance_trace():
    report = reduce_problem(
        ReductionProblem(support_from_rows(("z1", "z2"), [[2, 1], [0, 2]]))
    )
    text = canonical_dumps(report_to_json(report))
    assert sha256(text) == WORKED_DIGEST
    assert_replays(text)


@pytest.mark.parametrize("index", range(len(SHARED_DIGESTS)))
def test_shared_report_traces(index):
    text = canonical_dumps(report_to_json(shared_reports()[index]))
    assert sha256(text) == SHARED_DIGESTS[index]
    assert_replays(text)


def test_corpus_c_partial_trace():
    rng = random.Random(77)
    problems = [random_problem(rng, max_vars=4, max_points=6) for _ in range(TOWER_INDEX + 1)]
    with pytest.raises(BudgetExceededError) as info:
        reduce_problem(problems[TOWER_INDEX], max_steps=TOWER_BUDGET)
    star = info.value.star
    assert star.age == TOWER_BUDGET
    text = canonical_dumps(star_to_json(star))
    assert sha256(text) == TOWER_DIGEST
    assert_replays(text)


def test_corpus_c_deep_partial_trace():
    with pytest.raises(BudgetExceededError) as info:
        reduce_problem(corpus_c_problem(), max_steps=DEEP_BUDGET)
    star = info.value.star
    assert (star.age, len(star.end.corners)) == (DEEP_BUDGET, DEEP_CORNERS)
    assert sha256(canonical_dumps(star_to_json(star))) == DEEP_DIGEST


def test_wide_probe_trace():
    report = wide_probe_report()
    assert (report.age, len(report.star.end.corners)) == (WIDE_AGE, WIDE_CORNERS)
    text = canonical_dumps(report_to_json(report))
    assert sha256(text) == WIDE_DIGEST
    assert_replays(text)


def test_principalize_trace(tmp_path):
    inp = tmp_path / "ideal.json"
    inp.write_text(canonical_dumps(IDEAL), encoding="utf-8")
    trace = tmp_path / "trace.json"
    assert main(["principalize", "--input", str(inp), "--trace", str(trace)]) == 0
    text = trace.read_text(encoding="utf-8")
    assert sha256(text) == PRINCIPALIZE_DIGEST
    doc = json.loads(text)
    assert (doc["stats"]["age"], len(doc["final_corners"])) == (10, 15)
    assert_replays(text)
