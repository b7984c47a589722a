"""End-to-end driver: support in, certified singleton supports out."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monores import (
    AlgorithmInvariantViolation,
    ExponentVector,
    MIdeal,
    ReductionProblem,
    StructuralError,
    ZeroSeriesError,
    apply_center,
    build_ideal_from_support,
    compose_star,
    local_min_data,
    minimal_support,
    pullback_support,
    reduce_problem,
    support_from_rows,
)
from monores.jsonio import canonical_dumps, replay_trace, report_to_json, star_to_json
from helpers import dotted_id_manifold, shared_reports

F = Fraction


def problem(rows, labels=("z1", "z2"), k=0):
    return ReductionProblem(support_from_rows(labels, rows), stratum_dim=k)


def test_build_ideal_examples():
    sup = support_from_rows(("z1", "z2"), [[2, 1], [0, 2]])
    ideal = build_ideal_from_support(sup)
    assert len(ideal.generators) == 2
    assert ideal.manifold.corner_ids() == ["c0"]

    single = support_from_rows(("z1", "z2"), [[1, 1]])
    assert len(build_ideal_from_support(single).generators) == 1

    # every point becomes a generator; the reduction seeds the minimal support
    redundant = support_from_rows(("z1", "z2"), [[1, 0], [2, 0]])
    assert len(build_ideal_from_support(redundant).generators) == 2
    ideal3 = build_ideal_from_support(minimal_support(redundant))
    assert len(ideal3.generators) == 1
    assert ideal3.generators[0].at("c0") == ExponentVector({"z1": 1, "z2": 0})

    with pytest.raises(StructuralError, match="at least one generator"):
        build_ideal_from_support(support_from_rows(("z1",), []))


def test_reduce_worked_instance():
    rep = reduce_problem(problem([[2, 1], [0, 2]]))
    assert rep.age == 1
    by_corner = {c.corner: c for c in rep.corners}
    assert set(by_corner) == {"c0.z1", "c0.z2"}
    c_a = by_corner["c0.z2"]  # chart keeping z1
    assert c_a.principal_exponent == ExponentVector({"z1": 0, "E∞1": 2})
    assert set(c_a.generator_exponents) == {
        ExponentVector({"z1": 2, "E∞1": 2}),
        ExponentVector({"z1": 0, "E∞1": 2}),
    }
    c_b = by_corner["c0.z1"]
    assert c_b.principal_exponent == ExponentVector({"z2": 1, "E∞1": 4})
    assert set(c_b.generator_exponents) == {
        ExponentVector({"z2": 1, "E∞1": 4}),
        ExponentVector({"z2": 2, "E∞1": 4}),
    }
    assert [c["annotation"] for c in report_to_json(rep)["centers"]] == ["Z̄"]


def test_reduce_monomial_input_echoes():
    rep = reduce_problem(problem([[1, 1]], k=3))
    assert rep.age == 0
    (corner,) = rep.corners
    assert corner.principal_exponent == ExponentVector({"z1": 1, "z2": 1})
    assert report_to_json(rep)["centers"] == []


def test_reduce_dim3_with_stratum_metadata():
    rep = reduce_problem(problem([[1, 0, 0], [0, 1, 1]], labels=("z1", "z2", "z3"), k=2))
    assert rep.age == 2
    assert all(c["annotation"] == "ℝ^2 × Z̄" for c in report_to_json(rep)["centers"])
    for c in rep.corners:
        pulled = pullback_support(
            rep.problem.support, compose_star(rep.star, c.corner), minimize=True
        )
        assert len(pulled) == 1


def test_zero_support_rejected():
    with pytest.raises(ZeroSeriesError):
        ReductionProblem(support_from_rows(("z1",), []))


def test_generator_pullback_agrees_with_support_pullback():
    """Transforming the generators stepwise and transforming the support
    through the composite morphism give the same minimal data everywhere."""
    for rep in shared_reports():
        star = rep.star
        ideal = MIdeal(star.end, _final_generators(rep))
        for c in rep.corners:
            via_generators = set(local_min_data(ideal, c.corner))
            pulled = pullback_support(
                rep.problem.support, compose_star(star, c.corner), minimize=True
            )
            assert via_generators == set(pulled.points)
            assert len(pulled) == 1
        assert all(len(local_min_data(ideal, cid)) == 1 for cid in star.end.corner_ids())


def _final_generators(rep):
    # generator exponents per corner are recorded in the report; rebuild the
    # monomial functions from the end manifold data
    from monores import MFunction

    star = rep.star
    gens = []
    count = len(rep.corners[0].generator_exponents)
    for g_index in range(count):
        data = {c.corner: c.generator_exponents[g_index] for c in rep.corners}
        gens.append(MFunction(star.end, data))
    return gens


def test_age_equals_sum_of_pair_invariants():
    for rep in shared_reports():
        assert rep.age == sum(inv for _, _, inv in rep.pair_invariants)
        assert len(rep.new_uncoupled_counts) == rep.age


def test_child_id_collision_is_reported_as_a_bug():
    # The label in a child id is escaped, so the child of c0.a that drops
    # b (c0.a.b) and the child of c0 that drops a.b (c0.a\.b) stay apart.
    rows = [[0, 1, 0], [1, 0, 1]]
    assert reduce_problem(problem(rows, labels=("a", "a.b", "b"))).age == 2
    assert reduce_problem(problem(rows, labels=("a", "c", "b"))).age == 2
    # A loaded manifold can bring a dotted id of its own; a child named
    # alike is still caught.
    m = dotted_id_manifold()
    weights = {"c0.z1": ExponentVector({"E∞1": 1, "z2": 1})}
    with pytest.raises(AlgorithmInvariantViolation, match="'c0.z1.z2'"):
        apply_center(m, frozenset({"E∞1", "z2"}), weights)


# -- corner ids under adversarial labels ----------------------------------

label_text = st.text(
    alphabet=st.sampled_from(["a", "b", ".", "\\", "E", "∞", "1", "é", "ß"]),
    min_size=1,
    max_size=4,
)
labels = st.one_of(label_text, st.integers(0, 3).map(lambda k: f"E∞{k}"))


@st.composite
def adversarial_problems(draw):
    names = draw(st.lists(labels, min_size=2, max_size=3, unique=True))
    entry = st.builds(F, st.integers(0, 8), st.integers(1, 6))
    rows = draw(st.lists(st.lists(entry, min_size=len(names), max_size=len(names)),
                         min_size=1, max_size=4))
    return problem(rows, labels=names)


@given(adversarial_problems())
@example(problem([["0", "3/2", "1"], ["4/3", "3/5", "3/2"]], labels=("a", "a.b", "b")))
@settings(max_examples=150, deadline=None)
def test_corner_ids_name_one_corner_under_any_labels(prob):
    """Labels with dots, backslashes, the exceptional shape or non-ASCII
    letters reduce and replay, and every child id is new to its tower,
    while an untouched corner keeps its id and its object."""
    report = reduce_problem(prob)
    doc = json.loads(canonical_dumps(report_to_json(report)))
    star = replay_trace(doc)
    assert star_to_json(star) == {k: doc[k] for k in ("version", "root", "steps")}
    used = set(star.root.corners)
    for step in star.steps:
        assert used.isdisjoint(step.children)
        used.update(step.children)
        for cid, corner in step.after.corners.items():
            assert cid in step.children or step.before.corners[cid] is corner
