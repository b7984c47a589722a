"""End-to-end driver: support in, certified singleton supports out."""

from fractions import Fraction

import pytest

from monores import (
    AlgorithmInvariantViolation,
    ExponentVector,
    MIdeal,
    ReductionProblem,
    ZeroSeriesError,
    build_ideal_from_support,
    compose_star,
    is_locally_principal,
    local_min_data,
    pullback_support,
    reduce_problem,
    root_corner_for,
    support_from_rows,
)
from monores.jsonio import report_to_json
from helpers import shared_reports

F = Fraction


def problem(rows, labels=("z1", "z2"), k=0):
    return ReductionProblem(support_from_rows(labels, rows), stratum_dim=k)


def test_build_ideal_examples():
    sup = support_from_rows(("z1", "z2"), [[2, 1], [0, 2]])
    m = root_corner_for(sup)
    ideal = build_ideal_from_support(sup, m)
    assert len(ideal.generators) == 2

    single = support_from_rows(("z1", "z2"), [[1, 1]])
    assert len(build_ideal_from_support(single, root_corner_for(single)).generators) == 1

    # non-minimal input is reduced before generators are made
    redundant = support_from_rows(("z1", "z2"), [[1, 0], [2, 0]])
    ideal3 = build_ideal_from_support(redundant, root_corner_for(redundant))
    assert len(ideal3.generators) == 1
    assert ideal3.generators[0].at("c0") == ExponentVector({"z1": 1, "z2": 0})

    with pytest.raises(ZeroSeriesError):
        empty = support_from_rows(("z1",), [])
        build_ideal_from_support(empty, root_corner_for(empty))


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
        assert is_locally_principal(ideal)


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
    # the child of c0.a that drops b would be named c0.a.b, the id of a
    # corner the step leaves untouched (unambiguous ids: ROADMAP item 5)
    rows = [[0, 1, 0], [1, 0, 1]]
    with pytest.raises(AlgorithmInvariantViolation, match="'c0.a.b'"):
        reduce_problem(problem(rows, labels=("a", "a.b", "b")))
    assert reduce_problem(problem(rows, labels=("a", "c", "b"))).age == 2
