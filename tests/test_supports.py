"""Support-set combinatorics: reduction to minimal points and pullback."""

import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from monores import (
    DomainError,
    ExponentMatrix,
    ExponentVector,
    StructuralError,
    SupportSet,
    minimal_support,
    pullback_support,
    support_from_rows,
)

V2 = ("z1", "z2")


def sup(rows, labels=V2):
    return support_from_rows(labels, rows)


rationals = st.fractions(min_value=Fraction(0), max_value=Fraction(8), max_denominator=6)


def supports(labels=V2, max_points=6):
    return st.builds(
        lambda rows: sup(rows, labels),
        st.lists(st.tuples(*[rationals] * len(labels)), min_size=1, max_size=max_points),
    )


def test_minimal_support_examples():
    s = minimal_support(sup([[3, 0], [0, 2], [3, 2]]))
    assert s.points == sup([[3, 0], [0, 2]]).points
    single = minimal_support(sup([[1, 1]]))
    assert single.points == sup([[1, 1]]).points
    unit = minimal_support(sup([[0, 0], [5, 7]]))
    assert unit.points == sup([[0, 0]]).points


@given(supports())
def test_minimal_support_idempotent(s):
    once = minimal_support(s)
    assert minimal_support(once) == once


def test_pullback_support_examples():
    b = ExponentMatrix.from_row_table(V2, ("z1", "E∞1"), [[1, Fraction(1, 2)], [0, 1]])
    s = sup([[2, 1], [0, 2]])
    raw = pullback_support(s, b)
    assert raw.points == {
        ExponentVector({"z1": 2, "E∞1": 2}),
        ExponentVector({"z1": 0, "E∞1": 2}),
    }
    reduced = pullback_support(s, b, minimize=True)
    assert reduced.points == {ExponentVector({"z1": 0, "E∞1": 2})}

    ident = ExponentMatrix.identity(V2)
    assert pullback_support(s, ident).points == s.points

    b2 = ExponentMatrix.from_row_table(V2, ("z1", "E∞1"), [[1, Fraction(2, 3)], [0, 1]])
    s2 = sup([[3, 0], [0, 2]])
    assert pullback_support(s2, b2).points == {
        ExponentVector({"z1": 3, "E∞1": 2}),
        ExponentVector({"z1": 0, "E∞1": 2}),
    }
    assert pullback_support(s2, b2, minimize=True).points == {
        ExponentVector({"z1": 0, "E∞1": 2})
    }


def test_pullback_rejects_negative_matrix():
    b = ExponentMatrix.from_row_table(V2, V2, [[1, -1], [0, 1]])
    with pytest.raises(DomainError):
        pullback_support(sup([[1, 1]]), b)


def test_support_validation():
    with pytest.raises(DomainError):
        sup([[-1, 0]])
    with pytest.raises(StructuralError):
        support_from_rows(V2, [[1]])
    with pytest.raises(StructuralError):
        support_from_rows(("z1", "z1"), [[1, 2]])


NEGATIVE_ROWS = [["-1", "2"], ["3", "-4"], ["-5", "6"], ["7", "-8"]]
MISMATCHED_LABELS = [("a", "c"), ("a", "d"), ("b", "c"), ("c", "d")]


@pytest.mark.parametrize("shift", range(4))
def test_support_errors_name_the_first_bad_point_in_input_order(shift):
    """The points were once frozen into a set before they were checked, so
    the message named whichever bad point the string hash seed put first."""
    rows = NEGATIVE_ROWS[shift:] + NEGATIVE_ROWS[:shift]
    first = ExponentVector(dict(zip("ab", rows[0])))
    with pytest.raises(DomainError, match=re.escape(f"negative entry: {first!r}")):
        support_from_rows("ab", rows)
    labels = MISMATCHED_LABELS[shift:] + MISMATCHED_LABELS[:shift]
    points = [ExponentVector(dict.fromkeys(labs, 1)) for labs in labels]
    with pytest.raises(StructuralError, match=re.escape(f"point over {list(labels[0])} ")):
        SupportSet("ab", points)
