"""Floating sampling oracle: near-zero error on good data, loud on corruption."""

import dataclasses
from fractions import Fraction

import pytest

from monores import (
    DomainError,
    Edge,
    ExponentMatrix,
    MonomialManifold,
    ReductionProblem,
    Star,
    make_corner,
    numeric_oracle,
    reduce_problem,
    support_from_rows,
)
from monores.oracle import monomial_map


def worked_star():
    rep = reduce_problem(
        ReductionProblem(support_from_rows(("z1", "z2"), [[2, 1], [0, 2]]))
    )
    return rep.star


def test_empty_star_has_zero_error():
    star = Star(root=make_corner(["E1", "E2"]))
    assert numeric_oracle(star, samples=10, seed=0) == 0.0


def test_worked_star_error_is_float_noise():
    err = numeric_oracle(worked_star(), samples=100, seed=42)
    assert err < 1e-9


@pytest.mark.parametrize("samples", [0, -3])
def test_oracle_without_samples_is_rejected(samples):
    """With no samples every check would pass vacuously."""
    with pytest.raises(DomainError, match="at least one sample"):
        numeric_oracle(worked_star(), samples=samples, seed=42)


def test_oracle_is_deterministic():
    star = worked_star()
    assert numeric_oracle(star, samples=50, seed=7) == numeric_oracle(star, samples=50, seed=7)


def perturbed(star: Star) -> Star:
    """Copy the star with one edge exponent of the end manifold nudged."""
    step = star.steps[-1]
    m = step.after
    e = m.edges[0]
    entries = {
        (r, c): e.matrix.entry(r, c)
        for r in e.matrix.row_labels
        for c in e.matrix.col_labels
    }
    (ell,) = list(e.shared)[:1]
    entries[(ell, ell)] += Fraction(1, 7)
    bad_edge = Edge(e.p, e.q, e.shared, ExponentMatrix(e.matrix.row_labels, e.matrix.col_labels, entries))
    bad_m = MonomialManifold(
        m.dimension, m.components, m.corners.values(), [bad_edge] + [x for x in m.edges if x is not e]
    )
    bad_step = dataclasses.replace(step, after=bad_m)
    return Star(star.root, star.steps[:-1] + (bad_step,))


def test_oracle_detects_corrupted_edge():
    bad = perturbed(worked_star())
    assert numeric_oracle(bad, samples=20, seed=1) > 1e-3


def test_monomial_map_semantics():
    m = ExponentMatrix.from_row_table(("a",), ("x", "y"), [[2, Fraction(1, 2)]])
    out = monomial_map(m, {"x": 0.25, "y": 0.81})
    assert abs(out["a"] - 0.25**2 * 0.81**0.5) < 1e-15
