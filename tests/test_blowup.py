"""The weighted blow-up itself: morphism matrices, star composition, towers."""

import random
from fractions import Fraction

import pytest

from monores import (
    AlgorithmInvariantViolation,
    Corner,
    DomainError,
    Edge,
    ExponentMatrix,
    ExponentVector,
    LocalStandardization,
    MonomialManifold,
    Star,
    StructuralError,
    apply_center,
    blow_up,
    compose_star,
    div_le,
    extend,
    make_corner,
    mat_mul,
    vec_apply,
)
from helpers import random_vector, shared_reports

F = Fraction


def corner_with_weights(alpha_entries):
    m = make_corner(sorted(alpha_entries))
    fam = extend(m, LocalStandardization("c0", ExponentVector(alpha_entries)))
    return m, fam


def test_worked_example_morphism_matrices():
    m, fam = corner_with_weights({"E1": 2, "E2": 1})
    step = blow_up(m, frozenset({"E1", "E2"}), fam)
    assert step.new_label == "E∞1"
    assert step.after.corner("c0.E2").index_set == {"E1", "E∞1"}
    assert step.morphism("c0.E2") == ExponentMatrix.from_row_table(
        ("E1", "E2"), ("E1", "E∞1"), [[1, F(1, 2)], [0, 1]]
    )
    assert step.after.corner("c0.E1").index_set == {"E2", "E∞1"}
    assert step.morphism("c0.E1") == ExponentMatrix.from_row_table(
        ("E1", "E2"), ("E2", "E∞1"), [[0, 1], [1, 2]]
    )
    assert step.after.validate() == []


def test_corner_disjoint_from_center_keeps_identity():
    m, _ = corner_with_weights({"E1": 1, "E2": 1})
    step = blow_up(m, frozenset({"E1", "E2"}), extend(m, LocalStandardization("c0", ExponentVector({"E1": 1, "E2": 1}))))
    m2 = step.after
    fam2 = extend(m2, LocalStandardization("c0.E1", ExponentVector({"E2": 1, "E∞1": 1})))
    step2 = blow_up(m2, frozenset({"E2", "E∞1"}), fam2)
    untouched = "c0.E2"
    assert step2.lineage(untouched) == untouched
    assert step2.morphism(untouched) == ExponentMatrix.identity(m2.corner(untouched).index_set)
    assert step2.after.corner(untouched).index_set == m2.corner(untouched).index_set


def test_uniform_weights_give_unit_entries():
    m, fam = corner_with_weights({"E1": 1, "E2": 1})
    step = blow_up(m, frozenset({"E1", "E2"}), fam)
    for cid in ("c0.E1", "c0.E2"):
        b = step.morphism(cid)
        assert b.entry("E1", "E∞1") == 1
        assert b.entry("E2", "E∞1") == 1


def test_blow_up_rejects_unrealized_center():
    m, fam = corner_with_weights({"E1": 1, "E2": 1})
    with pytest.raises(DomainError):
        blow_up(m, frozenset({"E1", "E9"}), fam)


@pytest.mark.parametrize("label", ["", 7])
def test_apply_center_rejects_a_new_label_that_is_no_label(label):
    """A replayed trace names the new label; the child charts and lifted
    edges are built without re-checking labels, so it is checked once."""
    m = make_corner(["E1", "E2"])
    alpha = {"c0": ExponentVector({"E1": 2, "E2": 1})}
    with pytest.raises(StructuralError, match="labels must be nonempty strings"):
        apply_center(m, frozenset({"E1", "E2"}), alpha, new_label=label)


def test_apply_center_names_an_edge_with_no_center_label_off_it():
    """On a manifold that was never validated, an edge from a blown corner
    that shares no label with its other end has both center labels off it,
    so it lifts at no one child: `apply_center` raises before it builds any
    edge."""
    p, u = Corner("p", frozenset("ab")), Corner("u", frozenset("cd"))
    identity_like = ExponentMatrix.from_row_table(("c", "d"), ("a", "b"), [[1, 0], [0, 1]])
    m = MonomialManifold(2, ("a", "b", "c", "d"), [p, u], [Edge("p", "u", identity_like)])
    alpha = {"p": ExponentVector({"a": 1, "b": 1})}
    with pytest.raises(AlgorithmInvariantViolation) as raised:
        apply_center(m, frozenset({"a", "b"}), alpha)
    assert str(raised.value) == "edge p->u: expected exactly one center label off the edge"


def test_step_pull_back_examples():
    m, fam = corner_with_weights({"E1": 2, "E2": 1})
    step = blow_up(m, frozenset({"E1", "E2"}), fam)
    lam = ExponentVector({"E1": 2, "E2": 1})
    assert step.children["c0.E2"].pull_back(lam) == ExponentVector({"E1": 2, "E∞1": 2})
    mu = ExponentVector({"E1": 0, "E2": 2})
    assert step.children["c0.E2"].pull_back(mu) == ExponentVector({"E1": 0, "E∞1": 2})
    zero = ExponentVector({"E1": 0, "E2": 0})
    assert step.children["c0.E1"].pull_back(zero) == ExponentVector({"E2": 0, "E∞1": 0})


def test_compose_star_examples():
    m, fam = corner_with_weights({"E1": 2, "E2": 1})
    empty = Star(root=m)
    assert compose_star(empty, "c0") == ExponentMatrix.identity(("E1", "E2"))
    step = blow_up(m, frozenset({"E1", "E2"}), fam)
    one = empty.extended(step)
    assert compose_star(one, "c0.E2") == step.morphism("c0.E2")


def test_compose_star_matches_stepwise_products_on_random_towers():
    rng = random.Random(3)
    for report in shared_reports():
        star = report.star
        if star.age < 2:
            continue
        for cid in star.end.corner_ids():
            composite = compose_star(star, cid)
            cur, mats = cid, []
            for step in reversed(star.steps):
                mats.append(step.morphism(cur))
                cur = step.lineage(cur)
            product = mats[-1]
            for mat in reversed(mats[:-1]):
                product = mat_mul(product, mat)
            assert composite == product
            lam = random_vector(rng, star.root.corner(cur).index_set)
            stepwise = lam
            walk = cid
            chain = []
            for step in reversed(star.steps):
                chain.append((step, walk))
                walk = step.lineage(walk)
            for step, corner in reversed(chain):
                stepwise = vec_apply(stepwise, step.morphism(corner))
            assert stepwise == vec_apply(lam, composite)


def test_pullback_monotone_on_every_generated_matrix():
    rng = random.Random(11)
    for report in shared_reports():
        for step in report.star.steps:
            for cid in step.after.corner_ids():
                b = step.morphism(cid)
                assert b.is_nonnegative()
                labels = sorted(b.row_labels)
                lam = random_vector(rng, labels)
                mu = ExponentVector(
                    {k: lam[k] + F(rng.randint(0, 4), rng.randint(1, 3)) for k in labels}
                )
                assert div_le(lam, mu)
                assert div_le(vec_apply(lam, b), vec_apply(mu, b))


def test_every_tower_manifold_validates():
    for report in shared_reports():
        assert report.star.root.validate() == []
        for step in report.star.steps:
            assert step.after.validate() == []


def test_morphism_matrix_structure_over_blown_corners():
    """Unit diagonal on surviving labels; exactly two nonzero entries in the
    exceptional column, one of them 1; zero elsewhere off the diagonal."""
    for report in shared_reports():
        for step in report.star.steps:
            for cid in step.after.corner_ids():
                b = step.morphism(cid)
                if step.lineage(cid) == cid:
                    continue  # untouched corner, identity
                removed = cid.rsplit(".", 1)[1]
                survivors = b.col_labels - {step.new_label}
                for s in survivors:
                    for r in b.row_labels:
                        assert b.entry(r, s) == (1 if r == s else 0)
                exc_col = {r: b.entry(r, step.new_label) for r in b.row_labels}
                nonzero = {r: v for r, v in exc_col.items() if v != 0}
                assert set(nonzero) == step.center_pair
                assert nonzero[removed] == 1
                assert all(v > 0 for v in nonzero.values())
