"""Weight families: realizability, extension, round trips, unit diagonals."""

import functools
import random
from fractions import Fraction

import pytest

import monores.ideals
from monores import (
    DEFAULT_STEP_BUDGET,
    AlgorithmInvariantViolation,
    BudgetExceededError,
    DomainError,
    ExponentMatrix,
    ExponentVector,
    GlobalStandardization,
    LocalStandardization,
    MonomialManifold,
    StructuralError,
    adapted_standardization,
    adapted_weights,
    blow_up,
    extend,
    make_corner,
    mat_inverse,
    mat_mul,
    reduce_problem,
    validate_realizable,
)
from helpers import corpus_c_problem, shared_reports

F = Fraction


def worked_after():
    m = make_corner(["E1", "E2"])
    fam = extend(m, LocalStandardization("c0", ExponentVector({"E1": 2, "E2": 1})))
    return blow_up(m, frozenset({"E1", "E2"}), fam).after


def test_single_corner_any_positive_alpha_is_realizable():
    m = make_corner(["E1", "E2"])
    fam = GlobalStandardization({"c0": ExponentVector({"E1": F(7, 3), "E2": 5})})
    assert validate_realizable(m, fam)


def test_two_corner_realizability_uses_the_diagonal():
    m = worked_after()
    # the exceptional edge carries weight 2 from c0.E1 to c0.E2 on E∞1
    gamma = m.weight_connexion("c0.E1", "c0.E2")["E∞1"]
    assert gamma == 2
    good = GlobalStandardization(
        {
            "c0.E1": ExponentVector({"E2": 1, "E∞1": 2}),
            "c0.E2": ExponentVector({"E1": 1, "E∞1": 1}),
        }
    )
    bad = GlobalStandardization(
        {
            "c0.E1": ExponentVector({"E2": 1, "E∞1": 1}),
            "c0.E2": ExponentVector({"E1": 1, "E∞1": 1}),
        }
    )
    assert validate_realizable(m, good)
    assert not validate_realizable(m, bad)


def test_extend_on_corner_is_the_local_family():
    m = make_corner(["E1", "E2"])
    alpha = ExponentVector({"E1": F(3, 2), "E2": 4})
    fam = extend(m, LocalStandardization("c0", alpha))
    assert fam.alpha_at("c0") == alpha
    assert validate_realizable(m, fam)


def test_extend_on_tower_and_reextension_round_trip():
    m = worked_after()
    local = LocalStandardization("c0.E1", ExponentVector({"E2": 3, "E∞1": 4}))
    fam = extend(m, local, beta={"E1": F(5, 7)})
    assert validate_realizable(m, fam)
    assert fam.alpha_at("c0.E1") == local.alpha
    # re-extending from the other corner's restriction reproduces the family
    other = fam.restrict("c0.E2")
    beta_back = {"E2": fam.alpha_at("c0.E1")["E2"]}
    assert extend(m, other, beta=beta_back) == fam


def test_extend_beta_injective_and_free_only_off_corner():
    m = worked_after()
    local = LocalStandardization("c0.E1", ExponentVector({"E2": 1, "E∞1": 1}))
    fam1 = extend(m, local, beta={"E1": 1})
    fam2 = extend(m, local, beta={"E1": 2})
    assert fam1 != fam2
    assert fam1.alpha_at("c0.E1") == fam2.alpha_at("c0.E1")
    diff = {
        lab
        for cid in m.corner_ids()
        for lab in m.corner(cid).index_set
        if fam1.alpha_at(cid)[lab] != fam2.alpha_at(cid)[lab]
    }
    assert diff <= {"E1"}


def test_extend_rejects_bad_parameters():
    m = worked_after()
    local = LocalStandardization("c0.E1", ExponentVector({"E2": 1, "E∞1": 1}))
    with pytest.raises(StructuralError):
        extend(m, local, beta={"Enope": 1})
    with pytest.raises(DomainError):
        extend(m, local, beta={"E1": 0})
    with pytest.raises(DomainError):
        LocalStandardization("c0.E1", ExponentVector({"E2": 0, "E∞1": 1}))


def diagonal(v):
    """The diagonal matrix with entries `v`."""
    labs = v.labels
    return ExponentMatrix(labs, labs, {(r, c): v[r] if r == c else 0 for r in labs for c in labs})


def unit_diagonal_holds(m, fam):
    """On every edge, conjugating by the weights makes the shared diagonal 1."""
    for e in m.edges:
        d_q = diagonal(fam.alpha_at(e.q))
        d_p_inv = mat_inverse(diagonal(fam.alpha_at(e.p)))
        a = mat_mul(d_q, mat_mul(e.matrix, d_p_inv))
        for ell in e.shared:
            if a.entry(ell, ell) != 1:
                return False
    return True


def test_unit_diagonal_property_on_towers():
    rng = random.Random(7)
    for report in shared_reports():
        m = report.star.end
        if not m.edges:
            continue
        base = rng.choice(m.corner_ids())
        alpha = ExponentVector(
            {lab: F(rng.randint(1, 6), rng.randint(1, 4)) for lab in m.corner(base).index_set}
        )
        fam = extend(m, LocalStandardization(base, alpha))
        assert validate_realizable(m, fam)
        assert unit_diagonal_holds(m, fam)
        # extend-then-restrict round trip at every corner
        for cid in m.corner_ids():
            beta = {
                lab: fam.alpha_at(
                    min(h for h in m.corner_ids() if lab in m.corner(h).index_set)
                )[lab]
                for lab in m.components - m.corner(cid).index_set
            }
            again = extend(m, fam.restrict(cid), beta=beta)
            assert again == fam


# -- the diagonal-product rule against chart-change products ----------------


def extend_by_chart_changes(m, local, beta):
    """Reference for `extend`: every weight read off a multiplied-out chart change."""
    base = m.corner(local.corner).index_set
    per_corner = {}
    for cid in m.corner_ids():
        entries = {}
        for lab in m.corner(cid).index_set:
            if lab in base:
                anchor, value = local.corner, local.alpha[lab]
            else:
                anchor, value = m.corners_with([lab])[0], beta[lab]
            entries[lab] = m.change_matrix(cid, anchor).entry(lab, lab) * value
        per_corner[cid] = ExponentVector(entries)
    return GlobalStandardization(per_corner)


def test_extend_matches_chart_change_reference_on_every_tower_manifold():
    rng = random.Random(2206)
    checked = 0
    for report in shared_reports():
        star = report.star
        for m in [star.root] + [step.after for step in star.steps]:
            base = rng.choice(m.corner_ids())
            alpha = ExponentVector(
                {lab: F(rng.randint(1, 9), rng.randint(1, 5)) for lab in m.corner(base).index_set}
            )
            beta = {
                lab: F(rng.randint(1, 9), rng.randint(1, 5))
                for lab in m.components - m.corner(base).index_set
            }
            local = LocalStandardization(base, alpha)
            assert extend(m, local, beta=beta) == extend_by_chart_changes(m, local, beta)
            checked += 1
    assert checked > len(shared_reports())


# -- the sweep's weights at the center's corners only ---------------------


def sweep_centers(problem, max_steps=DEFAULT_STEP_BUDGET):
    """(lam, mu, pair, weights) of every center the sweep blew up, with the
    weights `adapted_weights` handed to `apply_center`."""
    calls = []
    original = monores.ideals.adapted_weights

    def recording(lam, mu, pair):
        weights = original(lam, mu, pair)
        calls.append((lam, mu, pair, weights))
        return weights

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monores.ideals, "adapted_weights", recording)
        try:
            reduce_problem(problem, max_steps=max_steps)
        except BudgetExceededError:
            pass
    return calls


@functools.lru_cache(maxsize=1)
def tower_centers():
    """The centers of every `shared_reports()` tower and of the corpus-C
    budget-5 tower."""
    calls = [c for report in shared_reports() for c in sweep_centers(report.problem)]
    return calls + sweep_centers(corpus_c_problem(), max_steps=5)


def test_center_weights_equal_the_whole_family_at_the_center():
    calls = tower_centers()
    assert len(calls) == sum(r.age for r in shared_reports()) + 5
    for lam, mu, pair, weights in calls:
        family = adapted_standardization(lam, mu, pair)
        holders = lam.manifold.corners_with(pair)
        assert list(weights) == holders
        assert weights == {q: family.alpha_at(q) for q in holders}


def test_a_corrupted_transported_weight_is_a_bug(monkeypatch):
    """Every weight the sweep checks, doubled in turn as `_carry_weight`
    hands it over: the center labels at every holder, and every label an
    edge between two holders shares."""
    original = MonomialManifold._carry_weight
    checked = []
    for lam, mu, pair, weights in tower_centers():
        m = lam.manifold
        shared = {q: set(pair) for q in weights}
        for e in m.edges_among(weights):
            shared[e.p] |= e.shared
            shared[e.q] |= e.shared
        for q, labels in shared.items():
            for label in sorted(labels):

                def corrupted(self, lab, start, value, targets, label=label, q=q):
                    carried = original(self, lab, start, value, targets)
                    if lab == label:
                        n, d = carried[q]
                        carried[q] = (2 * n, d)
                    return carried

                monkeypatch.setattr(MonomialManifold, "_carry_weight", corrupted)
                with pytest.raises(AlgorithmInvariantViolation):
                    adapted_weights(lam, mu, pair)
                monkeypatch.setattr(MonomialManifold, "_carry_weight", original)
                checked.append(label in pair)
    assert len(checked) > 50 and not all(checked)
