"""Monomial functions, obstructed centers, adapted weights, principalization."""

import dataclasses
import random
from fractions import Fraction

import pytest

import monores.ideals
from monores import (
    AlgorithmInvariantViolation,
    BudgetExceededError,
    DomainError,
    ExponentVector,
    LocalStandardization,
    MFunction,
    MIdeal,
    NotEffectiveError,
    PairState,
    StructuralError,
    adapted_standardization,
    blow_up,
    center_is_uncoupled_at,
    div_le,
    extend,
    local_min_data,
    make_corner,
    mfunction_from_corner,
    principalize_generators,
    pull_back_mfunction,
    uncoupled_centers,
    vec_apply,
)
from helpers import corpus_c_budget_stop, generators_along, random_vector, sample_towers

F = Fraction


def corner2():
    return make_corner(["E1", "E2"])


def seed_fn(m, entries, corner="c0"):
    return mfunction_from_corner(m, corner, ExponentVector(entries))


def worked_pair():
    m = corner2()
    lam = seed_fn(m, {"E1": 2, "E2": 1})
    mu = seed_fn(m, {"E1": 0, "E2": 2})
    return m, lam, mu


def worked_step():
    m, lam, mu = worked_pair()
    fam = adapted_standardization(lam, mu, frozenset({"E1", "E2"}))
    return m, lam, mu, blow_up(m, frozenset({"E1", "E2"}), fam)


# -- monomial functions -------------------------------------------------------


def test_mfunction_on_corner_is_the_seed():
    m = corner2()
    lam = seed_fn(m, {"E1": F(5, 2), "E2": 0})
    assert lam.at("c0") == ExponentVector({"E1": F(5, 2), "E2": 0})


def test_mfunction_zero_seed_gives_zero_family():
    _, _, _, step = worked_step()
    zero = mfunction_from_corner(
        step.after, "c0.E1", ExponentVector({"E2": 0, "E∞1": 0})
    )
    for cid in step.after.corner_ids():
        assert zero.at(cid) == ExponentVector(dict.fromkeys(step.after.corner(cid).index_set, 0))


def test_mfunction_propagation_matches_direct_pullback():
    m, lam, mu, step = worked_step()
    after = step.after
    # the data pulled back from downstairs (2,1) is (2,2) at c0.E2 and (1,4) at c0.E1
    lam_up = pull_back_mfunction(lam, step)
    assert lam_up.at("c0.E2") == ExponentVector({"E1": 2, "E∞1": 2})
    assert lam_up.at("c0.E1") == ExponentVector({"E2": 1, "E∞1": 4})
    # seeding the propagated value at one corner reproduces the rest
    reseeded = mfunction_from_corner(after, "c0.E2", ExponentVector({"E1": 2, "E∞1": 2}))
    assert reseeded == lam_up
    # a literal (2,1) seed at the E1-bearing corner propagates to (0,2) across
    other = mfunction_from_corner(after, "c0.E2", ExponentVector({"E1": 2, "E∞1": 1}))
    assert other.at("c0.E1") == ExponentVector({"E2": 0, "E∞1": 2})


def test_pull_back_mfunction_rejects_a_function_from_another_manifold():
    _, _, _, step = worked_step()
    stranger = seed_fn(corner2(), {"E1": 2, "E2": 1})
    with pytest.raises(StructuralError, match="does not live on"):
        pull_back_mfunction(stranger, step)


@pytest.mark.parametrize(
    "shift, message", [(1, "not chart consistent"), (-100, "negative exponent")]
)
def test_pull_back_through_a_corrupted_child_is_a_bug(shift, message):
    _, lam, _, step = worked_step()
    chart = step.children["c0.E1"]
    n, d = chart.c
    broken = dataclasses.replace(
        step,
        children={**step.children, "c0.E1": dataclasses.replace(chart, c=(n + shift * d, d))},
    )
    with pytest.raises(AlgorithmInvariantViolation, match=message):
        pull_back_mfunction(lam, broken)


def test_mfunction_propagation_can_fail_effectiveness():
    _, _, _, step = worked_step()
    with pytest.raises(NotEffectiveError):
        mfunction_from_corner(step.after, "c0.E2", ExponentVector({"E1": 1, "E∞1": 0}))


def test_mfunction_consistency_enforced():
    _, _, _, step = worked_step()
    after = step.after
    good = mfunction_from_corner(after, "c0.E2", ExponentVector({"E1": 2, "E∞1": 2}))
    data = dict(good.items())
    data["c0.E1"] = ExponentVector({"E2": 1, "E∞1": 5})
    with pytest.raises(Exception):
        MFunction(after, data)


def reference_mfunction_from_corner(m, seed, vec):
    """The propagation as it ran before the carry: one chart change from
    each corner to the seed corner."""
    return MFunction(m, {cid: vec_apply(vec, m.change_matrix(cid, seed)) for cid in m.corner_ids()})


def test_mfunction_from_corner_matches_one_chart_change_per_corner():
    """The carry along one walk from the seed corner against the reference,
    on every sample manifold with every corner as the seed: both agree or
    both raise NotEffectiveError.  A generator's vector extends; a random
    vector seldom does."""
    rng = random.Random(2206)
    outcomes = {"agree": 0, "not effective": 0}
    for problem, star in sample_towers():
        manifolds = [star.root] + [step.after for step in star.steps]
        for m, gens in zip(manifolds, generators_along(problem, star)):
            for seed, corner in m.corners.items():
                for vec in (gens[-1].at(seed), random_vector(rng, sorted(corner.index_set))):
                    try:
                        expected = reference_mfunction_from_corner(m, seed, vec)
                    except NotEffectiveError:
                        with pytest.raises(NotEffectiveError):
                            mfunction_from_corner(m, seed, vec)
                        outcomes["not effective"] += 1
                    else:
                        assert mfunction_from_corner(m, seed, vec) == expected
                        outcomes["agree"] += 1
    assert min(outcomes.values()) > 50, outcomes


# -- local minimal data ----------------------------------------------------------


def test_local_min_data_and_principality():
    m, lam, mu = worked_pair()
    ideal = MIdeal(m, [lam, mu])
    assert set(local_min_data(ideal, "c0")) == {lam.at("c0"), mu.at("c0")}

    chain = MIdeal(m, [seed_fn(m, {"E1": 1, "E2": 1}), seed_fn(m, {"E1": 2, "E2": 2})])
    assert local_min_data(chain, "c0") == [ExponentVector({"E1": 1, "E2": 1})]

    three = MIdeal(
        m,
        [
            seed_fn(m, {"E1": 1, "E2": 0}),
            seed_fn(m, {"E1": 0, "E2": 1}),
            seed_fn(m, {"E1": 2, "E2": 2}),
        ],
    )
    assert set(local_min_data(three, "c0")) == {
        ExponentVector({"E1": 1, "E2": 0}),
        ExponentVector({"E1": 0, "E2": 1}),
    }


# -- obstructed centers ------------------------------------------------------------


def test_uncoupled_centers_examples():
    m, lam, mu = worked_pair()
    assert uncoupled_centers(lam, mu) == {frozenset({"E1", "E2"})}

    comparable = seed_fn(m, {"E1": 1, "E2": 1}), seed_fn(m, {"E1": 2, "E2": 1})
    assert uncoupled_centers(*comparable) == set()

    # a tie on either label is not a pair of opposite signs, in either order
    for tied in (
        ({"E1": 1, "E2": 3}, {"E1": 1, "E2": 0}),
        ({"E1": F(5, 2), "E2": 1}, {"E1": 0, "E2": 1}),
        ({"E1": F(2, 3), "E2": 4}, {"E1": F(2, 3), "E2": 4}),
    ):
        lam_t, mu_t = (seed_fn(m, e) for e in tied)
        assert uncoupled_centers(lam_t, mu_t) == set()
        assert uncoupled_centers(mu_t, lam_t) == set()

    m3 = make_corner(["E1", "E2", "E3"])
    lam3 = seed_fn(m3, {"E1": 1, "E2": 0, "E3": 0})
    mu3 = seed_fn(m3, {"E1": 0, "E2": 1, "E3": 1})
    assert uncoupled_centers(lam3, mu3) == {
        frozenset({"E1", "E2"}),
        frozenset({"E1", "E3"}),
    }


def test_uncoupled_sign_test_matches_the_product_definition():
    """The comparison test agrees with `(lam_i - mu_i)·(lam_j - mu_j) < 0`
    on seeded draws from a few small values, so ties are frequent."""
    rng = random.Random(29)
    m = corner2()
    pair = frozenset({"E1", "E2"})
    values = [F(0), F(1, 2), F(1), F(3, 2), F(2)]
    seen = set()
    for _ in range(400):
        le, me = ({lab: rng.choice(values) for lab in ("E1", "E2")} for _ in range(2))
        expected = (le["E1"] - me["E1"]) * (le["E2"] - me["E2"]) < 0
        got = center_is_uncoupled_at(seed_fn(m, le), seed_fn(m, me), pair, "c0")
        assert got == expected, (le, me)
        seen.add((expected, le["E1"] == me["E1"] or le["E2"] == me["E2"]))
    assert seen == {(True, False), (False, False), (False, True)}


def test_uncoupled_witness_independence():
    m, lam, mu, step = worked_step()
    after = step.after
    lam_up = pull_back_mfunction(lam, step)
    mu_up = pull_back_mfunction(mu, step)
    for pair in after.codim2_centers():
        answers = {
            center_is_uncoupled_at(lam_up, mu_up, pair, cid)
            for cid in after.corners_with(pair)
        }
        assert len(answers) == 1


def test_centers_at_the_children_are_the_centers_through_the_new_label():
    """The rule the sweep scans by, each child's labels paired with the
    new one and witnessed by the first child in id order, against the
    full manifold's `codim2_centers()` restricted to the new label, on
    every step of the sample towers."""

    def through_new_label(step):
        new = step.new_label
        out = {}
        for cid in sorted(step.children):
            for lab in sorted(step.after.corner(cid).index_set - {new}):
                out.setdefault(frozenset((lab, new)), cid)
        return out

    for _, star in sample_towers():
        for step in star.steps:
            centers = step.after.codim2_centers()
            swept = {c: w for c, w in centers.items() if step.new_label in c}
            assert swept == through_new_label(step)
            assert all(w == step.after.corners_with(c)[0] for c, w in swept.items())


# -- adapted weights -----------------------------------------------------------------


@pytest.mark.parametrize(
    "lam_e, mu_e, expected",
    [
        ({"E1": 2, "E2": 1}, {"E1": 0, "E2": 2}, {"E1": 2, "E2": 1}),
        ({"E1": 3, "E2": 0}, {"E1": 0, "E2": 2}, {"E1": 3, "E2": 2}),
        ({"E1": 1, "E2": 0}, {"E1": 0, "E2": 1}, {"E1": 1, "E2": 1}),
    ],
)
def test_adapted_standardization_formula(lam_e, mu_e, expected):
    m = corner2()
    lam, mu = seed_fn(m, lam_e), seed_fn(m, mu_e)
    fam = adapted_standardization(lam, mu, frozenset({"E1", "E2"}))
    assert fam.alpha_at("c0") == ExponentVector(expected)


def test_adapted_standardization_rejects_coupled_center():
    m = corner2()
    lam, mu = seed_fn(m, {"E1": 1, "E2": 1}), seed_fn(m, {"E1": 2, "E2": 1})
    with pytest.raises(DomainError):
        adapted_standardization(lam, mu, frozenset({"E1", "E2"}))


def test_adapted_balance_holds_at_every_center_corner():
    # center realized by two corners: blow a 3-corner, then target {E3,E∞1}
    m0 = make_corner(["E1", "E2", "E3"])
    lam0 = seed_fn(m0, {"E1": 1, "E2": 0, "E3": 0})
    mu0 = seed_fn(m0, {"E1": 0, "E2": 1, "E3": 1})
    fam0 = adapted_standardization(lam0, mu0, frozenset({"E1", "E2"}))
    step = blow_up(m0, frozenset({"E1", "E2"}), fam0)
    lam1 = pull_back_mfunction(lam0, step)
    # build a pair with {E3,E∞1} obstructed at both corners of that center
    mu1 = mfunction_from_corner(
        step.after, "c0.E1", ExponentVector({"E2": 0, "E3": 1, "E∞1": 0})
    )
    pair = frozenset({"E3", "E∞1"})
    holders = step.after.corners_with(pair)
    assert len(holders) == 2
    assert uncoupled_centers(lam1, mu1) >= {pair}
    fam = adapted_standardization(lam1, mu1, pair)
    i, j = sorted(pair)
    for cid in holders:
        a, lv, mv = fam.alpha_at(cid), lam1.at(cid), mu1.at(cid)
        assert a[j] * (lv[i] - mv[i]) + a[i] * (lv[j] - mv[j]) == 0


# -- principalization -------------------------------------------------------------------


def test_principalize_pair_worked_instance():
    m, lam, mu = worked_pair()
    run = principalize_generators(m, [lam, mu])
    star = run.star
    assert star.age == 1
    lam_f, mu_f = run.final_generators
    assert lam_f.at("c0.E2") == ExponentVector({"E1": 2, "E∞1": 2})
    assert mu_f.at("c0.E2") == ExponentVector({"E1": 0, "E∞1": 2})
    assert lam_f.at("c0.E1") == ExponentVector({"E2": 1, "E∞1": 4})
    assert mu_f.at("c0.E1") == ExponentVector({"E2": 2, "E∞1": 4})
    assert div_le(mu_f.at("c0.E2"), lam_f.at("c0.E2"))
    assert div_le(lam_f.at("c0.E1"), mu_f.at("c0.E1"))
    for cid in star.end.corner_ids():
        assert lam_f.at(cid)["E∞1"] == mu_f.at(cid)["E∞1"]


def test_principalize_pair_already_principal():
    m = corner2()
    lam, mu = seed_fn(m, {"E1": 1, "E2": 1}), seed_fn(m, {"E1": 2, "E2": 1})
    assert principalize_generators(m, [lam, mu]).star.age == 0


def test_principalize_pair_dim3_two_steps():
    m3 = make_corner(["E1", "E2", "E3"])
    lam = seed_fn(m3, {"E1": 1, "E2": 0, "E3": 0})
    mu = seed_fn(m3, {"E1": 0, "E2": 1, "E3": 1})
    state0 = PairState.measure(lam, mu)
    assert state0.inv == 2
    star = principalize_generators(m3, [lam, mu]).star
    assert star.age == 2
    # replay the per-step invariants
    gens = [lam, mu]
    invs = [state0.inv]
    for step in star.steps:
        gens = [pull_back_mfunction(g, step) for g in gens]
        invs.append(PairState.measure(*gens).inv)
    assert invs == [2, 1, 0]


def test_blown_center_disappears_and_others_persist():
    m3 = make_corner(["E1", "E2", "E3"])
    lam = seed_fn(m3, {"E1": 1, "E2": 0, "E3": 0})
    mu = seed_fn(m3, {"E1": 0, "E2": 1, "E3": 1})
    pair = frozenset({"E1", "E2"})
    fam = adapted_standardization(lam, mu, pair)
    step = blow_up(m3, pair, fam)
    lam1, mu1 = pull_back_mfunction(lam, step), pull_back_mfunction(mu, step)
    centers = step.after.codim2_centers()
    assert pair not in centers
    new_omega = uncoupled_centers(lam1, mu1)
    assert new_omega == {frozenset({"E1", "E3"})}
    assert not any(step.new_label in c for c in new_omega)


def test_comparability_persists_under_blowup():
    m, lam, mu, step = worked_step()
    small = seed_fn(m, {"E1": 1, "E2": 0})
    big = seed_fn(m, {"E1": 2, "E2": 1})
    assert div_le(small.at("c0"), big.at("c0"))
    s2, b2 = pull_back_mfunction(small, step), pull_back_mfunction(big, step)
    for cid in step.after.corner_ids():
        assert div_le(s2.at(cid), b2.at(cid))


def test_principalize_three_generators():
    m = corner2()
    gens = [
        seed_fn(m, {"E1": 1, "E2": 0}),
        seed_fn(m, {"E1": 0, "E2": 1}),
        seed_fn(m, {"E1": 2, "E2": 2}),
    ]
    run = principalize_generators(m, gens)
    assert run.star.age == 1
    assert run.pair_invariants == [(0, 1, 1)]
    ideal = MIdeal(run.star.end, run.final_generators)
    for cid in run.star.end.corner_ids():
        assert len(local_min_data(ideal, cid)) == 1


def test_principalize_single_generator_and_idempotence():
    m = corner2()
    assert principalize_generators(m, [seed_fn(m, {"E1": 1, "E2": 1})]).star.age == 0

    m2, lam, mu = worked_pair()
    run = principalize_generators(m2, [lam, mu])
    again = principalize_generators(run.star.end, run.final_generators)
    assert again.star.age == 0


def test_the_sweep_certifies_its_own_end(monkeypatch):
    """A sweep that sees no obstruction stops at once; its end certificate
    then finds the two incomparable generators at the root."""
    m, lam, mu = worked_pair()
    run = principalize_generators(m, [lam, mu])
    assert run.age == 1 == sum(inv for _, _, inv in run.pair_invariants)
    assert [c.corner for c in run.corners] == run.star.end.corner_ids()
    with pytest.raises(StructuralError, match="at least one generator"):
        principalize_generators(m, [])
    with pytest.raises(StructuralError, match="same manifold"):
        principalize_generators(make_corner(["E1", "E2"]), [lam, mu])
    monkeypatch.setattr(monores.ideals, "uncoupled_centers", lambda lam, mu: set())
    with pytest.raises(AlgorithmInvariantViolation, match=r"'c0' is not a singleton"):
        principalize_generators(m, [lam, mu])


def test_budget_exceeded_carries_partial_star():
    m, lam, mu = worked_pair()
    with pytest.raises(BudgetExceededError) as err:
        principalize_generators(m, [lam, mu], max_steps=0)
    assert err.value.star is not None
    assert err.value.star.age == 0


def test_negative_budget_is_rejected():
    m, lam, mu = worked_pair()
    with pytest.raises(DomainError, match="step budget must be nonnegative"):
        principalize_generators(m, [lam, mu], max_steps=-1)


def test_budget_report_names_where_the_run_stopped():
    exc = corpus_c_budget_stop()
    assert str(exc) == (
        "stopped after 5 blow-ups (budget 5) at generator pair (0, 2): "
        "obstruction count 6, 8 at the pair's start; end manifold corner count 9"
    )
    assert len(exc.star.end.corners) == 9


def test_empty_ideal_rejected():
    m = corner2()
    with pytest.raises(Exception):
        MIdeal(m, [])


def test_adapted_weights_transport_across_a_weighted_center():
    """A center realized by two corners joined with a nontrivial diagonal
    weight: the adapted weights must differ between the corners (by exactly
    that weight) and still balance, and the blow-up must equalize the
    exceptional exponents at all four new corners while dropping the
    obstruction count by one."""
    m0 = make_corner(["E1", "E2", "E3"])
    fam0 = extend(m0, LocalStandardization("c0", ExponentVector({"E1": 2, "E2": 1, "E3": 1})))
    s1 = blow_up(m0, frozenset({"E1", "E2"}), fam0)
    m1 = s1.after
    assert m1.weight_connexion("c0.E1", "c0.E2")["E∞1"] == 2

    lam = pull_back_mfunction(
        mfunction_from_corner(m0, "c0", ExponentVector({"E1": 1, "E2": 0, "E3": 0})), s1
    )
    mu = mfunction_from_corner(m1, "c0.E1", ExponentVector({"E2": 0, "E3": 1, "E∞1": 0}))
    pair = frozenset({"E3", "E∞1"})
    assert uncoupled_centers(lam, mu) == {pair, frozenset({"E1", "E3"})}

    fam = adapted_standardization(lam, mu, pair)
    assert fam.alpha_at("c0.E1") == ExponentVector({"E2": 1, "E3": 1, "E∞1": 1})
    assert fam.alpha_at("c0.E2") == ExponentVector({"E1": 1, "E3": 1, "E∞1": F(1, 2)})

    s2 = blow_up(m1, pair, fam)
    lam2, mu2 = pull_back_mfunction(lam, s2), pull_back_mfunction(mu, s2)
    assert s2.after.validate() == []
    assert len(s2.after.corners) == 4
    for cid in s2.after.corner_ids():
        assert lam2.at(cid)["E∞2"] == mu2.at(cid)["E∞2"]
    assert uncoupled_centers(lam2, mu2) == {frozenset({"E1", "E3"})}
