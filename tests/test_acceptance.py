"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Criteria 2 and 3 build shared corpora of random runs; the
later criteria recheck every manifold and matrix those runs produced.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from monores import (
    ExponentVector,
    LocalStandardization,
    MFunction,
    MIdeal,
    PairState,
    ReductionProblem,
    compose_star,
    div_le,
    extend,
    local_min_data,
    pull_back_mfunction,
    pullback_support,
    reduce_problem,
    support_from_rows,
    validate_realizable,
    vec_apply,
)
from monores.cli import main as cli_main
from monores.ideals import principalize_generators
from monores.jsonio import canonical_dumps, replay_trace
from monores.oracle import numeric_oracle
from helpers import random_problem, random_uncoupled_pair, random_vector

F = Fraction
N_PAIRS = 200
N_PROBLEMS = 100


def _report(label: str, detail: str):
    print(f"[acceptance] {label}: PASS ({detail})")


@pytest.fixture(scope="module")
def worked():
    t0 = time.perf_counter()
    rep = reduce_problem(
        ReductionProblem(support_from_rows(("z1", "z2"), [[2, 1], [0, 2]]))
    )
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def pair_corpus():
    """Criterion 2 corpus: random obstructed pairs with their full runs."""
    rng = random.Random(20260810)
    runs = []
    t0 = time.perf_counter()
    while len(runs) < N_PAIRS:
        m, lam, mu = random_uncoupled_pair(rng, max_dim=4, max_num=10, max_den=8)
        inv0 = PairState.measure(lam, mu).inv
        run = principalize_generators(m, [lam, mu])
        runs.append((m, lam, mu, inv0, run))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def problem_corpus():
    """Criterion 3 corpus: random supports, fully reduced."""
    rng = random.Random(77)
    reports = []
    t0 = time.perf_counter()
    for _ in range(N_PROBLEMS):
        reports.append(reduce_problem(random_problem(rng, max_vars=3, max_points=5)))
    return reports, time.perf_counter() - t0


def _all_stars(worked, pair_corpus, problem_corpus):
    stars = [worked[0].star]
    stars += [run.star for *_, run in pair_corpus[0]]
    stars += [rep.star for rep in problem_corpus[0]]
    return stars


def test_criterion_1_worked_instance(worked):
    rep, elapsed = worked
    assert elapsed < 0.1, f"took {elapsed:.3f}s"
    assert rep.age == 1
    step = rep.star.steps[0]
    assert step.alpha_at_center["c0"] == ExponentVector({"z1": 2, "z2": 1})
    by_corner = {c.corner: c for c in rep.corners}
    keep_z1 = by_corner["c0.z2"]
    assert set(keep_z1.generator_exponents) == {
        ExponentVector({"z1": 2, "E∞1": 2}),
        ExponentVector({"z1": 0, "E∞1": 2}),
    }
    assert keep_z1.principal_exponent == ExponentVector({"z1": 0, "E∞1": 2})
    keep_z2 = by_corner["c0.z1"]
    assert set(keep_z2.generator_exponents) == {
        ExponentVector({"z2": 1, "E∞1": 4}),
        ExponentVector({"z2": 2, "E∞1": 4}),
    }
    assert keep_z2.principal_exponent == ExponentVector({"z2": 1, "E∞1": 4})
    for c in rep.corners:
        exps = {g["E∞1"] for g in c.generator_exponents}
        assert len(exps) == 1, "exceptional exponents must agree"
    assert {g["E∞1"] for g in keep_z1.generator_exponents} == {2}
    assert {g["E∞1"] for g in keep_z2.generator_exponents} == {4}
    _report("criterion 1", f"worked instance exact, {elapsed * 1000:.1f} ms")


def test_criterion_2_invariant_decrease(pair_corpus):
    runs, elapsed = pair_corpus
    assert len(runs) >= N_PAIRS
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    for m, lam, mu, inv0, run in runs:
        assert inv0 >= 1
        assert run.star.age == inv0
        gens = [lam, mu]
        inv_path = [PairState.measure(*gens).inv]
        for step in run.star.steps:
            gens = [pull_back_mfunction(g, step) for g in gens]
            inv_path.append(PairState.measure(*gens).inv)
        assert inv_path == list(range(inv0, -1, -1)), inv_path
    _report(
        "criterion 2",
        f"{len(runs)} pairs, {sum(r.star.age for *_, r in runs)} blow-ups, {elapsed:.2f}s",
    )


def test_criterion_3_end_to_end_reduction(problem_corpus):
    reports, elapsed = problem_corpus
    assert len(reports) >= N_PROBLEMS
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    for rep in reports:
        for c in rep.corners:
            pulled = pullback_support(
                rep.problem.support,
                compose_star(rep.star, c.corner),
                minimize=True,
            )
            assert len(pulled) == 1
    _report(
        "criterion 3",
        f"{len(reports)} supports, max age {max(r.age for r in reports)}, {elapsed:.2f}s",
    )


def test_criterion_4_structural_validation(worked, pair_corpus, problem_corpus):
    manifolds = 0
    for star in _all_stars(worked, pair_corpus, problem_corpus):
        assert star.root.validate() == []
        manifolds += 1
        for step in star.steps:
            assert step.after.validate() == []
            manifolds += 1
    _report("criterion 4", f"{manifolds} manifolds, zero violations")


def test_criterion_5_standardization_laws(worked, pair_corpus, problem_corpus):
    rng = random.Random(5)
    families = 0
    for star in _all_stars(worked, pair_corpus, problem_corpus)[:120]:
        m = star.end
        base = rng.choice(m.corner_ids())
        alpha = ExponentVector(
            {
                lab: F(rng.randint(1, 9), rng.randint(1, 6))
                for lab in m.corner(base).index_set
            }
        )
        fam = extend(m, LocalStandardization(base, alpha))
        families += 1
        assert validate_realizable(m, fam)
        assert fam.alpha_at(base) == alpha
        # extend-restrict round trip from a different corner
        other = rng.choice(m.corner_ids())
        beta = {}
        for lab in m.components - m.corner(other).index_set:
            anchor = min(h for h in m.corner_ids() if lab in m.corner(h).index_set)
            beta[lab] = fam.alpha_at(anchor)[lab]
        assert extend(m, fam.restrict(other), beta=beta) == fam
        # unit diagonal of the conjugated change on every edge
        for e in m.edges:
            a_p, a_q = fam.alpha_at(e.p), fam.alpha_at(e.q)
            for ell in e.shared:
                assert a_q[ell] * e.matrix.entry(ell, ell) / a_p[ell] == 1
    _report("criterion 5", f"{families} extended families, exact laws hold")


def test_criterion_6_pullback_monotonicity(worked, pair_corpus, problem_corpus):
    rng = random.Random(6)
    matrices = {}
    for star in _all_stars(worked, pair_corpus, problem_corpus):
        for step in star.steps:
            for cid in step.after.corner_ids():
                b = step.morphism(cid)
                matrices[b] = b
    pool = list(matrices)
    assert pool
    checks = 0
    per_matrix = max(1, -(-500 // len(pool)))  # ceil division
    for b in pool:
        labels = sorted(b.row_labels)
        for _ in range(per_matrix):
            lam = random_vector(rng, labels)
            mu = ExponentVector(
                {k: lam[k] + F(rng.randint(0, 6), rng.randint(1, 4)) for k in labels}
            )
            assert div_le(lam, mu)
            assert b.is_nonnegative()
            assert div_le(vec_apply(lam, b), vec_apply(mu, b))
            checks += 1
    assert checks >= 500
    _report(
        "criterion 6",
        f"{len(pool)} distinct morphism matrices, {checks} comparable pairs, zero failures",
    )


def test_criterion_7_ideal_function_coherence(problem_corpus):
    reports, _ = problem_corpus
    corners_checked = 0
    for rep in reports:
        star = rep.star
        count = len(rep.corners[0].generator_exponents)
        gens = [
            MFunction(star.end, {c.corner: c.generator_exponents[k] for c in rep.corners})
            for k in range(count)
        ]
        ideal = MIdeal(star.end, gens)
        for c in rep.corners:
            via_generators = set(local_min_data(ideal, c.corner))
            via_support = set(
                pullback_support(
                    rep.problem.support, compose_star(star, c.corner), minimize=True
                ).points
            )
            assert via_generators == via_support
            corners_checked += 1
    _report("criterion 7", f"minimal sets equal at {corners_checked} corners")


def test_criterion_8_numeric_oracle(worked, problem_corpus):
    rep, _ = worked
    err = numeric_oracle(rep.star, samples=100, seed=42)
    assert err < 1e-9, err
    reports, _ = problem_corpus
    candidates = [r.star for r in reports if r.age >= 1][:10]
    assert len(candidates) == 10
    worst = max(numeric_oracle(s, samples=100, seed=42) for s in candidates)
    assert worst < 1e-9, worst

    from test_oracle import perturbed

    bad = perturbed(rep.star)
    sensitivity = numeric_oracle(bad, samples=20, seed=1)
    assert sensitivity > 1e-3, sensitivity
    _report(
        "criterion 8",
        f"max error {max(err, worst):.2e} on 11 towers; perturbed edge gives {sensitivity:.2e}",
    )


def test_criterion_9_replay_determinism(tmp_path, worked):
    problem_doc = {"variables": ["z1", "z2"], "points": [["2", "1"], ["0", "2"]]}
    inp = tmp_path / "problem.json"
    inp.write_text(canonical_dumps(problem_doc), encoding="utf-8")
    t1, t2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["--check-numeric", "--samples", "20", "--seed", "42"]
    assert cli_main(["reduce", "--input", str(inp), "--trace", str(t1), *args]) == 0
    assert cli_main(["reduce", "--input", str(inp), "--trace", str(t2), *args]) == 0
    assert t1.read_bytes() == t2.read_bytes()

    star = replay_trace(json.loads(t1.read_text(encoding="utf-8")))
    assert star.end.validate() == []
    original = worked[0].star.end
    # corner ids may differ in principle; index sets identify corners
    def by_index_set(m):
        return {c.index_set: c.id for c in m.corners.values()}

    key_replay, key_orig = by_index_set(star.end), by_index_set(original)
    assert set(key_replay) == set(key_orig)
    for e in original.edges:
        twin = next(
            x
            for x in star.end.edges
            if {
                star.end.corner(x.p).index_set,
                star.end.corner(x.q).index_set,
            }
            == {original.corner(e.p).index_set, original.corner(e.q).index_set}
        )
        if star.end.corner(twin.p).index_set == original.corner(e.p).index_set:
            assert twin.matrix == e.matrix
        else:
            assert twin.matrix == e.inverse
    _report("criterion 9", "byte-identical traces; replay isomorphic to original")
