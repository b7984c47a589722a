"""The sweep is one pass over the generator pairs.

A pair with no obstructed center stays comparable under every later
blow-up, because the morphism matrices are nonnegative.  So
`principalize_generators` measures each pair once, when its turn comes,
and treats a fresh obstruction on a finished pair as a bug.
"""

import json
from itertools import combinations

import pytest

import monores.ideals
from monores import (
    AlgorithmInvariantViolation,
    BudgetExceededError,
    PairState,
    center_is_uncoupled_at,
    minimal_support,
    principalize_generators,
    reduce_problem,
    uncoupled_centers,
)
from monores.cli import main
from monores.jsonio import ideal_from_json
from helpers import (
    generators_along,
    sample_towers,
    shared_reports,
    wide_probe_problem,
    wide_probe_report,
)

# Three generators whose sweep has a phase on every pair.
IDEAL = {
    "dimension": 3,
    "labels": ["z1", "z2", "z3"],
    "generators": [["2", "1", "0"], ["0", "2", "1"], ["1", "0", "3"]],
}


def spied_runs(monkeypatch):
    """Each test tower's problem reduced again, with the start count of
    every `PairState.measure` call recorded per run."""
    true_measure = PairState.measure
    counts = []

    def measure(cls, lam, mu):
        state = true_measure(lam, mu)
        counts.append(state.inv)
        return state

    monkeypatch.setattr(PairState, "measure", classmethod(measure))
    runs = []
    for problem, star in sample_towers():
        counts = []
        try:
            reduce_problem(problem, max_steps=star.age)
            stopped = False
        except BudgetExceededError:
            stopped = True
        k = len(minimal_support(problem.support).points)
        runs.append((problem, star, k, counts, stopped))
    return runs


def active_pairs(k, counts):
    """The active pair of each step, read off the measure calls in order:
    the i-th call measures the i-th pair of `combinations(range(k), 2)`."""
    pairs = list(combinations(range(k), 2))
    return [pairs[i] for i, inv in enumerate(counts) for _ in range(inv)]


def test_each_pair_is_measured_once(monkeypatch):
    runs = spied_runs(monkeypatch)
    assert any(k > 2 and star.age > 0 for _, star, k, _, _ in runs)
    for _, star, k, counts, stopped in runs:
        if stopped:
            # corpus C stops in the phase of pair (0, 2), the second pair
            assert len(counts) == 2 and star.age == 5
        else:
            assert len(counts) == k * (k - 1) // 2
            assert sum(counts) == star.age


def test_pairs_before_the_active_one_stay_finished(monkeypatch):
    runs = spied_runs(monkeypatch)
    checked = 0
    for problem, star, k, counts, _ in runs:
        active = active_pairs(k, counts)
        assert len(active) >= star.age
        for step_gens, (a, b) in zip(generators_along(problem, star)[1:], active):
            for x, y in combinations(range(k), 2):
                if (x, y) < (a, b):
                    assert uncoupled_centers(step_gens[x], step_gens[y]) == set()
                    checked += 1
    assert checked > 20
    for report in shared_reports():
        pairs = [(a, b) for a, b, _ in report.pair_invariants]
        assert pairs == sorted(set(pairs))


def reopen_pair_0_1(monkeypatch):
    """Patch the sweep's per-witness scan to call pair (0, 1) obstructed
    wherever it is asked about the current generators after the sweep has
    moved past that pair."""
    true_measure = PairState.measure
    true_pull_back = monores.ideals.pull_back_generators
    true_scan = monores.ideals._uncoupled_pairs_at
    measured, pulled = [], []

    def measure(cls, lam, mu):
        measured.append(None)
        return true_measure(lam, mu)

    def pull_back(gens, step):
        pulled.extend(true_pull_back(gens, step))
        return pulled[-len(gens):]

    def scan(gens, pair, corner_id):
        hits = true_scan(gens, pair, corner_id)
        current = pulled[-len(IDEAL["generators"]):]
        if len(measured) >= 2 and current and gens[0] is current[0] and gens[1] is current[1]:
            return [(0, 1)] + [xy for xy in hits if xy != (0, 1)]
        return hits

    monkeypatch.setattr(PairState, "measure", classmethod(measure))
    monkeypatch.setattr(monores.ideals, "pull_back_generators", pull_back)
    monkeypatch.setattr(monores.ideals, "_uncoupled_pairs_at", scan)


def test_a_fresh_obstruction_on_a_finished_pair_is_a_bug(monkeypatch):
    ideal = ideal_from_json(IDEAL)
    run = principalize_generators(ideal.manifold, ideal.generators)
    assert [(a, b) for a, b, _ in run.pair_invariants] == [(0, 1), (0, 2), (1, 2)]
    reopen_pair_0_1(monkeypatch)
    with pytest.raises(AlgorithmInvariantViolation, match=r"finished pair \(0, 1\)"):
        principalize_generators(ideal.manifold, ideal.generators)


def test_a_fresh_obstruction_on_a_finished_pair_exits_4(tmp_path, monkeypatch, capsys):
    inp = tmp_path / "ideal.json"
    inp.write_text(json.dumps(IDEAL), encoding="utf-8")
    trace = tmp_path / "t.json"
    reopen_pair_0_1(monkeypatch)
    assert main(["principalize", "--input", str(inp), "--trace", str(trace)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error (bug): ")
    assert "finished pair (0, 1)" in err
    assert not trace.exists()


def test_a_fresh_obstruction_on_the_active_pair_is_a_bug(monkeypatch):
    """The per-step scan covers the active pair too: a center through the
    new label that it calls obstructed means the count did not drop."""
    ideal = ideal_from_json(IDEAL)
    first = PairState.measure(*ideal.generators[:2]).inv
    true_scan = monores.ideals._uncoupled_pairs_at

    def scan(gens, pair, corner_id):
        if any(lab.startswith("E∞") for lab in pair):
            return list(combinations(range(len(gens)), 2))
        return true_scan(gens, pair, corner_id)

    monkeypatch.setattr(monores.ideals, "_uncoupled_pairs_at", scan)
    with pytest.raises(
        AlgorithmInvariantViolation,
        match=rf"did not drop the obstruction count from {first} to {first - 1}",
    ):
        principalize_generators(ideal.manifold, ideal.generators)


def test_the_per_witness_scan_counts_what_the_sign_test_counts():
    """At every step of the test towers, the sweep's fresh count of each
    generator pair (`_uncoupled_pairs_at`, each witness read once) equals
    the sum of `center_is_uncoupled_at` over the step's witnesses."""
    scanned = hits = 0
    for problem, star in sample_towers():
        for step, gens in zip(star.steps, generators_along(problem, star)[1:]):
            witnesses = {
                c: w
                for c, w in step.after.codim2_centers().items()
                if step.new_label in c
            }
            pairs = list(combinations(range(len(gens)), 2))
            counts = dict.fromkeys(pairs, 0)
            for c, w in witnesses.items():
                for xy in monores.ideals._uncoupled_pairs_at(gens, c, w):
                    counts[xy] += 1
            assert counts == {
                (x, y): sum(
                    center_is_uncoupled_at(gens[x], gens[y], c, w) for c, w in witnesses.items()
                )
                for x, y in pairs
            }
            scanned += len(witnesses) * len(pairs)
            hits += sum(counts.values())
    assert scanned > 100 and hits > 0, (scanned, hits)


def test_the_sweep_scans_each_center_through_the_new_label_at_its_first_holder(monkeypatch):
    """The `(center, witness)` pairs the sweep hands `_uncoupled_pairs_at`
    at each step are the step's centers through its new label, each once,
    at its smallest-id holder: `step.after.codim2_centers()` restricted
    to the centers through `step.new_label`, on every step of the test
    towers and of the wide probe."""
    runs = [(problem, star.age) for problem, star in sample_towers()]
    runs.append((wide_probe_problem(), wide_probe_report().age))
    true_apply, true_scan = monores.ideals.apply_center, monores.ideals._uncoupled_pairs_at
    scans = []

    def apply_center(*args):
        scans.append([])
        return true_apply(*args)

    def scan(gens, pair, corner_id):
        scans[-1].append((pair, corner_id))
        return true_scan(gens, pair, corner_id)

    monkeypatch.setattr(monores.ideals, "apply_center", apply_center)
    monkeypatch.setattr(monores.ideals, "_uncoupled_pairs_at", scan)
    scanned = 0
    for problem, age in runs:
        scans.clear()
        try:
            star = reduce_problem(problem, max_steps=age).star
        except BudgetExceededError as stop:
            star = stop.star
        assert star.age == age == len(scans)
        for step, pairs in zip(star.steps, scans):
            centers = step.after.codim2_centers()
            expected = {c: w for c, w in centers.items() if step.new_label in c}
            assert len(pairs) == len(expected) and dict(pairs) == expected
            scanned += len(pairs)
    assert scanned > 500, scanned
