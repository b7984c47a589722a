"""Floating sampling oracle: near-zero error on good data, loud on corruption."""

import dataclasses
import hashlib
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import monores.oracle
from monores import (
    DomainError,
    Edge,
    ExponentMatrix,
    MonomialManifold,
    ReductionProblem,
    Star,
    StructuralError,
    compose_star,
    make_corner,
    numeric_oracle,
    reduce_problem,
    support_from_rows,
)
from monores.oracle import SAMPLE_LOW, apply_plan, float_plan
from helpers import random_reports, sample_towers


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


def nudged(matrix: ExponentMatrix, row: str, col: str) -> ExponentMatrix:
    """A copy of `matrix` with the entry at (`row`, `col`) raised by 1/7."""
    entries = {(r, c): matrix.entry(r, c) for r in matrix.row_labels for c in matrix.col_labels}
    entries[(row, col)] += Fraction(1, 7)
    return ExponentMatrix(matrix.row_labels, matrix.col_labels, entries)


def with_first_end_edge(star: Star, make_edge) -> Star:
    """Copy the star with the first edge of the end manifold replaced by
    `make_edge(edge)`; no check runs on the copy."""
    step = star.steps[-1]
    m = step.after
    e = m.edges[0]
    bad_m = MonomialManifold(
        m.dimension, m.components, m.corners.values(), [make_edge(e)] + [x for x in m.edges if x is not e]
    )
    bad_step = dataclasses.replace(step, after=bad_m)
    return Star(star.root, star.steps[:-1] + (bad_step,))


def perturbed(star: Star) -> Star:
    """Copy the star with one edge exponent of the end manifold nudged.

    The edge's inverse is recomputed from the nudged matrix, so its round
    trip closes and only the blow-up square through it breaks."""
    def bad(e):
        ell = min(e.shared)
        return Edge(e.p, e.q, nudged(e.matrix, ell, ell))

    return with_first_end_edge(star, bad)


def test_oracle_detects_corrupted_edge():
    bad = perturbed(worked_star())
    assert numeric_oracle(bad, samples=20, seed=1) > 1e-3


def test_oracle_detects_a_wrong_inverse():
    """The edge's matrix is right and its passed inverse is not: only the
    edge round trip reads an end-manifold edge's inverse."""
    def bad(e):
        inv = e.inverse
        return Edge(e.p, e.q, e.matrix, inverse=nudged(inv, inv.sorted_rows[0], inv.sorted_cols[0]))

    assert numeric_oracle(with_first_end_edge(worked_star(), bad), samples=20, seed=1) > 1e-3


def test_oracle_detects_a_wrong_composite(monkeypatch):
    """Every step and edge is right and the composites are not: only the
    composite-versus-stepwise check reads `_end_composites`."""
    end_composites = monores.oracle._end_composites

    def bad_composites(star):
        return {
            cid: (nudged(good, good.sorted_rows[0], good.sorted_cols[0]), charts)
            for cid, (good, charts) in end_composites(star).items()
        }

    star = worked_star()
    assert numeric_oracle(star, samples=20, seed=1) < 1e-9
    monkeypatch.setattr(monores.oracle, "_end_composites", bad_composites)
    assert numeric_oracle(star, samples=20, seed=1) > 1e-3


def test_forward_composites_equal_compose_star():
    """The composite carried forward over the steps is `compose_star`'s,
    and its charts are the morphisms of the steps that touched the corner
    or an ancestor, the latest first."""
    corners = 0
    for _, star in sample_towers():
        composites = monores.oracle._end_composites(star)
        assert composites.keys() == star.end.corners.keys()
        for cid, (matrix, charts) in composites.items():
            assert matrix == compose_star(star, cid)
            expected, cur = [], cid
            for step in reversed(star.steps):
                if cur in step.children:
                    expected.append(step.morphism(cur))
                cur = step.lineage(cur)
            assert list(charts) == expected
            corners += 1
    assert corners >= 40


# -- what is sampled -------------------------------------------------------------


def skipped_edges(step):
    """The edges of `step.after` whose blow-up square the oracle skips: edge
    objects of `step.before` between two corners the step left untouched."""
    return [
        e
        for e in step.after.edges
        if any(e is d for d in step.before.edges)
        and e.p not in step.children
        and e.q not in step.children
    ]


def sampled_columns(rng, labels, count):
    """`count` points over `labels` as columns, one per label."""
    return [[math.log(rng.uniform(SAMPLE_LOW, 1.0)) for _ in range(count)] for _ in labels]


def test_every_skipped_square_reads_exactly_zero():
    """Each skipped square, computed as every square is, closes exactly:
    its two sides are the same float computation on every sample."""
    rng = random.Random(11)
    squares = 0
    for _, star in sample_towers():
        for step in star.steps:
            for e in skipped_edges(step):
                a, b = step.lineage(e.p), step.lineage(e.q)
                across = float_plan(step.before.change_matrix(a, b))
                down_p, down_q = float_plan(step.morphism(e.p)), float_plan(step.morphism(e.q))
                up_across = float_plan(e.matrix)
                labels = tuple(sorted(step.after.corner(e.p).index_set))
                x_new_p = sampled_columns(rng, labels, 20)
                x_old_q = apply_plan(across, *apply_plan(down_p, labels, x_new_p))
                x_old_q2 = apply_plan(down_q, *apply_plan(up_across, labels, x_new_p))
                assert monores.oracle._rel_err_log(*x_old_q, *x_old_q2) == 0.0
                assert x_old_q == x_old_q2
                squares += 1
    assert squares >= 50


def with_edge_replaced(star, k, old, new):
    """Copy the star with edge `old` of step `k`'s `after` replaced by the
    edge `new`; no check runs on the copy."""
    step = star.steps[k]
    m = step.after
    edges = [new if e is old else e for e in m.edges]
    steps = list(star.steps)
    steps[k] = dataclasses.replace(
        step, after=MonomialManifold(m.dimension, m.components, m.corners.values(), edges)
    )
    return Star(star.root, tuple(steps))


def test_oracle_detects_a_nudged_copy_of_a_carried_edge():
    """A carried edge replaced by a new object is sampled again: with its
    matrix nudged (and its inverse recomputed, so its round trip closes),
    the blow-up square through it breaks."""
    caught = 0
    for _, star in sample_towers():
        for k, step in enumerate(star.steps):
            carried = skipped_edges(step)
            if not carried:
                continue
            e = carried[0]
            ell = min(e.shared)
            bad = with_edge_replaced(star, k, e, Edge(e.p, e.q, nudged(e.matrix, ell, ell)))
            assert numeric_oracle(bad, samples=5, seed=0) > 1e-3
            caught += 1
    assert caught >= 10


def test_each_distinct_edge_object_gets_one_round_trip(monkeypatch):
    """Counted with the squares and composites stubbed out, so every
    sample drawn is a round trip's."""
    drawn = []
    sample = monores.oracle._sample_blocks

    def counted(labels, samples, rng):
        for block in sample(labels, samples, rng):
            drawn.extend(zip(*block))
            yield block

    monkeypatch.setattr(monores.oracle, "_sample_blocks", counted)
    monkeypatch.setattr(monores.oracle, "_blowup_squares", lambda *args: 0.0)
    monkeypatch.setattr(monores.oracle, "_composite_checks", lambda *args: 0.0)
    repeated = 0
    for _, star in sample_towers():
        manifolds = [star.root] + [s.after for s in star.steps]
        distinct = {id(e): e for m in manifolds for e in m.edges}
        repeated += sum(len(m.edges) for m in manifolds) - len(distinct)
        drawn.clear()
        numeric_oracle(star, samples=3, seed=0)
        assert len(drawn) == 3 * len(distinct)
    assert repeated > 0


# -- the same checks on the same samples ---------------------------------------


def reference_map_log(matrix, log_point):
    """Per-entry Fraction -> float, summed in sorted label order."""
    out = {}
    for r in matrix.sorted_rows:
        acc = 0.0
        for c in matrix.sorted_cols:
            e = matrix.entry(r, c)
            if e:
                acc += float(e) * log_point[c]
        out[r] = acc
    return out


def reference_oracle(star, samples, seed):
    """The oracle's checks written as plain loops over the samples, every
    matrix converted to floats again for every sample.

    What is sampled: each distinct edge object's round trip once, in
    order of first appearance over the root and each step's `after`; and
    the blow-up square of every edge of `step.after` except one that is
    an edge object of `step.before` with both ends untouched, whose two
    sides are the same float computation
    (`test_every_skipped_square_reads_exactly_zero`)."""
    rng = random.Random(seed)

    def point(labels):
        return {lab: math.log(rng.uniform(SAMPLE_LOW, 1.0)) for lab in sorted(labels)}

    def rel_err(a, b):
        worst = 0.0
        for k, la in a.items():
            delta = la - b[k]
            worst = max(worst, abs(math.expm1(delta)) if abs(delta) < 700.0 else math.inf)
        return worst

    worst = 0.0
    seen = []
    for m in [star.root] + [s.after for s in star.steps]:
        for e in m.edges:
            if any(e is x for x in seen):
                continue
            seen.append(e)
            for _ in range(samples):
                x_p = point(m.corner(e.p).index_set)
                back = reference_map_log(e.inverse, reference_map_log(e.matrix, x_p))
                worst = max(worst, rel_err(x_p, back))
    for step in star.steps:
        for e in step.after.edges:
            carried = any(e is d for d in step.before.edges)
            if carried and e.p not in step.children and e.q not in step.children:
                continue
            a, b = step.lineage(e.p), step.lineage(e.q)
            across = None if a == b else step.before.change_matrix(a, b)
            for _ in range(samples):
                x_new_p = point(step.after.corner(e.p).index_set)
                x_old_p = reference_map_log(step.morphism(e.p), x_new_p)
                x_old_q = x_old_p if across is None else reference_map_log(across, x_old_p)
                x_new_q = reference_map_log(e.matrix, x_new_p)
                x_old_q2 = reference_map_log(step.morphism(e.q), x_new_q)
                worst = max(worst, rel_err(x_old_q, x_old_q2))
    if star.steps:
        for cid in star.end.corner_ids():
            composite = compose_star(star, cid)
            for _ in range(samples):
                x_top = point(star.end.corner(cid).index_set)
                direct = reference_map_log(composite, x_top)
                x, cur = x_top, cid
                for step in reversed(star.steps):
                    x = reference_map_log(step.morphism(cur), x)
                    cur = step.lineage(cur)
                worst = max(worst, rel_err(direct, x))
    return worst


@pytest.mark.parametrize("seed", [0, 5])
def test_oracle_equals_the_per_sample_reference(seed):
    towers = [star for _, star in sample_towers() if star.steps]
    assert len(towers) >= 4
    for star in towers:
        assert numeric_oracle(star, samples=7, seed=seed) == reference_oracle(star, 7, seed)


def sparse_rational(rng):
    """Zero with probability 0.6, otherwise a signed, often non-integer rational."""
    if rng.random() < 0.6:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7))


def test_plans_equal_the_per_entry_sum_on_sparse_rectangular_matrices():
    rng = random.Random(13)
    pool = ["E1", "E2", "E3", "E∞1", "E∞2", "z1", "z2"]
    zeros = total = 0
    for _ in range(300):
        rows, cols = (rng.sample(pool, rng.randint(1, 5)) for _ in range(2))
        m = ExponentMatrix(rows, cols, {(r, c): sparse_rational(rng) for r in rows for c in cols})
        plan = float_plan(m)
        assert plan.cols == tuple(sorted(cols)) and plan.rows == tuple(sorted(rows))
        for r, terms in zip(plan.rows, plan.terms, strict=True):
            assert [plan.cols[j] for j, _ in terms] == [c for c in sorted(cols) if m.entry(r, c)]
        xs = sampled_columns(rng, plan.cols, 3)
        out_rows, out = apply_plan(plan, plan.cols, xs)
        assert out_rows == plan.rows
        for k in range(3):
            x = {c: xs[j][k] for j, c in enumerate(plan.cols)}
            assert {r: col[k] for r, col in zip(out_rows, out, strict=True)} == reference_map_log(m, x)
        values = [m.entry(r, c) for r in rows for c in cols]
        zeros += values.count(0)
        total += len(values)
    assert zeros * 2 >= total


_ORACLE_VALUES = """
from helpers import sample_towers
from monores import numeric_oracle
print(repr([numeric_oracle(star, samples=20, seed=3) for _, star in sample_towers()]))
"""


def test_oracle_is_reproducible_across_processes():
    """The value must not depend on the string hash seed, which orders
    frozensets and so any sum taken in label-set order."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    outs = []
    for hash_seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed)
        run = subprocess.run(
            [sys.executable, "-c", _ORACLE_VALUES], env=env, capture_output=True, text=True, check=True
        )
        outs.append(run.stdout)
    assert outs[0].startswith("[") and outs[1] == outs[0] and outs[2] == outs[0]


# -- values pinned, and the cases evaluating in blocks could change ---------------


def values_digest(values):
    return hashlib.sha256(repr(values).encode()).hexdigest()


def test_oracle_values_are_pinned_on_corpus_a():
    """Corpus A (seed 77, 100 problems) at 10 samples, seed = problem index."""
    values = [numeric_oracle(rep.star, samples=10, seed=i) for i, rep in enumerate(random_reports(77, 100))]
    assert values_digest(values) == "6f13c8539d8d9165036fe9d8618a26e88613b0b19c21b8f7b985556c548d7446"


def test_oracle_values_are_pinned_on_the_sample_towers():
    """`sample_towers()` at 100 samples, seed = tower index."""
    values = [numeric_oracle(star, samples=100, seed=i) for i, (_, star) in enumerate(sample_towers())]
    assert values_digest(values) == "0ab88e06dd2738bca6f1e9f6eb35934775a99dcab0b63c40a9252a6503a04cfd"


def reference_rel_err(delta):
    """The per-delta rule: `|expm1(delta)|` below 700 in size, else infinite."""
    return abs(math.expm1(delta)) if abs(delta) < 700.0 else math.inf


@pytest.mark.parametrize(
    "delta",
    [
        math.nan,
        math.inf,
        -math.inf,
        700.0,
        -700.0,
        math.nextafter(700.0, 0.0),
        -math.nextafter(700.0, 0.0),
        1e-300,
        -3.5,
    ],
)
@pytest.mark.parametrize("where", [0, 1, 4])
def test_each_delta_reads_as_the_per_sample_rule(delta, where):
    """A block's error is the largest of its deltas' errors by the per-delta
    rule, wherever the delta sits: a NaN or infinite delta, or one of size
    700 or more, reads infinite, though `max` over a NaN would skip it."""
    a = [[0.5] * 5, [0.25] * 5]
    b = [[0.5] * 5, [0.25] * 5]
    b[1][where] = 0.25 - delta
    deltas = [x - y for xs, ys in zip(a, b) for x, y in zip(xs, ys)]
    expected = max(reference_rel_err(d) for d in deltas)
    got = monores.oracle._rel_err_log(("u", "v"), a, ("u", "v"), b)
    assert got == expected
    assert (got == math.inf) == (not abs(deltas[5 + where]) < 700.0)


@pytest.mark.parametrize("samples", [1, monores.oracle.BLOCK + 3])
def test_short_and_ragged_blocks_equal_the_per_sample_reference(samples):
    """One sample, and a count that leaves a short last block, give the
    per-sample value."""
    towers = [star for _, star in sample_towers() if star.steps]
    if samples > monores.oracle.BLOCK:
        towers = [worked_star(), min(towers, key=lambda star: len(star.end.corners))]
    for star in towers:
        assert numeric_oracle(star, samples=samples, seed=4) == reference_oracle(star, samples, 4)


def test_plans_whose_labels_do_not_chain_are_rejected():
    """A plan applied to columns over other labels, or two blocks over other
    labels compared, is a StructuralError, not a silent misreading."""
    m = ExponentMatrix.from_row_table(["a", "b"], ["a", "c"], [[1, 2], [0, 1]])
    plan = float_plan(m)
    xs = [[0.1, 0.2], [0.3, 0.4]]
    rows, out = apply_plan(plan, ("a", "c"), xs)
    with pytest.raises(StructuralError, match="applied to"):
        apply_plan(plan, rows, out)
    with pytest.raises(StructuralError, match="applied to"):
        apply_plan(plan, ("a", "b", "c"), xs + [[0.5, 0.6]])
    with pytest.raises(StructuralError, match="compared"):
        monores.oracle._rel_err_log(("a", "c"), xs, rows, out)


def test_memory_does_not_grow_with_the_sample_count():
    """Samples are evaluated a block at a time: 20,000 of them on the worked
    example stay under a fixed peak, where holding them all as columns
    would take several MB."""
    star = worked_star()
    numeric_oracle(star, samples=1, seed=0)  # build every lazy matrix first
    tracemalloc.start()
    try:
        err = numeric_oracle(star, samples=20_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err < 1e-9
    assert peak < 500_000
