"""Shared test utilities: independent oracles and random instance builders."""

from __future__ import annotations

import functools
import json
import random
from fractions import Fraction
from itertools import combinations

from monores import (
    AlgorithmInvariantViolation,
    BudgetExceededError,
    ExponentVector,
    MFunction,
    ReductionProblem,
    div_le,
    make_corner,
    mfunction_from_corner,
    minimal_support,
    pull_back_mfunction,
    reduce_problem,
    support_from_rows,
    uncoupled_centers,
)
from monores.blowup import _escaped
from monores.jsonio import canonical_dumps, manifold_from_json, manifold_to_json


def brute_force_minimal(vectors):
    """Independent oracle for minimal elements: literal all-pairs domination scan.

    Deliberately avoids the library's div_le so it cannot share a bug with it.
    """
    vecs = list(set(vectors))
    out = []
    for v in vecs:
        dominated = False
        for w in vecs:
            if w == v:
                continue
            if all(w[lab] <= v[lab] for lab in v.labels):
                dominated = True
                break
        if not dominated:
            out.append(v)
    return set(out)


def all_pairs_minimal(vectors):
    """Reference for `minimal_elements`, list and order: the all-pairs scan
    it once ran, testing every distinct vector against every other."""
    vecs = sorted(set(vectors), key=lambda v: tuple(x for _, x in v.items()))
    return [v for v in vecs if not any(w != v and div_le(w, v) for w in vecs)]


def random_vector(rng: random.Random, labels, max_num=10, max_den=8) -> ExponentVector:
    return ExponentVector(
        {lab: Fraction(rng.randint(0, max_num), rng.randint(1, max_den)) for lab in labels}
    )


def random_uncoupled_pair(rng: random.Random, max_dim=4, max_num=10, max_den=8):
    """An m-corner plus two monomial functions with at least one obstructed center."""
    while True:
        dim = rng.randint(2, max_dim)
        labels = [f"E{i}" for i in range(1, dim + 1)]
        m = make_corner(labels)
        lam = mfunction_from_corner(m, "c0", random_vector(rng, labels, max_num, max_den))
        mu = mfunction_from_corner(m, "c0", random_vector(rng, labels, max_num, max_den))
        if uncoupled_centers(lam, mu):
            return m, lam, mu


def random_problem(rng: random.Random, max_vars=3, max_points=5) -> ReductionProblem:
    e = rng.randint(1, max_vars)
    t = rng.randint(1, max_points)
    labels = [f"z{i}" for i in range(1, e + 1)]
    rows = [
        [Fraction(rng.randint(0, 8), rng.randint(1, 6)) for _ in labels] for _ in range(t)
    ]
    return ReductionProblem(support_from_rows(labels, rows))


def random_reports(seed: int, count: int):
    """Reduce `count` random problems with a seeded generator."""
    rng = random.Random(seed)
    return [reduce_problem(random_problem(rng)) for _ in range(count)]


@functools.lru_cache(maxsize=1)
def shared_reports():
    """One batch of reduced random problems, shared across test modules."""
    return random_reports(seed=2024, count=8)


def corpus_c_problem() -> ReductionProblem:
    """Corpus C: seed 77, draw 14 of 4 variables x 6 points."""
    rng = random.Random(77)
    problems = [random_problem(rng, max_vars=4, max_points=6) for _ in range(15)]
    return problems[14]


def wide_probe_problem() -> ReductionProblem:
    """The third 6 x 3 wide probe (ROADMAP's wide corpus, drawn from
    `random.Random(2206)`): age 57, 403 end corners."""
    labels = [f"z{i}" for i in range(1, 7)]
    rows = [
        ["6/5", "3/5", "1/2", "2", "6", "3/4"],
        ["1/2", "1", "3", "1", "7/4", "1/2"],
        ["1", "3/5", "2", "2", "1/3", "3"],
    ]
    return ReductionProblem(support_from_rows(labels, rows))


@functools.lru_cache(maxsize=1)
def wide_probe_report():
    """`wide_probe_problem()` reduced once, shared across test modules."""
    return reduce_problem(wide_probe_problem())


@functools.lru_cache(maxsize=1)
def corpus_c_budget_stop(budget=5):
    """Corpus C stopped by the step budget; returns the raised
    BudgetExceededError, which carries the partial star."""
    try:
        reduce_problem(corpus_c_problem(), max_steps=budget)
    except BudgetExceededError as exc:
        return exc
    raise AssertionError("corpus C finished within the budget")


def sample_towers():
    """(problem, star) of every `shared_reports()` tower and of the corpus-C
    budget-5 tower."""
    towers = [(report.problem, report.star) for report in shared_reports()]
    return towers + [(corpus_c_problem(), corpus_c_budget_stop().star)]


def tower_manifolds():
    """Every manifold of every `sample_towers()` tower, roots included."""
    out = []
    for _, star in sample_towers():
        out.append(star.root)
        out.extend(step.after for step in star.steps)
    return out


def generators_along(problem, star):
    """The sweep's generators on the root of `star` and after each step."""
    points = minimal_support(problem.support).sorted_points()
    out = [[MFunction(star.root, {"c0": p}) for p in points]]
    for step in star.steps:
        out.append([pull_back_mfunction(g, step) for g in out[-1]])
    return out


def enumerated_label_sets(m):
    """The connectivity family `MonomialManifold.validate` once walked: every
    label set of size 1 to n-1 realized at a corner whose labels each lie
    on at least two corners, ~2^(n-1) sets once two corners share n-1
    labels.  An oracle for the pairwise family `_label_sets`, which is a
    subset of it."""
    shared = {lab for lab, ids in m._holders.items() if len(ids) > 1}
    return {
        frozenset(labels)
        for c in m.corners.values()
        for size in range(1, m.dimension)
        for labels in combinations(sorted(c.index_set & shared), size)
    }


def scanned_lifts(step):
    """The lift rule as `apply_center` once ran it, in its own loop over
    every edge of `before`: an edge with one blown end lifts at the child
    that drops the one center label off the edge, one with both ends blown
    lifts at both pairs of children that drop the same label, and each
    blown corner's identity lifts to its split edge.  Child ids are spelled
    from the parent's id and the removed label.  Maps each edge upstairs,
    by key, to the matrix downstairs it lifts: an oracle for
    `blowup._lift_table`."""
    m, pair = step.before, step.center_pair
    blown = set(m.corners_with(pair))

    def child_id(parent, removed):
        return f"{parent}.{_escaped(removed)}"

    lifts = {}
    for e in m.edges:
        if e.p not in blown and e.q not in blown:
            continue
        if e.p in blown and e.q in blown:
            removed_labels = pair
        else:
            removed_labels = pair - e.shared
            if len(removed_labels) != 1:
                raise AlgorithmInvariantViolation(
                    f"edge {e.p}->{e.q}: expected exactly one center label off the edge"
                )
        for removed in sorted(removed_labels):
            np_ = child_id(e.p, removed) if e.p in blown else e.p
            nq = child_id(e.q, removed) if e.q in blown else e.q
            lifts[(np_, nq)] = e.matrix
    lo, hi = sorted(pair)
    for cid in sorted(blown):
        lifts[(child_id(cid, lo), child_id(cid, hi))] = m.corner(cid).identity
    return lifts


def two_point_problem(n):
    """The one-step support `[2, 1, 1, …]`, `[0, 2, 1, …]` over `n` variables."""
    labels = [f"z{i}" for i in range(1, n + 1)]
    rows = [[2, 1] + [1] * (n - 2), [0, 2] + [1] * (n - 2)]
    return ReductionProblem(support_from_rows(labels, rows))


def dotted_id_manifold():
    """The worked instance after its one blow-up, loaded back with corner
    `c0.z2` renamed `c0.z1.z2`: the child of `c0.z1` that drops `z2` would
    take that id when `c0.z1` is blown up at {E∞1, z2}."""
    report = reduce_problem(
        ReductionProblem(support_from_rows(("z1", "z2"), [[2, 1], [0, 2]]))
    )
    text = canonical_dumps(manifold_to_json(report.star.end))
    return manifold_from_json(json.loads(text.replace('"c0.z2"', '"c0.z1.z2"')))
