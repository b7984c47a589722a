"""Floating-point sampling oracle for the exact combinatorial data.

Every matrix in the library *means* a monomial map between positive
orthants.  The oracle samples positive points, pushes them through the
maps in double precision, and measures how badly the commuting diagrams
close: edge round trips, blow-up squares (up one chart, across, down
versus across, then up), and composite-versus-stepwise pullbacks.  On
consistent data the worst relative error is at floating-point noise
level; a corrupted matrix shows up immediately.

A step carries every edge between two corners it leaves untouched into
the next manifold as the same object, so the oracle samples what the
tower built, not every manifold in full:
- the round trip of each distinct edge object, once, where it first
  appears (an edge replaced by another object is a new one);
- the blow-up square of every edge of `step.after`, except an edge
  object of `step.before` whose ends the step left untouched, whose two
  sides are the same float computation (`x·I·M` against `x·M·I`);
- the composite against the stepwise pullback at every end corner, over
  the steps that made it or an ancestor (an identity is a float no-op).

Monomial maps are evaluated through exp/log of positive floats.  The
checks themselves stay in log coordinates, where the maps are linear, so
towers with very large exponents cannot overflow; the reported figure is
still the relative error of the positive coordinate values, recovered as
|expm1(delta log)|.

Each matrix is turned into floats once per `numeric_oracle` call: its
*plan* lists, row by row, the nonzero entries as floats.  A check builds
the plans of its matrices before its sample loop and evaluates every
sample against them.  Rows, and the terms within a row, follow the
sorted label order, so the same star, samples and seed give the same
float in every process, whatever its string hash seed.

This is the only place in the package where floats appear.
"""

from __future__ import annotations

import math
import random
from typing import Callable

from .blowup import BlowupStep, Star, compose_star
from .errors import DomainError
from .linalg import ExponentMatrix
from .manifold import Edge

SAMPLE_LOW = 2.0 ** -4  # keep points away from 0 so large exponents cannot underflow

# Row by row, the nonzero entries as floats: ((row, ((col, entry), ...)), ...).
Plan = tuple[tuple[str, tuple[tuple[str, float], ...]], ...]
Planner = Callable[[ExponentMatrix], Plan]


def float_plan(matrix: ExponentMatrix) -> Plan:
    """The matrix's stored (nonzero) entries as floats, every row, rows and
    terms in sorted label order."""
    plan = []
    for r in matrix.sorted_rows:
        row = matrix._nonzero.get(r, {})
        plan.append((r, tuple((c, float(row[c])) for c in sorted(row))))
    return tuple(plan)


def apply_plan(plan: Plan, log_point: dict[str, float]) -> dict[str, float]:
    """Evaluate a plan in log coordinates, each row summed from 0.0 term by term."""
    out = {}
    for r, terms in plan:
        acc = 0.0
        for c, w in terms:
            acc += w * log_point[c]
        out[r] = acc
    return out


def _planner() -> Planner:
    """Plans memoized by matrix identity; the memo holds each matrix, so
    no id is reused while it lives."""
    memo: dict[int, tuple[ExponentMatrix, Plan]] = {}

    def plan_of(matrix: ExponentMatrix) -> Plan:
        hit = memo.get(id(matrix))
        if hit is None:
            hit = memo[id(matrix)] = (matrix, float_plan(matrix))
        return hit[1]

    return plan_of


def _sample_log_point(labels: list[str], rng: random.Random) -> dict[str, float]:
    """One positive point in log coordinates, drawn in the order of `labels`."""
    return {lab: math.log(rng.uniform(SAMPLE_LOW, 1.0)) for lab in labels}


def _rel_err_log(a: dict[str, float], b: dict[str, float]) -> float:
    """Relative error of the coordinate values, from their logarithms."""
    worst = 0.0
    for k, la in a.items():
        delta = la - b[k]
        err = abs(math.expm1(delta)) if abs(delta) < 700.0 else math.inf
        worst = max(worst, err)
    return worst


def _edge_round_trips(star: Star, rng: random.Random, samples: int, plan_of: Planner) -> float:
    """There and back along each distinct edge object of the tower, once, at
    its first appearance in `[root] + [s.after ...]` and in `m.edges` order.
    An edge a step carries over is the same object and is not sampled
    again; an edge replaced by another object is new, so it is sampled."""
    worst = 0.0
    seen: dict[int, Edge] = {}  # holds each edge, so no id is reused
    for m in [star.root] + [s.after for s in star.steps]:
        for e in m.edges:
            if id(e) in seen:
                continue
            seen[id(e)] = e
            labels = sorted(m.corner(e.p).index_set)
            there, back = plan_of(e.matrix), plan_of(e.inverse)
            for _ in range(samples):
                x_p = _sample_log_point(labels, rng)
                worst = max(worst, _rel_err_log(x_p, apply_plan(back, apply_plan(there, x_p))))
    return worst


def _blowup_squares(step: BlowupStep, rng: random.Random, samples: int, plan_of: Planner) -> float:
    """Up at one new corner, change chart upstairs, down -- versus down, then across.

    An edge object of `before` whose two ends the step left untouched is
    skipped: both morphisms are the identity and the chart change across
    is the edge's own matrix, so its two sides, `x·I·M` and `x·M·I`, are
    the same float operations.  Every other edge is sampled."""
    worst = 0.0
    before, after, children = step.before, step.after, step.children
    carried = {id(e) for e in before.edges}
    for e in after.edges:
        if id(e) in carried and e.p not in children and e.q not in children:
            continue
        a, b = step.lineage(e.p), step.lineage(e.q)
        across = None if a == b else plan_of(before.change_matrix(a, b))
        labels = sorted(after.corner(e.p).index_set)
        down_p, down_q = plan_of(step.morphism(e.p)), plan_of(step.morphism(e.q))
        up_across = plan_of(e.matrix)
        for _ in range(samples):
            x_new_p = _sample_log_point(labels, rng)
            x_old_p = apply_plan(down_p, x_new_p)
            x_old_q = x_old_p if across is None else apply_plan(across, x_old_p)
            x_old_q2 = apply_plan(down_q, apply_plan(up_across, x_new_p))
            worst = max(worst, _rel_err_log(x_old_q, x_old_q2))
    return worst


def _composite_checks(star: Star, rng: random.Random, samples: int, plan_of: Planner) -> float:
    worst = 0.0
    if not star.steps:
        return worst
    for cid in star.end.corner_ids():
        composite = plan_of(compose_star(star, cid))
        chain, cur = [], cid
        for step in reversed(star.steps):
            chart = step.children.get(cur)
            if chart is not None:
                chain.append(plan_of(chart.matrix))
                cur = chart.parent.id
        labels = sorted(star.end.corner(cid).index_set)
        for _ in range(samples):
            x_top = _sample_log_point(labels, rng)
            direct = apply_plan(composite, x_top)
            x = x_top
            for plan in chain:
                x = apply_plan(plan, x)
            worst = max(worst, _rel_err_log(direct, x))
    return worst


def numeric_oracle(star: Star, samples: int = 100, seed: int = 0) -> float:
    """Worst relative error over all commuting-diagram checks of the tower.

    At least one sample is needed: with none, every check passes vacuously
    (DomainError).  The value depends only on the star, `samples` and
    `seed`, not on the process's string hash seed.
    """
    if samples < 1:
        raise DomainError(f"the oracle needs at least one sample, got {samples}")
    rng = random.Random(seed)
    plan_of = _planner()
    worst = _edge_round_trips(star, rng, samples, plan_of)
    for step in star.steps:
        worst = max(worst, _blowup_squares(step, rng, samples, plan_of))
    worst = max(worst, _composite_checks(star, rng, samples, plan_of))
    return worst
