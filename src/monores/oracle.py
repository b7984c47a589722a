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
*plan* holds its sorted column labels, its sorted row labels and, per
row, the `(position, entry)` terms of its nonzero entries, positions
into the sorted columns.  A check draws its samples a block of at most
`BLOCK` at a time, sample by sample and each label in sorted order, and
holds them as columns, one list of floats per label.  A plan maps such
a block to the block of its rows, each row summed from 0.0 term by term
in sorted label order; a lone 1.0 term returns its column itself, since
`0.0 + 1.0·x` is `x`.  Every sum thus runs as it would one sample at a
time, so the same star, samples and seed give the same float whatever
the block size and whatever the process's string hash seed, and memory
does not grow with the sample count.  A plan applied to columns other than
its own, or two blocks compared over different labels, is a
StructuralError.

The composite at every end corner comes from one forward pass over the
steps: a child's is its parent's times its chart (`mat_mul`), and a
corner no step touched has the identity.

This is the only place in the package where floats appear.
"""

from __future__ import annotations

import math
import random
from itertools import chain
from operator import sub
from typing import Callable, Iterator, NamedTuple

from .blowup import BlowupStep, Star
from .errors import DomainError, StructuralError
from .linalg import ExponentMatrix, mat_mul
from .manifold import Corner, Edge

SAMPLE_LOW = 2.0 ** -4  # keep points away from 0 so large exponents cannot underflow
_SAMPLE_SPAN = 1.0 - SAMPLE_LOW
BLOCK = 256  # samples evaluated together, so memory does not grow with the count
_BELOW_700 = (700.0).__gt__  # `abs(delta) < 700.0` is `_BELOW_700(abs(delta))`, NaN included

Labels = tuple[str, ...]
Columns = list[list[float]]  # one list of sample values per label


class Plan(NamedTuple):
    """A matrix as floats: its sorted labels and, per sorted row, the
    `(position in cols, entry)` terms of its nonzero entries, in order."""

    cols: Labels
    rows: Labels
    terms: tuple[tuple[tuple[int, float], ...], ...]


Planner = Callable[[ExponentMatrix], Plan]


def float_plan(matrix: ExponentMatrix) -> Plan:
    """The matrix's stored (nonzero) entries as floats, every row, rows and
    terms in sorted label order; each entry is `n / d` of its integer pair."""
    cols, rows, nonzero = matrix.sorted_cols, matrix.sorted_rows, matrix._nonzero
    at = {c: j for j, c in enumerate(cols)}
    terms = []
    for r in rows:
        row = []
        for c, (n, d) in sorted(nonzero.get(r, {}).items()):
            row.append((at[c], n / d))
        terms.append(tuple(row))
    return Plan(cols, rows, tuple(terms))


def apply_plan(plan: Plan, labels: Labels, xs: Columns) -> tuple[Labels, Columns]:
    """Evaluate a plan in log coordinates on a block of columns over
    `labels`; returns the block of its rows."""
    cols, rows, terms = plan
    if cols != labels:
        raise StructuralError(f"a matrix over columns {list(cols)} applied to {list(labels)}")
    out = []
    for row in terms:
        if len(row) == 1:
            j, w = row[0]
            out.append(xs[j] if w == 1.0 else [0.0 + w * x for x in xs[j]])
        elif row:
            j, w = row[0]
            acc = [0.0 + w * x for x in xs[j]]
            for j, w in row[1:]:
                acc = [s + w * x for s, x in zip(acc, xs[j])]
            out.append(acc)
        else:
            out.append([0.0] * len(xs[0]))
    return rows, out


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


def _sample_blocks(labels: Labels, samples: int, rng: random.Random) -> Iterator[Columns]:
    """`samples` positive points in log coordinates, drawn sample by sample,
    each in the order of `labels`, and yielded at most `BLOCK` at a time
    as one column per label."""
    n, log, draw = len(labels), math.log, rng.random
    for done in range(0, samples, BLOCK):
        count = min(BLOCK, samples - done)
        # `rng.uniform(SAMPLE_LOW, 1.0)`, which is documented as `a + (b - a) * random()`
        drawn = list(map(log, [SAMPLE_LOW + _SAMPLE_SPAN * draw() for _ in range(count * n)]))
        yield [drawn[j::n] for j in range(n)]


def _rel_err_log(a_labels: Labels, a: Columns, b_labels: Labels, b: Columns) -> float:
    """Relative error of the coordinate values, from their logarithms: a
    delta that is NaN, infinite or at least 700 in size reads infinite."""
    if a_labels != b_labels:
        raise StructuralError(f"blocks over {list(a_labels)} and {list(b_labels)} compared")
    deltas = list(map(sub, chain.from_iterable(a), chain.from_iterable(b)))
    if not all(map(_BELOW_700, map(abs, deltas))):
        return math.inf
    return max(map(abs, map(math.expm1, deltas)), default=0.0)


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
            labels = tuple(sorted(m.corner(e.p).index_set))
            there, back = plan_of(e.matrix), plan_of(e.inverse)
            for x_p in _sample_blocks(labels, samples, rng):
                x_back = apply_plan(back, *apply_plan(there, labels, x_p))
                worst = max(worst, _rel_err_log(labels, x_p, *x_back))
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
        labels = tuple(sorted(after.corner(e.p).index_set))
        down_p, down_q = plan_of(step.morphism(e.p)), plan_of(step.morphism(e.q))
        up_across = plan_of(e.matrix)
        for x_new_p in _sample_blocks(labels, samples, rng):
            x_old_p = apply_plan(down_p, labels, x_new_p)
            x_old_q = x_old_p if across is None else apply_plan(across, *x_old_p)
            x_old_q2 = apply_plan(down_q, *apply_plan(up_across, labels, x_new_p))
            worst = max(worst, _rel_err_log(*x_old_q, *x_old_q2))
    return worst


def _end_composites(star: Star) -> dict[str, tuple[ExponentMatrix, tuple[ExponentMatrix, ...]]]:
    """Per end corner id, its composite matrix and the chart matrices that
    make it, the latest step's first.

    One forward pass over the steps, keyed by corner object: a child's
    composite is its parent's times its chart, and a blown-up parent is
    dropped once its step is done.  A corner no step touched has its
    identity and no chart."""
    carried: dict[Corner, tuple[ExponentMatrix, tuple[ExponentMatrix, ...]]] = {}
    for step in star.steps:
        corners = step.after.corners
        for cid, chart in step.children.items():
            above = carried.get(chart.parent)
            if above is None:
                carried[corners[cid]] = chart.matrix, (chart.matrix,)
            else:
                carried[corners[cid]] = mat_mul(above[0], chart.matrix), (chart.matrix,) + above[1]
        for chart in step.children.values():
            carried.pop(chart.parent, None)
    return {
        cid: carried.get(corner) or (corner.identity, ()) for cid, corner in star.end.corners.items()
    }


def _composite_checks(star: Star, rng: random.Random, samples: int, plan_of: Planner) -> float:
    worst = 0.0
    if not star.steps:
        return worst
    composites = _end_composites(star)
    for cid in star.end.corner_ids():
        matrix, charts = composites[cid]
        composite = float_plan(matrix)
        stepwise = [plan_of(chart) for chart in charts]
        labels = tuple(sorted(star.end.corner(cid).index_set))
        for x_top in _sample_blocks(labels, samples, rng):
            direct = apply_plan(composite, labels, x_top)
            x = labels, x_top
            for plan in stepwise:
                x = apply_plan(plan, *x)
            worst = max(worst, _rel_err_log(*direct, *x))
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
