"""Floating-point sampling oracle for the exact combinatorial data.

Every matrix in the library *means* a monomial map between positive
orthants.  The oracle samples positive points, pushes them through the
maps in double precision, and measures how badly the commuting diagrams
close: edge round trips, blow-up squares (up one chart, across, down
versus across, then up), and composite-versus-stepwise pullbacks.  On
consistent data the worst relative error is at floating-point noise
level; a corrupted matrix shows up immediately.

Monomial maps are evaluated through exp/log of positive floats.  The
checks themselves stay in log coordinates, where the maps are linear, so
towers with very large exponents cannot overflow; the reported figure is
still the relative error of the positive coordinate values, recovered as
|expm1(delta log)|.

This is the only place in the package where floats appear.
"""

from __future__ import annotations

import math
import random

from .blowup import BlowupStep, Star, compose_star
from .errors import DomainError
from .linalg import ExponentMatrix
from .manifold import MonomialManifold

SAMPLE_LOW = 2.0 ** -4  # keep points away from 0 so large exponents cannot underflow


def _sample_log_point(labels, rng: random.Random) -> dict[str, float]:
    return {lab: math.log(rng.uniform(SAMPLE_LOW, 1.0)) for lab in sorted(labels)}


def monomial_map_log(matrix: ExponentMatrix, log_point: dict[str, float]) -> dict[str, float]:
    """The monomial map in log coordinates, where it is linear."""
    out = {}
    for r in matrix.row_labels:
        acc = 0.0
        for c in matrix.col_labels:
            e = matrix.entry(r, c)
            if e:
                acc += float(e) * log_point[c]
        out[r] = acc
    return out


def monomial_map(matrix: ExponentMatrix, point: dict[str, float]) -> dict[str, float]:
    """Evaluate the monomial map at a positive point.

    Rows index the target coordinates: target_r = prod_c point_c ** M(r,c).
    """
    logs = {lab: math.log(point[lab]) for lab in matrix.col_labels}
    return {r: math.exp(v) for r, v in monomial_map_log(matrix, logs).items()}


def _rel_err_log(a: dict[str, float], b: dict[str, float]) -> float:
    """Relative error of the coordinate values, from their logarithms."""
    worst = 0.0
    for k, la in a.items():
        delta = la - b[k]
        err = abs(math.expm1(delta)) if abs(delta) < 700.0 else math.inf
        worst = max(worst, err)
    return worst


def _edge_round_trips(m: MonomialManifold, rng: random.Random, samples: int) -> float:
    worst = 0.0
    for e in m.edges:
        for _ in range(samples):
            x_p = _sample_log_point(m.corner(e.p).index_set, rng)
            x_q = monomial_map_log(e.matrix, x_p)
            back = monomial_map_log(e.inverse, x_q)
            worst = max(worst, _rel_err_log(x_p, back))
    return worst


def _blowup_squares(step: BlowupStep, rng: random.Random, samples: int) -> float:
    """Up at one new corner, change chart upstairs, down -- versus down, then across."""
    worst = 0.0
    before, after = step.before, step.after
    for e in after.edges:
        a, b = step.lineage(e.p), step.lineage(e.q)
        across = None if a == b else before.change_matrix(a, b)
        for _ in range(samples):
            x_new_p = _sample_log_point(after.corner(e.p).index_set, rng)
            x_old_p = monomial_map_log(step.morphism(e.p), x_new_p)
            x_old_q = x_old_p if across is None else monomial_map_log(across, x_old_p)
            x_new_q = monomial_map_log(e.matrix, x_new_p)
            x_old_q2 = monomial_map_log(step.morphism(e.q), x_new_q)
            worst = max(worst, _rel_err_log(x_old_q, x_old_q2))
    return worst


def _composite_checks(star: Star, rng: random.Random, samples: int) -> float:
    worst = 0.0
    if not star.steps:
        return worst
    for cid in star.end.corner_ids():
        composite = compose_star(star, cid)
        for _ in range(samples):
            x_top = _sample_log_point(star.end.corner(cid).index_set, rng)
            direct = monomial_map_log(composite, x_top)
            x, cur = x_top, cid
            for step in reversed(star.steps):
                x = monomial_map_log(step.morphism(cur), x)
                cur = step.lineage(cur)
            worst = max(worst, _rel_err_log(direct, x))
    return worst


def numeric_oracle(star: Star, samples: int = 100, seed: int = 0) -> float:
    """Worst relative error over all commuting-diagram checks of the tower.

    At least one sample is needed: with none, every check passes vacuously
    (DomainError).
    """
    if samples < 1:
        raise DomainError(f"the oracle needs at least one sample, got {samples}")
    rng = random.Random(seed)
    worst = 0.0
    for m in [star.root] + [s.after for s in star.steps]:
        worst = max(worst, _edge_round_trips(m, rng, samples))
    for step in star.steps:
        worst = max(worst, _blowup_squares(step, rng, samples))
    worst = max(worst, _composite_checks(star, rng, samples))
    return worst
