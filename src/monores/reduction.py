"""End-to-end driver: from a finite minimal support to a blow-up tower.

The input is the minimal support of a series in `e` generalized variables
at a corner, plus the dimension `k` of the ambient stratum (carried as
metadata only: the combinatorics happens entirely in the generalized
variables, and each center is reported as a product with the stratum
factor when k > 0).  The driver builds one monomial-function generator
per minimal support point on the corner chart and principalizes the ideal
they generate.  The end certificate (`certify_end`) is read off the
sweep's final generators, which already hold the pulled-back exponents:
at every end corner their minimal elements must form a singleton.  The
independent route, pushing the support through each corner's composite
morphism, is kept as a cross-check in the acceptance tests (criteria 3
and 7), in `tests/test_reduction.py` and in the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .blowup import Star
from .errors import AlgorithmInvariantViolation, DomainError, StructuralError, ZeroSeriesError
from .ideals import (
    DEFAULT_STEP_BUDGET,
    MFunction,
    MIdeal,
    PrincipalizationRun,
    principalize_generators,
)
from .linalg import ExponentVector, minimal_elements
from .manifold import MonomialManifold, make_corner
from .supports import SupportSet, minimal_support

ROOT_CORNER_ID = "c0"


@dataclass(frozen=True)
class ReductionProblem:
    """A nonempty support in the generalized variables, plus stratum metadata."""

    support: SupportSet
    stratum_dim: int = 0

    def __post_init__(self):
        if not self.support.points:
            raise ZeroSeriesError("cannot reduce the zero series")
        if self.stratum_dim < 0:
            raise DomainError("the stratum dimension must be nonnegative")

    @property
    def center_annotation(self) -> str:
        """How every center of the tower sits in the ambient product."""
        k = self.stratum_dim
        return f"ℝ^{k} × Z̄" if k > 0 else "Z̄"


@dataclass(frozen=True)
class CornerReport:
    """Final data at one end-manifold corner: a singleton minimal support."""

    corner: str
    index_set: tuple[str, ...]
    principal_exponent: ExponentVector
    generator_exponents: tuple[ExponentVector, ...]


@dataclass
class ReductionReport:
    """The tower plus per-corner certification and run statistics."""

    problem: ReductionProblem
    star: Star
    corners: list[CornerReport]
    pair_invariants: list[tuple[int, int, int]] = field(default_factory=list)
    new_uncoupled_counts: list[int] = field(default_factory=list)

    @property
    def age(self) -> int:
        return self.star.age


def root_corner_for(support: SupportSet) -> MonomialManifold:
    """The corner chart whose boundary components are the support variables."""
    return make_corner(support.variables, ROOT_CORNER_ID)


def build_ideal_from_support(support: SupportSet, m: MonomialManifold) -> MIdeal:
    """One generator per minimal support point, seeded at the single corner."""
    if not support.points:
        raise ZeroSeriesError("empty support")
    if len(m.corners) != 1:
        raise StructuralError("the ideal is seeded on a single-corner chart")
    (cid,) = m.corner_ids()
    if m.corner(cid).index_set != support.index_set:
        raise StructuralError("support variables do not match the corner chart")
    reduced = minimal_support(support)
    gens = [MFunction(m, {cid: point}) for point in reduced.sorted_points()]
    return MIdeal(m, gens)


def certify_end(run: PrincipalizationRun) -> list[CornerReport]:
    """The end certificate: one singleton minimal exponent per end corner.

    At each corner of the end manifold the final generators' exponents are
    the pulled-back support; their minimal elements must be a single
    point.  Anything else means the sweep stopped early: a bug, reported
    as AlgorithmInvariantViolation.
    """
    end = run.star.end
    corners: list[CornerReport] = []
    for cid in end.corner_ids():
        exponents = tuple(g.at(cid) for g in run.final_generators)
        minimal = minimal_elements(exponents)
        if len(minimal) != 1:
            raise AlgorithmInvariantViolation(
                f"minimal data at end corner {cid!r} is not a singleton"
            )
        corners.append(
            CornerReport(
                corner=cid,
                index_set=tuple(sorted(end.corner(cid).index_set)),
                principal_exponent=minimal[0],
                generator_exponents=exponents,
            )
        )
    return corners


def reduce_problem(
    problem: ReductionProblem, max_steps: int = DEFAULT_STEP_BUDGET
) -> ReductionReport:
    """Principalize the support ideal and certify singleton supports at the end.

    The certificate comes from the final generators (`certify_end`); the
    composite-morphism cross-check lives in the tests and the oracle.
    """
    root = root_corner_for(problem.support)
    ideal = build_ideal_from_support(problem.support, root)
    run = principalize_generators(root, ideal.generators, max_steps=max_steps)
    star = run.star
    if star.age != sum(inv for _, _, inv in run.pair_invariants):
        raise AlgorithmInvariantViolation(
            "tower age does not equal the sum of the pair obstruction counts"
        )
    return ReductionReport(
        problem=problem,
        star=star,
        corners=certify_end(run),
        pair_invariants=run.pair_invariants,
        new_uncoupled_counts=run.new_uncoupled_counts,
    )
