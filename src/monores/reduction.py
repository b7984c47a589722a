"""End-to-end driver: from a finite minimal support to a blow-up tower.

The input is the minimal support of a series in `e` generalized variables
at a corner, plus the dimension `k` of the ambient stratum (carried as
metadata only: the combinatorics happens entirely in the generalized
variables, and each center is reported as a product with the stratum
factor when k > 0).  The driver seeds one monomial-function generator
per minimal support point on the corner chart (`build_ideal_from_support`,
the one seeding function, which `monores principalize` uses too) and
principalizes the ideal they generate.  `principalize_generators`
returns the run certified: the age identity holds and every end corner
has a singleton minimal exponent (`corners`).  The report is that run
plus the problem.  The independent route, pushing the support through
each corner's composite morphism, is kept as a cross-check in the
acceptance tests (criteria 3 and 7), in `tests/test_reduction.py` and
in the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, ZeroSeriesError
from .ideals import (
    DEFAULT_STEP_BUDGET,
    MFunction,
    MIdeal,
    PrincipalizationRun,
    principalize_generators,
)
from .manifold import make_corner
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


@dataclass
class ReductionReport(PrincipalizationRun):
    """The certified sweep of the support ideal, plus the problem it reduced."""

    problem: ReductionProblem


def build_ideal_from_support(support: SupportSet) -> MIdeal:
    """One generator per support point, in sorted order, on the corner
    chart whose boundary components are the support's variables."""
    m = make_corner(support.variables, ROOT_CORNER_ID)
    return MIdeal(m, [MFunction(m, {ROOT_CORNER_ID: p}) for p in support.sorted_points()])


def reduce_problem(
    problem: ReductionProblem, max_steps: int = DEFAULT_STEP_BUDGET
) -> ReductionReport:
    """Principalize the ideal of the minimal support; the run comes back
    certified (`principalize_generators`)."""
    ideal = build_ideal_from_support(minimal_support(problem.support))
    run = principalize_generators(ideal.manifold, ideal.generators, max_steps=max_steps)
    return ReductionReport(problem=problem, **vars(run))
