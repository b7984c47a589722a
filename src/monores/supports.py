"""Finite support combinatorics for series with rational exponents.

A series enters the algorithm only through its finite set of exponent
tuples.  This module knows how to reduce a support to its minimal
elements and push a support through a nonnegative exponent matrix.
"""

from __future__ import annotations

from typing import Iterable

from .errors import DomainError, StructuralError
from .linalg import ExponentMatrix, ExponentVector, _sorted_vectors, minimal_elements, vec_apply


class SupportSet:
    """A finite set of nonnegative exponent vectors over named variables.

    `variables` is an ordered tuple (it fixes column order in files); the
    points themselves are an unordered set.
    """

    __slots__ = ("variables", "points")

    def __init__(self, variables: Iterable[str], points: Iterable[ExponentVector]):
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise StructuralError("duplicate variable names")
        labels = frozenset(self.variables)
        pts = list(points)
        for p in pts:  # in the order given, so an error names the first bad point
            if p.labels != labels:
                raise StructuralError(
                    f"point over {sorted(p.labels)} does not match variables {sorted(labels)}"
                )
            if not p.is_nonnegative():
                raise DomainError(f"support point with a negative entry: {p!r}")
        self.points = frozenset(pts)

    @property
    def index_set(self) -> frozenset[str]:
        return frozenset(self.variables)

    def sorted_points(self) -> list[ExponentVector]:
        """The points ordered by their entries in sorted label order."""
        return _sorted_vectors(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SupportSet):
            return NotImplemented
        return self.index_set == other.index_set and self.points == other.points

    def __hash__(self) -> int:
        return hash((self.index_set, self.points))

    def __repr__(self) -> str:
        pts = ", ".join(repr(tuple(str(x) for _, x in p.items())) for p in self.sorted_points())
        return f"SupportSet(vars={list(self.variables)}, points=[{pts}])"


def support_from_rows(variables: Iterable[str], rows: Iterable[Iterable]) -> SupportSet:
    """Build a support set from per-point entry rows aligned with `variables`."""
    varlist = list(variables)
    pts = []
    for row in rows:
        row = list(row)
        if len(row) != len(varlist):
            raise StructuralError("support row length does not match variable count")
        pts.append(ExponentVector(dict(zip(varlist, row))))
    return SupportSet(varlist, pts)


def minimal_support(s: SupportSet) -> SupportSet:
    """Keep only the points not strictly dominated in the division order."""
    return SupportSet(s.variables, minimal_elements(s.points))


def pullback_support(s: SupportSet, b: ExponentMatrix, minimize: bool = False) -> SupportSet:
    """Push every point through a nonnegative exponent matrix (row-vector side).

    With `minimize` the image is reduced to its minimal elements.  When `b`
    is invertible the raw image has the same cardinality as the input.
    """
    if s.index_set != b.row_labels:
        raise StructuralError("support variables do not match the matrix rows")
    if not b.is_nonnegative():
        raise DomainError("pullback matrices must be entrywise nonnegative")
    image = [vec_apply(p, b) for p in s.points]
    if minimize:
        image = minimal_elements(image)
    return SupportSet(sorted(b.col_labels), image)

