"""Standardizing weight families on a monomial manifold.

A local standardization at a corner is a strictly positive weight vector
over its index set (rescaling each boundary coordinate).  A family of
such vectors, one per corner, is realizable when the weights transform
along chart changes exactly like the diagonal of the change matrices; a
realizable family can be produced from a single local one plus one free
positive weight per boundary component not through that corner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import DomainError, StructuralError
from .linalg import ExponentVector, Rat, RatLike, parse_rational
from .manifold import MonomialManifold


@dataclass(frozen=True)
class LocalStandardization:
    """A strictly positive weight vector attached to one corner."""

    corner: str
    alpha: ExponentVector

    def __post_init__(self):
        if not self.alpha.is_positive():
            raise DomainError(f"weights at {self.corner!r} must be strictly positive")


class GlobalStandardization:
    """One positive weight vector per corner, keyed by corner id."""

    __slots__ = ("_by_corner",)

    def __init__(self, per_corner: Mapping[str, ExponentVector]):
        entries = {}
        for cid, alpha in sorted(per_corner.items()):
            if not alpha.is_positive():
                raise DomainError(f"weights at corner {cid!r} must be strictly positive")
            entries[cid] = alpha
        self._by_corner = entries

    def corner_ids(self) -> list[str]:
        return list(self._by_corner)

    def alpha_at(self, corner_id: str) -> ExponentVector:
        try:
            return self._by_corner[corner_id]
        except KeyError:
            raise StructuralError(f"no weights stored for corner {corner_id!r}") from None

    def items(self):
        return self._by_corner.items()

    def restrict(self, corner_id: str) -> LocalStandardization:
        return LocalStandardization(corner_id, self.alpha_at(corner_id))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GlobalStandardization):
            return NotImplemented
        return self._by_corner == other._by_corner

    def __repr__(self) -> str:
        return f"GlobalStandardization({self._by_corner!r})"


def validate_realizable(m: MonomialManifold, family: GlobalStandardization) -> bool:
    """True iff the family transforms by the diagonal weights on every edge.

    Checking edges suffices: the diagonal weights compose multiplicatively
    along edge paths, so edge-level agreement propagates to every corner
    pair.
    """
    if set(family.corner_ids()) != set(m.corner_ids()):
        return False
    for cid in m.corner_ids():
        if family.alpha_at(cid).labels != m.corner(cid).index_set:
            return False
    for e in m.edges:
        alpha_p = family.alpha_at(e.p)
        alpha_q = family.alpha_at(e.q)
        for ell in e.shared:
            # gamma^{pq}_ell is the diagonal entry of the stored edge matrix
            if alpha_p[ell] != e.matrix.entry(ell, ell) * alpha_q[ell]:
                return False
    return True


def extend(
    m: MonomialManifold,
    local: LocalStandardization,
    beta: Mapping[str, RatLike] | None = None,
) -> GlobalStandardization:
    """Extend one local weight vector to a realizable family on the whole manifold.

    For a component through the base corner the weight there is kept; for
    any other component the free parameter `beta` (default 1) is planted at
    the smallest-id corner on that component.  Each component's anchored
    weight is then carried to every corner on it by one breadth-first pass
    (`MonomialManifold.transport_weight`), so each weight is the anchored
    value times a product of edge diagonals, each hop multiplying or
    dividing by one diagonal entry; no chart change is multiplied out.
    """
    base = m.corner(local.corner)
    if local.alpha.labels != base.index_set:
        raise StructuralError("local weights do not match the corner's index set")
    free = m.components - base.index_set
    beta = {k: parse_rational(v) for k, v in (beta or {}).items()}
    unknown = set(beta) - free
    if unknown:
        raise StructuralError(f"free parameters for unknown components {sorted(unknown)}")
    for lab, val in beta.items():
        if val <= 0:
            raise DomainError(f"free parameter for {lab} must be positive")

    per_corner: dict[str, dict[str, Rat]] = {cid: {} for cid in m.corner_ids()}
    for lab in sorted(m.components):
        if lab in base.index_set:
            anchor, value = local.corner, local.alpha[lab]
        else:
            holders = m.corners_with([lab])
            if not holders:
                raise StructuralError(f"component {lab} lies on no corner")
            anchor, value = holders[0], beta.get(lab, Rat(1))
        for cid, weight in m.transport_weight(lab, anchor, value).items():
            per_corner[cid][lab] = weight
    return GlobalStandardization(
        {cid: ExponentVector(entries) for cid, entries in per_corner.items()}
    )
