"""Standardizing weight families on a monomial manifold.

A local standardization at a corner is a strictly positive weight vector
over its index set (rescaling each boundary coordinate).  A family of
such vectors, one per corner, is realizable when the weights transform
along chart changes exactly like the diagonal of the change matrices; a
realizable family can be produced from a single local one plus one free
positive weight per boundary component not through that corner.

`extend` builds the whole family; `weights_at` gives the same vectors at
chosen corners only, which is what a blow-up reads (its center's corners).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import DomainError, StructuralError
from .linalg import (
    _ONE,
    ExponentVector,
    Pair,
    RatLike,
    _compare_sums,
    _normalized,
    parse_rational,
)
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
    pair.  The test is `realized_among` at every corner; the sweep runs
    it at the center's corners only.
    """
    if set(family.corner_ids()) != set(m.corner_ids()):
        return False
    for cid in m.corner_ids():
        if family.alpha_at(cid).labels != m.corner(cid).index_set:
            return False
    return realized_among(m, dict(family.items()))


def realized_among(m: MonomialManifold, weights: Mapping[str, ExponentVector]) -> bool:
    """The per-edge test on the edges between two of the corners that
    `weights` covers, and on no other edge: across an edge `p -> q`, the
    weight at `p` on each shared label is the edge's diagonal entry there
    times the weight at `q`, decided by cross-multiplying the pairs
    (`_compare_sums`)."""
    return not any(
        _compare_sums(
            [(weights[e.p]._entry(ell),)],
            [(e.matrix._entry(ell, ell), weights[e.q]._entry(ell))],
        )
        for e in m.edges_among(weights)
        for ell in e.shared
    )


def extend(
    m: MonomialManifold,
    local: LocalStandardization,
    beta: Mapping[str, RatLike] | None = None,
) -> GlobalStandardization:
    """Extend one local weight vector to a realizable family on the whole
    manifold: `weights_at` on every corner.  The sweep reads only the
    center's corners and calls `weights_at` itself."""
    for lab in sorted(m.components):
        if not m.corners_with([lab]):
            raise StructuralError(f"component {lab} lies on no corner")
    return GlobalStandardization(weights_at(m, local, m.corner_ids(), beta))


def weights_at(
    m: MonomialManifold,
    local: LocalStandardization,
    corner_ids: Iterable[str],
    beta: Mapping[str, RatLike] | None = None,
) -> dict[str, ExponentVector]:
    """The weight vectors of `extend`'s family, at the given corners only.

    For a component through the base corner the weight there is kept; for
    any other component the free parameter `beta` (default 1) is planted at
    the smallest-id corner on that component.  Only the components of the
    given corners are carried: each anchored weight goes along its
    component by one breadth-first pass (`MonomialManifold._carry_weight`),
    which stops once it has reached every given corner on that component,
    so each weight is the anchored value times a product of edge
    diagonals, each hop multiplying or dividing by one diagonal entry; no
    chart change is multiplied out.  `extend` gives every corner, so its
    walks are whole and check that each component is connected and each
    diagonal they cross positive; the sweep gives the center's corners on
    a manifold its step certificate has proven, where the rest of a walk
    would re-derive only that proven connectivity.  The walk carries
    unreduced integer pairs, normalized only at the given corners.  Each vector
    holds exactly its corner's labels, so it is wrapped without
    re-parsing (`ExponentVector._exact`).
    """
    base = m.corner(local.corner)
    if local.alpha.labels != base.index_set:
        raise StructuralError("local weights do not match the corner's index set")
    free = m.components - base.index_set
    beta = {k: parse_rational(v).as_integer_ratio() for k, v in (beta or {}).items()}
    unknown = set(beta) - free
    if unknown:
        raise StructuralError(f"free parameters for unknown components {sorted(unknown)}")
    for lab, (n, _) in beta.items():
        if n <= 0:
            raise DomainError(f"free parameter for {lab} must be positive")

    per_corner: dict[str, dict[str, Pair]] = {cid: {} for cid in corner_ids}
    labels = frozenset().union(*(m.corner(cid).index_set for cid in per_corner))
    for lab in sorted(labels):
        if lab in base.index_set:
            anchor, value = local.corner, local.alpha._map[lab]
        else:
            anchor, value = m.corners_with([lab])[0], beta.get(lab, _ONE)
        on_lab = [cid for cid in per_corner if lab in m.corners[cid].index_set]
        carried = m._carry_weight(lab, anchor, value, on_lab)
        for cid in on_lab:
            per_corner[cid][lab] = _normalized(*carried[cid])
    return {cid: ExponentVector._exact(entries) for cid, entries in per_corner.items()}
