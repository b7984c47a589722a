"""Weighted blow-up of a codimension-two boundary stratum.

The center is an unordered pair of boundary components together with a
realizable standardizing weight family.  Every corner containing the pair
splits into two children, one per center label it drops; all other
corners persist with the identity morphism.  At a child that drops
`removed` and keeps `other`, the morphism matrix is the identity with
`removed` renamed to the new exceptional label `E`, plus one entry
`c = alpha[removed]/alpha[other]` at `(other, E)` (a `ChildChart`).

A `BlowupStep` records this once: its `children` map holds one
`ChildChart` per corner the step created, and a corner absent from it
was left untouched.  The morphism matrices, the lineage of every corner
and the pullback of exponent data are all read off that one record.

Edge matrices upstairs are the old ones conjugated by the morphisms,
`B_q⁻¹·M·B_p`.  Because each `B` is the identity plus one column, the
conjugation is one column step and one row step, and the lifted edge's
inverse is the same two steps, roles swapped, on the old inverse; no
general product or inversion runs, and no `B` is built.  The whole tower
stays exactly consistent: `validate` re-checks every manifold after
every step (exact inverses included) and the sampling oracle checks it
numerically.

A `Star` is the append-only record of a finite sequence of such blow-ups.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping

from .errors import AlgorithmInvariantViolation, DomainError, StructuralError
from .linalg import ExponentMatrix, ExponentVector, mat_mul
from .manifold import Corner, Edge, MonomialManifold, next_exceptional_label
from .standardization import GlobalStandardization, validate_realizable


@dataclass(frozen=True)
class BlowupCenter:
    """A realized label pair plus the weight family used to blow it up."""

    pair: frozenset[str]
    standardization: GlobalStandardization

    def __post_init__(self):
        if len(self.pair) != 2:
            raise DomainError("blow-up centers are unordered pairs of components")


@dataclass(frozen=True)
class ChildChart:
    """The morphism at a child corner: the identity plus one column.

    The child drops `removed` from the labels of its `parent` corner and
    gains `new_label`.  Its morphism matrix `B` (rows = parent labels,
    columns = child labels) is the identity with column `removed` renamed
    to `new_label`, plus the entry `c` at (`other`, `new_label`); it is
    built only when read, and then once.
    """

    parent: Corner
    removed: str
    other: str
    c: Fraction
    new_label: str

    @cached_property
    def matrix(self) -> ExponentMatrix:
        """`B` itself, over the parent's labels."""
        rows = self.parent.index_set
        cols = (rows - {self.removed}) | {self.new_label}
        one, zero = Fraction(1), Fraction(0)
        entries = {}
        for r in rows:
            for s in cols:
                if s != self.new_label:
                    entries[(r, s)] = one if r == s else zero
                elif r == self.removed:
                    entries[(r, s)] = one
                else:
                    entries[(r, s)] = self.c if r == self.other else zero
        return ExponentMatrix(rows, cols, entries)

    def pull_back(self, vec: ExponentVector) -> ExponentVector:
        """`vec·B` in O(n): the entries carry over, `removed` becomes
        `new_label`, and that entry gains `c` times the `other` entry."""
        entries = dict(vec.items())
        entries[self.new_label] = entries.pop(self.removed) + self.c * entries[self.other]
        return ExponentVector(entries)


def _conjugate(
    mat: ExponentMatrix, rows: ChildChart | None, cols: ChildChart | None
) -> ExponentMatrix:
    """`B_rows⁻¹ · mat · B_cols`; a missing chart stands for the identity.

    Column step (`· B`): the new column `E` is column `removed` plus `c`
    times column `other`, and column `removed` goes.  Row step (`B⁻¹ ·`,
    which is the identity with row `removed` renamed to `E` and `-c` at
    (`other`, `removed`)): row `E` is row `removed`, and row `other`
    becomes itself minus `c` times row `removed`.
    """
    row_labels, col_labels = mat.row_labels, mat.col_labels
    entries = {(r, s): mat.entry(r, s) for r in row_labels for s in col_labels}
    if cols is not None:
        gone, other, c, new = cols.removed, cols.other, cols.c, cols.new_label
        for r in row_labels:
            entries[(r, new)] = entries.pop((r, gone)) + c * entries[(r, other)]
        col_labels = (col_labels - {gone}) | {new}
    if rows is not None:
        gone, other, c, new = rows.removed, rows.other, rows.c, rows.new_label
        for s in col_labels:
            top = entries.pop((gone, s))
            entries[(new, s)] = top
            entries[(other, s)] -= c * top
        row_labels = (row_labels - {gone}) | {new}
    return ExponentMatrix(row_labels, col_labels, entries)


@dataclass(frozen=True)
class BlowupStep:
    """One blow-up: what was blown up, and what it changed.

    `children` is the step's one record per corner: a `ChildChart` for
    every corner of `after` that the step created.  A corner of `after`
    absent from it is a corner of `before`, left untouched with the
    identity morphism.  `morphism`, `lineage` and `pull_back` read that
    record for any corner id of `after`.
    """

    center_pair: frozenset[str]
    alpha_at_center: Mapping[str, ExponentVector]
    new_label: str
    before: MonomialManifold
    after: MonomialManifold
    children: Mapping[str, ChildChart]

    def morphism(self, corner_id: str) -> ExponentMatrix:
        """The matrix expressing the old coordinates at the image corner as
        monomials in the new ones (rows = image labels, columns = new labels):
        the child's `B`, or the untouched corner's shared identity."""
        chart = self.children.get(corner_id)
        return self.after.corner(corner_id).identity if chart is None else chart.matrix

    def lineage(self, corner_id: str) -> str:
        """The id of the corner of `before` that `corner_id` maps to."""
        chart = self.children.get(corner_id)
        return self.after.corner(corner_id).id if chart is None else chart.parent.id

    def pull_back(self, vec: ExponentVector, corner_id: str) -> ExponentVector:
        """`vec·B` for exponent data `vec` at the image corner: O(n) through
        the child's chart, and `vec` itself at an untouched corner."""
        chart = self.children.get(corner_id)
        image = self.after.corner(corner_id) if chart is None else chart.parent
        if vec.labels != image.index_set:
            raise StructuralError(f"vector labels do not match the image of {corner_id!r}")
        return vec if chart is None else chart.pull_back(vec)


@dataclass(frozen=True)
class Star:
    """A finite tower of blow-ups over a root manifold (append-only)."""

    root: MonomialManifold
    steps: tuple[BlowupStep, ...] = ()

    @property
    def age(self) -> int:
        return len(self.steps)

    @property
    def end(self) -> MonomialManifold:
        return self.steps[-1].after if self.steps else self.root

    def extended(self, step: BlowupStep) -> "Star":
        if step.before is not self.end:
            raise StructuralError("step does not start at the end of the star")
        return Star(self.root, self.steps + (step,))


def blow_up(m: MonomialManifold, center: BlowupCenter) -> BlowupStep:
    """Blow up a codimension-two center with a validated weight family."""
    if not center.pair <= m.components:
        raise DomainError(f"center {sorted(center.pair)} uses unknown components")
    holders = m.corners_with(center.pair)
    if not holders:
        raise DomainError(f"center {sorted(center.pair)} is realized by no corner")
    if not validate_realizable(m, center.standardization):
        raise DomainError("the weight family is not realizable on this manifold")
    alpha_at_center = {cid: center.standardization.alpha_at(cid) for cid in holders}
    return apply_center(m, center.pair, alpha_at_center)


def apply_center(
    m: MonomialManifold,
    pair: frozenset[str],
    alpha_at_center: Mapping[str, ExponentVector],
    new_label: str | None = None,
) -> BlowupStep:
    """Blow up from weights given only at the corners of the center.

    This is the replay entry point: the morphism matrices depend on the
    weights only at the blown-up corners, so a recorded trace carries just
    those.  Each blown corner `cid` splits into children `cid.<removed>`,
    one per center label.  A child id that is the id of a corner the step
    leaves untouched, or is made twice (possible when labels contain "."),
    raises AlgorithmInvariantViolation; the id of a blown corner is free
    again.  Edges are lifted by `_conjugate` with their inverses
    alongside, so no matrix is inverted here, and the result is still
    validated in full.
    """
    pair = frozenset(pair)
    if len(pair) != 2:
        raise DomainError("blow-up centers are unordered pairs of components")
    holders = m.corners_with(pair)
    if not holders:
        raise DomainError(f"center {sorted(pair)} is realized by no corner")
    if set(alpha_at_center) != set(holders):
        raise StructuralError("weights must be given exactly at the corners of the center")
    for cid, alpha in alpha_at_center.items():
        if alpha.labels != m.corner(cid).index_set or not alpha.is_positive():
            raise DomainError(f"bad weight vector at corner {cid!r}")
    if new_label is None:
        new_label = next_exceptional_label(m.components)
    if new_label in m.components:
        raise StructuralError(f"exceptional label {new_label!r} already in use")

    blown = set(holders)
    corners: list[Corner] = []
    children: dict[str, ChildChart] = {}

    def child_id(parent: str, removed: str) -> str:
        return f"{parent}.{removed}"

    for cid, corner in m.corners.items():
        if cid not in blown:
            corners.append(corner)
            continue
        alpha = alpha_at_center[cid]
        for removed in sorted(pair):
            (other,) = pair - {removed}
            nid = child_id(cid, removed)
            if nid in children or (nid in m.corners and nid not in blown):
                raise AlgorithmInvariantViolation(
                    f"child corner id {nid!r} of {cid!r} is already in use"
                )
            children[nid] = ChildChart(
                corner, removed, other, alpha[removed] / alpha[other], new_label
            )
            corners.append(Corner(nid, (corner.index_set - {removed}) | {new_label}))

    def lifted_edge(
        old: ExponentMatrix, inverse: ExponentMatrix, new_p: str, new_q: str, shared
    ) -> Edge:
        """`B_q⁻¹·old·B_p` from `new_p` to `new_q`, with `B_p⁻¹·inverse·B_q`."""
        at_p, at_q = children.get(new_p), children.get(new_q)
        return Edge(
            new_p, new_q, shared, _conjugate(old, at_q, at_p), _conjugate(inverse, at_p, at_q)
        )

    edges: list[Edge] = []
    for e in m.edges:
        p_blown = e.p in blown
        q_blown = e.q in blown
        if not p_blown and not q_blown:
            edges.append(e)
            continue
        if p_blown and q_blown:
            for removed in sorted(pair):
                np_, nq = child_id(e.p, removed), child_id(e.q, removed)
                shared = (e.shared - {removed}) | {new_label}
                edges.append(lifted_edge(e.matrix, e.inverse, np_, nq, shared))
            continue
        # exactly one endpoint splits: the lift removes the pair label that
        # is not shared with the untouched side
        outside = pair - e.shared
        if len(outside) != 1:
            raise AlgorithmInvariantViolation(
                f"edge {e.p}->{e.q}: expected exactly one center label off the edge"
            )
        (removed,) = outside
        if p_blown:
            np_, nq = child_id(e.p, removed), e.q
        else:
            np_, nq = e.p, child_id(e.q, removed)
        edges.append(lifted_edge(e.matrix, e.inverse, np_, nq, e.shared))

    lo, hi = sorted(pair)
    for cid in sorted(blown):
        a, b = child_id(cid, lo), child_id(cid, hi)
        index_set = m.corner(cid).index_set
        identity = ExponentMatrix.identity(index_set)
        edges.append(lifted_edge(identity, identity, a, b, (index_set - pair) | {new_label}))

    after = MonomialManifold(m.dimension, m.components | {new_label}, corners, edges)
    violations = after.validate()
    if violations:
        raise AlgorithmInvariantViolation(
            "blow-up produced an invalid manifold: " + "; ".join(violations)
        )
    return BlowupStep(
        center_pair=pair,
        alpha_at_center=dict(sorted(alpha_at_center.items())),
        new_label=new_label,
        before=m,
        after=after,
        children=children,
    )


def compose_star(star: Star, corner_id: str) -> ExponentMatrix:
    """Composite morphism matrix at an end-manifold corner.

    Equals the product of the per-step matrices along the corner's lineage,
    so pulling a vector through it matches the step-by-step pullback.
    """
    if corner_id not in star.end.corners:
        raise StructuralError(f"{corner_id!r} is not a corner of the end manifold")
    acc, cur = None, corner_id
    for step in reversed(star.steps):
        b = step.morphism(cur)
        acc = b if acc is None else mat_mul(b, acc)
        cur = step.lineage(cur)
    return star.root.corner(cur).identity if acc is None else acc
