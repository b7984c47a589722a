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
conjugation is one column step and one row step; no general product
runs, and no `B` is built.  A new edge is its matrix: the sweep never
reads an inverse, and a reader of `Edge.inverse` gets it on first read,
in closed form (`linalg.mat_inverse`).  Every entry is a normalized
integer pair (see `linalg`): each step writes `top + c·x` on the pairs
of the three entries and normalizes each entry it keeps
once (`linalg._plus_times`), as the pullback through a `ChildChart`
does.  A chart's `c` is that pair too, divided on the weights' pairs and
normalized once by `apply_center`, so a step builds no `Fraction`.  Nor
does a step build label sets per matrix: each child's index set is made
once, held by its `ChildChart` and its `Corner` as one frozenset, and
every matrix built at the child takes that set whenever the input's
labels are its parent's, as on every validated manifold
(`_child_labels`); other labels are relabeled by set algebra.

One table defines the lifts (`_lift_table`): every edge the step must
build, with the edge downstairs it lifts, read off the edges at the
center.  `apply_center` computes it once, builds the new edges from it
and checks `after` against it (`BlowupStep.violations`, which computes
its own when called on a built step): the edges `after`
holds at the children must be exactly the table's, each with the checks
`validate` makes of one edge (`MonomialManifold._edge_violations`, which
reads invertibility off the triangular shape) and the conjugation
identity with the edge it lifts.
Construction and that identity share one column step: each lift's
`M·B_p` (`_times_b`) is computed once, the new edge is `B_q⁻¹` times it,
and the certificate checks `B_q·M'` against it, a row step that
multiplies by `B_q`, not by its inverse.  The connectivity of the label
sets through `E` is read off those lifts, which makes `after` valid
whenever `before` is.  Each step so proves what it built, not the whole
manifold, and a tower is proven by induction from a root that
`MonomialManifold.validate` checked in full, as `replay_trace` does; the
sampling oracle checks it numerically.

A `Star` is the append-only record of a finite sequence of such blow-ups.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .errors import AlgorithmInvariantViolation, DomainError, StructuralError
from .linalg import (
    _ZERO,
    ExponentMatrix,
    ExponentVector,
    Pair,
    _check_label,
    _normalized,
    _plus_times,
    _scaled,
    mat_mul,
)
from .manifold import Corner, Edge, MonomialManifold
from .standardization import GlobalStandardization, validate_realizable

# A matrix's nonzero rows (`ExponentMatrix._nonzero`).
Rows = Mapping[str, Mapping[str, Pair]]


@dataclass(frozen=True)
class ChildChart:
    """The morphism at a child corner: the identity plus one column.

    The child drops `removed` from the labels of its `parent` corner and
    gains `new_label`.  Its morphism matrix `B` (rows = parent labels,
    columns = child labels) is the identity with column `removed` renamed
    to `new_label`, plus the entry `c = alpha[removed]/alpha[other]` at
    (`other`, `new_label`), held as the normalized integer pair that every
    reader of the chart uses; `B` is built only when read, and then once,
    as `I·B`.  `index_set` is the child's, the very frozenset its `Corner`
    holds, so every matrix the step builds at the child carries it
    (`_child_labels`).
    """

    parent: Corner
    removed: str
    other: str
    c: Pair
    new_label: str
    index_set: frozenset[str]

    @cached_property
    def matrix(self) -> ExponentMatrix:
        """`B` itself, over the parent's labels: `I·B`, the column step
        that lifts the edges (`_times_b`) run on the parent's identity."""
        return ExponentMatrix._exact(self.parent.index_set, *_times_b(self.parent.identity, self))

    def pull_back(self, vec: ExponentVector) -> ExponentVector:
        """`vec·B` in O(n): the entries carry over, `removed` becomes
        `new_label`, and that entry gains `c` times the `other` entry
        (`_plus_times`, one new pair)."""
        entries = dict(vec._map)
        top = entries.pop(self.removed)
        entries[self.new_label] = _plus_times(top, self.c, entries[self.other])
        return ExponentVector._exact(entries)


def _child_labels(labels: frozenset[str], chart: ChildChart) -> frozenset[str]:
    """`labels` with `removed` replaced by `new_label`: the child's own
    `index_set` when `labels` are its parent's, as they are on a
    validated manifold, and otherwise a new set, so a corrupted input
    keeps the labels it would have had."""
    if labels == chart.parent.index_set:
        return chart.index_set
    return (labels - {chart.removed}) | {chart.new_label}


def _column_step(rows: Rows, chart: ChildChart) -> Rows:
    """`X·B` from the nonzero rows of `X`: the new column `E` is column
    `removed` plus `c` times column `other`, and column `removed` goes.
    Each new entry is one `_plus_times` on the integer pairs, kept unless
    it cancels to 0; no row empties, since `B` is invertible.  A row that
    holds neither column is the same dict in the result: stored rows are
    never mutated."""
    gone, other, c, new = chart.removed, chart.other, chart.c, chart.new_label
    out = {}
    for r, row in rows.items():
        if gone in row or other in row:
            row = dict(row)
            value = _plus_times(row.pop(gone, _ZERO), c, row.get(other, _ZERO))
            if value[0]:
                row[new] = value
        out[r] = row
    return out


def _row_step(rows: Rows, source: str, target: str, other: str, c: Pair) -> Rows:
    """From the nonzero rows of `X`: row `source` is renamed `target`, and
    row `other` gains `c` times it, each entry by one `_plus_times` on the
    integer pairs; an entry that cancels to 0 is dropped, and so is the
    row if it empties.  Only row `other` is a new dict.  `B⁻¹·X` (the
    identity with row `removed` renamed to `E` and `-c` at (`other`,
    `removed`)) is (`removed` → `E`, `-c`); `B·X` is (`E` → `removed`, `c`)."""
    if source not in rows:
        return rows
    out = dict(rows)
    moved = out[target] = out.pop(source)
    row = dict(out.pop(other, {}))
    for s, top in moved.items():
        value = _plus_times(row.pop(s, _ZERO), c, top)
        if value[0]:
            row[s] = value
    if row:
        out[other] = row
    return out


# A matrix times `B` (`_times_b`): its column labels and nonzero rows.
TimesB = tuple[frozenset[str], Rows]


def _times_b(mat: ExponentMatrix, chart: ChildChart | None) -> TimesB:
    """`mat·B` by one column step (`mat` itself when `chart` is None), as
    column labels and nonzero rows: the half of a lift that
    `apply_center` computes once for the new edge and for its
    conjugation identity."""
    if chart is None:
        return mat.col_labels, mat._nonzero
    return _child_labels(mat.col_labels, chart), _column_step(mat._nonzero, chart)


def _inverse_b_times(
    row_labels: frozenset[str], x: TimesB, chart: ChildChart | None
) -> ExponentMatrix:
    """`B⁻¹·X` for `X` given by `row_labels` and `_times_b`'s column
    labels and rows (`X` itself when `chart` is None): one row step."""
    col_labels, entries = x
    if chart is not None:
        cn, cd = chart.c
        entries = _row_step(entries, chart.removed, chart.new_label, chart.other, (-cn, cd))
        row_labels = _child_labels(row_labels, chart)
    return ExponentMatrix._exact(row_labels, col_labels, entries)


def _conjugation_holds(
    lifted: ExponentMatrix, old: ExponentMatrix, old_b_p: TimesB, at_q: ChildChart | None
) -> bool:
    """`B_q·lifted == old·B_p`, labels included, given `old·B_p`
    (`_times_b`, the column step the new edge was built from): one row
    step that multiplies by `B_q` (not `B_q⁻¹`, so this is not
    `_inverse_b_times` run again)."""
    left, rows = lifted._nonzero, lifted.row_labels
    if at_q is not None:
        left = _row_step(left, at_q.new_label, at_q.removed, at_q.other, at_q.c)
        if rows == at_q.index_set:
            rows = at_q.parent.index_set
        else:
            rows = (rows - {at_q.new_label}) | {at_q.removed}
    cols, right = old_b_p
    return left == right and rows == old.row_labels and cols == lifted.col_labels


def _lift_table(
    m: MonomialManifold, pair: frozenset[str], children: Mapping[str, ChildChart]
) -> dict[tuple[str, str], tuple[str, ExponentMatrix]]:
    """The blow-up's lift rule: every edge the step at `pair` must build,
    by key, with a tag naming it and the matrix downstairs it lifts, from
    the adjacency lists of `m` at the blown corners (the parents in
    `children`).  An edge with one blown end lifts once,
    at the child that drops the center label off the edge; one with both
    ends blown lifts twice, between the children that drop the same
    label; a blown corner's identity lifts to the split edge between its
    two children.  O(edges at the center).  An edge with one blown end
    and not exactly one center label off it raises
    AlgorithmInvariantViolation: `m` is not a valid manifold."""
    kid = {(chart.parent.id, chart.removed): cid for cid, chart in children.items()}
    blown = {p for p, _ in kid}
    lo, hi = sorted(pair)
    table: dict[tuple[str, str], tuple[str, ExponentMatrix]] = {}
    for b in sorted(blown):
        split = (f"the split edge of corner {b}", m.corner(b).identity)
        table[(kid[(b, lo)], kid[(b, hi)])] = split
        for nxt, e, forward in m._adjacency[b]:
            if nxt in blown:
                if not forward:
                    continue
                keys = [(kid[(e.p, r)], kid[(e.q, r)]) for r in (lo, hi)]
            else:
                off = pair - e.shared
                if len(off) != 1:
                    raise AlgorithmInvariantViolation(
                        f"edge {e.p}->{e.q}: expected exactly one center label off the edge"
                    )
                (r,) = off
                keys = [(kid[(b, r)], nxt) if forward else (nxt, kid[(b, r)])]
            lift = (f"the lift of edge {e.p}->{e.q}", e.matrix)
            table.update(dict.fromkeys(keys, lift))
    return table


@dataclass(frozen=True)
class BlowupStep:
    """One blow-up: what was blown up, and what it changed.

    `children` is the step's one record per corner: a `ChildChart` for
    every corner of `after` that the step created.  A corner of `after`
    absent from it is a corner of `before`, left untouched with the
    identity morphism.  `morphism` and `lineage` read that record for any
    corner id of `after`, and exponent data is pulled back through each
    child's own chart (`ChildChart.pull_back`).
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

    @cached_property
    def new_edges(self) -> tuple[Edge, ...]:
        """The edges of `after` that touch a child: every edge the step built.
        The others are edges of `before`, carried over as the same objects.
        Read off the children's adjacency lists, each edge once (from its
        `p` end when that is a child), in `after.edges`' order."""
        adjacency, children = self.after._adjacency, self.children
        touching = (
            e
            for cid in sorted(children)
            for nxt, e, forward in adjacency[cid]
            if forward or nxt not in children
        )
        return tuple(sorted(touching, key=Edge.key))

    def violations(self) -> list[str]:
        """The step's local certificate: checks what the step built, and
        returns the violations, empty if `after` is valid given that
        `before` is.

        Checked, from `children`, `new_edges` and the edges at the center:
        - each child's index set (size, labels, the parent's with `removed`
          replaced by `new_label`), unique among the children;
        - each new edge: the checks `MonomialManifold.validate` makes of
          one edge, by the same rule (`_edge_violations`: shared-set size,
          label sets, triangular form, positive diagonal, and
          invertibility, read off that shape as a nonempty new-label row,
          so no inverse is built here);
        - the new edges are exactly the lifts (`_lift_table`): one per edge
          downstairs with one blown end, two per edge with both ends
          blown, one split edge per blown corner, and nothing else;
        - the conjugation identity `B_q·M' == M·B_p` of each new edge with
          the matrix `M` it lifts (the identity for a split edge).

        The lift table and each lift's `M·B_p` (`_times_b`) are computed
        here; `apply_center` checks the step against the table and the
        column steps it built the edges from (`_violations`).

        Why that suffices when `before` is valid.  Untouched corners and
        the edges between them are the objects of `before`, already
        proven.  A new edge `M'` is invertible, as its shape shows, and
        its conjugation identity `B_q·M' == M·B_p` holds with `M` (an edge
        of `before` or an identity), `B_p` and `B_q` (each the identity
        plus one column, determinant ±1) invertible, so
        `M' = B_q⁻¹·M·B_p`.  Only children hold
        `new_label` `E`, so index sets can collide only among children.
        The conjugation identity maps a closed walk upstairs to a closed
        walk downstairs in which split edges are stays, so the walk's
        product is `B⁻¹·(a closed product downstairs)·B`, the identity.
        Every edge downstairs lifts, and split edges join siblings, so the
        corner graph and every label set without `E` stay connected, and
        every label stays on some corner.
        The lifts connect each set `J ∪ {E}` too, so none is enumerated
        (center `{i, j}`; child `x.j` of `x` drops `j`):
        - if `J` holds `i` but not `j` (or the reverse), its holders are
          the `x.j` over the holders `x` of `J ∪ {i, j}`, connected in
          `before`, and each edge `x–y` there lifts to `x.j–y.j`, which
          shares `J ∪ {E}`;
        - if `J` holds neither, both children of each such `x` hold it,
          the split edge joins them, and `x–y` lifts to `x.i–y.i`;
        - if `J` holds both, no corner holds it.
        """
        lifts = _lift_table(self.before, self.center_pair, self.children)
        children = self.children
        old_b_p = {key: _times_b(old, children.get(key[0])) for key, (_, old) in lifts.items()}
        return self._violations(lifts, old_b_p)

    def _violations(
        self,
        lifts: Mapping[tuple[str, str], tuple[str, ExponentMatrix]],
        old_b_p: Mapping[tuple[str, str], TimesB],
    ) -> list[str]:
        """`violations()` against `lifts`, the `_lift_table` of `before`
        at the center, and `old_b_p`, each lift's `M·B_p` by key, both
        computed by the caller."""
        after, new = self.after, self.new_label
        children = [after.corner(cid) for cid in self.children]
        bad = after._corner_violations(children)
        for child in children:
            chart = self.children[child.id]
            if child.index_set != (chart.parent.index_set - {chart.removed}) | {new}:
                bad.append(f"corner {child.id}: index set does not match its child chart")
        bad.extend(after._edge_violations(self.new_edges))
        built = {e.key() for e in self.new_edges}
        bad.extend(f"{tag} is missing" for key, (tag, _) in lifts.items() if key not in built)
        bad.extend(
            f"edge {p}->{q}: lifts no edge at the center" for p, q in sorted(built - lifts.keys())
        )
        if bad:
            return bad
        for e in self.new_edges:
            key, at_q = e.key(), self.children.get(e.q)
            if not _conjugation_holds(e.matrix, lifts[key][1], old_b_p[key], at_q):
                bad.append(f"edge {e.p}->{e.q}: B_q·M' differs from M·B_p downstairs")
        return bad


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


def blow_up(
    m: MonomialManifold, pair: frozenset[str], family: GlobalStandardization
) -> BlowupStep:
    """Blow up the center `pair` with a whole weight family, which is
    checked on every edge (`validate_realizable`) before `apply_center`
    reads it at the center's corners.  The sweep skips the family and
    calls `apply_center` with `adapted_weights`.  The pair itself is
    checked by `apply_center`."""
    if not validate_realizable(m, family):
        raise DomainError("the weight family is not realizable on this manifold")
    return apply_center(m, pair, {cid: family.alpha_at(cid) for cid in m.corners_with(pair)})


def _escaped(label: str) -> str:
    """`label` with `\\` written `\\\\` and `.` written `\\.`, so that
    an id splits into its parent's id and the label at its last unescaped
    dot; the identity on labels without either character."""
    return label.replace("\\", "\\\\").replace(".", "\\.")


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
    one per center label, with `\\` and `.` in the label escaped
    (`_escaped`).  An id then spells its root corner's id and the labels
    removed on the way up, so over a root whose corner ids hold neither
    `.` nor `\\`, an id names one corner throughout the tower.  A loaded
    manifold can bring its own dotted ids, so a child id that is the id
    of a corner the step leaves untouched, or is made twice, still raises
    AlgorithmInvariantViolation; the id of a blown corner is free again.
    The sweep calls this with `adapted_weights`; `blow_up` is the entry
    point for a whole weight family.  Edges with no blown end are carried
    over as they are; every other edge is built from the lift table
    (`_lift_table`), the one statement of which edges a step builds, by
    conjugation and with no inverse, so no matrix is inverted here.
    `after` is derived from `m` and that delta
    (`MonomialManifold._derived`): the step touches the blown corners,
    their edges and their labels' holders, never loops over an untouched
    corner or edge, and the default new label is `E∞k`, `k` one past
    the largest exceptional index in use (`m._exceptional_top`, kept on
    each manifold).  The result passes the
    step's local certificate (`BlowupStep.violations`), which checks
    `after` against the same table, computed once per step, or
    AlgorithmInvariantViolation is raised; that proves it valid when `m`
    is, so `m` must be a validated manifold, as every manifold the
    library builds or replays is.
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
        new_label = f"E∞{m._exceptional_top + 1}"
    _check_label(new_label)
    if new_label in m.components:
        raise StructuralError(f"exceptional label {new_label!r} already in use")

    blown = set(holders)
    kids: list[Corner] = []
    children: dict[str, ChildChart] = {}
    for cid in holders:
        corner = m.corners[cid]
        weights = alpha_at_center[cid]._map
        for removed in sorted(pair):
            (other,) = pair - {removed}
            nid = f"{cid}.{_escaped(removed)}"
            if nid in children or (nid in m.corners and nid not in blown):
                raise AlgorithmInvariantViolation(
                    f"child corner id {nid!r} of {cid!r} is already in use"
                )
            # alpha[removed] / alpha[other], divided on the pairs (the
            # weights are positive) and normalized once
            c = _normalized(*_scaled(weights[removed], weights[other], True))
            index_set = (corner.index_set - {removed}) | {new_label}
            children[nid] = ChildChart(corner, removed, other, c, new_label, index_set)
            kids.append(Corner(nid, index_set))

    lifts = _lift_table(m, pair, children)
    edges = []
    old_b_p: dict[tuple[str, str], TimesB] = {}
    for (p, q), (_, old) in lifts.items():
        right = old_b_p[(p, q)] = _times_b(old, children.get(p))
        edges.append(Edge(p, q, _inverse_b_times(old.row_labels, right, children.get(q))))

    after = MonomialManifold._derived(m, new_label, blown, kids, edges)
    step = BlowupStep(
        center_pair=pair,
        alpha_at_center=dict(sorted(alpha_at_center.items())),
        new_label=new_label,
        before=m,
        after=after,
        children=children,
    )
    violations = step._violations(lifts, old_b_p)
    if violations:
        raise AlgorithmInvariantViolation(
            "blow-up produced an invalid manifold: " + "; ".join(violations)
        )
    return step


def compose_star(star: Star, corner_id: str) -> ExponentMatrix:
    """Composite morphism matrix at an end-manifold corner.

    Equals the product of the per-step matrices along the corner's lineage,
    so pulling a vector through it matches the step-by-step pullback.  A
    step that left the corner untouched contributes an identity, so only
    the `ChildChart.matrix` of the steps that have the corner among their
    `children` is multiplied; a corner no step touched gets its root
    corner's shared identity.
    """
    if corner_id not in star.end.corners:
        raise StructuralError(f"{corner_id!r} is not a corner of the end manifold")
    acc, cur = None, corner_id
    for step in reversed(star.steps):
        chart = step.children.get(cur)
        if chart is not None:
            acc = chart.matrix if acc is None else mat_mul(chart.matrix, acc)
            cur = chart.parent.id
    return star.root.corner(cur).identity if acc is None else acc
