"""Combinatorial model of a monomial manifold.

A manifold is stored as its corner points (each carrying the index set of
boundary components through it) together with its compact edges, each
annotated by the exact exponent matrix of the coordinate change between
the two corner charts.  Everything else (chart changes between arbitrary
corners, diagonal weight functions, codimension-two centers) is derived
from that data, and `validate` checks the structural constraints that
make the derivations consistent: triangular edge matrices, exact mutual
inverses, identity products around cycles, and connectivity of every
boundary intersection, walked on the labels each two corners share.  A
blow-up re-runs the per-corner and per-edge checks only on what it built
(`BlowupStep.violations`), and checks an edge's inverse only if the edge
already holds one; `validate` checks every edge's inverse, computed on
first read in closed form (`Edge.inverse`).  The corner graph is
searched by one breadth-first walk, `MonomialManifold._walk`: every
derivation carries its value forward along it, hop by hop from its start
corner, and every check folds it.

A blow-up builds its manifold from its parent plus what it changed
(`MonomialManifold._derived`): the corner and edge orders are the
parent's with the blown corners and their edges spliced out and the new
ones merged in, and the adjacency lists and the label index are shallow
copies of the parent's with new lists only where the step touched.  No
list is ever mutated once stored, so parent and child share the rest,
and a step's bookkeeping costs what it built, plus C-level copies of the
parent's dicts and tuple.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import attrgetter, itemgetter
from typing import Callable, Collection, Iterable, Iterator, Sequence, TypeVar

from .errors import (
    ConnectivityError,
    DomainError,
    SingularMatrixError,
    StructuralError,
)
from .linalg import (
    _ZERO,
    ExponentMatrix,
    ExponentVector,
    Pair,
    _fraction,
    _product_equals,
    _scaled,
    mat_inverse,
    mat_mul,
)

_EXC_LABEL = re.compile(r"E∞(\d+)\Z")
T = TypeVar("T")


@dataclass(frozen=True)
class Corner:
    """A corner point: an id and the boundary components through it."""

    id: str
    index_set: frozenset[str]

    @cached_property
    def identity(self) -> ExponentMatrix:
        """The identity on the corner's labels, built once per corner and
        labeled by the corner's own `index_set` object.

        A corner that a blow-up leaves untouched is carried into the new
        manifold as the same object, so every step it survives shares
        this one matrix as its morphism.  The inverse check of an edge
        does not build it: it tests against the identity without one
        (`linalg._product_equals`).
        """
        return ExponentMatrix.identity(self.index_set)


class Edge:
    """A compact edge between two corners, with its chart-change matrix.

    The stored matrix codifies the coordinates of `q` as monomials in the
    coordinates of `p` (rows indexed by the labels of `q`, columns by the
    labels of `p`).  The shared labels are read off the matrix: those that
    index both a row and a column, which is `I_p ∩ I_q` whenever the matrix
    is indexed as `MonomialManifold.validate` requires.  The reverse
    direction is the exact inverse.  A caller that already knows it may
    pass it as `inverse`; otherwise it is computed once, on first read, by
    `mat_inverse`, in closed form for a matrix of the shape `validate`
    requires.  A blow-up passes none, and the sweep reads none.  Either
    way `MonomialManifold.validate` checks that its product with the
    matrix is the identity (`linalg._product_equals`), so a passed
    inverse is checked, not trusted.
    """

    __slots__ = ("p", "q", "shared", "matrix", "__dict__")

    def __init__(
        self, p: str, q: str, matrix: ExponentMatrix, inverse: ExponentMatrix | None = None
    ):
        self.p = p
        self.q = q
        self.shared = matrix.row_labels & matrix.col_labels
        self.matrix = matrix
        if inverse is not None:
            self.__dict__["inverse"] = inverse

    @cached_property
    def inverse(self) -> ExponentMatrix:
        return mat_inverse(self.matrix)

    def key(self) -> tuple[str, str]:
        return (self.p, self.q)

    def diagonal(self, label: str) -> Fraction:
        """The matrix entry at (label, label) for a shared label; must be > 0."""
        return _fraction(self._diagonal(label))

    def _diagonal(self, label: str) -> Pair:
        """`diagonal` as its integer pair, its sign read off the numerator
        (the denominator is positive)."""
        d = self.matrix._entry(label, label)
        if d[0] <= 0:
            raise StructuralError(
                f"nonpositive diagonal at {label} on edge {self.p}->{self.q}: corrupt chart data"
            )
        return d

    def __repr__(self) -> str:
        return f"Edge({self.p!r} -> {self.q!r}, shared={sorted(self.shared)})"


# The sort keys of the corner and edge orders, as C-level getters.
_corner_id = attrgetter("id")
_edge_key = attrgetter("p", "q")
_neighbour = itemgetter(0)


def _spliced(
    items: Sequence[T], gone: Sequence[T], new: Sequence[T], key: Callable | None = None
) -> list[T]:
    """`items`, sorted by `key` (default: themselves) with distinct keys,
    without the items of `gone` and merged with those of `new`, both
    sorted the same way: one bisect per gone or new item and slice copies
    between them, so no key is computed for an item that stays."""
    kept: list[T] = []
    start = 0
    for x in gone:
        i = bisect_left(items, x if key is None else key(x), start, key=key)
        kept += items[start:i]
        start = i + 1
    kept += items[start:]
    out: list[T] = []
    start = 0
    for x in new:
        i = bisect_left(kept, x if key is None else key(x), start, key=key)
        out += kept[start:i]
        out.append(x)
        start = i
    out += kept[start:]
    return out


class MonomialManifold:
    """Corners plus edges; immutable once constructed.

    Blow-ups build new manifolds rather than mutating, each from its
    parent (`_derived`).
    """

    def __init__(
        self,
        dimension: int,
        components: Iterable[str],
        corners: Iterable[Corner],
        edges: Iterable[Edge] = (),
    ):
        if dimension < 1:
            raise StructuralError("dimension must be at least 1")
        self.dimension = int(dimension)
        self.components = frozenset(components)
        self.corners: dict[str, Corner] = {}
        for c in sorted(corners, key=lambda c: c.id):
            if c.id in self.corners:
                raise StructuralError(f"duplicate corner id {c.id!r}")
            self.corners[c.id] = c
        self.edges = tuple(sorted(edges, key=_edge_key))

    @classmethod
    def _derived(
        cls,
        parent: "MonomialManifold",
        new_label: str,
        blown: Collection[str],
        children: Iterable[Corner],
        new_edges: Iterable[Edge],
    ) -> "MonomialManifold":
        """The manifold a blow-up of `parent` builds, from the step's delta:
        the blown corner ids, the children (their ids new or blown ones)
        and the new edges, every edge with an end at a child.  It equals
        the public constructor's manifold on the same corners and edges,
        its two caches included:
        - the corner and edge orders are `parent`'s without the blown
          corners and the edges at them, merged with the sorted new ones
          (`_spliced`);
        - `_adjacency` is a shallow copy of `parent`'s, with new lists at
          the children and at the untouched neighbours of blown corners;
        - `_holders` is a shallow copy of `parent`'s, with new lists for
          the labels of the blown corners and of the children;
        - `_exceptional_top` is `parent`'s, raised to the new label's
          index.
        Every other list is `parent`'s own; none is mutated.  Both caches
        go in the instance dict, where `cached_property` looks first.  The
        caller vouches for the delta (`apply_center` builds it from the
        lift table and checks the result against it).
        """
        m = object.__new__(cls)
        m.dimension = parent.dimension
        m.components = parent.components | {new_label}
        gone = sorted(blown)
        kids = sorted(children, key=_corner_id)
        built = sorted(new_edges, key=_edge_key)
        old_corners, old_adjacency = parent.corners, parent._adjacency
        ids = _spliced(list(old_corners), gone, [c.id for c in kids])
        lookup = old_corners | {c.id: c for c in kids}
        m.corners = dict(zip(ids, map(lookup.__getitem__, ids)))
        at_blown = {e for b in gone for _, e, _ in old_adjacency[b]}
        m.edges = tuple(
            _spliced(parent.edges, sorted(at_blown, key=_edge_key), built, _edge_key)
        )

        adjacency = dict(old_adjacency)
        for b in gone:
            del adjacency[b]
        rebuilt: dict[str, list[tuple[str, Edge, bool]]] = {c.id: [] for c in kids}
        for b in gone:
            for nxt, _, _ in old_adjacency[b]:
                if nxt not in blown and nxt not in rebuilt:
                    rebuilt[nxt] = [t for t in adjacency[nxt] if t[0] not in blown]
        for e in built:
            rebuilt[e.p].append((e.q, e, True))
            rebuilt[e.q].append((e.p, e, False))
        for lst in rebuilt.values():
            lst.sort(key=_neighbour)
        adjacency.update(rebuilt)

        drop: dict[str, list[str]] = {}
        for b in gone:
            for lab in old_corners[b].index_set:
                drop.setdefault(lab, []).append(b)
        add: dict[str, list[str]] = {}
        for c in kids:
            for lab in c.index_set:
                add.setdefault(lab, []).append(c.id)
        holders = dict(parent._holders)
        for lab in sorted(drop.keys() | add.keys()):
            # a blown corner's label stays on a child, so no list empties
            holders[lab] = _spliced(holders.get(lab, ()), drop.get(lab, ()), add.get(lab, ()))

        m.__dict__["_adjacency"] = adjacency
        m.__dict__["_holders"] = holders
        m.__dict__["_exceptional_top"] = max(
            parent._exceptional_top, _exceptional_index(new_label)
        )
        return m

    # -- basic accessors ------------------------------------------------

    def corner(self, corner_id: str) -> Corner:
        try:
            return self.corners[corner_id]
        except KeyError:
            raise StructuralError(f"no corner {corner_id!r}") from None

    def corner_ids(self) -> list[str]:
        return list(self.corners)

    def corners_with(self, labels: Iterable[str]) -> list[str]:
        """Ids of corners whose index set contains all given labels, sorted.

        Reads the label index: the holders of the label with the fewest,
        filtered by the other labels.  No labels means every corner.
        """
        need = frozenset(labels)
        if not need:
            return list(self.corners)
        shortest = min((self._holders.get(lab, ()) for lab in need), key=len)
        return [cid for cid in shortest if need <= self.corners[cid].index_set]

    @cached_property
    def _holders(self) -> dict[str, list[str]]:
        """Each label's corner ids in sorted order, built in one pass over
        the corners on first use (or by `_derived`)."""
        index: dict[str, list[str]] = {}
        for cid, c in self.corners.items():
            for lab in c.index_set:
                index.setdefault(lab, []).append(cid)
        return index

    def edges_among(self, corner_ids: Iterable[str]) -> list[Edge]:
        """The edges with both endpoints among the given corners, found
        through the corners' own adjacency lists."""
        ids = set(corner_ids)
        return [
            e
            for cid in sorted(ids)
            for nxt, e, forward in self._adjacency[cid]
            if forward and nxt in ids
        ]

    @cached_property
    def _adjacency(self) -> dict[str, list[tuple[str, Edge, bool]]]:
        """Each corner's `(neighbour, edge, forward)` entries, sorted by
        neighbour id, built in one pass over the edges on first use (or by
        `_derived`)."""
        adj: dict[str, list[tuple[str, Edge, bool]]] = {cid: [] for cid in self.corners}
        for e in self.edges:
            adj[e.p].append((e.q, e, True))
            adj[e.q].append((e.p, e, False))
        for lst in adj.values():
            lst.sort(key=_neighbour)
        return adj

    @cached_property
    def _exceptional_top(self) -> int:
        """The largest index `k` of a component `E∞k`, 0 if none: the index
        `next_exceptional_label` reads, kept by `_derived`."""
        return max(map(_exceptional_index, self.components), default=0)

    # -- derived chart data ----------------------------------------------

    def change_matrix(self, p: str, q: str) -> ExponentMatrix:
        """Chart change from the chart at `p` to the chart at `q`.

        Carried forward along `_walk(p, shared)`, inside the intersection
        of the components shared by `p` and `q`: each tree hop multiplies
        the change reached so far by the edge's matrix or inverse, and the
        walk stops when it reaches `q`.  The validated cycle identities
        make the result path independent.  A one-hop path returns the
        edge's own matrix or inverse, and `p == q` returns the corner's
        shared `Corner.identity`.
        """
        cp = self.corner(p)
        cq = self.corner(q)
        if p == q:
            return cp.identity
        inside = cp.index_set & cq.index_set
        carried: dict[str, ExponentMatrix | None] = {p: None}
        for cur, nxt, edge, forward in self._walk(p, inside):
            hop = edge.matrix if forward else edge.inverse
            before = carried[cur]
            carried[nxt] = hop if before is None else mat_mul(hop, before)
            if nxt == q:
                return carried[q]
        raise ConnectivityError(f"no edge path from {p!r} to {q!r} inside E_{sorted(inside)}")

    def _walk(
        self, start: str, inside: frozenset[str]
    ) -> Iterator[tuple[str, str, Edge, bool]]:
        """Breadth-first walk from `start` along edges whose shared set
        contains `inside`, neighbors in `_adjacency` order (smallest id
        first).  Yields each tree hop `(cur, nxt, edge, forward)` when it
        first reaches `nxt`; `forward` says that `edge` runs `cur -> nxt`."""
        seen = {start}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            for nxt, edge, forward in self._adjacency[cur]:
                if nxt not in seen and inside <= edge.shared:
                    seen.add(nxt)
                    queue.append(nxt)
                    yield cur, nxt, edge, forward

    def weight_connexion(self, p: str, q: str) -> ExponentVector:
        """Diagonal of the chart change on the shared labels; all entries > 0.

        On a shared label the column of every edge matrix is its diagonal
        entry times a unit vector, so the entry at `lab` is a product of
        edge diagonals: the weight 1 at `q` carried to `p` inside E_lab by
        `transport_weight`.  No chart change is multiplied out.
        """
        shared = self.corner(p).index_set & self.corner(q).index_set
        if not shared:
            raise DomainError(f"corners {p!r} and {q!r} share no boundary component")
        return ExponentVector(
            {lab: self.transport_weight(lab, q, Fraction(1))[p] for lab in shared}
        )

    def transport_weight(self, label: str, start: str, value: Fraction) -> dict[str, Fraction]:
        """Carry a weight on `label` from `start` to every corner of E_label:
        `_carry_weight`'s pairs, each one normalized `Fraction`."""
        holders = self.corners_with([label])
        carried = self._carry_weight(label, start, value.as_integer_ratio(), holders)
        return {cid: Fraction(*carried[cid]) for cid in holders}

    def _carry_weight(
        self, label: str, start: str, value: Pair, targets: Sequence[str]
    ) -> dict[str, Pair]:
        """The weight on `label`, carried from `start`, where it is the pair
        `value`, as an unreduced integer pair at every corner the walk
        reaches: at least the `targets`, corners of E_label.

        One `_walk` inside E_label: each hop multiplies or divides the pair
        by the edge's diagonal pair (`linalg._scaled`), whose sign
        `Edge._diagonal` checks on the numerator, raising StructuralError
        when it is not positive.  The walk stops once it has reached every
        target, so with every corner of E_label as targets it checks every
        hop of the full walk.  Raises ConnectivityError when a target is
        not reached.
        """
        found = {start: value}
        left = set(targets) - {start}
        if left:
            for cur, nxt, edge, forward in self._walk(start, frozenset((label,))):
                # a forward edge runs cur -> nxt, so nxt's weight is cur's over d
                found[nxt] = _scaled(found[cur], edge._diagonal(label), forward)
                left.discard(nxt)
                if not left:
                    break
        missing = [cid for cid in targets if cid not in found]
        if missing:
            raise ConnectivityError(
                f"E_{label} is disconnected: {missing} unreachable from {start!r}"
            )
        return found

    def codim2_centers(self, corner_ids: Iterable[str] | None = None) -> dict[frozenset[str], str]:
        """Every unordered label pair realized at the given corners (default:
        all), mapped to its witness: the smallest given id whose corner
        holds the pair, found in one scan of the ids in sorted order."""
        out: dict[frozenset[str], str] = {}
        for cid in sorted(self.corners if corner_ids is None else corner_ids):
            for pair in combinations(sorted(self.corners[cid].index_set), 2):
                out.setdefault(frozenset(pair), cid)
        return out

    def _label_sets(self) -> set[frozenset[str]]:
        """The distinct `I_p ∩ I_q` of every two corners that share a label,
        off the label index.  E_J is connected for every nonempty J exactly
        when each such p, q are joined inside E_{I_p ∩ I_q}: a path there
        stays inside E_J for every J ⊆ I_p ∩ I_q, and two holders of J
        share J.  The empty J is the corner graph, walked by the cycle
        check.  Each such pair is intersected once, from its smaller id:
        the holders after `p` of each of its labels are gathered into one
        set first, so two corners that share several labels are not
        intersected once per label."""
        corners = self.corners
        later: dict[str, set[str]] = {}
        for ids in self._holders.values():
            for k in range(len(ids) - 1):
                later.setdefault(ids[k], set()).update(ids[k + 1 :])
        return {
            ip & corners[q].index_set
            for p, qs in later.items()
            for ip in (corners[p].index_set,)
            for q in qs
        }

    # -- validation -------------------------------------------------------

    def validate(self) -> list[str]:
        """Check every structural constraint; returns violations, empty if valid."""
        bad = self._corner_violations(self.corners.values())
        covered = frozenset().union(*(c.index_set for c in self.corners.values())) if self.corners else frozenset()
        for lab in sorted(self.components - covered):
            bad.append(f"component {lab} lies on no corner")
        bad.extend(self._edge_violations(self.edges))
        if bad:
            return bad
        bad.extend(self._cycle_violations())
        bad.extend(self._connectivity_violations(self._label_sets()))
        return bad

    def _corner_violations(self, corners: Iterable[Corner]) -> list[str]:
        """Index-set size and labels of the given corners, and uniqueness of
        their index sets among themselves.  `validate` passes every corner;
        a blow-up's local certificate passes the corners it created."""
        bad: list[str] = []
        n = self.dimension
        seen_index_sets: dict[frozenset[str], str] = {}
        for c in corners:
            if len(c.index_set) != n:
                bad.append(f"corner {c.id}: index set size {len(c.index_set)} != dimension {n}")
            if not c.index_set <= self.components:
                bad.append(f"corner {c.id}: labels outside the component set")
            if c.index_set in seen_index_sets:
                bad.append(
                    f"corners {seen_index_sets[c.index_set]} and {c.id} share one index set"
                )
            else:
                seen_index_sets[c.index_set] = c.id
        return bad

    def _edge_violations(
        self, edges: Iterable[Edge], held_inverses_only: bool = False
    ) -> list[str]:
        """The checks each of the given edges must pass on its own: real and
        distinct endpoints of the right size (no two of `edges` on one
        pair), the size of the endpoints' intersection, the label sets,
        triangular form with a positive diagonal, and the exact inverse
        (`inverse·matrix == I_p`, decided by `_product_equals`'s identity
        form, which builds neither the product nor `I_p`).  With
        `held_inverses_only`, as a blow-up's local certificate runs it,
        only an inverse the edge already holds is checked, and none is
        computed.  Triangular form and the diagonal's signs are read off
        the matrix's nonzero rows, over the shared labels in sorted
        order; a row that stores nothing but its diagonal and its entry
        at `p`'s own label holds no off-diagonal entry, so no set is
        built for it.  An edge's `edge p->q` tag is formatted only when a
        violation is reported (`flag`).  `validate` passes every edge; a
        blow-up's local certificate passes the edges it built."""
        bad: list[str] = []
        n = self.dimension
        seen_pairs: set[frozenset[str]] = set()

        def flag(message: str) -> None:
            bad.append(f"edge {e.p}->{e.q}: {message}")

        for e in edges:
            if e.p not in self.corners or e.q not in self.corners:
                flag("endpoint is not a corner")
                continue
            ip = self.corners[e.p].index_set
            iq = self.corners[e.q].index_set
            if len(ip) != n or len(iq) != n:
                # the label checks below assume corners of the right size
                flag(f"an endpoint's index set does not have size {n}")
                continue
            pair = frozenset((e.p, e.q))
            if pair in seen_pairs or e.p == e.q:
                flag("duplicate or degenerate edge")
            seen_pairs.add(pair)
            shared = ip & iq
            if len(shared) != n - 1:
                flag(f"shared set has size {len(shared)}, expected {n - 1}")
                continue
            if e.matrix.row_labels != iq or e.matrix.col_labels != ip:
                flag("matrix is not indexed by (rows=q labels, cols=p labels)")
                continue
            rows = e.matrix._nonzero
            (i_q,) = iq - shared
            (i_p,) = ip - shared
            new_row = rows.get(i_q, {})
            for ell in sorted(shared):
                row = rows.get(ell, {})
                if row.get(ell, _ZERO)[0] <= 0:
                    flag(f"diagonal entry at {ell} is not positive")
                if len(row) > (ell in row) + (i_p in row):
                    for m in sorted(shared.intersection(row) - {ell}):
                        flag(f"off-diagonal entry ({ell},{m}) on shared labels")
                if ell in new_row:
                    flag(f"new-label row has entry at shared column {ell}")
            if held_inverses_only and "inverse" not in e.__dict__:
                continue
            try:
                inverse = e.inverse
                if (
                    inverse.col_labels != iq
                    or inverse.row_labels != ip
                    or not _product_equals(inverse, e.matrix)
                ):
                    flag("cached inverse is not an exact inverse")
            except SingularMatrixError:
                flag("matrix is singular")
        return bad

    def _cycle_violations(self) -> list[str]:
        """Every cycle of chart changes must close to the identity.

        One `_walk` from the first corner carries the chart change `T_x`
        from the root's chart to each corner's along the walk's tree, at
        one sparse `mat_mul` per tree edge off the root (an edge at the
        root is its own change).  Each non-tree edge `p->q` then closes
        its cycle iff `M·T_p == T_q`, decided by `_product_equals`; the
        root's change is its corner's identity, read only when such an
        edge exists, so a tree (a manifold without edges included) does
        no matrix work.
        Run after the exact-inverse check, which makes every `T_x`
        invertible.
        """
        if not self.corners:
            return []
        root = next(iter(self.corners))
        transport: dict[str, ExponentMatrix] = {}
        tree_edges: set[Edge] = set()
        for cur, nxt, edge, forward in self._walk(root, frozenset()):
            hop = edge.matrix if forward else edge.inverse
            transport[nxt] = hop if cur == root else mat_mul(hop, transport[cur])
            tree_edges.add(edge)
        if len(transport) + 1 != len(self.corners):
            return ["corner graph is not connected"]
        if len(tree_edges) == len(self.edges):
            return []
        transport[root] = self.corners[root].identity
        return [
            f"cycle through edge {e.p}->{e.q}: product around the cycle is not the identity"
            for e in self.edges
            if e not in tree_edges and not _product_equals(e.matrix, transport[e.p], transport[e.q])
        ]

    def _connectivity_violations(self, label_sets: Iterable[frozenset[str]]) -> list[str]:
        """Each given label set J must have a connected corner graph along
        edges whose shared set contains J; its holders are read off the
        label index (`corners_with`)."""
        bad: list[str] = []
        for j in sorted(label_sets, key=sorted):
            holders = self.corners_with(j)
            if len(holders) <= 1:
                continue
            reached = {nxt for _, nxt, _, _ in self._walk(holders[0], j)}
            missing = [cid for cid in holders[1:] if cid not in reached]
            if missing:
                bad.append(
                    f"E_{sorted(j)} is disconnected: {missing} unreachable from {holders[0]}"
                )
        return bad

    def __repr__(self) -> str:
        return (
            f"MonomialManifold(dim={self.dimension}, corners={len(self.corners)}, "
            f"edges={len(self.edges)}, components={sorted(self.components)})"
        )


def make_corner(labels: Iterable[str], corner_id: str = "c0") -> MonomialManifold:
    """The local model: a single corner chart, no edges."""
    labs = list(labels)
    if len(set(labs)) != len(labs):
        raise StructuralError("corner labels must be distinct")
    corner = Corner(corner_id, frozenset(labs))
    return MonomialManifold(len(labs), labs, [corner])


def _exceptional_index(label: str) -> int:
    """`k` for a label `E∞k`, 0 for any other label."""
    m = _EXC_LABEL.match(label)
    return int(m.group(1)) if m else 0


def next_exceptional_label(components: Iterable[str]) -> str:
    """Fresh label E∞k with k one past the largest exceptional index in use."""
    return f"E∞{max(map(_exceptional_index, components), default=0) + 1}"
