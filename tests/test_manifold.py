"""Structural model: chart changes, weight functions, validation, centers."""

import json
from collections import deque
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monores import (
    ConnectivityError,
    Corner,
    DomainError,
    Edge,
    ExponentMatrix,
    ExponentVector,
    LocalStandardization,
    MonomialManifold,
    StructuralError,
    blow_up,
    extend,
    make_corner,
    mat_inverse,
    mat_mul,
    reduce_problem,
)
from monores.blowup import _escaped, apply_center
from monores.errors import SingularMatrixError
from monores.jsonio import canonical_dumps, manifold_from_json, manifold_to_json
from helpers import (
    sample_towers,
    shared_reports,
    tower_manifolds,
    wide_probe_problem,
    wide_probe_report,
)

F = Fraction


def uniform_family(m):
    """All-ones weights at some corner, extended over the whole manifold."""
    base = m.corner_ids()[0]
    ones = ExponentVector(dict.fromkeys(m.corner(base).index_set, 1))
    return extend(m, LocalStandardization(base, ones))


def worked_step():
    """Dimension-2 corner blown up with weights (2,1) at the center pair."""
    m = make_corner(["E1", "E2"])
    fam = extend(
        m, LocalStandardization("c0", ExponentVector({"E1": 2, "E2": 1}))
    )
    return blow_up(m, frozenset({"E1", "E2"}), fam)


def two_step_dim3():
    """Blow a 3-corner twice so the corner graph closes into a 4-cycle."""
    m0 = make_corner(["E1", "E2", "E3"])
    s1 = blow_up(m0, frozenset({"E1", "E2"}), uniform_family(m0))
    m1 = s1.after
    s2 = blow_up(m1, frozenset({"E3", "E∞1"}), uniform_family(m1))
    return s1, s2


def test_make_corner_examples():
    m = make_corner(["E1", "E2"])
    assert len(m.corners) == 1 and len(m.edges) == 0
    assert m.validate() == []
    assert make_corner(["E1"]).dimension == 1
    m3 = make_corner(["E1", "E2", "E3"])
    assert m3.validate() == [] and m3.dimension == 3
    with pytest.raises(Exception):
        make_corner(["E1", "E1"])


def test_change_matrix_trivial_and_adjacent():
    step = worked_step()
    m = step.after
    a, b = "c0.E1", "c0.E2"
    ident = ExponentMatrix.identity(m.corner(a).index_set)
    assert m.change_matrix(a, a) == ident
    edge = m.edges[0]
    assert (edge.p, edge.q) == (a, b)
    assert m.change_matrix(a, b) == edge.matrix
    # frozen hand computation: conjugate the identity by the two blow-up matrices
    expected = ExponentMatrix.from_row_table(
        ("E1", "E∞1"), ("E2", "E∞1"), [[F(-1, 2), 0], [1, 2]]
    )
    assert edge.matrix == expected
    assert m.change_matrix(b, a) == ExponentMatrix.from_row_table(
        ("E2", "E∞1"), ("E1", "E∞1"), [[-2, 0], [1, F(1, 2)]]
    )


def test_change_matrix_two_edge_path_matches_conjugation():
    s1, s2 = two_step_dim3()
    m = s2.after
    # opposite corners of the 4-cycle: both paths must give one answer
    ids = m.corner_ids()
    assert len(ids) == 4 and len(m.edges) == 4
    p, q = ids[0], ids[3]
    via_bfs = m.change_matrix(p, q)
    # compose the two possible edge paths by hand
    def hop(a, b):
        for e in m.edges:
            if (e.p, e.q) == (a, b):
                return e.matrix
            if (e.q, e.p) == (a, b):
                return e.inverse
        raise AssertionError(f"no edge {a}->{b}")

    adj = {cid: [] for cid in ids}
    for e in m.edges:
        adj[e.p].append(e.q)
        adj[e.q].append(e.p)
    mids = [x for x in adj[p] if q in adj[x]]
    assert len(mids) == 2, "opposite corners of the 4-cycle"
    prods = [mat_mul(hop(x, q), hop(p, x)) for x in mids]
    assert prods[0] == prods[1] == via_bfs


def test_change_matrix_needs_path():
    # two disjoint corners cannot be connected
    c1 = Corner("a", frozenset({"E1", "E2"}))
    c2 = Corner("b", frozenset({"E3", "E4"}))
    m = MonomialManifold(2, ["E1", "E2", "E3", "E4"], [c1, c2])
    with pytest.raises(ConnectivityError):
        m.change_matrix("a", "b")


def two_corner_chain(diag=F(3, 2)):
    """Corners at E1&E2 and E2&E3 joined along the E2 edge."""
    p = Corner("p", frozenset({"E1", "E2"}))
    q = Corner("q", frozenset({"E2", "E3"}))
    matrix = ExponentMatrix.from_row_table(
        ("E2", "E3"), ("E1", "E2"), [[0, diag], [1, 0]]
    )
    edge = Edge("p", "q", matrix)
    return MonomialManifold(2, ["E1", "E2", "E3"], [p, q], [edge])


def test_weight_connexion_examples():
    m = two_corner_chain()
    assert m.validate() == []
    assert m.weight_connexion("p", "p") == ExponentVector({"E1": 1, "E2": 1})
    gamma = m.weight_connexion("p", "q")
    assert gamma == ExponentVector({"E2": F(3, 2)})
    back = m.weight_connexion("q", "p")
    assert gamma["E2"] * back["E2"] == 1
    disjoint = MonomialManifold(
        2,
        ["E1", "E2", "E3", "E4"],
        [Corner("a", frozenset({"E1", "E2"})), Corner("b", frozenset({"E3", "E4"}))],
    )
    with pytest.raises(DomainError):
        disjoint.weight_connexion("a", "b")


@pytest.mark.parametrize("diag", [0, -1, F(-3, 2)])
def test_extend_rejects_nonpositive_edge_diagonal(diag):
    m = two_corner_chain(diag)
    with pytest.raises(StructuralError):
        extend(m, LocalStandardization("p", ExponentVector({"E1": 1, "E2": 1})))


def test_extend_rejects_corner_unreachable_inside_component():
    m = two_corner_chain()
    cut = MonomialManifold(m.dimension, m.components, m.corners.values(), ())
    with pytest.raises(ConnectivityError):
        extend(cut, LocalStandardization("p", ExponentVector({"E1": 1, "E2": 1})))

def test_weight_connexion_round_trip_on_tower():
    _, s2 = two_step_dim3()
    m = s2.after
    for p in m.corner_ids():
        for q in m.corner_ids():
            shared = m.corner(p).index_set & m.corner(q).index_set
            if not shared:
                continue
            g_pq = m.weight_connexion(p, q)
            g_qp = m.weight_connexion(q, p)
            for lab in shared:
                assert g_pq[lab] * g_qp[lab] == 1
            # multiplicative along any hop through a third corner
            for r in m.corner_ids():
                jr = m.corner(r).index_set
                for lab in shared & jr:
                    assert g_pq[lab] == m.weight_connexion(p, r)[lab] * m.weight_connexion(r, q)[lab]


def test_derived_changes_have_positive_diagonal_zero_offdiagonal():
    _, s2 = two_step_dim3()
    m = s2.after
    for p in m.corner_ids():
        for q in m.corner_ids():
            if p == q:
                continue
            shared = m.corner(p).index_set & m.corner(q).index_set
            c = m.change_matrix(p, q)
            for i in shared:
                assert c.entry(i, i) > 0
                for j in shared:
                    if i != j:
                        assert c.entry(i, j) == 0


def test_validate_catches_triangularity_violation():
    step = worked_step()
    m = step.after
    e = m.edges[0]
    rows, cols = e.matrix.sorted_rows, e.matrix.sorted_cols
    # force a nonzero entry in the new-label row over a shared column
    i_q = next(iter(m.corner(e.q).index_set - e.shared))
    (ell,) = e.shared
    bad_entries = {(r, c): e.matrix.entry(r, c) for r in rows for c in cols}
    bad_entries[(i_q, ell)] = 1
    bad_edge = Edge(e.p, e.q, ExponentMatrix(rows, cols, bad_entries))
    bad = MonomialManifold(m.dimension, m.components, m.corners.values(), [bad_edge])
    assert any("shared column" in v for v in bad.validate())


def test_validate_catches_cycle_violation():
    _, s2 = two_step_dim3()
    m = s2.after
    e = m.edges[0]
    i_q = next(iter(m.corner(e.q).index_set - e.shared))
    i_p = next(iter(m.corner(e.p).index_set - e.shared))
    entries = {
        (r, c): e.matrix.entry(r, c)
        for r in e.matrix.row_labels
        for c in e.matrix.col_labels
    }
    delta = 1 if entries[(i_q, i_p)] != -1 else 2  # keep the matrix invertible
    entries[(i_q, i_p)] += delta  # stays triangular-legal, breaks the cycle product
    bad_edge = Edge(e.p, e.q, ExponentMatrix(e.matrix.row_labels, e.matrix.col_labels, entries))
    edges = [bad_edge] + [x for x in m.edges if x is not e]
    bad = MonomialManifold(m.dimension, m.components, m.corners.values(), edges)
    assert any("cycle" in v for v in bad.validate())


def test_validate_catches_disconnected_component_set():
    c1 = Corner("a", frozenset({"E1", "E2"}))
    m = MonomialManifold(2, ["E1", "E2", "E9"], [c1])
    assert any("E9" in v for v in m.validate())


# The chart change c0 -> c1 of corners {a, b} and {a, c}: c = b, a = a.
CHANGE_C0_C1 = ExponentMatrix(
    ["a", "c"], ["a", "b"], {("a", "a"): 1, ("a", "b"): 0, ("c", "a"): 0, ("c", "b"): 1}
)


@pytest.mark.parametrize(
    "extra, messages",
    [
        (Edge("c0", "c1", CHANGE_C0_C1), ["edge c0->c1: duplicate or degenerate edge"]),
        (Edge("c1", "c0", mat_inverse(CHANGE_C0_C1)), ["edge c1->c0: duplicate or degenerate edge"]),
        (
            Edge("c0", "c0", ExponentMatrix.identity(frozenset("ab"))),
            ["edge c0->c0: duplicate or degenerate edge", "edge c0->c0: shared set has size 2, expected 1"],
        ),
        (Edge("c0", "zz", CHANGE_C0_C1), ["edge c0->zz: endpoint is not a corner"]),
    ],
    ids=["repeated", "reversed", "self-loop", "missing-corner"],
)
def test_validate_sees_the_edges_the_constructor_was_given(extra, messages):
    """The public constructor keeps its edges as given: a repeated edge, a
    reversed duplicate, a self-loop and an edge to a missing corner next
    to the chart change c0->c1 are each reported, and nothing raises (an
    edge store read off the adjacency lists would drop the duplicates and
    fail on the missing corner)."""
    corners = [Corner("c0", frozenset("ab")), Corner("c1", frozenset("ac"))]
    m = MonomialManifold(2, "abc", corners, [Edge("c0", "c1", CHANGE_C0_C1), extra])
    assert m.validate() == messages


def two_corner_manifold(shared, i_q, i_p, entries):
    """Corners c0 (`shared` and `i_p`) and c1 (`shared` and `i_q`), joined
    by the edge c0->c1 with the given entries over rows `shared ∪ {i_q}`
    and columns `shared ∪ {i_p}` (0 where none is given)."""
    rows, cols = [*shared, i_q], [*shared, i_p]
    matrix = ExponentMatrix(rows, cols, {(r, c): entries.get((r, c), 0) for r in rows for c in cols})
    corners = [Corner("c0", frozenset(cols)), Corner("c1", frozenset(rows))]
    return MonomialManifold(len(rows), {*rows, *cols}, corners, [Edge("c0", "c1", matrix)])


small_entries = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def two_corner_manifolds(draw):
    """n = 2..6: a chart change with diagonals and corner entries of either
    sign and `a` zero or nonzero, or, half the time, that matrix with one
    to three nonzero entries where the shape allows none (off the
    diagonal on shared labels, or in the new-label row at a shared
    column)."""
    n = draw(st.integers(min_value=2, max_value=6))
    labels = draw(st.lists(st.sampled_from("abcdefghij"), min_size=n + 1, max_size=n + 1, unique=True))
    shared, i_q, i_p = labels[: n - 1], labels[n - 1], labels[n]
    positive = st.fractions(min_value=F(1, 3), max_value=4, max_denominator=3)
    entries = {(i_q, i_p): draw(st.just(0) | small_entries)}
    for ell in shared:
        entries[(ell, ell)] = draw(positive | small_entries)
        entries[(ell, i_p)] = draw(small_entries)
    if draw(st.booleans()):
        cells = [(r, c) for r in [*shared, i_q] for c in shared if r != c]
        for cell in draw(st.lists(st.sampled_from(cells), min_size=1, max_size=3, unique=True)):
            entries[cell] = draw(small_entries.filter(bool))
    return two_corner_manifold(shared, i_q, i_p, entries)


def inverting_edge_violations(m):
    """The per-edge rule as an inverse check, for a manifold of one edge
    whose labels are right: the triangular-form messages over the shared
    labels in sorted order, then `mat_inverse`, SingularMatrixError, and
    the product with the matrix compared with the identity."""
    (e,) = m.edges
    shared = sorted(e.shared)
    (i_q,) = e.matrix.row_labels - e.matrix.col_labels
    bad = []
    for ell in shared:
        if e.matrix.entry(ell, ell) <= 0:
            bad.append(f"diagonal entry at {ell} is not positive")
        bad.extend(
            f"off-diagonal entry ({ell},{x}) on shared labels"
            for x in shared
            if x != ell and e.matrix.entry(ell, x)
        )
        if e.matrix.entry(i_q, ell):
            bad.append(f"new-label row has entry at shared column {ell}")
    try:
        inverse = mat_inverse(e.matrix)
        if mat_mul(inverse, e.matrix) != ExponentMatrix.identity(e.matrix.col_labels):
            bad.append("cached inverse is not an exact inverse")
    except SingularMatrixError:
        bad.append("matrix is singular")
    return [f"edge {e.p}->{e.q}: {v}" for v in bad]


# A malformed singular edge (two equal rows), a chart change with `a = 0`
# and an invertible chart change.
MALFORMED_SINGULAR = two_corner_manifold(
    ["a", "b"], "d", "c", {("a", "a"): 1, ("a", "b"): 1, ("b", "a"): 1, ("b", "b"): 1, ("d", "c"): 1}
)
EMPTY_NEW_ROW = two_corner_manifold(["a"], "c", "b", {("a", "a"): 1})
INVERTIBLE = two_corner_manifold(
    ["a", "b"], "d", "c", {("a", "a"): 2, ("b", "b"): F(1, 3), ("b", "c"): -1, ("d", "c"): -3}
)


@given(two_corner_manifolds())
@example(MALFORMED_SINGULAR)
@example(EMPTY_NEW_ROW)
@example(INVERTIBLE)
@settings(max_examples=300, deadline=None)
def test_validate_reads_invertibility_off_the_shape(m):
    """`validate` of a two-corner manifold returns exactly the inverting
    reference's messages: an edge of the triangular shape is singular
    exactly when its new-label entry is 0, and any other edge is decided
    by elimination."""
    assert m.validate() == inverting_edge_violations(m)


def test_edge_checks_never_read_an_inverse(monkeypatch):
    """The per-edge checks of every manifold of the test towers hold and
    compute no inverse: `Edge.inverse` is patched to fail."""

    def forbidden(edge):
        raise AssertionError("an edge check read an inverse")

    manifolds = tower_manifolds()
    monkeypatch.setattr(Edge, "inverse", property(forbidden))
    for m in manifolds:
        assert m._edge_violations(m.edges) == []


def test_label_sets_are_the_sets_of_shared_labels():
    """The connectivity family is the intersections of every two corners
    that share a label: none on a single corner, whatever its dimension,
    and on two sibling children the labels they share.  On the test
    towers it is both the set over all corner pairs and the set the
    per-label walk over every two holders of every label once built,
    which formed each pair once per label the two corners share."""
    corner = make_corner([f"z{i}" for i in range(16)])
    assert corner._label_sets() == set()
    m0 = make_corner(["E1", "E2", "E3"])
    m = blow_up(m0, frozenset({"E1", "E2"}), uniform_family(m0)).after
    assert m._label_sets() == {frozenset({"E3", "E∞1"})}
    for m in tower_manifolds():
        found = m._label_sets()
        assert found == {
            p.index_set & q.index_set
            for p, q in combinations(m.corners.values(), 2)
            if p.index_set & q.index_set
        }
        assert found == {
            m.corners[p].index_set & m.corners[q].index_set
            for ids in m._holders.values()
            for p, q in combinations(ids, 2)
        }


def test_edge_shared_set_is_the_index_intersection():
    """`Edge.shared` is read off the matrix; it is `I_p ∩ I_q` on every
    edge of the sample towers, and of each manifold loaded back from JSON."""
    edges = 0
    for m in tower_manifolds():
        for loaded in (m, manifold_from_json(manifold_to_json(m))):
            for e in loaded.edges:
                assert e.shared == loaded.corner(e.p).index_set & loaded.corner(e.q).index_set
                edges += 1
    assert edges > 200


def test_codim2_centers_examples():
    assert make_corner(["E1", "E2"]).codim2_centers().keys() == {frozenset({"E1", "E2"})}
    assert make_corner(["E1", "E2", "E3"]).codim2_centers().keys() == {
        frozenset({"E1", "E2"}),
        frozenset({"E1", "E3"}),
        frozenset({"E2", "E3"}),
    }
    step = worked_step()
    centers = step.after.codim2_centers()
    assert centers.keys() == {frozenset({"E1", "E∞1"}), frozenset({"E2", "E∞1"})}
    assert frozenset({"E1", "E2"}) not in centers


def test_codim2_centers_witness_is_the_smallest_holder():
    """Each center's witness against the first of its holders by the
    label index, on every manifold of the sample towers."""
    for m in tower_manifolds():
        reference = {
            frozenset(pair): m.corners_with(pair)[0]
            for c in m.corners.values()
            for pair in combinations(sorted(c.index_set), 2)
        }
        assert m.codim2_centers() == reference


def test_corners_with_matches_a_linear_scan():
    """The label index against a scan of every corner, for the empty set,
    unknown labels and every label subset of size 1 to the dimension."""
    for m in tower_manifolds():
        holders = [(cid, c.index_set) for cid, c in sorted(m.corners.items())]
        labels = sorted(m.components)
        subsets = [(), ("unknown",), (labels[0], "unknown")]
        for size in range(1, m.dimension + 1):
            subsets.extend(combinations(labels, size))
        for need in subsets:
            expected = [cid for cid, index_set in holders if index_set.issuperset(need)]
            assert m.corners_with(need) == expected


def reference_adjacency(m):
    adjacency = {cid: [] for cid in m.corners}
    for e in m.edges:
        adjacency[e.p].append((e.q, e, True))
        adjacency[e.q].append((e.p, e, False))
    for lst in adjacency.values():
        lst.sort(key=lambda t: t[0])
    return adjacency


def reference_path(adjacency, start, goal, inside):
    """The breadth-first edge path as it was searched before the walker:
    stop when `goal` leaves the queue, then follow `prev` back."""
    prev = {}
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        if cur == goal:
            break
        for nxt, edge, forward in adjacency[cur]:
            if nxt in seen or not inside <= edge.shared:
                continue
            seen.add(nxt)
            prev[nxt] = (cur, edge, forward)
            queue.append(nxt)
    assert goal in seen
    path = []
    cur = goal
    while cur != start:
        before, edge, forward = prev[cur]
        path.append((edge, forward))
        cur = before
    path.reverse()
    return path


def walk_path(m, start, goal, inside):
    """The hops of `_walk(start, inside)`'s tree from `start` to `goal`,
    the path along which `change_matrix` and `weight_connexion` carry
    their products."""
    prev = {}
    for cur, nxt, edge, forward in m._walk(start, inside):
        prev[nxt] = (cur, edge, forward)
    path = []
    cur = goal
    while cur != start:
        before, edge, forward = prev[cur]
        path.append((edge, forward))
        cur = before
    path.reverse()
    return path


def reference_transport_weight(m, adjacency, label, start, value):
    found = {start: value}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt, edge, forward in adjacency[cur]:
            if nxt in found or label not in edge.shared:
                continue
            d = edge.matrix.entry(label, label)
            found[nxt] = found[cur] / d if forward else found[cur] * d
            queue.append(nxt)
    return {cid: found[cid] for cid in m.corners_with([label])}


def reference_connectivity_violations(adjacency, label_sets, corners):
    bad = []
    for j in sorted(label_sets, key=sorted):
        holders = [c.id for c in corners if j <= c.index_set]
        if len(holders) <= 1:
            continue
        seen = {holders[0]}
        queue = deque([holders[0]])
        while queue:
            cur = queue.popleft()
            for nxt, edge, _ in adjacency[cur]:
                if nxt in seen or not j <= edge.shared:
                    continue
                seen.add(nxt)
                queue.append(nxt)
        missing = [cid for cid in holders if cid not in seen]
        if missing:
            bad.append(f"E_{sorted(j)} is disconnected: {missing} unreachable from {holders[0]}")
    return bad


def test_walker_reproduces_the_breadth_first_loops():
    """Weight transport, edge paths with their chart changes and weight
    connexions, and the connectivity check (each edge removed in turn),
    against the loops each of them ran before they shared `_walk`."""
    paths = disconnected = 0
    for m in tower_manifolds():
        adjacency = reference_adjacency(m)
        for label in sorted(m.components):
            start = m.corners_with([label])[0]
            expected = reference_transport_weight(m, adjacency, label, start, F(3, 2))
            assert m.transport_weight(label, start, F(3, 2)) == expected
        for p, q in permutations(m.corners, 2):
            shared = m.corners[p].index_set & m.corners[q].index_set
            if not shared:
                continue
            path = reference_path(adjacency, p, q, shared)
            assert walk_path(m, p, q, shared) == path
            chart = ExponentMatrix.identity(m.corners[p].index_set)
            gamma = dict.fromkeys(shared, F(1))
            for edge, forward in path:
                chart = mat_mul(edge.matrix if forward else edge.inverse, chart)
                for lab in shared:
                    d = edge.matrix.entry(lab, lab)
                    gamma[lab] = gamma[lab] * d if forward else gamma[lab] / d
            assert m.change_matrix(p, q) == chart
            assert m.weight_connexion(p, q) == ExponentVector(gamma)
            paths += 1
        realized = {
            frozenset(s)
            for c in m.corners.values()
            for size in range(1, m.dimension)
            for s in combinations(sorted(c.index_set), size)
        }
        for e in m.edges:
            cut = MonomialManifold(
                m.dimension, m.components, m.corners.values(), [x for x in m.edges if x is not e]
            )
            found = cut._connectivity_violations(realized)
            assert found == reference_connectivity_violations(
                reference_adjacency(cut), realized, list(cut.corners.values())
            )
            disconnected += bool(found)
    assert paths > 500 and disconnected > 100, "the walks must be exercised"


# -- a blow-up's manifold, derived from its parent ---------------------------


def assert_derived_as_built(step):
    """`step.after`, derived from `step.before` (`MonomialManifold._derived`),
    has as `edges`, read off its adjacency lists, the edges of `before`
    not at a blown corner plus `step.new_edges`, sorted by `(p, q)`, the
    same objects; and it equals the manifold the public constructor
    builds from its corners and edges: corner order, every adjacency list
    (neighbour, edge object and direction, in order), the label index and
    the next exceptional label.  The lists the step did not touch are
    `before`'s own objects."""
    after, before = step.after, step.before
    assert {"_adjacency", "_holders", "_exceptional_top"} <= after.__dict__.keys()
    blown = {chart.parent.id for chart in step.children.values()}
    kept = [e for e in before.edges if e.p not in blown and e.q not in blown]
    expected = sorted(kept + list(step.new_edges), key=Edge.key)
    assert len(after.edges) == len(expected)
    assert all(a is b for a, b in zip(after.edges, expected))
    built = MonomialManifold(after.dimension, after.components, after.corners.values(), after.edges)
    assert list(after.corners.items()) == list(built.corners.items())
    assert after._adjacency.keys() == built._adjacency.keys()
    for cid, entries in built._adjacency.items():
        assert after._adjacency[cid] == entries, cid
    assert after._holders == built._holders
    top = max((int(lab[2:]) for lab in after.components if lab.startswith("E∞")), default=0)
    assert after._exceptional_top == built._exceptional_top == top
    near = {nxt for b in blown for nxt, _, _ in before._adjacency[b]}
    for cid in after.corners.keys() - step.children.keys() - near:
        assert after._adjacency[cid] is before._adjacency[cid]
    touched = {lab for b in blown for lab in before.corners[b].index_set}
    for lab in before._holders.keys() - touched:
        assert after._holders[lab] is before._holders[lab]


def test_every_derived_manifold_equals_one_built_from_scratch():
    """Checked once every tower is built, so a parent list mutated by a
    later step would differ from its own rebuild."""
    steps = [step for _, star in sample_towers() for step in star.steps]
    steps += wide_probe_report().star.steps
    assert max(len(step.children) for step in steps) >= 20
    for step in steps:
        assert_derived_as_built(step)


def test_the_sweep_builds_no_edge_tuple():
    """Freshly reduced towers: no manifold but the root holds an `edges`
    tuple, so the sweep read none, and reading the end's builds that one
    tuple alone, off its adjacency lists."""
    problems = [report.problem for report in shared_reports()] + [wide_probe_problem()]
    for problem in problems:
        star = reduce_problem(problem).star
        manifolds = [star.root] + [step.after for step in star.steps]
        assert [m for m in manifolds if "edges" in m.__dict__] == [star.root]
        edges = star.end.edges
        assert star.end.edges is edges
        read = [star.root, star.end] if star.steps else [star.root]
        assert [m for m in manifolds if "edges" in m.__dict__] == read
        assert list(edges) == sorted(edges, key=Edge.key)
    assert len(star.steps) == 57  # the wide probe's tower, the last one


def spliced_root():
    """A chain of five corners whose ids sort on both sides of the
    children of `c0`: `-` sorts before `.`, and `/` after it.  Each edge
    keeps the shared label and sends the new one to the old corner's own
    label."""
    ids = ["c0-0", "c0-1", "c0", "c0/1", "c0/2"]
    labels = ["x", "a", "b", "c", "d", "y"]
    corners = [Corner(cid, frozenset(labels[k : k + 2])) for k, cid in enumerate(ids)]
    edges = []
    for k in range(len(ids) - 1):
        own, shared, new = labels[k : k + 3]
        entries = {(shared, own): 0, (shared, shared): 1, (new, own): 1, (new, shared): 0}
        edges.append(Edge(ids[k], ids[k + 1], ExponentMatrix([shared, new], [own, shared], entries)))
    return MonomialManifold(2, labels, corners, edges)


def test_children_are_merged_between_untouched_ids():
    root = spliced_root()
    assert root.validate() == []
    step = apply_center(root, frozenset("bc"), {"c0": ExponentVector({"b": 1, "c": 2})})
    assert list(step.after.corners) == ["c0-0", "c0-1", "c0.b", "c0.c", "c0/1", "c0/2"]
    assert [e.key() for e in step.after.edges] == [
        ("c0-0", "c0-1"),
        ("c0-1", "c0.c"),
        ("c0.b", "c0.c"),
        ("c0.b", "c0/1"),
        ("c0/1", "c0/2"),
    ]
    assert step.after.validate() == []
    assert_derived_as_built(step)


def test_a_child_may_take_the_id_of_a_blown_corner():
    """A loaded manifold whose second blown corner is named like the first
    one's child: the child takes the freed id, in the corner and edge
    orders, the adjacency lists and the label index alike."""
    step = next(
        s for _, star in sample_towers() for s in star.steps if len(s.alpha_at_center) >= 2
    )
    first, second = sorted(step.alpha_at_center)[:2]
    taken = f"{first}.{_escaped(min(step.center_pair))}"
    text = canonical_dumps(manifold_to_json(step.before))
    assert f'"{taken}"' not in text
    m = manifold_from_json(json.loads(text.replace(f'"{second}"', f'"{taken}"')))
    assert m.validate() == []
    weights = {(taken if cid == second else cid): a for cid, a in step.alpha_at_center.items()}
    renamed = apply_center(m, step.center_pair, weights)
    assert renamed.children[taken].parent.id == first
    assert renamed.after.validate() == []
    assert_derived_as_built(renamed)
