"""The arithmetic of one blow-up step against the general-purpose reference.

`apply_center` lifts edges by row and column steps, building no inverse,
and records each child's morphism as a `ChildChart`, `pull_back_mfunction`
pulls back in O(n) through it, and `_cycle_violations` carries one chart
change per corner from the root.  Each is checked here against the slower
computation it replaced: `mat_inverse` and `mat_mul` conjugation, the
identity-plus-one-column matrix written out from the weights, the
full-matrix product `vec_apply(v, step.morphism(cid))`, and the tree-path
product below.  A step's local certificate (`BlowupStep.violations`) and
the local check in `pull_back_mfunction` are checked against the full
`validate` and `MFunction` check on corrupted copies of every new edge
and every child's pulled-back vector.
"""

import dataclasses
import sys
from collections import deque
from fractions import Fraction

import pytest

import monores
import monores.manifold
import monores.reduction
from monores import (
    Edge,
    ExponentMatrix,
    ExponentVector,
    LocalStandardization,
    MonomialManifold,
    blow_up,
    extend,
    make_corner,
    mat_inverse,
    mat_mul,
    pull_back_generators,
    pull_back_mfunction,
    reduce_problem,
    vec_apply,
)
from monores.blowup import BlowupStep, ChildChart, _conjugate, _lift_table
from monores.errors import AlgorithmInvariantViolation, BudgetExceededError, MonoresError
from monores.ideals import MFunction
from monores.supports import minimal_support
from helpers import (
    corpus_c_problem,
    enumerated_label_sets,
    generators_along,
    sample_towers,
    scanned_lifts,
    shared_reports,
    tower_manifolds,
    two_point_problem,
    wide_probe_report,
)


def reference_cycle_violations(m):
    """The cycle check as it was: for each non-tree edge of the BFS tree,
    multiply out the tree path between its ends and compare."""
    adjacency = {cid: [] for cid in m.corners}
    for e in m.edges:
        adjacency[e.p].append((e.q, e, True))
        adjacency[e.q].append((e.p, e, False))
    for lst in adjacency.values():
        lst.sort(key=lambda t: t[0])
    root = next(iter(m.corners))
    tree = {}
    seen = {root}
    queue = deque([root])
    tree_edges = set()
    while queue:
        cur = queue.popleft()
        for nxt, edge, _ in adjacency[cur]:
            if nxt in seen:
                continue
            seen.add(nxt)
            tree[nxt] = (cur, edge)
            tree_edges.add(edge.key())
            queue.append(nxt)
    assert len(seen) == len(m.corners)

    def tree_change(p, q):
        def hops_to_root(x):
            hops = []
            while x != root:
                before, edge = tree[x]
                hops.append((x, before, edge))
                x = before
            return hops

        up = hops_to_root(p)
        down = hops_to_root(q)
        while up and down and up[-1][2] is down[-1][2]:
            up.pop()
            down.pop()
        hops = up + [(b, a, e) for (a, b, e) in reversed(down)]
        acc = ExponentMatrix.identity(m.corners[p].index_set)
        for a, b, edge in hops:
            step = edge.matrix if (edge.p, edge.q) == (a, b) else mat_inverse(edge.matrix)
            acc = mat_mul(step, acc)
        return acc

    return [
        f"cycle through edge {e.p}->{e.q}: product around the cycle is not the identity"
        for e in m.edges
        if e.key() not in tree_edges and tree_change(e.p, e.q) != e.matrix
    ]


def moved_corner(mat, shared):
    """`mat` with its entry off the shared labels moved: still triangular
    and invertible."""
    entries = {(r, c): mat.entry(r, c) for r in mat.row_labels for c in mat.col_labels}
    (row,) = mat.row_labels - shared
    (col,) = mat.col_labels - shared
    entries[(row, col)] += 1 if entries[(row, col)] != -1 else 2
    return ExponentMatrix(mat.row_labels, mat.col_labels, entries)


def corrupted(e):
    """The edge with its corner entry moved, as in
    `test_validate_catches_cycle_violation`, and its inverse computed anew."""
    return Edge(e.p, e.q, moved_corner(e.matrix, e.shared))


def with_edges(m, edges):
    return MonomialManifold(m.dimension, m.components, m.corners.values(), edges)


def test_cycle_check_matches_tree_path_reference_on_every_corrupted_edge():
    flagged = 0
    for m in tower_manifolds():
        assert m.validate() == []
        assert reference_cycle_violations(m) == []
        for e in m.edges:
            bad = with_edges(m, [corrupted(e)] + [x for x in m.edges if x is not e])
            found = [v for v in bad.validate() if v.startswith("cycle")]
            assert found == reference_cycle_violations(bad)
            flagged += bool(found)
    assert flagged > 50, "the corruptions must exercise the check"


def two_corner_manifold():
    """Corners c0.E1 and c0.E2 of the worked blow-up, joined by one edge."""
    m = make_corner(["E1", "E2"])
    fam = extend(m, LocalStandardization("c0", ExponentVector({"E1": 2, "E2": 1})))
    return blow_up(m, frozenset({"E1", "E2"}), fam).after


def test_cycle_check_on_non_tree_edges_at_the_root():
    m = two_corner_manifold()
    (e,) = m.edges
    root = next(iter(m.corners))
    assert e.p == root
    # a parallel edge back into the root: M_back · T_x must be the identity
    back = Edge(e.q, e.p, e.inverse)
    assert with_edges(m, [e, back])._cycle_violations() == []
    bad = with_edges(m, [e, corrupted(back)])
    assert bad._cycle_violations() == reference_cycle_violations(bad)
    assert len(bad._cycle_violations()) == 1
    # a parallel edge out of the root: M_out itself must equal T_x
    out = Edge(e.p, e.q, e.matrix)
    assert with_edges(m, [e, out])._cycle_violations() == []
    assert len(with_edges(m, [e, corrupted(out)])._cycle_violations()) == 1


def test_single_corner_validate_builds_no_matrix(monkeypatch):
    m = make_corner(["E1", "E2", "E3"])

    def forbidden(*args, **kwargs):
        raise AssertionError("a single corner needs no matrix work")

    monkeypatch.setattr(monores.manifold, "mat_mul", forbidden)
    monkeypatch.setattr(ExponentMatrix, "__init__", forbidden)
    assert m.validate() == []


def all_steps():
    return [step for _, star in sample_towers() for step in star.steps]


def test_lifted_edges_equal_conjugation_and_carry_exact_inverses():
    checked = 0
    for step in all_steps():
        before = {e.key(): e for e in step.before.edges}
        for e in step.after.edges:
            assert e.inverse == mat_inverse(e.matrix)
            p0, q0 = step.lineage(e.p), step.lineage(e.q)
            if p0 == q0:
                old = ExponentMatrix.identity(step.before.corner(p0).index_set)
            else:
                old = before[(p0, q0)].matrix
            b_p, b_q = step.morphism(e.p), step.morphism(e.q)
            assert e.matrix == mat_mul(mat_inverse(b_q), mat_mul(old, b_p))
            checked += 1
    assert checked == sum(len(step.after.edges) for step in all_steps()) > 100


def test_built_matrices_carry_their_corners_index_sets():
    """Every new edge's matrix and inverse, and every child's `B`, on
    the test towers and the wide probe, is labeled by the very
    frozensets its corners hold, not by equal copies."""
    steps = all_steps() + list(wide_probe_report().star.steps)
    edges = 0
    for step in steps:
        corners = step.after.corners
        for e in step.new_edges:
            ip, iq = corners[e.p].index_set, corners[e.q].index_set
            assert e.matrix.row_labels is iq and e.matrix.col_labels is ip
            assert e.inverse.row_labels is ip and e.inverse.col_labels is iq
            edges += 1
        for cid, chart in step.children.items():
            assert chart.index_set is corners[cid].index_set
            b = chart.matrix
            assert b.row_labels is chart.parent.index_set and b.col_labels is chart.index_set
    assert edges > 1000


def test_conjugate_relabels_other_labels_by_set_algebra():
    """`_conjugate` takes a child's own index set only for labels equal to
    its parent's; a matrix over other labels (here one label more) gets
    the parent's relabeling rule, `removed` replaced by `new_label`, as a
    new set.  Equal labels in another frozenset still take the child's."""
    charts = [chart for step in all_steps() for chart in step.children.values()]
    for chart in charts:
        labels = chart.parent.index_set | {"w"}
        lifted = _conjugate(ExponentMatrix.identity(labels), chart, chart)
        expected = (labels - {chart.removed}) | {chart.new_label}
        assert lifted == ExponentMatrix.identity(expected)
        assert lifted.row_labels is not chart.index_set
        assert lifted.col_labels is not chart.index_set
        copy = frozenset(set(chart.parent.index_set))
        same = _conjugate(ExponentMatrix.identity(copy), chart, chart)
        assert same.row_labels is chart.index_set and same.col_labels is chart.index_set
    assert len(charts) > 50


def identity_plus_one_column(parent_labels, removed, other, c, new_label):
    """The blow-up morphism at a child, written out entry by entry: the
    identity on the parent's labels with column `removed` renamed to
    `new_label`, plus `c` at (`other`, `new_label`)."""
    cols = (parent_labels - {removed}) | {new_label}
    entries = {(r, s): int(r == s) for r in parent_labels for s in cols}
    for r in parent_labels:
        entries[(r, new_label)] = 1 if r == removed else c if r == other else 0
    return ExponentMatrix(parent_labels, cols, entries)


def test_child_charts_reproduce_the_morphism_matrices():
    children = 0
    for step in all_steps():
        for cid, corner in step.after.corners.items():
            b = step.morphism(cid)
            if step.new_label not in corner.index_set:
                assert cid not in step.children
                assert step.lineage(cid) == cid
                assert b == ExponentMatrix.identity(step.before.corner(cid).index_set)
                continue
            parent = step.lineage(cid)
            parent_labels = step.before.corner(parent).index_set
            (removed,) = parent_labels - corner.index_set
            (other,) = step.center_pair - {removed}
            alpha = step.alpha_at_center[parent]
            expected = identity_plus_one_column(
                parent_labels, removed, other, alpha[removed] / alpha[other], step.new_label
            )
            assert b == expected
            children += 1
    assert children == sum(len(step.children) for step in all_steps()) > 50


def test_pull_back_mfunction_matches_the_full_matrix_product_at_every_corner():
    for report in shared_reports():
        star = report.star
        points = minimal_support(report.problem.support).sorted_points()
        gens = [MFunction(star.root, {"c0": p}) for p in points]
        for step in star.steps:
            pulled = [pull_back_mfunction(g, step) for g in gens]
            for old, new in zip(gens, pulled):
                for cid in step.after.corner_ids():
                    b = step.morphism(cid)
                    assert new.at(cid) == vec_apply(old.at(step.lineage(cid)), b)
            gens = pulled
        for corner in report.corners:
            assert tuple(g.at(corner.corner) for g in gens) == corner.generator_exponents


def test_is_identity_reads_entries_and_labels():
    ident = ExponentMatrix.identity(("a", "b"))
    assert ident.is_identity()
    assert not ExponentMatrix.from_row_table(("a", "b"), ("a", "b"), [[1, 1], [0, 1]]).is_identity()
    assert not ExponentMatrix.from_row_table(("a", "b"), ("a", "c"), [[1, 0], [0, 1]]).is_identity()
    assert not ExponentMatrix.from_row_table(("a",), ("a", "b"), [[1, 0]]).is_identity()


@pytest.mark.parametrize("kind", ["wrong entry", "wrong labels"])
def test_edge_given_a_wrong_inverse_fails_validate(kind):
    m = two_corner_manifold()
    (e,) = m.edges
    if kind == "wrong labels":
        wrong = e.matrix
    else:
        inv = e.inverse
        entries = {(r, c): inv.entry(r, c) for r in inv.row_labels for c in inv.col_labels}
        entries[next(iter(entries))] += 1
        wrong = ExponentMatrix(inv.row_labels, inv.col_labels, entries)
    bad = with_edges(m, [Edge(e.p, e.q, e.matrix, inverse=wrong)])
    assert any("not an exact inverse" in v for v in bad.validate())
    good = with_edges(m, [Edge(e.p, e.q, e.matrix, inverse=e.inverse)])
    assert good.validate() == []


def test_the_sweep_builds_no_morphism_matrix(monkeypatch):
    """A step records each child as a `ChildChart`; only a reader of `B`
    (a trace, the oracle, `compose_star`) builds it."""

    def forbidden(chart):
        raise AssertionError("the sweep built a child's morphism matrix")

    monkeypatch.setattr(ChildChart, "matrix", property(forbidden))
    towers = [report for report in shared_reports() if report.age > 0]
    assert towers
    for report in towers:
        rep = reduce_problem(report.problem)
        assert rep.age == report.age
        assert rep.corners == report.corners


def test_the_sweep_builds_no_edge_inverse(monkeypatch):
    """A step builds and checks no inverse for the edges it makes: only a
    reader of `Edge.inverse` (`validate`, the oracle, `change_matrix`)
    computes one, on first read."""

    def forbidden(edge):
        raise AssertionError("the sweep read an edge's inverse")

    monkeypatch.setattr(Edge, "inverse", property(forbidden))
    reports = shared_reports()
    edges = 0
    for report in reports:
        rep = reduce_problem(report.problem)
        assert rep.age == report.age
        assert rep.corners == report.corners
        for step in rep.star.steps:
            assert all("inverse" not in e.__dict__ for e in step.after.edges)
            edges += len(step.new_edges)
    assert edges > 50


def forbid_everywhere(monkeypatch, names, message):
    """Replace each named `monores` function, in every module that imported
    it, by one that fails with `message`."""

    def forbidden(*args, **kwargs):
        raise AssertionError(message)

    for name in names:
        original = getattr(monores, name)
        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] == "monores" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, forbidden)


def test_the_sweep_forms_no_product_to_compare(monkeypatch):
    """The step's exact checks decide their equations without a product:
    no `mat_mul`, `vec_apply` or `mat_inverse` runs in the sweep."""
    forbid_everywhere(
        monkeypatch,
        ("mat_mul", "vec_apply", "mat_inverse"),
        "the sweep formed a product or an inverse",
    )
    reports = shared_reports()
    assert any(report.age > 0 for report in reports)
    for report in reports:
        rep = reduce_problem(report.problem)
        assert rep.age == report.age
        assert rep.corners == report.corners


def test_the_sweep_never_validates_in_full(monkeypatch):
    """Once the seed ideal is built, a step checks only what it built: no
    `MonomialManifold.validate`, no full `MFunction` check and no
    connectivity family (`_label_sets`, `_connectivity_violations`) runs.
    A 20-variable step once enumerated 2^19 sets through its new label."""
    build = monores.reduction.build_ideal_from_support

    def forbidden(*args, **kwargs):
        raise AssertionError("the sweep re-checked a whole manifold")

    wide = two_point_problem(20)
    towers = [(report.problem, report) for report in shared_reports() if report.age > 0]
    assert towers
    towers.append((wide, reduce_problem(wide)))
    assert towers[-1][1].age == 1
    for problem, report in towers:
        with monkeypatch.context() as mp:

            def seed_then_forbid(*args):
                ideal = build(*args)
                mp.setattr(MonomialManifold, "validate", forbidden)
                mp.setattr(MonomialManifold, "_label_sets", forbidden)
                mp.setattr(MonomialManifold, "_connectivity_violations", forbidden)
                mp.setattr(MFunction, "__init__", forbidden)
                return ideal

            mp.setattr(monores.reduction, "build_ideal_from_support", seed_then_forbid)
            rep = reduce_problem(problem)
        assert rep.age == report.age
        assert rep.corners == report.corners


def test_the_sweep_builds_no_weight_family(monkeypatch):
    """The sweep computes weights at the center's corners only: no whole
    family is extended, validated or blown up from."""
    forbid_everywhere(
        monkeypatch,
        ("extend", "validate_realizable", "blow_up"),
        "the sweep worked on a whole weight family",
    )
    towers = [report for report in shared_reports() if report.age > 0]
    assert towers
    for report in towers:
        rep = reduce_problem(report.problem)
        assert rep.age == report.age
        assert rep.corners == report.corners


def renamed_row(mat, old, new):
    """`mat` with row `old` relabeled `new`, entries kept."""
    rows = (mat.row_labels - {old}) | {new}
    entries = {
        (new if r == old else r, c): mat.entry(r, c) for r in mat.row_labels for c in mat.col_labels
    }
    return ExponentMatrix(rows, mat.col_labels, entries)


def emptied_row(mat, row):
    """`mat` with row `row` set to 0: singular."""
    entries = {
        (r, c): 0 if r == row else mat.entry(r, c) for r in mat.row_labels for c in mat.col_labels
    }
    return ExponentMatrix(mat.row_labels, mat.col_labels, entries)


def edge_corruptions(e):
    """A new edge with its matrix (stored inverse kept), its inverse or its
    shared set corrupted; the shared set is read off the matrix, so it is
    corrupted by renaming a shared row to `p`'s own label.  Last, the edge
    with its new-label row emptied and no inverse held: singular, which
    the certificate sees through the conjugation identity and `validate`
    when it computes the inverse."""
    (i_p,) = e.matrix.col_labels - e.shared
    (i_q,) = e.matrix.row_labels - e.shared
    yield Edge(e.p, e.q, moved_corner(e.matrix, e.shared), inverse=e.inverse)
    yield Edge(e.p, e.q, e.matrix, inverse=moved_corner(e.inverse, e.shared))
    yield Edge(e.p, e.q, renamed_row(e.matrix, min(e.shared), i_p), inverse=e.inverse)
    yield Edge(e.p, e.q, emptied_row(e.matrix, i_q))


def with_new_edge(step, old, new):
    after = with_edges(step.after, [new if x is old else x for x in step.after.edges])
    return dataclasses.replace(step, after=after)


def test_local_certificate_fails_exactly_when_validate_fails():
    """Every new edge of every step of the test towers, corrupted in turn.
    The manifolds after those steps are every manifold of
    `tower_manifolds()` but the roots, which are single corners."""
    steps = all_steps()
    roots = [m for m in tower_manifolds() if all(m is not step.after for step in steps)]
    assert all(len(m.corners) == 1 for m in roots)
    corruptions = 0
    for step in steps:
        assert step.violations() == [] and step.after.validate() == []
        carried = set(step.before.edges)
        assert step.new_edges == tuple(e for e in step.after.edges if e not in carried)
        for e in step.new_edges:
            for bad_edge in edge_corruptions(e):
                bad = with_new_edge(step, e, bad_edge)
                assert bad.violations()
                assert bad.after.validate()
                corruptions += 1
    assert corruptions > 3 * 80


def test_local_certificate_requires_every_lift():
    """Each new edge of the test towers dropped in turn: the lift check
    misses it, whether it joins a child to an untouched corner (which no
    label set through the new label needs) or two children."""
    kinds = {"child-untouched": 0, "child-child": 0}
    for step in all_steps():
        for e in step.new_edges:
            bad = with_edges(step.after, [x for x in step.after.edges if x is not e])
            found = dataclasses.replace(step, after=bad).violations()
            assert any(v.endswith(" is missing") for v in found)
            both = e.p in step.children and e.q in step.children
            kinds["child-child" if both else "child-untouched"] += 1
    assert kinds["child-untouched"] > 30 and kinds["child-child"] > 50


def enumerated_connectivity(step):
    """The connectivity check the step certificate made before its lifts
    were known to imply it: every label set through the new label that
    two or more corners hold, enumerated and walked."""
    through_new = {j for j in enumerated_label_sets(step.after) if step.new_label in j}
    return step.after._connectivity_violations(through_new)


def corrupted_steps(step):
    """Each corruption the tests above make of a step's new edges: a
    dropped new edge, `edge_corruptions` and `corrupted`."""
    for e in step.new_edges:
        dropped = with_edges(step.after, [x for x in step.after.edges if x is not e])
        yield dataclasses.replace(step, after=dropped)
        yield from (with_new_edge(step, e, bad) for bad in edge_corruptions(e))
        yield with_new_edge(step, e, corrupted(e))


def test_the_label_set_enumeration_never_finds_what_the_certificate_passes():
    """The enumeration as an oracle for the certificate, which no longer
    runs it: on every step and on each of its `corrupted_steps`, it finds
    nothing wherever the certificate passes."""
    steps = all_steps()
    passed = fired = 0
    for step in steps:
        for variant in [step, *corrupted_steps(step)]:
            found = enumerated_connectivity(variant)
            if not variant.violations():
                assert found == []
                passed += 1
            fired += bool(found)
    assert passed >= len(steps) > 20
    assert fired > 50, "the oracle must fire on some corruption the certificate catches"


def test_pairwise_label_sets_give_the_enumeration_s_verdict():
    """`_label_sets` (the intersections of every two corners that share a
    label) against the enumeration it replaced in full `validate`: a
    subset of it, with the same connectivity verdict on every manifold of
    `tower_manifolds()`, on each of them with one edge cut, and after
    every `corrupted_steps` variant of every step."""
    towers = tower_manifolds()
    cuts = [with_edges(m, [x for x in m.edges if x is not e]) for m in towers for e in m.edges]
    variants = [variant.after for step in all_steps() for variant in corrupted_steps(step)]
    disconnected = 0
    for m in towers + cuts + variants:
        family, oracle = m._label_sets(), enumerated_label_sets(m)
        assert family <= oracle
        found = m._connectivity_violations(family)
        enumerated = m._connectivity_violations(oracle)
        assert bool(found) == bool(enumerated) and set(found) <= set(enumerated)
        disconnected += bool(found)
    assert sum(len(m._label_sets()) for m in towers) == 248
    assert sum(len(enumerated_label_sets(m)) for m in towers) == 479
    assert disconnected > 100, "the cuts must disconnect some intersections"


def test_new_edges_equal_a_scan_of_every_edge():
    """`new_edges` reads the children's adjacency lists; a scan of every
    edge of `after` finds the same edges, in the same order."""
    steps = all_steps()
    for step in steps:
        touching = tuple(
            e for e in step.after.edges if e.p in step.children or e.q in step.children
        )
        assert len(step.new_edges) == len(touching)
        assert all(a is b for a, b in zip(step.new_edges, touching))
    assert sum(len(step.new_edges) for step in steps) > 80


def test_the_lift_table_equals_a_scan_of_every_edge():
    """`_lift_table` walks the edges at the blown corners; the loop over
    every edge of `before` that `apply_center` once ran (`scanned_lifts`)
    finds the same edges upstairs, each lifting the same matrix object
    downstairs, on every step of the test towers and on the 20-variable
    one-step tower."""
    steps = all_steps() + list(reduce_problem(two_point_problem(20)).star.steps)
    lifts = 0
    for step in steps:
        table = _lift_table(step.before, step.center_pair, step.children)
        scanned = scanned_lifts(step)
        assert table.keys() == scanned.keys()
        for key, (_, old) in table.items():
            assert old is scanned[key]
        assert {e.key() for e in step.new_edges} == table.keys()
        lifts += len(table)
    assert lifts == sum(len(step.new_edges) for step in steps) > 80


def test_a_sweep_computes_each_lift_table_once(monkeypatch):
    """`apply_center` builds the new edges from the lift table and checks
    the step against that same table; only the public
    `BlowupStep.violations`, called on a built step, computes it again."""
    report = max(shared_reports(), key=lambda r: r.age)
    true_table = monores.blowup._lift_table
    calls = []

    def counted(*args):
        calls.append(args)
        return true_table(*args)

    monkeypatch.setattr(monores.blowup, "_lift_table", counted)
    rep = reduce_problem(report.problem)
    assert rep.age == report.age > 1
    assert len(calls) == rep.age
    assert rep.star.steps[-1].violations() == []
    assert len(calls) == rep.age + 1


FRACTION_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__"
)
FRACTION_ORDER = ("__lt__", "__le__", "__gt__", "__ge__")


def test_a_30_step_tower_stays_within_its_fraction_budget(monkeypatch):
    """Every entry is stored as a normalized integer pair, a step does its
    arithmetic on the pairs and every vector sort compares integer keys,
    so a 30-step corpus-C tower runs no `Fraction` arithmetic operator
    and no ordered comparison of `Fraction`s.  It ran 6,755 binary
    arithmetic operators and 6,871 ordered comparisons when each step
    added, multiplied and compared Fractions, 208 and 82 while the entries
    were stored as Fractions, and 0 and up to 24 while the two sorts of
    the problem's points (`minimal_support`, `sorted_points`) compared
    `Fraction` tuples."""
    counts = dict.fromkeys(("arithmetic", "order"), 0)

    def counted(kind, operator):
        def wrapper(*args):
            counts[kind] += 1
            return operator(*args)

        return wrapper

    for kind, names in (("arithmetic", FRACTION_ARITHMETIC), ("order", FRACTION_ORDER)):
        for name in names:
            monkeypatch.setattr(Fraction, name, counted(kind, getattr(Fraction, name)))
    with pytest.raises(BudgetExceededError) as stop:
        reduce_problem(corpus_c_problem(), max_steps=30)
    assert stop.value.star.age == 30
    assert counts["arithmetic"] == 0 and counts["order"] == 0, counts


def test_local_certificate_catches_a_changed_edge_that_validate_can_miss():
    """A new edge whose matrix changes with its inverse (so the edge's own
    checks hold) breaks a cycle unless it is a bridge of the corner graph.
    `validate` sees only the cycles; the local certificate compares the
    edge with the edge downstairs, so it fails on every such change."""
    bridges = cycles = 0
    for step in all_steps():
        for e in step.new_edges:
            bad = with_new_edge(step, e, corrupted(e))
            local = bad.violations()
            assert any("differs from M·B_p" in v for v in local)
            full = bad.after.validate()
            if full:
                assert all(v.startswith("cycle") for v in full)
                cycles += 1
            else:
                bridges += 1
    assert cycles > 50 and bridges > 10


def sweep_steps_with_generators():
    """Each step of the test towers with the generators on its `before`."""
    for problem, star in sample_towers():
        yield from zip(star.steps, generators_along(problem, star))


@pytest.mark.parametrize("kind", ["shifted", "negative"])
def test_local_pullback_check_fails_exactly_when_the_full_check_fails(monkeypatch, kind):
    """Each child's pulled-back vector, corrupted in turn."""

    def corrupt(vec, label):
        entries = dict(vec.items())
        entries[label] = entries[label] + 1 if kind == "shifted" else -1
        return ExponentVector(entries)

    checked = 0
    for step, gens in sweep_steps_with_generators():
        for fn in gens:
            good = pull_back_mfunction(fn, step)
            for cid in step.children:
                bad_vec = corrupt(good.at(cid), step.new_label)
                data = {**dict(good.items()), cid: bad_vec}
                with pytest.raises(MonoresError):
                    MFunction(step.after, data)
                with monkeypatch.context() as mp:
                    true_pull_back = BlowupStep.pull_back

                    def corrupted_pull_back(self, vec, corner_id, cid=cid, bad_vec=bad_vec):
                        return bad_vec if corner_id == cid else true_pull_back(self, vec, corner_id)

                    mp.setattr(BlowupStep, "pull_back", corrupted_pull_back)
                    with pytest.raises(AlgorithmInvariantViolation):
                        pull_back_mfunction(fn, step)
                checked += 1
    assert checked > 200


def test_pull_back_generators_equals_the_per_function_pullback_at_every_corner():
    """Every step of the test towers, all its generators at once."""
    steps = 0
    for step, gens in sweep_steps_with_generators():
        pulled = pull_back_generators(gens, step)
        assert len(pulled) == len(gens)
        for fn, up in zip(gens, pulled):
            assert up.manifold is step.after
            assert {cid for cid, _ in up.items()} == set(step.after.corners)
            assert up == pull_back_mfunction(fn, step)
        steps += 1
    assert steps == sum(star.age for _, star in sample_towers()) > 20


@pytest.mark.parametrize("kind", ["shifted", "negative"])
def test_a_fault_in_the_last_generator_alone_is_a_bug(monkeypatch, kind):
    """One child's vector of the last of three or more generators is
    corrupted, and no other generator's."""
    checked = 0
    for step, gens in sweep_steps_with_generators():
        if len(gens) < 3:
            continue
        last = gens[-1]
        good = pull_back_mfunction(last, step)
        for cid, chart in step.children.items():
            seen = last.at(chart.parent.id)
            if any(g.at(chart.parent.id) is seen for g in gens[:-1]):
                continue
            entries = dict(good.at(cid).items())
            label = step.new_label
            entries[label] = entries[label] + 1 if kind == "shifted" else -1
            bad_vec = ExponentVector(entries)
            true_pull_back = BlowupStep.pull_back

            def corrupted_pull_back(self, vec, corner_id, cid=cid, seen=seen, bad_vec=bad_vec):
                if corner_id == cid and vec is seen:
                    return bad_vec
                return true_pull_back(self, vec, corner_id)

            with monkeypatch.context() as mp:
                mp.setattr(BlowupStep, "pull_back", corrupted_pull_back)
                with pytest.raises(AlgorithmInvariantViolation):
                    pull_back_generators(gens, step)
            checked += 1
    assert checked > 50
