"""Exact vector/matrix core: examples plus algebraic property tests."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monores import (
    Edge,
    ExponentMatrix,
    ExponentVector,
    MonomialManifold,
    SingularMatrixError,
    StructuralError,
    div_le,
    make_corner,
    mat_inverse,
    mat_mul,
    minimal_elements,
    parse_rational,
    reduce_problem,
    vec_apply,
)
from monores.errors import AlgorithmInvariantViolation
from monores.ideals import MFunction, _check_balance, center_is_uncoupled_at
from monores import linalg
from monores.jsonio import matrix_from_json, matrix_to_json
from monores.linalg import (
    _compare,
    _compare_sums,
    _plus_times,
    _scaled,
    vec_apply_all_equal,
)
from helpers import (
    all_pairs_minimal,
    brute_force_minimal,
    generators_along,
    random_problem,
    sample_towers,
    tower_manifolds,
)
from test_manifold import reference_adjacency, reference_transport_weight

LABELS = ("E1", "E2")


def vec(*values, labels=LABELS):
    return ExponentVector(dict(zip(labels, values)))


rationals = st.fractions(min_value=Fraction(0), max_value=Fraction(10), max_denominator=8)
signed_rationals = st.fractions(min_value=Fraction(-10), max_value=Fraction(10), max_denominator=8)


def vectors(labels=LABELS, elems=rationals):
    return st.builds(
        lambda vals: ExponentVector(dict(zip(labels, vals))),
        st.tuples(*[elems] * len(labels)),
    )


def matrices(rows=LABELS, cols=LABELS, elems=signed_rationals):
    return st.builds(
        lambda vals: ExponentMatrix.from_row_table(
            rows, cols, [vals[i * len(cols) : (i + 1) * len(cols)] for i in range(len(rows))]
        ),
        st.lists(elems, min_size=len(rows) * len(cols), max_size=len(rows) * len(cols)),
    )


# -- rational strings ------------------------------------------------------


def test_parse_rational_forms():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("7") == 7
    assert parse_rational("-7") == -7
    assert parse_rational("-3/2") == Fraction(-3, 2)
    assert parse_rational(5) == 5
    assert parse_rational("4/2") == Fraction(2)
    assert parse_rational("-2/6") == Fraction(-1, 3)


@pytest.mark.parametrize("bad", ["1/-2", "1/0", "x", "1.5", "", "2/3/4", True, False])
def test_parse_rational_rejects(bad):
    with pytest.raises(StructuralError):
        parse_rational(bad)


@pytest.mark.parametrize(
    "text",
    ["1" + "0" * 5000, "1/" + "3" * 5000, "-" + "7" * 5000],
    ids=["integer", "denominator", "negative"],
)
def test_parse_rational_rejects_literals_too_long_to_convert(text):
    """More digits than Python converts to an int is bad input, not a
    ValueError."""
    with pytest.raises(StructuralError, match=f"rational literal of {len(text)} characters"):
        parse_rational(text)


# -- division order --------------------------------------------------------


def test_div_le_examples():
    assert div_le(vec(1, 2), vec(1, 3))
    assert not div_le(vec(2, 1), vec(1, 2))
    assert not div_le(vec(1, 2), vec(2, 1))
    lam = vec(Fraction(5, 3), Fraction(7, 2))
    assert div_le(lam, lam)


def test_div_le_mismatched_labels():
    with pytest.raises(StructuralError):
        div_le(vec(1, 2), ExponentVector({"E1": 1, "E3": 2}))


@given(vectors(), vectors(), vectors())
def test_div_le_is_a_partial_order(a, b, c):
    assert div_le(a, a)
    if div_le(a, b) and div_le(b, a):
        assert a == b
    if div_le(a, b) and div_le(b, c):
        assert div_le(a, c)


# -- minimal elements --------------------------------------------------------


def test_minimal_elements_examples():
    got = minimal_elements([vec(2, 1), vec(0, 2), vec(2, 3)])
    assert set(got) == {vec(2, 1), vec(0, 2)}
    lone = vec(Fraction(1, 2), 3)
    assert minimal_elements([lone]) == [lone]
    chain = [vec(1, 1), vec(2, 2), vec(3, 3)]
    assert minimal_elements(chain) == [vec(1, 1)]
    assert minimal_elements([]) == []


@given(st.lists(vectors(), min_size=1, max_size=8))
def test_minimal_elements_against_brute_force(vs):
    got = minimal_elements(vs)
    assert set(got) == brute_force_minimal(vs)
    assert got, "nonempty input must keep at least one minimal element"
    for a in got:
        for b in got:
            if a != b:
                assert not div_le(a, b)
    for v in vs:
        assert any(div_le(g, v) for g in got)


@st.composite
def signed_vector_lists(draw):
    """Vectors over three labels, given out of sorted order, whose entries
    come from a small pool with zero, negative and above-2^64 numerators,
    so that vectors repeat and tie on leading entries."""
    wide = st.builds(
        Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**70)
    )
    entry = st.sampled_from([Fraction(0), Fraction(-1, 3), Fraction(2**65 + 1, 3)]) | wide
    pool = draw(st.lists(entry, min_size=1, max_size=4))
    rows = draw(st.lists(st.tuples(*[st.sampled_from(pool)] * 3), max_size=10))
    return [ExponentVector(dict(zip(("z", "a", "m"), row))) for row in rows]


@given(signed_vector_lists())
@example([vec(2**64 + 1, 0), vec(Fraction(2**65 + 1, 2), -1), vec(2**64 + 1, 0), vec(-5, 7)])
def test_vectors_sort_on_integers_as_on_fraction_tuples(vs):
    """`_sorted_vectors` orders vectors as a sort of their entries in sorted
    label order, read as `Fraction`s, does."""
    reference = sorted(vs, key=lambda v: tuple(x for _, x in v.items()))
    assert linalg._sorted_vectors(vs) == reference


def counting_div_le(run):
    """`run()` and the number of `div_le` calls it made."""
    calls = 0
    div_le_ = linalg.div_le

    def counting(a, b):
        nonlocal calls
        calls += 1
        return div_le_(a, b)

    linalg.div_le = counting
    try:
        return run(), calls
    finally:
        linalg.div_le = div_le_


@st.composite
def vector_families(draw):
    """Vectors over two or three labels with repeats and divisor chains:
    entries from a few small values, each chain step adding a nonnegative
    vector to the last, the whole list shuffled and some vectors repeated."""
    labels = LABELS + draw(st.sampled_from([(), ("E3",)]))
    small = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)])
    entries = st.tuples(*[small] * len(labels))
    out = []
    for base in draw(st.lists(entries, min_size=1, max_size=5)):
        chain = [base]
        for step in draw(st.lists(entries, max_size=3)):
            chain.append(tuple(x + d for x, d in zip(chain[-1], step)))
        out.extend(ExponentVector(dict(zip(labels, t))) for t in chain)
    out += draw(st.lists(st.sampled_from(out), max_size=4))
    return draw(st.permutations(out))


@given(vector_families())
@settings(max_examples=200)
@example([vec(1, 1), vec(1, 1), vec(2, 2), vec(0, 3), vec(3, 0), vec(1, 2)])
def test_minimal_elements_is_the_all_pairs_scan(vs):
    """One scan against the kept minima returns the all-pairs scan's list,
    order included, and tests each distinct vector against at most every
    minimum."""
    got, calls = counting_div_le(lambda: minimal_elements(vs))
    assert got == all_pairs_minimal(vs)
    assert calls <= len(set(vs)) * len(got)


def test_corpus_a_tests_each_vector_against_the_kept_minima_only():
    """Reducing corpus A (seed 77, 100 draws) made 1,866 `div_le` calls
    when `minimal_elements` tested every vector against every other; it
    makes 918 now."""
    rng = random.Random(77)
    problems = [random_problem(rng) for _ in range(100)]
    _, calls = counting_div_le(lambda: [reduce_problem(p) for p in problems])
    assert 0 < calls <= 1000


# -- matrix algebra ----------------------------------------------------------


def mat(rows):
    return ExponentMatrix.from_row_table(LABELS, LABELS, rows)


def test_mat_mul_examples():
    a = mat([[1, 0], [1, 1]])
    assert mat_mul(a, ExponentMatrix.identity(LABELS)) == a
    d1 = mat([[2, 0], [0, 3]])
    d2 = mat([[Fraction(1, 2), 0], [0, 5]])
    assert mat_mul(d1, d2) == mat([[1, 0], [0, 15]])
    assert mat_mul(a, mat([[1, 0], [-1, 1]])) == ExponentMatrix.identity(LABELS)
    # Nonzero terms that cancel (one of them negative), and unequal
    # denominators 1/6 + 1/3 + 1/2 that sum to an integer.
    cancel = mat_mul(mat([[2, 3], [1, 0]]), mat([[3, 1], [-2, 0]]))
    assert cancel == mat([[0, 2], [3, 1]])
    assert cancel.entry("E1", "E1") == Fraction(0)
    thirds = ExponentMatrix.from_row_table(("E1",), ("x", "y", "z"), [[Fraction(1, 6), 1, 1]])
    halves = ExponentMatrix.from_row_table(
        ("x", "y", "z"), LABELS, [[1, 0], [Fraction(1, 3), 0], [Fraction(1, 2), -1]]
    )
    whole = mat_mul(thirds, halves)
    assert whole == ExponentMatrix.from_row_table(("E1",), LABELS, [[1, -1]])
    assert whole.entry("E1", "E1") == Fraction(1)
    assert whole.entry("E1", "E2") == Fraction(-1)


def test_mat_mul_label_mismatch():
    a = mat([[1, 0], [1, 1]])
    b = ExponentMatrix.from_row_table(("E3", "E4"), LABELS, [[1, 0], [0, 1]])
    with pytest.raises(StructuralError):
        mat_mul(a, b)


def test_mat_inverse_examples():
    ident = ExponentMatrix.identity(LABELS)
    assert mat_inverse(ident) == ident
    d = mat([[2, 0], [0, Fraction(3, 4)]])
    assert mat_inverse(d) == mat([[Fraction(1, 2), 0], [0, Fraction(4, 3)]])
    assert mat_inverse(mat([[1, 0], [1, 1]])) == mat([[1, 0], [-1, 1]])


def test_mat_inverse_singular():
    with pytest.raises(SingularMatrixError):
        mat_inverse(mat([[1, 2], [2, 4]]))


def test_mat_inverse_rectangular_rejected():
    m = ExponentMatrix.from_row_table(LABELS, ("E1",), [[1], [2]])
    with pytest.raises(StructuralError):
        mat_inverse(m)


@given(matrices())
@settings(max_examples=60)
def test_mat_inverse_round_trip(a):
    try:
        inv = mat_inverse(a)
    except SingularMatrixError:
        return
    ident = ExponentMatrix.identity(LABELS)
    assert mat_mul(inv, a) == ident
    assert mat_mul(a, inv) == ident


# -- row-vector action ---------------------------------------------------------


def test_vec_apply_examples():
    lam = vec(2, 1)
    assert vec_apply(lam, ExponentMatrix.identity(LABELS)) == lam
    b = ExponentMatrix.from_row_table(LABELS, ("E1", "E∞1"), [[1, Fraction(1, 2)], [0, 1]])
    assert vec_apply(lam, b) == ExponentVector({"E1": 2, "E∞1": 2})
    zero = ExponentVector(dict.fromkeys(LABELS, 0))
    assert vec_apply(zero, b) == ExponentVector({"E1": 0, "E∞1": 0})
    # Nonzero terms that cancel (one of them negative), and unequal
    # denominators 1/6 + 1/3 + 1/2 that sum to an integer.
    cancel = vec_apply(vec(2, 3), mat([[3, 1], [-2, 0]]))
    assert cancel == vec(0, 2)
    assert cancel["E1"] == Fraction(0)
    thirds = ExponentVector({"x": Fraction(1, 6), "y": 1, "z": 1})
    halves = ExponentMatrix.from_row_table(
        ("x", "y", "z"), LABELS, [[1, 0], [Fraction(1, 3), 0], [Fraction(1, 2), -1]]
    )
    whole = vec_apply(thirds, halves)
    assert whole == vec(1, -1)
    assert whole["E1"] == Fraction(1)
    assert whole["E2"] == Fraction(-1)


@given(vectors(elems=signed_rationals), matrices(), matrices())
@settings(max_examples=60)
def test_vec_apply_distributes_over_mat_mul(v, c, cp):
    assert vec_apply(vec_apply(v, c), cp) == vec_apply(v, mat_mul(c, cp))


# -- sparse kernels against the naive triple loop --------------------------------


def naive_mat_mul(a, b):
    rows, mids, cols = a.sorted_rows, a.sorted_cols, b.sorted_cols
    entries = {
        (r, c): sum((a.entry(r, m) * b.entry(m, c) for m in mids), Fraction(0))
        for r in rows
        for c in cols
    }
    return ExponentMatrix(rows, cols, entries)


def naive_vec_apply(v, a):
    return ExponentVector(
        {c: sum((v[r] * a.entry(r, c) for r in a.sorted_rows), Fraction(0)) for c in a.sorted_cols}
    )


def sparse_rational(rng):
    """Zero with probability 0.6 (a term the kernels never form), exactly 1
    with probability 0.15, otherwise a signed, often non-integer rational."""
    draw = rng.random()
    if draw < 0.6:
        return Fraction(0)
    if draw < 0.75:
        return Fraction(1)
    return Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7))


def random_labelled_matrix(rng, rows, cols):
    return ExponentMatrix(rows, cols, {(r, c): sparse_rational(rng) for r in rows for c in cols})


def test_kernels_match_naive_reference_on_sparse_rectangular_matrices():
    rng = random.Random(11)
    pool = ["E1", "E2", "E3", "E∞1", "E∞2", "z1", "z2"]
    zeros = ones = total = 0
    for _ in range(300):
        rows, mids, cols = (rng.sample(pool, rng.randint(1, 5)) for _ in range(3))
        a = random_labelled_matrix(rng, rows, mids)
        b = random_labelled_matrix(rng, mids, cols)
        v = ExponentVector({m: sparse_rational(rng) for m in mids})
        assert mat_mul(a, b) == naive_mat_mul(a, b)
        assert vec_apply(v, b) == naive_vec_apply(v, b)
        for mat_ in (a, b):
            values = [mat_.entry(r, c) for r in mat_.row_labels for c in mat_.col_labels]
            zeros += values.count(0)
            ones += values.count(1)
            total += len(values)
    assert zeros * 2 >= total
    assert ones * 10 >= total


POOL = ("E1", "E2", "E3", "E∞1", "E∞2", "z1", "z2")
label_sets = st.lists(st.sampled_from(POOL), min_size=1, max_size=5, unique=True)
sparse_values = st.one_of(
    st.just(Fraction(0)), st.just(Fraction(0)), st.just(Fraction(1)), signed_rationals
)


@st.composite
def sparse_matrices(draw, rows, cols):
    """Mostly zero entries, some exactly 1, negative ones, and whole rows of
    zeros."""
    zero_rows = draw(st.sets(st.sampled_from(rows)))
    return ExponentMatrix(
        rows,
        cols,
        {(r, c): Fraction(0) if r in zero_rows else draw(sparse_values) for r in rows for c in cols},
    )


def one_entry_changed(draw, vec_):
    entries = dict(vec_.items())
    label = draw(st.sampled_from(sorted(entries)))
    entries[label] += draw(signed_rationals.filter(bool))
    return ExponentVector(entries)


@given(st.data())
@settings(max_examples=100)
def test_vec_apply_all_equal_on_one_pair_agrees_with_the_product(data):
    rows, cols = data.draw(label_sets), data.draw(label_sets)
    a = data.draw(sparse_matrices(rows, cols))
    v = ExponentVector({r: data.draw(sparse_values) for r in rows})
    product = naive_vec_apply(v, a)
    for w in (product, one_entry_changed(data.draw, product)):
        assert vec_apply_all_equal(a, [(v, w)]) == (product == w)
    assert vec_apply_all_equal(a, [(v, product)])
    with pytest.raises(StructuralError):
        vec_apply_all_equal(a, [(ExponentVector({r + "'": 0 for r in rows}), product)])


def one_stored_entry_changed(draw, a):
    """`a` with one entry of one row changed by a nonzero rational."""
    row = draw(st.sampled_from(a.sorted_rows))
    changed = one_entry_changed(draw, ExponentVector({c: a.entry(row, c) for c in a.col_labels}))
    return ExponentMatrix(
        a.row_labels,
        a.col_labels,
        {(r, c): changed[c] if r == row else a.entry(r, c) for r in a.row_labels for c in a.col_labels},
    )


@given(st.data())
@settings(max_examples=100)
def test_mat_mul_is_identity_agrees_with_the_product(data):
    """`mat_mul(x, y)` compared with the identity against the naive
    product compared with it: on square matrices against their exact
    inverse, that inverse with one entry changed, and on rectangular
    products, which are never the identity.  The test checks the labels
    first."""
    labels = data.draw(label_sets)
    a = data.draw(sparse_matrices(labels, labels))
    try:
        inverse = mat_inverse(a)
    except SingularMatrixError:
        inverse = data.draw(sparse_matrices(labels, labels))
    wrong = one_stored_entry_changed(data.draw, inverse)
    rows, cols = data.draw(label_sets), data.draw(label_sets)
    left, right = data.draw(sparse_matrices(rows, labels)), data.draw(sparse_matrices(labels, cols))
    for x, y in ((inverse, a), (a, inverse), (wrong, a), (a, wrong), (left, right)):
        identity = ExponentMatrix.identity(x.row_labels)
        decided = x.row_labels == y.col_labels and mat_mul(x, y) == identity
        assert decided == (naive_mat_mul(x, y) == identity)
    assert mat_mul(wrong, a) != ExponentMatrix.identity(labels)


@given(st.data())
@settings(max_examples=100)
def test_vec_apply_all_equal_agrees_with_each_pair_in_order(data):
    """`vec_apply_all_equal(a, pairs)` is `all(vec_apply(v, a) == w for
    v, w in pairs)` on 1 to 6 pairs, with one pair wrong first, in the
    middle or last.  A vector over other labels than `a`'s rows raises
    StructuralError when it comes before the first wrong pair, and the
    verdict is False when it comes after."""
    rows, cols = data.draw(label_sets), data.draw(label_sets)
    a = data.draw(sparse_matrices(rows, cols))
    count = data.draw(st.integers(1, 6))
    vs = [ExponentVector({r: data.draw(sparse_values) for r in rows}) for _ in range(count)]
    pairs = [(v, naive_vec_apply(v, a)) for v in vs]
    assert vec_apply_all_equal(a, pairs)
    mismatch = (ExponentVector({r + "'": 0 for r in rows}), pairs[0][1])
    for at in sorted({0, count // 2, count - 1}):
        v, w = pairs[at]
        failing = pairs[:at] + [(v, one_entry_changed(data.draw, w))] + pairs[at + 1 :]
        expected = all(vec_apply(v, a) == w for v, w in failing)
        assert not expected
        assert vec_apply_all_equal(a, failing) == expected
        for where in range(count + 1):
            mixed = failing[:where] + [mismatch] + failing[where:]
            if where <= at:
                with pytest.raises(StructuralError):
                    vec_apply_all_equal(a, mixed)
            else:
                assert not vec_apply_all_equal(a, mixed)


def test_every_stored_matrix_keeps_only_nonzero_rows():
    """Every edge matrix and inverse of the test towers stores no zero and
    no empty row, each entry a normalized pair, and equals, in value and
    hash, its rebuild through the public constructor from
    `matrix_to_json`."""
    checked = 0
    for m in tower_manifolds():
        for e in m.edges:
            for mat_ in (e.matrix, e.inverse):
                for r, row in mat_._nonzero.items():
                    assert r in mat_.row_labels and row and set(row) <= mat_.col_labels
                    assert all(is_normalized_pair(x) and x[0] != 0 for x in row.values())
                rebuilt = matrix_from_json(matrix_to_json(mat_))
                assert rebuilt == mat_ and hash(rebuilt) == hash(mat_)
                checked += 1
    assert checked > 300


@pytest.mark.parametrize(
    "nonzero, message",
    [
        ({"E3": {"E1": (1, 1)}}, "row 'E3'"),
        ({"E1": {"E3": (1, 1)}}, "row 'E1'"),
        ({"E1": {"E1": (0, 1)}}, "row 'E1'"),
        ({"E2": {}}, "row 'E2'"),
        ({"E1": {"E1": (0, 5)}}, "row 'E1'"),
    ],
)
def test_a_bad_private_matrix_is_a_bug_not_bad_input(nonzero, message):
    """`ExponentMatrix._exact` is fed only by the library's kernels, so a
    store with a row or column outside the labels, a stored 0 or an empty
    row is an AlgorithmInvariantViolation (exit 4), not bad input.  A
    stored 0 is any pair with a zero numerator, normalized or not."""
    labels = frozenset(LABELS)
    with pytest.raises(AlgorithmInvariantViolation, match=message):
        ExponentMatrix._exact(labels, labels, nonzero)


def test_private_constructors_build_what_the_public_ones_accept():
    """Every edge matrix, inverse and child `B` of the test towers, and
    every pulled-back generator, rebuilt through the validating public
    constructor, equals the object the kernels built without it."""
    built = 0
    for m in tower_manifolds():
        for e in m.edges:
            for mat_ in (e.matrix, e.inverse):
                entries = {(r, c): mat_.entry(r, c) for r in mat_.row_labels for c in mat_.col_labels}
                assert all(type(x) is Fraction for x in entries.values())
                assert ExponentMatrix(mat_.row_labels, mat_.col_labels, entries) == mat_
                built += 1
    for problem, star in sample_towers():
        for step, gens in zip(star.steps, generators_along(problem, star)[1:]):
            for chart in step.children.values():
                b = chart.matrix
                entries = {(r, c): b.entry(r, c) for r in b.row_labels for c in b.col_labels}
                assert ExponentMatrix(b.row_labels, b.col_labels, entries) == b
                built += 1
            for g in gens:
                for cid in step.children:
                    vec_ = g.at(cid)
                    assert all(type(x) is Fraction for _, x in vec_.items())
                    assert ExponentVector(dict(vec_.items())) == vec_
                    built += 1
    assert built > 500


def test_every_stored_entry_is_a_normalized_pair_read_out_as_a_fraction():
    """Every edge matrix, inverse and child `B` of the test towers, and
    every pulled-back generator: each stored entry is a normalized pair
    (a matrix stores no 0), and `entry()`, `vec[label]` and `items()`
    give `Fraction`s equal to what the public constructor parses from the
    pair written as "n/d"."""

    def parsed(pair):
        return parse_rational(f"{pair[0]}/{pair[1]}")

    matrices_, vectors_ = [], []
    for m in tower_manifolds():
        for e in m.edges:
            matrices_ += [e.matrix, e.inverse]
    for problem, star in sample_towers():
        for step, gens in zip(star.steps, generators_along(problem, star)[1:]):
            matrices_ += [chart.matrix for chart in step.children.values()]
            vectors_ += [g.at(cid) for g in gens for cid in step.children]
    for mat_ in matrices_:
        for r in mat_.row_labels:
            for c in mat_.col_labels:
                stored = mat_._nonzero.get(r, {}).get(c)
                assert stored is None or (is_normalized_pair(stored) and stored[0] != 0)
                x = mat_.entry(r, c)
                assert type(x) is Fraction and x == (0 if stored is None else parsed(stored))
    for vec_ in vectors_:
        assert all(is_normalized_pair(pair) for pair in vec_._map.values())
        items = list(vec_.items())
        assert [lab for lab, _ in items] == sorted(vec_.labels)
        for lab, x in items:
            expected = parsed(vec_._map[lab])
            assert type(x) is Fraction and type(vec_[lab]) is Fraction
            assert x == vec_[lab] == expected
    assert len(matrices_) > 300 and len(vectors_) > 200


def test_public_matrix_constructor_checks_every_entry_and_drops_zeros():
    """Every entry is still required and checked, with the same messages;
    the zeros are read back from the labels, not stored."""
    with pytest.raises(StructuralError, match=r"^matrix is missing 1 entries$"):
        ExponentMatrix(LABELS, LABELS, {("E1", "E1"): 1, ("E1", "E2"): 0, ("E2", "E1"): 0})
    with pytest.raises(StructuralError, match=r"^entry \('E3','E1'\) outside \['E1', 'E2'\]x"):
        ExponentMatrix(LABELS, LABELS, {("E3", "E1"): 1})
    m = mat([[2, 0], [0, Fraction(1, 2)]])
    assert m._nonzero == {"E1": {"E1": (2, 1)}, "E2": {"E2": (1, 2)}}
    assert m.entry("E2", "E2") == Fraction(1, 2) and type(m.entry("E2", "E2")) is Fraction
    assert m.entry("E1", "E2") == 0 and type(m.entry("E1", "E2")) is Fraction
    with pytest.raises(StructuralError, match=r"^no entry at \('E1','E3'\)$"):
        m.entry("E1", "E3")
    assert repr(m) == "ExponentMatrix(rows=['E1', 'E2'], cols=['E1', 'E2'], E1: [2, 0]; E2: [0, 1/2])"
    assert m == mat([[2, 0], [0, Fraction(1, 2)]]) and m != mat([[2, 0], [1, Fraction(1, 2)]])


def test_kernels_reject_mismatched_labels():
    rng = random.Random(12)
    a = random_labelled_matrix(rng, ["E1", "E2"], ["E1", "E2", "E3"])
    b = random_labelled_matrix(rng, ["E1", "E2"], ["E1"])
    with pytest.raises(StructuralError):
        mat_mul(a, b)
    with pytest.raises(StructuralError):
        vec_apply(ExponentVector({"E1": 0, "E3": 0}), b)


@given(vectors(), vectors(), matrices(elems=rationals))
@settings(max_examples=80)
def test_nonnegative_matrices_preserve_division_order(lam, delta, b):
    mu = ExponentVector({k: lam[k] + delta[k] for k in lam.labels})
    assert div_le(lam, mu)
    assert div_le(vec_apply(lam, b), vec_apply(mu, b))


# -- misc -----------------------------------------------------------------------


@given(st.dictionaries(st.sampled_from(POOL), signed_rationals, min_size=1), st.randoms())
def test_vectors_from_reordered_entries_are_one_vector(entries, rnd):
    """A vector keeps its label map of normalized pairs only: built in any
    insertion order, through the public constructor from `Fraction`s or
    the private one from pairs, it compares and hashes as one vector and
    yields its items, as `Fraction`s, in sorted label order."""
    shuffled = list(entries.items())
    rnd.shuffle(shuffled)
    pairs = [(k, x.as_integer_ratio()) for k, x in shuffled]
    built = [
        ExponentVector(entries),
        ExponentVector(dict(shuffled)),
        ExponentVector._exact(dict(pairs)),
        ExponentVector._exact(dict(reversed(pairs))),
    ]
    for v in built:
        assert v == built[0] and hash(v) == hash(built[0])
        assert v._map == dict(pairs)
        assert list(v.items()) == sorted(entries.items())
        assert all(type(x) is Fraction for _, x in v.items())
    assert ExponentVector.__slots__ == ("_map",)


def test_vector_basics():
    v = vec(1, Fraction(2, 3))
    assert v["E1"] == 1
    assert v.labels == frozenset(LABELS)
    with pytest.raises(StructuralError):
        v["nope"]


@given(st.lists(signed_rationals, min_size=1, max_size=4))
@example([Fraction(-1, 3)])
@example([Fraction(0)])
@example([Fraction(1, 2)])
@example([Fraction(0), Fraction(5, 2)])
@example([Fraction(7), Fraction(-1, 7)])
def test_sign_tests_agree_with_comparisons(values):
    v = ExponentVector({f"E{i}": x for i, x in enumerate(values)})
    assert v.is_nonnegative() == all(x >= 0 for x in values)
    assert v.is_positive() == all(x > 0 for x in values)


@pytest.mark.parametrize("labels", [("E1", ""), ("E1", 2), (None,)], ids=["empty", "int", "none"])
def test_identity_rejects_bad_labels(labels):
    with pytest.raises(StructuralError, match="labels must be nonempty strings"):
        ExponentMatrix.identity(labels)


@pytest.mark.parametrize("labels", [(), ("E1",), LABELS, ("a", "b", "E∞1")])
def test_identity_equals_the_public_constructor_identity(labels):
    ident = ExponentMatrix.identity(labels)
    entries = {(r, c): int(r == c) for r in labels for c in labels}
    assert ident == ExponentMatrix(labels, labels, entries)
    assert all(type(ident.entry(r, c)) is Fraction for r in labels for c in labels)


def test_matrix_totality_enforced():
    with pytest.raises(StructuralError):
        ExponentMatrix(LABELS, LABELS, {("E1", "E1"): 1})


@pytest.mark.parametrize(
    "rows, cols, table",
    [
        (["E1", "E2", "E1"], LABELS, [[1, 0], [0, 1], [5, 5]]),
        (LABELS, ["E1", "E2", "E2"], [[1, 0, 5], [0, 1, 5]]),
    ],
    ids=["row", "column"],
)
def test_from_row_table_rejects_repeated_labels(rows, cols, table):
    """A repeated label would keep only its last row or column."""
    with pytest.raises(StructuralError, match="repeats a row or column label"):
        ExponentMatrix.from_row_table(rows, cols, table)


# -- integer-pair rules for single entries ---------------------------------

# Numerators and denominators past 2^64, zero, and both signs.
BIG = 2**70
wide_rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(max_denominator=12),
    st.builds(
        Fraction,
        st.integers(min_value=-(2**80), max_value=2**80),
        st.integers(min_value=1, max_value=2**80),
    ),
    st.builds(lambda n: Fraction(n * BIG + 1, 3), st.integers(min_value=-5, max_value=5)),
)
positive_rationals = st.builds(
    Fraction, st.integers(min_value=1, max_value=2**80), st.integers(min_value=1, max_value=2**80)
)


def is_normalized(x):
    return type(x) is Fraction and x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1


def is_normalized_pair(x):
    """A stored entry: two ints, the denominator positive and coprime to
    the numerator, so 0 is (0, 1)."""
    return (
        type(x) is tuple
        and len(x) == 2
        and all(type(v) is int for v in x)
        and x[1] > 0
        and math.gcd(*x) == 1
    )


@given(wide_rationals, wide_rationals, wide_rationals)
@example(Fraction(0), Fraction(3, 2), Fraction(0))
@example(Fraction(-BIG, 7), Fraction(BIG + 1, 3), Fraction(-5, BIG))
@example(Fraction(1, 2), Fraction(0), Fraction(BIG))
@settings(max_examples=150)
def test_plus_times_equals_the_fraction_formula(top, c, x):
    got = _plus_times(top.as_integer_ratio(), c.as_integer_ratio(), x.as_integer_ratio())
    assert got == (top + c * x).as_integer_ratio() and is_normalized_pair(got)


@given(wide_rationals, st.data())
@settings(max_examples=150)
def test_compare_is_the_sign_of_the_difference(a, data):
    b = data.draw(st.one_of(st.just(a), st.just(Fraction(a.numerator, a.denominator)), wide_rationals))
    pa, pb = a.as_integer_ratio(), b.as_integer_ratio()
    assert _compare(pa, pb) == (a > b) - (a < b)
    assert _compare(pb, pa) == -_compare(pa, pb)


terms = st.lists(st.lists(wide_rationals, min_size=0, max_size=3), max_size=3)


@given(terms, terms, st.booleans())
@settings(max_examples=100)
def test_compare_sums_is_the_sign_of_the_difference_of_sums(left, right, tie):
    """Each side a sum of products; an empty product is 1, an empty sum 0."""
    if tie:
        right = left[::-1]
    total = sum((math.prod(t, start=Fraction(1)) for t in left), Fraction(0))
    total -= sum((math.prod(t, start=Fraction(1)) for t in right), Fraction(0))
    left, right = ([[f.as_integer_ratio() for f in t] for t in side] for side in (left, right))
    assert _compare_sums(left, right) == (total > 0) - (total < 0)


@given(st.integers(-(2**80), 2**80), st.integers(1, 2**80), positive_rationals, st.booleans())
@settings(max_examples=100)
def test_scaled_carries_a_pair_across_a_positive_factor(n, d, x, divide):
    num, den = _scaled((n, d), x.as_integer_ratio(), divide)
    assert den > 0
    assert Fraction(num, den) == (Fraction(n, d) / x if divide else Fraction(n, d) * x)


PAIR_LABELS = ("x", "y", "z")
exponents = st.fractions(min_value=Fraction(0), max_value=Fraction(20), max_denominator=9)


def on_one_corner(values):
    m = make_corner(PAIR_LABELS)
    return MFunction(m, {"c0": ExponentVector(dict(zip(PAIR_LABELS, values)))})


@given(st.tuples(*[exponents] * 3), st.tuples(*[exponents] * 3), st.data())
@settings(max_examples=150)
def test_center_sign_test_agrees_with_the_product_of_differences(lam, mu, data):
    # half of the draws tie one coordinate, where the product is 0
    mu = data.draw(st.one_of(st.just(mu), st.just(lam[:1] + mu[1:]), st.just(mu[:1] + lam[1:2] + mu[2:])))
    f, g = on_one_corner(lam), on_one_corner(mu)
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        pair = frozenset((PAIR_LABELS[i], PAIR_LABELS[j]))
        expected = (lam[i] - mu[i]) * (lam[j] - mu[j]) < 0
        assert center_is_uncoupled_at(f, g, pair, "c0") == expected


@given(
    st.tuples(*[exponents] * 3),
    st.tuples(*[exponents] * 3),
    positive_rationals,
    st.sampled_from([Fraction(0), Fraction(1, BIG), Fraction(-3, 7), Fraction(BIG)]),
)
@settings(max_examples=150)
def test_balance_check_agrees_with_the_balance_formula(lam, mu, a_x, perturbation):
    """Weights that balance the pair (x, y) exactly, then moved by
    `perturbation` on y; the check raises iff the Fraction formula is not 0."""
    f, g = on_one_corner(lam), on_one_corner(mu)
    d_x, d_y = lam[0] - mu[0], lam[1] - mu[1]
    a_y = -a_x * d_y / d_x if d_x else Fraction(5, 3)
    a_y += perturbation
    weights = {"c0": ExponentVector({"x": a_x, "y": a_y, "z": 1})}
    balanced = a_y * d_x + a_x * d_y == 0
    if balanced:
        _check_balance(f, g, frozenset("xy"), weights)
    else:
        with pytest.raises(AlgorithmInvariantViolation, match="balance equation at corner 'c0'"):
            _check_balance(f, g, frozenset("xy"), weights)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_transport_weight_equals_the_fraction_walk(data):
    """Carried on integer pairs, the weights equal the breadth-first loop
    that multiplied and divided Fractions hop by hop."""
    manifolds = [m for m in tower_manifolds() if m.edges]
    m = data.draw(st.sampled_from(manifolds))
    label = data.draw(st.sampled_from(sorted(m.components)))
    start = data.draw(st.sampled_from(m.corners_with([label])))
    value = data.draw(positive_rationals | wide_rationals)
    got = m.transport_weight(label, start, value)
    assert got == reference_transport_weight(m, reference_adjacency(m), label, start, value)
    assert all(is_normalized(w) for w in got.values())


@given(st.data(), st.fractions(max_value=Fraction(0), max_denominator=7))
@settings(max_examples=40, deadline=None)
def test_a_nonpositive_diagonal_stops_the_transport_with_the_edge_s_message(data, bad):
    manifolds = [m for m in tower_manifolds() if m.edges]
    m = data.draw(st.sampled_from(manifolds))
    e = data.draw(st.sampled_from(m.edges))
    label = data.draw(st.sampled_from(sorted(e.shared)))
    rows, cols = sorted(e.matrix.row_labels), sorted(e.matrix.col_labels)
    entries = {(r, c): e.matrix.entry(r, c) for r in rows for c in cols}
    entries[(label, label)] = bad
    broken = Edge(e.p, e.q, ExponentMatrix(rows, cols, entries))
    bad_m = MonomialManifold(
        m.dimension, m.components, m.corners.values(), [broken] + [x for x in m.edges if x is not e]
    )
    message = f"nonpositive diagonal at {label} on edge {e.p}->{e.q}: corrupt chart data"
    with pytest.raises(StructuralError) as from_edge:
        broken._diagonal(label)
    with pytest.raises(StructuralError) as from_walk:
        bad_m.transport_weight(label, e.p, Fraction(1))
    assert str(from_walk.value) == str(from_edge.value) == message


# -- closed-form inverse of a chart change ---------------------------------


def gauss_jordan_reference(a):
    """`a`'s inverse by `Fraction` Gauss-Jordan elimination over sorted
    labels (rows `a`'s columns, columns `a`'s rows), or
    SingularMatrixError: the reference for `mat_inverse`."""
    rows, cols = a.sorted_rows, a.sorted_cols
    n = len(rows)
    work = [
        [a.entry(r, c) for c in cols] + [Fraction(i == j) for j in range(n)]
        for i, r in enumerate(rows)
    ]
    for i in range(n):
        pivot = next((k for k in range(i, n) if work[k][i]), None)
        if pivot is None:
            raise SingularMatrixError("singular")
        work[i], work[pivot] = work[pivot], work[i]
        p = work[i][i]
        work[i] = [x / p for x in work[i]]
        for k in range(n):
            f = work[k][i]
            if k != i and f:
                work[k] = [x - f * y for x, y in zip(work[k], work[i])]
    return ExponentMatrix(
        cols, rows, {(cols[i], rows[j]): work[i][n + j] for i in range(n) for j in range(n)}
    )


# `wide_rationals` with its zeros read as 1, built rather than filtered:
# most of hypothesis's first draws are 0, so filtering them rejected
# whole examples often enough to fail its filter health check.
nonzero_wide = wide_rationals.map(lambda x: x or Fraction(1))


def chart_change(shared, i_q, i_p, diagonal, corner, a):
    """Rows `shared ∪ {i_q}`, columns `shared ∪ {i_p}`: `diagonal[ℓ]` at
    (ℓ, ℓ), `corner[ℓ]` (0 when absent) at (ℓ, i_p), `a` at (i_q, i_p)."""
    rows, cols = [*shared, i_q], [*shared, i_p]
    entries = {(r, c): 0 for r in rows for c in cols}
    for ell in shared:
        entries[(ell, ell)] = diagonal[ell]
        entries[(ell, i_p)] = corner.get(ell, 0)
    entries[(i_q, i_p)] = a
    return ExponentMatrix(rows, cols, entries)


@st.composite
def chart_changes(draw):
    """A chart change over n = 2..6 labels each side: diagonals and `a` of
    either sign, numerators and denominators past 2^64, each `u_ℓ`
    present or absent."""
    n = draw(st.integers(min_value=2, max_value=6))
    labels = draw(st.lists(st.sampled_from(POOL), min_size=n + 1, max_size=n + 1, unique=True))
    shared, i_q, i_p = labels[: n - 1], labels[n - 1], labels[n]
    diagonal = {ell: draw(nonzero_wide) for ell in shared}
    corner = {ell: draw(nonzero_wide) for ell in shared if draw(st.booleans())}
    return chart_change(shared, i_q, i_p, diagonal, corner, draw(nonzero_wide))


BIG_CHART = chart_change(
    ["E1", "E2"],
    "z1",
    "z2",
    {"E1": Fraction(-(2**65) - 1, 3), "E2": Fraction(7, 2**66 + 1)},
    {"E2": Fraction(2**64 + 5, -7)},
    Fraction(-(2**70) + 3, 2**65 + 1),
)


@given(chart_changes())
@example(BIG_CHART)
@settings(max_examples=150, deadline=None)
def test_a_chart_change_is_inverted_in_closed_form(a):
    """`mat_inverse` takes the closed form on every chart change and gives
    the reference's inverse, over `a`'s own column and row label
    objects, with every entry a normalized pair; its product with `a` is
    the identity on both sides."""
    closed = linalg._chart_change_inverse(a)
    assert closed is not None
    inverse = mat_inverse(a)
    assert inverse == closed == gauss_jordan_reference(a)
    assert inverse.row_labels is a.col_labels and inverse.col_labels is a.row_labels
    assert all(is_normalized_pair(x) for row in inverse._nonzero.values() for x in row.values())
    assert mat_mul(inverse, a) == ExponentMatrix.identity(a.col_labels)
    assert mat_mul(a, inverse) == ExponentMatrix.identity(a.row_labels)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_a_near_chart_change_takes_the_general_path(data):
    """A chart change with an off-diagonal entry on shared labels, an entry
    of row `i_q` at a shared column, or row `i_q` emptied is not inverted
    in closed form: `mat_inverse` gives the reference's inverse, or both
    raise SingularMatrixError."""
    a = data.draw(chart_changes())
    (i_q,) = a.row_labels - a.col_labels
    (i_p,) = a.col_labels - a.row_labels
    shared = sorted(a.row_labels & a.col_labels)
    kinds = ["new row at a shared column", "empty new row"]
    if len(shared) > 1:
        kinds.append("off-diagonal")
    kind = data.draw(st.sampled_from(kinds))
    entries = {(r, c): a.entry(r, c) for r in a.row_labels for c in a.col_labels}
    if kind == "off-diagonal":
        ell, m = data.draw(st.permutations(shared))[:2]
        entries[(ell, m)] = data.draw(nonzero_wide)
    elif kind == "new row at a shared column":
        entries[(i_q, data.draw(st.sampled_from(shared)))] = data.draw(nonzero_wide)
    else:
        entries[(i_q, i_p)] = 0
    b = ExponentMatrix(a.row_labels, a.col_labels, entries)
    assert linalg._chart_change_inverse(b) is None
    try:
        expected = gauss_jordan_reference(b)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            mat_inverse(b)
        assert kind != "off-diagonal"
        return
    assert mat_inverse(b) == expected
