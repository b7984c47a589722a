"""Exact label-keyed linear algebra over the rationals.

Vectors and matrices here are total maps from finite sets of opaque string
labels.  There is no positional indexing, no floating point, and no
tolerance anywhere: all arithmetic is exact, on integers.

Every entry is stored once, as a normalized integer pair `(n, d)`: `d > 0`
and `gcd(n, d) == 1`, so 0 is `(0, 1)` and two entries are equal exactly
when their pairs are.  A matrix keeps one store, its nonzero rows: row
label -> {column label: pair with `n != 0`}, where an absent row or entry
is the exact 0.  A vector keeps one store too, its label map.  Every
reader in the library uses the pairs directly.  A `fractions.Fraction` is
built only on demand, by the public accessors (`vec[label]`, `items()`,
`ExponentMatrix.entry`), and by `mat_inverse` on its general path only.

`mat_inverse` inverts a chart change between two adjacent corners, the
shape every edge matrix has, in closed form: O(n) on the integer pairs,
each entry normalized once (`_chart_change_inverse`).  Any other square
matrix takes Gauss-Jordan elimination on `Fraction`s, which converts at
its two ends.  No check inverts a chart change to decide whether it is
invertible: it is exactly when its one new-label entry is nonzero
(`manifold.MonomialManifold._edge_violations`).

Every product and every product test sums each entry over the stored
terms only, as an unreduced pair (`_entry_sums`).  A product (`mat_mul`,
`vec_apply`) then normalizes each entry once (`_normalized`, one gcd); a
test (`vec_apply_all_equal`) cross-multiplies it with the expected
entry, so it takes no gcd and gives the product's verdict.
`vec_apply_all_equal` checks many vectors against one matrix, so it
groups the matrix's stored entries by column once (a column plan) and
sums each vector's entries along it.

The blow-up step's single entries follow the same rule, through the
integer-pair helpers at the end of this module: a construction
(`_plus_times`, `top + c·x`) normalizes each entry it keeps once, a
weight carried across one edge (`_scaled`) stays unreduced until its walk
ends, and a sign, order or equality test (`_compare`, `_compare_sums`,
`div_le`) cross-multiplies.  So `blowup`, `manifold`, `standardization`
and `ideals` hold no arithmetic of their own and run no `Fraction`
operator.

The public constructors validate what callers pass: every label, and
every entry, parsed from any `RatLike` by `parse_rational`; a matrix
drops its zeros.  The products, the inverse, the identity and the
blow-up's lifts build their results with the private constructors
`ExponentMatrix._exact` and `ExponentVector._exact` instead.  Their
contract: the label sets are taken from already-built objects or checked
once by the caller (a blow-up's new label by `apply_center`, the
identity's labels by `ExponentMatrix.identity`; a blow-up's lifts take
their corners' own index sets), and every entry is a
normalized pair computed from theirs or made there.  Only the shape of a
matrix's store is checked (`_exact`): a stored row or column outside the
labels, an empty row, or a stored pair with a zero numerator, whatever
its denominator, is a kernel's bug.

The componentwise partial order `div_le` (one exponent tuple divides
another) and the extraction of its minimal elements live here too, since
every other module is built on them.  Vectors are ordered by their
entries in sorted label order (`_sorted_vectors`, on integer keys); a
proper divisor sorts first, so `minimal_elements` tests each vector only
against the minima already kept.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import AlgorithmInvariantViolation, SingularMatrixError, StructuralError

RatLike = Union[Fraction, int, str]
# A stored entry: a normalized integer pair (numerator, denominator).
Pair = tuple[int, int]

_RATIONAL = re.compile(r"[+-]?\d+(?:/\d+)?\Z")
_ZERO: Pair = (0, 1)
_ONE: Pair = (1, 1)


def parse_rational(value: RatLike) -> Fraction:
    """Parse an exact rational from "p/q" or "n" notation.

    Fractions and ints pass through; bools, which are ints to Python but
    `true`/`false` in a JSON file, are rejected.  The denominator, when
    present, must be an unsigned integer, so negative denominators are
    rejected.  A literal with more digits than Python converts to an int
    (`sys.get_int_max_str_digits`) is rejected too.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL.match(text):
            raise StructuralError(f"not a rational literal: {value!r}")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise StructuralError(f"zero denominator in {value!r}") from None
        except ValueError as exc:
            raise StructuralError(f"rational literal of {len(text)} characters: {exc}") from None
    raise StructuralError(f"cannot read a rational out of {type(value).__name__}")


def _fraction(pair: Pair) -> Fraction:
    """The `Fraction` of a stored pair, built when a public accessor reads
    it; an integer takes `Fraction`'s one-argument path."""
    n, d = pair
    return Fraction(n) if d == 1 else Fraction(n, d)


def _format_pair(pair: Pair) -> str:
    """A stored pair rendered as "n" for an integer and "p/q" otherwise,
    the form every trace and message writes."""
    n, d = pair
    return str(n) if d == 1 else f"{n}/{d}"


def _check_label(label) -> str:
    """A label is a nonempty string that encodes as UTF-8, the encoding
    every trace is written in; a lone surrogate such as "\\ud800", legal
    in a JSON string, does not."""
    if not isinstance(label, str) or not label:
        raise StructuralError(f"labels must be nonempty strings, got {label!r}")
    try:
        label.encode("utf-8")
    except UnicodeEncodeError:
        raise StructuralError(f"labels must be UTF-8-encodable text, got {label!r}") from None
    return label


class ExponentVector:
    """A total map from a finite label set to exact rationals.

    Immutable and hashable; entries are accessible by label only.  The one
    store, `_map`, maps each label to its normalized pair.
    """

    __slots__ = ("_map",)

    def __init__(self, entries: Mapping[str, RatLike]):
        self._map = {
            _check_label(k): parse_rational(v).as_integer_ratio() for k, v in entries.items()
        }

    @classmethod
    def _exact(cls, entries: dict[str, Pair]) -> "ExponentVector":
        """Wrap normalized pairs over labels taken from already-built
        objects, owned by the result from now on; nothing is re-checked."""
        vec = object.__new__(cls)
        vec._map = entries
        return vec

    @property
    def labels(self) -> frozenset[str]:
        return frozenset(self._map)

    def _entry(self, label: str) -> Pair:
        """The stored pair at `label`, which the library reads."""
        try:
            return self._map[label]
        except KeyError:
            raise StructuralError(f"no entry for label {label!r}") from None

    def __getitem__(self, label: str) -> Fraction:
        return _fraction(self._entry(label))

    def items(self) -> Iterator[tuple[str, Fraction]]:
        """The entries in sorted label order, as `Fraction`s."""
        return ((k, _fraction(pair)) for k, pair in sorted(self._map.items()))

    def is_nonnegative(self) -> bool:
        """Every entry `>= 0`, read off the numerators' signs."""
        return all(n >= 0 for n, _ in self._map.values())

    def is_positive(self) -> bool:
        """Every entry `> 0`, read off the numerators' signs."""
        return all(n > 0 for n, _ in self._map.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExponentVector):
            return NotImplemented
        return self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {_format_pair(v)}" for k, v in sorted(self._map.items()))
        return f"ExponentVector({{{body}}})"


def _sorted_vectors(vectors: Iterable[ExponentVector]) -> list[ExponentVector]:
    """Vectors over one label set, ordered by their entries in sorted label
    order, compared as rationals: the order every vector sort uses.  The
    keys are integers, each label's numerators scaled to the lcm of that
    label's denominators over `vectors`, which orders that label's entries
    as their values; no `Fraction` is built."""
    vecs = list(vectors)
    if not vecs:
        return vecs
    labels = sorted(vecs[0]._map)
    scales = [(lab, lcm(*[v._map[lab][1] for v in vecs])) for lab in labels]

    def key(v: ExponentVector) -> tuple[int, ...]:
        entries = v._map
        return tuple([n * (s // d) for lab, s in scales for n, d in (entries[lab],)])

    return sorted(vecs, key=key)


class ExponentMatrix:
    """A total map (row label, column label) -> exact rational.

    Rows and columns are unordered label sets; any positional rendering
    (serialization, elimination) fixes an explicit label order first.
    The one store is `_nonzero`, the nonzero rows of normalized pairs: an
    absent row or entry is 0, and no stored row is empty.  A stored row is never
    mutated, so the blow-up's steps share the rows they leave unchanged.
    """

    __slots__ = ("_rows", "_cols", "_nonzero")

    def __init__(
        self,
        rows: Iterable[str],
        cols: Iterable[str],
        entries: Mapping[tuple[str, str], RatLike],
    ):
        self._rows = frozenset(_check_label(r) for r in rows)
        self._cols = frozenset(_check_label(c) for c in cols)
        nonzero: dict[str, dict[str, Pair]] = {}
        for (r, c), v in entries.items():
            if r not in self._rows or c not in self._cols:
                raise StructuralError(f"entry ({r!r},{c!r}) outside {sorted(self._rows)}x{sorted(self._cols)}")
            x = parse_rational(v)
            if x:
                nonzero.setdefault(r, {})[c] = x.as_integer_ratio()
        missing = len(self._rows) * len(self._cols) - len(entries)
        if missing:
            raise StructuralError(f"matrix is missing {missing} entries")
        self._nonzero = nonzero

    @classmethod
    def _exact(
        cls, rows: frozenset[str], cols: frozenset[str], nonzero: dict[str, dict[str, Pair]]
    ) -> "ExponentMatrix":
        """Wrap nonzero rows of normalized pairs over label sets taken from
        already-built objects, owned by the result from now on.  The
        entries are not re-parsed; a stored row or column outside the
        labels, an empty row or a stored pair with a zero numerator,
        whatever its denominator, is a kernel's bug
        (AlgorithmInvariantViolation)."""
        for r, row in nonzero.items():
            if (
                r not in rows
                or not row
                or not cols.issuperset(row)
                or not all(map(itemgetter(0), row.values()))
            ):
                raise AlgorithmInvariantViolation(
                    f"matrix row {r!r} is not a nonzero row over {sorted(rows)}x{sorted(cols)}"
                )
        mat = object.__new__(cls)
        mat._rows, mat._cols, mat._nonzero = rows, cols, nonzero
        return mat

    @classmethod
    def identity(cls, labels: Iterable[str]) -> "ExponentMatrix":
        """The identity over `labels`, each label checked once; the 1
        entries it makes are not re-parsed (`_exact`).  Given a
        frozenset, its rows and columns are that very set, so a corner's
        identity carries the corner's index set."""
        if isinstance(labels, frozenset):
            labs = labels
            for lab in labs:
                _check_label(lab)
        else:
            labs = frozenset(_check_label(lab) for lab in labels)
        return cls._exact(labs, labs, {lab: {lab: _ONE} for lab in labs})

    @classmethod
    def from_row_table(
        cls,
        row_order: Sequence[str],
        col_order: Sequence[str],
        table: Sequence[Sequence[RatLike]],
    ) -> "ExponentMatrix":
        """Build from an ordered list of rows, each an ordered list of
        entries.  A repeated row or column label is rejected: the entry map
        would keep only its last row or column."""
        if len(set(row_order)) != len(row_order) or len(set(col_order)) != len(col_order):
            raise StructuralError("matrix repeats a row or column label")
        if len(table) != len(row_order):
            raise StructuralError("row count does not match row label list")
        entries = {}
        for r, row in zip(row_order, table):
            if len(row) != len(col_order):
                raise StructuralError("column count does not match column label list")
            for c, v in zip(col_order, row):
                entries[(r, c)] = v
        return cls(row_order, col_order, entries)

    @property
    def row_labels(self) -> frozenset[str]:
        return self._rows

    @property
    def col_labels(self) -> frozenset[str]:
        return self._cols

    @property
    def sorted_rows(self) -> tuple[str, ...]:
        return tuple(sorted(self._rows))

    @property
    def sorted_cols(self) -> tuple[str, ...]:
        return tuple(sorted(self._cols))

    def _entry(self, row: str, col: str) -> Pair:
        """The pair at (`row`, `col`), which the library reads: the stored
        one, or `(0, 1)`."""
        if row not in self._rows or col not in self._cols:
            raise StructuralError(f"no entry at ({row!r},{col!r})")
        return self._nonzero.get(row, {}).get(col, _ZERO)

    def entry(self, row: str, col: str) -> Fraction:
        return _fraction(self._entry(row, col))

    def is_nonnegative(self) -> bool:
        """Every entry `>= 0`, read off the stored numerators' signs."""
        return all(n > 0 for row in self._nonzero.values() for n, _ in row.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExponentMatrix):
            return NotImplemented
        return (
            self._rows == other._rows
            and self._cols == other._cols
            and self._nonzero == other._nonzero
        )

    def __hash__(self) -> int:
        stored = frozenset((r, c, v) for r, row in self._nonzero.items() for c, v in row.items())
        return hash((self._rows, self._cols, stored))

    def __repr__(self) -> str:
        rows = self.sorted_rows
        cols = self.sorted_cols
        body = "; ".join(
            f"{r}: [" + ", ".join(_format_pair(self._entry(r, c)) for c in cols) + "]"
            for r in rows
        )
        return f"ExponentMatrix(rows={list(rows)}, cols={list(cols)}, {body})"


def div_le(a: ExponentVector, b: ExponentVector) -> bool:
    """Componentwise order: a divides b iff a(i) <= b(i) for every label i,
    each decided by cross-multiplying the pairs."""
    if a._map.keys() != b._map.keys():
        raise StructuralError("div_le needs vectors over the same label set")
    other = b._map
    for k, (an, ad) in a._map.items():
        bn, bd = other[k]
        if an * bd > bn * ad:
            return False
    return True


def minimal_elements(vectors: Iterable[ExponentVector]) -> list[ExponentVector]:
    """The elements not strictly dominated by another one; pairwise incomparable.

    Input vectors must share one label set.  Duplicates collapse; the result
    is sorted (`_sorted_vectors`) for determinism.  Empty input gives an
    empty list.  One scan tests each vector against the minima kept so
    far: a proper divisor sorts first (it is smaller at the first label
    where they differ), and one that is not minimal is divided by a kept
    minimum.
    """
    vecs = list(set(vectors))
    if not vecs:
        return []
    labels = vecs[0]._map.keys()
    if any(v._map.keys() != labels for v in vecs):
        raise StructuralError("minimal_elements needs a single common label set")
    vecs = _sorted_vectors(vecs)
    out: list[ExponentVector] = []
    for v in vecs:
        if not any(div_le(w, v) for w in out):
            out.append(v)
    return out


def mat_mul(a: ExponentMatrix, b: ExponentMatrix) -> ExponentMatrix:
    """Exact product; the column labels of `a` must equal the row labels of `b`.

    Each stored row of `a` is summed as a vector over `b`'s stored rows
    (`_entry_sums`), and each entry that does not cancel is normalized
    once."""
    if a._cols != b._rows:
        raise StructuralError("mat_mul: inner label sets differ")
    nonzero = {}
    for r, x in a._nonzero.items():
        sums = _entry_sums(x.items(), b._nonzero)
        row = {c: _normalized(n, d) for c, (n, d) in sums.items() if n}
        if row:
            nonzero[r] = row
    return ExponentMatrix._exact(a._rows, b._cols, nonzero)


def mat_inverse(a: ExponentMatrix) -> ExponentMatrix:
    """Exact inverse.

    For `a` with rows I and columns J (same cardinality), the result has
    rows J and columns I, its label sets `a`'s own objects, and both
    products with `a` are identities.

    A chart change between two adjacent corners is inverted in closed
    form (`_chart_change_inverse`), in O(n) on the integer pairs: the
    shape `MonomialManifold.validate` requires of an edge, read off
    `a`'s store.  Every other square matrix is inverted by Gauss-Jordan
    elimination on `Fraction`s, read in through `entry` and stored back
    as pairs; it raises SingularMatrixError when no inverse exists.
    """
    if len(a._rows) != len(a._cols):
        raise StructuralError("mat_inverse needs a square matrix")
    closed = _chart_change_inverse(a)
    if closed is not None:
        return closed
    rows = a.sorted_rows
    cols = a.sorted_cols
    n = len(rows)
    work = [[a.entry(r, c) for c in cols] for r in rows]
    aug = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        pivot = next((k for k in range(i, n) if work[k][i] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix has no exact inverse")
        if pivot != i:
            work[i], work[pivot] = work[pivot], work[i]
            aug[i], aug[pivot] = aug[pivot], aug[i]
        inv_p = 1 / work[i][i]
        work[i] = [x * inv_p for x in work[i]]
        aug[i] = [x * inv_p for x in aug[i]]
        for k in range(n):
            if k != i and work[k][i] != 0:
                f = work[k][i]
                work[k] = [x - f * y for x, y in zip(work[k], work[i])]
                aug[k] = [x - f * y for x, y in zip(aug[k], aug[i])]
    nonzero = {
        cols[i]: {rows[j]: x.as_integer_ratio() for j, x in enumerate(aug[i]) if x}
        for i in range(n)
    }
    return ExponentMatrix._exact(a._cols, a._rows, nonzero)


def _chart_change_inverse(a: ExponentMatrix) -> ExponentMatrix | None:
    """The inverse of a chart change in closed form, or None when `a`
    does not have its shape.

    The shape: rows `S ∪ {i_q}` and columns `S ∪ {i_p}` of a square `a`,
    where `S` is the shared labels and `i_q`, `i_p` are one label each;
    every row `ℓ ∈ S` stores `d_ℓ` at `ℓ` and at most `u_ℓ` at `i_p`, and
    row `i_q` stores only `a` at `i_p`.  Its inverse has row `ℓ` equal to
    `{ℓ: 1/d_ℓ, i_q: −u_ℓ/(d_ℓ·a)}` and row `i_p` equal to `{i_q: 1/a}`.
    Each entry is one integer pair normalized once: a reciprocal only
    moves its numerator's sign, and `−u_ℓ/(d_ℓ·a)` takes one gcd."""
    rows, cols, store = a._rows, a._cols, a._nonzero
    extra_rows, extra_cols = rows - cols, cols - rows
    if len(extra_rows) != 1 or len(extra_cols) != 1 or len(store) != len(rows):
        return None
    (i_q,) = extra_rows
    (i_p,) = extra_cols
    corner = store[i_q]
    if len(corner) != 1 or i_p not in corner:
        return None
    an, ad = corner[i_p]
    inverse = {i_p: {i_q: _reciprocal(an, ad)}}
    for ell, row in store.items():
        if ell == i_q:
            continue
        diagonal = row.get(ell)
        if diagonal is None or len(row) != 1 + (i_p in row):
            return None
        dn, dd = diagonal
        out = {ell: _reciprocal(dn, dd)}
        u = row.get(i_p)
        if u is not None:
            un, ud = u
            num, den = un * dd * ad, ud * dn * an
            out[i_q] = _normalized(-num, den) if den > 0 else _normalized(num, -den)
        inverse[ell] = out
    return ExponentMatrix._exact(cols, rows, inverse)


def vec_apply(v: ExponentVector, a: ExponentMatrix) -> ExponentVector:
    """Row-vector times matrix: (vA)(j) = sum_i v(i) A(i,j), each entry
    summed over its nonzero terms (`_entry_sums`) and normalized once; an
    entry that no term reaches is the exact 0."""
    if v._map.keys() != a._rows:
        raise StructuralError("vec_apply: vector labels differ from matrix rows")
    sums = _entry_sums(v._map.items(), a._nonzero)
    return ExponentVector._exact(
        {c: _normalized(*sums[c]) if c in sums else _ZERO for c in a._cols}
    )


def _entry_sums(
    x: Iterable[tuple[str, Pair]], rows: Mapping[str, Mapping[str, Pair]]
) -> dict[str, Pair]:
    """The entries of `x·A`, `A` given by its stored rows, each summed
    over its nonzero terms only as an unreduced integer pair `(numerator,
    denominator)` with a positive denominator.  An entry that no nonzero
    term reaches is absent: it is exactly 0."""
    sums: dict[str, Pair] = {}
    for r, (xn, xd) in x:
        row = rows.get(r)
        if xn and row:
            for c, (an, ad) in row.items():
                n, d = xn * an, xd * ad
                prev = sums.get(c)
                if prev is None:
                    sums[c] = (n, d)
                else:
                    pn, pd = prev
                    sums[c] = (pn + n, pd) if pd == d else (pn * d + n * pd, pd * d)
    return sums


def vec_apply_all_equal(
    a: ExponentMatrix, pairs: Iterable[tuple[ExponentVector, ExponentVector]]
) -> bool:
    """`vec_apply(v, a) == w` for every `(v, w)` of `pairs`, in order.

    `a`'s stored entries are grouped by column once, into a plan of
    `(row, numerator, denominator)` terms per column, and every pair is
    checked against that plan: each entry of `v·a` is summed over its
    column's terms as an unreduced pair and cross-multiplied with `w`'s
    entry, stopping at the first that differs.  No product vector is
    built and no gcd taken.  Raises StructuralError where `vec_apply`
    does, at a pair before the first that fails."""
    rows, cols = a._rows, a._cols
    plan: dict[str, list[tuple[str, int, int]]] = {c: [] for c in cols}
    for r, row in a._nonzero.items():
        for c, (n, d) in row.items():
            plan[c].append((r, n, d))
    for v, w in pairs:
        x = v._map
        if x.keys() != rows:
            raise StructuralError("vec_apply: vector labels differ from matrix rows")
        if w._map.keys() != cols:
            return False
        for c, (wn, wd) in w._map.items():
            num, den = 0, 1
            for r, an, ad in plan[c]:
                xn, xd = x[r]
                if xn:
                    n, d = xn * an, xd * ad
                    num, den = (num + n, den) if den == d else (num * d + n * den, den * d)
            if num * wd != wn * den:
                return False
    return True


# -- integer-pair rules for single entries ---------------------------------


def _normalized(n: int, d: int) -> Pair:
    """The normalized pair of `n/d`, for `d > 0`: one gcd, and 0 is
    `(0, 1)`."""
    g = gcd(n, d)
    return (n // g, d // g) if g != 1 else (n, d)


def _reciprocal(n: int, d: int) -> Pair:
    """The normalized pair of `d/n` for the normalized pair `(n, d)`,
    `n != 0`: the sign moves to the numerator, and no gcd is needed."""
    return (d, n) if n > 0 else (-d, -n)


def _plus_times(top: Pair, c: Pair, x: Pair) -> Pair:
    """`top + c·x`, summed over the pairs and normalized once; `top`
    itself when `x` is 0, since the term adds nothing."""
    xn, xd = x
    if not xn:
        return top
    tn, td = top
    cn, cd = c
    return _normalized(tn * cd * xd + cn * xn * td, td * cd * xd)


def _compare(a: Pair, b: Pair) -> int:
    """The sign of `a − b` (-1, 0 or 1), by cross-multiplying (the
    denominators are positive)."""
    an, ad = a
    bn, bd = b
    diff = an * bd - bn * ad
    return (diff > 0) - (diff < 0)


def _compare_sums(left: Iterable[Sequence[Pair]], right: Iterable[Sequence[Pair]]) -> int:
    """The sign of `Σ left − Σ right`, each term the product of its pairs,
    from one unreduced pair per side."""
    ln, ld = _pair_sum(left)
    rn, rd = _pair_sum(right)
    diff = ln * rd - rn * ld
    return (diff > 0) - (diff < 0)


def _pair_sum(terms: Iterable[Sequence[Pair]]) -> Pair:
    """`Σ terms`, each term the product of its pairs, as one unreduced
    pair `(numerator, denominator)`, the denominator positive."""
    num, den = 0, 1
    for term in terms:
        tn = td = 1
        for fn, fd in term:
            tn *= fn
            td *= fd
        num, den = num * td + tn * den, den * td
    return num, den


def _scaled(pair: Pair, x: Pair, divide: bool) -> Pair:
    """The unreduced pair `pair·x`, or `pair/x` when `divide`; `x` must be
    positive, so the denominator stays positive."""
    n, d = pair
    xn, xd = x
    return (n * xd, d * xn) if divide else (n * xn, d * xd)
