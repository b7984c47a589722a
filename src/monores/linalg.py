"""Exact label-keyed linear algebra over the rationals.

Vectors and matrices here are total maps from finite sets of opaque string
labels.  There is no positional indexing, no floating point, and no
tolerance anywhere: all arithmetic is exact, on integers and
`fractions.Fraction`.

Every product and every product test sums each entry over its nonzero
terms only, as an unreduced integer pair `(numerator, denominator)`
(`_entry_sums`).  A product (`mat_mul`, `vec_apply`) then normalizes
each entry once into a `Fraction`; a test (`vec_apply_all_equal`,
`_grouped_product_is_identity`) cross-multiplies it with the expected
entry, so it builds no `Fraction`, takes no gcd, and gives the product's
verdict.

The blow-up step's single entries follow the same rule, through the
integer-pair helpers at the end of this module: a construction
(`_plus_times`, `top + c·x`; `_scaled`, a weight carried across one
edge) works on the numerators and denominators and builds one
normalized `Fraction` per entry it keeps, and a sign, order or equality
test (`_compare`, `_compare_sums`) cross-multiplies.  No `Fraction`
operator runs in between, so `blowup`, `manifold`, `standardization` and
`ideals` hold no arithmetic of their own.

A vector keeps one store, its label map, which every test reads;
`items()` sorts it on demand, as does the one sort key, `lex_key`.

The public constructors validate what callers pass: every label and
every entry.  The products, the inverse, the identity and the blow-up's
lifts build their results with the private constructors
`ExponentMatrix._exact` and `ExponentVector._exact` instead.  Their
contract: the label sets are taken from already-built objects or checked
once by the caller (a blow-up's new label by `apply_center`, the
identity's labels by `ExponentMatrix.identity`), and every entry is an
exact `Fraction` computed from theirs or made there.  Only the cheap
totality count (entries == rows × columns) is kept, for matrices.

The componentwise partial order `div_le` (one exponent tuple divides
another) and the extraction of its minimal elements live here too, since
every other module is built on them.  A proper divisor sorts first
under `lex_key`, so `minimal_elements` tests each vector only against
the minima already kept.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import SingularMatrixError, StructuralError

RatLike = Union[Fraction, int, str]

_RATIONAL = re.compile(r"[+-]?\d+(?:/\d+)?\Z")


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


def format_rational(value: RatLike) -> str:
    """Render a rational as "n" for integers and "p/q" otherwise.  A
    `Fraction`, as every entry of a built vector or matrix is, is not
    parsed again."""
    x = value if isinstance(value, Fraction) else parse_rational(value)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


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

    Immutable and hashable; entries are accessible by label only.
    """

    __slots__ = ("_map",)

    def __init__(self, entries: Mapping[str, RatLike]):
        self._map = {_check_label(k): parse_rational(v) for k, v in entries.items()}

    @classmethod
    def _exact(cls, entries: dict[str, Fraction]) -> "ExponentVector":
        """Wrap exact `Fraction` entries over labels taken from already-built
        objects, owned by the result from now on; nothing is re-checked."""
        vec = object.__new__(cls)
        vec._map = entries
        return vec

    @property
    def labels(self) -> frozenset[str]:
        return frozenset(self._map)

    def __getitem__(self, label: str) -> Fraction:
        try:
            return self._map[label]
        except KeyError:
            raise StructuralError(f"no entry for label {label!r}") from None

    def items(self) -> Iterator[tuple[str, Fraction]]:
        """The entries in sorted label order."""
        return iter(sorted(self._map.items()))

    def is_nonnegative(self) -> bool:
        """Every entry `>= 0`, read off the numerators' signs (a
        `Fraction`'s denominator is positive)."""
        return all(v.numerator >= 0 for v in self._map.values())

    def is_positive(self) -> bool:
        """Every entry `> 0`, read off the numerators' signs."""
        return all(v.numerator > 0 for v in self._map.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExponentVector):
            return NotImplemented
        return self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {format_rational(v)}" for k, v in self.items())
        return f"ExponentVector({{{body}}})"


def lex_key(v: ExponentVector) -> tuple[Fraction, ...]:
    """The entries in sorted label order, the key every vector sort uses."""
    return tuple(x for _, x in v.items())


class ExponentMatrix:
    """A total map (row label, column label) -> exact rational.

    Rows and columns are unordered label sets; any positional rendering
    (serialization, elimination) fixes an explicit label order first.
    """

    __slots__ = ("_rows", "_cols", "_data")

    def __init__(
        self,
        rows: Iterable[str],
        cols: Iterable[str],
        entries: Mapping[tuple[str, str], RatLike],
    ):
        self._rows = frozenset(_check_label(r) for r in rows)
        self._cols = frozenset(_check_label(c) for c in cols)
        data = {}
        for (r, c), v in entries.items():
            if r not in self._rows or c not in self._cols:
                raise StructuralError(f"entry ({r!r},{c!r}) outside {sorted(self._rows)}x{sorted(self._cols)}")
            data[(r, c)] = parse_rational(v)
        missing = len(self._rows) * len(self._cols) - len(data)
        if missing:
            raise StructuralError(f"matrix is missing {missing} entries")
        self._data = data

    @classmethod
    def _exact(
        cls, rows: frozenset[str], cols: frozenset[str], data: dict[tuple[str, str], Fraction]
    ) -> "ExponentMatrix":
        """Wrap exact `Fraction` entries over label sets taken from
        already-built objects, owned by the result from now on.  Labels and
        entries are not re-checked; the entry count still must be
        rows × columns."""
        if len(data) != len(rows) * len(cols):
            raise StructuralError(
                f"matrix has {len(data)} entries over {len(rows)}x{len(cols)} labels"
            )
        mat = object.__new__(cls)
        mat._rows, mat._cols, mat._data = rows, cols, data
        return mat

    @classmethod
    def identity(cls, labels: Iterable[str]) -> "ExponentMatrix":
        """The identity over `labels`, each label checked once; the 0/1
        entries it makes are not re-parsed (`_exact`)."""
        labs = frozenset(_check_label(lab) for lab in labels)
        one, zero = Fraction(1), Fraction(0)
        entries = {(r, c): one if r == c else zero for r in labs for c in labs}
        return cls._exact(labs, labs, entries)

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

    def entry(self, row: str, col: str) -> Fraction:
        try:
            return self._data[(row, col)]
        except KeyError:
            raise StructuralError(f"no entry at ({row!r},{col!r})") from None

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for v in self._data.values())

    def is_identity(self) -> bool:
        """True iff rows and columns are one label set and the entries are
        those of its identity matrix; builds no matrix."""
        return self._rows == self._cols and all(
            v == (1 if r == c else 0) for (r, c), v in self._data.items()
        )

    def _key(self):
        return tuple(sorted(self._data.items()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExponentMatrix):
            return NotImplemented
        return self._rows == other._rows and self._cols == other._cols and self._data == other._data

    def __hash__(self) -> int:
        return hash((self._rows, self._cols, self._key()))

    def __repr__(self) -> str:
        rows = self.sorted_rows
        cols = self.sorted_cols
        body = "; ".join(
            f"{r}: [" + ", ".join(format_rational(self._data[(r, c)]) for c in cols) + "]"
            for r in rows
        )
        return f"ExponentMatrix(rows={list(rows)}, cols={list(cols)}, {body})"


def div_le(a: ExponentVector, b: ExponentVector) -> bool:
    """Componentwise order: a divides b iff a(i) <= b(i) for every label i."""
    if a._map.keys() != b._map.keys():
        raise StructuralError("div_le needs vectors over the same label set")
    return all(av <= b._map[k] for k, av in a._map.items())


def minimal_elements(vectors: Iterable[ExponentVector]) -> list[ExponentVector]:
    """The elements not strictly dominated by another one; pairwise incomparable.

    Input vectors must share one label set.  Duplicates collapse; the result
    is sorted (`lex_key`) for determinism.  Empty input gives an empty list.
    One scan tests each vector against the minima kept so far: a proper
    divisor sorts first (it is smaller at the first label where they
    differ), and one that is not minimal is divided by a kept minimum.
    """
    vecs = sorted(set(vectors), key=lex_key)
    if not vecs:
        return []
    labels = vecs[0]._map.keys()
    if any(v._map.keys() != labels for v in vecs):
        raise StructuralError("minimal_elements needs a single common label set")
    out: list[ExponentVector] = []
    for v in vecs:
        if not any(div_le(w, v) for w in out):
            out.append(v)
    return out


def mat_mul(a: ExponentMatrix, b: ExponentMatrix) -> ExponentMatrix:
    """Exact product; the column labels of `a` must equal the row labels of `b`.

    Each row of `a` is summed as a vector over `b`'s nonzero rows, grouped
    once (`_nonzero_rows`, `_entry_sums`), and each entry is normalized
    once (`_fractions`).
    """
    if a.col_labels != b.row_labels:
        raise StructuralError("mat_mul: inner label sets differ")
    b_rows = _nonzero_rows(b)
    entries = {
        (r, c): value
        for r, x in _row_entries(a).items()
        for c, value in _fractions(_entry_sums(x, b_rows), b._cols).items()
    }
    return ExponentMatrix._exact(a._rows, b._cols, entries)


def mat_inverse(a: ExponentMatrix) -> ExponentMatrix:
    """Exact inverse by Gauss-Jordan elimination.

    For `a` with rows I and columns J (same cardinality), the result has
    rows J and columns I, and both products with `a` are identities.
    """
    rows = a.sorted_rows
    cols = a.sorted_cols
    n = len(rows)
    if n != len(cols):
        raise StructuralError("mat_inverse needs a square matrix")
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
    entries = {(cols[i], rows[j]): aug[i][j] for i in range(n) for j in range(n)}
    return ExponentMatrix._exact(a._cols, a._rows, entries)


def vec_apply(v: ExponentVector, a: ExponentMatrix) -> ExponentVector:
    """Row-vector times matrix: (vA)(j) = sum_i v(i) A(i,j), each entry
    summed over its nonzero terms (`_entry_sums`) and normalized once."""
    if v._map.keys() != a._rows:
        raise StructuralError("vec_apply: vector labels differ from matrix rows")
    return ExponentVector._exact(_fractions(_entry_sums(v._map.items(), _nonzero_rows(a)), a._cols))


def _row_entries(a: ExponentMatrix) -> dict[str, list[tuple[str, Fraction]]]:
    """Each row of `a` as its entries `(column, value)`, every row present."""
    rows: dict[str, list[tuple[str, Fraction]]] = {r: [] for r in a._rows}
    for (r, c), av in a._data.items():
        rows[r].append((c, av))
    return rows


def _nonzero_rows(a: ExponentMatrix) -> dict[str, list[tuple[str, int, int]]]:
    """Each row of `a` as its nonzero entries `(column, numerator,
    denominator)`; a row of zeros is absent."""
    rows: dict[str, list[tuple[str, int, int]]] = {}
    for (r, c), av in a._data.items():
        an, ad = av.as_integer_ratio()
        if an:
            rows.setdefault(r, []).append((c, an, ad))
    return rows


def _entry_sums(
    x: Iterable[tuple[str, Fraction]], rows: Mapping[str, list[tuple[str, int, int]]]
) -> dict[str, tuple[int, int]]:
    """The entries of `x·A`, `A` given by its `_nonzero_rows`, each summed
    over its nonzero terms only as an unreduced integer pair `(numerator,
    denominator)` with a positive denominator.  An entry that no nonzero
    term reaches is absent: it is exactly 0."""
    sums: dict[str, tuple[int, int]] = {}
    for r, xr in x:
        xn, xd = xr.as_integer_ratio()
        if xn:
            for c, an, ad in rows.get(r, ()):
                n, d = xn * an, xd * ad
                prev = sums.get(c)
                if prev is None:
                    sums[c] = (n, d)
                else:
                    pn, pd = prev
                    sums[c] = (pn + n, pd) if pd == d else (pn * d + n * pd, pd * d)
    return sums


def _fractions(sums: Mapping[str, tuple[int, int]], cols: Iterable[str]) -> dict[str, Fraction]:
    """Each entry over `cols` of `_entry_sums` as one normalized `Fraction`;
    an entry that no term reaches is the exact 0."""
    zero = Fraction(0)
    return {c: Fraction(*sums[c]) if c in sums else zero for c in cols}


def vec_apply_all_equal(
    a: ExponentMatrix, pairs: Iterable[tuple[ExponentVector, ExponentVector]]
) -> bool:
    """`vec_apply(v, a) == w` for every `(v, w)` of `pairs`, in order,
    with the rows of `a` grouped once (`_nonzero_rows`) for all of them.
    Each is decided entry by entry by cross-multiplying each of
    `_entry_sums` with `w`'s entry; no product vector and no Fraction is
    built.  Raises StructuralError where `vec_apply` does, at a pair
    before the first that fails."""
    rows = _nonzero_rows(a)
    for v, w in pairs:
        if v._map.keys() != a._rows:
            raise StructuralError("vec_apply: vector labels differ from matrix rows")
        if w._map.keys() != a._cols:
            return False
        sums = _entry_sums(v._map.items(), rows)
        for c, wc in w._map.items():
            num, den = sums.get(c, (0, 1))
            wn, wd = wc.as_integer_ratio()
            if num * wd != wn * den:
                return False
    return True


def _grouped_product_is_identity(
    a: ExponentMatrix, b_rows: Mapping[str, list[tuple[str, int, int]]]
) -> bool:
    """Whether `a·b` is the identity, `b` given by its `_nonzero_rows` and
    the labels checked by the caller (`validate` and the step certificate,
    deciding an edge's inverse).  Each row of `a` times `b`
    (`_entry_sums`) must be 1 at its own label and 0 elsewhere; no
    product and no `Fraction` is built."""
    for r, x in _row_entries(a).items():
        sums = _entry_sums(x, b_rows)
        num, den = sums.pop(r, (0, 1))
        if num != den or any(n for n, _ in sums.values()):
            return False
    return True


# -- integer-pair rules for single entries ---------------------------------


def _plus_times(top: Fraction, c: Fraction, x: Fraction) -> Fraction:
    """`top + c·x`, summed over the integer pairs and normalized once into
    one `Fraction`; `top` itself when `x` is 0, since the term adds
    nothing."""
    xn, xd = x.as_integer_ratio()
    if not xn:
        return top
    tn, td = top.as_integer_ratio()
    cn, cd = c.as_integer_ratio()
    return Fraction(tn * cd * xd + cn * xn * td, td * cd * xd)


def _compare(a: Fraction, b: Fraction) -> int:
    """The sign of `a − b` (-1, 0 or 1), by cross-multiplying (a
    `Fraction`'s denominator is positive)."""
    an, ad = a.as_integer_ratio()
    bn, bd = b.as_integer_ratio()
    diff = an * bd - bn * ad
    return (diff > 0) - (diff < 0)


def _compare_sums(
    left: Iterable[Sequence[Fraction]], right: Iterable[Sequence[Fraction]]
) -> int:
    """The sign of `Σ left − Σ right`, each term the product of its
    `Fraction`s, from one unreduced integer pair per side."""
    ln, ld = _pair_sum(left)
    rn, rd = _pair_sum(right)
    diff = ln * rd - rn * ld
    return (diff > 0) - (diff < 0)


def _pair_sum(terms: Iterable[Sequence[Fraction]]) -> tuple[int, int]:
    """`Σ terms`, each term the product of its `Fraction`s, as one
    unreduced pair `(numerator, denominator)`, the denominator positive."""
    num, den = 0, 1
    for term in terms:
        tn = td = 1
        for f in term:
            fn, fd = f.as_integer_ratio()
            tn *= fn
            td *= fd
        num, den = num * td + tn * den, den * td
    return num, den


def _scaled(pair: tuple[int, int], x: Fraction, divide: bool) -> tuple[int, int]:
    """The unreduced pair `pair·x`, or `pair/x` when `divide`; `x` must be
    positive, so the denominator stays positive."""
    n, d = pair
    xn, xd = x.as_integer_ratio()
    return (n * xd, d * xn) if divide else (n * xn, d * xd)
