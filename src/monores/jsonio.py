"""JSON schemas for every on-disk artifact, plus trace replay.

All rationals travel as strings ("p/q" or "n"); label arrays fix the
entry order inside each file; objects are dumped with sorted keys so a
given run always produces byte-identical files.  The bytes are a
contract: `canonical_dumps(doc)` is exactly
`json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\\n"`,
written by one recursive pass instead of json's pure-Python indenting
encoder.  `star_to_json` formats each morphism matrix object once per
call (`_rendering`, a memo keyed by the object) and gives each corner's
`B` fresh lists; replay compares against the same rendering.

The trace format is versioned ("monores-trace/1").  A trace records the
root manifold and, per blow-up, the center pair, the weights at the
corners of the center, the fresh label, and every morphism matrix, each
read off the step with `BlowupStep.morphism`; `replay_trace` rebuilds
the tower from the weights and insists the rebuilt matrices agree
exactly, at exactly the recorded corners.  It first compares the
recorded block with the rendering of the rebuilt matrices, each matrix
object rendered once per replay; only a block that differs from it is
parsed and compared by value.  So a trace as `star_to_json` writes it
has no recorded matrix parsed into Fractions, while an equal entry
written another way (`"2/2"`) or a malformed matrix gets the verdict and
message that parsing gives.
`reduce` and `principalize`
both render a certified run (`PrincipalizationRun`) through one
renderer, `certified_trace_to_json`, which appends the end certificate
(`final_corners`) and the run's statistics (`stats`); the two differ
only in how the ideal is seeded, and both seed it through
`build_ideal_from_support`.

Readers take every field through `_field` or `_array`, which name the
JSON type it must have, and check every vector the same way, so a
missing key or a value of the wrong JSON type is bad input
(StructuralError).  So is a manifold label that is not a nonempty string
(`_check_label`, as everywhere), and a manifold whose corners share an
id, whose components or corner index set repeat a label, or a matrix
whose rows or columns repeat a label, which a dict or a set would merge
silently.  Only the parsing is guarded: an exception raised by the
library while rebuilding a tower still surfaces as it is.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from .blowup import BlowupStep, Star, apply_center
from .errors import StructuralError
from .ideals import MIdeal, PrincipalizationRun
from .linalg import ExponentMatrix, ExponentVector, _check_label, _format_pair, parse_rational
from .manifold import Corner, Edge, MonomialManifold
from .reduction import ReductionProblem, ReductionReport, build_ideal_from_support
from .standardization import realized_among
from .supports import SupportSet, support_from_rows

TRACE_VERSION = "monores-trace/1"

_REQUIRED = object()

_JSON_TYPES = {dict: "a JSON object", list: "an array", str: "a string", int: "an integer"}


def _wrong_type(value: Any, kind: Any, what: str) -> StructuralError:
    """The error for `value` not having the JSON type `kind` (a key of
    `_JSON_TYPES` or a tuple of them)."""
    names = " or ".join(_JSON_TYPES[k] for k in (kind if isinstance(kind, tuple) else (kind,)))
    return StructuralError(f"{what} must be {names}, not {type(value).__name__}")


def _field(doc: Any, key: str, what: str, kind: Any, default: Any = _REQUIRED) -> Any:
    """`doc[key]` of a parsed JSON object, of JSON type `kind`; a missing
    key without a default or a value of another type is a StructuralError.
    No field is a boolean, so a boolean is rejected although Python's
    `bool` is an `int`."""
    if not isinstance(doc, dict):
        raise _wrong_type(doc, dict, what)
    if key not in doc:
        if default is _REQUIRED:
            raise StructuralError(f"{what} object is missing {key!r}")
        return default
    value = doc[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise _wrong_type(value, kind, f"{what} field {key!r}")
    return value


def _array(doc: Any, key: str, what: str, item: type) -> list:
    """`doc[key]`, an array whose every item has the JSON type `item`
    (`str` or `list`)."""
    items = _field(doc, key, what, list)
    for x in items:
        if not isinstance(x, item):
            raise _wrong_type(x, item, f"each item of {what} field {key!r}")
    return items


def canonical_dumps(doc: Any) -> str:
    """The canonical text of a JSON document: exactly
    `json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\\n"`,
    written in one recursive pass.

    `json` runs its C encoder only without `indent`, so that call walks a
    trace through the pure-Python generator encoder; this writer makes
    the same bytes with fewer calls.  Strings and keys are escaped by
    `json.encoder.encode_basestring`, the escaper `json` itself uses with
    `ensure_ascii=False`; a list of strings (a matrix row, a label list)
    is joined in one `str.join`; an int is `int.__repr__`; `True`,
    `False` and `None` are `true`, `false` and `null`; lists, tuples and
    dicts get json's separators and newline-plus-indent layout, with the
    keys of a dict in sorted order.  Keys must be `str`, and a float or
    any other value raises TypeError: no trace holds one."""
    out: list[str] = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


_escape = json.encoder.encode_basestring


def _write(value: Any, nl: str, out: list[str]) -> None:
    """Append the text of `value` to `out`; `nl` is the newline plus the
    indent of the line `value` starts on."""
    if isinstance(value, str):
        out.append(_escape(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        # `_escape` raises TypeError at a key that is not a str, if sorting
        # a mix of key types has not already
        for key in sorted(value):
            item = value[key]
            if isinstance(item, str):
                out.append(sep + _escape(key) + ": " + _escape(item))
            else:
                out.append(sep + _escape(key) + ": ")
                _write(item, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = nl + "  "
        if isinstance(value[0], str):
            try:
                # one join when every item is a string; `_escape` raises
                # TypeError at the first that is not
                out.append("[" + inner + ("," + inner).join(map(_escape, value)) + nl + "]")
                return
            except TypeError:
                pass
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif value is None:
        out.append("null")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"{type(value).__name__} is not a canonical JSON value")


# -- vectors and matrices -------------------------------------------------


def vector_to_json(vec: ExponentVector) -> dict[str, str]:
    """Every entry in sorted label order, formatted off its stored pair."""
    return {lab: _format_pair(pair) for lab, pair in sorted(vec._map.items())}


def vector_from_json(doc: Mapping[str, Any]) -> ExponentVector:
    if not isinstance(doc, dict):
        raise _wrong_type(doc, dict, "vector")
    return ExponentVector({lab: parse_rational(val) for lab, val in doc.items()})


def matrix_to_json(mat: ExponentMatrix) -> dict[str, Any]:
    """Every entry in sorted label order, formatted off the stored pairs
    of the nonzero rows: an entry they do not hold is written "0"."""
    rows = list(mat.sorted_rows)
    cols = list(mat.sorted_cols)
    stored = [mat._nonzero.get(r, {}) for r in rows]
    return {
        "rows": rows,
        "cols": cols,
        "entries": [[_format_pair(row[c]) if c in row else "0" for c in cols] for row in stored],
    }


def matrix_from_json(doc: Mapping[str, Any]) -> ExponentMatrix:
    return ExponentMatrix.from_row_table(
        _array(doc, "rows", "matrix", str),
        _array(doc, "cols", "matrix", str),
        _array(doc, "entries", "matrix", list),
    )


# -- supports --------------------------------------------------------------


def support_to_json(s: SupportSet) -> dict[str, Any]:
    ordered = list(s.variables)
    return {
        "variables": ordered,
        "points": sorted(
            [[_format_pair(p._entry(v)) for v in ordered] for p in s.points]
        ),
    }


def support_from_json(doc: Mapping[str, Any]) -> SupportSet:
    return support_from_rows(
        _array(doc, "variables", "support", str), _array(doc, "points", "support", list)
    )


# -- manifolds ---------------------------------------------------------------


def manifold_to_json(m: MonomialManifold) -> dict[str, Any]:
    return {
        "dimension": m.dimension,
        "components": sorted(m.components),
        "corners": [
            {"id": cid, "index_set": sorted(c.index_set)} for cid, c in m.corners.items()
        ],
        "edges": [
            {"from": e.p, "to": e.q, "matrix": matrix_to_json(e.matrix)} for e in m.edges
        ],
    }


def manifold_from_json(doc: Mapping[str, Any]) -> MonomialManifold:
    dimension = _field(doc, "dimension", "manifold", int)
    components = [_check_label(lab) for lab in _array(doc, "components", "manifold", str)]
    if len(set(components)) != len(components):
        raise StructuralError("manifold repeats a label in its components")
    corners = {}
    for c in _field(doc, "corners", "manifold", list):
        cid = _field(c, "id", "corner", str)
        if cid in corners:
            raise StructuralError(f"duplicate corner id {cid!r}")
        labels = [_check_label(lab) for lab in _array(c, "index_set", "corner", str)]
        index_set = frozenset(labels)
        if len(index_set) != len(labels):
            raise StructuralError(f"corner {cid!r} repeats a label in its index_set")
        corners[cid] = Corner(cid, index_set)
    edges = []
    for e in _field(doc, "edges", "manifold", list, []):
        p, q = _field(e, "from", "edge", str), _field(e, "to", "edge", str)
        if p not in corners or q not in corners:
            raise StructuralError(f"edge {p!r}->{q!r} references a missing corner")
        edges.append(Edge(p, q, matrix_from_json(_field(e, "matrix", "edge", dict))))
    return MonomialManifold(dimension, components, corners.values(), edges)


# -- ideals ------------------------------------------------------------------


def ideal_from_json(doc: Mapping[str, Any]) -> MIdeal:
    """An ideal presented by generator exponent rows on a fresh corner chart."""
    dimension = _field(doc, "dimension", "ideal", int)
    labels = _array(doc, "labels", "ideal", str)
    rows = _array(doc, "generators", "ideal", list)
    if len(labels) != dimension:
        raise StructuralError("label count does not match the dimension")
    return build_ideal_from_support(support_from_rows(labels, rows))


# -- traces -------------------------------------------------------------------


# matrix_to_json of each matrix object by id; holds the matrix, so no id
# is reused while the memo lives
_Renderings = dict[int, tuple[ExponentMatrix, dict[str, Any]]]


def _rendering(mat: ExponentMatrix, memo: _Renderings) -> dict[str, Any]:
    """`matrix_to_json(mat)`, formatted once per matrix object in `memo`,
    which holds the matrix so that no id is reused.  An untouched corner
    keeps one identity object step after step, so a tower places each
    morphism object many times: corpus A places 2,399 `B` blocks from 889
    objects.  The result is shared; a caller that hands it out copies it."""
    hit = memo.get(id(mat))
    if hit is None:
        hit = memo[id(mat)] = (mat, matrix_to_json(mat))
    return hit[1]


def star_to_json(star: Star) -> dict[str, Any]:
    """The trace of a tower.  Each morphism object is formatted once per
    call (`_rendering`), and each corner's block gets fresh lists, so no
    two placements share a container and editing one leaves the rest."""
    memo: _Renderings = {}

    def block(mat: ExponentMatrix) -> dict[str, Any]:
        doc = _rendering(mat, memo)
        return {
            "rows": doc["rows"][:],
            "cols": doc["cols"][:],
            "entries": list(map(list, doc["entries"])),
        }

    steps = []
    for step in star.steps:
        steps.append(
            {
                "center": sorted(step.center_pair),
                "alpha_at_centers": {
                    cid: vector_to_json(alpha)
                    for cid, alpha in step.alpha_at_center.items()
                },
                "new_label": step.new_label,
                "B": {cid: block(step.morphism(cid)) for cid in step.after.corners},
            }
        )
    return {
        "version": TRACE_VERSION,
        "root": manifold_to_json(star.root),
        "steps": steps,
    }


def _renders_as(b_block: dict[str, Any], step: BlowupStep, rendered: _Renderings) -> bool:
    """Whether the recorded `B` block is, corner for corner, exactly what
    `star_to_json` writes for the step's morphisms (`_rendering`, memoized
    per matrix object in `rendered`).  Then it parses to those very
    matrices; otherwise the caller parses it and compares values."""
    if b_block.keys() != step.after.corners.keys():
        return False
    return all(
        recorded == _rendering(step.morphism(cid), rendered)
        for cid, recorded in b_block.items()
    )


def replay_trace(doc: Mapping[str, Any]) -> Star:
    """Rebuild the tower from a trace, verifying the recorded matrices exactly.

    The root is validated in full and every rebuilt step passes its local
    certificate in `apply_center`, so the whole tower is proven by
    induction from the root.  Recorded weights that do not transform by
    the diagonals of the edges between the center's corners
    (`realized_among`) are bad input, rejected before `apply_center`
    builds anything from them; weights at ids that are not corners are
    left to `apply_center`'s own check.

    A step's `B` block is compared before it is parsed: when it holds the
    step's corners and each is exactly what `star_to_json` writes for the
    rebuilt morphism (`_renders_as`), it parses to those very matrices and
    is accepted.  Otherwise the whole block is parsed and compared by
    value, as every block once was, so a malformed matrix, an equal entry
    written another way, or a block over other corners gets the same
    verdict and message."""
    version = _field(doc, "version", "trace", str, None)
    if version != TRACE_VERSION:
        raise StructuralError(f"unsupported trace version {version!r}")
    root = manifold_from_json(_field(doc, "root", "trace", dict))
    violations = root.validate()
    if violations:
        raise StructuralError("trace root manifold is invalid: " + "; ".join(violations))
    star = Star(root=root)
    steps = _field(doc, "steps", "trace", list, [])
    if not steps:
        return star
    # the rendering of each morphism object, shared by the steps of this
    # replay (an untouched corner keeps one identity)
    rendered: _Renderings = {}
    for k, step_doc in enumerate(steps):
        pair = frozenset(_array(step_doc, "center", "step", str))
        alphas = {
            cid: vector_from_json(v)
            for cid, v in _field(step_doc, "alpha_at_centers", "step", dict).items()
        }
        end = star.end
        if alphas.keys() <= end.corners.keys() and not realized_among(end, alphas):
            raise StructuralError(
                f"step {k}: the weights at the center do not transform by the edge diagonals"
            )
        step = apply_center(end, pair, alphas, _field(step_doc, "new_label", "step", str))
        b_block = _field(step_doc, "B", "step", dict)
        if not _renders_as(b_block, step, rendered):
            recorded = {cid: matrix_from_json(mat) for cid, mat in b_block.items()}
            if recorded != {cid: step.morphism(cid) for cid in step.after.corners}:
                raise StructuralError(f"step {k}: rebuilt morphism matrices differ from the trace")
        star = star.extended(step)
    return star


def certified_trace_to_json(run: PrincipalizationRun) -> dict[str, Any]:
    """Trace plus the end certificate: every end corner's generator
    exponents with their single minimal one, formatted off the stored
    pairs, and the run's statistics."""
    doc = star_to_json(run.star)
    doc["final_corners"] = [
        {
            "corner": c.corner,
            "index_set": list(c.index_set),
            "principal_exponent": [
                _format_pair(c.principal_exponent._entry(lab)) for lab in c.index_set
            ],
            "all_generator_exponents": [
                [_format_pair(g._entry(lab)) for lab in c.index_set]
                for g in c.generator_exponents
            ],
        }
        for c in run.corners
    ]
    doc["stats"] = {
        "age": run.age,
        "final_corner_count": len(run.star.end.corners),
        "pair_invariants": [list(t) for t in run.pair_invariants],
        "new_uncoupled_counts": list(run.new_uncoupled_counts),
    }
    return doc


def report_to_json(report: ReductionReport) -> dict[str, Any]:
    """The certified trace plus the problem and the annotated centers."""
    doc = certified_trace_to_json(report)
    doc["problem"] = support_to_json(report.problem.support)
    doc["problem"]["stratum_dim"] = report.problem.stratum_dim
    annotation = report.problem.center_annotation
    doc["centers"] = [
        {"pair": sorted(step.center_pair), "new_label": step.new_label, "annotation": annotation}
        for step in report.star.steps
    ]
    return doc


def problem_from_json(doc: Mapping[str, Any], stratum_dim: int | None = None) -> ReductionProblem:
    support = support_from_json(doc)
    k = stratum_dim
    if k is None:
        k = _field(doc, "stratum_dim", "problem", (int, str), 0)
    try:
        k = int(k)
    except ValueError:
        raise StructuralError(f"stratum_dim must be an integer, not {k!r}") from None
    return ReductionProblem(support=support, stratum_dim=k)
