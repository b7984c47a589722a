"""Command line interface.

Subcommands:
  reduce        minimal support in  -> blow-up trace + per-corner certificate out
  principalize  generator exponents in -> blow-up trace + per-corner certificate out
  validate      check a manifold file, print violations
  replay        rebuild a trace and verify it bit for bit

Exit codes: 0 success, 1 bad input, 2 validation violations, 3 step
budget exceeded, 4 internal error (a failed invariant check: a bug, not
bad input).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .dot import export_dot_star
from .errors import AlgorithmInvariantViolation, BudgetExceededError, DomainError
from .errors import MonoresError, StructuralError
from .ideals import DEFAULT_STEP_BUDGET, principalize_generators
from .jsonio import (
    canonical_dumps,
    certified_trace_to_json,
    ideal_from_json,
    manifold_from_json,
    problem_from_json,
    replay_trace,
    report_to_json,
    star_to_json,
)
from .oracle import numeric_oracle
from .reduction import reduce_problem

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_BUG = 4


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members; a repeated key is bad input, where a plain
    `json.load` would keep its last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise StructuralError(f"repeated key {key!r} in a JSON object")
        doc[key] = value
    return doc


def _load_json(path: str):
    """The parsed file; an OSError, a ValueError (malformed JSON, bad
    UTF-8, an integer too long for Python to convert) or a RecursionError
    (arrays or objects nested too deep for the decoder) is bad input."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as exc:
        raise MonoresError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    """Write `text` as UTF-8.  The text is encoded before the path is
    opened, so text that does not encode never truncates a file."""
    data = text.encode("utf-8")
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise MonoresError(f"cannot write {path}: {exc}") from exc


def _check_options(args) -> None:
    """Reject, before the input is read: a `--dot` path that names the
    `--trace` file, whose DOT would overwrite the trace, and
    `--check-numeric` with no samples, which would check nothing.  A
    negative `--max-steps` is rejected by `principalize_generators`, before
    any trace is written."""
    if args.dot and Path(args.dot).resolve() == Path(args.trace).resolve():
        raise DomainError(f"--dot {args.dot} would overwrite --trace {args.trace}")
    if args.check_numeric and args.samples < 1:
        raise DomainError(f"--samples must be at least 1, got {args.samples}")


def _sweep(args, run, to_json, summary) -> int:
    """The path `reduce` and `principalize` share once the input is read:
    sweep it (`run()`); on a budget stop write the partial trace, if any,
    and exit 3; else write the trace (`to_json`) and DOT, print
    `summary(result)` and, with `--check-numeric`, the oracle's error.
    A path that cannot be written is bad input (exit 1), after a budget
    stop too."""
    try:
        result = run()
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.star is not None:
            _write_text(args.trace, canonical_dumps(star_to_json(exc.star)))
            print(f"partial trace written to {args.trace}", file=sys.stderr)
        return EXIT_BUDGET
    _write_text(args.trace, canonical_dumps(to_json(result)))
    if args.dot:
        _write_text(args.dot, export_dot_star(result.star))
    summary(result)
    if args.check_numeric:
        err = numeric_oracle(result.star, samples=args.samples, seed=args.seed)
        print(f"numeric oracle: max relative error {err:.3e} "
              f"({args.samples} samples, seed {args.seed})")
    return EXIT_OK


def cmd_reduce(args) -> int:
    _check_options(args)
    problem = problem_from_json(_load_json(args.input), stratum_dim=args.stratum_dim)

    def summary(report) -> None:
        print(f"reduced: age {report.age}, {len(report.corners)} final corners, "
              f"trace -> {args.trace}")
        for step in report.star.steps:
            pair = ",".join(sorted(step.center_pair))
            print(f"  center {{{pair}}} -> {step.new_label}   [{report.problem.center_annotation}]")

    return _sweep(args, lambda: reduce_problem(problem, max_steps=args.max_steps),
                  report_to_json, summary)


def cmd_principalize(args) -> int:
    _check_options(args)
    ideal = ideal_from_json(_load_json(args.input))

    def run():
        return principalize_generators(ideal.manifold, ideal.generators, max_steps=args.max_steps)

    def summary(result) -> None:
        print(f"principalized: age {result.age}, trace -> {args.trace}")

    return _sweep(args, run, certified_trace_to_json, summary)


def cmd_validate(args) -> int:
    m = manifold_from_json(_load_json(args.input))
    violations = m.validate()
    if violations:
        for v in violations:
            print(f"violation: {v}")
        return EXIT_INVALID
    print(f"valid: {len(m.corners)} corners, {len(m.edges)} edges")
    return EXIT_OK


def cmd_replay(args) -> int:
    doc = _load_json(args.trace)
    star = replay_trace(doc)
    violations = star.end.validate()
    if violations:
        for v in violations:
            print(f"violation: {v}")
        return EXIT_INVALID
    print(
        f"replayed: age {star.age}, end manifold has {len(star.end.corners)} corners; "
        "all recorded matrices reproduced exactly"
    )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are bad input: `main` prints
    one `error: <prog>: <message>` line and returns 1, where argparse
    would print its usage and exit 2, the code for validation violations.
    Subparsers are made of the same class."""

    def error(self, message):
        raise MonoresError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="monores",
        description="Reduce finite minimal supports to monomial type by "
        "codimension-two combinatorial blow-ups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--trace", required=True, help="output trace JSON path")
        p.add_argument("--dot", help="optional DOT output path")
        p.add_argument("--max-steps", type=int, default=DEFAULT_STEP_BUDGET)
        p.add_argument("--check-numeric", action="store_true")
        p.add_argument("--samples", type=int, default=100)
        p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("reduce", help="reduce a support file to monomial type")
    p.add_argument("--input", required=True, help="problem JSON (variables, points)")
    p.add_argument("--stratum-dim", type=int, default=None,
                   help="ambient stratum dimension (overrides the file)")
    add_common(p)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("principalize", help="principalize a generator list")
    p.add_argument("--input", required=True, help="ideal JSON (dimension, labels, generators)")
    add_common(p)
    p.set_defaults(fn=cmd_principalize)

    p = sub.add_parser("validate", help="validate a manifold file")
    p.add_argument("--input", required=True, help="manifold JSON")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("replay", help="rebuild a trace and verify it")
    p.add_argument("--trace", required=True, help="trace JSON produced by reduce/principalize")
    p.set_defaults(fn=cmd_replay)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except AlgorithmInvariantViolation as exc:
        print(f"internal error (bug): {exc}", file=sys.stderr)
        return EXIT_BUG
    except MonoresError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
