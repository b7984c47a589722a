#!/usr/bin/env python3
"""Walk through the two-point instance {(2,1),(0,2)} step by step.

Prints the obstructed center, the adapted weights, every morphism matrix,
the transformed generator exponents, and the final per-corner report, then
writes the trace and DOT files next to this script (or under --outdir).
"""

import argparse
from pathlib import Path

from monores import (
    ReductionProblem,
    numeric_oracle,
    reduce_problem,
    support_from_rows,
)
from monores.dot import export_dot_star
from monores.jsonio import canonical_dumps, report_to_json


def fmt_vec(vec):
    return "(" + ", ".join(f"{lab}:{val}" for lab, val in vec.items()) + ")"


def fmt_mat(mat):
    rows = mat.sorted_rows
    cols = mat.sorted_cols
    lines = [f"      cols: {list(cols)}"]
    for r in rows:
        lines.append(f"      {r}: [" + ", ".join(str(mat.entry(r, c)) for c in cols) + "]")
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default=str(Path(__file__).parent), help="output directory")
    args = ap.parse_args()

    support = support_from_rows(("z1", "z2"), [[2, 1], [0, 2]])
    print("support points:", sorted(tuple(str(v) for _, v in p.items()) for p in support.points))
    report = reduce_problem(ReductionProblem(support))
    star = report.star

    for k, step in enumerate(star.steps, start=1):
        print(f"\nstep {k}: blow up {{{','.join(sorted(step.center_pair))}}} -> {step.new_label}")
        for cid, alpha in step.alpha_at_center.items():
            print(f"  adapted weights at {cid}: {fmt_vec(alpha)}")
        for cid in step.after.corner_ids():
            print(f"  corner {cid} {sorted(step.after.corner(cid).index_set)}:")
            print(fmt_mat(step.morphism(cid)))

    print("\nfinal corners:")
    for c in report.corners:
        gens = ", ".join(fmt_vec(g) for g in c.generator_exponents)
        print(f"  {c.corner} {list(c.index_set)}: generators {gens}")
        print(f"    principal exponent {fmt_vec(c.principal_exponent)}")

    err = numeric_oracle(star, samples=100, seed=42)
    print(f"\nnumeric oracle max relative error: {err:.3e}")

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    trace_path = outdir / "worked_example_trace.json"
    dot_path = outdir / "worked_example.dot"
    trace_path.write_text(canonical_dumps(report_to_json(report)), encoding="utf-8")
    dot_path.write_text(export_dot_star(star), encoding="utf-8")
    print(f"wrote {trace_path} and {dot_path}")


if __name__ == "__main__":
    main()
