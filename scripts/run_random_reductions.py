#!/usr/bin/env python3
"""Batch experiment over random supports.

Reduces many random minimal supports, collects the age distribution, and
measures how often a blow-up adapted to one generator pair creates a
fresh obstructed center on the exceptional divisor for a *different*
pair.  Such obstructions land only on pairs later in the sweep's order,
which measures each pair once, when its turn comes.  Problems are
independent, so they can run across processes with --jobs.

With --oracle-samples N > 0 every tower is also checked by the float
oracle, and the script exits 1 when the worst error exceeds
ORACLE_TOLERANCE (the tolerance of acceptance criterion 8).
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from monores import ReductionProblem, numeric_oracle, reduce_problem, support_from_rows

ORACLE_TOLERANCE = 1e-9


def one_run(task):
    seed, max_vars, max_points, oracle_samples = task
    rng = random.Random(seed)
    e = rng.randint(1, max_vars)
    t = rng.randint(1, max_points)
    labels = [f"z{i}" for i in range(1, e + 1)]
    rows = [
        [Fraction(rng.randint(0, 8), rng.randint(1, 6)) for _ in labels] for _ in range(t)
    ]
    report = reduce_problem(ReductionProblem(support_from_rows(labels, rows)))
    err = (
        numeric_oracle(report.star, samples=oracle_samples, seed=seed)
        if oracle_samples
        else 0.0
    )
    return {
        "seed": seed,
        "vars": e,
        "points": t,
        "age": report.age,
        "corners": len(report.star.end.corners),
        "fresh_obstructions": sum(report.new_uncoupled_counts),
        "oracle_error": err,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-vars", type=int, default=3)
    ap.add_argument("--max-points", type=int, default=5)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--oracle-samples", type=int, default=0,
                    help="per-tower oracle samples (0 disables the float check)")
    args = ap.parse_args()
    for flag, value in (
        ("--count", args.count),
        ("--max-vars", args.max_vars),
        ("--max-points", args.max_points),
        ("--jobs", args.jobs),
    ):
        if value < 1:
            ap.error(f"{flag} must be at least 1")
    if args.oracle_samples < 0:
        ap.error("--oracle-samples must be nonnegative")

    tasks = [
        (args.seed + k, args.max_vars, args.max_points, args.oracle_samples)
        for k in range(args.count)
    ]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(one_run, tasks, chunksize=8))
    else:
        results = [one_run(t) for t in tasks]

    ages = Counter(r["age"] for r in results)
    print(f"{len(results)} problems reduced")
    print("age distribution:", dict(sorted(ages.items())))
    print("max corners:", max(r["corners"] for r in results))
    total_fresh = sum(r["fresh_obstructions"] for r in results)
    with_fresh = sum(1 for r in results if r["fresh_obstructions"])
    print(
        f"fresh cross-pair obstructions on the exceptional divisor: "
        f"{total_fresh} total, in {with_fresh}/{len(results)} runs"
    )
    if args.oracle_samples:
        worst = max(r["oracle_error"] for r in results)
        print("worst oracle error:", worst)
        if not worst <= ORACLE_TOLERANCE:
            print(f"error: worst oracle error exceeds {ORACLE_TOLERANCE}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
