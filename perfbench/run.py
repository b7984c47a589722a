#!/usr/bin/env python3
"""Benchmark for monores: three workloads, end-to-end metrics, a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload corpus-small --seed 77 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke            # every workload at a tiny size
    python3 perfbench/run.py --regen-golden --corpus-seed 2206

One process, one caller, no threads: each workload is a closed loop that
starts the next problem, step or trace when the previous one returns.  It
repeats whole passes over its inputs for about `--seconds` seconds and
reports per-unit medians over the passes.  Every output is checked
against `golden.json`; a wrong trace counts as a failed operation.

With `--trace 0` the last line carries the end-to-end metrics.  With
`--trace 1` untraced and traced passes alternate, and the last line
carries the per-layer metrics of the traced passes; spans and per-step
rows are written to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import random
import resource
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_inputs import (
    CORPUS_SIZE,
    DEEP_SHAPE,
    HELD_OUT_SEED,
    REFERENCE_SEED,
    SMALL_SHAPE,
    draw_rows,
    draws,
    rename_all,
)
from bench_trace import Patches, StepClock, Tracer, reference_ms

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

ORACLE_TOLERANCE = 1e-9
SETUP_REPEATS = 5
# Untraced, a unit runs again until its runs add up to MIN_UNIT_MS (at most
# MAX_RUNS runs) and counts with its fastest run.
MIN_UNIT_MS = 5.0
MAX_RUNS = 10
# Reference kernel time (ms) on an idle core of the 2-vCPU machine the
# benchmark was defined on; times are reported at that speed.  Under load the
# kernel slows more than monores does: scaling by (REF_MS / kernel) ** 0.85
# gave the smallest spread between identical runs (0.8 to 0.9 did as well).
REF_MS = 1.35
SPEED_EXPONENT = 0.85
NEIGHBOURS = 2


class Size:
    def __init__(self, corpus: int, tower_budget: int, oracle_samples: int):
        self.corpus = corpus
        self.tower_budget = tower_budget
        self.oracle_samples = oracle_samples


FULL = Size(CORPUS_SIZE, 30, 10)
SMOKE = Size(8, 5, 2)


class BenchError(Exception):
    """The benchmark cannot run here (no library, no BENCHMARK.json, ...)."""


def load_library():
    if not (SRC / "monores" / "__init__.py").is_file():
        raise BenchError(f"no monores sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import monores
    import monores.jsonio

    if Path(monores.__file__).resolve().parent != (SRC / "monores").resolve():
        raise BenchError(f"imported monores from {monores.__file__}, not from {SRC}")
    return monores


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def percentile(values, q: int) -> float:
    """q-th percentile (1..99) as `statistics.quantiles(n=100)` gives it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


class Pass:
    """What one pass over a workload's inputs did."""

    def __init__(self):
        self.unit_ms = []  # latency per unit, None when the unit failed
        self.work_ms = []  # all the unit's work (replay adds the oracle), for throughput
        self.ref_ms = []  # reference kernel run next to each unit (untraced passes)
        self.timed_s = 0.0  # first runs only, to compare traced and untraced passes
        self.attempted = 0
        self.failed = 0
        self.counts = {"age_total": 0, "end_corners_total": 0, "trace_bytes": 0}
        self.steps = []  # per unit: rows of (corners before, edges after, step ms, ref ms)

    def fail(self):
        """Count the unit as failed; it has no time (its `ref_ms` is kept)."""
        self.failed += 1
        self.unit_ms.append(None)
        self.work_ms.append(None)


def timed_unit(run, clock, repeat: bool):
    """Run `run`; untraced, run it again while its runs took under MIN_UNIT_MS.

    Returns the first run's result, its time, and the fastest time (ms),
    leaving out the reference kernel runs the step clock made inside.
    Short units are where a single run is most at the mercy of the machine.
    """

    def once():
        t0 = time.perf_counter()
        result = run()
        return result, (time.perf_counter() - t0) * 1000.0 - clock.kernel_ms()

    result, first = once()
    best, total, runs = first, first, 1
    while repeat and total < MIN_UNIT_MS and runs < MAX_RUNS:
        ms = once()[1]
        best, total, runs = min(best, ms), total + ms, runs + 1
    return result, first, best


def unit_reference(before: float, rows) -> float:
    """Median kernel time around one unit: before it and at each of its steps."""
    return statistics.median([before] + [r[3] for r in rows])


# -- workloads ---------------------------------------------------------------


class CorpusSmall:
    """Corpus A: reduce each problem, render its report as a canonical trace."""

    name = "corpus-small"

    def __init__(self, lib, seed, corpus_seed, size, golden):
        self.lib = lib
        self.golden = golden
        self.items = rename_all(seed, draws(corpus_seed, SMALL_SHAPE, size.corpus))
        self.problems = [
            lib.ReductionProblem(lib.support_from_rows(it.names, it.rows)) for it in self.items
        ]
        self.extra_setup_s = 0.0

    def expected_counts(self):
        n = len(self.items)
        return {
            "age_total": sum(self.golden["corpus_ages"][:n]),
            "end_corners_total": sum(self.golden["corpus_end_corners"][:n]),
        }

    def run_pass(self, clock, tracer) -> Pass:
        lib, jsonio = self.lib, self.lib.jsonio
        out = Pass()
        for i, (item, problem) in enumerate(zip(self.items, self.problems)):
            if tracer is not None:
                tracer.unit = i
            before = reference_ms() if clock.calibrate else 0.0
            out.attempted += 1

            def unit():
                clock.begin()
                report = lib.reduce_problem(problem)
                rows = clock.finish(time.perf_counter())
                return report, jsonio.canonical_dumps(jsonio.report_to_json(report)), rows

            try:
                (report, text, rows), first, best = timed_unit(unit, clock, tracer is None)
            except lib.MonoresError:
                out.ref_ms.append(before)
                out.fail()
                continue
            out.ref_ms.append(unit_reference(before, rows))
            out.steps.append(rows)
            out.timed_s += first / 1000.0
            if sha256(item.original_text(text)) != self.golden["corpus_digests"][i]:
                out.fail()
                continue
            out.unit_ms.append(best)
            out.work_ms.append(best)
            out.counts["age_total"] += report.age
            out.counts["end_corners_total"] += len(report.star.end.corners)
            out.counts["trace_bytes"] += len(text.encode("utf-8"))
        return out


class TowerDeep:
    """Corpus C: one 4-variable tower, run until the step budget stops it."""

    name = "tower-deep"

    def __init__(self, lib, seed, corpus_seed, size, golden):
        self.lib = lib
        self.budget = size.tower_budget
        self.digest = golden["tower_digests"][str(self.budget)]
        self.golden = golden
        index = golden["tower_index"]
        (self.item,) = rename_all(seed, draws(corpus_seed, DEEP_SHAPE, index + 1)[index:])
        self.problem = lib.ReductionProblem(
            lib.support_from_rows(self.item.names, self.item.rows)
        )
        self.extra_setup_s = 0.0

    def expected_counts(self):
        return {
            "age_total": self.budget,
            "end_corners_total": self.golden["tower_end_corners"][str(self.budget)],
        }

    def run_pass(self, clock, tracer) -> Pass:
        lib, jsonio = self.lib, self.lib.jsonio
        out = Pass()
        # Steps are the units here, and spans carry the step index.
        clock.step_sink = tracer
        clock.begin()
        t0 = time.perf_counter()
        try:
            lib.reduce_problem(self.problem, max_steps=self.budget)
            star = None
        except lib.BudgetExceededError as exc:
            star = exc.star
        t1 = time.perf_counter()
        clock.step_sink = None
        rows = clock.finish(t1)
        out.steps.append(rows)
        out.timed_s = t1 - t0 - clock.kernel_ms() / 1000.0
        out.attempted = max(len(rows), 1)
        text = jsonio.canonical_dumps(jsonio.star_to_json(star)) if star is not None else ""
        if star is None or sha256(self.item.original_text(text)) != self.digest:
            out.failed = out.attempted
            out.unit_ms = out.work_ms = [None] * len(rows)
            return out
        out.unit_ms = out.work_ms = [ms for _, _, ms, _ in rows]
        out.ref_ms = [ref for _, _, _, ref in rows]
        out.counts["age_total"] = star.age
        out.counts["end_corners_total"] = len(star.end.corners)
        out.counts["trace_bytes"] = len(text.encode("utf-8"))
        return out


class ReplayVerify:
    """Corpus A traces: parse, replay, validate in full, sample the float oracle."""

    name = "replay-verify"

    def __init__(self, lib, seed, corpus_seed, size, golden):
        self.lib = lib
        self.samples = size.oracle_samples
        source = CorpusSmall(lib, seed, corpus_seed, size, golden)
        self.expected_counts = source.expected_counts
        self.traces = []
        spent, refs = [], []
        for problem in source.problems:
            refs.append(reference_ms())
            t0 = time.perf_counter()
            report = lib.reduce_problem(problem)
            self.traces.append(lib.jsonio.canonical_dumps(lib.jsonio.report_to_json(report)))
            spent.append((time.perf_counter() - t0) * 1000.0)
        self.extra_setup_s = sum(scaled(spent, refs)) / 1000.0
        # A wrong trace here would make every replay check meaningless.
        for i, (item, text) in enumerate(zip(source.items, self.traces)):
            if sha256(item.original_text(text)) != golden["corpus_digests"][i]:
                raise BenchError(f"set-up trace {i} does not match golden.json")

    def run_pass(self, clock, tracer) -> Pass:
        lib, jsonio = self.lib, self.lib.jsonio
        out = Pass()
        for i, text in enumerate(self.traces):
            if tracer is not None:
                tracer.unit = i
            before = reference_ms() if clock.calibrate else 0.0
            out.attempted += 1

            def unit():
                clock.begin()
                doc = json.loads(text)
                star = jsonio.replay_trace(doc)
                rows = clock.finish(time.perf_counter())
                return doc, star, star.end.validate(), rows

            try:
                (doc, star, violations, rows), first, best = timed_unit(
                    unit, clock, tracer is None
                )
                t0 = time.perf_counter()
                err = lib.numeric_oracle(star, samples=self.samples, seed=i)
                oracle_ms = (time.perf_counter() - t0) * 1000.0
            except lib.MonoresError:
                out.ref_ms.append(before)
                out.fail()
                continue
            out.ref_ms.append(unit_reference(before, rows))
            out.steps.append(rows)
            out.timed_s += (first + oracle_ms) / 1000.0
            rebuilt = jsonio.star_to_json(star)
            if violations or not err < ORACLE_TOLERANCE or any(
                rebuilt[k] != doc[k] for k in ("version", "root", "steps")
            ):
                out.fail()
                continue
            out.unit_ms.append(best)
            out.work_ms.append(best + oracle_ms)
            out.counts["age_total"] += star.age
            out.counts["end_corners_total"] += len(star.end.corners)
            out.counts["trace_bytes"] += len(text.encode("utf-8"))
        return out


WORKLOADS = {w.name: w for w in (CorpusSmall, TowerDeep, ReplayVerify)}


# -- running -----------------------------------------------------------------


def setup_probe(workload: str, seed: int, corpus_seed: int, size: Size):
    """Seconds to import monores and build the workload's inputs, in this process,
    and the reference kernel's median time right after."""
    t0 = time.perf_counter()
    lib = load_library()
    cls = CorpusSmall if workload == ReplayVerify.name else WORKLOADS[workload]
    cls(lib, seed, corpus_seed, size, load_golden(corpus_seed))
    spent = time.perf_counter() - t0
    return {"setup_s": spent, "ref_ms": statistics.median(reference_ms() for _ in range(7))}


def child_setup_s(workload, seed, corpus_seed, smoke: bool, repeats: int) -> float:
    """Median over fresh interpreters of `setup_probe`, at reference speed."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", workload, "--seed", str(seed), "--corpus-seed", str(corpus_seed),
    ] + (["--smoke"] if smoke else [])
    times = []
    for _ in range(repeats):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(probe["setup_s"] * speed_factor(probe["ref_ms"]))
    return statistics.median(times)


def load_golden(corpus_seed: int):
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if str(corpus_seed) not in doc:
        raise BenchError(f"golden.json has no data for corpus seed {corpus_seed}")
    return doc[str(corpus_seed)]


def run_passes(workload, seconds: float, traced: bool):
    """Alternate untraced and (when traced) traced passes for about `seconds`."""
    patches = Patches()
    clock = StepClock()
    clock.install(patches)
    tracer = Tracer() if traced else None
    plain, with_spans, spans = [], [], []
    t_start = time.perf_counter()
    try:
        while True:
            t0 = time.perf_counter()
            if tracer is not None and len(plain) > len(with_spans):
                first = len(tracer)
                tracing = Patches()
                tracer.install(tracing)
                try:
                    with_spans.append(workload.run_pass(clock, tracer))
                finally:
                    tracing.undo()
                spans.append((first, len(tracer)))
            else:
                # Untraced, the reference kernel runs before each unit and at
                # the start of each blow-up step, outside the timed work.
                clock.calibrate = True
                plain.append(workload.run_pass(clock, None))
                clock.calibrate = False
            now = time.perf_counter()
            done = tracer is None or (plain and with_spans)
            if done and (now - t_start) + (now - t0) > seconds:
                break
    finally:
        patches.undo()
    return plain, with_spans, tracer, spans


def scaled(times_ms, refs_ms):
    """Unit times at reference speed, from the kernel times measured next to them.

    The machine's speed drifts by up to 2x over seconds.  Each unit's time is
    multiplied by the speed factor of the median kernel time of the units
    within NEIGHBOURS of it, which leaves the drift out and keeps the code's
    own cost.
    """
    out = []
    for i, ms in enumerate(times_ms):
        near = refs_ms[max(0, i - NEIGHBOURS): i + NEIGHBOURS + 1]
        out.append(None if ms is None else ms * speed_factor(statistics.median(near)))
    return out


def speed_factor(ref_ms: float) -> float:
    """What to multiply a time by to bring it to reference speed."""
    return (REF_MS / ref_ms) ** SPEED_EXPONENT


def per_unit_medians(passes, field: str):
    """Median over the passes of each unit's time at reference speed."""
    out = []
    for values in zip(*(scaled(getattr(p, field), p.ref_ms) for p in passes)):
        ok = [v for v in values if v is not None]
        if ok:
            out.append(statistics.median(ok))
    return out


def end_to_end(passes, setup_s: float):
    latency = per_unit_medians(passes, "unit_ms")
    work = per_unit_medians(passes, "work_ms")
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "throughput_per_s": 1000.0 * len(work) / sum(work) if work else 0.0,
        "latency_ms_p50": statistics.median(latency) if latency else 0.0,
        "latency_ms_p90": percentile(latency, 90) if latency else 0.0,
    }


def step_growth(passes) -> float:
    """Median step time of the last 10 steps over the first 10, largest unit."""
    ratios = []
    for p in passes:
        rows = max(p.steps, key=len, default=[])
        k = min(10, len(rows) // 2)
        if k:
            ms = [r[2] for r in rows]
            ratios.append(statistics.median(ms[-k:]) / statistics.median(ms[:k]))
    return statistics.median(ratios) if ratios else 0.0


def per_layer(plain, with_spans, tracer, spans):
    """Every per-layer value the traced passes give; BENCHMARK.json picks from them."""
    aggs = [tracer.aggregate(a, b) for a, b in spans]
    first = aggs[0]
    metrics = {}
    for name in tracer.names:
        metrics[f"{name}.calls"] = first[name]["calls"]
        metrics[f"{name}.self_s"] = statistics.median(a[name]["self_s"] for a in aggs)
        metrics[f"{name}.total_s"] = statistics.median(a[name]["total_s"] for a in aggs)
    steps = first["blowup.apply_center"]["calls"]
    counts = with_spans[0].counts
    metrics["blowup.steps"] = steps
    metrics["reduction.age_total"] = counts["age_total"]
    metrics["reduction.end_corners_total"] = counts["end_corners_total"]
    metrics["jsonio.trace_bytes"] = counts["trace_bytes"]
    per_step = lambda name: first[name]["calls"] / steps if steps else 0.0
    metrics["ideals.scans_per_step"] = per_step("ideals.uncoupled_centers")
    metrics["manifold.validate_per_step"] = per_step("manifold.MonomialManifold.validate")
    metrics["linalg.mat_mul_per_step"] = per_step("linalg.mat_mul")
    metrics["tower.step_growth"] = step_growth(plain)
    metrics["tracing.overhead_ratio"] = statistics.median(
        p.timed_s for p in with_spans
    ) / statistics.median(p.timed_s for p in plain)
    repeat = all(
        a[n]["calls"] == first[n]["calls"] for a in aggs for n in tracer.names
    ) and all(p.counts == counts for p in with_spans)
    return metrics, repeat


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "monores").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def header(args, passes: int):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "corpus_seed": args.corpus_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
    }


def declared_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in doc["end_to_end"]},
        {m["name"]: m["unit"] for m in doc["per_layer"]},
    )


def run_workload(args, size: Size, setup_repeats: int):
    """One benchmark run; returns (result line, details for the output file)."""
    e2e_units, layer_units = declared_metrics()
    lib = load_library()
    golden = load_golden(args.corpus_seed)
    workload = WORKLOADS[args.workload](lib, args.seed, args.corpus_seed, size, golden)
    setup_s = workload.extra_setup_s + child_setup_s(
        args.workload, args.seed, args.corpus_seed, size is SMOKE, setup_repeats
    )
    plain, with_spans, tracer, spans = run_passes(workload, args.seconds, bool(args.trace))
    expected = workload.expected_counts()
    correct = all(
        p.failed == 0 and all(p.counts[k] == v for k, v in expected.items())
        for p in plain + with_spans
    )
    details = {
        "header": header(args, len(plain) + len(with_spans)),
        "passes": [
            {
                "traced": p in with_spans,
                "timed_s": p.timed_s,
                "unit_ms": p.unit_ms,
                "work_ms": p.work_ms,
                "ref_ms": p.ref_ms,
            }
            for p in plain + with_spans
        ],
    }
    if args.trace:
        values, repeat = per_layer(plain, with_spans, tracer, spans)
        correct = correct and repeat
        units = layer_units
        details["per_layer"] = values
        details["steps"] = [
            {"unit": u, "step": k, "corners_before": c, "edges_after": e, "step_ms": ms}
            for u, rows in enumerate(with_spans[0].steps)
            for k, (c, e, ms, _) in enumerate(rows)
        ]
        details["spans"] = tracer.to_json()
    else:
        values = end_to_end(plain, setup_s)
        units = e2e_units
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    correct = correct and all(math.isfinite(m["value"]) for m in metrics.values())
    everything = plain + with_spans
    result = {
        "correct": correct,
        "attempted": sum(p.attempted for p in everything),
        "failed": sum(p.failed for p in everything),
        "metrics": metrics,
    }
    return result, details


def write_details(args, result, details):
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-corpus{args.corpus_seed}-trace{args.trace}"
    spans = details.pop("spans", None)
    if spans is not None:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(spans), encoding="utf-8")
    doc = dict(details, result=result)
    (OUT / f"{stem}.json").write_text(json.dumps(doc, indent=1), encoding="utf-8")


# -- golden data and smoke mode -----------------------------------------------


def regen_golden(corpus_seed: int):
    """Recompute the reference outputs for one corpus seed from the library."""
    lib = load_library()
    jsonio = lib.jsonio
    entry = {"corpus_digests": [], "corpus_ages": [], "corpus_end_corners": []}
    for labels, rows in draws(corpus_seed, SMALL_SHAPE, CORPUS_SIZE):
        report = lib.reduce_problem(lib.ReductionProblem(lib.support_from_rows(labels, rows)))
        entry["corpus_digests"].append(sha256(jsonio.canonical_dumps(jsonio.report_to_json(report))))
        entry["corpus_ages"].append(report.age)
        entry["corpus_end_corners"].append(len(report.star.end.corners))
    # The tower is the first deep draw that reaches the full budget.
    budget = FULL.tower_budget
    rng = random.Random(corpus_seed)
    for index in itertools.count():
        problem = lib.ReductionProblem(lib.support_from_rows(*draw_rows(rng, *DEEP_SHAPE)))
        try:
            lib.reduce_problem(problem, max_steps=budget)
        except lib.BudgetExceededError:
            break
    entry["tower_index"] = index
    entry["tower_digests"], entry["tower_end_corners"] = {}, {}
    for b in sorted({SMOKE.tower_budget, budget}):
        try:
            lib.reduce_problem(problem, max_steps=b)
            raise BenchError(f"tower {index} finished within {b} steps")
        except lib.BudgetExceededError as exc:
            text = jsonio.canonical_dumps(jsonio.star_to_json(exc.star))
            entry["tower_digests"][str(b)] = sha256(text)
            entry["tower_end_corners"][str(b)] = len(exc.star.end.corners)
    doc = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    doc[str(corpus_seed)] = entry
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return entry


def smoke(seed: int, corpus_seed: int) -> bool:
    """Each workload at a tiny size, untraced and traced: every metric, with its unit."""
    e2e_units, layer_units = declared_metrics()
    ok = True
    for name in WORKLOADS:
        for trace, units in ((0, e2e_units), (1, layer_units)):
            args = argparse.Namespace(
                workload=name, seed=seed, corpus_seed=corpus_seed, seconds=0, trace=trace
            )
            result, _ = run_workload(args, SMOKE, setup_repeats=1)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            good = result["correct"] and result["failed"] == 0 and emitted == units
            ok = ok and good
            print(f"smoke {name} trace={trace}: {'ok' if good else 'FAILED'}"
                  f" ({len(emitted)} metrics, {result['attempted']} operations)")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default="corpus-small")
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED,
                    help="renames variables and shuffles rows (77 keeps z1..zn)")
    ap.add_argument("--corpus-seed", type=int, default=REFERENCE_SEED,
                    help=f"problem structure: 77 = ROADMAP corpora A and C, "
                         f"{HELD_OUT_SEED} = held out for claims")
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--regen-golden", action="store_true")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            size = SMOKE if args.smoke else FULL
            print(json.dumps(setup_probe(args.workload, args.seed, args.corpus_seed, size)))
            return 0
        if args.regen_golden:
            entry = regen_golden(args.corpus_seed)
            print(json.dumps({k: entry[k] for k in ("tower_index", "tower_end_corners")}))
            return 0
        if args.smoke:
            return 0 if smoke(args.seed, args.corpus_seed) else 1
        result, details = run_workload(args, FULL, SETUP_REPEATS)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    write_details(args, result, details)
    print("# " + json.dumps(details["header"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
