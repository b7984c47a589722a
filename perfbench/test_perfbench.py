"""Checks of the benchmark itself: inputs, wrappers and smoke mode.

Run from the repository root with `python -m pytest perfbench -q`.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_inputs  # noqa: E402
import run as bench  # noqa: E402
from bench_trace import Patches, StepClock, Tracer  # noqa: E402

lib = bench.load_library()


def _helpers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_test_helpers", HERE.parent / "tests" / "helpers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _problems(seed, corpus_seed, shape, count):
    items = bench_inputs.rename_all(seed, bench_inputs.draws(corpus_seed, shape, count))
    return [lib.ReductionProblem(lib.support_from_rows(it.names, it.rows)) for it in items]


def test_reference_seed_reproduces_helper_draws():
    helpers = _helpers()
    seed = bench_inputs.REFERENCE_SEED
    for shape, count in ((bench_inputs.SMALL_SHAPE, bench_inputs.CORPUS_SIZE),
                         (bench_inputs.DEEP_SHAPE, 15)):
        rng = random.Random(seed)
        expected = [helpers.random_problem(rng, *shape) for _ in range(count)]
        assert _problems(seed, seed, shape, count) == expected


def test_other_seeds_rename_variables_in_order():
    (item,) = bench_inputs.rename_all(5, [(["z1", "z2", "z3"], [[1, 2, 3], [4, 5, 6]])])
    assert item.names == sorted(item.names) and len(set(item.names)) == 3
    assert all(n.startswith("x") and len(n) == 5 for n in item.names)
    assert item.original_text(" ".join(item.names)) == "z1 z2 z3"


def test_wrappers_cover_every_namespace_and_come_off():
    original = lib.linalg.mat_mul
    patches = Patches()
    tracer = Tracer()
    StepClock().install(patches)
    tracer.install(patches)
    try:
        assert lib.blowup.mat_mul is lib.linalg.mat_mul is lib.mat_mul
        assert lib.blowup.mat_mul is not original
        lib.reduce_problem(lib.ReductionProblem(lib.support_from_rows(["a", "b"], [[2, 1], [0, 2]])))
    finally:
        patches.undo()
    assert lib.blowup.mat_mul is original and lib.mat_mul is original
    totals = tracer.aggregate()
    assert totals["reduction.reduce_problem"]["calls"] == 1
    assert totals["blowup.apply_center"]["calls"] == 1
    root = totals["reduction.reduce_problem"]
    assert 0 <= root["self_s"] <= root["total_s"]


def test_smoke_emits_every_metric_with_its_unit(capsys):
    assert bench.smoke(seed=5, corpus_seed=bench_inputs.REFERENCE_SEED)
    assert bench.smoke(seed=bench_inputs.REFERENCE_SEED, corpus_seed=bench_inputs.HELD_OUT_SEED)
