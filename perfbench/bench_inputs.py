"""Seeded inputs for the benchmark, independent of the test helpers.

Two seeds play different parts:

* the corpus seed fixes the structure of the problems.  It replays the
  draw rule of `tests/helpers.random_problem`; seed 77 gives ROADMAP
  corpus A (100 draws of at most 3 variables and 5 points) and, from a
  separate stream of 4-variable, 6-point draws, the tower of corpus C.
* the run seed (`--seed`) renames the variables of every problem and
  shuffles its rows.  The new names are `x` plus four digits, assigned in
  the order of the old ones, so every label and corner id keeps its
  relative order: the tower is the same up to renaming and its cost is
  the same.  Random corpora are not used for the run seed because their
  cost is heavy-tailed: one pass of 100 fresh draws took 3 s to 37 s
  depending on the seed, far beyond any bound a benchmark can hold.

The reference run seed 77 keeps the names z1..zn, so its inputs are the
ROADMAP corpora verbatim.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

REFERENCE_SEED = 77
HELD_OUT_SEED = 2206
SMALL_SHAPE = (3, 5)
DEEP_SHAPE = (4, 6)
CORPUS_SIZE = 100

_RENAMED = re.compile(r"x\d{4}")


def draw_rows(rng: random.Random, max_vars: int, max_points: int):
    """One draw of `helpers.random_problem`: variable labels and exponent rows."""
    e = rng.randint(1, max_vars)
    t = rng.randint(1, max_points)
    labels = [f"z{i}" for i in range(1, e + 1)]
    rows = [
        [Fraction(rng.randint(0, 8), rng.randint(1, 6)) for _ in labels] for _ in range(t)
    ]
    return labels, rows


def draws(corpus_seed: int, shape, count: int):
    rng = random.Random(corpus_seed)
    return [draw_rows(rng, *shape) for _ in range(count)]


class Renamed:
    """One problem's rows under the run seed's variable names."""

    def __init__(self, labels, rows, rng: random.Random | None):
        if rng is None:
            names = list(labels)
        else:
            names = [f"x{k:04d}" for k in sorted(rng.sample(range(10000), len(labels)))]
            rows = [list(r) for r in rows]
            rng.shuffle(rows)
        self.names = names
        self.rows = rows
        self._back = dict(zip(names, labels))

    def original_text(self, text: str) -> str:
        """Map a canonical trace written under the new names back to z1..zn."""
        if all(k == v for k, v in self._back.items()):
            return text
        return _RENAMED.sub(lambda m: self._back[m.group(0)], text)


def rename_all(seed: int, problems):
    """Apply the run seed to a list of (labels, rows) draws."""
    rng = None if seed == REFERENCE_SEED else random.Random(seed)
    return [Renamed(labels, rows, rng) for labels, rows in problems]
