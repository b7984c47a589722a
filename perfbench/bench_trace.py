"""Spans around the public functions of each `monores` module, from outside.

A function imported by name (`from .linalg import mat_mul`) is bound in
every module that imports it, so a wrapper replaces the object in every
`monores` namespace that holds it.  Methods are wrapped on their class.
Spans stay in memory as columns and are written out when the run ends.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from time import perf_counter

# The layers are the modules.
TARGETS = {
    "linalg": ["mat_mul", "vec_apply", "mat_inverse"],
    "manifold": [
        "MonomialManifold.validate",
        "MonomialManifold.change_matrix",
        "MonomialManifold.weight_connexion",
    ],
    "standardization": ["extend", "validate_realizable"],
    "blowup": ["blow_up", "apply_center", "compose_star"],
    "ideals": [
        "principalize_generators",
        "adapted_standardization",
        "PairState.measure",
        "uncoupled_centers",
        "pull_back_mfunction",
    ],
    "supports": ["minimal_support", "pullback_support"],
    "reduction": ["reduce_problem"],
    "jsonio": ["report_to_json", "canonical_dumps", "replay_trace"],
    "oracle": ["numeric_oracle"],
}


def span_names():
    return [f"{mod}.{qual}" for mod, quals in TARGETS.items() for qual in quals]


class Patches:
    """Replacements of library attributes, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def function(self, module: str, name: str, make):
        """Replace `monores.<module>.<name>` in every monores namespace."""
        original = getattr(sys.modules[f"monores.{module}"], name)
        replacement = make(original)
        for modname, mod in list(sys.modules.items()):
            if modname == "monores" or modname.startswith("monores."):
                if getattr(mod, name, None) is original:
                    self._undo.append((mod, name, original))
                    setattr(mod, name, replacement)

    def method(self, module: str, cls_name: str, name: str, make):
        cls = getattr(sys.modules[f"monores.{module}"], cls_name)
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._undo.append((cls, name, raw))
        setattr(cls, name, replacement)

    def undo(self):
        while self._undo:
            obj, name, original = self._undo.pop()
            setattr(obj, name, original)


def reference_ms() -> float:
    """Milliseconds for a fixed exact-arithmetic kernel that uses no monores code."""
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 1)
    return (perf_counter() - t0) * 1000.0


class StepClock:
    """Entry time, corners before and edges after of every `apply_center`.

    A step runs from one `apply_center` entry to the next; the last step of
    a unit (one problem, tower or trace) ends where the unit ends.
    """

    def __init__(self):
        self.entries = []
        # When set, spans take the index of the step they belong to.
        self.step_sink = None
        # When set, each step starts with one run of the reference kernel.
        self.calibrate = False

    def install(self, patches: Patches):
        entries = self.entries

        def make(fn):
            def apply_center(m, *args, **kwargs):
                t0 = perf_counter()
                ref = reference_ms() if self.calibrate else 0.0
                row = [t0, perf_counter(), len(m.corners), 0, ref]
                if self.step_sink is not None:
                    self.step_sink.unit = len(entries)
                entries.append(row)
                step = fn(m, *args, **kwargs)
                row[3] = len(step.after.edges)
                return step

            return apply_center

        patches.function("blowup", "apply_center", make)

    def begin(self):
        self.entries.clear()

    def kernel_ms(self) -> float:
        """Reference kernel time spent inside the unit since `begin`."""
        return sum(row[4] for row in self.entries)

    def finish(self, end_time: float):
        """Rows (corners before, edges after, step ms, reference ms) of the unit.

        A step's time leaves out the reference kernel run at its start.
        """
        ends = [row[0] for row in self.entries[1:]] + [end_time]
        return [
            (row[2], row[3], (end - row[1]) * 1000.0, row[4])
            for row, end in zip(self.entries, ends)
        ]


class Tracer:
    """Records one span per wrapped call: function, start, end, parent, unit."""

    def __init__(self):
        self.names = span_names()
        self.fid = array("i")
        self.parent = array("i")
        self.unit_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.unit = 0
        self._stack = []

    def install(self, patches: Patches):
        for fid, full in enumerate(self.names):
            module, _, qual = full.partition(".")
            make = self._wrapper_factory(fid)
            if "." in qual:
                cls_name, name = qual.split(".")
                patches.method(module, cls_name, name, make)
            else:
                patches.function(module, qual, make)

    def _wrapper_factory(self, fid: int):
        fids, parents, units = self.fid, self.parent, self.unit_of
        starts, ends, stack = self.start, self.end, self._stack

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = len(fids)
                fids.append(fid)
                parents.append(stack[-1] if stack else -1)
                units.append(self.unit)
                ends.append(0.0)
                stack.append(idx)
                starts.append(perf_counter())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[idx] = perf_counter()
                    stack.pop()

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    def __len__(self):
        return len(self.fid)

    def aggregate(self, first: int = 0, last: int | None = None):
        """Calls, self time and total time per function over spans [first, last)."""
        last = len(self.fid) if last is None else last
        n = len(self.names)
        calls = [0] * n
        total = [0.0] * n
        self_s = [0.0] * n
        child = {}
        for i in range(last - 1, first - 1, -1):
            dur = self.end[i] - self.start[i]
            f = self.fid[i]
            calls[f] += 1
            total[f] += dur
            self_s[f] += dur - child.pop(i, 0.0)
            p = self.parent[i]
            if p >= first:
                child[p] = child.get(p, 0.0) + dur
        return {
            name: {"calls": calls[k], "self_s": self_s[k], "total_s": total[k]}
            for k, name in enumerate(self.names)
        }

    def to_json(self):
        """Columns: function index into `names`, parent span, unit, start, end."""
        return {
            "names": self.names,
            "fid": self.fid.tolist(),
            "parent": self.parent.tolist(),
            "unit": self.unit_of.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }
