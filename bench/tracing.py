"""Spans and counters recorded around the benchmark's calls into adiabound.

A traced run wraps every call the benchmark makes into a public function of
``tsp``, ``models``, ``hilbert``, ``evolution``, ``bounds`` or ``cli`` in a
span named ``<module>.<function>``.  Spans are kept in memory and written out
once, when the run ends.  An untraced run uses :class:`NullTracer`, whose
``call`` is a plain function call, so end-to-end timings carry no tracing cost.
"""
from __future__ import annotations

import contextlib
import json
import math
import time
from collections import Counter, defaultdict

import numpy as np

from adiabound import HamiltonianOp


class NullTracer:
    """Tracing off: calls go straight through and nothing is recorded."""

    enabled = False
    item = None
    phase = "body"
    last_s = 0.0  # duration of the most recent span

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name):
        return contextlib.nullcontext()

    def count(self, key, amount=1):
        pass

    def peak(self, key, value):
        pass

    def wrap(self, op):
        return op


class Tracer(NullTracer):
    """Spans with name, start, end, parent span, item id and phase."""

    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self.item: str | None = None
        self.phase = "setup"
        self._stack: list[int] = []
        self._wrapped: list[CountingOp] = []

    @contextlib.contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
               "end": math.nan, "parent": self._stack[-1] if self._stack else None,
               "item": self.item, "phase": self.phase}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self.last_s = rec["end"] - rec["start"]
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, key, amount=1):
        self.counts[key] += amount

    def peak(self, key, value):
        self.peaks[key] = max(self.peaks.get(key, -math.inf), float(value))

    def wrap(self, op):
        counting = CountingOp(op)
        self._wrapped.append(counting)
        return counting

    def applies(self) -> int:
        return sum(w.applies for w in self._wrapped)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus the child spans it covers."""
        child = defaultdict(float)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        out: dict[str, float] = defaultdict(float)
        for rec in self.spans:
            out[rec["name"]] += rec["end"] - rec["start"] - child[rec["id"]]
        return out

    def calls(self) -> Counter:
        return Counter(rec["name"] for rec in self.spans)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       "peaks": self.peaks}, handle)


class CountingOp(HamiltonianOp):
    """Pass-through operator that counts ``apply_amps`` calls (traced runs only)."""

    def __init__(self, op: HamiltonianOp):
        self.op = op
        self.basis = op.basis
        self.applies = 0

    def apply_amps(self, amps):
        self.applies += 1
        return self.op.apply_amps(amps)

    def norm_bound(self) -> float:
        return self.op.norm_bound()


def op_key(op: HamiltonianOp) -> str:
    return f"{type(op).__name__}-{op.basis.dim}"


def apply_bytes(op: HamiltonianOp) -> int:
    """Computed, not measured: the state read once, the result written once,
    and each array the operator stores read once."""
    dim = op.basis.dim
    state = 2 * 16 * dim
    if hasattr(op, "values"):
        return state + op.values.nbytes
    if hasattr(op, "vector"):
        return state + op.vector.nbytes
    return state + 8 * (op.basis.dims[0] - 1)  # ladder ops: the sqrt(n) table


def time_apply(op: HamiltonianOp, batch_s: float = 0.02, repeats: int = 7) -> float:
    """Median microseconds per ``apply_amps`` call, after warm-up."""
    rng = np.random.default_rng(5)
    amps = rng.standard_normal(op.basis.dim) + 1j * rng.standard_normal(op.basis.dim)
    amps /= np.linalg.norm(amps)
    for _ in range(5):
        op.apply_amps(amps)
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            op.apply_amps(amps)
        if time.perf_counter() - t0 >= batch_s or n >= 1 << 20:
            break
        n *= 2
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            op.apply_amps(amps)
        samples.append((time.perf_counter() - t0) / n)
    return float(np.median(samples)) * 1e6
