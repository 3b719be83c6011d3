"""Timing, spans and checked operations for one benchmark sample.

A sample runs in its own interpreter.  Every call the benchmark makes into
cubikit goes through `Runner.call`, which adds its CPU time to the current
job (the sample shares its CPU with the pacer, see pacer.py, so its wall
time is not its own).  A traced runner also keeps a span per call (name, start, end, parent,
job) in memory; an untraced runner keeps none, so end-to-end numbers are
measured with tracing off.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

clock = time.process_time


class Runner:
    def __init__(self, traced: bool):
        self.traced = traced
        self.spans = []          # [name, start, end, parent, job, rung, calls]
        self._stack = []
        self.job_name = "setup"
        self.job_s = {}
        self.counts = {}
        self.ops = {}            # op id -> True (passed) / False (failed)
        self.failures = []       # {"op", "detail", "known"}

    # -- timing ---------------------------------------------------------------

    @contextmanager
    def job(self, name):
        """Attribute the library calls made inside to job `name`."""
        prev = self.job_name
        self.job_name = name
        self.job_s.setdefault(name, 0.0)
        idx = self._open(f"job.{name}", None, 1)
        try:
            yield
        finally:
            self._close(idx)
            self.job_name = prev

    def call(self, name, fn, *args, rung=None, calls=1, **kwargs):
        """Time fn(*args, **kwargs) as a call into layer function `name`
        (`<module>.<function>`); `calls` > 1 marks a batch of calls."""
        idx = self._open(name, rung, calls)
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.job_s[self.job_name] = self.job_s.get(self.job_name, 0.0) \
                + clock() - t0
            self._close(idx)

    def _open(self, name, rung, calls):
        if not self.traced:
            return None
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, clock(), None, parent, self.job_name, rung,
                           calls])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx):
        if idx is not None:
            self.spans[idx][2] = clock()
            self._stack.pop()

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    # -- checked operations ------------------------------------------------------

    def attempt(self, op, name, fn, *args, known=None, **kwargs):
        """One checked operation: a timed call that fails if it raises.

        Returns the call's result, or None after a failure.  `known(exc)`
        may name the documented defect an exception belongs to.
        """
        self.ops.setdefault(op, True)
        try:
            return self.call(name, fn, *args, **kwargs)
        except Exception as exc:  # every raise is a counted failure
            self.fail(op, f"{type(exc).__name__}: {exc}"[:300],
                      known(exc) if known else None)
            return None

    def expect(self, op, ok, detail="", known=None):
        """Record an oracle comparison on operation `op`."""
        self.ops.setdefault(op, True)
        if not ok:
            self.fail(op, detail or "output disagrees with its oracle", known)
        return ok

    def fail(self, op, detail, known=None):
        self.ops[op] = False
        self.failures.append({"op": op, "detail": detail, "known": known})

    def report(self):
        return {
            "jobs": self.job_s,
            "counts": self.counts,
            "ops": self.ops,
            "attempted": len(self.ops),
            "failed": sum(1 for ok in self.ops.values() if not ok),
            "failed_by_layer": _by_layer(op for op, ok in self.ops.items()
                                         if not ok),
            "failures": self.failures,
            "spans": self.spans,
        }


def _by_layer(ops):
    out = {}
    for op in ops:
        layer = op.split(".", 1)[0]
        out[layer] = out.get(layer, 0) + 1
    return out
