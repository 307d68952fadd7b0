"""Per-layer spans for the traced benchmark run.

The tracer replaces functions of ``rgess`` modules and classes with timing
wrappers, from the benchmark's side; ``src/rgess`` itself carries no spans.
Wrappers only time and count: they pass arguments and results through, so a
traced run draws the same random numbers and writes the same traces.

Spans are kept per call in memory, as flat arrays of doubles, and reduced
to the per-layer metrics at the end. A span belongs to the thread that made the call, because the
runner's thread pool overlaps kernel steps. A name that cannot be found is
recorded in ``missing``; the metrics that depend on it are reported as not
measured instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import threading
from array import array
from time import perf_counter

import numpy as np

__all__ = ["STEP_FIELDS", "Tracer", "union_length"]

STEP_FIELDS = ("start", "end", "self_s", "rejections", "log_pi_calls")


class _ThreadState(threading.local):
    in_step = False
    in_log_pi = False
    child_s = 0.0
    log_pi_calls = 0


class Tracer:
    def __init__(self):
        self._local = _ThreadState()
        # name of a wrapped function -> why it could not be wrapped
        self.missing = {}
        # STEP_FIELDS per kernel step, one flat row after another; a row is
        # added by one extend call, which no other thread can interleave.
        self.steps = array("d")
        self.log_pi_s = array("d")
        # component-density calls made outside log_pi
        self.density_s = array("d")
        # (start, end, what the fitter returned) per refit
        self.refits = []

    def step_rows(self) -> np.ndarray:
        """The kernel-step spans as an (n, len(STEP_FIELDS)) array."""
        return np.frombuffer(self.steps, dtype=float).reshape(-1, len(STEP_FIELDS))

    def _patch(self, owner, attr, label, make_wrapper):
        original = getattr(owner, attr, None)
        if original is None:
            self.missing[label] = f"{label} does not exist"
            return None
        wrapper = make_wrapper(original)
        setattr(owner, attr, wrapper)
        return wrapper

    @staticmethod
    def _member(module, attr):
        """``(owner, name, label)`` of ``module.attr``; ``attr`` may name a
        class member as ``Class.member``. The owner is None when a class on
        the way is missing."""
        owner = importlib.import_module(module)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        return owner, name, f"{module}.{attr}"

    def wrap_step(self, module, attr):
        """Span every call of a kernel step function; returns the wrapper."""
        loc, steps = self._local, self.steps

        def make(step):
            @functools.wraps(step)
            def traced_step(*args, **kwargs):
                loc.in_step = True
                loc.child_s = 0.0
                loc.log_pi_calls = 0
                t0 = perf_counter()
                try:
                    outcome = step(*args, **kwargs)
                finally:
                    loc.in_step = False
                t1 = perf_counter()
                steps.extend((t0, t1, t1 - t0 - loc.child_s, outcome.rejections,
                              loc.log_pi_calls))
                return outcome
            return traced_step

        return self._patch(*self._member(module, attr), make)

    def wrap_log_pi(self, target):
        """Span the target's ``log_pi``, swapped on the target object itself."""
        loc, durations = self._local, self.log_pi_s

        def make(log_pi):
            @functools.wraps(log_pi)
            def traced_log_pi(x):
                loc.in_log_pi = True
                t0 = perf_counter()
                try:
                    value = log_pi(x)
                finally:
                    loc.in_log_pi = False
                dt = perf_counter() - t0
                durations.append(dt)
                if loc.in_step:
                    loc.child_s += dt
                    loc.log_pi_calls += 1
                return value
            return traced_log_pi

        return self._patch(target, "log_pi", "TargetDensity.log_pi", make)

    def wrap_densities(self, module, attr):
        """Span the mixture component-density routine, except where a
        target's ``log_pi`` calls it (that time belongs to the target)."""
        loc, durations = self._local, self.density_s

        def make(densities):
            @functools.wraps(densities)
            def traced_densities(*args, **kwargs):
                if loc.in_log_pi:
                    return densities(*args, **kwargs)
                t0 = perf_counter()
                value = densities(*args, **kwargs)
                dt = perf_counter() - t0
                durations.append(dt)
                if loc.in_step:
                    loc.child_s += dt
                return value
            return traced_densities

        return self._patch(*self._member(module, attr), make)

    def wrap_refit(self, module, attr):
        """Span a mixture fitter; keeps what it returned for its counts."""
        refits = self.refits

        def make(fit):
            @functools.wraps(fit)
            def traced_fit(*args, **kwargs):
                t0 = perf_counter()
                result = fit(*args, **kwargs)
                refits.append((t0, perf_counter(), result))
                return result
            return traced_fit

        return self._patch(*self._member(module, attr), make)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    if len(intervals) == 0:
        return 0.0
    spans = np.asarray(intervals, dtype=float)
    spans = spans[np.argsort(spans[:, 0])]
    total, lo, hi = 0.0, spans[0, 0], spans[0, 1]
    for start, end in spans[1:]:
        if start > hi:
            total += hi - lo
            lo, hi = start, end
        elif end > hi:
            hi = end
    return total + (hi - lo)
