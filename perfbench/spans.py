"""Spans and counts at the program's module boundaries, recorded from outside.

``Tracer.install`` replaces public functions and methods of the program's
modules with wrappers for as long as its context lasts; no program file
changes. A wrapped function is replaced under every name the package binds
it to (``from .continuous import tabulate_cdf_u`` in ``steady_state`` gives
a second name), so calls between modules are seen as well.

Each call records a span (name, start, end, parent span, operation), kept
in memory and written out by ``write``. A span's self time is its duration
minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np


def _points(args, kwargs, result):
    return np.size(args[3] if len(args) > 3 else kwargs["t"])


def _atoms(args, kwargs, result):
    return result.size


def _mixture_evals(args, kwargs, result):
    return np.size(args[0]) * args[1].size


def _gamma_points(args, kwargs, result):
    return np.size(result)


def _trial_steps(args, kwargs, result):
    cfg = args[0]
    return cfg.trials * cfg.n_iters


# (module, attribute, span name, count name, count function); a dotted
# attribute is a method of a class defined in the module.
TARGETS = (
    ("models", "GaussianModel.log_cf", "models.log_cf", None, None),
    ("models", "ExponentialModel.log_cf", "models.log_cf", None, None),
    ("models", "GaussianModel.sample", "models.sample", None, None),
    ("models", "ExponentialModel.sample", "models.sample", None, None),
    ("continuous", "tabulate_cdf_u", "continuous.tabulate_cdf_u", None, None),
    ("continuous", "cdf_u", "continuous.cdf_u", None, None),
    ("continuous", "log_cf_w", "continuous.log_cf_w", "continuous.log_cf_w.points", _points),
    ("discrete", "discrete_component", "discrete.discrete_component", "discrete.atoms", _atoms),
    ("discrete", "convolve", "discrete.convolve", None, None),
    ("discrete", "merge_close", "discrete.merge_close", None, None),
    ("steady_state", "build_steady_state", "steady_state.build_steady_state", None, None),
    ("steady_state", "mixture_cdf", "steady_state.mixture_cdf",
     "steady_state.mixture_cdf.evals", _mixture_evals),
    ("steady_state", "SteadyStateCdf.mean", "steady_state.cdf_moments", None, None),
    ("steady_state", "SteadyStateCdf.std", "steady_state.cdf_moments", None, None),
    ("detection", "default_gamma_grid", "detection.default_gamma_grid",
     "detection.gamma_points", _gamma_points),
    ("detection", "roc", "detection.roc", None, None),
    ("simulate", "run", "simulate.run", "simulate.trial_steps", _trial_steps),
    ("simulate", "draw_statistics", "simulate.draw_statistics", None, None),
)
COUNT_NAMES = tuple(sorted({t[3] for t in TARGETS if t[3]}))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.ops: list[str] = []
        self.active = False
        self._name = array("i")
        self._op = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[list] = []  # [span id, children's total]
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = dict.fromkeys(COUNT_NAMES, 0)
        self.t0 = time.perf_counter()

    def begin_op(self, name: str) -> None:
        self.ops.append(name)

    def _wrap(self, fn, span: str, count_name, count_fn):
        name_id = self._ids.setdefault(span, len(self._ids))
        if name_id == len(self.names):
            self.names.append(span)
            self.calls[span], self.total_s[span], self.self_s[span] = 0, 0.0, 0.0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = len(self._start)
            self._start.append(time.perf_counter() - self.t0)
            self._end.append(0.0)
            self._name.append(name_id)
            self._op.append(len(self.ops) - 1)
            self._parent.append(self._stack[-1][0] if self._stack else -1)
            frame = [span_id, 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter() - self.t0
                self._stack.pop()
                self._end[span_id] = end
                dur = end - self._start[span_id]
                if self._stack:
                    self._stack[-1][1] += dur
                self.calls[span] += 1
                self.total_s[span] += dur
                self.self_s[span] += dur - frame[1]
            if count_name:
                self.counts[count_name] += int(count_fn(args, kwargs, result))
            return result
        return wrapper

    @contextmanager
    def install(self, package: str = "onebitnet"):
        """Wrap every target for the duration of the context."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        undo = []
        for mod_name, attr, span, count_name, count_fn in TARGETS:
            owner = sys.modules[f"{package}.{mod_name}"]
            *cls, fn_name = attr.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            orig = getattr(owner, fn_name)
            wrapped = self._wrap(orig, span, count_name, count_fn)
            holders = [owner] if cls else modules
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        undo.append((holder, key, orig))
                        setattr(holder, key, wrapped)
        self.active = True
        try:
            yield self
        finally:
            self.active = False
            for holder, key, orig in reversed(undo):
                setattr(holder, key, orig)

    def summary(self) -> dict:
        """Per span name: calls, total and self time; and the counts."""
        return {"layers": {n: {"calls": self.calls[n], "s": self.total_s[n],
                               "self_s": self.self_s[n]} for n in self.names},
                "counts": self.counts}

    def write(self, path, **meta) -> None:
        """The spans (columns; times in seconds from the tracer's start),
        the operations they belong to and the summary, as JSON."""
        doc = dict(meta, ops=self.ops, span_names=self.names, **self.summary())
        doc["spans"] = {"name": self._name.tolist(), "op": self._op.tolist(),
                        "parent": self._parent.tolist(),
                        "start": self._start.tolist(), "end": self._end.tolist()}
        with open(path, "w") as fh:
            json.dump(doc, fh)
