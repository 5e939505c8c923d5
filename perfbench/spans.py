"""Spans around rfuowc's module-boundary calls, recorded from outside.

Each traced name is patched where its caller looks it up (the module
attribute read at call time), so the program itself is unchanged.  Spans
are kept in memory as [name, start, end, parent index, work count] and
written out when the worker ends.  A name the program no longer has is
listed as absent and simply not traced.
"""

from __future__ import annotations

import importlib
import json
import time


def _size(value) -> int:
    return int(getattr(value, "size", 1))


def _arg_size(index):
    return lambda args: _size(args[index]) if len(args) > index else 1


# (module, attribute, span name, work count of one call)
LAYERS = (
    ("rfuowc.system", "outage_quadrature", "system.outage_quadrature", None),
    ("rfuowc.system", "outage_closed_form", "system.outage_closed_form", None),
    ("rfuowc.system", "meijer_g_log", "specfun.meijer_g_log", None),
    ("rfuowc.channels", "_pdf_times_x", "channels.pdf_times_x", _arg_size(0)),
    ("rfuowc.channels", "rf_snr_cdf", "channels.rf_snr_cdf", _arg_size(0)),
    ("rfuowc.channels", "uowc_snr_cdf", "channels.uowc_snr_cdf", _arg_size(0)),
    ("rfuowc.channels", "meijer_g_batch", "specfun.meijer_g_batch", _arg_size(1)),
    ("rfuowc.specfun", "_mb_eval", "specfun.contour", None),
    ("rfuowc.specfun", "_SeriesTable", "specfun.series_table", None),
    ("rfuowc.mc", "mc_outage", "mc.mc_outage", None),
    ("rfuowc.mc", "chunk_stream", "mc.chunk_stream", None),
    ("rfuowc.mc", "sample_rf_best_snr", "mc.sample_rf_best_snr", None),
    ("rfuowc.mc", "sample_egg_irradiance", "mc.sample_egg_irradiance", None),
    ("rfuowc.mc", "sample_pointing", "mc.sample_pointing", None),
)
# the integrator's work count is the number of nodes its integrand sees
INTEGRATOR = ("rfuowc.system", "adaptive_quad", "quadrature.adaptive_quad")


class Tracer:
    def __init__(self):
        self.passes = {}
        self.spans = []
        self.absent = []
        self._stack = []
        self._undo = []

    def begin(self, label: str):
        """Start a new span list; spans of one pass share it."""
        self.spans = self.passes[label] = []
        self._stack = []

    def _enter(self, name, work):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, work]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _lookup(self, module_name, attr):
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append(f"{module_name}.{attr}")
        return module, fn

    def install(self):
        for module_name, attr, name, work in LAYERS:
            module, fn = self._lookup(module_name, attr)
            if fn is not None:
                self._patch(module, attr, fn, self._wrap(fn, name, work))
        module_name, attr, name = INTEGRATOR
        module, fn = self._lookup(module_name, attr)
        if fn is not None:
            self._patch(module, attr, fn, self._wrap_integrator(fn, name))

    def uninstall(self):
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo = []

    def _patch(self, module, attr, fn, wrapper):
        self._undo.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def _wrap(self, fn, name, work):
        def traced(*args, **kwargs):
            span = self._enter(name, work(args) if work else 1)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(span)
        return traced

    def _wrap_integrator(self, fn, name):
        def traced(f, *args, **kwargs):
            span = self._enter(name, 0)

            def counted(u):
                span[4] += _size(u)
                return f(u)

            try:
                return fn(counted, *args, **kwargs)
            finally:
                self._exit(span)
        return traced

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"absent": self.absent,
                       "fields": ["name", "start", "end", "parent", "work"],
                       "passes": self.passes}, fh)


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, work count.

    Self time is a span's duration minus the time its child spans cover.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _, work) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child[i]
        row["work"] += work
    return out
