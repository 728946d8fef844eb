"""Per-layer tracing for the traced benchmark run.

The layers are the ``ctqw`` modules. Their functions are wrapped from here,
never inside the package. A wrapper keeps a span in memory (layer,
function, start, end, parent span, pass) together with work counts computed
from the call's arguments or result. The package binds functions across
modules with ``from .x import y``, so each wrapper goes into every ``ctqw.*``
namespace that holds the original function object, and is removed again
when the traced pass ends. A function that no longer exists is recorded as
missing; the run goes on without it.

Helpers that take microseconds (everything in ``model``, ``mean_velocity``,
``msd_closed_form``, ``crossing_time``, ``is_fine_tuned``, ``format_value``)
are not wrapped, so their time counts in the caller's self time.
"""

import functools
import importlib
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


def _bessel_row_counts(result, z, n_max):
    from ctqw import bessel

    return {"orders": bessel.start_order(z, n_max)}


def _bessel_rows_counts(result, z, n_max):
    from ctqw import bessel

    z = np.asarray(z, dtype=float)
    return {"orders": bessel.start_order(float(z.max(initial=0.0)), n_max) * z.size}


def _wavefunction_counts(result, params, window, t):
    return {"sites": window.n_sites}


def _ode_counts(result, params, window, ode, t, initial=None):
    # ceil(t / h); the slack absorbs rounding in t / h for exact multiples
    return {"site_steps": math.ceil(t / ode.step - 1e-9) * window.n_sites}


def _spectral_counts(result, params, ring, t, window=None, initial=None):
    # one forward and one inverse FFT over the ring
    return {"fft_points": 2 * ring.size}


def _table_counts(result, path, fmt, header, rows):
    return {"rows": len(rows), "bytes": os.path.getsize(path)}


def _triangle_counts(result, *args, **kwargs):
    return {
        "checks": len(result),
        "margin": max(r.max_deviation / r.tolerance for r in result),
    }


# (module, function, layer, work counter called with the result and the
# call's arguments, or None)
TRACED = (
    ("ctqw.cli", "main", "cli", None),
    ("ctqw.validate", "oracle_triangle", "validate", _triangle_counts),
    ("ctqw.analytic", "analytic_wavefunction", "analytic", _wavefunction_counts),
    ("ctqw.analytic", "analytic_probability", "analytic", None),
    ("ctqw.analytic", "survival_exact", "analytic", None),
    ("ctqw.analytic", "survival_asymptotic", "analytic", None),
    ("ctqw.bessel", "bessel_row", "bessel", _bessel_row_counts),
    ("ctqw.bessel", "bessel_rows", "bessel", _bessel_rows_counts),
    ("ctqw.propagators", "propagate_ode", "propagators.ode", _ode_counts),
    ("ctqw.propagators", "propagate_spectral", "propagators.spectral", _spectral_counts),
    ("ctqw.observables", "series_from_states", "observables", None),
    ("ctqw.observables", "smoothed_survival", "observables", None),
    ("ctqw.tables", "emit_table", "tables", _table_counts),
)

# Counts that combine by maximum over spans; all others add up.
_MAX_COUNTS = {"margin"}

# The per-layer metrics of a traced run, with units. BENCHMARK.json lists
# the same names.
PER_LAYER = {
    "bessel.calls": "count",
    "bessel.busy_s": "s",
    "bessel.orders": "count",
    "bessel.ns_per_order": "ns",
    "analytic.calls": "count",
    "analytic.busy_s": "s",
    "analytic.self_s": "s",
    "analytic.sites": "count",
    "propagators.ode.calls": "count",
    "propagators.ode.busy_s": "s",
    "propagators.ode.site_steps": "count",
    "propagators.ode.ns_per_site_step": "ns",
    "propagators.spectral.calls": "count",
    "propagators.spectral.busy_s": "s",
    "propagators.spectral.fft_points": "count",
    "observables.calls": "count",
    "observables.busy_s": "s",
    "tables.calls": "count",
    "tables.busy_s": "s",
    "tables.rows": "count",
    "tables.bytes": "bytes",
    "validate.self_s": "s",
    "validate.checks": "count",
    "validate.margin": "ratio",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


@dataclass
class Span:
    index: int
    layer: str
    function: str
    parent: Optional["Span"]
    pass_index: int
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    # wrapper bookkeeping of the child spans, taken out of this span's self time
    tare: float = 0.0


class Tracer:
    """Installs the wrappers for one traced pass at a time and keeps the spans."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self.counter_errors = {}
        self._stack = []
        self._patches = []
        self._pass_index = 0

    def install(self, pass_index):
        self._pass_index = pass_index
        self.missing = []
        for module_name, name, layer, counter in TRACED:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{name}")
                continue
            original = getattr(module, name, None)
            if original is None:
                self.missing.append(f"{module_name}.{name}")
                continue
            wrapper = self._wrap(layer, name, original, counter)
            for ns_name, ns in list(sys.modules.items()):
                if ns is None or not (ns_name == "ctqw" or ns_name.startswith("ctqw.")):
                    continue
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def _wrap(self, layer, name, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            span = Span(len(spans), layer, name, stack[-1] if stack else None, self._pass_index)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                try:
                    span.counts = counter(result, *args, **kwargs)
                except (TypeError, AttributeError, ValueError, OSError) as exc:
                    self.counter_errors[name] = repr(exc)
            if span.parent is not None:
                span.parent.tare += (span.start - entered) + (clock() - span.end)
            return result

        return traced

    def spans_as_rows(self):
        """Spans as JSON-ready rows: layer, function, start, end, parent, pass, counts."""
        return [
            [s.layer, s.function, s.start, s.end,
             None if s.parent is None else s.parent.index, s.pass_index, s.counts]
            for s in self.spans
        ]


def _nested_in_own_layer(span):
    parent = span.parent
    while parent is not None:
        if parent.layer == span.layer:
            return True
        parent = parent.parent
    return False


def pass_metrics(spans, pass_wall):
    """Per-layer metrics of one traced pass whose jobs took ``pass_wall`` s.

    ``calls`` and ``busy_s`` count only spans not nested in a span of the
    same layer; ``self_s`` is busy time minus child spans and the wrapper
    bookkeeping around them. ``trace.overhead_s`` needs the untraced passes
    and is filled in by the caller.
    """
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent.index] = child_time.get(s.parent.index, 0.0) + s.end - s.start
    flat = {}
    total_self = 0.0
    for s in spans:
        duration = s.end - s.start
        self_s = duration - child_time.get(s.index, 0.0) - s.tare
        total_self += self_s
        prefix = s.layer + "."
        flat[prefix + "self_s"] = flat.get(prefix + "self_s", 0.0) + self_s
        if not _nested_in_own_layer(s):
            flat[prefix + "calls"] = flat.get(prefix + "calls", 0) + 1
            flat[prefix + "busy_s"] = flat.get(prefix + "busy_s", 0.0) + duration
        for key, value in s.counts.items():
            name = prefix + key
            if key in _MAX_COUNTS:
                flat[name] = max(flat.get(name, value), value)
            else:
                flat[name] = flat.get(name, 0) + value

    def per(numerator, denominator, scale):
        count = flat.get(denominator, 0)
        return flat.get(numerator, 0.0) / count * scale if count else 0.0

    flat["bessel.ns_per_order"] = per("bessel.busy_s", "bessel.orders", 1e9)
    flat["propagators.ode.ns_per_site_step"] = per(
        "propagators.ode.busy_s", "propagators.ode.site_steps", 1e9
    )
    flat["trace.coverage"] = total_self / pass_wall if pass_wall > 0 else 0.0
    return {name: flat.get(name, 0) for name in PER_LAYER if name != "trace.overhead_s"}
