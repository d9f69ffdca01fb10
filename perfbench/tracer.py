"""Spans around the public functions of cdiffkit's layers.

The tracer rebinds every public module-level function of the measured
layers, in each cdiffkit module that holds it (so `from .cdiff import ...`
in theorems and cli is covered too), to a wrapper that records a span:
name, start, end and parent.  Spans stay in memory; `uninstall` restores
the original bindings.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc

LAYERS = ("field", "functions", "cdiff", "walsh", "theorems")
CALLERS = ("cli",)   # not measured, but its `from .cdiff import ...` names are wrapped
MB = 1 << 20


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, id, parent, name, attrs):
        self.id, self.parent, self.name, self.attrs = id, parent, name, attrs
        self.start = self.end = 0.0

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    def to_json_dict(self):
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, **self.attrs}


class Tracer:
    """Record spans while installed.  With memory=True, build_field calls
    also run under tracemalloc (peak and retained bytes), which slows them,
    so timing and memory come from separate passes."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches = []
        self._originals = {}

    # -- installation -----------------------------------------------------------

    def install(self):
        wrappers = {}
        for caller in CALLERS:
            importlib.import_module(f"cdiffkit.{caller}")
        for layer in LAYERS:
            mod = importlib.import_module(f"cdiffkit.{layer}")
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
                    self._originals[f"{layer}.{name}"] = obj
        for modname, mod in list(sys.modules.items()):
            if modname != "cdiffkit" and not modname.startswith("cdiffkit."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self._patches.append((mod, name, obj))
        return self

    def uninstall(self):
        for mod, name, obj in reversed(self._patches):
            setattr(mod, name, obj)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- spans --------------------------------------------------------------------

    def _wrap(self, layer, name, fn):
        full = f"{layer}.{name}"
        measure_memory = self.memory and full == "field.build_field"
        counts_verdicts = full == "theorems.verify"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), parent, full, self._attrs(full, args, kwargs))
            self.spans.append(span)
            self._stack.append(span)
            tracing = measure_memory and not tracemalloc.is_tracing()
            if tracing:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if tracing:
                    current, peak = tracemalloc.get_traced_memory()
                    tracemalloc.stop()
                    span.attrs["retained_mb"] = current / MB
                    span.attrs["peak_mb"] = peak / MB
                self._stack.pop()
            if counts_verdicts:
                span.attrs["verdicts"] = len(result)
            return result

        return wrapper

    def _attrs(self, full, args, kwargs):
        """Work counts for the cdiff entry points and the pcn path switch."""
        if full in ("cdiff.uniformity", "cdiff.spectrum", "cdiff.dual_convention_max"):
            F = args[0] if args else kwargs["F"]
            if full == "cdiff.uniformity":
                n_c = 1
            else:
                c_filter = args[1] if len(args) > 1 else kwargs["c_filter"]
                n_c = len(self._originals["cdiff.admissible_c"](F.spec, c_filter))
            return {"q": F.spec.q, "c_values": n_c}
        if full == "walsh.pcn_power_sum":
            F = args[0] if args else kwargs["F"]
            return {"q": F.spec.q}
        return {}


def self_times(spans):
    """Span id -> duration minus the time its direct children cover."""
    out = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def layer_self(spans, layer):
    own = self_times(spans)
    return sum((own[s.id] for s in spans if s.layer == layer), 0.0)


def inclusive(spans, name, where=lambda s: True):
    """Time inside spans called `name`, outermost ones only."""
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name != name or not where(s):
            continue
        p = s.parent
        nested = False
        while p is not None:
            if by_id[p].name == name:
                nested = True
                break
            p = by_id[p].parent
        if not nested:
            total += s.end - s.start
    return total


def round_metrics(spans):
    """Per-layer figures of one traced round."""
    cdiff_calls = [s for s in spans
                   if s.name in ("cdiff.uniformity", "cdiff.spectrum",
                                 "cdiff.dual_convention_max")]
    c_values = sum(s.attrs["c_values"] for s in cdiff_calls)
    elements = sum(s.attrs["c_values"] * s.attrs["q"] ** 2 for s in cdiff_calls)
    cdiff_self = layer_self(spans, "cdiff")
    return {
        "cdiff.calls": len(cdiff_calls),
        "cdiff.c_values": c_values,
        "cdiff.elements": elements,
        "cdiff.self_s": cdiff_self,
        "cdiff.ns_per_element": cdiff_self / elements * 1e9 if elements else 0.0,
        "cdiff.uniformity_s": inclusive(spans, "cdiff.uniformity"),
        "cdiff.spectrum_s": inclusive(spans, "cdiff.spectrum"),
        "cdiff.dual_max_s": inclusive(spans, "cdiff.dual_convention_max"),
        "walsh.self_s": layer_self(spans, "walsh"),
        "walsh.walsh_table_s": inclusive(spans, "walsh.walsh_table"),
        "walsh.pcn_s": inclusive(spans, "walsh.pcn_power_sum",
                                 lambda s: s.attrs["q"] <= 256),
        "walsh.pcn_large_s": inclusive(spans, "walsh.pcn_power_sum",
                                       lambda s: s.attrs["q"] > 256),
        "walsh.apcn_s": inclusive(spans, "walsh.apcn_statistic"),
        "walsh.convolution_s": inclusive(spans, "walsh.convolution_statistic"),
        "walsh.derivative_s": inclusive(spans, "walsh.derivative_walsh_statistic"),
        "theorems.self_s": layer_self(spans, "theorems"),
        "theorems.verdicts": sum(s.attrs.get("verdicts", 0) for s in spans),
    }


def setup_metrics(timed_spans, memory_spans):
    """Figures of the set-up phase: a timed pass and a tracemalloc pass."""
    builds = [s for s in memory_spans if s.name == "field.build_field"]
    return {
        "field.build_s": layer_self(timed_spans, "field"),
        "functions.build_s": layer_self(timed_spans, "functions"),
        "field.build_peak_mb": max((s.attrs["peak_mb"] for s in builds), default=0.0),
        "field.table_mb": sum(s.attrs["retained_mb"] for s in builds),
    }
