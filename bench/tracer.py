"""Outside-in tracing of critjac: spans around calls into each layer.

The tracer wraps module attributes of an imported critjac in the
benchmark's own process; the library itself is not edited.  A name
bound by a `from`-import lives on in every module that imported it, so
each target is replaced wherever the original object is bound: module
globals, module-level dicts (the CLI's command table) and, for methods,
the class.  A target missing from the library is recorded as absent.

Spans (name, start, end, parent, thread, size) are kept in memory and
written out when the benchmark ends; `layer_metrics` turns them into
the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from dataclasses import dataclass


def _out_len(args, kwargs, out) -> int:
    return len(out)


def _window_len(args, kwargs, out) -> int:
    return len(out.logmag)


def _kernel_len(args, kwargs, out) -> int:
    kern = args[0]
    return kern.N - kern.n0 + 1


# stage name -> (module, attribute path, size of one call from its result
# or arguments); `size` is the window length in indices, or None.
TARGETS = {
    "volterra.kernel_build": ("critjac.volterra", "VolterraKernel.__init__", _kernel_len),
    "volterra.sweep": ("critjac.volterra", "VolterraKernel.sweep", _out_len),
    "volterra.top_boundary": ("critjac.volterra", "_top_boundary",
                              lambda a, k, out: int(a[3])),
    "volterra.prefix_sum": ("critjac.volterra", "_scaled_prefix_sum",
                            lambda a, k, out: len(out[0])),
    "volterra.tail_fit": ("critjac.volterra", "_fit_partial_limit",
                          lambda a, k, out: len(a[0])),
    "volterra.solve": ("critjac.volterra", "solve",
                       lambda a, k, out: out.N - out.n0 + 1),
    "ansatz.theta_window": ("critjac.ansatz", "theta_window", _out_len),
    "ansatz.ratio_window": ("critjac.ansatz", "ansatz_ratio_window", _out_len),
    "ansatz.remainder_window": ("critjac.ansatz", "remainder_window", _out_len),
    "solutions.jost": ("critjac.solutions", "jost", _window_len),
    "solutions.omega": ("critjac.solutions", "omega", None),
    "solutions.growing": ("critjac.solutions", "growing", _window_len),
    "solutions.extend_backward": ("critjac.solutions", "_extend_backward",
                                  lambda a, k, out: len(out[0])),
    "recurrence.poly_eval": ("critjac.recurrence", "poly_eval", _window_len),
    "recurrence.matrix_eigs": ("critjac.recurrence", "truncated_matrix_eigs",
                               lambda a, k, out: int(a[1])),
    "spectral.density": ("critjac.spectral", "density", None),
    "spectral.omega_real": ("critjac.spectral", "_omega_real", None),
    "cli.density": ("critjac.cli", "cmd_density", None),
}


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    size: int

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object, bool]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, size):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            out, n = None, 0
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if size is not None:
                    try:
                        n = int(size(args, kwargs, out))
                    except (AttributeError, IndexError, TypeError):
                        n = 0                   # the call raised: no result to size
                tracer.spans.append(Span(sid, name, t0, t1, parent,
                                         threading.get_ident(), n))

        return traced

    def install(self, targets=TARGETS) -> None:
        for name, (modname, path, size) in targets.items():
            mod = sys.modules.get(modname)
            owner, attr = mod, path
            if mod is not None and "." in path:
                cls_name, attr = path.split(".", 1)
                owner = getattr(mod, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapped = self.wrap(name, original, size)
            if owner is not mod:                    # a method: patch the class
                self._set(owner, attr, wrapped, is_dict=False)
                continue
            self._rebind(original, wrapped, modname.split(".")[0])

    def _rebind(self, original, wrapped, package: str) -> None:
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == package or mname.startswith(package + ".")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, key, wrapped, is_dict=False)
                elif isinstance(val, dict):
                    for dkey, dval in list(val.items()):
                        if dval is original:
                            self._set(val, dkey, wrapped, is_dict=True)

    def _set(self, owner, key, value, is_dict: bool) -> None:
        old = owner[key] if is_dict else getattr(owner, key)
        self._undo.append((owner, key, old, is_dict))
        if is_dict:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, old, is_dict = self._undo.pop()
            if is_dict:
                owner[key] = old
            else:
                setattr(owner, key, old)


# -- accounting ---------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time covered by its children.

    A span's parent is the innermost open span on the same thread, so
    children never overlap one another and the subtraction is exact.
    """
    child = {s.sid: 0.0 for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in child:
            child[s.parent] += s.dur
    return {s.sid: s.dur - child[s.sid] for s in spans}


def _has_ancestor(span: Span, name: str, by_id: dict[int, Span]) -> bool:
    pid = span.parent
    while pid is not None and pid in by_id:
        up = by_id[pid]
        if up.name == name:
            return True
        pid = up.parent
    return False


# Stage -> the fields reported for it as <stage>.<field>; `steps` and
# `max_N` are the sum and the maximum of the call sizes.  DERIVED maps the
# other per-layer metrics to their units.
STAGE_FIELDS = {
    "volterra.kernel_build": ("self_s", "calls", "indices"),
    "volterra.prefix_sum": ("self_s", "calls", "indices"),
    "volterra.top_boundary": ("self_s", "calls", "indices"),
    "volterra.tail_fit": ("self_s", "calls", "indices"),
    "volterra.sweep": ("self_s", "calls", "indices"),
    "volterra.solve": ("self_s", "calls", "indices"),
    "ansatz.theta_window": ("self_s", "calls", "indices"),
    "ansatz.ratio_window": ("self_s", "calls"),
    "ansatz.remainder_window": ("self_s", "calls"),
    "solutions.jost": ("self_s", "calls", "indices"),
    "solutions.omega": ("self_s", "calls"),
    "solutions.growing": ("self_s", "calls", "indices"),
    "solutions.extend_backward": ("self_s", "calls", "steps"),
    "recurrence.poly_eval": ("self_s", "calls", "indices"),
    "recurrence.matrix_eigs": ("self_s", "calls", "max_N"),
    "spectral.density": ("self_s", "calls"),
    "spectral.omega_real": ("self_s",),
    "cli.density": ("self_s", "calls"),
}
FIELD_UNITS = {"self_s": "s", "calls": "count", "indices": "count",
               "steps": "count", "max_N": "count"}
DERIVED = {
    "volterra.tail_to_window_indices": "ratio",
    "ansatz.theta_per_window_index": "ratio",
    "spectral.omega_evals": "count",
    "spectral.solves_per_omega": "ratio",
    "spectral.omega_evals_per_eigenvalue": "ratio",
    "spectral.point_latency.p50_s": "s",
    "spectral.point_latency.p75_s": "s",
    "spectral.point_latency.samples": "count",
    "cli.pool.busy_frac": "ratio",
    "trace.spans": "count",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


def metric_units() -> dict[str, str]:
    units = {f"{stage}.{f}": FIELD_UNITS[f]
             for stage, fields in STAGE_FIELDS.items() for f in fields}
    units.update(DERIVED)
    return units


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def layer_metrics(spans: list[Span], wall: float, untraced_wall: float,
                  main_thread: int, eigenvalues: int = 0,
                  threads: int = 1) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced repetition, plus the names that
    are absent (stage never called or missing from the library, or a
    ratio without a base).  Absent metrics read 0."""
    by_id = {s.sid: s for s in spans}
    own = self_times(spans)
    out: dict[str, float] = {}
    absent: list[str] = []
    agg: dict[str, dict[str, float]] = {}
    for s in spans:
        a = agg.setdefault(s.name, {"self_s": 0.0, "calls": 0, "indices": 0,
                                    "max_N": 0})
        a["self_s"] += own[s.sid]
        a["calls"] += 1
        a["indices"] += s.size
        a["max_N"] = max(a["max_N"], s.size)
        a["steps"] = a["indices"]

    # a "solve" is one Volterra window solved by a backward sweep;
    # Richardson extrapolation makes two per volterra.solve call
    solves = [s for s in spans if s.name == "volterra.sweep"
              and _has_ancestor(s, "volterra.solve", by_id)]
    if "volterra.solve" in agg:
        agg["volterra.solve"]["calls"] = len(solves)
        agg["volterra.solve"]["indices"] = sum(s.size for s in solves)

    for stage, fields in STAGE_FIELDS.items():
        a = agg.get(stage)
        for f in fields:
            name = f"{stage}.{f}"
            if a is None or not a["calls"]:
                out[name] = 0.0 if f == "self_s" else 0
                absent.append(name)
            else:
                out[name] = a[f]

    def derived(name: str, value) -> None:
        if value is None:
            out[name] = 0
            absent.append(name)
        else:
            out[name] = value

    kern = [s for s in spans if s.name == "volterra.kernel_build"]
    tail_idx = sum(s.size for s in kern if _has_ancestor(s, "volterra.top_boundary", by_id))
    derived("volterra.tail_to_window_indices",
            _ratio(tail_idx, sum(s.size for s in kern) - tail_idx))
    theta = agg.get("ansatz.theta_window", {}).get("indices", 0)
    derived("ansatz.theta_per_window_index",
            _ratio(theta, sum(s.size for s in kern)))
    omega_evals = agg.get("spectral.omega_real", {}).get("calls", 0)
    derived("spectral.omega_evals", omega_evals if omega_evals else None)
    derived("spectral.solves_per_omega", _ratio(len(solves), omega_evals))
    derived("spectral.omega_evals_per_eigenvalue", _ratio(omega_evals, eigenvalues))

    point = "spectral.omega_real" if omega_evals else "spectral.density"
    lat = sorted(s.dur for s in spans if s.name == point)
    derived("spectral.point_latency.p50_s", statistics.median(lat) if lat else None)
    derived("spectral.point_latency.p75_s",
            statistics.quantiles(lat, n=4)[2] if len(lat) >= 2 else None)
    derived("spectral.point_latency.samples", len(lat) if lat else None)

    busy = None
    for c in (s for s in spans if s.name == "cli.density"):
        inside = sum(s.dur for s in spans if s.name == "spectral.density"
                     and c.start <= s.start and s.end <= c.end)
        busy = _ratio(inside, threads * c.dur)
    derived("cli.pool.busy_frac", busy)

    main_self = sum(own[s.sid] for s in spans if s.thread == main_thread)
    out["trace.spans"] = len(spans)
    out["trace.coverage"] = main_self / wall
    out["trace.overhead_s"] = wall - untraced_wall

    return out, absent
