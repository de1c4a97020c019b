"""Spans around the library's public functions, recorded from outside the library.

``Tracer.install`` replaces each function in ``LAYERS`` on every censor_lab
module attribute that refers to it, so calls made through a from-import
(``profit`` calling ``solve_normal_censor``, ``censor`` calling the
special functions) are seen too.  A span is (name, start, end, parent,
operation id); spans are kept in flat arrays and written out at the end.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import re
import subprocess
import sys
import time
import tracemalloc
from array import array

import numpy as np

LAYERS = {
    "special": ("inv_norm_cdf", "hazard", "norm_cdf", "norm_cdf_complement",
                "log_norm_cdf_complement"),
    "censor": ("solve_normal_censor", "censor_F", "mu_hat"),
    "profit": ("log_expected_profit", "value_of_waiting", "g_bar"),
    "asymptotics": ("g_asymptotic_theta",),
    "timing": ("solve_foc", "g_bar_prime"),
    "statics": ("censor_shape_check", "stationarity_solve"),
    "mc": ("run_verification", "sample_prices", "mc_censored_mean",
           "mc_expected_profit", "brute_force_optimal_u"),
    "cli": ("main",),
}
MODULES = ("errors", "model", "special", "censor", "profit", "asymptotics",
           "mc", "statics", "timing", "cli")
IMPORTED = ("censor_lab", *[f"censor_lab.{m}" for m in MODULES], "scipy.optimize")
# functions whose peak traced allocation is recorded
ALLOC_TRACED = ("mc.sample_prices", "mc.brute_force_optimal_u")
SOLVE = "censor.solve_normal_censor"
SOLVE_PARENTS = ("timing.solve_foc", "statics.censor_shape_check",
                 "statics.stationarity_solve")


def _calls(name):
    return (f"{name}.calls", "1/op")


def _self(name):
    return (f"{name}.self_ms", "ms/op")


PER_LAYER = [
    _calls("special.inv_norm_cdf"), _self("special.inv_norm_cdf"),
    ("special.inv_norm_cdf.ns_per_elem", "ns"),
    *[m for f in ("hazard", "norm_cdf", "norm_cdf_complement", "log_norm_cdf_complement")
      for m in (_calls(f"special.{f}"), _self(f"special.{f}"))],
    _calls(SOLVE), _self(SOLVE),
    _calls("censor.censor_F"), _self("censor.censor_F"),
    ("censor.F_evals_per_solve", "1/solve"), ("censor.iterations_per_solve", "1/solve"),
    _self("censor.mu_hat"),
    _self("profit.log_expected_profit"), _self("profit.value_of_waiting"),
    _calls("profit.g_bar"), _self("profit.g_bar"),
    _calls("asymptotics.g_asymptotic_theta"), _self("asymptotics.g_asymptotic_theta"),
    _self("timing.solve_foc"), ("timing.solve_foc.solves", "1/call"),
    _calls("timing.g_bar_prime"),
    _self("statics.censor_shape_check"), ("statics.censor_shape_check.solves", "1/call"),
    _self("statics.stationarity_solve"), ("statics.stationarity_solve.solves", "1/call"),
    _self("mc.run_verification"),
    _self("mc.sample_prices"), ("mc.sample_prices.ns_per_draw", "ns"),
    ("mc.sample_prices.peak_alloc_mb", "MB"),
    _self("mc.mc_censored_mean"), _self("mc.mc_expected_profit"),
    _self("mc.brute_force_optimal_u"), ("mc.brute_force_optimal_u.peak_alloc_mb", "MB"),
    ("mc.brute_force_optimal_u.bytes_computed", "B/call"),
    _self("cli.main"),
    *[(f"import.{m}.ms", "ms") for m in IMPORTED],
    ("trace.op_p50_ms", "ms"),
]


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.col_name = array("q")
        self.col_start = array("q")
        self.col_end = array("q")
        self.col_parent = array("q")
        self.col_op = array("q")
        self.stack = [-1]
        self.op_id = 0
        self.iterations = 0
        self.inv_array = []       # (span, elements) of array calls to inv_norm_cdf
        self.draws = []           # (span, n) of sample_prices calls
        self.alloc = {k: [] for k in ALLOC_TRACED}
        self.grid_bytes = []
        self._patched = []

    def __len__(self):
        return len(self.col_start)

    def wrap(self, name, fn):
        ix = len(self.names)
        self.names.append(name)
        c_name, c_start, c_end = self.col_name, self.col_start, self.col_end
        c_parent, c_op, stack = self.col_parent, self.col_op, self.stack
        clock = time.perf_counter_ns
        observe = self._observer(name, fn)
        alloc = self.alloc.get(name)

        def traced(*args, **kwargs):
            i = len(c_start)
            c_name.append(ix)
            c_parent.append(stack[-1])
            c_op.append(self.op_id)
            c_end.append(0)
            stack.append(i)
            if alloc is not None:
                tracemalloc.start()
            c_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                c_end[i] = clock()
                stack.pop()
                if alloc is not None:
                    alloc.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if observe is not None:
                observe(i, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observer(self, name, fn):
        if name == SOLVE:
            def observe(i, args, kwargs, result):
                self.iterations += result.iterations
        elif name == "special.inv_norm_cdf":
            def observe(i, args, kwargs, result):
                if isinstance(result, np.ndarray):
                    self.inv_array.append((i, result.size))
        elif name == "mc.sample_prices":
            def observe(i, args, kwargs, result):
                self.draws.append((i, result.n))
        elif name == "mc.brute_force_optimal_u":
            sig = inspect.signature(fn)

            def observe(i, args, kwargs, result):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                # one float64 array over the (u_points + 1) x quad_points grid
                self.grid_bytes.append(8 * (a["u_points"] + 1) * a["quad_points"])
        else:
            observe = None
        return observe

    def install(self):
        mods = [importlib.import_module("censor_lab")]
        mods += [importlib.import_module(f"censor_lab.{m}") for m in MODULES]
        for layer, funcs in LAYERS.items():
            home = importlib.import_module(f"censor_lab.{layer}")
            for f in funcs:
                orig = getattr(home, f)
                wrapper = self.wrap(f"{layer}.{f}", orig)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def columns(self):
        def col(a):
            return np.frombuffer(a, dtype=np.int64).copy() if len(a) else np.zeros(0, np.int64)
        return (col(self.col_name), col(self.col_start), col(self.col_end),
                col(self.col_parent), col(self.col_op))

    def save(self, path):
        name, start, end, parent, op = self.columns()
        np.savez_compressed(path, names=np.array(self.names), name=name, start=start,
                            end=end, parent=parent, op=op)

    def metrics(self, ops):
        """Per-layer numbers over `ops` traced operations."""
        name, start, end, parent, _ = self.columns()
        n = len(name)
        dur = (end - start).astype(float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_ns = np.bincount(name, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        ix = {k: i for i, k in enumerate(self.names)}
        out = {}
        for layer, funcs in LAYERS.items():
            for f in funcs:
                key = f"{layer}.{f}"
                out[f"{key}.calls"] = calls[ix[key]] / ops
                out[f"{key}.self_ms"] = self_ns[ix[key]] / 1e6 / ops
        solves = calls[ix[SOLVE]]
        out["censor.F_evals_per_solve"] = _ratio(calls[ix["censor.censor_F"]], solves)
        out["censor.iterations_per_solve"] = _ratio(self.iterations, solves)
        is_solve = name == ix[SOLVE]
        for key in SOLVE_PARENTS:
            under = _under(name, parent, ix[key])
            out[f"{key}.solves"] = _ratio(int(np.count_nonzero(under & is_solve)),
                                          calls[ix[key]])
        out["special.inv_norm_cdf.ns_per_elem"] = _per(self.inv_array, dur)
        out["mc.sample_prices.ns_per_draw"] = _per(self.draws, dur)
        for key, peaks in self.alloc.items():
            out[f"{key}.peak_alloc_mb"] = _ratio(sum(peaks), len(peaks)) / 2**20
        out["mc.brute_force_optimal_u.bytes_computed"] = _ratio(sum(self.grid_bytes),
                                                                len(self.grid_bytes))
        return out


def _ratio(a, b):
    return float(a) / float(b) if b else 0.0


def _per(pairs, dur):
    spans = [i for i, _ in pairs]
    return _ratio(dur[spans].sum(), sum(k for _, k in pairs))


def _under(name, parent, target):
    """Spans that have a span named `target` among their ancestors."""
    hit = np.zeros(len(name), dtype=bool)
    up = parent.copy()
    live = up >= 0
    while live.any():
        idx = np.nonzero(live)[0]
        hit[idx] |= name[up[idx]] == target
        up[idx] = parent[up[idx]]
        live = up >= 0
    return hit


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S.*)$")


def import_times(src, root):
    """Cumulative import time in ms per module, from -X importtime in a fresh interpreter."""
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import censor_lab, censor_lab.cli"
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=root,
                          capture_output=True, text=True, timeout=120, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            cumulative[m.group(3).strip()] = int(m.group(2)) / 1e3
    return {f"import.{m}.ms": cumulative.get(m, 0.0) for m in IMPORTED}
