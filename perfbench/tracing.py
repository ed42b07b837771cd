"""Spans around the public functions of each `src/halfcos` module.

The tracer wraps functions from outside the library: it replaces every
binding of a wrapped function in every loaded `halfcos` module namespace,
so calls through names imported by other modules (`suite` binds
`cw_analyze`, `besov` and `approx` bind `hpc_synthesize_dense`) are seen
too. Spans stay in memory as (name, parent, item, start, end, attrs) and are
written as JSON at the end. A layer's self time is its span's duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time

import numpy as np

# ---------------------------------------------------------------- hooks
# Each hook maps (bound arguments, result) to the span's counters.


def _max_key(entries) -> int:
    return max((max(abs(int(t)) for t in k) for k in entries), default=0)


def _margin(m: int, kmax: int) -> float:
    """Aliasing margin 2^m / (4 kmax) of a grid of level m for frequencies
    up to kmax; the library's dense transforms require at least 1."""
    return 2.0**m / (4.0 * max(kmax, 1))


def _dense_analyze(a, out):
    grid = a.get("f", a.get("g"))
    return {"points": int(grid.values.size), "bytes": int(grid.values.nbytes + out.nbytes)}


def _top_frequency(coeff) -> int:
    """Largest index, along any axis, of a nonzero coefficient."""
    mask = np.asarray(coeff) != 0
    top = 0
    for ax in range(mask.ndim):
        others = tuple(i for i in range(mask.ndim) if i != ax)
        idx = np.flatnonzero(mask.any(axis=others) if others else mask)
        if idx.size:
            top = max(top, int(idx[-1]))
    return top


def _dense_synth(a, out):
    coeff = a["coeff"]
    attrs = {"points": int(out.values.size), "bytes": int(coeff.nbytes + out.values.nbytes)}
    if out.domain == "unit":
        attrs["margin"] = _margin(a["m"], _top_frequency(coeff))
    return attrs


def _synth(a, out):
    coeffs = a["coeffs"]
    return {
        "terms": len(coeffs.entries) * int(out.values.size),
        "margin": _margin(a["m"], _max_key(coeffs.entries)),
    }


def _cw_1d(a, out):
    return {"table": len(out)}


def _cw(a, out):
    return {"kept": len(out.entries)}


def _hpc_norm(a, out):
    return {"live": len(out.level_terms), "attempted": (out.J_max + 1) ** a["f_coeffs"].d}


def _diff(a, out):
    return {"levels": len(out.level_terms)}


def _hpc_map(a, out):
    return {"entries": len(out.entries), "box": (a["kmax"] + 1) ** a["self"].d}


def _exact_proj(a, out):
    return {"terms": (a["kmax"] + 1) ** a["member"].d}


def _project(a, out):
    return {"margin": _margin(a["f"].m, a["N"] - 1)}


def _ls(a, out):
    info = out[1]
    return {
        "cells": len(a["points"]) * len(a["K"].members),
        "condition": info["condition"],
        "rank": info["rank"],
    }


def _cross(a, out):
    return {"members": len(out.members)}


def _nodes(a, out):
    return {"nodes": out.n}


def _integrate(a, out):
    return {"points": a["rule"].n}


# (module, function, hook). Every function here is reached by at least one
# workload; EXPECTED says which.
WRAPPED = [
    ("grids", "hpc_analyze_dense", _dense_analyze),
    ("grids", "hpc_synthesize_dense", _dense_synth),
    ("grids", "fourier_analyze_dense", _dense_analyze),
    ("grids", "fourier_synthesize_dense", _dense_synth),
    ("grids", "hpc_synthesize", _synth),
    ("grids", "cos_basis", None),
    ("grids", "exp_basis", None),
    ("wavelets", "cw_analyze_1d", _cw_1d),
    ("wavelets", "dual_piecewise", None),
    ("wavelets", "cw_analyze", _cw),
    ("besov", "hpc_besov_norm", _hpc_norm),
    ("besov", "difference_seminorm", _diff),
    ("besov", "seq_norm_report", None),
    ("besov", "periodization_block_identity", None),
    ("corpus", "TestFunction.hpc_map", _hpc_map),
    ("corpus", "TestFunction.hpc_map_numeric", None),
    ("corpus", "get_member", None),
    ("approx", "exact_projection_error", _exact_proj),
    ("approx", "projection_error_rate", None),
    ("approx", "project_dense", _project),
    ("approx", "ls_recover", _ls),
    ("approx", "ls_error_experiment", None),
    ("approx", "error_transfer_check", None),
    ("indexsets", "hyperbolic_cross", _cross),
    ("cubature", "rank1_lattice", _nodes),
    ("cubature", "fibonacci_rule", _nodes),
    ("cubature", "digital_net", _nodes),
    ("cubature", "tent_transform_rule", _nodes),
    ("cubature", "random_shift", _nodes),
    ("cubature", "integrate", _integrate),
    ("cubature", "convergence_experiment", None),
    ("suite", "identity_suite", None),
    ("suite", "norm_comparison", None),
    ("cli", "main", None),
]

# Wrapped functions each workload must call; a traced run that misses one
# fails, so a binding the tracer did not patch cannot go unnoticed.
EXPECTED = {
    "norms": [
        "norm_comparison", "hpc_besov_norm", "difference_seminorm",
        "seq_norm_report", "cw_analyze", "cw_analyze_1d", "dual_piecewise",
        "TestFunction.hpc_map", "TestFunction.hpc_map_numeric",
        "hpc_analyze_dense", "hpc_synthesize_dense",
    ],
    "identities": [
        "identity_suite", "hpc_synthesize", "hpc_synthesize_dense",
        "hpc_analyze_dense", "fourier_analyze_dense", "fourier_synthesize_dense",
        "cos_basis", "exp_basis", "periodization_block_identity",
        "error_transfer_check", "project_dense", "integrate",
        "tent_transform_rule", "digital_net", "fibonacci_rule", "rank1_lattice",
    ],
    "rates": [
        "projection_error_rate", "exact_projection_error", "hyperbolic_cross",
        "ls_error_experiment", "ls_recover", "project_dense", "hpc_synthesize",
        "hpc_analyze_dense", "convergence_experiment", "fibonacci_rule",
        "rank1_lattice", "digital_net", "random_shift", "tent_transform_rule",
        "integrate",
    ],
    "cli-readme": [
        "main", "get_member", "identity_suite", "norm_comparison",
        "convergence_experiment", "projection_error_rate", "ls_error_experiment",
        "hpc_analyze_dense",
    ],
}

NODE_GENERATORS = {"rank1_lattice", "fibonacci_rule", "digital_net",
                   "tent_transform_rule", "random_shift"}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, parent, item, start, end, attrs)
        self.stack = []
        self.item = None
        self.patched = {}

    def begin_item(self, key: str):
        self.item = key

    def add_span(self, name, start, end):
        self.spans.append((name, -1, self.item, start, end, None))

    def _wrap(self, name, fn, hook):
        sig = inspect.signature(fn) if hook else None
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, parent, self.item, t0, t1, None)
            if hook is not None:
                attrs = hook(sig.bind(*args, **kwargs).arguments, result)
                spans[sid] = (name, parent, self.item, t0, t1, attrs)
            return result

        return wrapper

    def install(self):
        """Wrap every function of WRAPPED in every halfcos namespace that
        binds it, and record the bindings replaced in self.patched."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "halfcos" or n.startswith("halfcos."))]
        for modname, qualname, hook in WRAPPED:
            module = sys.modules.get(f"halfcos.{modname}")
            if module is None:
                continue
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(qualname, orig, hook))
                self.patched[qualname] = [f"{modname}.{qualname}"]
                continue
            orig = getattr(module, qualname)
            wrapper = self._wrap(qualname, orig, hook)
            sites = []
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        sites.append(f"{mod.__name__}.{attr}")
            self.patched[qualname] = sites

    def span_dicts(self):
        return [
            {"id": i, "parent": p, "item": item, "name": n, "start": s, "end": e,
             "attrs": a or {}}
            for i, (n, p, item, s, e, a) in enumerate(self.spans)
        ]

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(jsonable({"spans": self.span_dicts()}), fh)

    def merge(self, span_dicts, item):
        """Append spans recorded by a child process under this item."""
        offset = len(self.spans)
        for sp in span_dicts:
            parent = sp["parent"] + offset if sp["parent"] >= 0 else -1
            self.spans.append(
                (sp["name"], parent, item, sp["start"], sp["end"], sp["attrs"] or None)
            )


def jsonable(obj):
    """Non-finite floats as strings, so the file is standard JSON."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


# ---------------------------------------------------------------- metrics
# (metric, unit, functions, statistic). Statistics: "self" sums
# self time, "dur" sums duration, "calls" counts spans, any other name sums
# that counter.
LAYER_METRICS = [
    ("grids.dct_calls", "count", ["hpc_analyze_dense", "hpc_synthesize_dense"], "calls"),
    ("grids.dct_points", "count", ["hpc_analyze_dense", "hpc_synthesize_dense"], "points"),
    ("grids.dct_s", "s", ["hpc_analyze_dense", "hpc_synthesize_dense"], "self"),
    ("grids.fft_calls", "count", ["fourier_analyze_dense", "fourier_synthesize_dense"], "calls"),
    ("grids.fft_points", "count", ["fourier_analyze_dense", "fourier_synthesize_dense"], "points"),
    ("grids.fft_s", "s", ["fourier_analyze_dense", "fourier_synthesize_dense"], "self"),
    ("grids.synth_terms", "count", ["hpc_synthesize"], "terms"),
    ("grids.synth_s", "s", ["hpc_synthesize"], "self"),
    ("grids.basis_s", "s", ["cos_basis", "exp_basis"], "self"),
    ("grids.bytes_computed", "bytes",
     ["hpc_analyze_dense", "hpc_synthesize_dense", "fourier_analyze_dense",
      "fourier_synthesize_dense"], "bytes"),
    ("wavelets.analyze_calls", "count", ["cw_analyze_1d"], "calls"),
    ("wavelets.analyze_s", "s", ["cw_analyze_1d"], "self"),
    ("wavelets.dual_builds", "count", ["dual_piecewise"], "calls"),
    ("wavelets.dual_s", "s", ["dual_piecewise"], "self"),
    ("wavelets.tensor_s", "s", ["cw_analyze"], "self"),
    ("wavelets.coeffs_kept", "count", ["cw_analyze"], "kept"),
    ("besov.hpc_norm_s", "s", ["hpc_besov_norm"], "self"),
    ("besov.blocks_live", "count", ["hpc_besov_norm"], "live"),
    ("besov.diff_s", "s", ["difference_seminorm"], "self"),
    ("besov.diff_levels", "count", ["difference_seminorm"], "levels"),
    ("besov.seq_norm_s", "s", ["seq_norm_report"], "self"),
    ("besov.block_identity_s", "s", ["periodization_block_identity"], "self"),
    ("corpus.hpc_map_s", "s", ["TestFunction.hpc_map"], "self"),
    ("corpus.hpc_map_entries", "count", ["TestFunction.hpc_map"], "entries"),
    ("corpus.hpc_map_numeric_s", "s", ["TestFunction.hpc_map_numeric"], "self"),
    ("corpus.get_member_s", "s", ["get_member"], "self"),
    ("approx.exact_proj_s", "s", ["exact_projection_error"], "self"),
    ("approx.exact_proj_terms", "count", ["exact_projection_error"], "terms"),
    ("approx.project_s", "s", ["project_dense"], "self"),
    ("approx.ls_s", "s", ["ls_recover"], "self"),
    ("approx.design_cells", "count", ["ls_recover"], "cells"),
    ("approx.transfer_s", "s", ["error_transfer_check"], "self"),
    ("approx.experiment_self_s", "s",
     ["projection_error_rate", "ls_error_experiment"], "self"),
    ("indexsets.cross_calls", "count", ["hyperbolic_cross"], "calls"),
    ("indexsets.cross_members", "count", ["hyperbolic_cross"], "members"),
    ("indexsets.cross_s", "s", ["hyperbolic_cross"], "self"),
    ("cubature.nodes", "count", sorted(NODE_GENERATORS), "nodes"),
    ("cubature.nodes_s", "s", sorted(NODE_GENERATORS), "self"),
    ("cubature.integrate_points", "count", ["integrate"], "points"),
    ("cubature.integrate_s", "s", ["integrate"], "self"),
    ("cubature.experiment_self_s", "s", ["convergence_experiment"], "self"),
    ("suite.identity_self_s", "s", ["identity_suite"], "self"),
    ("suite.norm_self_s", "s", ["norm_comparison"], "self"),
    ("cli.import_s", "s", ["cli.import"], "dur"),
    ("cli.main_self_s", "s", ["main"], "self"),
    ("cli.commands", "count", ["main"], "calls"),
]

# Ratios of useful outcomes to attempts: (metric, numerator, denominator).
RATIO_METRICS = [
    ("wavelets.kept_ratio", ("cw_analyze", "kept"), ("cw_analyze", "tables")),
    ("besov.block_live_ratio", ("hpc_besov_norm", "live"), ("hpc_besov_norm", "attempted")),
    ("corpus.hpc_map_nonzero_ratio", ("TestFunction.hpc_map", "entries"),
     ("TestFunction.hpc_map", "box")),
]

def analyse(spans):
    """Per-function totals: calls, self time, duration and counters; the
    wavelet attempt count is the product of a call's 1-D table sizes."""
    child_dur = [0.0] * len(spans)
    tables = {}
    for name, parent, _, s, e, attrs in spans:
        if parent >= 0:
            child_dur[parent] += e - s
            if name == "cw_analyze_1d":
                tables[parent] = tables.get(parent, 1) * attrs["table"]
    totals = {}
    for i, (name, parent, _, s, e, attrs) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "self": 0.0, "dur": 0.0})
        t["calls"] += 1
        t["dur"] += e - s
        t["self"] += (e - s) - child_dur[i]
        for key, val in (attrs or {}).items():
            if key == "nodes" and parent >= 0 and spans[parent][0] in NODE_GENERATORS:
                continue  # a generator built from another: count nodes once
            if isinstance(val, (int, float)) and key not in ("margin", "condition", "rank"):
                t[key] = t.get(key, 0) + val
        if name == "cw_analyze" and i in tables:
            t["tables"] = t.get("tables", 0) + tables[i]
    return totals


def layer_metrics(spans, item_walls: dict) -> dict:
    """Per-layer metric values of one traced pass. item_walls maps each
    item to its measured (unscaled) traced wall time; coverage is the share
    of it inside top-level library spans."""
    totals = analyse(spans)
    out = {}
    for name, unit, funcs, stat in LAYER_METRICS:
        val = sum(totals.get(f, {}).get(stat, 0) for f in funcs)
        out[name] = (val, unit)
    for name, (fn, num), (fd, den) in RATIO_METRICS:
        n = totals.get(fn, {}).get(num, 0)
        d = totals.get(fd, {}).get(den, 0)
        out[name] = (n / d if d else 0.0, "ratio")
    top = sum(e - s for _, p, _, s, e, _ in spans if p < 0)
    wall = sum(item_walls.values())
    out["trace.coverage"] = (top / wall if wall else 0.0, "ratio")
    return out


def item_health(spans) -> dict:
    """Health values the spans carry, per item: the smallest aliasing
    margin, and the condition number and rank of each LS design."""
    health = {}
    for name, _, item, _, _, attrs in spans:
        if not attrs:
            continue
        h = health.setdefault(item, {})
        if "margin" in attrs:
            h["aliasing_margin"] = min(h.get("aliasing_margin", math.inf), attrs["margin"])
        if name == "ls_recover":
            h.setdefault("ls", []).append(
                {"condition": attrs["condition"], "rank": attrs["rank"]}
            )
    return health


def missing_calls(spans, workload: str) -> list:
    seen = {sp[0] for sp in spans}
    return [f for f in EXPECTED[workload] if f not in seen]
