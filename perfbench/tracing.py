"""Outside-in layer tracing for thermoform.

`install` replaces each traced public function at every module binding that
holds it: `cli` imports `solve_pressure` and others by name, `renewal` calls
`certified_G` through its module global, and the package namespace re-exports
most of them.  Spans stay in memory (name, parent span, job, start, end,
counts) until `dump` writes them out; `aggregate` turns them into the
per-layer metrics that BENCHMARK.json lists, and `MOVES` says which
end-to-end metric, on which workload, each layer is expected to move.

A layer's self time is its span's duration minus the time covered by its
direct child spans.  Everything runs on one thread (the benchmark leaves
THERMOFORM_THREADS unset), so child spans nest inside their parent.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import os
import sys
import time

import numpy as np

NAME, PARENT, JOB, START, END, COUNTS = range(6)


class Tracer:
    """In-memory span recorder; `paused` lets the benchmark's own oracle
    checks call the engine without adding spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = -1
        self.paused = False
        self._stack: list[int] = []

    def wrap(self, name, fn, hook=None, pre=None):
        """Return fn wrapped in a span; hook(args, kwargs, result, state)
        gives the span's counts, with state = pre() taken before the call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            state = pre() if pre is not None else None
            span = [name, stack[-1] if stack else -1, self.job, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                span[COUNTS] = hook(args, kwargs, result, state)
            return result

        return traced

    def dump(self, path: str) -> None:
        """Write the spans as gzipped JSON."""
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [[index[s[NAME]], s[PARENT], s[JOB], round(s[START] - t0, 9),
                 round(s[END] - s[START], 9), s[COUNTS]] for s in self.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "parent", "job", "start_s", "dur_s", "counts"],
                       "names": names, "spans": rows}, fh, separators=(",", ":"))


def _param(fn, name: str):
    """(position, default) of a parameter, so hooks read arguments cheaply."""
    params = list(inspect.signature(fn).parameters.values())
    for pos, p in enumerate(params):
        if p.name == name:
            default = None if p.default is inspect.Parameter.empty else p.default
            positional = p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
            return (pos if positional else None), default
    return None, None


def _getter(fn, name: str):
    pos, default = _param(fn, name)

    def get(args, kwargs):
        if pos is not None and len(args) > pos:
            return args[pos]
        return kwargs.get(name, default)

    return get


def _size(n) -> int:
    return int(np.size(n))


def _hooks(fn, qualname: str):
    """Count extractors for the spans that carry counts."""
    if qualname == "renewal.certified_series":
        get_tol, get_cap, get_sw = (_getter(fn, "tol"), _getter(fn, "cap"),
                                    _getter(fn, "s_weight"))

        def hook(args, kwargs, res, _):
            lo, hi = res.lower, res.upper
            finite = not math.isinf(hi)
            cap = get_cap(args, kwargs)
            tol = get_tol(args, kwargs)
            return {"s_weight": int(bool(get_sw(args, kwargs))),
                    "cap_hit": int(finite and cap is not None and res.n_terms >= cap),
                    "tol_miss": int(finite and tol is not None
                                    and hi - lo > tol * (1.0 + min(abs(lo), abs(hi))))}
        return hook, None
    if qualname == "renewal.certified_G":
        get_tol = _getter(fn, "tol")
        return (lambda a, k, r, s: {"tol": float(get_tol(a, k))}), None
    if qualname == "renewal.solve_pressure":
        get_tol = _getter(fn, "sum_tol")
        return (lambda a, k, r, s: {"sum_tol": float(get_tol(a, k)),
                                    "iterations": int(getattr(r, "iterations", 0))}), None
    if qualname in ("renewal.RenewalModel.s_values", "sequences.s_values"):
        get_n = _getter(fn, "n")
        return (lambda a, k, r, s: {"values": _size(get_n(a, k))}), None
    if qualname == "intervalmaps.mp_induced_model":
        get_levels = _getter(fn, "n_levels")
        return (lambda a, k, r, s: {"levels": int(get_levels(a, k))}), None
    if qualname == "intervalmaps.periodic_points":
        get_n = _getter(fn, "n")
        misses = (lambda: fn.cache_info().misses) if hasattr(fn, "cache_info") else (lambda: -1)

        def hook(args, kwargs, res, before):
            hit = before >= 0 and misses() == before
            if hit:
                return {"hit": 1, "itineraries": 0, "skipped": 0}
            return {"hit": 0, "itineraries": 1 << int(get_n(args, kwargs)),
                    "skipped": int(res.skipped)}
        return hook, misses
    if qualname == "transfer.build_transfer_matrix":
        return (lambda a, k, r, s: {"states": int(r.size)}), None
    if qualname == "transfer.solve_rpf":
        return (lambda a, k, r, s: {"iterations": int(r.iterations)}), None
    if qualname == "cli.write_files":
        get_path = _getter(fn, "path")
        return (lambda a, k, r, s: {"bytes": os.path.getsize(get_path(a, k))}), None
    return None, None


# Which end-to-end metric, on which workload, a change to a layer should
# move: the prediction a change that claims a layer speedup is checked against.
# Keyed by layer; each layer's metrics (.calls, .self_s, counts) share it.
_SERIES = "wall_s/job_p90_s on renewal-curve and mp-first-return; no change on periodic-orbits"
_ROOT = "wall_s on renewal-curve, job_p50_s on renewal-pointwise"
_CURVE = "wall_s on renewal-curve"
_ORBITS = "wall_s and peak_rss_mb on periodic-orbits"
_FINITE = "wall_s on periodic-orbits"
_CLI = "setup_s on every workload, job_p50_s on renewal-pointwise"
MOVES = {
    "series.tail_power_exp": "wall_s on renewal-curve and mp-first-return",
    "series.tail_log_power_exp": "wall_s on renewal-curve and mp-first-return",
    "series.upper_gamma": "wall_s on renewal-curve and mp-first-return",
    "renewal.certified_series": _SERIES,
    "renewal.RenewalModel.s_values": "wall_s on renewal-curve and mp-first-return",
    "renewal.solve_pressure": _ROOT,
    "renewal.locate_flat_interval": _CURVE,
    "renewal.pressure_derivative": _CURVE,
    "renewal.smoothness_at_transition": _CURVE,
    "renewal.cyr_sarig_witness": _CURVE,
    "renewal.classify": _CURVE,
    "renewal.pressure_curve": _CURVE,
    "sequences.s_values": _ROOT,
    "sequences.from_spec": _ROOT,
    "intervalmaps.mp_induced_model": "wall_s/job_p50_s on mp-first-return; no change elsewhere",
    "intervalmaps.periodic_points": _ORBITS,
    "intervalmaps.zn_sum": _ORBITS,
    "intervalmaps.gurevich_estimate": _ORBITS,
    "transfer.build_transfer_matrix": _FINITE,
    "transfer.solve_rpf": _FINITE,
    "transfer.decompose_components": _FINITE,
    "shifts.is_topologically_mixing": _FINITE,
    "cli.validate_config": _CLI,
    "cli.write_files": _CLI,
    "cli.run_config": _CLI,
    "trace": "none: traced wall_s minus untraced wall_s",
}

# (module, attribute, span name); a class attribute is written "Class.method".
TARGETS = [
    ("series", "upper_gamma", "series.upper_gamma"),
    ("series", "tail_power_exp", "series.tail_power_exp"),
    ("series", "tail_log_power_exp", "series.tail_log_power_exp"),
    ("renewal", "RenewalModel.s_values", "renewal.RenewalModel.s_values"),
    ("renewal", "_validate_envelope", "renewal._validate_envelope"),
    ("renewal", "certified_series", "renewal.certified_series"),
    ("renewal", "certified_G", "renewal.certified_G"),
    ("renewal", "solve_pressure", "renewal.solve_pressure"),
    ("renewal", "classify", "renewal.classify"),
    ("renewal", "pressure_derivative", "renewal.pressure_derivative"),
    ("renewal", "locate_flat_interval", "renewal.locate_flat_interval"),
    ("renewal", "smoothness_at_transition", "renewal.smoothness_at_transition"),
    ("renewal", "conformal_atom_masses", "renewal.conformal_atom_masses"),
    ("renewal", "cyr_sarig_witness", "renewal.cyr_sarig_witness"),
    ("renewal", "pressure_curve", "renewal.pressure_curve"),
    ("renewal", "finite_truncation", "renewal.finite_truncation"),
    ("sequences", "RealizedSequence.s_values", "sequences.s_values"),
    ("sequences", "normalize", "sequences.normalize"),
    ("sequences", "from_spec", "sequences.from_spec"),
    ("intervalmaps", "mp_induced_model", "intervalmaps.mp_induced_model"),
    ("intervalmaps", "periodic_points", "intervalmaps.periodic_points"),
    ("intervalmaps", "zn_sum", "intervalmaps.zn_sum"),
    ("intervalmaps", "gurevich_estimate", "intervalmaps.gurevich_estimate"),
    ("transfer", "build_transfer_matrix", "transfer.build_transfer_matrix"),
    ("transfer", "solve_rpf", "transfer.solve_rpf"),
    ("transfer", "decompose_components", "transfer.decompose_components"),
    ("shifts", "is_topologically_mixing", "shifts.is_topologically_mixing"),
    ("cli", "validate_config", "cli.validate_config"),
    ("cli", "write_csv", "cli.write_files"),
    ("cli", "write_json", "cli.write_files"),
    ("cli", "run_config", "cli.run_config"),
]


def install(tracer: Tracer) -> list[str]:
    """Wrap every target at every thermoform binding; returns targets not found."""
    import importlib

    package = importlib.import_module("thermoform")
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "thermoform" or k.startswith("thermoform."))]
    missing = []
    for mod_name, attr, name in TARGETS:
        module = importlib.import_module(f"{package.__name__}.{mod_name}")
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        orig = getattr(owner, member, None) if owner is not None else None
        if orig is None:
            missing.append(f"{mod_name}.{attr}")
            continue
        hook, pre = _hooks(orig, name)
        wrapped = tracer.wrap(name, orig, hook, pre)
        if owner_name:
            setattr(owner, member, wrapped)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
    return missing


def _durations(spans):
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    return dur, [d - c for d, c in zip(dur, child)]


def aggregate(spans) -> dict:
    """Per-layer metrics of one traced pass, keyed like BENCHMARK.json's per_layer."""
    dur, self_t = _durations(spans)
    calls: dict = {}
    incl: dict = {}
    own: dict = {}
    sums: dict = {}
    for i, s in enumerate(spans):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur[i]
        own[name] = own.get(name, 0.0) + self_t[i]
        for key, val in (s[COUNTS] or {}).items():
            sums[(name, key)] = sums.get((name, key), 0) + val

    def parent_name(s):
        return spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None

    # a span whose call raised has no counts
    explicit = g_evals = retries = floor_tests = 0
    for s in spans:
        name, up = s[NAME], parent_name(s)
        if name == "renewal.RenewalModel.s_values" and up == "renewal.certified_series":
            explicit += (s[COUNTS] or {}).get("values", 0)
        elif name == "renewal.certified_G" and up == "renewal.solve_pressure":
            g_evals += 1
            tol = (s[COUNTS] or {}).get("tol", math.inf)
            if tol < (spans[s[PARENT]][COUNTS] or {}).get("sum_tol", -math.inf):
                retries += 1
        elif name == "renewal.certified_G" and up == "renewal.locate_flat_interval":
            floor_tests += 1

    roots = calls.get("renewal.solve_pressure", 0)
    pp_calls = calls.get("intervalmaps.periodic_points", 0)
    out = {
        "renewal.certified_series.explicit_terms": explicit,
        "renewal.certified_series.cap_hits": sums.get(("renewal.certified_series", "cap_hit"), 0),
        "renewal.certified_series.tol_misses": sums.get(("renewal.certified_series", "tol_miss"), 0),
        "renewal.certified_series.s_weight_calls": sums.get(("renewal.certified_series", "s_weight"), 0),
        "renewal.solve_pressure.g_evals_per_root": g_evals / roots if roots else 0.0,
        "renewal.solve_pressure.retries": retries,
        "renewal.solve_pressure.bisect_iters": sums.get(("renewal.solve_pressure", "iterations"), 0),
        "renewal.locate_flat_interval.floor_tests": floor_tests,
        "sequences.s_values.values": sums.get(("sequences.s_values", "values"), 0),
        "intervalmaps.mp_induced_model.levels": sums.get(("intervalmaps.mp_induced_model", "levels"), 0),
        "intervalmaps.periodic_points.itineraries": sums.get(("intervalmaps.periodic_points", "itineraries"), 0),
        "intervalmaps.periodic_points.skipped": sums.get(("intervalmaps.periodic_points", "skipped"), 0),
        "intervalmaps.periodic_points.cache_hit_ratio":
            sums.get(("intervalmaps.periodic_points", "hit"), 0) / pp_calls if pp_calls else 0.0,
        "transfer.build_transfer_matrix.states": sums.get(("transfer.build_transfer_matrix", "states"), 0),
        "transfer.solve_rpf.iterations": sums.get(("transfer.solve_rpf", "iterations"), 0),
        "cli.write_files.bytes": sums.get(("cli.write_files", "bytes"), 0),
    }
    for name in set(calls):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.incl_s"] = incl[name]
        out[f"{name}.self_s"] = own[name]
    return out


def dominant_layers(metrics: dict, top: int = 5) -> list:
    """Layers ranked by self time: the reader's answer to 'what dominates'."""
    rows = [(k[:-len(".self_s")], v) for k, v in metrics.items() if k.endswith(".self_s")]
    return sorted(rows, key=lambda kv: -kv[1])[:top]
