"""Seeded job lists, closed-form oracles and verdict digests per workload.

A run is a sequence of rounds.  Round 0 runs the workload's anchors: the
canonical demos, each an anchor in exactly one workload.  Round r >= 1 of
workload w under seed s draws its job parameters from
`random.Random(f"{w}:{s}:{r}")`, so the same seed gives the same jobs and no
two jobs of a run share exact inputs.  Every seeded round has the same
strata (job shapes with parameters jittered inside narrow ranges), which
keeps the work per round nearly constant.

Jobs go through the public API: `cli.run_config` (which validates the config
and writes the data files, as `thermoform run` does), `demos.run_demo` for
the two suite demos, and package functions for models the config schema
cannot express (geometric closed-form models, finite truncations).

Each job kind has three functions: `run` (timed), `check` (untimed oracles
and invariants; returns a list of problems) and `verdict` (the fields that go
into the result digest: every verdict exactly, every number rounded at a
quantum well above the width of its reported enclosure).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random

import numpy as np

import thermoform as tf
from thermoform import cli, demos
from thermoform import sequences as sq

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)

TRANSIENT = "transient"
RECURRENT = ("positive-recurrent", "null-recurrent")


# ---------------------------------------------------------------- helpers

def _u(rng: random.Random, lo: float, hi: float, nd: int = 6) -> float:
    return round(rng.uniform(lo, hi), nd)


def _grid(t_min: float, t_max: float, steps: int) -> list[float]:
    # the same arithmetic as cli._grid, so a grid point can be passed back in
    return [float(x) for x in np.linspace(t_min, t_max, steps)]


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def q(x, width: float | None = None, sig: int = 9) -> str | None:
    """Canonical text of a number for the digest.

    With an enclosure width the quantum is the power of ten at or above
    1000 * width, so any value inside the reported enclosure rounds the same
    way unless it sits within width of a rounding edge.  Numbers without an
    enclosure (estimates) keep `sig` significant digits.
    """
    if x is None:
        return None
    x = float(x)
    if not math.isfinite(x):
        return repr(x)
    if width is not None and math.isfinite(width):
        scale = max(1000.0 * abs(width), 1e-12 * max(1.0, abs(x)))
        e = math.ceil(math.log10(scale))
        return f"{round(x / 10.0 ** e)}e{e}"
    return format(x, f".{sig}g")


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _job(kind: str, label: str, params: dict, anchor: str | None = None) -> dict:
    return {"kind": kind, "label": label, "params": params, "anchor": anchor}


# ---------------------------------------------------------------- renewal-curve
# Why: a grid-family curve solves a certified root per grid point (dozens of
# certified-G evaluations each), classifies, differentiates through the
# s-weighted series (which run to the series cap at floor points), locates
# the flat interval and runs a witness.  This is where ROADMAP items 2 and 3
# act.  Exercises series, renewal, sequences (s_values, normalize) and the
# CLI writers; does not touch intervalmaps, transfer or shifts.

def _curve_config(rng, gamma_range, delta_range) -> dict:
    gamma = _u(rng, *gamma_range)
    renewal = {"family": "grid", "gamma": gamma}
    if delta_range is not None:
        renewal["delta"] = _u(rng, *delta_range)
    t_min, t_max, steps = _u(rng, 0.24, 0.26), _u(rng, 4.2, 4.3), 16
    task = {"pressure_curve": {"t_min": t_min, "t_max": t_max, "steps": steps},
            "transitions": {"bracket": [t_min, t_max]},
            "witness": {"t": _grid(t_min, t_max, steps)[rng.randrange(steps)]}}
    return {"model": "renewal", "renewal": renewal, "task": task}


def renewal_curve(rng: random.Random) -> list[dict]:
    # five strata, so the median job falls inside one of them; narrow ranges
    # keep the cost of each stratum steady from seed to seed
    strata = [
        ("df-mid", (2.9, 3.1), None),
        ("dfu-mid", (2.9, 3.1), (0.18, 0.22)),
        ("df-c1", (1.6, 1.7), None),
        ("dfu-low", (2.3, 2.4), (0.26, 0.28)),
        ("dfu-high", (3.6, 3.8), (0.2, 0.24)),
    ]
    return [_job("curve", label, {"config": _curve_config(rng, gammas, deltas)})
            for label, gammas, deltas in strata]


def _run_config(job: dict, outdir: str) -> dict:
    report = cli.run_config(job["params"]["config"], outdir)
    return {"outdir": outdir, "outputs": report["outputs"], "warnings": report["warnings"]}


def _curve_rows(out: dict) -> list[dict]:
    rows = _read_csv(os.path.join(out["outdir"], "curve.csv"))
    return [{"t": float(r["t"]), "p": float(r["p"]), "class": r["class"],
             "Dp": float(r["Dp"]), "width": float(r["enclosure_width"])} for r in rows]


def _check_renewal_rows(rows, floor: float) -> list[str]:
    bad = []
    for r in rows:
        if r["p"] < floor - 1e-12:
            bad.append(f"p({r['t']}) below the floor")
        if r["class"] == TRANSIENT and abs(r["p"] - floor) > 1e-12:
            bad.append(f"transient at t={r['t']} off the floor")
        if r["class"] not in RECURRENT + (TRANSIENT,):
            bad.append(f"unknown class {r['class']!r}")
    return bad


def check_curve(job: dict, out: dict) -> list[str]:
    cfg = job["params"]["config"]
    rows = _curve_rows(out)
    bad = _check_renewal_rows(rows, LOG2)
    if len(rows) != cfg["task"]["pressure_curve"]["steps"]:
        bad.append("curve.csv row count differs from the grid")
    flat = out["outputs"]["transitions"]["flat_interval"]
    if flat is None:
        return bad + ["no flat interval for a grid-family model"]
    t0 = flat["t_start"]
    t1 = math.inf if flat["t_end"] is None else flat["t_end"]
    # sum e^{s_n} is normalized to 2, so G(1, log 2) = 1: the flat set starts at 1
    if abs(t0 - 1.0) > 1e-6:
        bad.append(f"flat interval starts at {t0}, not 1")
    if "delta" not in cfg["renewal"] and flat["t_end"] is not None:
        bad.append("unperturbed grid model has a bounded flat interval")
    if t1 <= 1.0 + 1e-3:
        bad.append("flat interval is empty")
    for r in rows:
        inside = t0 + 1e-6 < r["t"] < t1 - 1e-6
        outside = r["t"] < t0 - 1e-6 or r["t"] > t1 + 1e-6
        if inside and r["class"] != TRANSIENT:
            bad.append(f"t={r['t']} inside the flat interval but {r['class']}")
        if outside and r["class"] == TRANSIENT:
            bad.append(f"t={r['t']} outside the flat interval but transient")
    for key in ("smoothness_start", "smoothness_end"):
        if key in flat and flat[key] not in (tf.FIRST_ORDER, tf.C1):
            bad.append(f"{key} = {flat[key]!r}")
    wit = out["outputs"].get("witness")
    if wit is not None:
        row = [r for r in rows if abs(r["t"] - wit["t"]) <= 1e-12]
        if len(row) != 1:
            bad.append("witness t is not a curve grid point")
        elif wit["transient"] != (row[0]["class"] == TRANSIENT):
            bad.append(f"witness.transient={wit['transient']} but class {row[0]['class']}")
        bad += _check_witness(wit)
    return bad


def _check_witness(wit: dict) -> list[str]:
    if wit["transient"]:
        ok = (wit["u0"] > 0 and abs(wit["delta_half"]) <= 1e-8
              and wit["delta_double"] >= 1e-6)
    else:
        ok = wit["u0"] == 0.0
    return [] if ok else [f"witness fails the pressure-bonus threshold: {wit}"]


def _witness_verdict(wit: dict) -> dict:
    lo, hi = wit["u0_enclosure"]
    return {"t": q(wit["t"]), "transient": wit["transient"], "u0": q(wit["u0"], hi - lo),
            "delta_half": q(wit["delta_half"], 1e-9), "delta_double": q(wit["delta_double"], 1e-9)}


def verdict_curve(job: dict, out: dict) -> dict:
    rows = _curve_rows(out)
    flat = out["outputs"]["transitions"]["flat_interval"]
    v = {"rows": [[q(r["t"]), q(r["p"], r["width"]), r["class"], q(r["Dp"], 1e-6)]
                  for r in rows]}
    if flat is not None:
        b0 = flat["start_bracket"]
        v["flat"] = {"t_start": q(flat["t_start"], b0[1] - b0[0]),
                     "t_end": None if flat["t_end"] is None else
                     q(flat["t_end"], flat["end_bracket"][1] - flat["end_bracket"][0]),
                     "smoothness": [flat.get("smoothness_start"), flat.get("smoothness_end")]}
    if "witness" in out["outputs"]:
        v["witness"] = _witness_verdict(out["outputs"]["witness"])
    return v


# ---------------------------------------------------------------- renewal-pointwise
# Why: many distinct small models with one query each, so there is little
# reuse per (model, t).  The per-job fixed cost (validate_config, from_spec /
# normalize) dominates; a per-t table or cache would pay its build cost here
# without the payoff.  This is where a gain for renewal-curve could cost
# something.  Exercises cli validation, sequences, solve_pressure/classify,
# atoms and witnesses; does not build long curves or touch intervalmaps,
# transfer or shifts.

_ROW_CLASS = ["positive-recurrent", "positive-recurrent", "positive-recurrent",
              "null-recurrent", "transient"]
_ROW_ATOM = ["no-atom", "no-atom", "conservative-boundary", "conservative-boundary",
             "dissipative"]


def _hofbauer_row(rng, regime: int) -> dict:
    """One row of the first-return regime table; its class is set by construction.

    The ranges are narrow so that the cost of a round barely depends on the seed.
    """
    if regime == 0:  # sum e^{s_n} diverges on a constant tail: root above 0
        return {"family": "hofbauer", "head": [-_u(rng, 0.25, 0.35)] * 3, "normalize": False}
    if regime == 1:  # sum > 1: root above 0, finite return time
        return {"family": "hofbauer", "gamma": _u(rng, 1.7, 1.9),
                "normalization_target": _u(rng, 1.6, 1.8)}
    head = [-LOG2]
    if regime == 2:  # sum = 1, sum n e^{s_n} < inf
        return {"family": "hofbauer", "gamma": _u(rng, 2.9, 3.1), "head": head,
                "normalization_target": 1.0}
    if regime == 3:  # sum = 1, sum n e^{s_n} = inf
        return {"family": "hofbauer", "gamma": _u(rng, 1.45, 1.55), "head": head,
                "normalization_target": 1.0}
    return {"family": "hofbauer", "gamma": _u(rng, 2.9, 3.1), "head": head,
            "normalization_target": 1.0, "leading_shift": -_u(rng, 0.6, 0.8)}


def _query(renewal: dict, task: str, t: float, expect: dict) -> dict:
    return {"config": {"model": "renewal", "renewal": renewal, "task": {task: {"t": t}}},
            "task": task, "expect": expect}


def renewal_pointwise(rng: random.Random) -> list[dict]:
    jobs = [_job("query", f"row-{regime}", _query(
        _hofbauer_row(rng, regime), "classify", 1.0, {"class": _ROW_CLASS[regime]}))
        for regime in range(5)]
    for regime in range(5):
        row = _hofbauer_row(rng, regime)
        expect = {"verdict": _ROW_ATOM[regime]}
        if regime == 4:  # G(1, 0) = e^c exactly, so the atom is 1 - e^c
            expect["atom"] = 1.0 - math.exp(row["leading_shift"])
        jobs.append(_job("query", f"atoms-{regime}", _query(row, "atoms", 1.0, expect)))
    for task in ("classify", "atoms", "witness"):
        for inside in (False, True, False, True):
            dfu = {"family": "grid", "gamma": _u(rng, 2.8, 3.2), "delta": _u(rng, 0.18, 0.22)}
            # the DFU flat set is [1, t1] with t1 > 2 on these ranges
            t = _u(rng, 1.2, 1.4) if inside else _u(rng, 0.6, 0.8)
            expect = {"classify": {"class": TRANSIENT if inside else "positive-recurrent"},
                      "atoms": {"verdict": "dissipative" if inside else "no-atom"},
                      "witness": {"transient": inside}}[task]
            jobs.append(_job("query", f"dfu-{task}", _query(dfu, task, t, expect)))
    # a few direct library calls; most jobs go through run_config, as CLI users do
    for grid in (False, True):
        for below, op in ((True, "solve"), (False, "classify"), (not grid, "witness")):
            c = _u(rng, 0.9, 1.1)
            t_star = (LOG3 - LOG2) / c if grid else LOG2 / c
            # recurrent below t_star, transient (pressure on the floor) above it
            t = t_star * (_u(rng, 0.5, 0.7) if below else _u(rng, 1.5, 2.0))
            jobs.append(_job("geometric", f"geom-{op}",
                             {"c": c, "t": t, "grid": grid, "op": op}))
    return jobs


def run_rows(job: dict, outdir: str) -> dict:
    return {"outdir": outdir, "summary": demos.run_demo("hofbauer-rows", outdir)}


def check_rows(job: dict, out: dict) -> list[str]:
    got = out["summary"]["classes"]
    return [] if got == _ROW_CLASS else [f"hofbauer-rows classes {got}"]


def verdict_rows(job: dict, out: dict) -> list:
    with open(os.path.join(out["outdir"], "rows.csv")) as fh:
        lines = fh.read().splitlines()[1:]
    # row labels contain commas, so split the four numeric columns off the right
    rows = [line.rsplit(",", 4)[1:] for line in lines]
    return [[cls, q(p, 1e-10)] for cls, p, _, _ in rows]


def check_query(job: dict, out: dict) -> list[str]:
    p = job["params"]
    res = out["outputs"][p["task"]]
    bad = []
    for key, want in p["expect"].items():
        if key == "atom":
            if not (abs(res["atom"][0] - want) <= 1e-8 and abs(res["atom"][1] - want) <= 1e-8):
                bad.append(f"atom {res['atom']} != {want}")
        elif res[key] != want:
            bad.append(f"{p['task']}.{key} = {res[key]!r}, expected {want!r}")
    if p["task"] == "witness":
        bad += _check_witness(res)
    return bad


def verdict_query(job: dict, out: dict) -> dict:
    task = job["params"]["task"]
    res = out["outputs"][task]
    if task == "classify":
        g = res["G"]
        width = math.inf if g["upper"] is None else g["upper"] - g["lower"]
        return {"class": res["class"], "pressure": q(res["pressure"], 1e-10),
                "G": q(res["G"]["lower"], width)}
    if task == "atoms":
        lo, hi = res["atom"]
        return {"verdict": res["verdict"], "atom": q(0.5 * (lo + hi), hi - lo)}
    return _witness_verdict(res)


def _geometric_model(c: float, grid: bool):
    s = lambda n: -c * np.asarray(n, dtype=float)  # noqa: E731
    env = tf.TailEnvelope(-c, 0.0, 0.0, 0.0, 1)
    if grid:
        return tf.RenewalModel(s, env, LOG2, -LOG2, LOG2, 0.0, "grid-geom")
    return tf.RenewalModel(s, env, 0.0, 0.0, 0.0, 0.0, "geom")


def _geometric_closed_form(c: float, t: float, grid: bool):
    """Pressure, transience and the bonus threshold u0 = -log G(t, p_B)."""
    if grid:
        p = max(LOG2, LOG3 - t * c)
        g_floor = 0.5 / math.expm1(t * c) if t * c > 0 else math.inf
    else:
        p = max(0.0, LOG2 - t * c)
        g_floor = 1.0 / math.expm1(t * c) if t * c > 0 else math.inf
    transient = g_floor < 1.0
    return p, transient, (-math.log(g_floor) if transient else 0.0)


def run_geometric(job: dict, outdir: str) -> dict:
    p = job["params"]
    model = _geometric_model(p["c"], p["grid"])
    if p["op"] == "solve":
        root = tf.solve_pressure(model, p["t"])
        return {"pressure": root.pressure, "width": root.width}
    if p["op"] == "classify":
        cls = tf.classify(model, p["t"])
        return {"pressure": cls.root.pressure, "width": cls.root.width, "class": cls.kind}
    wit = tf.cyr_sarig_witness(model, p["t"])
    return {"pressure": wit.pressure, "width": 1e-10, "transient": wit.transient,
            "u0": wit.u0, "u0_enclosure": list(wit.u0_enclosure),
            "delta_half": wit.delta_half, "delta_double": wit.delta_double, "t": p["t"]}


def check_geometric(job: dict, out: dict) -> list[str]:
    p = job["params"]
    pressure, transient, u0 = _geometric_closed_form(p["c"], p["t"], p["grid"])
    bad = []
    if abs(out["pressure"] - pressure) > 1e-9:
        bad.append(f"pressure {out['pressure']} != closed form {pressure}")
    if "class" in out and (out["class"] == TRANSIENT) != transient:
        bad.append(f"class {out['class']} but closed form transient={transient}")
    if "transient" in out:
        if out["transient"] != transient:
            bad.append(f"witness.transient={out['transient']}, closed form {transient}")
        if abs(out["u0"] - u0) > 1e-8:
            bad.append(f"u0 {out['u0']} != closed form {u0}")
        bad += _check_witness(out)
    return bad


def verdict_geometric(job: dict, out: dict) -> dict:
    v = {"pressure": q(out["pressure"], out["width"])}
    if "class" in out:
        v["class"] = out["class"]
    if "transient" in out:
        v["witness"] = _witness_verdict(out)
    return v


# ---------------------------------------------------------------- mp-first-return
# Why: building the Manneville-Pomeau first-return model bisects every level
# separately, so its cost grows with the square of the level count (ROADMAP
# item 4; it dominates the 120-level demo).  The renewal engine then runs on
# a table-backed s, and at the flat onset t = 1 its series run to the cap, so
# at the seeded sizes the two cost about the same.  Exercises
# intervalmaps.mp_induced_model, then series and renewal on a fitted
# envelope; does not touch sequences, transfer or shifts.

def mp_first_return(rng: random.Random) -> list[dict]:
    # one stratum: the certified series at the flat onset cost about as much
    # as the build at these sizes, and equal-sized jobs keep the percentiles steady
    jobs = []
    for _ in range(2):
        cfg = {"model": "interval",
               "interval": {"kind": "manneville_pomeau", "alpha": _u(rng, 0.48, 0.52),
                            "levels": rng.randint(47, 49)},
               "task": {"pressure_curve": {"t_min": 0.0, "t_max": 1.5, "steps": 6},
                        "classify": {"t": _u(rng, 1.3, 1.5)}}}
        jobs.append(_job("mp", "mp-levels", {"config": cfg}))
    return jobs


def check_mp(job: dict, out: dict) -> list[str]:
    rows = _curve_rows(out)
    bad = _check_renewal_rows(rows, 0.0)
    # at t = 0, G(0, p) = sum e^{-np} = 1 / (e^p - 1): the root is log 2
    if rows[0]["t"] == 0.0 and abs(rows[0]["p"] - LOG2) > 1e-8:
        bad.append(f"p(0) = {rows[0]['p']}, not log 2")
    for a, b in zip(rows, rows[1:]):
        if b["p"] > a["p"] + 1e-12:
            bad.append(f"pressure increases between t={a['t']} and t={b['t']}")
    for r in rows:
        if r["t"] >= 1.2 and r["p"] > 0.02:
            bad.append(f"p({r['t']}) = {r['p']} > 0.02")
    cls = out["outputs"]["classify"]
    if cls["pressure"] > 0.02:
        bad.append(f"classify pressure {cls['pressure']} > 0.02 at t={cls['t']}")
    return bad


def verdict_mp(job: dict, out: dict) -> dict:
    rows = _curve_rows(out)
    cls = out["outputs"]["classify"]
    return {"rows": [[q(r["t"]), q(r["p"], r["width"]), r["class"]] for r in rows],
            "classify": [cls["class"], q(cls["pressure"], 1e-10)]}


# ---------------------------------------------------------------- periodic-orbits
# Why: the only workload that exercises intervalmaps.periodic_points /
# zn_sum / gurevich_estimate, transfer (build_transfer_matrix, solve_rpf,
# decompose_components) and shifts.  It runs zero certified series, so it is
# the bypass workload for series/renewal changes: the prediction there is no
# change.  Its oracles are closed forms, never solve_pressure.

def periodic_orbits(rng: random.Random) -> list[dict]:
    # Twelve jobs in size classes: four finite-shift curves (smallest), three
    # Z_n jobs at n_max 17, two Gurevich estimates, the truncation and two Z_n
    # jobs at n_max 20 (largest).  The pooled median falls inside the n_max-17
    # class and the pooled 90th percentile inside the n_max-20 class, so each
    # percentile measures one job kind; it moves to another kind only if its
    # class gets faster or slower than a neighbouring class.
    jobs = []
    a = _u(rng, 0.5, 1.2)
    b = _u(rng, 1.6, 2.5)
    values = [-a, -a, -b, -b]
    jobs.append(_job("finite", "two-components", {"config": _finite_config(
        rng, [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]], values),
        "values": values}))
    for size in (2, 3, 4):
        values = [-_u(rng, 0.0, 2.0) for _ in range(size)]
        jobs.append(_job("finite", f"full-{size}-shift", {"config": _finite_config(
            rng, [[1] * size] * size, values), "values": values}))
    for base, n_max in (((0.0, 0.5), 17), ((0.5, 1.0), 17), ((0.0, 0.5), 17),
                        ((0.0, 0.5), 20), ((0.5, 1.0), 20)):
        interval = {"kind": "doubling_grid", "head_value": -_u(rng, 1.2, 1.6),
                    "head_count": rng.randint(25, 35), "gamma": _u(rng, 2.5, 3.5)}
        jobs.append(_job("zn", f"zn-base-{base[0]}-n{n_max}", {"config": {
            "model": "interval", "interval": interval,
            "task": {"zn": {"t": _u(rng, 0.8, 1.2), "n_max": n_max, "base": list(base)}}}}))
    for n_max in (13, 14):
        t_values = [_u(rng, -3.0, -1.8), _u(rng, 0.3, 1.2), _u(rng, 1.2, 2.2)]
        jobs.append(_job("chebyshev", f"gurevich-{n_max}", {"config": {
            "model": "interval", "interval": {"kind": "chebyshev"},
            "task": {"gurevich": {"t_values": t_values, "n_max": n_max}}}}))
    jobs.append(_job("truncation", "truncation",
                     {"c": _u(rng, 0.8, 1.2), "t": _u(rng, 0.2, 0.4), "depths": [50, 100, 200, 400]}))
    return jobs


def _finite_config(rng, transitions, values) -> dict:
    return {"model": "finite_shift",
            "finite_shift": {"alphabet": len(values), "transitions": transitions,
                             "potential": {"depth": 1, "values": {
                                 str(i): v for i, v in enumerate(values)}}},
            "task": {"pressure_curve": {"t_min": -_u(rng, 1.5, 2.5), "t_max": _u(rng, 1.5, 2.5),
                                        "steps": 11}}}


def _finite_oracle(values, transitions, t):
    """Pressure and maximizer count: the component maximum of log sum e^{t v}."""
    comps = {}
    for i, row in enumerate(transitions):
        comps.setdefault(tuple(row), []).append(values[i])
    ps = [math.log(sum(math.exp(t * v) for v in vs)) for vs in comps.values()]
    top = max(ps)
    return top, sum(1 for p in ps if p >= top - 1e-9)


def check_finite(job: dict, out: dict) -> list[str]:
    p = job["params"]
    trans = p["config"]["finite_shift"]["transitions"]
    rows = _read_csv(os.path.join(out["outdir"], "curve.csv"))
    bad = []
    for r in rows:
        t = float(r["t"])
        want, n_max = _finite_oracle(p["values"], trans, t)
        if abs(float(r["p"]) - want) > 1e-10:
            bad.append(f"p({t}) = {r['p']}, closed form {want}")
        label = "non-unique-equilibrium" if n_max > 1 else "positive-recurrent"
        if r["class"] != label:
            bad.append(f"class at t={t} is {r['class']}, expected {label}")
    return bad


def verdict_finite(job: dict, out: dict) -> dict:
    rows = _read_csv(os.path.join(out["outdir"], "curve.csv"))
    return [[q(r["t"]), q(r["p"], 1e-12), r["class"], q(r["Dp"], 1e-9)] for r in rows]


def check_chebyshev(job: dict, out: dict) -> list[str]:
    bad = []
    for r in _read_csv(os.path.join(out["outdir"], "gurevich.csv")):
        t, est = float(r["t"]), float(r["extrapolated"])
        if abs(est - tf.chebyshev_pressure_exact(t)) > 0.05:
            bad.append(f"Gurevich estimate {est} at t={t} misses the exact pressure")
    if "pressure_curve" in job["params"]["config"]["task"]:
        for r in _read_csv(os.path.join(out["outdir"], "curve.csv")):
            if abs(float(r["p"]) - tf.chebyshev_pressure_exact(float(r["t"]))) > 1e-12:
                bad.append(f"exact curve wrong at t={r['t']}")
    kink = out["outputs"]["gurevich"].get("kink")
    if kink is not None and abs(kink["t"] + 1.0) > 0.05:
        bad.append(f"kink at {kink['t']}, not -1")
    return bad


def verdict_chebyshev(job: dict, out: dict) -> dict:
    rows = _read_csv(os.path.join(out["outdir"], "gurevich.csv"))
    return [[q(r["t"]), q(r["extrapolated"]), r["skipped"]] for r in rows]


def _check_zn_rows(rows, interval: dict, task: dict) -> list[str]:
    bad = []
    seq = sq.RealizedSequence((interval["head_value"],) * interval["head_count"],
                              interval["gamma"], interval["head_count"])
    dp = tf.renewal_zn(tf.hofbauer_doubling_model(seq), task["t"], task["n_max"])
    good_base = task["base"][0] == 0.5
    for r in rows:
        n = int(float(r["n"]))
        z = float(r["Z_n"])
        if int(float(r["points_in_base"])) != 2 ** (n - 1):
            bad.append(f"{r['points_in_base']} period-{n} points in the base, not 2^(n-1)")
        if good_base and abs(z - dp[n - 1]) > 1e-10 * max(1.0, dp[n - 1]):
            bad.append(f"Z_{n} = {z} differs from the renewal recursion {dp[n - 1]}")
        if not good_base and z < 1.0:
            bad.append(f"Z_{n} = {z} < 1 on the base holding the fixed point")
    return bad


def check_zn(job: dict, out: dict) -> list[str]:
    cfg = job["params"]["config"]
    rows = _read_csv(os.path.join(out["outdir"], "zn.csv"))
    return _check_zn_rows(rows, cfg["interval"], cfg["task"]["zn"])


def _zn_verdict(outdir: str) -> list:
    return [[r["n"], q(r["Z_n"], 1e-12 * float(r["Z_n"])), r["points_in_base"]]
            for r in _read_csv(os.path.join(outdir, "zn.csv"))]


def verdict_zn(job: dict, out: dict) -> list:
    return _zn_verdict(out["outdir"])


def run_pathology(job: dict, outdir: str) -> dict:
    return {"outdir": outdir, "summary": demos.run_demo("base-set-pathology", outdir)}


def check_pathology(job: dict, out: dict) -> list[str]:
    bad = []
    for i, part in enumerate(out["summary"]["parts"]):
        cfg = demos._pathology_configs()[i]
        rows = _read_csv(os.path.join(out["outdir"], part["zn_table"]))
        bad += _check_zn_rows(rows, cfg["interval"], cfg["task"]["zn"])
    return bad


def verdict_pathology(job: dict, out: dict) -> list:
    return [_zn_verdict(os.path.join(out["outdir"], f"base_{i}")) for i in range(2)]


def run_truncation(job: dict, outdir: str) -> dict:
    p = job["params"]
    model = _geometric_model(p["c"], False)
    pressures, states = [], []
    for depth in p["depths"]:
        shift, pot = tf.finite_truncation(model, p["t"], depth)
        sol = tf.solve_rpf(tf.build_transfer_matrix(shift, pot), tol=1e-13)
        pressures.append(sol.pressure)
        states.append(sol.matrix.size)
    return {"pressures": pressures, "states": states}


def check_truncation(job: dict, out: dict) -> list[str]:
    p = job["params"]
    ps = out["pressures"]
    bad = [f"pressure drops from depth {a} to {b}"
           for a, b, x, y in zip(p["depths"], p["depths"][1:], ps, ps[1:]) if y < x - 1e-13]
    # the engine's root equals this closed form within 1e-9 (renewal-pointwise checks it)
    target = max(0.0, LOG2 - p["t"] * p["c"])
    if abs(ps[-1] - target) > 1e-4:
        bad.append(f"depth-{p['depths'][-1]} pressure {ps[-1]} misses {target}")
    return bad


def verdict_truncation(job: dict, out: dict) -> list:
    return [[n, q(x, 1e-13)] for n, x in zip(out["states"], out["pressures"])]


# ---------------------------------------------------------------- registry

KINDS = {
    "curve": (_run_config, check_curve, verdict_curve),
    "rows": (run_rows, check_rows, verdict_rows),
    "query": (_run_config, check_query, verdict_query),
    "geometric": (run_geometric, check_geometric, verdict_geometric),
    "mp": (_run_config, check_mp, verdict_mp),
    "chebyshev": (_run_config, check_chebyshev, verdict_chebyshev),
    "zn": (_run_config, check_zn, verdict_zn),
    "pathology": (run_pathology, check_pathology, verdict_pathology),
    "finite": (_run_config, check_finite, verdict_finite),
    "truncation": (run_truncation, check_truncation, verdict_truncation),
}


def _demo(kind: str, name: str, **params) -> dict:
    if kind not in ("rows", "pathology"):
        params["config"] = demos.load_demo_config(name)
    return _job(kind, name, params, anchor=name)


# workload -> (its demo anchors, its seeded job generator)
WORKLOADS = {
    "renewal-curve": (lambda: [_demo("curve", "grid-df"), _demo("curve", "grid-dfu")],
                      renewal_curve),
    "renewal-pointwise": (lambda: [_demo("rows", "hofbauer-rows")], renewal_pointwise),
    "mp-first-return": (lambda: [_demo("mp", "mp")], mp_first_return),
    "periodic-orbits": (lambda: [_demo("chebyshev", "chebyshev"),
                                 _demo("pathology", "base-set-pathology"),
                                 _demo("finite", "nonmixing", values=[-1.0, -1.0, -2.0, -2.0])],
                        periodic_orbits),
}


def make_round(workload: str, seed: int, round_index: int) -> list[dict]:
    """Round 0: the workload's demo anchors.  Later rounds: seeded jobs."""
    anchors, seeded = WORKLOADS[workload]
    if round_index == 0:
        jobs = anchors()
    else:
        jobs = seeded(random.Random(f"{workload}:{seed}:{round_index}"))
    for i, job in enumerate(jobs):
        job["id"] = f"r{round_index}j{i}-{job['label']}"
    return jobs
