"""Canned demos: one curated config (or config suite) per headline example."""

from __future__ import annotations

import json
import math
import os
from importlib import resources

LOG2 = math.log(2.0)

_SINGLE_DEMOS = {
    "nonmixing": "two full 2-shifts side by side; component-max pressure "
                 "max(-t, -2t) + log 2 with the equilibrium tie at t = 0",
    "grid-df": "grid family, gamma = 3, no perturbation: pressure descends to "
               "log 2 at t = 1 and stays flat",
    "grid-dfu": "grid family, gamma = 3, delta = 0.2: flat transient window "
                "[1, t1] with recurrent branches on both sides",
    "chebyshev": "exact kinked pressure max(-t log 4, (1-t) log 2) plus "
                 "periodic-orbit estimates and the two-slope kink fit",
    "mp": "Manneville-Pomeau alpha = 0.5 via its first-return model: pressure "
          "curve on [0, 1.5] flattening to 0 at t = 1",
}

_SUITE_DEMOS = {
    "hofbauer-rows": "five doubling-map level sequences, one per recurrence "
                     "regime of the first-return table; classified at t = 1",
    "base-set-pathology": "a transient coded doubling map where the naive "
                          "periodic-sum test flips verdict with the base set",
}


def demo_names() -> list[str]:
    return sorted(list(_SINGLE_DEMOS) + list(_SUITE_DEMOS))


def load_demo_config(name: str) -> dict:
    path = resources.files("thermoform").joinpath(f"data/demos/{name}.json")
    with path.open() as fh:
        return json.load(fh)


def describe_demos() -> str:
    lines = []
    for name in demo_names():
        desc = _SINGLE_DEMOS.get(name) or _SUITE_DEMOS[name]
        lines.append(f"{name}: {desc}")
        if name in _SINGLE_DEMOS:
            cfg = json.dumps(load_demo_config(name), indent=2, sort_keys=True)
            lines.extend("    " + ln for ln in cfg.splitlines())
    return "\n".join(lines)


def _rows_suite() -> list[dict]:
    """One renewal config per recurrence regime of the level-sum table."""
    return [
        {"label": "sum>1, levels summable", "model": "renewal",
         "renewal": {"family": "hofbauer", "head": [-0.2] * 3, "normalize": False},
         "task": {"classify": {"t": 1.0}}},
        {"label": "sum>1, levels divergent", "model": "renewal",
         "renewal": {"family": "hofbauer", "gamma": 1.2,
                     "normalization_target": 1.7},
         "task": {"classify": {"t": 1.0}}},
        {"label": "sum=1, finite mean return", "model": "renewal",
         "renewal": {"family": "hofbauer", "gamma": 3.0, "head": [-LOG2],
                     "normalization_target": 1.0},
         "task": {"classify": {"t": 1.0}}},
        {"label": "sum=1, infinite mean return", "model": "renewal",
         "renewal": {"family": "hofbauer", "gamma": 1.5, "head": [-LOG2],
                     "normalization_target": 1.0},
         "task": {"classify": {"t": 1.0}}},
        {"label": "sum<1", "model": "renewal",
         "renewal": {"family": "hofbauer", "gamma": 3.0, "head": [-LOG2],
                     "normalization_target": 1.0, "leading_shift": -LOG2},
         "task": {"classify": {"t": 1.0}}},
    ]


def _pathology_configs() -> list[dict]:
    base_model = {"kind": "doubling_grid", "head_value": -math.log(4.0),
                  "head_count": 30, "gamma": 3.0}
    return [
        {"label": "base [0, 1/2) holding the fixed point", "model": "interval",
         "interval": base_model,
         "task": {"zn": {"t": 1.0, "n_max": 14, "base": [0.0, 0.5]}}},
        {"label": "base [1/2, 1)", "model": "interval",
         "interval": base_model,
         "task": {"zn": {"t": 1.0, "n_max": 14, "base": [0.5, 1.0]}}},
    ]


def run_demo(name: str, outdir: str, root_tol: float | None = None,
             gnuplot: bool = False) -> dict:
    from .cli import run_config, write_csv, write_json

    if name in _SINGLE_DEMOS:
        return run_config(load_demo_config(name), outdir, root_tol=root_tol,
                          gnuplot=gnuplot)
    if name == "hofbauer-rows":
        os.makedirs(outdir, exist_ok=True)
        rows = []
        for cfg in _rows_suite():
            label = cfg.pop("label")
            part_dir = os.path.join(outdir, label.split(",")[0].replace(" ", "_"))
            report = run_config(cfg, part_dir, root_tol=root_tol)
            out = report["outputs"]["classify"]
            g = out["G"]
            rows.append((label, out["class"], out["pressure"],
                         g["lower"], g["upper"] if g["upper"] is not None else math.inf))
        write_csv(os.path.join(outdir, "rows.csv"),
                  ["row", "class", "pressure", "G_lower", "G_upper"], rows)
        summary = {"inputs": _rows_suite(), "rows": [r[0] for r in rows],
                   "classes": [r[1] for r in rows]}
        write_json(os.path.join(outdir, "report.json"), summary)
        return summary
    if name == "base-set-pathology":
        os.makedirs(outdir, exist_ok=True)
        summaries = []
        for i, cfg in enumerate(_pathology_configs()):
            label = cfg.pop("label")
            part_dir = os.path.join(outdir, f"base_{i}")
            report = run_config(cfg, part_dir, root_tol=root_tol)
            summaries.append({"label": label, "zn_table": f"base_{i}/zn.csv",
                              "outputs": report["outputs"]})
        write_json(os.path.join(outdir, "report.json"),
                   {"inputs": _pathology_configs(), "parts": summaries})
        return {"parts": summaries}
    raise ValueError(f"unknown demo {name!r}; known: {', '.join(demo_names())}")
