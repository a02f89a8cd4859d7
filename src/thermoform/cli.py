"""Command-line front end: validate a JSON config, run tasks, emit files.

Outputs are deterministic: fixed column order, 17-significant-digit floats,
LF line endings, sorted JSON keys, and no timestamps inside data files
(timing goes to stderr).  Exit codes: 0 success, 2 validation error,
3 numerical indeterminacy.

    thermoform run <config.json> -o <dir> [--tol <x>] [--gnuplot]
    thermoform demo <name> -o <dir> [--tol <x>]
    thermoform list-demos

THERMOFORM_THREADS (integer >= 1) caps parallelism over curve grid points.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from importlib import resources

import numpy as np

from . import demos as demo_registry
from .errors import ConvergenceError, IndeterminateError
from .intervalmaps import (CHEBYSHEV, DOUBLING_GRID, MANNEVILLE_POMEAU,
                           IntervalMapModel, chebyshev_model,
                           chebyshev_pressure_exact, doubling_grid_model,
                           gurevich_estimate, hofbauer_doubling_model,
                           manneville_pomeau_model, mp_induced_model,
                           two_slope_kink, zn_sum)
from .renewal import (classify, conformal_atom_masses, cyr_sarig_witness,
                      locate_flat_interval, pressure_curve,
                      smoothness_at_transition, solve_pressure)
from .sequences import (RealizedSequence, SequenceSpec, from_spec,
                        realize_model, sequence_table)
from .shifts import FiniteShift, LocallyConstantPotential, is_topologically_mixing
from .transfer import (build_transfer_matrix, component_pressure_curve,
                       decompose_components, solve_rpf)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INDETERMINATE = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def write_csv(path: str, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(x if isinstance(x, str) else _fmt(x) for x in row))
    _write_text(path, "\n".join(lines) + "\n")


def write_json(path: str, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_schema() -> dict:
    path = resources.files("thermoform").joinpath("data/config_schema.json")
    with path.open() as fh:
        return json.load(fh)


def validate_config(config: dict) -> None:
    import jsonschema

    jsonschema.validate(config, load_schema())


def thread_count() -> int:
    raw = os.environ.get("THERMOFORM_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"THERMOFORM_THREADS must be an integer >= 1, got {raw!r}")
    if n < 1:
        raise ValueError(f"THERMOFORM_THREADS must be >= 1, got {n}")
    return n


def _parse_finite(block: dict):
    shift = FiniteShift(block["alphabet"], np.array(block["transitions"]))
    pot_block = block["potential"]
    values = {}
    for key, val in pot_block["values"].items():
        word = tuple(int(s) for s in key.split(","))
        values[word] = float(val)
    potential = LocallyConstantPotential(pot_block["depth"], values, shift)
    return shift, potential


def _parse_renewal(block: dict):
    spec = SequenceSpec(
        family=block["family"],
        gamma=block.get("gamma"),
        head=tuple(block.get("head", ())),
        delta=block.get("delta"),
        normalization_target=block.get("normalization_target"),
        normalize=block.get("normalize", True),
        leading_shift=block.get("leading_shift", 0.0),
    )
    seq = from_spec(spec)
    return seq, realize_model(seq, spec.family)


def _parse_interval(block: dict):
    kind = block["kind"]
    if kind == CHEBYSHEV:
        return chebyshev_model()
    if kind == MANNEVILLE_POMEAU:
        if "alpha" not in block:
            raise ValueError("manneville_pomeau requires alpha")
        return manneville_pomeau_model(block["alpha"])
    head = (block.get("head_value", 0.0),) * block.get("head_count", 1)
    seq = RealizedSequence(head, block.get("gamma"), len(head))
    return doubling_grid_model(seq)


def _grid(task: dict) -> np.ndarray:
    return np.linspace(task["t_min"], task["t_max"], task["steps"])


def _check_curve_rows(rows, floor=None) -> None:
    """Floor domination and convexity must hold before anything is written."""
    ts = np.array([r[0] for r in rows], dtype=float)
    ps = np.array([r[1] for r in rows], dtype=float)
    if floor is not None and np.any(ps < floor(ts) - 1e-12):
        raise ArithmeticError("curve dips below the pressure floor")
    if len(ts) >= 3:
        slopes = np.diff(ps) / np.diff(ts)
        if np.any(np.diff(slopes) < -1e-9):
            raise ArithmeticError("curve failed the convexity check")


def _curve_files(outdir: str, curve_rows, transitions_obj, gnuplot: bool) -> list[str]:
    curve_rows = list(curve_rows)
    _check_curve_rows(curve_rows)
    files = ["curve.csv"]
    write_csv(os.path.join(outdir, "curve.csv"),
              ["t", "p", "class", "Dp", "G", "enclosure_width"], curve_rows)
    write_json(os.path.join(outdir, "transitions.json"), transitions_obj)
    files.append("transitions.json")
    if gnuplot:
        script = ("set datafile separator ','\n"
                  "set key autotitle columnhead\n"
                  "set xlabel 't'\n"
                  "set ylabel 'pressure (nats)'\n"
                  "plot 'curve.csv' using 1:2 with linespoints\n")
        _write_text(os.path.join(outdir, "curve.gp"), script)
        files.append("curve.gp")
    return files


def _iv(pair) -> list[float]:
    return [float(pair[0]), float(pair[1])]


def _sum_payload(cs) -> dict:
    return {"lower": cs.lower, "upper": None if math.isinf(cs.upper) else cs.upper,
            "divergent": cs.divergent, "n_terms": cs.n_terms,
            "tail_method": cs.tail_method}


def _run_renewal_tasks(model, seq, task: dict, outdir: str, root_tol: float,
                       sum_tol: float, gnuplot: bool, map_fn):
    outputs: dict = {}
    files: list[str] = []
    warnings: list[str] = []
    if "pressure_curve" in task:
        curve = pressure_curve(model, _grid(task["pressure_curve"]),
                               root_tol=root_tol, sum_tol=sum_tol, map_fn=map_fn)
        warnings.extend(curve.warnings)
        transitions_obj = {"transitions": curve.transitions, "warnings": curve.warnings}
        files.extend(_curve_files(outdir, curve.rows(), transitions_obj, gnuplot))
        outputs["pressure_curve"] = {
            "points": len(curve.t),
            "max_enclosure_width": float(np.max(curve.enclosure_widths)),
            "classes": sorted(set(curve.classes)),
        }
    if "classify" in task:
        t = task["classify"]["t"]
        cls = classify(model, t, sum_tol=sum_tol)
        outputs["classify"] = {
            "t": t, "class": cls.kind, "pressure": cls.root.pressure,
            "G": _sum_payload(cls.G),
            "H": _sum_payload(cls.H) if cls.H is not None else None,
        }
    if "transitions" in task:
        bracket = tuple(task["transitions"]["bracket"])
        flat = locate_flat_interval(model, bracket, tol=max(root_tol, 1e-9),
                                    sum_tol=sum_tol)
        if flat is None:
            outputs["transitions"] = {"flat_interval": None}
        else:
            entry = {
                "t_start": flat.t_start,
                "start_bracket": _iv(flat.start_bracket),
                "t_end": None if flat.unbounded else flat.t_end,
                "end_bracket": None if flat.end_bracket is None else _iv(flat.end_bracket),
                "smoothness_start": smoothness_at_transition(model, flat.t_start,
                                                             sum_tol=sum_tol).kind,
            }
            if not flat.unbounded:
                entry["smoothness_end"] = smoothness_at_transition(
                    model, flat.t_end, sum_tol=sum_tol).kind
            outputs["transitions"] = {"flat_interval": entry}
    if "atoms" in task:
        t = task["atoms"]["t"]
        atoms = conformal_atom_masses(model, t, sum_tol=sum_tol)
        outputs["atoms"] = {
            "t": t, "verdict": atoms.verdict, "atom": _iv(atoms.atom_clamped),
            "preimage_mass": _iv(atoms.preimage_mass),
            "level_masses_head": [float(x) for x in atoms.level_masses[:8]],
        }
    if "witness" in task:
        t = task["witness"]["t"]
        wit = cyr_sarig_witness(model, t, tol=root_tol, sum_tol=sum_tol)
        outputs["witness"] = {
            "t": t, "u0": wit.u0, "u0_enclosure": _iv(wit.u0_enclosure),
            "transient": wit.transient, "delta_half": wit.delta_half,
            "delta_double": wit.delta_double,
        }
    if "sequence_table" in task:
        if seq is None:
            raise ValueError("sequence_table needs a sequence-backed model")
        table = sequence_table(seq, task["sequence_table"]["n_max"])
        write_csv(os.path.join(outdir, "sequence.csv"), ["n", "a_n", "s_n"], table)
        files.append("sequence.csv")
        outputs["sequence_table"] = {"rows": len(table)}
    return outputs, files, warnings


def _run_finite_tasks(shift, potential, task: dict, outdir: str, root_tol: float,
                      gnuplot: bool):
    outputs: dict = {}
    files: list[str] = []
    warnings: list[str] = []
    if "pressure_curve" in task:
        ts = _grid(task["pressure_curve"])
        mixing = is_topologically_mixing(shift, n_max=shift.alphabet_size ** 2 + 1)
        rows = []
        if mixing:
            for t in ts:
                sol = solve_rpf(build_transfer_matrix(shift, potential.scaled(float(t))),
                                tol=min(root_tol, 1e-12))
                phi = np.array([potential(w[:potential.depth]) for w in sol.matrix.states])
                rows.append((float(t), sol.pressure, "positive-recurrent",
                             float(sol.mu @ phi), 1.0, sol.residual))
        else:
            warnings.append("shift is not mixing; component maximum reported")
            for t in ts:
                dec = decompose_components(shift, potential, t=float(t))
                if len(dec.maximizers) > 1:
                    label, dp = "non-unique-equilibrium", math.nan
                else:
                    comp = dec.components[dec.maximizers[0]]
                    label = "positive-recurrent"
                    if comp.solution is not None:
                        # states use component-local symbols; map back
                        phi = np.array([potential(tuple(comp.symbols[s] for s in
                                                        w[:potential.depth]))
                                        for w in comp.solution.matrix.states])
                        dp = float(comp.solution.mu @ phi)
                    else:
                        dp = math.nan
                rows.append((float(t), dec.pressure, label, dp, 1.0, 0.0))
        transitions_obj = {"transitions": [], "warnings": warnings}
        files.extend(_curve_files(outdir, rows, transitions_obj, gnuplot))
        outputs["pressure_curve"] = {"points": len(ts), "mixing": bool(mixing)}
    if "classify" in task:
        t = task["classify"]["t"]
        dec = decompose_components(shift, potential, t=float(t))
        outputs["classify"] = {
            "t": t, "pressure": dec.pressure,
            "n_components": len(dec.components),
            "n_maximizers": len(dec.maximizers),
            "class": "positive-recurrent" if len(dec.maximizers) == 1
                     else "non-unique-equilibrium",
        }
    return outputs, files, warnings


def _run_interval_tasks(model: IntervalMapModel, block: dict, task: dict, outdir: str,
                        root_tol: float, sum_tol: float, gnuplot: bool, map_fn):
    outputs: dict = {}
    files: list[str] = []
    warnings: list[str] = []
    induced = None

    def get_induced():
        nonlocal induced
        if induced is None:
            if model.kind == MANNEVILLE_POMEAU:
                induced = mp_induced_model(model.alpha, block.get("levels", 150))
            elif model.kind == DOUBLING_GRID:
                induced = hofbauer_doubling_model(model.seq)
            else:
                raise ValueError("no induced model for this kind; use gurevich/zn tasks")
        return induced

    if "pressure_curve" in task:
        ts = _grid(task["pressure_curve"])
        if model.kind == CHEBYSHEV:
            rows = []
            for t in ts:
                p = chebyshev_pressure_exact(float(t))
                if abs(t + 1.0) < 1e-12:
                    label, dp = "non-unique-equilibrium", math.nan
                elif t < -1.0:
                    label, dp = "transient", -math.log(4.0)
                else:
                    label, dp = "positive-recurrent", -math.log(2.0)
                rows.append((float(t), p, label, dp, math.nan, 0.0))
            transitions_obj = {"transitions": [{"t": -1.0, "kind": "kink",
                                                "smoothness": "first-order"}],
                               "warnings": []}
            files.extend(_curve_files(outdir, rows, transitions_obj, gnuplot))
            outputs["pressure_curve"] = {"points": len(ts), "exact": True}
        else:
            sub_out, sub_files, sub_warn = _run_renewal_tasks(
                get_induced(), None, {"pressure_curve": task["pressure_curve"]},
                outdir, root_tol, sum_tol, gnuplot, map_fn)
            outputs.update(sub_out)
            files.extend(sub_files)
            warnings.extend(sub_warn)
    for name in ("classify", "transitions", "atoms", "witness"):
        if name in task:
            sub_out, sub_files, sub_warn = _run_renewal_tasks(
                get_induced(), None, {name: task[name]}, outdir, root_tol,
                sum_tol, gnuplot, map_fn)
            outputs.update(sub_out)
            files.extend(sub_files)
            warnings.extend(sub_warn)
    if "zn" in task:
        sub = task["zn"]
        base = tuple(sub.get("base", (0.0, 1.0 + 1e-12)))
        rows = []
        for n in range(1, sub["n_max"] + 1):
            z = zn_sum(model, sub["t"], n, base)
            growth = math.log(z.value) / n if z.value > 0 else math.nan
            rows.append((float(n), z.value, growth, float(z.in_base), float(z.skipped)))
        write_csv(os.path.join(outdir, "zn.csv"),
                  ["n", "Z_n", "log_Zn_over_n", "points_in_base", "skipped"], rows)
        files.append("zn.csv")
        outputs["zn"] = {"t": sub["t"], "n_max": sub["n_max"], "base": _iv(base)}
    if "gurevich" in task:
        sub = task["gurevich"]
        rows = []
        ests = []
        for t in sub["t_values"]:
            est = gurevich_estimate(model, float(t), sub["n_max"])
            ests.append(est)
            rows.append((float(t), est.extrapolated, float(est.raw[-1]),
                         est.spread, float(est.skipped)))
        write_csv(os.path.join(outdir, "gurevich.csv"),
                  ["t", "extrapolated", "raw_last", "spread", "skipped"], rows)
        files.append("gurevich.csv")
        outputs["gurevich"] = {"t_values": list(sub["t_values"]), "n_max": sub["n_max"]}
        if len(sub["t_values"]) >= 6:
            t_star, s_left, s_right = two_slope_kink(
                sub["t_values"], [e.extrapolated for e in ests])
            outputs["gurevich"]["kink"] = {"t": t_star, "left_slope": s_left,
                                           "right_slope": s_right}
    return outputs, files, warnings


def run_config(config: dict, outdir: str, root_tol: float | None = None,
               gnuplot: bool = False) -> dict:
    """Validate and execute a config; returns the report dict (also written)."""
    validate_config(config)
    os.makedirs(outdir, exist_ok=True)
    threads = thread_count()
    tolerances = config.get("tolerances", {})
    rt = root_tol if root_tol is not None else tolerances.get("root_tol", 1e-10)
    st = tolerances.get("sum_tol", 1e-12)
    task = config.get("task", {})

    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    map_fn = pool.map if pool is not None else map
    try:
        kind = config["model"]
        if kind == "renewal":
            seq, model = _parse_renewal(config["renewal"])
            outputs, files, warnings = _run_renewal_tasks(
                model, seq, task, outdir, rt, st, gnuplot, map_fn)
        elif kind == "finite_shift":
            shift, potential = _parse_finite(config["finite_shift"])
            outputs, files, warnings = _run_finite_tasks(
                shift, potential, task, outdir, rt, gnuplot)
        else:
            model = _parse_interval(config["interval"])
            outputs, files, warnings = _run_interval_tasks(
                model, config["interval"], task, outdir, rt, st, gnuplot, map_fn)
    finally:
        if pool is not None:
            pool.shutdown()

    report = {
        "inputs": config,
        "outputs": outputs,
        "files": sorted(set(files)),
        "warnings": warnings,
        "tolerances": {"root_tol": rt, "sum_tol": st},
    }
    write_json(os.path.join(outdir, "report.json"), report)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="thermoform", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a JSON model config")
    p_run.add_argument("config")
    p_run.add_argument("-o", "--output", required=True)
    p_run.add_argument("--tol", type=float, default=None,
                       help="override the root tolerance")
    p_run.add_argument("--gnuplot", action="store_true")

    p_demo = sub.add_parser("demo", help="run a canned demo by name")
    p_demo.add_argument("name")
    p_demo.add_argument("-o", "--output", required=True)
    p_demo.add_argument("--tol", type=float, default=None)
    p_demo.add_argument("--gnuplot", action="store_true")

    sub.add_parser("list-demos", help="list canned demos and their configs")

    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        if args.command == "run":
            try:
                with open(args.config) as fh:
                    config = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                print(f"config error: {exc}", file=sys.stderr)
                return EXIT_VALIDATION
            run_config(config, args.output, root_tol=args.tol, gnuplot=args.gnuplot)
        elif args.command == "demo":
            demo_registry.run_demo(args.name, args.output, root_tol=args.tol,
                                   gnuplot=args.gnuplot)
        else:
            print(demo_registry.describe_demos())
            return EXIT_OK
    except IndeterminateError as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except ConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except (ValueError, KeyError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # jsonschema.ValidationError included
        if type(exc).__name__ == "ValidationError":
            print(f"config schema violation at {exc.json_path}: {exc.message}",
                  file=sys.stderr)
            return EXIT_VALIDATION
        raise
    print(f"done in {time.monotonic() - started:.2f}s", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
