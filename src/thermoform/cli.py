"""Command-line front end: parse a JSON config, dispatch its tasks, write files.

`run_config` validates and parses the config, resolves an interval map's
first-return renewal model once when a task needs it, runs each task
through the task table of its model kind (TASKS), formats the payloads and
writes the files.  The model logic lives in the library.

Outputs are deterministic: fixed column order, 17-significant-digit floats,
LF line endings, sorted JSON keys, and no timestamps inside data files
(timing goes to stderr).  Exit codes: 0 success; 2 validation error,
including a task the model kind does not support, a t value (t,
t_values, t_min, t_max, bracket) that is NaN, infinite or past the float
range, t_min >= t_max, a Z_n base with a NaN end or base[0] >= base[1]
(an infinite end reaches past the domain), a root tolerance outside
(0, 1e-6] and a Manneville-Pomeau alpha that overflows the map's
derivative; 3 numerical failure (indeterminacy, no convergence, overflow,
an underflowed Z_n under a Gurevich estimate or another ArithmeticError).
Each failure prints one line to stderr.

    thermoform run <config.json> -o <dir> [--tol <x>] [--gnuplot]
    thermoform demo <name> -o <dir> [--tol <x>]
    thermoform list-demos
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from importlib import resources
from types import SimpleNamespace

import numpy as np

from . import demos as demo_registry
from .errors import ConvergenceError, IndeterminateError
from .intervalmaps import (CHEBYSHEV, DOUBLING_GRID, MANNEVILLE_POMEAU, WHOLE_DOMAIN,
                           chebyshev_model, chebyshev_pressure_curve,
                           doubling_grid_model, gurevich_estimate,
                           manneville_pomeau_model, two_slope_kink, zn_sum)
from .renewal import (DEFAULT_ROOT_TOL, DEFAULT_SUM_TOL, ONSET_OF_FLAT, classify,
                      conformal_atom_masses, cyr_sarig_witness,
                      flat_transitions, pressure_curve, solve_pressure)
from .sequences import (RealizedSequence, SequenceSpec, from_spec,
                        realize_model, sequence_table)
from .shifts import FiniteShift, LocallyConstantPotential
from .transfer import decompose_components, pressure_curve_finite

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


@functools.cache
def _validator():
    """One validator for the config schema.  The shipped schema is checked
    against its metaschema by the test suite, not in every process."""
    from jsonschema.validators import validator_for

    schema = load_schema()
    return validator_for(schema)(schema)


def validate_config(config: dict) -> None:
    """Raise the best-matching jsonschema.ValidationError, as jsonschema.validate does."""
    from jsonschema.exceptions import best_match

    error = best_match(_validator().iter_errors(config))
    if error is not None:
        raise error


def _parse_finite(block: dict):
    shift = FiniteShift(block["alphabet"], np.array(block["transitions"]))
    pot_block = block["potential"]
    values, keys = {}, {}
    for key, val in pot_block["values"].items():
        try:
            word = tuple(int(s) for s in key.split(","))
        except ValueError:
            raise ValueError(f"potential key {key!r} is not a comma-separated"
                             " list of integers") from None
        if word in keys:  # "1" and "01", or "1,1" and " 1, 1"
            raise ValueError(f"potential keys {keys[word]!r} and {key!r} both"
                             f" name the word {word}")
        keys[word] = key
        values[word] = float(val)
    potential = LocallyConstantPotential(pot_block["depth"], values, shift)
    return shift, potential


def _parse_renewal(block: dict):
    spec = SequenceSpec(**block)  # the schema's renewal keys are its fields
    seq = from_spec(spec)
    return seq, realize_model(seq, spec.family)


def _parse_interval(block: dict):
    kind = block["kind"]
    if kind == CHEBYSHEV:
        return chebyshev_model()
    if kind == MANNEVILLE_POMEAU:
        return manneville_pomeau_model(block.get("alpha"))  # the model checks alpha
    head = (block.get("head_value", 0.0),) * block.get("head_count", 1)
    seq = RealizedSequence(head, block.get("gamma"), len(head))
    return doubling_grid_model(seq)


def _grid(sub: dict) -> np.ndarray:
    return np.linspace(sub["t_min"], sub["t_max"], sub["steps"])


def _iv(pair) -> list[float]:
    return [float(pair[0]), float(pair[1])]


def _sum_payload(cs) -> dict:
    return {"lower": cs.lower, "upper": None if math.isinf(cs.upper) else cs.upper,
            "divergent": cs.divergent, "n_terms": cs.n_terms,
            "tail_method": cs.tail_method}


# -- task handlers: (task block, run) -> report payload ----------------------
# `run` holds the parsed subjects (renewal, seq, shift, potential, interval),
# the tolerances, the files and warnings the tasks leave to be written, and
# the report blocks that describe a subject (`blocks`, top-level report keys).

CURVE_HEADER = ["t", "p", "class", "Dp", "G", "enclosure_width"]
GNUPLOT_SCRIPT = ("set datafile separator ','\n"
                  "set key autotitle columnhead\n"
                  "set xlabel 't'\n"
                  "set ylabel 'pressure (nats)'\n"
                  "plot 'curve.csv' using 1:2 with linespoints\n")


def _curve(run, curve, **summary) -> dict:
    run.warnings.extend(curve.warnings)
    run.files["curve.csv"] = (write_csv, CURVE_HEADER, list(curve.rows()))
    run.files["transitions.json"] = (write_json, {"transitions": curve.transitions,
                                                  "warnings": curve.warnings})
    if run.gnuplot:
        run.files["curve.gp"] = (_write_text, GNUPLOT_SCRIPT)
    return {"points": len(curve.t), **summary}


def _renewal_curve(sub: dict, run) -> dict:
    curve = pressure_curve(run.renewal, _grid(sub), root_tol=run.root_tol,
                           sum_tol=run.sum_tol)
    return _curve(run, curve, max_enclosure_width=float(np.max(curve.enclosure_widths)),
                  classes=sorted(set(curve.classes)))


def _finite_curve(sub: dict, run) -> dict:
    curve, mixing = pressure_curve_finite(run.shift, run.potential, _grid(sub),
                                          tol=min(run.root_tol, 1e-12))
    return _curve(run, curve, mixing=mixing)


def _chebyshev_curve(sub: dict, run) -> dict:
    return _curve(run, chebyshev_pressure_curve(_grid(sub)), exact=True)


def _classify(sub: dict, run) -> dict:
    t = sub["t"]
    root = solve_pressure(run.renewal, t, tol=run.root_tol, sum_tol=run.sum_tol)
    cls = classify(run.renewal, t, root=root, sum_tol=run.sum_tol)
    return {"t": t, "class": cls.kind, "pressure": cls.root.pressure,
            "G": _sum_payload(cls.G),
            "H": _sum_payload(cls.H) if cls.H is not None else None}


def _finite_classify(sub: dict, run) -> dict:
    t = sub["t"]
    dec = decompose_components(run.shift, run.potential, t=float(t))
    return {"t": t, "pressure": dec.pressure, "n_components": len(dec.components),
            "n_maximizers": len(dec.maximizers), "class": dec.kind}


def _transitions(sub: dict, run) -> dict:
    found = flat_transitions(run.renewal, tuple(sub["bracket"]), tol=run.root_tol,
                             sum_tol=run.sum_tol)
    if found is None:
        return {"flat_interval": None}
    # a side the flat set runs past stays null and has no smoothness
    entry = {"t_start": None, "start_bracket": None, "t_end": None, "end_bracket": None}
    for tr in found:
        side = "start" if tr["kind"] == ONSET_OF_FLAT else "end"
        entry.update({f"t_{side}": tr["t"], f"{side}_bracket": _iv(tr["bracket"]),
                      f"smoothness_{side}": tr["smoothness"]})
    return {"flat_interval": entry}


def _atoms(sub: dict, run) -> dict:
    t = sub["t"]
    atoms = conformal_atom_masses(run.renewal, t, sum_tol=run.sum_tol)
    return {"t": t, "verdict": atoms.verdict, "atom": _iv(atoms.atom_clamped),
            "preimage_mass": _iv(atoms.preimage_mass),
            "level_masses_head": [float(x) for x in atoms.level_masses[:8]]}


def _witness(sub: dict, run) -> dict:
    t = sub["t"]
    wit = cyr_sarig_witness(run.renewal, t, tol=run.root_tol, sum_tol=run.sum_tol)
    return {"t": t, "u0": wit.u0, "u0_enclosure": _iv(wit.u0_enclosure),
            "transient": wit.transient, "delta_half": wit.delta_half,
            "delta_double": wit.delta_double}


def _sequence_table(sub: dict, run) -> dict:
    table = sequence_table(run.seq, sub["n_max"])
    run.files["sequence.csv"] = (write_csv, ["n", "a_n", "s_n"], table)
    return {"rows": len(table)}


def _zn(sub: dict, run) -> dict:
    base = tuple(sub.get("base", WHOLE_DOMAIN))
    zs = [zn_sum(run.interval, sub["t"], n, base) for n in range(1, sub["n_max"] + 1)]
    rows = [(float(z.n), z.value, math.log(z.value) / z.n if z.value > 0 else math.nan,
             float(z.in_base), float(z.skipped)) for z in zs]
    run.files["zn.csv"] = (write_csv, ["n", "Z_n", "log_Zn_over_n", "points_in_base",
                                       "skipped"], rows)
    payload = {"t": sub["t"], "n_max": sub["n_max"], "base": _iv(base)}
    if zs[0].rel_err is not None:
        # null where a term may have underflowed and no relative bound holds
        rel_err = max(z.rel_err for z in zs)
        payload["Z_n_rel_err_certified"] = None if math.isinf(rel_err) else rel_err
    return payload


def _gurevich(sub: dict, run) -> dict:
    ests = [gurevich_estimate(run.interval, float(t), sub["n_max"])
            for t in sub["t_values"]]
    rows = [(float(t), est.extrapolated, float(est.raw[-1]), est.spread,
             float(est.skipped)) for t, est in zip(sub["t_values"], ests)]
    run.files["gurevich.csv"] = (write_csv, ["t", "extrapolated", "raw_last", "spread",
                                             "skipped"], rows)
    payload = {"t_values": list(sub["t_values"]), "n_max": sub["n_max"]}
    if len(sub["t_values"]) >= 6:
        t_star, s_left, s_right = two_slope_kink(
            sub["t_values"], [e.extrapolated for e in ests])
        payload["kink"] = {"t": t_star, "left_slope": s_left, "right_slope": s_right}
    return payload


_RENEWAL_TASKS = {"pressure_curve": _renewal_curve, "classify": _classify,
                  "transitions": _transitions, "atoms": _atoms, "witness": _witness}
_ORBIT_TASKS = {"zn": _zn, "gurevich": _gurevich}
# task name -> handler, per model kind (interval maps by their kind); a task
# missing from a kind's table is not supported for that kind
TASKS = {
    "renewal": {**_RENEWAL_TASKS, "sequence_table": _sequence_table},
    "finite_shift": {"pressure_curve": _finite_curve, "classify": _finite_classify},
    CHEBYSHEV: {"pressure_curve": _chebyshev_curve, **_ORBIT_TASKS},
    MANNEVILLE_POMEAU: {**_RENEWAL_TASKS, **_ORBIT_TASKS},
    DOUBLING_GRID: {**_RENEWAL_TASKS, "sequence_table": _sequence_table, **_ORBIT_TASKS},
}


def _check_tol(name: str, value: float) -> float:
    """A tolerance (root_tol from --tol or the config, or sum_tol) held to the
    schema's bounds."""
    top = _validator().schema["properties"]["tolerances"]["properties"][name]["maximum"]
    if not 0.0 < value <= top:  # false for nan too, which the schema lets through
        raise ValueError(f"{name} must be finite, > 0 and <= {top:g}; got {value}")
    return value


_T_KEYS = ("t", "t_min", "t_max", "t_values", "bracket")  # task keys holding t values


def _finite(x) -> bool:
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer past the float range
        return False


def _check_tasks(kind: str, task: dict) -> None:
    """Reject unsupported tasks, t values that are not finite floats,
    reversed grids and NaN, reversed or empty Z_n base intervals before
    anything is solved.  An infinite base end is allowed: it reaches past
    the domain."""
    for name, sub in task.items():
        if name not in TASKS[kind]:
            raise ValueError(f"task {name!r} is not supported for a {kind} model")
        for key in _T_KEYS:
            values = sub.get(key, [])
            for x in values if isinstance(values, list) else [values]:
                if not _finite(x):
                    raise ValueError(f"{name}.{key} must be finite, got {x}")
        if name == "pressure_curve" and sub["t_min"] >= sub["t_max"]:
            raise ValueError(f"pressure_curve needs t_min < t_max, got "
                             f"{sub['t_min']} >= {sub['t_max']}")
        if name == "zn" and "base" in sub:
            lo, hi = sub["base"]
            if math.isnan(lo) or math.isnan(hi):
                raise ValueError(f"zn.base must not be NaN, got {sub['base']}")
            if lo >= hi:
                raise ValueError(f"zn needs base[0] < base[1], got {lo} >= {hi}")


def _parse_subjects(config: dict, task: dict, run) -> None:
    """Set on `run` what the tasks of the config's model kind run on."""
    model = config["model"]
    if model == "finite_shift":
        run.shift, run.potential = _parse_finite(config["finite_shift"])
    elif model == "renewal":
        run.seq, run.renewal = _parse_renewal(config["renewal"])
    else:
        block = config["interval"]
        run.interval = _parse_interval(block)
        run.seq = run.interval.seq
        if run.interval.kind != CHEBYSHEV and task.keys() & _RENEWAL_TASKS.keys():
            # resolved once for every renewal task
            run.renewal = run.interval.first_return(block.get("levels", 150))
            if run.interval.kind == MANNEVILLE_POMEAU:
                # the fitted tail exponent is not certified; theory gives 1 + 1/alpha
                run.blocks["mp_tail"] = {
                    "log_coeff": {"value": run.renewal.envelope.log_coeff,
                                  "label": "estimate"},
                    "log_coeff_theory": 1.0 + 1.0 / run.interval.alpha}


def run_config(config: dict, outdir: str, root_tol: float | None = None,
               gnuplot: bool = False) -> dict:
    """Validate and execute a config; returns the report dict (also written)."""
    validate_config(config)
    kind = config["interval"]["kind"] if config["model"] == "interval" else config["model"]
    task = config.get("task", {})
    _check_tasks(kind, task)
    tolerances = config.get("tolerances", {})
    rt = _check_tol("root_tol", root_tol if root_tol is not None
                    else tolerances.get("root_tol", DEFAULT_ROOT_TOL))
    st = _check_tol("sum_tol", tolerances.get("sum_tol", DEFAULT_SUM_TOL))
    run = SimpleNamespace(root_tol=rt, sum_tol=st, gnuplot=gnuplot, files={}, warnings=[],
                          blocks={})
    _parse_subjects(config, task, run)
    outputs = {name: handler(task[name], run)
               for name, handler in TASKS[kind].items() if name in task}

    os.makedirs(outdir, exist_ok=True)
    for name, (writer, *content) in run.files.items():
        writer(os.path.join(outdir, name), *content)
    report = {
        "inputs": config,
        "outputs": outputs,
        "files": sorted(run.files),
        "warnings": run.warnings,
        "tolerances": {"root_tol": rt, "sum_tol": st},
        **run.blocks,
    }
    write_json(os.path.join(outdir, "report.json"), report)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="thermoform", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for command, target, text in (("run", "config", "run a JSON model config"),
                                  ("demo", "name", "run a canned demo by name")):
        p_cmd = sub.add_parser(command, help=text)
        p_cmd.add_argument(target)
        p_cmd.add_argument("-o", "--output", required=True)
        p_cmd.add_argument("--tol", type=float, default=None,
                           help="override the root tolerance (0 < tol <= 1e-6)")
        p_cmd.add_argument("--gnuplot", action="store_true")
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
    except (IndeterminateError, ConvergenceError, ArithmeticError) as exc:
        # ArithmeticError covers OverflowError and the pressure-curve checks
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
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
