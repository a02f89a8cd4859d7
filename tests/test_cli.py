import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import thermoform
from thermoform import RealizedSequence, sequence_table
from thermoform.cli import main, run_config, validate_config
from thermoform.demos import demo_names, describe_demos, run_demo

LOG2 = math.log(2.0)


def nonmixing_config():
    return {
        "model": "finite_shift",
        "finite_shift": {
            "alphabet": 4,
            "transitions": [[1, 1, 0, 0], [1, 1, 0, 0],
                            [0, 0, 1, 1], [0, 0, 1, 1]],
            "potential": {"depth": 1,
                          "values": {"0": -1.0, "1": -1.0, "2": -2.0, "3": -2.0}},
        },
        "task": {"pressure_curve": {"t_min": -2.0, "t_max": 2.0, "steps": 11}},
    }


def read_curve(path):
    rows = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            rows.append(line.strip().split(","))
    return header, rows


def test_schema_rejects_unknown_fields():
    cfg = nonmixing_config()
    cfg["surprise"] = 1
    with pytest.raises(Exception):
        validate_config(cfg)


def test_schema_requires_model_block():
    with pytest.raises(Exception):
        validate_config({"model": "renewal"})


def test_run_nonmixing_matches_formula(tmp_path):
    out = tmp_path / "nm"
    run_config(nonmixing_config(), str(out))
    header, rows = read_curve(out / "curve.csv")
    assert header == ["t", "p", "class", "Dp", "G", "enclosure_width"]
    ties = 0
    for row in rows:
        t, p = float(row[0]), float(row[1])
        assert abs(p - (max(-t, -2 * t) + LOG2)) <= 1e-10
        if row[2] == "non-unique-equilibrium":
            ties += 1
            assert t == 0.0
    assert ties == 1
    report = json.loads((out / "report.json").read_text())
    assert report["outputs"]["pressure_curve"]["mixing"] is False


def finite_config(transitions, depth, values, t_min=-2.0, t_max=2.0, steps=9):
    return {"model": "finite_shift",
            "finite_shift": {"alphabet": len(transitions), "transitions": transitions,
                             "potential": {"depth": depth, "values": values}},
            "task": {"pressure_curve": {"t_min": t_min, "t_max": t_max, "steps": steps}}}


def test_run_full_shift_matches_gibbs_formula(tmp_path):
    v = np.array([-0.3, -1.1, 0.4])
    cfg = finite_config([[1, 1, 1]] * 3, 1, {str(i): x for i, x in enumerate(v)})
    report = run_config(cfg, str(tmp_path / "full3"))
    _, rows = read_curve(tmp_path / "full3" / "curve.csv")
    assert len(rows) == 9
    for row in rows:
        t = float(row[0])
        w = np.exp(t * v)
        assert abs(float(row[1]) - math.log(w.sum())) <= 1e-12
        assert abs(float(row[3]) - float(w @ v / w.sum())) <= 1e-10
        assert row[2] == "positive-recurrent"
    assert report["outputs"]["pressure_curve"]["mixing"] is True
    assert report["warnings"] == []


def test_run_golden_mean_depth_two(tmp_path):
    phi = {"0,0": -0.5, "0,1": -1.0, "1,0": 0.2}
    cfg = finite_config([[1, 1], [1, 0]], 2, phi, t_min=-1.5, t_max=1.5, steps=7)
    report = run_config(cfg, str(tmp_path / "gm"))

    def p(t):  # log Perron root of [[e^{t phi00}, e^{t phi01}], [e^{t phi10}, 0]]
        a, bc = math.exp(t * phi["0,0"]), math.exp(t * (phi["0,1"] + phi["1,0"]))
        return math.log(0.5 * (a + math.sqrt(a * a + 4.0 * bc)))

    _, rows = read_curve(tmp_path / "gm" / "curve.csv")
    for row in rows:
        t = float(row[0])
        assert abs(float(row[1]) - p(t)) <= 1e-10
        assert abs(float(row[3]) - (p(t + 1e-5) - p(t - 1e-5)) / 2e-5) <= 1e-6
        assert row[2] == "positive-recurrent"
    assert report["outputs"]["pressure_curve"]["mixing"] is True


def test_chebyshev_demo_curve_and_kink(tmp_path):
    out = tmp_path / "cheb"
    run_demo("chebyshev", str(out))
    _, rows = read_curve(out / "curve.csv")
    for row in rows:
        t = float(row[0])
        want = ("transient" if t < -1.0 else "non-unique-equilibrium" if t == -1.0
                else "positive-recurrent")
        assert row[2] == want
    trans = json.loads((out / "transitions.json").read_text())
    assert trans["transitions"] == [{"t": -1.0, "kind": "kink", "smoothness": "first-order"}]


def test_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad), "-o", str(tmp_path / "o1")]) == 2
    cfg = tmp_path / "cfg.json"
    bad_cfg = nonmixing_config()
    bad_cfg["bogus"] = True
    cfg.write_text(json.dumps(bad_cfg))
    assert main(["run", str(cfg), "-o", str(tmp_path / "o2")]) == 2
    good = tmp_path / "good.json"
    good.write_text(json.dumps(nonmixing_config()))
    assert main(["run", str(good), "-o", str(tmp_path / "o3")]) == 0


def test_mp_level_cap_exits_2_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "mp.json"
    cfg.write_text(json.dumps({
        "model": "interval",
        "interval": {"kind": "manneville_pomeau", "alpha": 0.5, "levels": 100000},
        "task": {"classify": {"t": 1.0}}}))
    assert main(["run", str(cfg), "-o", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and "2000" in lines[0]
    assert not (tmp_path / "out").exists()


def test_mp_report_labels_the_fitted_tail_exponent_an_estimate(tmp_path):
    cfg = {"model": "interval",
           "interval": {"kind": "manneville_pomeau", "alpha": 0.5, "levels": 120},
           "task": {"classify": {"t": 1.2}}}
    report = run_config(cfg, str(tmp_path / "mp"))
    tail = report["mp_tail"]
    assert tail["log_coeff"]["label"] == "estimate"
    assert tail["log_coeff_theory"] == 3.0
    assert abs(tail["log_coeff"]["value"] - 3.0) <= 0.15
    assert json.loads((tmp_path / "mp" / "report.json").read_text())["mp_tail"] == tail
    # a doubling-map first-return model is exact: no such block
    cfg = {"model": "interval", "interval": {"kind": "doubling_grid", "head_value": -1.4,
                                             "head_count": 30, "gamma": 3.0},
           "task": {"classify": {"t": 1.0}}}
    assert "mp_tail" not in run_config(cfg, str(tmp_path / "grid"))


def run_main(tmp_path, capsys, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main(["run", str(path), "-o", str(tmp_path / "out")])
    return code, capsys.readouterr().err.strip().splitlines()


def full_shift_config(values, depth=1):
    """Pressure at t = 1 and 2 of a potential on the full 2-shift."""
    return {"model": "finite_shift",
            "finite_shift": {"alphabet": 2, "transitions": [[1, 1], [1, 1]],
                             "potential": {"depth": depth, "values": values}},
            "task": {"pressure_curve": {"t_min": 1.0, "t_max": 2.0, "steps": 2}}}


GRID = {"family": "grid", "gamma": 3.0}
DOUBLING = {"kind": "doubling_grid", "head_value": -1.4, "head_count": 3, "gamma": 3.0}


@pytest.mark.parametrize("model, block, task", [
    ("finite_shift", nonmixing_config()["finite_shift"], {"witness": {"t": 1.0}}),
    ("finite_shift", nonmixing_config()["finite_shift"], {"zn": {"t": 1.0, "n_max": 4}}),
    ("renewal", GRID, {"gurevich": {"t_values": [1.0], "n_max": 6}}),
    ("interval", {"kind": "chebyshev"}, {"classify": {"t": 1.0}}),
])
def test_unsupported_task_exits_2_with_one_line(tmp_path, capsys, model, block, task):
    cfg = {"model": model, model: block, "task": task}
    code, lines = run_main(tmp_path, capsys, cfg)
    assert code == 2 and len(lines) == 1
    assert next(iter(task)) in lines[0] and "not supported" in lines[0]
    assert not (tmp_path / "out").exists()


def test_doubling_grid_sequence_table_runs_on_its_sequence(tmp_path, capsys):
    cfg = {"model": "interval", "interval": DOUBLING, "task": {"sequence_table": {"n_max": 5}}}
    code, _ = run_main(tmp_path, capsys, cfg)
    assert code == 0
    table = np.loadtxt(tmp_path / "out" / "sequence.csv", delimiter=",", skiprows=1)
    seq = RealizedSequence((-1.4,) * 3, 3.0, 3)
    assert np.array_equal(table, sequence_table(seq, 5))
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["outputs"]["sequence_table"] == {"rows": 6}


@pytest.mark.parametrize("cfg, code", [
    ({"model": "interval", "interval": {"kind": "chebyshev"},
      "task": {"gurevich": {"t_values": [0.5] * 6, "n_max": 6}}}, 3),
    ({"model": "renewal", "renewal": {**GRID, "head": [0.0, 900.0]},
      "task": {"classify": {"t": 1.0}}}, 3),
    ({"model": "renewal", "renewal": GRID,
      "task": {"pressure_curve": {"t_min": 2.0, "t_max": 0.5, "steps": 5}}}, 2),
    ({"model": "interval", "interval": DOUBLING, "task": {"zn": {"t": 1.0, "n_max": 23}}}, 2),
    ({"model": "renewal", "renewal": GRID,
      "task": {"sequence_table": {"n_max": 10 ** 12}}}, 2),
    ({"model": "interval", "interval": {**DOUBLING, "head_count": 10 ** 12},
      "task": {"zn": {"t": 1.0, "n_max": 4}}}, 2),
    ({"model": "renewal", "renewal": GRID, "tolerances": {"sum_tol": math.nan},
      "task": {"classify": {"t": 3.0}, "witness": {"t": 3.0}}}, 2),
    ({"model": "renewal", "renewal": GRID, "tolerances": {"sum_tol": 1e300},
      "task": {"classify": {"t": 3.0}}}, 2),
    ({"model": "interval", "interval": {"kind": "chebyshev"},
      "task": {"zn": {"t": 1.0, "n_max": 4, "base": [0.5, 0.0]}}}, 2),
    ({"model": "interval", "interval": {"kind": "chebyshev"},
      "task": {"zn": {"t": 1.0, "n_max": 4, "base": [0.5, 0.5]}}}, 2),
    ({"model": "interval", "interval": DOUBLING, "task": {"zn": {"t": math.nan, "n_max": 4}}}, 2),
    ({"model": "interval", "interval": DOUBLING,
      "task": {"zn": {"t": 1.0, "n_max": 4, "base": [math.nan, 0.5]}}}, 2),
    ({"model": "interval", "interval": {"kind": "chebyshev"},
      "task": {"gurevich": {"t_values": [math.nan, 1.0], "n_max": 6}}}, 2),
    ({"model": "interval", "interval": {"kind": "chebyshev"},
      "task": {"pressure_curve": {"t_min": -2.0, "t_max": math.inf, "steps": 5}}}, 2),
    ({"model": "renewal", "renewal": GRID, "task": {"classify": {"t": math.nan}}}, 2),
    ({"model": "renewal", "renewal": GRID, "task": {"witness": {"t": -math.inf}}}, 2),
    ({"model": "renewal", "renewal": GRID, "task": {"transitions": {"bracket": [0.5, math.inf]}}}, 2),
    ({"model": "interval", "interval": DOUBLING, "task": {"zn": {"t": 10 ** 400, "n_max": 4}}}, 2),
    ({"model": "interval", "interval": {"kind": "manneville_pomeau"},
      "task": {"classify": {"t": 1.0}}}, 2),
    (full_shift_config({"0": 0.0, "1": -5.0, "01": 0.0}), 2),
    (full_shift_config({"0": 0.0, "x": 0.0}), 2),
])
def test_bad_input_exits_with_one_line(tmp_path, capsys, cfg, code):
    got, lines = run_main(tmp_path, capsys, cfg)
    assert got == code and len(lines) == 1


@pytest.mark.parametrize("values, depth, reason", [
    ({"0": 0.0, "1": -5.0, "01": 0.0}, 1,
     "potential keys '1' and '01' both name the word (1,)"),
    ({"0,0": 0.0, "0,1": 0.0, "1,0": 0.0, "1,1": 0.0, " 1, 1": 0.0}, 2,
     "potential keys '1,1' and ' 1, 1' both name the word (1, 1)"),
    ({"0": 0.0, "x": 0.0}, 1, "potential key 'x' is not a comma-separated list of integers"),
])
def test_bad_potential_key_is_named(tmp_path, capsys, values, depth, reason):
    code, lines = run_main(tmp_path, capsys, full_shift_config(values, depth))
    assert code == 2 and lines == [f"validation error: {reason}"]


@pytest.mark.parametrize("task", [{"classify": {"t": 1.2}}, {"zn": {"t": 1.0, "n_max": 6}}])
@pytest.mark.parametrize("alpha", [1023.9, math.inf, 1024])
def test_mp_alpha_past_the_float_range_exits_2_naming_alpha(tmp_path, capsys, alpha, task):
    cfg = {"model": "interval", "interval": {"kind": "manneville_pomeau", "alpha": alpha},
           "task": task}
    code, lines = run_main(tmp_path, capsys, cfg)
    assert code == 2 and len(lines) == 1
    assert f"(1 + alpha) in the float range, got {alpha}" in lines[0]
    assert not (tmp_path / "out").exists()


def test_underflowed_gurevich_sum_exits_3_naming_t_and_n(tmp_path, capsys):
    cfg = {"model": "interval", "interval": {"kind": "chebyshev"},
           "task": {"gurevich": {"t_values": [800.0], "n_max": 8}}}
    code, lines = run_main(tmp_path, capsys, cfg)
    assert code == 3 and len(lines) == 1 and "underflowed" in lines[0]
    assert "t = 800.0, n = 6" in lines[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("values, task", [
    ((0.0, 400.0), {"pressure_curve": {"t_min": -2.0, "t_max": 2.0, "steps": 9}}),  # e^800
    ((-800.0, -800.0), {"classify": {"t": 1.0}}),  # every weight underflows to 0
])
def test_non_finite_weights_exit_3_with_one_line(tmp_path, capsys, values, task):
    cfg = {**finite_config([[1, 1], [1, 1]], 1, {"0": values[0], "1": values[1]}), "task": task}
    started = time.monotonic()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would be a second line
        code, lines = run_main(tmp_path, capsys, cfg)
    assert time.monotonic() - started <= 2.0
    assert code == 3 and len(lines) == 1
    assert lines[0].startswith("numerical failure (FloatingPointError)")


def test_underflow_that_breaks_every_cycle_exits_3_with_one_line(tmp_path, capsys):
    # the 2-cycle's weight on 1 -> 0 underflows to 0, so h and m end on disjoint supports
    cfg = {**finite_config([[0, 1], [1, 0]], 1, {"0": 0.0, "1": -800.0}),
           "task": {"classify": {"t": 1.0}}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, lines = run_main(tmp_path, capsys, cfg)
    assert code == 3 and len(lines) == 1
    assert lines[0] == ("numerical failure (FloatingPointError): power iteration: the Perron "
                        "estimate is 0.0; check exp(t * phi) for overflow, underflow or nan")


@pytest.mark.parametrize("task", [{"zn": {"t": -800.0, "n_max": 8}},
                                  {"gurevich": {"t_values": [-800.0], "n_max": 8}}])
def test_overflowing_doubling_sums_exit_3_with_one_line(tmp_path, capsys, task):
    cfg = {"model": "interval", "interval": {**DOUBLING, "head_count": 30}, "task": task}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # a numpy warning is a second line
        code, lines = run_main(tmp_path, capsys, cfg)
    assert code == 3 and len(lines) == 1 and "numerical failure" in lines[0]
    assert not (tmp_path / "out").exists()


def test_doubling_zn_reports_its_certified_bound(tmp_path):
    zn = {"t": 1.3, "n_max": 12, "base": [0.3, 0.7]}
    report = run_config({"model": "interval", "interval": DOUBLING, "task": {"zn": zn}},
                        str(tmp_path / "d"))
    seq = RealizedSequence((-1.4,) * 3, 3.0, 3)
    bounds = [thermoform.zn_sum(thermoform.doubling_grid_model(seq), 1.3, n, (0.3, 0.7)).rel_err
              for n in range(1, 13)]
    assert report["outputs"]["zn"]["Z_n_rel_err_certified"] == max(bounds) < 1e-12
    smooth = run_config({"model": "interval", "interval": {"kind": "chebyshev"},
                         "task": {"zn": zn}}, str(tmp_path / "c"))
    assert "Z_n_rel_err_certified" not in smooth["outputs"]["zn"]


def test_curve_with_underflowed_weights_exits_0(tmp_path, capsys):
    cfg = finite_config([[1, 1], [1, 1]], 1, {"0": 0.0, "1": -800.0}, 0.0, 2.0, 3)
    code, _ = run_main(tmp_path, capsys, cfg)
    assert code == 0
    _, rows = read_curve(tmp_path / "out" / "curve.csv")
    assert [float(r[1]) for r in rows] == [LOG2, 0.0, 0.0]
    assert [r[3] for r in rows] == ["-400", "0", "0"]  # Dp
    assert [r[5] for r in rows] == ["0", "0", "0"]  # enclosure_width


def test_two_cycle_far_below_one_keeps_its_digits(tmp_path, capsys):
    # 1 + e^-40 rounds to 1, which a T + I root could not undo
    cfg = finite_config([[0, 1], [1, 0]], 1, {"0": -40.0, "1": -40.0}, 0.0, 2.0, 5)
    code, _ = run_main(tmp_path, capsys, cfg)
    assert code == 0
    _, rows = read_curve(tmp_path / "out" / "curve.csv")
    for row in rows:
        assert abs(float(row[1]) + 40.0 * float(row[0])) <= 1e-12


@pytest.mark.parametrize("task", [{"zn": {"t": math.nan, "n_max": 4}},
                                  {"gurevich": {"t_values": [0.5, -math.inf], "n_max": 6}},
                                  {"pressure_curve": {"t_min": math.nan, "t_max": 1.0,
                                                      "steps": 5}}])
def test_non_finite_t_names_its_key(tmp_path, capsys, task):
    cfg = {"model": "interval", "interval": {"kind": "chebyshev"}, "task": task}
    code, lines = run_main(tmp_path, capsys, cfg)
    name, sub = next(iter(task.items()))
    key = next(k for k, v in sub.items() if not np.all(np.isfinite(v)))
    assert code == 2 and f"{name}.{key} must be finite" in lines[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("interval", [{"kind": "chebyshev"}, DOUBLING])
def test_zn_infinite_base_gives_the_default_table(tmp_path, interval):
    tables = []
    for i, base in enumerate([None, [-math.inf, math.inf], [0.0, math.inf]]):
        zn = {"t": 0.8, "n_max": 10, **({} if base is None else {"base": base})}
        run_config({"model": "interval", "interval": interval, "task": {"zn": zn}},
                   str(tmp_path / str(i)))
        tables.append((tmp_path / str(i) / "zn.csv").read_bytes())
    assert tables[1] == tables[0] and tables[2] == tables[0]


@pytest.mark.parametrize("tolerances, tol", [
    ({"root_tol": 1e300}, None), ({}, "nan"), ({}, "inf"), ({}, "-1"), ({}, "1e-3")])
def test_root_tol_out_of_bounds_exits_2_with_one_line(tmp_path, capsys, tolerances, tol):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": "renewal", "renewal": GRID, "tolerances": tolerances,
                                "task": {"witness": {"t": 0.5}}}))
    extra = [] if tol is None else ["--tol", tol]
    code = main(["run", str(path), "-o", str(tmp_path / "out"), *extra])
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2 and len(lines) == 1 and "root_tol" in lines[0]
    assert not (tmp_path / "out").exists()


def test_classify_task_solves_at_root_tol(tmp_path, monkeypatch):
    import thermoform.cli as cli

    solve, seen = cli.solve_pressure, []

    def spy(model, t, tol=None, sum_tol=None):
        seen.append(tol)
        return solve(model, t, tol=tol, sum_tol=sum_tol)

    monkeypatch.setattr(cli, "solve_pressure", spy)
    cfg = {"model": "renewal", "renewal": GRID, "task": {"classify": {"t": 0.5}},
           "tolerances": {"root_tol": 1e-7}}
    report = run_config(cfg, str(tmp_path))
    assert seen == [1e-7] and report["tolerances"]["root_tol"] == 1e-7


def test_bracket_inside_the_flat_set_reports_no_onset(tmp_path):
    # DFU's flat window is [1, ~3.21586]: both brackets start inside it
    dfu = {"family": "grid", "gamma": 3.0, "delta": 0.2}
    cfg = {"model": "renewal", "renewal": dfu,
           "task": {"pressure_curve": {"t_min": 1.5, "t_max": 4.5, "steps": 4},
                    "transitions": {"bracket": [1.5, 2.5]}}}
    report = run_config(cfg, str(tmp_path))
    curve = json.loads((tmp_path / "transitions.json").read_text())["transitions"]
    assert [tr["kind"] for tr in curve] == ["end-of-flat"]
    assert abs(curve[0]["t"] - 3.21586) <= 1e-5
    assert report["outputs"]["transitions"]["flat_interval"] == {
        "t_start": None, "start_bracket": None, "t_end": None, "end_bracket": None}


def test_demo_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_demo("grid-dfu", str(out1))
    run_demo("grid-dfu", str(out2))
    for name in ("curve.csv", "transitions.json", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("name", demo_names())
def test_demo_series_stop_below_the_cap(tmp_path, monkeypatch, name):
    import thermoform.renewal as rn

    series, ends = rn.certified_series, []

    def spy(*args, **kwargs):
        out = series(*args, **kwargs)
        ends.append((out.n_terms, out.tail_method))
        return out

    monkeypatch.setattr(rn, "certified_series", spy)
    run_demo(name, str(tmp_path))
    assert all(n < rn._SERIES_CAP and method != "capped" for n, method in ends)
    if name in ("grid-df", "grid-dfu", "mp"):
        assert ends


def test_demo_names_and_listing():
    assert set(demo_names()) == {"nonmixing", "hofbauer-rows", "grid-df",
                                 "grid-dfu", "chebyshev", "mp",
                                 "base-set-pathology"}
    text = describe_demos()
    for name in demo_names():
        assert name in text


def test_hofbauer_rows_demo(tmp_path):
    out = tmp_path / "rows"
    run_demo("hofbauer-rows", str(out))
    lines = (out / "rows.csv").read_text().strip().splitlines()
    classes = [ln.rsplit(",", 4)[1] for ln in lines[1:]]
    assert classes == ["positive-recurrent", "positive-recurrent",
                       "positive-recurrent", "null-recurrent", "transient"]


def test_base_set_pathology_demo(tmp_path):
    out = tmp_path / "path"
    run_demo("base-set-pathology", str(out))
    z0 = np.loadtxt(out / "base_0" / "zn.csv", delimiter=",", skiprows=1)
    z1 = np.loadtxt(out / "base_1" / "zn.csv", delimiter=",", skiprows=1)
    assert np.all(z0[:, 1] >= 1.0)
    rate = np.polyfit(z1[:, 0], np.log(z1[:, 1]), 1)[0]
    assert rate <= -0.01


def test_base_set_pathology_good_base_is_exact(tmp_path):
    # on [1/2, 1) Z_n is R_n of the renewal recursion, exactly 2^-(n+1) here
    run_demo("base-set-pathology", str(tmp_path))
    _, rows = read_curve(tmp_path / "base_1" / "zn.csv")
    assert [float(r[1]) for r in rows] == [2.0 ** -(n + 1) for n in range(1, 15)]


def test_gnuplot_emission(tmp_path):
    cfg = nonmixing_config()
    run_config(cfg, str(tmp_path / "g"), gnuplot=True)
    script = (tmp_path / "g" / "curve.gp").read_text()
    assert "curve.csv" in script


def run_child(*args):
    """A fresh interpreter that imports the same thermoform, installed or not."""
    src = os.path.dirname(os.path.dirname(thermoform.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_console_entry_point(tmp_path):
    proc = run_child("-m", "thermoform.cli", "list-demos")
    assert proc.returncode == 0
    assert "grid-dfu" in proc.stdout


def test_no_run_loads_scipy(tmp_path):
    # renewal, finite-shift, truncation and periodic-orbit runs all stay on
    # numpy, and on numpy's core: none of them imports numpy.ma (about 11 ms)
    config = {"model": "renewal", "renewal": {"family": "grid", "gamma": 3.0},
              "task": {"classify": {"t": 1.0}}}
    orbits = [{"model": "interval", "interval": DOUBLING,
               "task": {"zn": {"t": 1.0, "n_max": 12, "base": [0.5, 1.0]}}},
              {"model": "interval", "interval": {"kind": "chebyshev"},
               "task": {"gurevich": {"t_values": [-2.0, 0.5], "n_max": 8}}}]
    proc = run_child("-c", f"""
import sys
import numpy as np
import thermoform as tf
import thermoform.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

cli.run_config({config!r}, {str(tmp_path / "r")!r})
print(scipy_modules())
cli.run_config({nonmixing_config()!r}, {str(tmp_path / "f")!r})
s = lambda n: -np.asarray(n, dtype=float)
model = tf.RenewalModel(s, tf.TailEnvelope(-1.0, 0.0, 0.0, 0.0, 1), 0.0, 0.0, 0.0, 0.0, "geom")
shift, pot = tf.finite_truncation(model, 0.3, 200)
tf.solve_rpf(tf.build_transfer_matrix(shift, pot), tol=1e-13)
for i, orbit in enumerate({orbits!r}):
    cli.run_config(orbit, {str(tmp_path)!r} + f"/o{{i}}")
print(scipy_modules())
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"]))
""")
    assert proc.returncode == 0, proc.stderr
    renewal, finite, masked = proc.stdout.splitlines()[-3:]
    assert renewal == "[]"
    assert finite == "[]"
    assert masked == "[]"


def test_finite_shift_curve_runs_in_a_fresh_process(tmp_path):
    cfg = tmp_path / "nonmixing.json"
    cfg.write_text(json.dumps(nonmixing_config()))
    proc = run_child("-m", "thermoform.cli", "run", str(cfg), "-o", str(tmp_path / "nm"))
    assert proc.returncode == 0, proc.stderr
    _, rows = read_curve(tmp_path / "nm" / "curve.csv")
    assert len(rows) == 11
    for row in rows:
        t = float(row[0])
        assert abs(float(row[1]) - (max(-t, -2 * t) + LOG2)) <= 1e-10


@pytest.mark.parametrize("renewal", [{"family": "grid", "gamma": 3.0, "delta": 0.2},
                                     {"family": "grid", "gamma": 3.0}])
def test_curve_transitions_match_transitions_task(tmp_path, renewal):
    # the curve's transitions.json and the transitions task report the same
    # flat interval when they search the same range
    cfg = {"model": "renewal", "renewal": renewal,
           "task": {"pressure_curve": {"t_min": 0.25, "t_max": 4.5, "steps": 6},
                    "transitions": {"bracket": [0.25, 4.5]}}}
    report = run_config(cfg, str(tmp_path))
    curve = json.loads((tmp_path / "transitions.json").read_text())["transitions"]
    flat = report["outputs"]["transitions"]["flat_interval"]
    assert curve[0]["kind"] == "onset-of-flat"
    assert (curve[0]["t"], list(curve[0]["bracket"]), curve[0]["smoothness"]) == (
        flat["t_start"], flat["start_bracket"], flat["smoothness_start"])
    if flat["t_end"] is None:
        assert len(curve) == 1 and flat["end_bracket"] is None
        assert "smoothness_end" not in flat
    else:
        assert len(curve) == 2 and curve[1]["kind"] == "end-of-flat"
        assert (curve[1]["t"], list(curve[1]["bracket"]), curve[1]["smoothness"]) == (
            flat["t_end"], flat["end_bracket"], flat["smoothness_end"])


def test_shipped_schema_passes_its_metaschema():
    from jsonschema.validators import validator_for
    from thermoform.cli import load_schema

    schema = load_schema()
    validator_for(schema).check_schema(schema)


def test_validate_config_checks_the_schema_once(monkeypatch):
    from jsonschema.validators import validator_for
    from thermoform.cli import load_schema

    cls = validator_for(load_schema())
    check_schema, checks = cls.check_schema, []

    def counting(schema, *args, **kwargs):
        checks.append(1)
        return check_schema(schema, *args, **kwargs)

    monkeypatch.setattr(cls, "check_schema", counting)
    for _ in range(3):
        validate_config(nonmixing_config())
    assert len(checks) <= 1
