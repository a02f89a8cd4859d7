import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import thermoform
from thermoform.cli import main, run_config, thread_count, validate_config
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


def test_demo_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_demo("grid-dfu", str(out1))
    run_demo("grid-dfu", str(out2))
    for name in ("curve.csv", "transitions.json", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


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


def test_threads_env(monkeypatch, tmp_path):
    monkeypatch.setenv("THERMOFORM_THREADS", "4")
    assert thread_count() == 4
    cfg = {"model": "renewal",
           "renewal": {"family": "grid", "gamma": 3.0},
           "task": {"pressure_curve": {"t_min": 0.5, "t_max": 2.0, "steps": 7}}}
    out_par = tmp_path / "par"
    run_config(cfg, str(out_par))
    monkeypatch.setenv("THERMOFORM_THREADS", "1")
    out_seq = tmp_path / "seq"
    run_config(cfg, str(out_seq))
    assert (out_par / "curve.csv").read_bytes() == (out_seq / "curve.csv").read_bytes()
    monkeypatch.setenv("THERMOFORM_THREADS", "zero")
    with pytest.raises(ValueError):
        thread_count()


def test_gnuplot_emission(tmp_path):
    cfg = nonmixing_config()
    run_config(cfg, str(tmp_path / "g"), gnuplot=True)
    script = (tmp_path / "g" / "curve.gp").read_text()
    assert "curve.csv" in script


def test_console_entry_point(tmp_path):
    # the child imports the same thermoform as this process, installed or not
    src = os.path.dirname(os.path.dirname(thermoform.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "thermoform.cli", "list-demos"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "grid-dfu" in proc.stdout
