"""Repeat the benchmark over ten seeds and record the baseline.

    python3 perfbench/prove.py

For each workload in BENCHMARK.json this runs `run.py` once per seed in
SEEDS with tracing off, and once more with tracing on, then prints every
end-to-end metric's median and quartile spread ((Q3 - Q1) / median,
quartiles as statistics.quantiles(n=4) gives them) next to a third of its
bound.  It writes perfbench/baseline.json: the machine, the seeds and run
length, the per-workload medians and spreads, and the traced run's per-layer
metrics.  Exit status 1 means some spread is at or above a third of its bound.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(201, 211)


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    record = {"machine": machine(), "run_seconds": seconds, "seeds": list(SEEDS),
              "workloads": {}}
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [_run(workload, s, seconds, 0) for s in SEEDS]
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
        for metric in bench["end_to_end"]:
            name, unit, bound = metric["name"], metric["unit"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            ok = spread < bound / 3
            steady &= ok
            entry["end_to_end"][name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                                         "spread": spread, "values": values}
            print(f"{workload:18s} {name:12s} median {med:10.4f} {unit:3s} spread {spread:6.3f} "
                  f"(bound/3 {bound / 3:.3f}) {'ok' if ok else 'WIDE'}", flush=True)
        traced = _run(workload, SEEDS[0], seconds, 1)
        entry["per_layer_seed"] = SEEDS[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["correct"] &= traced["correct"]
        record["workloads"][workload] = entry
        print(f"{workload:18s} correct={entry['correct']} failed={entry['failed']}/"
              f"{entry['attempted']}", flush=True)
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("steady" if steady else "NOT steady: a spread is at or above a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
