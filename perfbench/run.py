"""thermoform benchmark: seeded workloads, oracle checks, end-to-end and layer metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a source checkout; the package is imported from
`src/`, so nothing needs installing.  A run is a closed loop of rounds, one
load-generating process at a time.  Each round is a fresh interpreter (cold
`lru_cache`s, as for a CLI user) that times its own set-up, runs the round's
job list (see workloads.py) and checks every output.  Round 0 runs the
workload's demo anchors; seeded rounds, all of the same shape, follow until
`--seconds` have passed, and at least MIN_SEEDED of them run.

--trace 0 reports the end-to-end metrics:
  setup_s      median over all rounds of import + first schema load and validation
  wall_s       time to finish a round's job list, averaged over all rounds (the
               anchor round included, so the demos count: total job time / rounds)
  job_p50_s    per-job latency: nearest-rank percentiles over all seeded jobs
  job_p90_s
  peak_rss_mb  largest peak resident set of any round process
The anchors' latencies are printed, not pooled: each is one outsized job.

--trace 1 runs every round twice, untraced and then traced, and reports the
per-layer metrics that BENCHMARK.json lists: counts from round 1, the first
seeded round (they repeat exactly for a seed), times as the median over the
traced seeded rounds, and trace.overhead_s, the median of traced minus
untraced wall_s.  A traced round must give the same result digest as its
untraced twin, and a trace target that is no longer found stops the run.

Metric names, units and workload names come from BENCHMARK.json; `--seconds`
defaults to its run_seconds.

The last line of stdout is the JSON result; everything before it is a
readable summary, including result_digest, the digest of rounds 0 and 1
(verdicts exact, numbers rounded within their enclosures).  Jobs that raise
or fail a check count in `failed` (failed_frac = failed / attempted) and make
`correct` false.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUTROOT = os.path.join(ROOT, ".perfbench")
RUN_LIMIT_S = 170.0
MIN_SEEDED = 2

sys.path.insert(0, HERE)
import tracing  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a job failing)."""


def load_bench() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}")


def _worker(workload: str, seed: int, round_index: int, trace: bool, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "THERMOFORM_THREADS"}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
           str(round_index), "1" if trace else "0", OUTROOT]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the round could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"round {round_index} of {workload} exceeded the run limit")
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"round {round_index} of {workload} exited {proc.returncode}:\n{tail}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["missing"]:
        # an untraced layer would read 0, which looks like a gain
        raise BenchError(f"trace targets not found: {', '.join(result['missing'])}")
    return result


def _rank(values, share: float) -> float:
    """Nearest-rank percentile: an observed value, with at least share of samples at or below."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _problems(rounds) -> list[str]:
    return [f"{job['id']}: {p}" for rnd in rounds for job in rnd["jobs"] for p in job["problems"]]


def _end_to_end(rounds) -> dict:
    latencies = [x for r in rounds[1:] for x in r["latencies"]]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), len(rounds)),
        "wall_s": (statistics.fmean(r["wall_s"] for r in rounds), len(rounds)),
        "job_p50_s": (_rank(latencies, 0.5), len(latencies)),
        "job_p90_s": (_rank(latencies, 0.9), len(latencies)),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in rounds), len(rounds)),
    }


def _per_layer(pairs, bench: dict) -> dict:
    seeded = pairs[1:]
    values = {}
    for metric in bench["per_layer"]:
        name, unit = metric["name"], metric["unit"]
        if name == "trace.overhead_s":
            diffs = [t["wall_s"] - p["wall_s"] for p, t in seeded]
            values[name] = (statistics.median(diffs), len(diffs))
        elif unit == "s":
            values[name] = (statistics.median(t["layer"].get(name, 0.0) for _, t in seeded),
                            len(seeded))
        else:
            values[name] = (seeded[0][1]["layer"].get(name, 0), 1)
    return values


def run(bench: dict, workload: str, seed: int, seconds: float,
        trace: bool) -> tuple[dict, dict]:
    if not os.path.isfile(os.path.join(ROOT, "src", "thermoform", "__init__.py")):
        raise BenchError(f"no thermoform sources under {os.path.join(ROOT, 'src')}")
    start = time.monotonic()
    hard_deadline = start + RUN_LIMIT_S
    rounds, pairs = [], []
    round_index = 0
    while round_index <= MIN_SEEDED or time.monotonic() < start + seconds:
        plain = _worker(workload, seed, round_index, False, hard_deadline)
        rounds.append(plain)
        if trace:
            pairs.append((plain, _worker(workload, seed, round_index, True, hard_deadline)))
        round_index += 1

    # a traced job whose verdicts differ from its untraced twin counts as failed
    for plain, traced in pairs:
        for a, b in zip(plain["jobs"], traced["jobs"]):
            if a["digest"] != b["digest"]:
                b["problems"].append(f"traced digest {b['digest']} != untraced {a['digest']}")
    executed = rounds + [t for _, t in pairs]
    problems = _problems(executed)
    attempted = sum(len(r["jobs"]) for r in executed)
    failed = sum(1 for r in executed for j in r["jobs"] if j["problems"])
    metrics = _per_layer(pairs, bench) if trace else _end_to_end(rounds)
    info = {"rounds": round_index, "attempted": attempted, "failed": failed,
            "problems": problems,
            "result_digest": _digest([rounds[0]["digest"], rounds[1]["digest"]]),
            "dominant": {label: tracing.dominant_layers(pairs[i][1]["layer"])
                         for i, label in ((1, "seeded round 1"), (0, "anchors"))} if pairs else {},
            "anchors": {j["anchor"]: x for j, x in zip(rounds[0]["jobs"], rounds[0]["latencies"])},
            "layer_keys": {k for _, t in pairs[1:] for k in t["layer"]}}
    return metrics, info


def _digest(parts) -> str:
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()[:16]


def _units(bench: dict) -> dict:
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def _summary(bench: dict, workload: str, seed: int, metrics: dict, info: dict) -> list[str]:
    units = _units(bench)
    lines = [f"workload {workload}  seed {seed}  rounds {info['rounds']}  "
             f"jobs {info['attempted']}"]
    lines += [f"  anchor {name} {x:.3f} s" for name, x in info["anchors"].items()]
    for name, (value, n) in metrics.items():
        lines.append(f"  {name:48s} {value:14.6g} {units[name]:10s} n={n}")
    frac = info["failed"] / info["attempted"] if info["attempted"] else math.nan
    lines.append(f"  {'failed_frac':48s} {frac:14.6g} {'ratio':10s} "
                 f"n={info['attempted']} ({info['failed']} failed)")
    lines.append(f"  result_digest {info['result_digest']}")
    lines += [f"  FAILED {p}" for p in info["problems"][:20]]
    for label, layers in info["dominant"].items():
        lines.append(f"  dominant layers by self time, {label}: " + ", ".join(
            f"{k} {v:.3f}s" for k, v in layers if v > 0))
    return lines


def _result_line(bench: dict, metrics: dict, info: dict) -> str:
    units = _units(bench)
    return json.dumps({
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    })


def self_test(bench: dict) -> int:
    """Exact repeat of counts and digests, every listed layer recorded, and
    refusal without sources."""
    ok = True
    units = _units(bench)
    recorded = set()
    for workload in (w["name"] for w in bench["workloads"]):
        seen = []
        for _ in range(2):
            metrics, info = run(bench, workload, 7, 0, True)
            counts = {k: v for k, (v, _) in metrics.items() if units[k] != "s"}
            seen.append((counts, info["result_digest"], info["problems"]))
            recorded |= info["layer_keys"]
        same = seen[0][:2] == seen[1][:2]
        clean = not seen[0][2] and not seen[1][2]
        print(f"self-test: {workload}: counts and digest repeat={same}, "
              f"traced digest equals untraced and checks pass={clean}")
        if not same:
            diff = {k: (v, seen[1][0].get(k)) for k, v in seen[0][0].items()
                    if seen[1][0].get(k) != v}
            print(f"  differing: {diff}")
        ok &= same and clean
    # a layer that no workload reaches any more would read 0 on every run
    unrecorded = [m["name"] for m in bench["per_layer"]
                  if m["name"] != "trace.overhead_s" and m["name"] not in recorded]
    print(f"self-test: every per-layer metric recorded by some workload={not unrecorded}"
          + (f" (never recorded: {', '.join(unrecorded)})" if unrecorded else ""))
    ok &= not unrecorded
    bare = os.path.join(OUTROOT, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "periodic-orbits",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    refused = proc.returncode != 0 and not proc.stdout.strip()
    shutil.rmtree(bare, ignore_errors=True)
    print(f"self-test: without sources exits {proc.returncode} and prints no result={refused}")
    ok &= refused
    print("self-test:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    try:
        bench = load_bench()
        parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
        parser.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]])
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        parser.add_argument("--self-test", action="store_true")
        args = parser.parse_args(argv)
        if args.self_test:
            return self_test(bench)
        if args.workload is None:
            parser.error("--workload is required")
        metrics, info = run(bench, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for line in _summary(bench, args.workload, args.seed, metrics, info):
        print(line)
    print(_result_line(bench, metrics, info))
    return 0


if __name__ == "__main__":
    sys.exit(main())
