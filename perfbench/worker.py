"""One round of one workload in a fresh interpreter.

    python3 perfbench/worker.py <workload> <seed> <round> <trace 0|1> <outroot>

Job files go to <outroot>/work/<tag> and are removed at the end; a traced
round writes its spans to <outroot>/spans/<tag>.json.gz.

Set-up is timed first, before anything else imports numpy or thermoform:
`import thermoform` plus the first schema load and validation, the cost
every `thermoform` invocation pays.  Then the round's jobs run back to back
(timed one by one and as a whole), and only after the last one are their
outputs checked and digested.  The result is one JSON object on stdout;
in a traced round its `missing` lists trace targets that were not found.
"""

import json
import os
import resource
import shutil
import sys
import time
import traceback

SETUP_CONFIG = {"model": "renewal", "renewal": {"family": "grid"},
                "task": {"classify": {"t": 1.0}}}


def main(argv) -> int:
    workload, seed, round_index, trace, outroot = argv
    seed, round_index, trace = int(seed), int(round_index), trace == "1"
    tag = f"{workload}-s{seed}-r{round_index}-t{int(trace)}"
    workdir = os.path.join(outroot, "work", tag)

    t0 = time.perf_counter()
    import thermoform  # noqa: F401
    from thermoform import cli
    cli.validate_config(SETUP_CONFIG)
    setup_s = time.perf_counter() - t0

    import tracing
    import workloads

    jobs = workloads.make_round(workload, seed, round_index)
    tracer, missing = None, []
    if trace:
        tracer = tracing.Tracer()
        missing = tracing.install(tracer)

    outputs, latencies, errors = [], [], []
    wall_start = time.perf_counter()
    for i, job in enumerate(jobs):
        run = workloads.KINDS[job["kind"]][0]
        if tracer is not None:
            tracer.job = i
        start = time.perf_counter()
        try:
            out = run(job, os.path.join(workdir, job["id"]))
            error = None
        except Exception as exc:  # a failed job is counted, never fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        latencies.append(time.perf_counter() - start)
        outputs.append(out)
        errors.append(error)
    wall_s = time.perf_counter() - wall_start

    layer = None
    if tracer is not None:
        tracer.paused = True
        layer = tracing.aggregate(tracer.spans)
        tracer.dump(os.path.join(outroot, "spans", f"{tag}.json.gz"))

    results = []
    for job, out, error in zip(jobs, outputs, errors):
        _, check, verdict = workloads.KINDS[job["kind"]]
        problems, job_digest = ([error] if error else []), None
        if out is not None:
            try:
                problems += check(job, out)
                job_digest = workloads.digest(verdict(job, out))
            except Exception as exc:
                problems.append(f"check raised {type(exc).__name__}: {exc}")
        results.append({"id": job["id"], "anchor": job["anchor"], "problems": problems,
                        "digest": job_digest})
    shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "latencies": latencies,
        "jobs": results,
        "digest": workloads.digest([r["digest"] for r in results]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layer": layer,
        "missing": missing,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
