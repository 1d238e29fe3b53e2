"""One fresh interpreter of the benchmark: import the package, then set up or run a pass.

    python3 bench/worker.py ROOT setup
    python3 bench/worker.py ROOT pass WORKLOAD SEED TRACE RUN_ID

``ROOT`` is the checkout; the package is imported from ``ROOT/src``.  The
worker prints ``ready`` as soon as ``ensoseries`` and its CLI are imported.
In ``pass`` mode it then runs every job of the workload once, closed loop
(each job starts when the previous one ends), times the pass, checks every
output after the timer stops, and prints one JSON line.
"""

import os
import sys


def measure(jobs, run) -> tuple[list, dict]:
    """Run every job once, in order; return the payloads and the pass's measurements.

    A job that raises gets its exception as payload.  ``cpu_s`` and
    ``peak_rss_mb`` include the child processes the pass started and waited
    for, so work moved into a process pool still counts.
    """
    import resource
    import time

    def usage():
        return [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]

    def cpu(us):
        return sum(u.ru_utime + u.ru_stime for u in us)

    payloads, job_s = [], {}
    clock = time.perf_counter
    usage0, start = usage(), clock()
    for name, job in jobs:
        job_start = clock()
        try:
            payloads.append(run(job))
        except Exception as exc:  # a traceback fails the job, not the pass
            payloads.append(exc)
        job_s[name] = clock() - job_start
    wall = clock() - start
    usage1 = usage()
    return payloads, {
        "wall_s": wall,
        "cpu_s": cpu(usage1) - cpu(usage0),
        "peak_rss_mb": max(u.ru_maxrss for u in usage1) / 1024.0,
        "attempted": len(jobs),
        "job_s": job_s,
    }


def run_pass(workload: str, seed: int, trace: bool, run_id: str) -> dict:
    from pathlib import Path

    import tracing
    import workloads

    jobs = workloads.jobs(workload, seed)
    tracer = None
    if trace:
        tracer = tracing.Tracer(run_id)
        tracing.install(tracer)
    payloads, result = measure(jobs, workloads.runner(workload))
    if tracer is not None:
        if workload != "scan":
            tracer.counts["cli.output_bytes"] = sum(len(p[1].encode()) for p in payloads if isinstance(p, tuple))
        result["layers"] = tracing.layer_metrics(tracer, result["wall_s"])
        result["counts"] = dict(tracer.counts)
        tracer.write(Path(__file__).resolve().parent / "out" / "trace" / f"{run_id}.csv.gz")

    result["failures"] = workloads.failures(jobs, payloads, workloads.checker(workload))
    return result


def main(argv: list[str]) -> None:
    src = os.path.realpath(os.path.join(argv[1], "src"))
    sys.path.insert(0, src)

    import ensoseries
    import ensoseries.cli  # noqa: F401

    if not os.path.realpath(ensoseries.__file__).startswith(src + os.sep):
        sys.exit(f"ensoseries was imported from {ensoseries.__file__}, not from {src}")
    print("ready", flush=True)

    if argv[2] == "pass":
        import json

        workload, seed, trace, run_id = argv[3], int(argv[4]), argv[5] == "1", argv[6]
        print(json.dumps(run_pass(workload, seed, trace, run_id)), flush=True)


if __name__ == "__main__":
    main(sys.argv)
