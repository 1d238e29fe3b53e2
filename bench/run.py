"""The ensoseries benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {tables,sweeps,trajectories,scan} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every pass runs in a fresh interpreter
(``bench/worker.py``) that imports the package from ``src`` and drives only
public entry points, one job after another.

With ``--trace 0`` the run repeats untraced passes for ``--seconds`` (and at
least ``MIN_PASSES`` times), times set-up between them, and reports the median
of each end-to-end metric.  The machine is shared, and how fast it runs the
same code drifts by up to a third within minutes.  So the run also times the
package as it was when the benchmark was defined, pinned as a copy under
``bench/pinned/src``: a pinned pass runs before the first pass and after
every pass, and each pass's seconds and set-up seconds are divided by those
of each of the two pinned passes around it.  ``wall_s``, ``cpu_s`` and
``setup_s`` are the medians of those ratios times ``PINNED_SECONDS``, the
pinned copy's own medians on the machine of ``bench/BASELINE.md``: seconds at
that machine's speed.  The raw medians of both sides are printed too and kept
in the run record.

With ``--trace 1`` it alternates untraced and traced passes, reports the
per-layer metrics of the traced ones and checks that their computed counts
repeat exactly.  Every output is checked
after its pass; a failed job counts against ``error_rate``.

Human-readable lines come first, with units, quartiles and sample counts;
the last line is one JSON object.  Each run also writes its record (git sha,
Python, nproc, CPU model, seed, samples per metric) under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("tables", "sweeps", "trajectories", "scan")
# A sweeps pass and its pinned pass take about 14 s together; the median of
# fewer than three of them is carried by a single slow pass.
MIN_PASSES = 3
PASS_TIMEOUT_S = 150

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# The package as the benchmark was defined against it; never edited.
PINNED_ROOT = HERE / "pinned"
# Medians of the pinned copy's raw seconds on the machine of bench/BASELINE.md.
# They only set the scale, so that scaled seconds read as seconds there.
PINNED_SECONDS = {
    "tables": {"wall_s": 1.31, "cpu_s": 1.30},
    "sweeps": {"wall_s": 7.37, "cpu_s": 7.29},
    "trajectories": {"wall_s": 0.915, "cpu_s": 0.90},
    "scan": {"wall_s": 1.08, "cpu_s": 1.07},
    "setup_s": 0.10,
}


class BenchError(RuntimeError):
    """The benchmark could not measure: no package, or a worker died."""


def _launch(root: Path, *args: str) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line: the process and the seconds that took."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), str(root), *args],
        cwd=root, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        _, err = proc.communicate()
        raise BenchError(f"worker did not get ready: {line!r} {err.strip()[-2000:]}")
    return proc, ready_s


def _finish(proc: subprocess.Popen) -> str:
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def setup_once(root: Path) -> float:
    """Seconds from launching an interpreter until the package and CLI are imported."""
    proc, ready_s = _launch(root, "setup")
    _finish(proc)
    return ready_s


def run_pass(root: Path, workload: str, seed: int, trace: bool, run_id: str) -> tuple[float, dict]:
    """The pass worker's set-up seconds and its result."""
    proc, ready_s = _launch(root, "pass", workload, str(seed), "1" if trace else "0", run_id)
    lines = _finish(proc).splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return ready_s, json.loads(lines[-1])


def summary(values: list[float], unit: str) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"value": statistics.median(values), "unit": unit, "q1": q1, "q3": q3, "samples": len(values)}


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout; None outside a git repository or without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            # look for a repository in the checkout only, not in the directories above it
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(root: Path, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "load": "closed loop, one client, one process per pass",
    }


def untraced(root: Path, args) -> tuple[dict, list[dict], dict]:
    """Untraced passes for ``--seconds``, each between two pinned passes.

    Each pass contributes two set-up samples: its own worker's and one of a
    set-up-only launch just before it, so the samples span the whole run.
    A pass and its set-up samples are divided by each of the two pinned
    passes around them.  Returns the scaled metrics, the passes and the raw
    medians.
    """
    setup_once(root)  # untimed: compiles the bytecode
    setup_once(PINNED_ROOT)
    setup, passes, pinned = [], [], [pinned_pass(args, 0)]
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        before = setup_once(root)
        ready_s, result = run_pass(root, args.workload, args.seed, False, f"{args.workload}-s{args.seed}-p{len(passes)}")
        setup.append((before, ready_s))
        passes.append(result)
        pinned.append(pinned_pass(args, len(passes)))
    # every pass against each pinned pass next to it: a single slow pass then
    # moves at most two of the ratios, and their median stays put
    sides = [(p, q) for i, p in enumerate(passes) for q in pinned[i:i + 2]]
    ref = PINNED_SECONDS[args.workload]
    scaled = {
        "wall_s": [p["wall_s"] / q["wall_s"] * ref["wall_s"] for p, q in sides],
        "cpu_s": [p["cpu_s"] / q["cpu_s"] * ref["cpu_s"] for p, q in sides],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "setup_s": [x / q["setup_s"] * PINNED_SECONDS["setup_s"]
                    for i, pair in enumerate(setup) for x in pair for q in pinned[i:i + 2]],
    }
    metrics = {name: summary(scaled[name], unit) for name, unit in E2E_UNITS.items()}
    raw_medians = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(x for pair in setup for x in pair),
    }
    for k in pinned[0]:
        raw_medians[f"pinned.{k}"] = statistics.median(q[k] for q in pinned)
    return metrics, passes, raw_medians


def pinned_pass(args, i: int) -> dict:
    """Seconds of one pass of the pinned copy, whose outputs must verify.

    Its ``setup_s`` is the mean of two launches, as a pass has two set-up samples.
    """
    before = setup_once(PINNED_ROOT)
    ready_s, result = run_pass(PINNED_ROOT, args.workload, args.seed, False, f"{args.workload}-s{args.seed}-b{i}")
    if result["failures"]:
        raise BenchError(f"the pinned copy failed its own checks: {result['failures'][:3]}")
    return {"setup_s": (before + ready_s) / 2, "wall_s": result["wall_s"], "cpu_s": result["cpu_s"]}


def traced(root: Path, args) -> tuple[dict, list[dict], list[str]]:
    """Alternate untraced and traced passes; per-layer metrics from the traced ones."""
    plain, traced_passes = [], []
    start = time.perf_counter()
    while len(traced_passes) < 2 or time.perf_counter() - start < args.seconds:
        i = len(plain)
        plain.append(run_pass(root, args.workload, args.seed, False, f"{args.workload}-s{args.seed}-u{i}")[1])
        traced_passes.append(run_pass(root, args.workload, args.seed, True, f"{args.workload}-s{args.seed}-t{i}")[1])
    extra = []
    if args.workload != "scan":
        # the fixed CLI jobs must count the same whatever order the seed gives them
        other = args.seed + 1
        extra.append(run_pass(root, args.workload, other, True, f"{args.workload}-s{other}-t0")[1])
    problems = []
    first = traced_passes[0]["counts"]
    for p in traced_passes[1:] + extra:
        diff = sorted(k for k in set(p["counts"]) | set(first) if p["counts"].get(k) != first.get(k))
        if diff:
            problems.append(f"computed counts differ between traced passes: {diff}")
    names = traced_passes[0]["layers"]
    metrics = {name: summary([p["layers"][name] for p in traced_passes], _layer_unit(name)) for name in names}
    overhead = (statistics.median(p["wall_s"] for p in traced_passes)
                - statistics.median(p["wall_s"] for p in plain))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s", "samples": len(traced_passes)}
    return metrics, plain + traced_passes + extra, problems


def _layer_unit(name: str) -> str:
    if name.endswith("_share"):
        return "%"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ensoseries" / "__init__.py").is_file():
        print(f"error: no ensoseries package under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    record = run_record(root, args)
    try:
        if args.trace:
            metrics, passes, problems = traced(root, args)
            raw_medians = {}
        else:
            metrics, passes, raw_medians = untraced(root, args)
            problems = []
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for key, value in record.items():
        print(f"# {key}: {value}")
    for name, m in metrics.items():
        spread = f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}" if "q1" in m else ""
        # counts come from arguments and results, not clocks, and repeat exactly
        kind = "  computed" if m["unit"] in ("count", "ratio", "bytes") else ""
        print(f"{name:34s} {m['value']:.6g} {m['unit']}{spread}  n={m['samples']}{kind}")
    for name, value in raw_medians.items():
        print(f"# raw {name}: {value:.6g} s  (median as clocked)")
    print(f"{'error_rate':34s} {len(failures) / attempted:.6g} ratio  ({len(failures)} of {attempted} jobs)")
    for name, reason in failures[:20]:
        print(f"# failed {name}: {reason}")
    for problem in problems:
        print(f"# {problem}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    plain = [p for p in passes if "layers" not in p]
    job_s = {name: statistics.median(p["job_s"][name] for p in plain) for name in plain[0]["job_s"]}
    record.update(metrics=metrics, raw_medians=raw_medians, job_s=job_s, attempted=attempted, failures=failures, problems=problems)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
