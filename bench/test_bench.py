"""Tests of the benchmark itself.

    python3 -m pytest bench -q

Run from the root of a checkout; the package is imported from ``src``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_mac_matches_hand_counts():
    # cap 0: a0*b0; cap 1: adds a0*b1, a1*b0; cap 2: adds three more
    assert [tracing.mac(cap) for cap in range(3)] == [1, 3, 6]


def test_useful_pairs_match_hand_counts():
    # (1 + t) * t at cap 2: only a0*b1 and a1*b1 have two non-zero factors
    assert tracing.useful_pairs((1.0, 1.0, 0.0), (0.0, 1.0, 0.0)) == 2
    assert tracing.useful_pairs((1.0, 2.0, 3.0), (4.0, 5.0, 6.0)) == tracing.mac(2)
    # monomials: t * t lands inside cap 3, t^2 * t^2 falls above it
    assert tracing.useful_pairs((0.0, 1.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0)) == 1
    assert tracing.useful_pairs((0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 1.0, 0.0)) == 0


def test_self_time_is_duration_minus_child_coverage():
    tracer = tracing.Tracer("r")
    tracer.spans = [
        ("adm.adm_solve_delayed", 0.0, 10.0, -1, "r"),
        ("series.cauchy_mul", 1.0, 4.0, 0, "r"),
        ("series.scale", 2.0, 3.0, 1, "r"),
        ("series.cauchy_mul", 5.0, 6.0, 0, "r"),
    ]
    assert tracer.self_times() == {"adm.adm_solve_delayed": 6.0, "series.cauchy_mul": 3.0, "series.scale": 1.0}
    assert tracer.covered() == 10.0


def test_scan_inputs_repeat_for_a_seed_and_differ_across_seeds():
    draws = workloads.scan_draws(3)
    assert draws == workloads.scan_draws(3)
    assert draws != workloads.scan_draws(4)
    assert len({repr(d) for d in draws}) == len(draws) == workloads.SCAN_DRAWS
    assert [m for m, _ in draws[:4]] == ["coupled", "delayed", "coupled", "delayed"]


def test_cli_jobs_are_fixed_and_the_seed_only_orders_them():
    for workload in workloads.CLI_JOBS:
        assert sorted(workloads.jobs(workload, 1)) == sorted(workloads.jobs(workload, 2))


def test_recorded_sweeps_give_the_readme_best_n():
    expected = workloads.load_expected()
    for name, n in workloads.SWEEP_BEST.items():
        assert workloads.best_n(expected[name][1].decode()) == n


def test_one_corrupted_expected_byte_raises_error_rate():
    expected = workloads.load_expected()
    jobs = workloads.jobs("tables", 0)
    payloads = [(expected[name][0], expected[name][1].decode()) for name, _ in jobs]
    check = workloads.checker("tables")
    assert workloads.failures(jobs, payloads, check) == []

    code, data = expected["table-delayed"]
    corrupted = dict(expected, **{"table-delayed": (code, data[:40] + bytes([data[40] ^ 1]) + data[41:])})
    failed = workloads.failures(jobs, payloads, lambda n, j, p: workloads.check_cli(n, p, corrupted))
    assert [name for name, _ in failed] == ["table-delayed"]
    assert "byte 40" in failed[0][1]


def test_no_refusals_at_the_default_seed():
    jobs = workloads.jobs("scan", 0)
    payloads = []
    for _, draw in jobs:
        try:
            payloads.append(workloads.run_draw(draw))
        except Exception as exc:
            payloads.append(exc)
    assert workloads.failures(jobs, payloads, workloads.checker("scan")) == []


def test_cpu_s_counts_child_processes():
    # a pass that moves its work into a child process must not read cheaper
    burn = "import time\nend = time.process_time() + 0.3\nwhile time.process_time() < end: pass"
    payloads, result = worker.measure(
        [("burn", burn)], lambda code: subprocess.run([sys.executable, "-c", code], check=True).returncode
    )
    assert payloads == [0]
    assert result["cpu_s"] >= 0.3


def test_traced_pass_counts_rk4_stages_and_verifies():
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(ROOT), "pass", "trajectories", "0", "1", "test-trace"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["failures"] == []
    counts = result["counts"]
    assert counts["models.rhs.calls"] == 4 * counts["oracle.rk4.steps"] > 0
    assert result["layers"]["oracle.self_share"] > 50.0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == [*result["layers"], "trace.overhead_s"]


def test_pinned_copy_passes_its_checks():
    # the pinned passes that scale the timings must run the same jobs and verify
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(HERE / "pinned"), "pass", "trajectories", "0", "0", "test-pinned"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["failures"] == [] and result["attempted"] == 2


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tables", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
