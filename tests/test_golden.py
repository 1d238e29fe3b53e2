"""The recorded CLI outputs: every benchmark job must reproduce its bytes.

``bench/expected/`` holds the exit code and stdout of each CLI job the
benchmark runs, and ``bench/workloads.CLI_JOBS`` holds their arguments.  Each
job runs in-process here, so a change that alters a single output byte fails
the package tests, not only a benchmark run.  Nothing under ``bench/`` is
written.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from ensoseries.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
EXPECTED = BENCH / "expected"


def _cli_jobs():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: argv for jobs in module.CLI_JOBS.values() for name, argv in jobs.items()}


JOBS = _cli_jobs()
EXIT_CODES = json.loads((EXPECTED / "exit_codes.json").read_text())


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_cli_job_reproduces_its_recording(name, capsys):
    code = main(JOBS[name].split())
    assert code == EXIT_CODES[name]
    assert capsys.readouterr().out.encode() == (EXPECTED / f"{name}.csv").read_bytes()
