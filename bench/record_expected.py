"""Record the expected exit code and stdout of every CLI job of the benchmark.

    python3 bench/record_expected.py

Run from the root of a checkout of the commit whose outputs are the reference.
The CLI's output must stay byte-identical across later changes, so this is
only rerun when that contract itself changes.
"""

import json
import sys

sys.path.insert(0, "src")

import workloads  # noqa: E402

codes = {}
for jobs in workloads.CLI_JOBS.values():
    for name, argv in jobs.items():
        code, text = workloads.run_cli(argv.split())
        (workloads.EXPECTED_DIR / f"{name}.csv").write_bytes(text.encode())
        codes[name] = code
(workloads.EXPECTED_DIR / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")
print(json.dumps(codes))
