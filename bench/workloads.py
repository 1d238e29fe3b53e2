"""The benchmark's workloads: their jobs, their inputs and the checks on their outputs.

A job is one CLI invocation or one ``scan`` draw.  Jobs only go through public
entry points: ``ensoseries.cli.main(argv)`` and the library functions the
README documents.  Every check here runs after the timed section.

Why each workload exists:

* ``tables``: the README's comparison calls, one order per call.  Dense ADM
  over ``series`` products dominates; nothing is shared across orders.
* ``sweeps``: the README's three sweeps.  Every solve repeats the previous
  one at order n+1, so only here can prefix reuse or caching show.
* ``trajectories``: RK4 dominates and ADM is absent, so an RK4 change shows
  here and an ADM change must read flat.
* ``scan``: many small unrelated library solves, one per seeded draw.  VIM's
  cap-64 cube and per-call ``series`` overhead dominate; no ADM, RK4 or
  shared prefixes.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import random
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

CLI_JOBS = {
    "tables": {
        "table-coupled": "table --model coupled --eps 0.1 --eps 0.2 --order 60",
        "table-delayed": "table --model delayed --order 25",
        "errors-delayed": (
            "errors --model delayed --sigma 0.25 --eps 0.05 --eps 0.1 --eps 0.15 "
            "--eps 0.2 --t-step 0.1 --order 25"
        ),
    },
    "sweeps": {
        "sweep-t4-dtm": "sweep --table 4 --method dtm --eps 0.05 --min 1 --max 60",
        "sweep-t1-vim": "sweep --table 1 --method vim --eps 0.1 --min 1 --max 30",
        "sweep-t4-adm": "sweep --table 4 --method adm --eps 0.05 --min 1 --max 60",
    },
    "trajectories": {
        "trajectory-coupled": (
            "trajectory --model coupled --eps 0.05 --eps 0.1 --eps 0.2 --order 60 "
            "--t-step 0.05 --t-max 1.0 --methods dtm,rk4"
        ),
        "errors-delayed-rk4": (
            "errors --model delayed --sigma 0.25 --eps 0.05 --eps 0.1 --eps 0.15 "
            "--eps 0.2 --t-step 0.1 --order 25 --oracle rk4 --methods dtm,vim"
        ),
    },
}
WORKLOADS = (*CLI_JOBS, "scan")

# Best truncation order / component count / iterate count the README documents.
SWEEP_BEST = {"sweep-t4-dtm": 13, "sweep-t4-adm": 14, "sweep-t1-vim": 3}

SCAN_DRAWS = 500
SCAN_ORDER = 25
SCAN_VIM_ITERS = 3
SCAN_GRID = tuple(i * 0.05 for i in range(11))


# -- inputs -------------------------------------------------------------------


def scan_draws(seed: int) -> list[tuple[str, dict[str, float]]]:
    """``SCAN_DRAWS`` distinct parameter draws, alternating coupled and delayed.

    The ranges keep every draw inside what all the solvers accept: no draw is
    refused, and ``1 - beta*sigma`` stays at least 0.5.
    """
    rng = random.Random(seed)
    draws = []
    for i in range(SCAN_DRAWS):
        if i % 2 == 0:
            kw = {k: rng.uniform(-1.0, 1.0) for k in ("c", "eta", "gamma", "theta")}
            kw["eps"] = rng.uniform(0.01, 0.5)
            draws.append(("coupled", kw))
            continue
        while True:
            alpha, beta, sigma = (rng.uniform(0.05, 1.0) for _ in range(3))
            if abs(1.0 - beta * sigma) >= 0.5:
                break
        draws.append(("delayed", {"alpha": alpha, "beta": beta, "sigma": sigma,
                                  "eps": rng.uniform(0.01, 0.5)}))
    return draws


def jobs(workload: str, seed: int) -> list[tuple[str, object]]:
    """(name, input) pairs of one pass, in the order the pass runs them.

    The CLI workloads have fixed jobs; the seed only fixes their order.
    """
    if workload == "scan":
        return [(f"draw-{i}", d) for i, d in enumerate(scan_draws(seed))]
    if workload not in CLI_JOBS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    items = [(name, argv.split()) for name, argv in CLI_JOBS[workload].items()]
    random.Random(seed).shuffle(items)
    return items


# -- running one job ----------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI call."""
    from ensoseries import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def run_draw(draw: tuple[str, dict[str, float]]):
    """One scan draw: solve, iterate, evaluate, check residual, closed form."""
    import ensoseries as es

    model, kw = draw
    if model == "coupled":
        p = es.CoupledParams(**kw)
        sol = es.solve_coupled(p, SCAN_ORDER)
        vim = es.vim_solve(p, SCAN_VIM_ITERS)
        values = [(sol.H.eval(t), sol.h.eval(t)) for t in SCAN_GRID]
        exact = None
    else:
        p = es.DelayedParams(**kw)
        sol = es.solve_delayed(p, SCAN_ORDER)
        vim = es.vim_solve(p, SCAN_VIM_ITERS)
        values = [(sol.eval(t),) for t in SCAN_GRID]
        exact = [es.exact_delayed(p, t) for t in SCAN_GRID]
    return sol, vim, values, es.residual_check(sol, p), exact


def runner(workload: str):
    return run_draw if workload == "scan" else run_cli


# -- checks -------------------------------------------------------------------


def load_expected() -> dict[str, tuple[int, bytes]]:
    """Exit code and stdout bytes of every CLI job, recorded from the seed commit."""
    codes = json.loads((EXPECTED_DIR / "exit_codes.json").read_text())
    return {name: (code, (EXPECTED_DIR / f"{name}.csv").read_bytes())
            for name, code in codes.items()}


def best_n(csv_text: str) -> int:
    """The n a sweep marks best."""
    for line in csv_text.splitlines()[1:]:
        n, _, best = line.split(",")
        if best == "1":
            return int(n)
    raise ValueError("no row marked best")


def check_cli(name: str, payload: tuple[int, str], expected) -> str | None:
    """None if the job's exit code and bytes match the recording, else the reason."""
    code, text = payload
    want_code, want = expected[name]
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    got = text.encode()
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        return f"output differs from the recording at byte {at}"
    if name in SWEEP_BEST and best_n(text) != SWEEP_BEST[name]:
        return f"best n {best_n(text)}, expected {SWEEP_BEST[name]}"
    return None


def reference_taylor(model: str, kw: dict[str, float], order: int):
    """Taylor coefficients of H (and h) from the plain recurrence.

    Written independently of the package: the cube's coefficient k is taken
    from an explicit square, ``N_k = sum_i W_i * S_{k-i}``.
    """
    W, V, S = [1.0], [1.0], []
    if model == "delayed":
        denom = 1.0 - kw["beta"] * kw["sigma"]
        a, b = (kw["alpha"] - kw["beta"]) / denom, kw["eps"] / denom
    for k in range(order):
        S.append(sum(W[i] * W[k - i] for i in range(k + 1)))
        n_k = sum(W[i] * S[k - i] for i in range(k + 1))
        if model == "coupled":
            W.append((kw["c"] * W[k] + kw["eta"] * V[k] - kw["eps"] * n_k) / (k + 1))
            V.append((-kw["theta"] * W[k] - kw["gamma"] * V[k]) / (k + 1))
        else:
            W.append((a * W[k] - b * n_k) / (k + 1))
    return (W, V) if model == "coupled" else (W,)


def delayed_radius(kw: dict[str, float]) -> float:
    """Distance from 0 to the nearest complex zero of ``w = H**-2`` (H0 = 1).

    ``w(t) = r + (1 - r) * exp(-2*a*t)`` with ``r = b/a`` vanishes where
    ``exp(-2*a*t) = r/(r - 1)``; H's Taylor series converges inside that disc.
    """
    denom = 1.0 - kw["beta"] * kw["sigma"]
    a, b = (kw["alpha"] - kw["beta"]) / denom, kw["eps"] / denom
    if a == 0.0:
        return 1.0 / (2.0 * abs(b))
    r = b / a
    return abs(cmath.log(r / (r - 1.0))) / (2.0 * abs(a))


def _close(x: float, y: float, rel: float, scale: float = 1.0) -> bool:
    return abs(x - y) <= rel * max(scale, abs(x), abs(y))


def check_draw(draw, payload) -> str | None:
    """None if every output of one scan draw verifies, else the reason."""
    model, kw = draw
    sol, vim, values, residual, exact = payload
    series = (sol.H, sol.h) if model == "coupled" else (sol,)
    iterates = (vim.H, vim.h) if model == "coupled" else (vim,)
    refs = reference_taylor(model, kw, SCAN_ORDER)
    for got, ref, it in zip(series, refs, iterates):
        scale = max(abs(c) for c in ref)
        if len(got.coeffs) != len(ref) or not all(_close(g, r, 1e-12, scale) for g, r in zip(got.coeffs, ref)):
            return "DTM coefficients differ from the plain recurrence"
        if not all(_close(it.coeffs[k], ref[k], 1e-12) for k in range(SCAN_VIM_ITERS + 1)):
            return "3rd VIM iterate differs from DTM through degree 3"
    # residual coefficient k is a difference of terms of size k * W_k
    if residual > 1e-10 * max(1.0, *(k * abs(c) for ref in refs for k, c in enumerate(ref))):
        return f"residual {residual:.3e} too large"
    for t, row in zip(SCAN_GRID, values):
        for got, s in zip(row, series):
            terms = [c * t**k for k, c in enumerate(s.coeffs)]
            if not _close(got, sum(terms), 1e-12, sum(abs(x) for x in terms)):
                return f"series value at t={t} differs from a plain sum of its terms"
    if exact is not None:
        # beyond a third of the radius the order-25 truncation itself shows
        limit = delayed_radius(kw) / 3.0
        for t, row, h in zip(SCAN_GRID, values, exact):
            if t <= limit and not _close(row[0], h, 1e-9):
                return f"closed form differs from the series at t={t} inside the disc"
    return None


def checker(workload: str):
    """Function (name, input, payload) -> None or failure reason."""
    if workload == "scan":
        return lambda name, draw, payload: check_draw(draw, payload)
    expected = load_expected()
    return lambda name, argv, payload: check_cli(name, payload, expected)


def failures(jobs, payloads, check) -> list[list[str]]:
    """[name, reason] of every failed job: a raised exception or a failed check."""
    out = []
    for (name, job), payload in zip(jobs, payloads):
        if isinstance(payload, Exception):
            reason = f"{type(payload).__name__}: {payload}"
        else:
            reason = check(name, job, payload)
        if reason is not None:
            out.append([name, reason])
    return out
