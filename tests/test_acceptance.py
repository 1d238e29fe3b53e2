"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion.  Three literal sub-clauses concerning the coupled-model tables and
table 4 at order 40 are encoded as strict expected failures: the bundled
benchmark columns turn out to be order-13 truncation snapshots (and table 2's
values were generated with gamma = 2, not its stated gamma = 1), so no
correct implementation can match them at order 25/40 to 1e-6.  The sweep
subcommand recovers the snapshot order and reproduces every column to 1e-5 or
far better; see notes in the repository root README for the full analysis.
"""

import random
import struct

import pytest

from ensoseries import (
    CoupledParams,
    DelayedParams,
    SeriesPoly,
    SolutionPair,
    adm_solve_coupled,
    adm_solve_delayed,
    exact_delayed,
    residual_check,
    rk4_values,
    solve_coupled,
    solve_delayed,
    vim_solve,
)
from ensoseries.cli import main as cli_main
from ensoseries.dtm import transform_coupled, transform_delayed
from ensoseries.reference import load_table
from ensoseries.vim import vim_iterates
from conftest import ADM_K_MAX, adm_dtm_draws, draw_coupled, draw_delayed, draw_until


def report(criterion, detail, ok=True):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


def run_sweep(tmp_path, table, method, eps, lo, hi):
    out = tmp_path / f"sweep_{table}_{method}_{eps}_{lo}_{hi}.csv"
    code = cli_main([
        "sweep", "--table", str(table), "--method", method, "--eps", str(eps),
        "--min", str(lo), "--max", str(hi), "--out", str(out),
    ])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    devs = {int(n): float(dev) for n, dev, _ in rows}
    best_n = next(int(n) for n, _, flag in rows if flag == "1")
    return devs, best_n


# ----------------------------------------------------------------------
# 1. Exact-oracle reproduction
# ----------------------------------------------------------------------


def test_criterion_1_exact_oracle_reproduction():
    # validation gate first: closed form against RK4 at step 1e-4 on [0, 2]
    gate_grid = [0.1 * i for i in range(21)]
    for number in (3, 4):
        table = load_table(number)
        for eps in table.eps_values:
            p = table.params(eps)
            rk = rk4_values(p, gate_grid, step=1e-4)
            gate = max(abs(exact_delayed(p, t) - s[0]) for t, s in zip(gate_grid, rk))
            assert gate <= 1e-8, f"RK4 gate failed for table {number}, eps={eps}: {gate}"

    worst = 0.0
    for number in (3, 4):
        table = load_table(number)
        for eps in table.eps_values:
            p = table.params(eps)
            for t, expected in zip(table.grid, table.column("exact", eps)):
                worst = max(worst, abs(exact_delayed(p, t) - expected))
    report(1, f"24/24 exact entries within 5e-9 (worst {worst:.2e}); RK4 gate passed", worst <= 5e-9)
    assert worst <= 5e-9


# ----------------------------------------------------------------------
# 2. DTM table reproduction, delayed model
# ----------------------------------------------------------------------


def test_criterion_2_dtm_delayed_reproduction(tmp_path):
    # table 3 at order 25: every entry, well inside the stated t <= 1.6 scope
    table3 = load_table(3)
    worst3 = 0.0
    for eps in table3.eps_values:
        series = solve_delayed(table3.params(eps), 25)
        for t, expected in zip(table3.grid, table3.column("dtm", eps)):
            worst3 = max(worst3, abs(series.eval(t) - expected))
    assert worst3 <= 1e-6

    # table 4: the bundled column is a finite-order snapshot; the sweep must
    # find an order reproducing the whole column to 1e-5
    table4 = load_table(4)
    recovered = {}
    for eps in table4.eps_values:
        devs, best_n = run_sweep(tmp_path, 4, "dtm", eps, 1, 60)
        recovered[eps] = (best_n, devs[best_n])
        assert devs[best_n] <= 1e-5, f"table 4 eps={eps}: best sweep dev {devs[best_n]}"

    # converged series values approach the exact column, not the snapshot
    for eps in table4.eps_values:
        p = table4.params(eps)
        series = solve_delayed(p, 40)
        t = table4.grid[-1]
        gap_series = abs(series.eval(t) - exact_delayed(p, t))
        gap_bundle = abs(table4.column("dtm", eps)[-1] - exact_delayed(p, t))
        print(
            f"[acceptance]   table 4 eps={eps} at t={t}: converged series is "
            f"{gap_series:.2e} from exact; bundled column is {gap_bundle:.2e} away"
        )
        assert gap_series < gap_bundle

    detail = ", ".join(
        f"eps={eps}: order {n} dev {d:.2e}" for eps, (n, d) in recovered.items()
    )
    report(2, f"table 3 worst {worst3:.2e} at order 25; table 4 sweep: {detail}")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "bundled table 4's dtm column is an order-13 truncation snapshot: its own "
        "truncation error is already 2.8e-6 at t=1.2 and 1.5e-4 at t=1.6, so the "
        "converged order-40 series cannot match it to 1e-6 there (the sweep test "
        "reproduces the column to 5e-9 at order 13 instead)"
    ),
)
def test_criterion_2_literal_table4_at_order_40():
    table4 = load_table(4)
    worst = 0.0
    for eps in table4.eps_values:
        series = solve_delayed(table4.params(eps), 40)
        for t, expected in zip(table4.grid, table4.column("dtm", eps)):
            if t <= 1.6:
                worst = max(worst, abs(series.eval(t) - expected))
    report(2, f"literal order-40 match of table 4 for t <= 1.6 (worst {worst:.2e})", worst <= 1e-6)
    assert worst <= 1e-6


# ----------------------------------------------------------------------
# 3. DTM table reproduction, coupled model
# ----------------------------------------------------------------------


def test_criterion_3_dtm_coupled_reproduction(tmp_path):
    # table 1: sweep recovers the snapshot order for both eps columns
    table1 = load_table(1)
    recovered = {}
    for eps in table1.eps_values:
        devs, best_n = run_sweep(tmp_path, 1, "dtm", eps, 1, 60)
        recovered[eps] = (best_n, devs[best_n])
        assert devs[best_n] <= 1e-6, f"table 1 eps={eps}: best sweep dev {devs[best_n]}"

    # RK4 cross-validation of the engine at converged order, inside the
    # series' convergence region (radius ~1.38 for eps=0.1, ~1.08 for 0.2)
    for eps, t_ok in ((0.1, 1.0), (0.2, 0.8)):
        p = table1.params(eps)
        pair = solve_coupled(p, 60)
        grid = [t for t in table1.grid if t <= t_ok]
        rk = rk4_values(p, grid, step=1e-4)
        worst = max(abs(pair.H.eval(t) - s[0]) for t, s in zip(grid, rk))
        assert worst <= 1e-6, f"table 1 eps={eps} vs RK4: {worst}"

    # table 2: the bundled values do not reproduce under the stated constants
    # at any order; they do reproduce, to 5e-8, with gamma = 2 at order 13
    devs_caption, _ = run_sweep(tmp_path, 2, "dtm", 0.1, 1, 60)
    assert min(devs_caption.values()) >= 1e-2
    table2 = load_table(2)
    gamma2 = {}
    for eps in table2.eps_values:
        fixed = CoupledParams(c=2.0, eta=1.0, gamma=2.0, theta=1.0, eps=eps)
        target = table2.column("dtm", eps)
        best = min(
            (max(abs(solve_coupled(fixed, K).H.eval(t) - v) for t, v in zip(table2.grid, target)), K)
            for K in range(1, 61)
        )
        gamma2[eps] = best
        assert best[0] <= 1e-6

    # the infamous t=1.0, eps=0.2 entry: compute the truth, document the gap
    published = table2.column("dtm", 0.2)[-1]
    truth = rk4_values(table2.params(0.2), [1.0], step=1e-4)[0][0]
    snapshot = solve_coupled(CoupledParams(2.0, 1.0, 2.0, 1.0, 0.2), 13).H.eval(1.0)
    print(
        f"[acceptance]   table 2 t=1.0 eps=0.2: bundled {published:.9f}, RK4 truth "
        f"{truth:.9f} (gap {abs(published - truth):.2f}); the order-13 partial sum "
        f"with gamma=2 gives {snapshot:.9f} — a truncation artifact outside the "
        f"series' convergence radius (~0.84)"
    )
    assert abs(published - truth) > 1.0
    assert snapshot == pytest.approx(published, abs=1e-6)

    detail = ", ".join(f"eps={e}: order {n} dev {d:.2e}" for e, (n, d) in recovered.items())
    g2 = ", ".join(f"eps={e}: order {K} dev {d:.2e}" for e, (d, K) in gamma2.items())
    report(3, f"table 1 sweep: {detail}; RK4 cross-check passed; table 2 with gamma=2: {g2}")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "bundled table 1 columns are an order-13 truncation snapshot (the sweep "
        "reproduces them to 1.3e-9 at order 13); at order 25 the partial sum still "
        "carries up to 2.6e-2 of truncation error at t=1.0, so neither the 1e-6 "
        "match to the bundle nor the 1e-6 RK4 cross-check can hold there"
    ),
)
def test_criterion_3_literal_table1_at_order_25():
    table1 = load_table(1)
    worst = 0.0
    for eps in table1.eps_values:
        p = table1.params(eps)
        pair = solve_coupled(p, 25)
        rk = rk4_values(p, list(table1.grid), step=1e-4)
        for t, expected, s in zip(table1.grid, table1.column("dtm", eps), rk):
            worst = max(worst, abs(pair.H.eval(t) - expected), abs(pair.H.eval(t) - s[0]))
    report(3, f"literal order-25 match of table 1 (worst {worst:.2e})", worst <= 1e-6)
    assert worst <= 1e-6


@pytest.mark.xfail(
    strict=True,
    reason=(
        "bundled table 2 was generated with gamma = 2, not its stated gamma = 1 "
        "(under gamma=2 the order-13 snapshot matches every entry to 5e-8, the "
        "t=1.0/eps=0.2 outlier included); under the stated constants no truncation "
        "order comes within 7e-2 of the eps=0.1 column"
    ),
)
def test_criterion_3_literal_table2_eps01_low_t():
    table2 = load_table(2)
    p = table2.params(0.1)
    pair = solve_coupled(p, 25)
    grid = [t for t in table2.grid if t <= 0.8]
    rk = rk4_values(p, grid, step=1e-4)
    worst = 0.0
    for t, expected, s in zip(grid, table2.column("dtm", 0.1), rk):
        worst = max(worst, abs(pair.H.eval(t) - expected), abs(pair.H.eval(t) - s[0]))
    report(3, f"literal order-25 match of table 2 eps=0.1, t<=0.8 (worst {worst:.2e})", worst <= 1e-6)
    assert worst <= 1e-6


# ----------------------------------------------------------------------
# 4. Decomposition components are the Taylor monomials
# ----------------------------------------------------------------------


def _bits(coeffs):
    return struct.pack(f"<{len(coeffs)}d", *coeffs)


def test_criterion_4_adm_equals_dtm():
    # ADM component k is the monomial w_k * t**k, so the n-term series' coefficient k is its weight
    for p, (adm, r) in adm_dtm_draws():
        if r.V is None:
            assert _bits(adm.coeffs) == _bits(r.W)
        else:
            assert _bits(adm.H.coeffs) == _bits(r.W) and _bits(adm.h.coeffs) == _bits(r.V)

    # consequence: the bundled adm and dtm columns agree entry by entry
    worst_bundle = 0.0
    for number in (1, 3):
        table = load_table(number)
        for eps in table.eps_values:
            for x, y in zip(table.column("adm", eps), table.column("dtm", eps)):
                worst_bundle = max(worst_bundle, abs(x - y))
    assert worst_bundle <= 1e-6

    # and our own two solvers agree far below the table tolerance
    table3 = load_table(3)
    p = table3.params(0.05)
    series = solve_delayed(p, 25)
    partial = adm_solve_delayed(p, 26)
    worst_own = max(abs(series.eval(t) - partial.eval(t)) for t in table3.grid)
    assert worst_own <= 1e-10

    report(4, f"200 random draws, components 0..{ADM_K_MAX}: weights equal the transform bit for bit; "
              f"bundled adm/dtm gap {worst_bundle:.1e}; own-solver gap {worst_own:.1e}")


# ----------------------------------------------------------------------
# 5. Correction iterates are Picard iterates; bundled vim columns
# ----------------------------------------------------------------------


def _iterates(params, steps, order):
    """The transform to ``order`` and iterates 1..steps as ``(H, h)`` pairs, h None for the delayed model."""
    if isinstance(params, DelayedParams):
        return transform_delayed(params, order), [(H, None) for H in vim_iterates(params, steps, 64)[1:]]
    return transform_coupled(params, order), [(s.H, s.h) for s in vim_iterates(params, steps, 64)[1:]]


def test_criterion_5_vim_picard_matching_and_sweeps(tmp_path):
    n_max = 10
    for seed, draw in ((31337, draw_coupled), (31338, draw_delayed)):
        rng = random.Random(seed)
        for _ in range(50):
            p, (r, states) = draw_until(draw, rng, lambda q: _iterates(q, n_max, n_max))
            assert len(states) == n_max
            for n, (H, h) in enumerate(states, start=1):
                for k in range(n + 1):
                    gap = abs(H.coeffs[k] - r.W[k])
                    assert gap <= 1e-12 * max(1.0, abs(r.W[k]))
                if h is not None:
                    for k in range(n + 1):
                        gap = abs(h.coeffs[k] - r.V[k])
                        assert gap <= 1e-12 * max(1.0, abs(r.V[k]))

    devs1, best1 = run_sweep(tmp_path, 1, "vim", 0.1, 1, 30)
    assert devs1[best1] <= 5e-4, f"table 1 vim sweep best {devs1[best1]}"
    devs3, best3 = run_sweep(tmp_path, 3, "vim", 0.05, 1, 30)
    assert devs3[best3] <= 5e-4, f"table 3 vim sweep best {devs3[best3]}"
    report(5, f"100 draws ordered-matched to 1e-12 for n<=10; sweeps: table 1 "
              f"n={best1} dev {devs1[best1]:.2e}, table 3 n={best3} dev {devs3[best3]:.2e}")


# ----------------------------------------------------------------------
# 6. Low-order closed forms against the recurrences
# ----------------------------------------------------------------------


def coupled_low_order(p):
    """Hand-expanded closed forms of the first three recurrence turns."""
    c, eta, gamma, theta, eps = p.c, p.eta, p.gamma, p.theta, p.eps
    w1 = c + eta - eps
    v1 = -theta - gamma
    w2 = (c * c + eta * (c - 3 * eps - theta - gamma) + eps * (3 * eps - 4 * c)) / 2
    v2 = (theta * (-c - eta + eps + gamma) + gamma * gamma) / 2
    w3 = (
        c * (c * c + eta * c - 13 * c * eps - 2 * eta * theta - eta * gamma
             - 18 * eps * eta + 27 * eps * eps)
        - eta * (eta * theta - 4 * theta * eps - gamma * theta - gamma * gamma
                 - 3 * eps * gamma - 21 * eps * eps + 6 * eps * eta)
        - 15 * eps ** 3
    ) / 6
    v3 = (
        theta * (-c * c - eta * c + 4 * c * eps + eta * theta + 2 * eta * gamma)
        - gamma ** 3
        + theta * (3 * eta * eps - 3 * eps * eps + c * gamma - gamma * eps - gamma * gamma)
    ) / 6
    return w1, v1, w2, v2, w3, v3


def delayed_low_order(p):
    d = p.beta * p.sigma - 1.0
    diff = p.alpha - p.beta
    w1 = -(diff - p.eps) / d
    w2 = (diff - p.eps) * (diff - 3 * p.eps) / (2 * d * d)
    return w1, w2


def test_criterion_6_closed_form_coefficients():
    rng = random.Random(99)
    for _ in range(200):
        p = draw_coupled(rng)
        r = transform_coupled(p, 3)
        w1, v1, w2, v2, w3, v3 = coupled_low_order(p)
        for got, want in ((r.W[1], w1), (r.V[1], v1), (r.W[2], w2),
                          (r.V[2], v2), (r.W[3], w3), (r.V[3], v3)):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    rng = random.Random(98)
    for _ in range(200):
        p = draw_delayed(rng, min_denom=0.1)
        r = transform_delayed(p, 2)
        w1, w2 = delayed_low_order(p)
        assert abs(r.W[1] - w1) <= 1e-12 * max(1.0, abs(w1))
        assert abs(r.W[2] - w2) <= 1e-12 * max(1.0, abs(w2))

    report(6, "400 random draws: recurrence output equals the hand-expanded "
              "low-order closed forms to 1e-12")


# ----------------------------------------------------------------------
# 7. Residuals of every solver output at converged order
# ----------------------------------------------------------------------


def cut(solution, cap):
    """``solution`` truncated at ``cap``: its residual coefficients 0..cap-1 are, bit for bit, the full series'."""
    if isinstance(solution, SolutionPair):
        return SolutionPair(cut(solution.H, cap), cut(solution.h, cap))
    return SeriesPoly(solution.coeffs[: cap + 1])


def test_criterion_7_residuals():
    worst = 0.0
    for number in (1, 2, 3, 4):
        table = load_table(number)
        for eps in table.eps_values:
            p = table.params(eps)
            if table.model == "coupled":
                order = 25
                dtm_sol = solve_coupled(p, order)
                adm_sol = adm_solve_coupled(p, order + 1)
            else:
                order = 40 if number == 4 else 25
                dtm_sol = solve_delayed(p, order)
                adm_sol = adm_solve_delayed(p, order + 1)
            vim_sol = vim_solve(p, 10)
            worst = max(worst, residual_check(dtm_sol, p))
            worst = max(worst, residual_check(adm_sol, p))
            worst = max(worst, residual_check(cut(vim_sol, 10), p))
    report(7, f"dtm/adm/vim residuals across all bundled parameter sets: worst {worst:.1e}")
    assert worst <= 1e-10


# ----------------------------------------------------------------------
# 8. Error-curve data behind the error figures
# ----------------------------------------------------------------------


def test_criterion_8_error_curves(tmp_path):
    worst_pair_gap = 0.0
    for sigma in (0.1, 0.25, 0.5):
        out = tmp_path / f"errors_sigma{sigma}.csv"
        code = cli_main([
            "errors", "--model", "delayed", "--alpha", "0.5", "--beta", "0.3",
            "--sigma", str(sigma), "--eps", "0.05", "--eps", "0.1", "--eps", "0.15",
            "--eps", "0.2", "--order", "25", "--t-max", "2.0", "--t-step", "0.1",
            "--oracle", "exact", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        assert all(float(cell) == 0.0 for cell in rows[0][1:]), "errors at t=0 must vanish"
        for row in rows:
            for cell in row[1:]:
                value = float(cell)
                assert value >= 0.0 and value == value
        dtm_cols = [i for i, n in enumerate(header) if n.startswith("err_dtm")]
        adm_cols = [i for i, n in enumerate(header) if n.startswith("err_adm")]
        assert len(dtm_cols) == 4 and len(adm_cols) == 4
        for row in rows:
            for i, j in zip(dtm_cols, adm_cols):
                worst_pair_gap = max(worst_pair_gap, abs(float(row[i]) - float(row[j])))
    report(8, f"3 sigma x 4 eps error grids finite and zero at t=0; "
              f"|err_dtm - err_adm| <= {worst_pair_gap:.1e}")
    assert worst_pair_gap <= 1e-10
