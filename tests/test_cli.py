"""CLI subcommands: output shape, determinism, exit codes, bundled tables."""

import argparse
import contextlib
import errno
import gc
import io
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ensoseries
from ensoseries import (
    UsageError,
    adm_solve_coupled,
    adm_solve_delayed,
    solve_coupled,
    solve_delayed,
    vim_solve,
)
from ensoseries import cli, errors, reference
from ensoseries.cli import build_parser, main
from ensoseries.reference import load_table


def run_cli(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_text()


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# -- bundled tables ------------------------------------------------------


def test_bundled_tables_load():
    for number, model, n_cols in ((1, "coupled", 6), (2, "coupled", 6), (3, "delayed", 8), (4, "delayed", 8)):
        table = load_table(number)
        assert table.model == model
        assert len(table.columns) == n_cols
        assert table.grid[0] == 0.0
        assert all(b > a for a, b in zip(table.grid, table.grid[1:]))
        assert all(v[0] == 1.0 for v in table.columns.values())


def test_bundled_table_lookup_errors():
    with pytest.raises(UsageError):
        load_table(7)
    with pytest.raises(UsageError):
        load_table(3).column("dtm", 0.42)


def test_a_table_whose_first_column_is_not_t_is_refused(tmp_path, monkeypatch):
    (tmp_path / "table1.csv").write_text("x,dtm_eps0.1\n0.0,1.0\n", encoding="utf-8")
    monkeypatch.setattr(reference, "_DATA_DIR", str(tmp_path))
    with pytest.raises(UsageError, match=r"^table1.csv: first column must be t$"):
        load_table(1)


def test_bundled_table_params():
    p = load_table(1).params(0.1)
    assert (p.c, p.eta, p.gamma, p.theta, p.eps) == (1.0, 1.0, 1.0, 1.0, 0.1)
    d = load_table(4).params(0.05)
    assert (d.alpha, d.beta, d.sigma, d.eps) == (1.0, 0.5, 0.5, 0.05)


# -- table command -------------------------------------------------------


def test_table_initial_row_is_all_ones(tmp_path):
    code, text = run_cli(["table", "--model", "coupled"], tmp_path)
    assert code == 0
    header, rows = parse_csv(text)
    assert header[0] == "t"
    assert set(rows[0][1:]) == {"1.000000000"}


def test_table_delayed_exact_column_matches_bundled_values(tmp_path):
    code, text = run_cli(["table", "--model", "delayed", "--order", "25"], tmp_path)
    assert code == 0
    header, rows = parse_csv(text)
    table = load_table(3)
    exact_idx = header.index("exact_eps0.05")
    dtm_idx = header.index("dtm_eps0.05")
    for row, want_exact, want_dtm in zip(
        rows, table.column("exact", 0.05), table.column("dtm", 0.05)
    ):
        assert abs(float(row[exact_idx]) - want_exact) <= 5e-9
        assert abs(float(row[dtm_idx]) - want_dtm) <= 1e-6


def test_table_output_is_deterministic(tmp_path):
    args = ["table", "--model", "delayed", "--eps", "0.05", "--iters", "6"]
    _, first = run_cli(args, tmp_path, "a.csv")
    _, second = run_cli(args, tmp_path, "b.csv")
    assert first == second


def test_table_cells_round_trip_at_nine_decimals(tmp_path):
    _, text = run_cli(["table", "--model", "coupled", "--t-max", "0.6"], tmp_path)
    _, rows = parse_csv(text)
    for row in rows:
        for cell in row:
            value = float(cell)
            assert math.isfinite(value)
            assert f"{value:.9f}" == cell


def test_table_overflow_marks_cells_and_exits_3(tmp_path, capsys):
    code, text = run_cli(
        ["table", "--model", "coupled", "--c", "50", "--eps", "0.5", "--order", "60",
         "--methods", "dtm"],
        tmp_path,
    )
    assert code == 3
    assert "ERROR" in text


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
def test_table_exact_beyond_the_exp_range(tmp_path):
    code, text = run_cli(
        ["table", "--model", "delayed", "--alpha", "-400", "--methods", "exact"], tmp_path
    )
    assert code == 0
    _, rows = parse_csv(text)
    assert all(math.isfinite(float(cell)) for row in rows for cell in row)
    code, text = run_cli(
        ["table", "--model", "delayed", "--alpha", "-400", "--eps", "-500", "--methods", "exact"],
        tmp_path,
    )
    assert code == 3
    assert "ERROR" in text


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
@pytest.mark.parametrize("args, columns, lines", [
    # a transform overflow
    (["table", "--model", "coupled", "--c", "50", "--eps", "0.5", "--order", "60", "--methods", "dtm"],
     ["dtm_eps0.5"], ["dtm eps=0.5 order=60: coefficient 12 overflowed"]),
    # an RK4 blow-up
    (["table", "--model", "delayed", "--eps", "-500", "--methods", "rk4"],
     ["rk4_eps-500"], ["rk4 eps=-500: integration blew up near t="]),
    # the closed form leaving its domain, for one eps only
    (["table", "--model", "delayed", "--alpha", "-400", "--eps", "-500", "--eps", "0.1", "--methods", "exact"],
     ["exact_eps-500"], ["exact eps=-500: solution blows up before t=0.4"]),
    # values that are not finite, with no exception raised
    (["table", "--model", "delayed", "--methods", "dtm", "--order", "25", "--t-max", "1e20", "--t-step", "1e20"],
     ["dtm_eps0.05", "dtm_eps0.1"],
     ["dtm eps=0.05 order=25: not finite at t=1e+20", "dtm eps=0.1 order=25: not finite at t=1e+20"]),
    (["errors", "--model", "delayed", "--methods", "vim", "--iters", "3", "--t-max", "1e30", "--t-step", "1e30"],
     ["err_vim_eps0.05", "err_vim_eps0.1"],
     ["vim eps=0.05 iters=3: not finite at t=1e+30", "vim eps=0.1 iters=3: not finite at t=1e+30"]),
    (["trajectory", "--model", "coupled", "--eps", "0.1", "--methods", "adm", "--terms", "20",
      "--t-max", "1e20", "--t-step", "1e20"],
     ["H_adm_eps0.1", "h_adm_eps0.1"], ["adm eps=0.1 terms=20: not finite at t=1e+20"]),
    # coupled columns whose solve raises: both of its H and h, and no other
    (["trajectory", "--model", "coupled", "--c", "50", "--eps", "0.5", "--order", "60", "--methods", "dtm,rk4"],
     ["H_dtm_eps0.5", "h_dtm_eps0.5"], ["dtm eps=0.5 order=60: coefficient 12 overflowed"]),
    (["trajectory", "--model", "coupled", "--eps", "-500", "--methods", "rk4,vim", "--iters", "3"],
     ["H_rk4_eps-500", "h_rk4_eps-500", "H_vim_eps-500", "h_vim_eps-500"],
     ["rk4 eps=-500: integration blew up near t=", "vim eps=-500 iters=3: coefficient 6 overflowed"]),
    (["errors", "--model", "coupled", "--eps", "-500", "--eps", "0.1", "--methods", "dtm,vim", "--iters", "3"],
     ["err_dtm_eps-500", "err_vim_eps-500"], ["rk4 eps=-500: integration blew up near t="]),
])
def test_every_exit_3_names_its_error_columns_on_stderr(tmp_path, capsys, args, columns, lines):
    code, text = run_cli(args, tmp_path)
    assert code == 3
    header, rows = parse_csv(text)
    assert [name for i, name in enumerate(header) if any(row[i] == "ERROR" for row in rows)] == columns
    err = capsys.readouterr().err.splitlines()
    assert len(err) == len(lines)
    assert all(got.startswith(want) for got, want in zip(err, lines))


# -- errors command ------------------------------------------------------


def test_errors_zero_at_origin_and_adm_equals_dtm(tmp_path):
    code, text = run_cli(
        ["errors", "--model", "delayed", "--t-step", "0.25", "--t-max", "2.0",
         "--order", "25"],
        tmp_path,
    )
    assert code == 0
    header, rows = parse_csv(text)
    assert all(float(cell) == 0.0 for cell in rows[0][1:])
    for row in rows:
        for name, cell in zip(header[1:], row[1:]):
            assert float(cell) >= 0.0
    dtm_cols = [i for i, name in enumerate(header) if name.startswith("err_dtm")]
    adm_cols = [i for i, name in enumerate(header) if name.startswith("err_adm")]
    for row in rows:
        for i, j in zip(dtm_cols, adm_cols):
            assert abs(float(row[i]) - float(row[j])) <= 1e-10


def test_errors_converged_series_is_accurate(tmp_path):
    _, text = run_cli(
        ["errors", "--model", "delayed", "--eps", "0.05", "--order", "25",
         "--t-step", "0.4", "--t-max", "2.0", "--methods", "dtm"],
        tmp_path,
    )
    header, rows = parse_csv(text)
    t04 = rows[1]
    assert float(t04[0]) == pytest.approx(0.4)
    assert float(t04[1]) <= 1e-9


def test_errors_rejects_exact_oracle_for_coupled(tmp_path, capsys):
    code = main(["errors", "--model", "coupled", "--oracle", "exact",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
@pytest.mark.parametrize("oracle", ["exact", "rk4"])
def test_errors_oracle_failure_marks_only_its_eps(tmp_path, capsys, monkeypatch, oracle):
    # eps = -500 blows up before t = 0.4; eps = 0.1 must keep its columns
    calls = watch_solves(monkeypatch)
    code, text = run_cli(
        ["errors", "--model", "delayed", "--eps", "-500", "--eps", "0.1",
         "--methods", "dtm,adm", "--oracle", oracle],
        tmp_path,
    )
    assert code == 3
    header, rows = parse_csv(text)
    assert header == ["t", "err_dtm_eps-500", "err_adm_eps-500", "err_dtm_eps0.1", "err_adm_eps0.1"]
    assert all(row[1:3] == ["ERROR", "ERROR"] for row in rows)
    assert all(float(cell) <= 1e-8 for row in rows for cell in row[3:])
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"{oracle} eps=-500: ")
    assert calls.count("solve_delayed") == 1  # dtm and adm share one at eps = 0.1: the failed eps solves nothing


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
def test_errors_oracle_and_method_failures_each_name_themselves(tmp_path, capsys):
    # an oracle line names the eps; a series method's line adds its order, terms or iterations
    code, text = run_cli(
        ["errors", "--model", "delayed", "--alpha", "-400", "--eps", "-500", "--eps", "0.1",
         "--methods", "dtm,adm,vim", "--terms", "30", "--iters", "7"],
        tmp_path,
    )
    assert code == 3
    header, rows = parse_csv(text)
    assert header == ["t", "err_dtm_eps-500", "err_adm_eps-500", "err_vim_eps-500",
                      "err_dtm_eps0.1", "err_adm_eps0.1", "err_vim_eps0.1"]
    assert all(row[1:] == ["ERROR"] * 6 for row in rows)
    err = capsys.readouterr().err.strip().splitlines()
    assert [line.split(":")[0] for line in err] == [
        "exact eps=-500", "dtm eps=0.1 order=40", "adm eps=0.1 terms=30", "vim eps=0.1 iters=7"]


# -- sweep command -------------------------------------------------------


def test_sweep_table3_converges_by_order_25(tmp_path):
    code, text = run_cli(
        ["sweep", "--table", "3", "--method", "dtm", "--eps", "0.05",
         "--min", "20", "--max", "30"],
        tmp_path,
    )
    assert code == 0
    header, rows = parse_csv(text)
    assert header == ["dtm_n", "max_abs_dev", "best"]
    devs = {int(r[0]): float(r[1]) for r in rows}
    assert devs[25] <= 1e-6
    assert sum(int(r[2]) for r in rows) == 1


def test_sweep_adm_and_dtm_find_equivalent_optimum(tmp_path):
    _, dtm_text = run_cli(
        ["sweep", "--table", "1", "--method", "dtm", "--eps", "0.1",
         "--min", "5", "--max", "20"], tmp_path, "dtm.csv")
    _, adm_text = run_cli(
        ["sweep", "--table", "1", "--method", "adm", "--eps", "0.1",
         "--min", "5", "--max", "20"], tmp_path, "adm.csv")
    best_dtm = next(int(r[0]) for r in parse_csv(dtm_text)[1] if r[2] == "1")
    best_adm = next(int(r[0]) for r in parse_csv(adm_text)[1] if r[2] == "1")
    # n decomposition terms span polynomial degree n-1
    assert best_adm == best_dtm + 1


def sweep_from_scratch(table_number, method, eps, lo, hi):
    """Sweep CSV built the direct way: a fresh library solve for every n."""
    table = load_table(table_number)
    target = table.column(method, eps)
    p = table.params(eps)
    coupled = table.model == "coupled"
    rows = []
    for n in range(lo, hi + 1):
        if method == "dtm":
            sol = (solve_coupled if coupled else solve_delayed)(p, n)
        elif method == "adm":
            sol = (adm_solve_coupled if coupled else adm_solve_delayed)(p, n)
        else:
            sol = vim_solve(p, n)
        H = sol.H if coupled else sol
        rows.append((n, max(abs(H.eval(t) - w) for t, w in zip(table.grid, target))))
    best_n = min(rows, key=lambda r: r[1])[0]
    lines = [f"{method}_n,max_abs_dev,best"]
    lines += [f"{n},{dev:.9e},{1 if n == best_n else 0}" for n, dev in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("method, lo, hi", [("dtm", 0, 16), ("adm", 2, 16), ("vim", 2, 6)])
def test_sweep_equals_per_n_solves(tmp_path, method, lo, hi):
    for number in (1, 2, 3, 4):
        for eps in load_table(number).eps_values:
            code, text = run_cli(
                ["sweep", "--table", str(number), "--method", method, "--eps", str(eps),
                 "--min", str(lo), "--max", str(hi)],
                tmp_path,
            )
            assert code == 0
            assert text == sweep_from_scratch(number, method, eps, lo, hi)


@pytest.mark.parametrize("method", ["adm", "vim"])
def test_sweep_count_zero_is_dtm_only(capsys, method):
    # order 0 is the constant H0; zero components or iterations is no solution
    assert main(["sweep", "--table", "4", "--method", method, "--eps", "0.05", "--min", "0"]) == 2
    assert capsys.readouterr().err == "error: need min <= max (and a positive count for adm/vim)\n"
    assert main(["sweep", "--table", "4", "--method", "dtm", "--eps", "0.05", "--min", "0", "--max", "3"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split(",")[0] for row in rows] == ["dtm_n", "0", "1", "2", "3"]


@pytest.mark.parametrize("method", ["dtm", "adm"])
def test_sweep_overflowing_max_exits_3_without_csv(capsys, method):
    # table 2's eps=0.2 coefficients pass the 1e15 guard at index 172
    code = main(["sweep", "--table", "2", "--method", method, "--eps", "0.2", "--max", "180"])
    out = capsys.readouterr()
    assert code == 3
    assert out.out == ""
    assert "coefficient 172" in out.err


# -- trajectory command --------------------------------------------------


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
def test_trajectory_constant_for_zero_parameters(tmp_path):
    code, text = run_cli(
        ["trajectory", "--model", "coupled", "--c", "0", "--eta", "0",
         "--gamma", "0", "--theta", "0", "--eps", "1e-300", "--t-step", "0.25",
         "--t-max", "1.0", "--methods", "dtm,rk4"],
        tmp_path,
    )
    assert code == 0
    _, rows = parse_csv(text)
    for row in rows:
        assert set(row[1:]) == {"1.000000000"}


def test_trajectory_delayed_matches_exact(tmp_path):
    code, text = run_cli(
        ["trajectory", "--model", "delayed", "--eps", "0.05", "--order", "25",
         "--t-step", "0.2", "--t-max", "2.0", "--methods", "dtm,exact"],
        tmp_path,
    )
    assert code == 0
    header, rows = parse_csv(text)
    i_dtm = header.index("H_dtm_eps0.05")
    i_exact = header.index("H_exact_eps0.05")
    for row in rows:
        assert abs(float(row[i_dtm]) - float(row[i_exact])) <= 1e-8


def test_trajectory_coupled_series_vs_rk4(tmp_path):
    code, text = run_cli(
        ["trajectory", "--model", "coupled", "--eps", "0.1", "--order", "60",
         "--t-step", "0.2", "--t-max", "1.0", "--methods", "dtm,rk4"],
        tmp_path,
    )
    assert code == 0
    header, rows = parse_csv(text)
    for prefix in ("H_", "h_"):
        i_dtm = header.index(prefix + "dtm_eps0.1")
        i_rk4 = header.index(prefix + "rk4_eps0.1")
        for row in rows:
            assert abs(float(row[i_dtm]) - float(row[i_rk4])) <= 1e-6


# -- argument handling ----------------------------------------------------


def test_bad_grid_is_a_usage_error(tmp_path):
    code = main(["table", "--model", "coupled", "--t-step", "0.3",
                 "--t-max", "1.0", "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_a_t_max_below_one_is_a_whole_number_of_steps_to_a_relative_tolerance(capsys, monkeypatch):
    # 2.5 steps of 4e-10 passed the absolute 1e-9 tolerance, and the grid ended at 8e-10
    calls = watch_solves(monkeypatch)
    assert main(["table", "--model", "delayed", "--methods", "exact", "--t-max", "1e-9", "--t-step", "4e-10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: t-max must be a whole number of t-steps\n"
    assert calls == []
    assert main(["table", "--model", "delayed", "--methods", "exact", "--t-max", "1e-9", "--t-step", "1e-10"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 12


@pytest.mark.parametrize("flag, value", [
    ("--t-max", "nan"), ("--t-max", "inf"), ("--t-step", "nan"),
])
def test_non_finite_grid_is_a_usage_error(tmp_path, flag, value):
    code = main(["table", "--model", "delayed", flag, value, "--out", str(tmp_path / "x.csv")])
    assert code == 2


@pytest.mark.parametrize("args", [
    ["errors", "--model", "delayed", "--oracle", "rk4"],
    ["table", "--model", "coupled", "--methods", "rk4"],
])
def test_nan_oracle_step_is_a_usage_error(tmp_path, args):
    code = main(args + ["--oracle-step", "nan", "--out", str(tmp_path / "x.csv")])
    assert code == 2


@pytest.mark.parametrize("args", [
    ["errors", "--model", "delayed", "--oracle", "rk4"],
    ["table", "--model", "coupled", "--methods", "rk4"],
    ["table", "--model", "delayed"],
    ["trajectory", "--model", "coupled"],
    ["sweep", "--table", "1", "--method", "dtm", "--eps", "0.1"],
])
@pytest.mark.parametrize("step", ["inf", "-inf", "0", "-1e308"])
def test_bad_oracle_step_is_a_usage_error_on_every_subcommand(tmp_path, capsys, args, step):
    # an infinite step used to give one RK4 step per gap, reported as the methods' error
    code = main(args + [f"--oracle-step={step}", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "step must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_oracle_step_wider_than_the_grid_gap_is_taken(tmp_path):
    # a finite step bounds the sub-steps only: 1e308 means one RK4 step per gap
    base = ["errors", "--model", "delayed", "--oracle", "rk4", "--methods", "dtm"]
    code, wide = run_cli(base + ["--oracle-step", "1e308"], tmp_path, "wide.csv")
    assert code == 0
    assert run_cli(base + ["--oracle-step", "1"], tmp_path, "gap.csv") == (0, wide)


@pytest.mark.parametrize("method, flag, value", [
    ("dtm", "--order", "-1"), ("adm", "--terms", "0"), ("vim", "--iters", "-1"),
])
def test_bad_solver_count_is_a_usage_error(tmp_path, method, flag, value):
    code = main(["table", "--model", "coupled", "--methods", method, flag, value,
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["table", "--model", "coupled", "--bogus", "1"])
    assert err.value.code == 2


def exit_and_output(parse, argv, capsys):
    """Exit code, stdout and stderr of an argument parse that exits."""
    with pytest.raises(SystemExit) as err:
        parse(argv)
    return (err.value.code,) + tuple(capsys.readouterr())


@pytest.mark.parametrize("argv", [
    ["table", "--help"], ["errors", "--help"], ["sweep", "--help"], ["trajectory", "--help"],
    ["--help"], [], ["bogus"], ["table", "--bogus", "1"], ["errors", "--model", "coupled", "--oracle", "x"],
    ["sweep", "--table", "9", "--method", "dtm", "--eps", "0.1"], ["trajectory", "--order", "x"],
])
def test_main_parses_and_helps_as_the_full_parser(argv, capsys, monkeypatch):
    # main adds only the invoked subcommand's options; help and usage errors keep every byte
    monkeypatch.setenv("COLUMNS", "80")
    full = exit_and_output(build_parser().parse_args, argv, capsys)
    assert exit_and_output(main, argv, capsys) == full
    assert full[0] == (0 if "--help" in argv else 2)


@pytest.mark.parametrize("command", [None, "table", "errors", "sweep", "trajectory"])
def test_a_parser_build_reads_the_terminal_width_once(command, monkeypatch):
    calls = []
    real = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *args: calls.append(args) or real(*args))
    build_parser(command)
    assert len(calls) == 1


@pytest.mark.parametrize("columns", ["40", "80", "200"])
@pytest.mark.parametrize("command", [None, "table", "errors", "sweep", "trajectory"])
def test_help_at_the_width_taken_once_is_argparse_own(command, columns, monkeypatch):
    # each parser's help and usage equal those of its own formatter class with no width given
    monkeypatch.setenv("COLUMNS", columns)
    parser = build_parser(command)
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for each in (parser, *subs.choices.values()):
        texts = each.format_help(), each.format_usage()
        each.formatter_class = argparse.HelpFormatter
        assert (each.format_help(), each.format_usage()) == texts


def test_foreign_model_flags_rejected(tmp_path):
    code = main(["table", "--model", "coupled", "--alpha", "0.5",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2


@pytest.mark.parametrize("args", [
    ["errors", "--model", "delayed", "--oracle", "rk4", "--oracle-step", "5e-324"],
    ["trajectory", "--model", "coupled", "--methods", "rk4", "--oracle-step", "5e-324"],
    ["table", "--model", "delayed", "--t-step", "5e-324", "--methods", "exact"],
])
def test_a_step_too_small_for_its_span_is_a_usage_error(tmp_path, capsys, args):
    # span / step overflowed to inf, and rounding it raised a bare OverflowError
    code = main(args + ["--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("args", [
    ["table", "--model", "delayed", "--t-step", "1e-300", "--methods", "exact"],
    ["table", "--model", "delayed", "--t-max", "1e308", "--t-step", "1", "--methods", "exact"],
    ["errors", "--model", "delayed", "--oracle", "rk4", "--oracle-step", "1e-300"],
    ["trajectory", "--model", "coupled", "--methods", "rk4", "--oracle-step", "1e-300"],
])
def test_a_huge_finite_count_is_a_usage_error(tmp_path, capsys, args):
    # about 1e300 grid rows or RK4 steps: refused before any is built
    code = main(args + ["--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "exceed the limit" in err[0]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("args", [
    ["table", "--model", "delayed", "--order", "20000", "--methods", "dtm"],
    ["table", "--model", "coupled", "--order", "2000", "--methods", "adm,dtm", "--terms", "1000000000"],
    ["table", "--model", "delayed", "--iters", "1001", "--methods", "vim"],
    ["errors", "--model", "delayed", "--order", "2001", "--methods", "adm"],
    ["trajectory", "--model", "coupled", "--order", "1" + "0" * 400],
    ["sweep", "--table", "1", "--method", "vim", "--eps", "0.1", "--max", "1000000000"],
    ["sweep", "--table", "4", "--method", "adm", "--eps", "0.05", "--max", "2002"],
    ["sweep", "--table", "4", "--method", "adm", "--eps", "0.05", "--max", "3000"],
    # refused before the oracle and every earlier column: these ran 1 to 5 s before exiting 2
    ["errors", "--model", "coupled", "--oracle-step", "1e-6", "--methods", "dtm", "--order", "5000"],
    ["table", "--model", "delayed", "--iters", "1001", "--order", "2000"],
    ["table", "--model", "coupled", "--methods", "dtm,adm", "--order", "2000", "--terms", "2002"],
    ["trajectory", "--model", "coupled", "--iters", "1001"],
    # the adm count comes before the rk4 column's step budget, which is over the limit too
    ["trajectory", "--model", "coupled", "--eps", "0.1", "--methods", "adm,rk4", "--terms", "5000",
     "--t-max", "1e20", "--t-step", "1e20"],
])
def test_a_huge_solve_count_is_a_usage_error(tmp_path, capsys, monkeypatch, args):
    # refused before the solver allocates or steps: --order 20000 ran past 10 s before
    calls = watch_solves(monkeypatch)
    code = main(args + ["--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0] in (
        "error: order must be in 0..2000", "error: n_terms must be in 1..2001", "error: iterations must be in 0..1000")
    assert not (tmp_path / "x.csv").exists()
    assert calls == []


@pytest.mark.parametrize("args, message", [
    (["table", "--model", "delayed", "--iters", "1001"], "iterations must be in 0..1000"),
    (["sweep", "--table", "4", "--method", "dtm", "--eps", "0.05", "--max", "5000"], "order must be in 0..2000"),
    (["sweep", "--table", "4", "--method", "adm", "--eps", "0.05", "--max", "2002"], "n_terms must be in 1..2001"),
    (["sweep", "--table", "1", "--method", "vim", "--eps", "0.1", "--max", "1001"], "iterations must be in 0..1000"),
], ids=["table-vim", "sweep-dtm", "sweep-adm", "sweep-vim"])
def test_a_count_error_comes_before_an_out_error(tmp_path, capsys, monkeypatch, args, message):
    calls = watch_solves(monkeypatch)
    assert main(args + ["--out", str(tmp_path / "missing" / "x.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_the_count_of_a_method_not_requested_is_not_checked(capsys):
    assert main(["table", "--model", "coupled", "--methods", "vim,rk4", "--order", "5000", "--terms", "0"]) == 0
    assert capsys.readouterr().out.startswith("t,vim_eps0.1,vim_eps0.2,rk4_eps0.1,rk4_eps0.2\n")


def test_grid_rows_are_counted_against_the_limit(monkeypatch, capsys):
    monkeypatch.setattr(errors, "MAX_STEPS", 6)
    assert main(["table", "--model", "delayed", "--methods", "exact"]) == 0  # 6 rows
    assert len(capsys.readouterr().out.splitlines()) == 7
    assert main(["table", "--model", "delayed", "--methods", "exact", "--t-max", "2.4"]) == 2


def watch_solves(monkeypatch):
    """Record the name of each solve the CLI starts, in the list returned.

    The solves are the DTM solves (every dtm and adm column or sweep reads one), RK4, the closed form and VIM.
    """
    calls = []
    for name in ["solve_coupled", "solve_delayed", "rk4_values", "exact_delayed", "vim_iterates", "vim_solve"]:
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
    return calls


@pytest.mark.parametrize("table, method, eps, solve", [
    (4, "adm", "0.05", "solve_delayed"), (1, "adm", "0.1", "solve_coupled"),
    (4, "dtm", "0.05", "solve_delayed"),
])
def test_a_series_sweep_runs_one_transform(capsys, monkeypatch, table, method, eps, solve):
    # each n is a prefix of one DTM solve, read as ADM component weights for adm
    calls = watch_solves(monkeypatch)
    assert main(["sweep", "--table", str(table), "--method", method, "--eps", eps, "--max", "20"]) == 0
    assert calls == [solve]


@pytest.mark.parametrize("args, solve, per_eps", [
    # --terms defaults to --order + 1, so the dtm and adm columns of an eps read one solve at order 60
    (["table", "--model", "coupled"], "solve_coupled", 1),
    # dtm at order 25 runs first, and adm at 20 terms reads its prefix to order 19
    (["errors", "--model", "delayed", "--order", "25", "--terms", "20"], "solve_delayed", 1),
    # adm at 61 terms runs order 60 first, and dtm at order 25 reads its prefix
    (["table", "--model", "delayed", "--methods", "adm,dtm", "--order", "25", "--terms", "61"],
     "solve_delayed", 1),
    # dtm at order 25 runs first, and adm at 61 terms needs the longer solve to order 60
    (["table", "--model", "delayed", "--methods", "dtm,adm", "--order", "25", "--terms", "61"],
     "solve_delayed", 2),
    # eps 0 and -0 are equal parameter sets but separate columns, each with its own solve
    (["table", "--model", "delayed", "--eps", "0", "--eps", "-0", "--methods", "dtm,adm"], "solve_delayed", 1),
])
@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
def test_every_series_column_is_a_prefix_of_its_eps_longest_transform(tmp_path, monkeypatch, args, solve, per_eps):
    calls = watch_solves(monkeypatch)
    code, text = run_cli(args, tmp_path)
    assert code == 0
    assert calls.count(solve) == per_eps * 2  # two eps values in each case
    monkeypatch.undo()
    header, rows = parse_csv(text)
    for m in {name.split("_")[-2] for name in header[1:]}:  # dtm_eps0.1, err_dtm_eps0.1
        alone_header, alone_rows = parse_csv(run_cli(args + ["--methods", m], tmp_path, f"{m}.csv")[1])
        for j, name in enumerate(alone_header[1:], 1):  # the same column solved alone, cell for cell
            i = header.index(name)
            assert [row[i] for row in rows] == [row[j] for row in alone_rows]


@pytest.mark.parametrize("args", [
    ["table", "--model", "delayed"],
    ["errors", "--model", "delayed"],
    ["sweep", "--table", "4", "--method", "dtm", "--eps", "0.05", "--max", "5"],
    ["trajectory", "--model", "coupled"],
])
@pytest.mark.parametrize("where", [
    "missing directory", "directory", "empty", "trailing separator", "file parent",
    # a path whose parent exists but where open cannot create a file
    pytest.param("procfs", marks=pytest.mark.skipif(not os.path.isdir("/proc"), reason="no /proc")),
])
def test_an_unwritable_out_is_a_usage_error(tmp_path, capsys, monkeypatch, args, where):
    calls = watch_solves(monkeypatch)  # refused before any solve, with the reason open gives
    out, reason = {
        "missing directory": (str(tmp_path / "missing" / "x.csv"), errno.ENOENT),
        "directory": (str(tmp_path), errno.EISDIR),
        "empty": ("", errno.ENOENT),
        "trailing separator": (str(tmp_path / "new") + os.sep, errno.EISDIR),
        "file parent": (str(Path(__file__) / "x.csv"), errno.ENOTDIR),
        "procfs": ("/proc/x.csv", errno.ENOENT),
    }[where]
    assert main(args + ["--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: cannot write {out}: {os.strerror(reason)}"]
    assert list(tmp_path.iterdir()) == []
    assert calls == []


def test_a_table_out_replaces_an_existing_file(tmp_path, capsys):
    out = tmp_path / "x.csv"
    out.write_text("older and longer content\n" * 100)
    assert main(["table", "--model", "delayed", "--out", str(out)]) == 0
    assert main(["table", "--model", "delayed"]) == 0
    assert out.read_text() == capsys.readouterr().out


def test_a_sweep_that_fails_leaves_its_out_empty_and_closed(tmp_path, capsys):
    # --out is opened, and so emptied as > FILE empties it, before the solve that overflows
    out = tmp_path / "x.csv"
    out.write_text("old\n")
    args = ["sweep", "--table", "2", "--method", "dtm", "--eps", "0.2", "--max", "180", "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args) == 3
        gc.collect()
    assert capsys.readouterr().err.startswith("numeric failure: coefficient 172 overflowed")
    assert out.read_text() == ""
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("args", [
    ["table", "--model", "delayed"],
    ["errors", "--model", "delayed"],
    ["trajectory", "--model", "coupled"],
    ["sweep", "--table", "4", "--method", "dtm", "--eps", "0.05", "--max", "5"],
])
def test_an_out_that_fails_on_write_is_a_usage_error_and_closed(capsys, args):
    # /dev/full opens, then refuses the write or the flush at close: the same line as an open that fails
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args + ["--out", "/dev/full"]) == 2
        gc.collect()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: cannot write /dev/full: {os.strerror(errno.ENOSPC)}"]
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


NO_CLOSED_FORM = "no closed form for the coupled model; use rk4"


@pytest.mark.parametrize("args, message", [
    (["table", "--model", "coupled", "--methods", "dtm,adm,vim,rk4,bogus"], "unknown method 'bogus'"),
    (["table", "--model", "coupled", "--order", "2000", "--methods", "dtm,adm,exact"], NO_CLOSED_FORM),
    (["table", "--model", "delayed", "--methods", "exact,vim,bogus,exact,other"], "unknown method 'bogus'"),
    (["errors", "--model", "coupled", "--oracle", "exact", "--methods", "bogus"], NO_CLOSED_FORM),
    (["errors", "--model", "coupled", "--methods", "vim,exact,bogus"], NO_CLOSED_FORM),
    (["errors", "--model", "delayed", "--methods", "dtm,rk4,"], "unknown method ''"),
    (["trajectory", "--model", "coupled", "--methods", "rk4,vim,exact"], NO_CLOSED_FORM),
    (["trajectory", "--model", "delayed", "--methods", "exact,rk4,DTM", "--out", "missing/x.csv"],
     "unknown method 'DTM'"),
    # an empty list is refused as an empty name, not taken as the default columns
    (["table", "--model", "delayed", "--methods", ""], "unknown method ''"),
    (["errors", "--model", "coupled", "--methods", ""], "unknown method ''"),
    (["trajectory", "--model", "coupled", "--methods", ""], "unknown method ''"),
])
def test_a_bad_method_is_a_usage_error_before_any_solve(tmp_path, capsys, monkeypatch, args, message):
    # the first bad method in the order the columns are solved, the errors oracle first, and before --out
    calls = watch_solves(monkeypatch)
    assert main([str(tmp_path / a) if a.endswith(".csv") else a for a in args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert calls == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, count", [
    (["table", "--model", "coupled", "--methods", "vim,rk4", "--t-max", "1e9", "--t-step", "1e9"], "1e+13"),
    # the adm column is not finite on this grid, so a solve of it would print a stderr line of its own
    (["trajectory", "--model", "coupled", "--eps", "0.1", "--methods", "adm,rk4", "--terms", "20",
      "--t-max", "1e20", "--t-step", "1e20"], "1e+24"),
    (["errors", "--model", "delayed", "--oracle", "rk4", "--methods", "dtm", "--t-max", "1e20", "--t-step", "1e20"],
     "1e+24"),
])
def test_an_rk4_step_budget_is_refused_before_any_solve(capsys, monkeypatch, args, count):
    calls = watch_solves(monkeypatch)
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {count} RK4 steps exceed the limit of 1e+08"]
    assert calls == []


@pytest.mark.parametrize("args", [
    ["table", "--model", "delayed", "--alpha", "1.5e308", "--beta", "0.5", "--sigma", "1.9999"],
    ["errors", "--model", "delayed", "--beta", "1e308", "--sigma", "10"],
    ["trajectory", "--model", "delayed", "--eps", "1.7e308"],
])
def test_an_overflowing_reduction_exits_3_before_any_solve(capsys, monkeypatch, args):
    # these sets were built with a, b infinite or zero, and every solver then failed on its own
    calls = watch_solves(monkeypatch)
    assert main(args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("numeric failure: the reduced model overflows")
    assert calls == []


# -- exit-code contract ---------------------------------------------------

# Zero, negative, tiny, subnormal and normal values are usable parameters;
# NaN and infinities are not.  Normal grids have at most ten steps.  A grid
# or RK4 run of more than 1e8 rows or steps is refused before it is built
# (a normal span over a 1e-300 step, or 1e308 over 1), a span over a 5e-324
# step overflows and is refused, and so is a count past the solve limits, so
# every draw runs quickly.
USABLE = ["0", "-0.5", "5e-324", "1e-300", "0.2", "0.5", "1.0", "2.0"]
NON_FINITE = ["nan", "inf", "-inf"]
EPS = ["0.1", "0.05", "0.5", "-0.5", "0", "5e-324", "50", "1e300", "-1e300"]  # the last three overflow
GRIDS = [("1.0", "0.2"), ("2.0", "0.4"), ("0.4", "0.2"), ("5e-324", "5e-324"), ("1e308", "1")]
# Counts past the solve limits are refused before any work.
COUNTS = (st.integers(-1, 80) | st.sampled_from([1001, 2002, 10**9, 10**30])).map(str)
MODEL_FLAGS = {"coupled": ("c", "eta", "gamma", "theta"), "delayed": ("alpha", "beta", "sigma")}


def pick(usable, bad):
    """One of ``usable`` three times as often as one of ``bad``."""
    return st.sampled_from(usable * 3 + bad)


def flag(name, values):
    """Zero or one ``--name=value`` argument, the ``=`` keeping ``-inf`` a value."""
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v}"]))


@st.composite
def cli_argv(draw):
    """A subcommand with flag values drawn from fixed sets, usable ones most often."""
    args = draw(flag("oracle-step", pick(["0.05", "0.2", "1.0", "2.0"], ["0", "-0.5", "5e-324", "1e-300"] + NON_FINITE)))
    command = draw(st.sampled_from(["table", "errors", "trajectory", "sweep"]))
    if command == "sweep":
        args += [f"--table={draw(st.integers(1, 4))}", f"--method={draw(st.sampled_from(['dtm', 'adm', 'vim']))}",
                 f"--eps={draw(pick(['0.1', '0.2', '0.05'], EPS + NON_FINITE))}"]
        args += draw(flag("min", COUNTS)) + draw(flag("max", COUNTS))
        return [command] + args
    model = draw(st.sampled_from(sorted(MODEL_FLAGS)))
    names = MODEL_FLAGS[model]
    if draw(st.integers(0, 9)) == 0:  # now and then a flag of the other model
        names += draw(st.sampled_from([v for k, v in MODEL_FLAGS.items() if k != model]))[:1]
    args.append(f"--model={model}")
    for name in names:
        args += draw(flag(name, pick(USABLE, NON_FINITE)))
    grid = draw(st.one_of(st.sampled_from(GRIDS), st.tuples(pick(USABLE, NON_FINITE), pick(USABLE, NON_FINITE))))
    args += [f"--t-max={grid[0]}", f"--t-step={grid[1]}"] if draw(st.booleans()) else []
    for name in ("order", "terms", "iters"):
        args += draw(flag(name, COUNTS))
    args += [f"--eps={e}" for e in draw(st.lists(pick(EPS, NON_FINITE), max_size=2))]
    methods = draw(st.lists(pick(["dtm", "adm", "vim", "rk4", "exact"], ["bogus"]), max_size=3, unique=True))
    if methods:
        args.append("--methods=" + ",".join(methods))
    if command == "errors":
        args += draw(flag("oracle", st.sampled_from(["exact", "rk4"])))
    return [command] + args


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
@settings(max_examples=200, deadline=None)
@given(cli_argv())
def test_every_flag_set_exits_0_2_or_3(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    if code == 2:
        assert err.getvalue().splitlines()[-1].startswith("error: ")


# -- start-up --------------------------------------------------------------


def test_import_loads_no_heavy_stdlib_module():
    # each of these added milliseconds to every CLI start; without site
    # hooks nothing else loads them
    src = str(Path(ensoseries.__file__).resolve().parent.parent)
    heavy = ("dataclasses", "inspect", "csv", "importlib.resources")
    code = (f"import sys; sys.path.insert(0, {src!r}); import ensoseries, ensoseries.cli; "
            f"print(','.join(m for m in {heavy!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""
