"""Command-line front end.

Four subcommands, all emitting CSV with one header line and fixed 9-decimal
values (matching the precision of the bundled benchmark tables):

* ``table``       solution values per method on a time grid
* ``errors``      absolute errors of each method against an oracle
* ``sweep``       deviation from a bundled table column across orders
* ``trajectory``  H (and h) curves per method, for external plotting

Exit codes: 0 success, 2 usage error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys

from .dtm import solve_coupled, solve_delayed
from .errors import NumericError, UsageError, check_count, check_step, check_steps, real, step_ratio
from .models import CoupledParams, DelayedParams, SolutionPair
from .oracle import _rk4_gaps, exact_delayed, rk4_values
from .reference import TABLE_INFO, load_table
from .series import _wrap
from .vim import vim_iterates, vim_solve

ERROR_CELL = "ERROR"
# Each series method's count by the name its solver checks it under in errors.COUNT_LIMITS.
_COUNT_NAME = {"dtm": "order", "adm": "n_terms", "vim": "iterations"}


def _fmt(value: float) -> str:
    if not math.isfinite(value):
        return ERROR_CELL
    return f"{value:.9f}"


def _grid(t_max: float, t_step: float) -> list[float]:
    t_max, t_step = real(t_max, "t-max"), real(t_step, "t-step")
    if t_step <= 0.0 or t_max < t_step:
        raise UsageError("need 0 < t-step <= t-max")
    n = round(step_ratio(t_max, t_step))
    check_steps(n + 1, "grid rows")
    if abs(n * t_step - t_max) > 1e-9 * min(1.0, t_max):  # relative to t-max below 1
        raise UsageError("t-max must be a whole number of t-steps")
    return [i * t_step for i in range(n + 1)]


def _params_from_args(args) -> list:
    """Build one parameter object per requested eps value; the defaults are the constants of tables 1 and 3."""
    coupled, delayed = TABLE_INFO[1][1], TABLE_INFO[3][1]
    own, other = (coupled, delayed) if args.model == "coupled" else (delayed, coupled)
    stray = [k for k in other if getattr(args, k) is not None]
    if stray:
        raise UsageError(f"--{stray[0]} does not apply to the {args.model} model")
    base = {k: getattr(args, k) if getattr(args, k) is not None else v
            for k, v in own.items()}
    if args.model == "coupled":
        return [CoupledParams(eps=e, **base) for e in (args.eps or [0.1, 0.2])]
    return [DelayedParams(eps=e, **base) for e in (args.eps or [0.05, 0.1])]


@contextlib.contextmanager
def _output(path):
    """The stream a command writes to: stdout, or ``--out`` opened for writing, emptied as ``> FILE`` empties it.

    Each command enters this after its other checks and before any solve, so an ``--out`` that ``open`` refuses,
    for any reason, starts no solve.  The file is closed on every path, and an ``OSError`` from opening, writing
    or closing it exits 2 as one ``cannot write`` line.
    """
    if path is None:
        yield sys.stdout
        return
    try:
        with open(path, "w") as fh:
            yield fh
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _prefix(sol, order):
    """The coefficients of orders 0..order of ``sol``, a series or a pair, wrapped unchecked: they were checked once."""
    if isinstance(sol, SolutionPair):
        return SolutionPair(_wrap(sol.H.coeffs[: order + 1]), _wrap(sol.h.coeffs[: order + 1]))
    return _wrap(sol.coeffs[: order + 1])


def _series_reader():
    """``series(method, params, n)``: the dtm series at order n, or the adm series of n terms, of ``params``.

    ADM's n weights are the DTM coefficients to order n - 1, and a higher order leaves lower ones bit for bit,
    so each is a prefix of the longest successful DTM series of that set so far (by identity, so eps 0.0 and
    -0.0 stay apart).  A failed solve is not kept: it fails again, on its own stderr line.
    """
    longest = {}

    def series(method, params, n):
        order = n - (method == "adm")
        top, sol = longest.get(id(params), (-1, None))
        if top < order:
            sol = (solve_coupled if isinstance(params, CoupledParams) else solve_delayed)(params, order)
            longest[id(params)] = order, sol
        return _prefix(sol, order)

    return series


def _column_setup(args, methods):
    """Parameter sets, grid, ``solve(method, params)``: the columns H (and h where the model has one) on the grid.

    Every argument and each of ``methods`` with its count or RK4 step count is checked here, before the caller
    enters :func:`_output` and before any solve.
    A numeric failure of a solve is reported on stderr under the method, the eps and, for a series
    method, its count (``dtm eps=0.1 order=25: ...``), and each of its columns is None.  A value that is
    not finite is reported under the same label at its first grid time, and its cell prints as an error.
    The dtm and adm columns of an eps are prefixes of its longest DTM series (see :func:`_series_reader`);
    a VIM column runs ``vim_solve``.  Each column is bit for bit the same column solved alone.
    """
    params_list = _params_from_args(args)
    coupled = args.model == "coupled"
    t_max = args.t_max if args.t_max is not None else (1.0 if coupled else 2.0)
    t_step = args.t_step if args.t_step is not None else (0.2 if coupled else 0.4)
    grid = _grid(t_max, t_step)
    order = args.order if args.order is not None else (40 if t_max >= 2.0 else 25)
    terms = args.terms if args.terms is not None else order + 1
    counts = {"dtm": ("order", order), "adm": ("terms", terms), "vim": ("iters", args.iters)}  # option and count
    for method in methods:  # in the order the command solves them, so the first bad one is named
        if method not in ("exact", "rk4", "dtm", "adm", "vim"):
            raise UsageError(f"unknown method {method!r}")
        if method == "exact" and coupled:
            raise UsageError("no closed form for the coupled model; use rk4")
        if method in counts:
            check_count(counts[method][1], _COUNT_NAME[method])
        if method == "rk4":  # every eps shares the grid, so one check covers each rk4 column
            _rk4_gaps(grid, args.oracle_step)
    series = _series_reader()

    def solve(method, params):
        option, n = counts.get(method, (None, None))
        label = f"{method} eps={params.eps:g}" + (f" {option}={n}" if option else "")
        try:
            if method == "exact":
                rows = [(exact_delayed(params, t),) for t in grid]
            elif method == "rk4":
                rows = rk4_values(params, grid, args.oracle_step)
            else:
                sol = vim_solve(params, n) if method == "vim" else series(method, params, n)
                rows = [(sol.H.eval(t), sol.h.eval(t)) if coupled else (sol.eval(t),) for t in grid]
        except NumericError as exc:
            print(f"{label}: {exc}", file=sys.stderr)
            return (None, None) if coupled else (None,)
        bad = next((t for t, row in zip(grid, rows) if not all(map(math.isfinite, row))), None)
        if bad is not None:
            print(f"{label}: not finite at t={bad:g}", file=sys.stderr)
        return tuple(zip(*rows))

    return params_list, grid, solve


def _emit(out, grid, columns) -> int:
    """Write ``t`` and each ``(name, values)`` of ``columns`` to ``out``; exit code 3 if any cell is an error.

    Values of None, from a solve that failed and has said so, print as a column of error cells.
    """
    cells = [[ERROR_CELL] * len(grid) if values is None else [_fmt(v) for v in values] for _, values in columns]
    lines = [",".join(["t"] + [name for name, _ in columns])]
    lines += [",".join([f"{t:.9f}", *row]) for t, *row in zip(grid, *cells)]
    out.write("\n".join(lines) + "\n")
    return 3 if any(ERROR_CELL in col for col in cells) else 0


def cmd_table(args) -> int:
    default_methods = "dtm,adm,vim" if args.model == "coupled" else "exact,dtm,adm,vim"
    methods = (default_methods if args.methods is None else args.methods).split(",")
    params_list, grid, solve = _column_setup(args, methods)
    with _output(args.out) as out:
        return _emit(out, grid, [(f"{m}_eps{p.eps:g}", solve(m, p)[0]) for m in methods for p in params_list])


def cmd_errors(args) -> int:
    oracle = args.oracle or ("exact" if args.model == "delayed" else "rk4")
    methods = ("dtm,adm,vim" if args.methods is None else args.methods).split(",")
    params_list, grid, solve = _column_setup(args, [oracle] + methods)
    with _output(args.out) as out:
        truths = [solve(oracle, p)[0] for p in params_list]  # by position: eps 0.0 and -0.0 are equal sets
        columns = []
        for p, truth in zip(params_list, truths):
            for m in methods:
                H = None if truth is None else solve(m, p)[0]  # an eps with no reference solves nothing
                columns.append((f"err_{m}_eps{p.eps:g}", None if H is None else [abs(v - w) for v, w in zip(H, truth)]))
        return _emit(out, grid, columns)


def cmd_sweep(args) -> int:
    table = load_table(args.table)
    target = table.column(args.method, args.eps)
    params = table.params(args.eps)
    if args.min < (1 if args.method != "dtm" else 0) or args.max < args.min:
        raise UsageError("need min <= max (and a positive count for adm/vim)")
    check_count(args.max, _COUNT_NAME[args.method])
    with _output(args.out) as out:
        if args.method == "vim":
            solutions = vim_iterates(params, args.max)[args.min:]
        else:  # one DTM solve at --max, so each lower n is a prefix
            series = _series_reader()
            series(args.method, params, args.max)
            solutions = (series(args.method, params, n) for n in range(args.min, args.max + 1))
        rows = []
        for n, sol in enumerate(solutions, args.min):
            H = sol.H if isinstance(sol, SolutionPair) else sol
            rows.append((n, max(abs(H.eval(t) - w) for t, w in zip(table.grid, target))))
        best_n = min(rows, key=lambda r: r[1])[0]
        lines = [f"{args.method}_n,max_abs_dev,best"]
        for n, dev in rows:
            lines.append(f"{n},{dev:.9e},{1 if n == best_n else 0}")
        out.write("\n".join(lines) + "\n")
    return 0


def cmd_trajectory(args) -> int:
    default_methods = "dtm,adm,vim,rk4" if args.model == "coupled" else "dtm,adm,vim,exact"
    methods = (default_methods if args.methods is None else args.methods).split(",")
    names = "Hh" if args.model == "coupled" else "H"
    params_list, grid, solve = _column_setup(args, methods)
    with _output(args.out) as out:
        return _emit(out, grid, [(f"{x}_{m}_eps{p.eps:g}", col) for m in methods for p in params_list
                                 for x, col in zip(names, solve(m, p))])


def _add_model_options(sub) -> None:
    sub.add_argument("--model", choices=["coupled", "delayed"], required=True)
    sub.add_argument("--c", type=float, default=None, help="coupled growth constant")
    sub.add_argument("--eta", type=float, default=None, help="coupled H-h coupling")
    sub.add_argument("--gamma", type=float, default=None, help="coupled damping")
    sub.add_argument("--theta", type=float, default=None, help="coupled feedback")
    sub.add_argument("--alpha", type=float, default=None, help="delayed growth constant")
    sub.add_argument("--beta", type=float, default=None, help="delayed feedback constant")
    sub.add_argument("--sigma", type=float, default=None, help="delay constant")
    sub.add_argument(
        "--eps", type=float, action="append", default=None,
        help="cubic perturbation; repeat for several columns",
    )
    sub.add_argument("--order", type=int, default=None, help="series truncation order")
    sub.add_argument("--terms", type=int, default=None, help="decomposition component count")
    sub.add_argument("--iters", type=int, default=10, help="iteration count")
    sub.add_argument("--t-max", type=float, default=None)
    sub.add_argument("--t-step", type=float, default=None)
    sub.add_argument("--methods", default=None, help="comma list, e.g. dtm,adm,vim")


def _add_errors_options(sub) -> None:
    _add_model_options(sub)
    sub.add_argument("--oracle", choices=["exact", "rk4"], default=None)


def _add_sweep_options(sub) -> None:
    sub.add_argument("--table", type=int, choices=[1, 2, 3, 4], required=True)
    sub.add_argument("--method", choices=["dtm", "adm", "vim"], required=True)
    sub.add_argument("--eps", type=float, required=True)
    sub.add_argument("--min", type=int, default=1)
    sub.add_argument("--max", type=int, default=30)


# Each subcommand once: its help line, the function that adds its own options, its handler.
_COMMANDS = {
    "table": ("solution values per method on a grid", _add_model_options, cmd_table),
    "errors": ("absolute error of each method vs an oracle", _add_errors_options, cmd_errors),
    "sweep": ("deviation from a bundled table across orders", _add_sweep_options, cmd_sweep),
    "trajectory": ("H (and h) curves per method", _add_model_options, cmd_trajectory),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``command`` alone, or of all four subcommands if it is None.

    Each subcommand takes its own options, then ``--oracle-step`` and ``--out``, which :func:`main` and every
    handler read.  Adding subparsers and options is most of the cost of a parser, and a call parses one subcommand.
    """
    import shutil  # on first use, as argparse imports it, so importing the CLI imports nothing more

    # argparse's own width, read once here rather than by every formatter it builds, one per option
    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="ensoseries",
        description="Series-method solvers for two nonlinear ENSO oscillator models.",
        formatter_class=formatter,
    )
    names = "{" + ",".join(_COMMANDS) + "}"  # a lone subparser's usage lines name all four, as the full parser's do
    subs = parser.add_subparsers(dest="command", required=True, metavar=names if command else None)
    for name in (command,) if command else _COMMANDS:
        help_text, add_options, _ = _COMMANDS[name]
        sub = subs.add_parser(name, help=help_text, formatter_class=formatter)
        add_options(sub)
        sub.add_argument("--oracle-step", type=float, default=1e-4, help="reference integrator step")
        sub.add_argument("--out", default=None, help="output file (default: stdout)")
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in _COMMANDS else None  # else --help, an unknown or no command
    args = build_parser(command).parse_args(argv)
    try:
        check_step(args.oracle_step)
        return _COMMANDS[args.command][2](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
