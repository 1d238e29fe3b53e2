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
import errno
import math
import os
import sys

from .adm import AdmState
from .dtm import assemble, transform_coupled, transform_delayed
from .errors import NumericError, UsageError, check_count, check_step, check_steps, step_ratio
from .models import CoupledParams, DelayedParams, SolutionPair
from .oracle import _rk4_gaps, exact_delayed, rk4_values
from .reference import load_table
from .vim import vim_iterates, vim_solve

_COUPLED_DEFAULTS = {"c": 1.0, "eta": 1.0, "gamma": 1.0, "theta": 1.0}
_DELAYED_DEFAULTS = {"alpha": 0.5, "beta": 0.3, "sigma": 0.25}
ERROR_CELL = "ERROR"


def _fmt(value: float) -> str:
    if not math.isfinite(value):
        return ERROR_CELL
    return f"{value:.9f}"


def _grid(t_max: float, t_step: float) -> list[float]:
    if not (math.isfinite(t_max) and math.isfinite(t_step)):
        raise UsageError("t-max and t-step must be finite")
    if t_step <= 0.0 or t_max < t_step:
        raise UsageError("need 0 < t-step <= t-max")
    n = round(step_ratio(t_max, t_step))
    check_steps(n + 1, "grid rows")
    if abs(n * t_step - t_max) > 1e-9 * min(1.0, t_max):  # relative to t-max below 1
        raise UsageError("t-max must be a whole number of t-steps")
    return [i * t_step for i in range(n + 1)]


def _params_from_args(args) -> list:
    """Build one parameter object per requested eps value."""
    own = _COUPLED_DEFAULTS if args.model == "coupled" else _DELAYED_DEFAULTS
    other = _DELAYED_DEFAULTS if args.model == "coupled" else _COUPLED_DEFAULTS
    stray = [k for k in other if getattr(args, k) is not None]
    if stray:
        raise UsageError(f"--{stray[0]} does not apply to the {args.model} model")
    base = {k: getattr(args, k) if getattr(args, k) is not None else v
            for k, v in own.items()}
    if args.model == "coupled":
        return [CoupledParams(eps=e, **base) for e in (args.eps or [0.1, 0.2])]
    return [DelayedParams(eps=e, **base) for e in (args.eps or [0.05, 0.1])]


def _refuse_unwritable(out_path) -> None:
    """Refuse an ``--out`` that is a directory or lies in a missing one, before any solve.

    The reason is the one ``open`` would give, and no file is created.
    Whatever else keeps the file from being written, :func:`_write` reports.
    """
    if out_path is None:
        return
    if os.path.isdir(out_path):
        raise UsageError(f"cannot write {out_path}: {os.strerror(errno.EISDIR)}")
    try:
        os.stat(os.path.dirname(out_path.rstrip(os.sep)) or ".")
    except OSError as exc:
        raise UsageError(f"cannot write {out_path}: {exc.strerror}") from None


def _write(out_path, lines) -> None:
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out_path}: {exc.strerror}") from None


def _column_setup(args, methods):
    """Parameter sets, grid, and ``solve(method, params)``: the columns H (and h where the model has one) on the grid.

    Every argument, each of ``methods`` with its count or RK4 step count, and ``--out`` is checked before any solve.
    A numeric failure of a solve is reported on stderr under the method, the eps and, for a series
    method, its count (``dtm eps=0.1 order=25: ...``), and each of its columns is None.  A value that is
    not finite is reported under the same label at its first grid time, and its cell prints as an error.
    One command's dtm column at order n and adm column at n + 1 terms read one DTM transform; a VIM
    column runs ``vim_solve``.  Each column is bit for bit the same column solved alone.
    """
    params_list = _params_from_args(args)
    coupled = args.model == "coupled"
    t_max = args.t_max if args.t_max is not None else (1.0 if coupled else 2.0)
    t_step = args.t_step if args.t_step is not None else (0.2 if coupled else 0.4)
    grid = _grid(t_max, t_step)
    order = args.order if args.order is not None else (40 if t_max >= 2.0 else 25)
    terms = args.terms if args.terms is not None else order + 1
    # each series method's option and count, then the solver's own name for that count
    counts = {"dtm": ("order", order, "order"), "adm": ("terms", terms, "n_terms"),
              "vim": ("iters", args.iters, "iterations")}
    for method in methods:  # in the order the command solves them, so the first bad one is named
        if method not in ("exact", "rk4", "dtm", "adm", "vim"):
            raise UsageError(f"unknown method {method!r}")
        if method == "exact" and coupled:
            raise UsageError("no closed form for the coupled model; use rk4")
        if method in counts:
            check_count(*counts[method][1:])
        if method == "rk4":  # every eps shares the grid, so one check covers each rk4 column
            _rk4_gaps(grid, args.oracle_step)
    _refuse_unwritable(args.out)
    # each successful transform by (id(params), order): an adm column at n terms reads the transform at
    # order n - 1, ADM's n component weights, so with --terms = --order + 1 the dtm and adm columns share one;
    # keyed by identity so that eps 0.0 and -0.0 stay apart, and a failed transform fails again, on its own line
    transforms = {}

    def transform(params, order):
        key = (id(params), order)
        if key not in transforms:
            transforms[key] = (transform_coupled if coupled else transform_delayed)(params, order)
        return transforms[key]

    def solve(method, params):
        option, n = counts[method][:2] if method in counts else (None, None)
        label = f"{method} eps={params.eps:g}" + (f" {option}={n}" if option else "")
        try:
            if method == "exact":
                rows = [(exact_delayed(params, t),) for t in grid]
            elif method == "rk4":
                rows = rk4_values(params, grid, args.oracle_step)
            else:
                if method == "dtm":
                    sol = assemble(transform(params, n))
                elif method == "adm":
                    r = transform(params, n - 1)
                    sol = AdmState(r.W, r.V).solution()
                else:
                    sol = vim_solve(params, n)
                rows = [(sol.H.eval(t), sol.h.eval(t)) if coupled else (sol.eval(t),) for t in grid]
        except NumericError as exc:
            print(f"{label}: {exc}", file=sys.stderr)
            return (None, None) if coupled else (None,)
        bad = next((t for t, row in zip(grid, rows) if not all(map(math.isfinite, row))), None)
        if bad is not None:
            print(f"{label}: not finite at t={bad:g}", file=sys.stderr)
        return tuple(zip(*rows))

    return params_list, grid, solve


def _emit(out_path, grid, columns) -> int:
    """Write ``t`` and each ``(name, values)`` of ``columns``; exit code 3 if any cell is an error.

    Values of None, from a solve that failed and has said so, print as a column of error cells.
    """
    cells = [[ERROR_CELL] * len(grid) if values is None else [_fmt(v) for v in values] for _, values in columns]
    lines = [",".join(["t"] + [name for name, _ in columns])]
    lines += [",".join([f"{t:.9f}", *row]) for t, *row in zip(grid, *cells)]
    _write(out_path, lines)
    return 3 if any(ERROR_CELL in col for col in cells) else 0


def cmd_table(args) -> int:
    default_methods = "dtm,adm,vim" if args.model == "coupled" else "exact,dtm,adm,vim"
    methods = (default_methods if args.methods is None else args.methods).split(",")
    params_list, grid, solve = _column_setup(args, methods)
    return _emit(args.out, grid, [(f"{m}_eps{p.eps:g}", solve(m, p)[0]) for m in methods for p in params_list])


def cmd_errors(args) -> int:
    oracle = args.oracle or ("exact" if args.model == "delayed" else "rk4")
    methods = ("dtm,adm,vim" if args.methods is None else args.methods).split(",")
    params_list, grid, solve = _column_setup(args, [oracle] + methods)
    truth = {p: solve(oracle, p)[0] for p in params_list}
    columns = []
    for p in params_list:
        for m in methods:
            H = None if truth[p] is None else solve(m, p)[0]  # an eps with no reference solves nothing
            columns.append((f"err_{m}_eps{p.eps:g}", None if H is None else [abs(v - w) for v, w in zip(H, truth[p])]))
    return _emit(args.out, grid, columns)


def _solutions(method, params, lo, hi):
    """Series solution at each order, component or iteration count n in lo..hi, for ``sweep``.

    All come from one solve at hi: raising the order leaves lower
    coefficients, components and iterates bit-for-bit unchanged, so each n
    is a prefix of that solve.  Yields a :class:`SolutionPair` for the
    coupled model, a single :class:`SeriesPoly` for the scalar one.
    """
    if method == "vim":
        yield from vim_iterates(params, hi)[lo:]
        return
    if method == "adm":  # hi components are the DTM coefficients to order hi - 1; their count is checked first
        check_count(hi, "n_terms")
    r = (transform_coupled if isinstance(params, CoupledParams) else transform_delayed)(params, hi - (method == "adm"))
    adm = AdmState(r.W, r.V)
    for n in range(lo, hi + 1):
        yield assemble(r, n) if method == "dtm" else adm.solution(n)


def cmd_sweep(args) -> int:
    table = load_table(args.table)
    target = table.column(args.method, args.eps)
    params = table.params(args.eps)
    if args.min < (1 if args.method != "dtm" else 0) or args.max < args.min:
        raise UsageError("need min <= max (and a positive count for adm/vim)")
    _refuse_unwritable(args.out)
    rows = []
    for n, sol in enumerate(_solutions(args.method, params, args.min, args.max), args.min):
        H = sol.H if isinstance(sol, SolutionPair) else sol
        rows.append((n, max(abs(H.eval(t) - w) for t, w in zip(table.grid, target))))
    best_n = min(rows, key=lambda r: r[1])[0]
    lines = [f"{args.method}_n,max_abs_dev,best"]
    for n, dev in rows:
        lines.append(f"{n},{dev:.9e},{1 if n == best_n else 0}")
    _write(args.out, lines)
    return 0


def cmd_trajectory(args) -> int:
    default_methods = "dtm,adm,vim,rk4" if args.model == "coupled" else "dtm,adm,vim,exact"
    methods = (default_methods if args.methods is None else args.methods).split(",")
    params_list, grid, solve = _column_setup(args, methods)
    names = "Hh" if args.model == "coupled" else "H"
    return _emit(args.out, grid, [(f"{x}_{m}_eps{p.eps:g}", col) for m in methods for p in params_list
                                  for x, col in zip(names, solve(m, p))])


def _add_common(sub, model_required=True):
    if model_required:
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
    sub.add_argument("--oracle-step", type=float, default=1e-4, help="reference integrator step")
    sub.add_argument("--out", default=None, help="output file (default: stdout)")


def _add_errors_options(sub) -> None:
    _add_common(sub)
    sub.add_argument("--oracle", choices=["exact", "rk4"], default=None)


def _add_sweep_options(sub) -> None:
    sub.add_argument("--table", type=int, choices=[1, 2, 3, 4], required=True)
    sub.add_argument("--method", choices=["dtm", "adm", "vim"], required=True)
    sub.add_argument("--eps", type=float, required=True)
    sub.add_argument("--min", type=int, default=1)
    sub.add_argument("--max", type=int, default=30)
    _add_common(sub, model_required=False)


# Each subcommand once: its help line, the function that adds its options, its handler.
_COMMANDS = {
    "table": ("solution values per method on a grid", _add_common, cmd_table),
    "errors": ("absolute error of each method vs an oracle", _add_errors_options, cmd_errors),
    "sweep": ("deviation from a bundled table across orders", _add_sweep_options, cmd_sweep),
    "trajectory": ("H (and h) curves per method", _add_common, cmd_trajectory),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``command`` alone, or of all four subcommands if it is None.

    Adding subparsers and options is most of the cost of a parser, and a call parses one subcommand.
    """
    parser = argparse.ArgumentParser(
        prog="ensoseries",
        description="Series-method solvers for two nonlinear ENSO oscillator models.",
    )
    names = "{" + ",".join(_COMMANDS) + "}"  # a lone subparser's usage lines name all four, as the full parser's do
    subs = parser.add_subparsers(dest="command", required=True, metavar=names if command else None)
    for name in (command,) if command else _COMMANDS:
        help_text, add_options, handler = _COMMANDS[name]
        sub = subs.add_parser(name, help=help_text)
        add_options(sub)
        sub.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in _COMMANDS else None  # else --help, an unknown or no command
    args = build_parser(command).parse_args(argv)
    try:
        check_step(args.oracle_step)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
