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
import math
import sys

from .adm import adm_solve_coupled, adm_solve_delayed
from .dtm import assemble, transform_coupled, transform_delayed
from .errors import MAX_ITERATIONS, NumericError, UsageError, check_count, check_step, check_steps, step_ratio
from .models import CoupledParams, DelayedParams, SolutionPair
from .oracle import exact_delayed, rk4_values
from .reference import load_table
from .vim import initial_state, vim_step_coupled, vim_step_delayed

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
    if abs(n * t_step - t_max) > 1e-9:
        raise UsageError("t-max must be a whole number of t-steps")
    return [i * t_step for i in range(n + 1)]


def _params_from_args(args) -> tuple[str, list]:
    """Build one parameter object per requested eps value."""
    own = _COUPLED_DEFAULTS if args.model == "coupled" else _DELAYED_DEFAULTS
    other = _DELAYED_DEFAULTS if args.model == "coupled" else _COUPLED_DEFAULTS
    stray = [k for k in other if getattr(args, k) is not None]
    if stray:
        raise UsageError(f"--{stray[0]} does not apply to the {args.model} model")
    base = {k: getattr(args, k) if getattr(args, k) is not None else v
            for k, v in own.items()}
    if args.model == "coupled":
        return args.model, [CoupledParams(eps=e, **base) for e in (args.eps or [0.1, 0.2])]
    return args.model, [DelayedParams(eps=e, **base) for e in (args.eps or [0.05, 0.1])]


def _resolve_order(args) -> int:
    if args.order is not None:
        return args.order
    return 40 if args.t_max >= 2.0 else 25


def _solution_values(method, params, grid, order, terms, iters, oracle_step):
    """H values (and h where the model has one) for one method on the grid."""
    coupled = isinstance(params, CoupledParams)
    if method == "exact":
        if coupled:
            raise UsageError("no closed form for the coupled model; use rk4")
        return [(exact_delayed(params, t),) for t in grid]
    if method == "rk4":
        return rk4_values(params, grid, oracle_step)
    counts = {"dtm": order, "adm": terms, "vim": iters}
    if method not in counts:
        raise UsageError(f"unknown method {method!r}")
    sol = next(_solutions(method, params, counts[method], counts[method]))
    if isinstance(sol, SolutionPair):
        return [(sol.H.eval(t), sol.h.eval(t)) for t in grid]
    return [(sol.eval(t),) for t in grid]


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


def _column_setup(args):
    """Model, parameter sets, grid, and ``solve(method, params)``: values on the grid."""
    model, params_list = _params_from_args(args)
    grid = _grid(args.t_max, args.t_step)
    order = _resolve_order(args)
    terms = args.terms if args.terms is not None else order + 1

    def solve(method, params):
        return _solution_values(method, params, grid, order, terms, args.iters, args.oracle_step)

    return model, params_list, grid, solve


def _emit(out_path, grid, specs, columns) -> int:
    """Write ``t`` and one column per name; exit code 3 if any cell is an error.

    ``specs`` lists ``(method, params, names)``, and ``columns(method,
    params)`` returns the values of each name.  A numeric failure turns all
    of them into error cells.
    """
    header, cells = ["t"], []
    for method, params, names in specs:
        try:
            cols = [[_fmt(v) for v in col] for col in columns(method, params)]
        except NumericError as exc:
            print(f"{method} eps={params.eps:g}: {exc}", file=sys.stderr)
            cols = [[ERROR_CELL] * len(grid) for _ in names]
        header += names
        cells += cols
    lines = [",".join(header)]
    for i, t in enumerate(grid):
        lines.append(",".join([f"{t:.9f}"] + [col[i] for col in cells]))
    _write(out_path, lines)
    return 3 if any(ERROR_CELL in col for col in cells) else 0


def cmd_table(args) -> int:
    model, params_list, grid, solve = _column_setup(args)
    default_methods = "dtm,adm,vim" if model == "coupled" else "exact,dtm,adm,vim"
    methods = (args.methods or default_methods).split(",")
    specs = [(m, p, [f"{m}_eps{p.eps:g}"]) for m in methods for p in params_list]
    return _emit(args.out, grid, specs, lambda m, p: [[v[0] for v in solve(m, p)]])


def cmd_errors(args) -> int:
    model, params_list, grid, solve = _column_setup(args)
    oracle = args.oracle or ("exact" if model == "delayed" else "rk4")
    methods = (args.methods or "dtm,adm,vim").split(",")
    truth = {}
    for p in params_list:
        try:
            truth[p] = [v[0] for v in solve(oracle, p)]
        except NumericError as exc:
            print(f"{oracle} eps={p.eps:g}: {exc}", file=sys.stderr)
            truth[p] = None

    def errors(m, p):
        if truth[p] is None:  # no reference: every error of this eps is an ERROR cell
            return [[math.nan] * len(grid)]
        return [[abs(v[0] - w) for v, w in zip(solve(m, p), truth[p])]]

    specs = [(m, p, [f"err_{m}_eps{p.eps:g}"]) for p in params_list for m in methods]
    return _emit(args.out, grid, specs, errors)


def _solutions(method, params, lo, hi):
    """Series solution at each order, component or iteration count n in lo..hi.

    All come from one solve at hi: raising the order leaves lower
    coefficients, components and iterates bit-for-bit unchanged, so each n
    is a prefix of that solve.  Yields a :class:`SolutionPair` for the
    coupled model, a single :class:`SeriesPoly` for the scalar one.
    """
    coupled = isinstance(params, CoupledParams)
    if method == "dtm":
        res = (transform_coupled if coupled else transform_delayed)(params, hi)
        for n in range(lo, hi + 1):
            yield assemble(res, n)
    elif method == "adm":
        state = (adm_solve_coupled if coupled else adm_solve_delayed)(params, hi, hi)
        for n in range(lo, hi + 1):
            yield state.solution(n)
    else:
        check_count(hi, "iterations", 0, MAX_ITERATIONS)  # before the first step
        step = vim_step_coupled if coupled else vim_step_delayed
        state = initial_state(params)
        for n in range(hi + 1):
            if n >= lo:
                yield SolutionPair(state.H_iter, state.h_iter) if coupled else state.H_iter
            if n < hi:
                state = step(state, params)


def cmd_sweep(args) -> int:
    table = load_table(args.table)
    target = table.column(args.method, args.eps)
    params = table.params(args.eps)
    if args.min < (1 if args.method != "dtm" else 0) or args.max < args.min:
        raise UsageError("need min <= max (and a positive count for adm/vim)")
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
    model, params_list, grid, solve = _column_setup(args)
    default_methods = "dtm,adm,vim,rk4" if model == "coupled" else "dtm,adm,vim,exact"
    methods = (args.methods or default_methods).split(",")
    specs = [
        (m, p, [f"{x}_{m}_eps{p.eps:g}" for x in ("Hh" if model == "coupled" and m != "exact" else "H")])
        for m in methods
        for p in params_list
    ]
    return _emit(args.out, grid, specs, lambda m, p: list(zip(*solve(m, p))))


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


def _finish_grid_defaults(args) -> None:
    if getattr(args, "t_max", None) is None:
        args.t_max = 1.0 if args.model == "coupled" else 2.0
    if getattr(args, "t_step", None) is None:
        args.t_step = 0.2 if args.model == "coupled" else 0.4


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
    if hasattr(args, "model"):
        _finish_grid_defaults(args)
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
