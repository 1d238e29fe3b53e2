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
from .dtm import solve_coupled, solve_delayed
from .errors import NumericError, UsageError
from .models import CoupledParams, DelayedParams, SolutionPair
from .oracle import exact_delayed, rk4_values
from .reference import load_table
from .series import SeriesPoly
from .vim import vim_solve

_COUPLED_DEFAULTS = {"c": 1.0, "eta": 1.0, "gamma": 1.0, "theta": 1.0}
_DELAYED_DEFAULTS = {"alpha": 0.5, "beta": 0.3, "sigma": 0.25}
ERROR_CELL = "ERROR"


def _fmt(value: float) -> str:
    if not math.isfinite(value):
        return ERROR_CELL
    return f"{value:.9f}"


def _grid(t_max: float, t_step: float) -> list[float]:
    if t_step <= 0.0 or t_max < t_step:
        raise UsageError("need 0 < t-step <= t-max")
    n = round(t_max / t_step)
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
    if method == "dtm":
        sol = solve_coupled(params, order) if coupled else solve_delayed(params, order)
    elif method == "adm":
        state = (adm_solve_coupled if coupled else adm_solve_delayed)(params, terms, terms)
        sol = state.solution()
    elif method == "vim":
        sol = vim_solve(params, iters)
    else:
        raise UsageError(f"unknown method {method!r}")
    if isinstance(sol, SolutionPair):
        return [(sol.H.eval(t), sol.h.eval(t)) for t in grid]
    return [(sol.eval(t),) for t in grid]


def _write(out_path, lines) -> None:
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def cmd_table(args) -> int:
    model, params_list = _params_from_args(args)
    grid = _grid(args.t_max, args.t_step)
    order = _resolve_order(args)
    terms = args.terms if args.terms is not None else order + 1
    default_methods = "dtm,adm,vim" if model == "coupled" else "exact,dtm,adm,vim"
    methods = (args.methods or default_methods).split(",")
    header = ["t"]
    columns = []
    failed = False
    for method in methods:
        for params in params_list:
            header.append(f"{method}_eps{params.eps:g}")
            try:
                values = _solution_values(
                    method, params, grid, order, terms, args.iters, args.oracle_step
                )
                cells = [_fmt(v[0]) for v in values]
            except NumericError as exc:
                print(f"{method} eps={params.eps:g}: {exc}", file=sys.stderr)
                cells = [ERROR_CELL] * len(grid)
            if ERROR_CELL in cells:
                failed = True
            columns.append(cells)
    lines = [",".join(header)]
    for i, t in enumerate(grid):
        lines.append(",".join([f"{t:.9f}"] + [col[i] for col in columns]))
    _write(args.out, lines)
    return 3 if failed else 0


def cmd_errors(args) -> int:
    model, params_list = _params_from_args(args)
    grid = _grid(args.t_max, args.t_step)
    order = _resolve_order(args)
    terms = args.terms if args.terms is not None else order + 1
    oracle = args.oracle or ("exact" if model == "delayed" else "rk4")
    methods = (args.methods or "dtm,adm,vim").split(",")
    header = ["t"]
    columns = []
    failed = False
    for params in params_list:
        truth = [
            v[0]
            for v in _solution_values(oracle, params, grid, order, terms, args.iters, args.oracle_step)
        ]
        for method in methods:
            header.append(f"err_{method}_eps{params.eps:g}")
            try:
                values = _solution_values(
                    method, params, grid, order, terms, args.iters, args.oracle_step
                )
                cells = [_fmt(abs(v[0] - w)) for v, w in zip(values, truth)]
            except NumericError as exc:
                print(f"{method} eps={params.eps:g}: {exc}", file=sys.stderr)
                cells = [ERROR_CELL] * len(grid)
            if ERROR_CELL in cells:
                failed = True
            columns.append(cells)
    lines = [",".join(header)]
    for i, t in enumerate(grid):
        lines.append(",".join([f"{t:.9f}"] + [col[i] for col in columns]))
    _write(args.out, lines)
    return 3 if failed else 0


def cmd_sweep(args) -> int:
    table = load_table(args.table)
    target = table.column(args.method, args.eps)
    params = table.params(args.eps)
    if args.min < (1 if args.method != "dtm" else 0) or args.max < args.min:
        raise UsageError("need min <= max (and a positive count for adm/vim)")
    rows = []
    for n in range(args.min, args.max + 1):
        values = [
            v[0]
            for v in _solution_values(
                args.method, params, list(table.grid), n, n, n, args.oracle_step
            )
        ]
        rows.append((n, max(abs(v - w) for v, w in zip(values, target))))
    best_n = min(rows, key=lambda r: r[1])[0]
    lines = [f"{args.method}_n,max_abs_dev,best"]
    for n, dev in rows:
        lines.append(f"{n},{dev:.9e},{1 if n == best_n else 0}")
    _write(args.out, lines)
    return 0


def cmd_trajectory(args) -> int:
    model, params_list = _params_from_args(args)
    grid = _grid(args.t_max, args.t_step)
    order = _resolve_order(args)
    terms = args.terms if args.terms is not None else order + 1
    default_methods = "dtm,adm,vim,rk4" if model == "coupled" else "dtm,adm,vim,exact"
    methods = (args.methods or default_methods).split(",")
    header = ["t"]
    columns = []
    failed = False
    for method in methods:
        for params in params_list:
            names = [f"H_{method}_eps{params.eps:g}"]
            if model == "coupled" and method != "exact":
                names.append(f"h_{method}_eps{params.eps:g}")
            try:
                values = _solution_values(
                    method, params, grid, order, terms, args.iters, args.oracle_step
                )
                cols = [[_fmt(v[i]) for v in values] for i in range(len(names))]
            except NumericError as exc:
                print(f"{method} eps={params.eps:g}: {exc}", file=sys.stderr)
                cols = [[ERROR_CELL] * len(grid) for _ in names]
            if any(ERROR_CELL in col for col in cols):
                failed = True
            header.extend(names)
            columns.extend(cols)
    lines = [",".join(header)]
    for i, t in enumerate(grid):
        lines.append(",".join([f"{t:.9f}"] + [col[i] for col in columns]))
    _write(args.out, lines)
    return 3 if failed else 0


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


def _finish_grid_defaults(args) -> None:
    if getattr(args, "t_max", None) is None:
        args.t_max = 1.0 if args.model == "coupled" else 2.0
    if getattr(args, "t_step", None) is None:
        args.t_step = 0.2 if args.model == "coupled" else 0.4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ensoseries",
        description="Series-method solvers for two nonlinear ENSO oscillator models.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_table = subs.add_parser("table", help="solution values per method on a grid")
    _add_common(p_table)
    p_table.set_defaults(func=cmd_table)

    p_errors = subs.add_parser("errors", help="absolute error of each method vs an oracle")
    _add_common(p_errors)
    p_errors.add_argument("--oracle", choices=["exact", "rk4"], default=None)
    p_errors.set_defaults(func=cmd_errors)

    p_sweep = subs.add_parser("sweep", help="deviation from a bundled table across orders")
    p_sweep.add_argument("--table", type=int, choices=[1, 2, 3, 4], required=True)
    p_sweep.add_argument("--method", choices=["dtm", "adm", "vim"], required=True)
    p_sweep.add_argument("--eps", type=float, required=True)
    p_sweep.add_argument("--min", type=int, default=1)
    p_sweep.add_argument("--max", type=int, default=30)
    _add_common(p_sweep, model_required=False)
    p_sweep.set_defaults(func=cmd_sweep)

    p_traj = subs.add_parser("trajectory", help="H (and h) curves per method")
    _add_common(p_traj)
    p_traj.set_defaults(func=cmd_trajectory)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "model"):
        _finish_grid_defaults(args)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
