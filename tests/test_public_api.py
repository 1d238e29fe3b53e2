"""The package root: the README quick start runs against it, and it exports nothing more."""

import ast
import struct
from pathlib import Path

import ensoseries

README = Path(__file__).resolve().parent.parent / "README.md"

ROOT_API = {
    # the README quick start
    "CoupledParams", "DelayedParams", "solve_coupled", "solve_delayed", "adm_solve_delayed",
    "vim_solve", "exact_delayed", "rk4_values", "residual_check",
    # the coupled twin of adm_solve_delayed, and the types the calls return
    "adm_solve_coupled", "SeriesPoly", "SolutionPair",
    # the error types
    "DomainError", "NumericError", "ParameterRangeWarning", "SeriesOverflowError",
    "SingularModelError", "UsageError",
}


def quick_start_source() -> str:
    """The ```python block under the README's "## Library quick start" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def run_statements(source: str) -> tuple[dict, dict]:
    """Run ``source`` one statement at a time: its namespace, and each expression statement's value."""
    namespace, values = {}, {}
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values[ast.unparse(stmt.value)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    return namespace, values


def test_the_readme_quick_start_runs_against_the_package_root():
    namespace, values = run_statements(quick_start_source())
    value = values["series.eval(0.4)"]
    assert repr(value).startswith("1.0654768690999")
    assert abs(value - values["exact_delayed(p, 0.4)"]) <= 1e-15
    assert values["residual_check(series, p)"] < 1e-15
    adm = namespace["adm_solve_delayed"](namespace["p"], n_terms=26)
    assert isinstance(adm, ensoseries.SeriesPoly)
    adm_value = values["adm_solve_delayed(p, n_terms=26).eval(0.4)"]
    assert struct.pack("<d", adm_value) == struct.pack("<d", value)
    assert isinstance(namespace["series"], ensoseries.SeriesPoly)
    assert isinstance(namespace["pair"], ensoseries.SolutionPair)
    assert len(next(v for k, v in values.items() if k.startswith("rk4_values("))) == 2


def test_the_package_root_exports_the_readme_api():
    assert set(ensoseries.__all__) == ROOT_API
    assert len(ensoseries.__all__) == len(ROOT_API)
    for name in ensoseries.__all__:
        assert getattr(ensoseries, name).__name__ == name
