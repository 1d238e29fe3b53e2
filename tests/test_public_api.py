"""The package root: the README quick start runs against it, it exports nothing more, and every real it takes is checked."""

import ast
import math
import struct
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import Index

import ensoseries
from ensoseries import CoupledParams, DelayedParams, SeriesPoly, UsageError, exact_delayed, rk4_values

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


class OnlyFloat:
    """A real number that converts to a float through ``__float__`` and by no other means."""

    def __float__(self) -> float:
        return 0.5


# values a real-valued argument must refuse with UsageError, and values it must take as their float
REFUSED = {
    "str": "0.5", "bytes": b"0.5", "None": None, "complex": 0.5j, "nan": math.nan, "inf": math.inf,
    "-inf": -math.inf, "10**400": 10**400, "-10**400": -(10**400), "Fraction(10**400, 3)": Fraction(10**400, 3),
    "Decimal(1e400)": Decimal("1e400"), "Decimal(nan)": Decimal("nan"), "Decimal(sNaN)": Decimal("sNaN"),
}
ACCEPTED = {"bool": True, "__float__ only": OnlyFloat()}

COUPLED = {"c": 0.5, "eta": 0.5, "gamma": 1.0, "theta": 1.0, "eps": 0.1, "H0": 1.0, "h0": 1.0}
DELAYED = {"alpha": 0.5, "beta": 0.3, "sigma": 0.25, "eps": 0.05, "H0": 1.0}
LINE = SeriesPoly((1.0, 2.0))


def with_field(record, fields, name):
    return name, lambda v: record(**{**fields, name: v})


# every real-valued argument of a name in ensoseries.__all__: the field its refusal names, and a call that passes it
REAL_INPUTS = {
    **{f"CoupledParams.{k}": with_field(CoupledParams, COUPLED, k) for k in COUPLED},
    **{f"DelayedParams.{k}": with_field(DelayedParams, DELAYED, k) for k in DELAYED},
    "SeriesPoly coefficient": ("coefficient 0", lambda v: SeriesPoly((v, 1.0))),
    "SeriesPoly.monomial value": ("value", lambda v: SeriesPoly.monomial(v, 1, 2)),
    "SeriesPoly.scale": ("factor", lambda v: LINE.scale(v)),
    "SeriesPoly.eval": ("t", lambda v: LINE.eval(v)),
    "exact_delayed t": ("t", lambda v: exact_delayed(DelayedParams(**DELAYED), v)),
    "rk4_values times": ("times", lambda v: rk4_values(DelayedParams(**DELAYED), [0.25, v])),
    "rk4_values step": ("step", lambda v: rk4_values(DelayedParams(**DELAYED), [0.5], v)),
}
# the integer arguments of SeriesPoly.monomial, which a float, a str or None must not reach as an index
COUNT_INPUTS = {
    "SeriesPoly.monomial degree": ("monomial degree and cap", lambda v: SeriesPoly.monomial(1.0, v, 2)),
    "SeriesPoly.monomial cap": ("monomial degree and cap", lambda v: SeriesPoly.monomial(1.0, 0, v)),
}
NOT_COUNTS = {"1.0": 1.0, "str": "1", "None": None}
CASES = [  # (entry, value, the value whose result it gives, or None if it is refused)
    *(pytest.param(e, v, None, id=f"{e}-{k}") for e in REAL_INPUTS for k, v in REFUSED.items()),
    *(pytest.param(e, v, float(v), id=f"{e}-{k}") for e in REAL_INPUTS for k, v in ACCEPTED.items()),
    *(pytest.param(e, v, None, id=f"{e}-{k}") for e in COUNT_INPUTS for k, v in NOT_COUNTS.items()),
    *(pytest.param(e, Index(1), 1, id=f"{e}-__index__ only") for e in COUNT_INPUTS),
]


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
@pytest.mark.parametrize("entry, value, same_as", CASES)
def test_every_real_and_count_argument_refuses_hostile_values_with_usage_error(entry, value, same_as):
    # many of these refusals were a raw TypeError, ValueError or OverflowError, or a str or bytes parsed as a float
    field, call = {**REAL_INPUTS, **COUNT_INPUTS}[entry]
    if same_as is None:
        with pytest.raises(UsageError, match=f"^{field} must be"):
            call(value)
    else:  # a value taken in is taken as its float, or its int
        assert call(value) == call(same_as)


def test_rk4_values_reads_a_generator_of_times_once():
    # a generator was used up by the finiteness check, and the call returned []
    for p in (CoupledParams(**COUPLED), DelayedParams(**DELAYED)):
        assert rk4_values(p, (t for t in [0.5, 1.0])) == rk4_values(p, [0.5, 1.0])
