"""Bundled benchmark tables: fixed comparison values for both models.

Four tables ship with the package as plain CSV (one row per time point,
columns named ``<method>_eps<value>``).  Tables 1-2 are the coupled model,
tables 3-4 the delayed one; each carries the parameter set stated with it.
They are the targets for the ``sweep`` command and the acceptance tests.

Two quirks of the shipped data, established by the acceptance suite and kept
verbatim here rather than edited: table 2's values were generated with
``gamma = 2`` although its stated parameter set says ``gamma = 1``, and the
t = 1.0 entries of table 2 sit far outside the series' convergence region
(the eps = 0.2 one famously reads 7.75 where the true solution is 2.81).
"""

from __future__ import annotations

import os

from ._frozen import Frozen
from .errors import UsageError
from .models import CoupledParams, DelayedParams

# The tables ship as package data next to this module; they hold no quoted fields.
_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

# Stated parameter sets (eps excluded; it varies per column).
TABLE_INFO: dict[int, tuple[str, dict[str, float]]] = {
    1: ("coupled", {"c": 1.0, "eta": 1.0, "gamma": 1.0, "theta": 1.0}),
    2: ("coupled", {"c": 2.0, "eta": 1.0, "gamma": 1.0, "theta": 1.0}),
    3: ("delayed", {"alpha": 0.5, "beta": 0.3, "sigma": 0.25}),
    4: ("delayed", {"alpha": 1.0, "beta": 0.5, "sigma": 0.5}),
}


class ReferenceTable(Frozen):
    """One bundled table: grid, per-(method, eps) columns, stated constants.

    ``constants`` and ``columns`` are dicts, so a table is not hashable.
    """

    __slots__ = ("number", "model", "constants", "grid", "columns")

    def column(self, method: str, eps: float) -> tuple[float, ...]:
        key = (method, eps)
        if key not in self.columns:
            have = sorted(self.columns)
            raise UsageError(f"no column {key} in table {self.number}; have {have}")
        return self.columns[key]

    @property
    def eps_values(self) -> tuple[float, ...]:
        return tuple(sorted({eps for _, eps in self.columns}))

    def params(self, eps: float) -> CoupledParams | DelayedParams:
        """Parameter object for one eps column, using the stated constants."""
        if self.model == "coupled":
            return CoupledParams(eps=eps, **self.constants)
        return DelayedParams(eps=eps, **self.constants)


def load_table(number: int) -> ReferenceTable:
    """Read one bundled table by its number (1-4)."""
    if number not in TABLE_INFO:
        raise UsageError(f"no bundled table {number}; choose from {sorted(TABLE_INFO)}")
    model, constants = TABLE_INFO[number]
    with open(os.path.join(_DATA_DIR, f"table{number}.csv"), encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().strip().splitlines()]
    header = rows[0]
    if header[0] != "t":
        raise UsageError(f"table{number}.csv: first column must be t")
    keys: list[tuple[str, float]] = []
    for name in header[1:]:
        method, _, eps_text = name.partition("_eps")
        keys.append((method, float(eps_text)))
    grid = tuple(float(r[0]) for r in rows[1:])
    columns = {
        key: tuple(float(r[i + 1]) for r in rows[1:]) for i, key in enumerate(keys)
    }
    return ReferenceTable(number, model, dict(constants), grid, columns)
