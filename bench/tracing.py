"""Spans and counts around the package's public functions, installed from outside.

The package itself carries no instrumentation: :func:`install` replaces each
public function and method of the layer modules, in every ``ensoseries``
namespace that holds it, with a wrapper that records a span.  Spans stay in
memory as ``(name, start, end, parent, run_id)`` tuples and are written out
once the pass has ended.

``models`` is the exception: its right-hand sides are called once per RK4
stage (about 0.3 us each), so a span would cost several times the work it
measures.  Its functions and parameter constructors get plain counters, and
their time stays in the caller's self time.  ``SeriesPoly`` construction is
counted the same way.

Some counts are computed from the arguments rather than timed: the
multiply-adds of each ``cauchy_mul``, the RK4 steps from grid and step, the
coefficients and components each solver returns.  They repeat exactly.
"""

from __future__ import annotations

import gzip
import math
import sys
import time
from collections import Counter

LAYERS = ("cli", "reference", "models", "series", "dtm", "adm", "vim", "oracle")
SPANNED = ("cli", "reference", "series", "dtm", "adm", "vim", "oracle")

# Operator methods of SeriesPoly that are part of its public interface.
_OPERATORS = {"__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__call__"}

# Span-name groups behind each per-function metric.
GROUPS = {
    "series.cauchy_mul": ("series.cauchy_mul",),
    "series.eval": ("series.eval",),
    "dtm.transform": ("dtm.transform_coupled", "dtm.transform_delayed"),
    "adm.solve": ("adm.adm_solve_coupled", "adm.adm_solve_delayed"),
    "vim.step": ("vim.vim_step_coupled", "vim.vim_step_delayed"),
    "oracle.rk4_values": ("oracle.rk4_values",),
    "oracle.exact_delayed": ("oracle.exact_delayed",),
    "oracle.residual_check": ("oracle.residual_check",),
}


def mac(cap: int) -> int:
    """Multiply-adds of one dense truncated product at ``cap``: (cap+1)(cap+2)/2."""
    return (cap + 1) * (cap + 2) // 2


def useful_pairs(a, b) -> int:
    """Operand pairs ``a[r]*b[k-r]``, k <= cap, whose factors are both non-zero."""
    cap = len(a) - 1
    nonzero_prefix = [0]
    for c in b:
        nonzero_prefix.append(nonzero_prefix[-1] + (c != 0.0))
    return sum(nonzero_prefix[cap - r + 1] for r, c in enumerate(a) if c != 0.0)


def rk4_steps(ts, step: float) -> int:
    """Steps ``rk4_values`` takes: each gap between requested times split evenly."""
    steps, prev = 0, 0.0
    for t in ts:
        if t - prev > 0.0:
            steps += max(1, math.ceil((t - prev) / step))
        prev = t
    return steps


def _cauchy_counts(counts, args, kwargs, result):
    a, b = args[0].coeffs, args[1].coeffs
    counts["series.cauchy_mul.mac"] += mac(len(a) - 1)
    counts["series.cauchy_mul.useful"] += useful_pairs(a, b)


def _rk4_values_counts(counts, args, kwargs, result):
    counts["oracle.rk4.steps"] += rk4_steps(args[1], args[2] if len(args) > 2 else kwargs.get("step", 1e-4))


def _transform_counts(counts, args, kwargs, result):
    counts["dtm.coeffs"] += len(result.W) + len(result.V or ())


def _adm_counts(counts, args, kwargs, result):
    counts["adm.components"] += len(result.u_components) + len(result.v_components or ())


_COMPUTED = {
    "series.cauchy_mul": _cauchy_counts,
    "oracle.rk4_values": _rk4_values_counts,
    "dtm.transform_coupled": _transform_counts,
    "dtm.transform_delayed": _transform_counts,
    "adm.adm_solve_coupled": _adm_counts,
    "adm.adm_solve_delayed": _adm_counts,
}

_COUNTED = {
    "models.coupled_rhs": "models.rhs.calls",
    "models.delayed_rhs": "models.rhs.calls",
    "models.CoupledParams.__post_init__": "models.params.calls",
    "models.DelayedParams.__post_init__": "models.params.calls",
    "series.SeriesPoly.__post_init__": "series.new.calls",
}


class Tracer:
    """In-memory spans and counts for one pass."""

    def __init__(self, run_id: str):
        from ensoseries.errors import NumericError, UsageError

        self.run_id = run_id
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._typed = (NumericError, UsageError)

    def _error(self, layer: str, parent: int) -> None:
        # count an error once per layer boundary it crosses
        if parent < 0 or not self.spans[parent][0].startswith(layer + "."):
            self.counts[layer + ".errors"] += 1

    def span(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        layer = name.partition(".")[0]
        computed = _COMPUTED.get(name)
        run_id, typed, clock = self.run_id, self._typed, time.perf_counter

        def wrapper(*args, **kwargs):
            idx, parent = len(spans), (stack[-1] if stack else -1)
            stack.append(idx)
            start = clock()
            spans.append((name, start, start, parent, run_id))
            try:
                result = fn(*args, **kwargs)
            except typed:
                self._error(layer, parent)
                raise
            finally:
                spans[idx] = (name, start, clock(), parent, run_id)
                stack.pop()
            counts[name + ".calls"] += 1
            if computed is not None:
                computed(counts, args, kwargs, result)
            return result

        return wrapper

    def counter(self, key: str, layer: str, fn):
        counts, stack, typed = self.counts, self._stack, self._typed

        def wrapper(*args, **kwargs):
            counts[key] += 1
            try:
                return fn(*args, **kwargs)
            except typed:
                self._error(layer, stack[-1] if stack else -1)
                raise

        return wrapper

    # -- after the pass -----------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name: duration minus what child spans cover."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def covered(self) -> float:
        """Seconds covered by top-level spans."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def write(self, path) -> None:
        """Spans as gzip'd CSV: index, name, start, end, parent, run id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start,end,parent,run_id\n")
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{run_id}\n")


def _public_members(module):
    """(qualified name, owner, attribute, raw value) of each function to wrap."""
    modname = module.__name__
    for attr, value in vars(module).items():
        if attr.startswith("_"):
            continue
        if callable(value) and getattr(value, "__module__", None) == modname:
            if isinstance(value, type):
                for mattr, mvalue in vars(value).items():
                    if mattr.startswith("_") and mattr not in _OPERATORS and mattr != "__post_init__":
                        continue
                    fn = getattr(mvalue, "__func__", mvalue)
                    if callable(fn) and not isinstance(mvalue, property):
                        yield f"{value.__name__}.{mattr}", value, mattr, mvalue
            else:
                yield attr, module, attr, value


def install(tracer: Tracer) -> None:
    """Wrap every layer module's public functions and methods.

    Module-level functions are replaced in every loaded ``ensoseries``
    namespace that holds them, since the CLI and the package root import them
    by name.  Aliases (``__rmul__``/``__mul__``, ``__call__``/``eval``) share
    one wrapper and count under the function's own name.
    """
    import importlib

    namespaces = [m for n, m in sys.modules.items() if n == "ensoseries" or n.startswith("ensoseries.")]
    wrapped: dict[int, object] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"ensoseries.{layer}")
        for qualname, owner, attr, raw in list(_public_members(module)):
            fn = getattr(raw, "__func__", raw)
            if id(fn) not in wrapped:
                if qualname.endswith("__post_init__") or layer == "models":
                    key = _COUNTED.get(f"{layer}.{qualname}")
                    if key is None:
                        continue
                    wrapped[id(fn)] = tracer.counter(key, layer, fn)
                else:
                    wrapped[id(fn)] = tracer.span(f"{layer}.{fn.__name__}", fn)
            new = wrapped[id(fn)]
            if owner is module:
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is raw:
                            setattr(ns, name, new)
            else:
                kind = type(raw)
                setattr(owner, attr, kind(new) if kind in (classmethod, staticmethod) else new)


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in seconds, shares in %)."""
    selfs = tracer.self_times()
    counts = tracer.counts

    def layer_self(layer: str) -> float:
        return sum(v for k, v in selfs.items() if k.startswith(layer + "."))

    mac_total = counts["series.cauchy_mul.mac"]
    out: dict[str, float] = {
        "cli.main.calls": counts["cli.main.calls"],
        "cli.main.self_s": layer_self("cli"),
        "cli.output_bytes": counts["cli.output_bytes"],
        "reference.load_table.calls": counts["reference.load_table.calls"],
        # a load is one file read and parse, so it is reported whole
        "reference.load_table.s": sum(
            end - start for name, start, end, _, _ in tracer.spans if name == "reference.load_table"
        ),
        "models.params.calls": counts["models.params.calls"],
        "models.rhs.calls": counts["models.rhs.calls"],
        "series.cauchy_mul.mac": mac_total,
        "series.cauchy_mul.useful_ratio": counts["series.cauchy_mul.useful"] / mac_total if mac_total else 0.0,
        "series.new.calls": counts["series.new.calls"],
        "dtm.coeffs": counts["dtm.coeffs"],
        "adm.components": counts["adm.components"],
        "oracle.rk4.steps": counts["oracle.rk4.steps"],
    }
    for group, names in GROUPS.items():
        out[f"{group}.calls"] = sum(counts[f"{n}.calls"] for n in names)
        out[f"{group}.self_s"] = sum(selfs.get(n, 0.0) for n in names)
    for layer in LAYERS:
        out[f"{layer}.errors"] = counts[f"{layer}.errors"]
    for layer in SPANNED:
        out[f"{layer}.self_share"] = 100.0 * layer_self(layer) / wall
    out["trace.uncovered_share"] = 100.0 * (wall - tracer.covered()) / wall
    return out
