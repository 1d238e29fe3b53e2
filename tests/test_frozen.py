"""The six record types behave as the frozen dataclasses they replaced.

The expected reprs were recorded from the ``@dataclass(frozen=True)``
versions of these classes.  The ``vim`` and ``adm`` cases are records a
solve returns, whose series are built without the public constructor.
"""

import copy
import pickle

import pytest

from ensoseries import CoupledParams, DelayedParams, SeriesPoly, SolutionPair, adm_solve_delayed, vim_solve
from ensoseries.dtm import DtmResult
from ensoseries.models import reduced_delayed_coeffs
from ensoseries.reference import ReferenceTable


def s(*coeffs):
    return SeriesPoly(coeffs)


# (build, field values in order, repr of the dataclass version)
RECORDS = {
    "coupled": (
        lambda: CoupledParams(0.5, 1.0, 2.0, 1.0, 0.1),
        (0.5, 1.0, 2.0, 1.0, 0.1, 1.0, 1.0),
        "CoupledParams(c=0.5, eta=1.0, gamma=2.0, theta=1.0, eps=0.1, H0=1.0, h0=1.0)",
    ),
    "coupled-keywords": (
        lambda: CoupledParams(c=1, eta=1.0, gamma=1.0, theta=1.0, eps=0.2, H0=-0.5, h0=0.0),
        (1.0, 1.0, 1.0, 1.0, 0.2, -0.5, 0.0),
        "CoupledParams(c=1.0, eta=1.0, gamma=1.0, theta=1.0, eps=0.2, H0=-0.5, h0=0.0)",
    ),
    "delayed": (
        lambda: DelayedParams(0.5, 0.3, 0.25, 0.05),
        (0.5, 0.3, 0.25, 0.05, 1.0),
        "DelayedParams(alpha=0.5, beta=0.3, sigma=0.25, eps=0.05, H0=1.0)",
    ),
    "delayed-keywords": (
        lambda: DelayedParams(alpha=1, beta=0.5, sigma=0.5, eps=0.1, H0=2),
        (1.0, 0.5, 0.5, 0.1, 2.0),
        "DelayedParams(alpha=1.0, beta=0.5, sigma=0.5, eps=0.1, H0=2.0)",
    ),
    "series": (
        lambda: s(1.0, -0.5, 0.0, 1e-300),
        ((1.0, -0.5, 0.0, 1e-300),),
        "SeriesPoly(coeffs=(1.0, -0.5, 0.0, 1e-300))",
    ),
    "series-list": (
        lambda: SeriesPoly([1, 2]),
        ((1.0, 2.0),),
        "SeriesPoly(coeffs=(1.0, 2.0))",
    ),
    "pair": (
        lambda: SolutionPair(s(1.0, 2.0), s(3.0, -0.0)),
        (s(1.0, 2.0), s(3.0, -0.0)),
        "SolutionPair(H=SeriesPoly(coeffs=(1.0, 2.0)), h=SeriesPoly(coeffs=(3.0, -0.0)))",
    ),
    "vim-delayed": (
        lambda: vim_solve(DelayedParams(0.5, 0.3, 0.25, 0.05), 1, 2),
        ((1.0, 0.16216216216216217, 0.0),),
        "SeriesPoly(coeffs=(1.0, 0.16216216216216217, 0.0))",
    ),
    "vim-coupled": (
        lambda: vim_solve(CoupledParams(1.0, 1.0, 1.0, 1.0, 0.1), 1, 1),
        (s(1.0, 1.9), s(1.0, -2.0)),
        "SolutionPair(H=SeriesPoly(coeffs=(1.0, 1.9)), h=SeriesPoly(coeffs=(1.0, -2.0)))",
    ),
    "adm": (
        lambda: adm_solve_delayed(DelayedParams(0.5, 0.3, 0.25, 0.05), 2),
        ((1.0, 0.16216216216216217),),
        "SeriesPoly(coeffs=(1.0, 0.16216216216216217))",
    ),
    "dtm": (
        lambda: DtmResult((1.0, 2.0), None),
        ((1.0, 2.0), None),
        "DtmResult(W=(1.0, 2.0), V=None)",
    ),
    "dtm-coupled": (
        lambda: DtmResult((1.0,), (0.5,)),
        ((1.0,), (0.5,)),
        "DtmResult(W=(1.0,), V=(0.5,))",
    ),
    "table": (
        lambda: ReferenceTable(1, "coupled", {"c": 1.0}, (0.0, 0.2), {("dtm", 0.1): (1.0, 1.3)}),
        (1, "coupled", {"c": 1.0}, (0.0, 0.2), {("dtm", 0.1): (1.0, 1.3)}),
        "ReferenceTable(number=1, model='coupled', constants={'c': 1.0}, grid=(0.0, 0.2), "
        "columns={('dtm', 0.1): (1.0, 1.3)})",
    ),
}
HASHABLE = [k for k in RECORDS if k != "table"]


@pytest.mark.parametrize("key", RECORDS)
def test_repr_is_the_dataclass_repr(key):
    build, _, expected = RECORDS[key]
    assert repr(build()) == expected


@pytest.mark.parametrize("key", RECORDS)
def test_equality_compares_fields_within_one_class(key):
    build, _, _ = RECORDS[key]
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert a != object() and not a == object()


@pytest.mark.parametrize("key", HASHABLE)
def test_hash_is_the_hash_of_the_fields(key):
    build, values, _ = RECORDS[key]
    assert hash(build()) == hash(values) == hash(build())


def test_a_table_is_not_hashable():
    with pytest.raises(TypeError, match="unhashable"):
        hash(RECORDS["table"][0]())


def test_equal_fields_in_another_class_are_not_equal():
    class Params(CoupledParams):
        __slots__ = ()

    p = CoupledParams(0.5, 1.0, 2.0, 1.0, 0.1)
    q = Params(0.5, 1.0, 2.0, 1.0, 0.1)
    assert q.H0 == 1.0 and q.h0 == 1.0
    assert p != q and q != p and not p == q
    assert DtmResult((1.0,), None) != DtmResult((1.0,), (1.0,))
    assert s(1.0, 2.0) != (1.0, 2.0) and s(1.0, 2.0) != ((1.0, 2.0),)


def test_fields_differing_in_one_value_are_not_equal():
    p = CoupledParams(0.5, 1.0, 2.0, 1.0, 0.1)
    assert p != CoupledParams(0.5, 1.0, 2.0, 1.0, 0.1, h0=0.5)
    assert s(1.0, 2.0) != s(1.0, 2.5)
    assert DtmResult((1.0,), None) != DtmResult((2.0,), None)


@pytest.mark.parametrize("key", RECORDS)
def test_setting_or_deleting_an_attribute_raises(key):
    obj = RECORDS[key][0]()
    field = repr(obj).partition("(")[2].partition("=")[0]
    before = repr(obj)
    for name in (field, "other"):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert not hasattr(obj, "__dict__")
    assert repr(obj) == before


def test_construction_positional_keyword_and_defaults():
    p = CoupledParams(1.0, 1.0, 1.0, 1.0, 0.1)
    assert p == CoupledParams(1.0, 1.0, gamma=1.0, theta=1.0, eps=0.1)
    assert p == CoupledParams(eps=0.1, theta=1.0, gamma=1.0, eta=1.0, c=1.0, h0=1.0, H0=1.0)
    assert (p.H0, p.h0) == (1.0, 1.0)
    assert CoupledParams(1, 1, 1, 1, 0.1, 2.0).h0 == 1.0
    d = DelayedParams(0.5, 0.3, 0.25, 0.05)
    assert d.H0 == 1.0 and d == DelayedParams(0.5, 0.3, 0.25, eps=0.05, H0=1.0)
    assert SeriesPoly(coeffs=(1, 2)) == s(1.0, 2.0)
    assert SolutionPair(h=s(1.0), H=s(2.0)).H == s(2.0)


@pytest.mark.parametrize("args, kwargs", [
    ((1.0, 1.0, 1.0, 1.0), {}),  # eps missing
    ((1.0,) * 8, {}),  # one too many
    ((1.0, 1.0, 1.0, 1.0, 0.1), {"c": 1.0}),  # c twice
    ((1.0, 1.0, 1.0, 1.0, 0.1), {"delta": 1.0}),  # no such field
])
def test_bad_arguments_are_a_type_error(args, kwargs):
    with pytest.raises(TypeError):
        CoupledParams(*args, **kwargs)


@pytest.mark.parametrize("key", RECORDS)
def test_copies_and_pickles_are_equal(key):
    obj = RECORDS[key][0]()
    for other in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(other) is type(obj) and other == obj and repr(other) == repr(obj)


def test_reduced_coefficients_stay_out_of_equality_hash_and_repr():
    d = DelayedParams(0.7, 0.3, 0.25, 0.15, H0=-2.0)
    assert d._reduced == reduced_delayed_coeffs(d)
    assert "_reduced" not in repr(d)
    assert hash(d) == hash((0.7, 0.3, 0.25, 0.15, -2.0))
    assert pickle.loads(pickle.dumps(d))._reduced == d._reduced


def test_a_wrapper_on_post_init_counts_each_public_construction(monkeypatch):
    # the benchmark's tracer counts constructions this way
    counts = {}

    def counting(cls):
        inner = cls.__post_init__

        def wrapper(self):
            counts[cls.__name__] = counts.get(cls.__name__, 0) + 1
            return inner(self)

        monkeypatch.setattr(cls, "__post_init__", wrapper)

    for cls in (SeriesPoly, CoupledParams, DelayedParams):
        counting(cls)
    a = s(1.0, 2.0)
    b = SeriesPoly(coeffs=(3.0, 4.0))
    CoupledParams(1, 1, 1, 1, 0.1)
    CoupledParams(c=1, eta=1, gamma=1, theta=1, eps=0.1)
    DelayedParams(0.5, 0.3, 0.25, 0.05)
    assert counts == {"SeriesPoly": 2, "CoupledParams": 2, "DelayedParams": 1}
    # results of series operations skip the constructor and are not counted
    (a + b).cube().derivative().scale(2.0)
    a * b
    assert counts == {"SeriesPoly": 2, "CoupledParams": 2, "DelayedParams": 1}
