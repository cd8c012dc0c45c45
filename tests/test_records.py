"""The value records of ``src/arcfield``: constructors, checks, equality,
hashing, immutability, copies and repr, class by class."""

import copy
import pickle
from fractions import Fraction

import pytest

from arcfield.mapexpr import Add, Const, Div, MapExpr, Mul, Neg, Pow, Sub, Var
from arcfield.newton import PolyOverSeries, RootBranch, _Branch
from arcfield.param_series import DivergenceWitness
from arcfield.puiseux import PuiseuxSeries, ZeroUpToTruncation
from arcfield.topology import (
    ArcSamplerSpec,
    HolderEstimate,
    LojaFit,
    ProductLimit,
    TransferReport,
)
from arcfield.transport import PushforwardResult

F = Fraction
t = PuiseuxSeries.t_power(1)
x, y = Var(0, "x"), Var(1, "y")

# each factory builds a new record equal to the last one it built
RECORDS = {
    "Var": lambda: Var(0, "x"),
    "Const": lambda: Const(F(2, 3)),
    "Add": lambda: Add(x, y),
    "Sub": lambda: Sub(x, y),
    "Mul": lambda: Mul(x, y),
    "Div": lambda: Div(x, y),
    "Neg": lambda: Neg(x),
    "Pow": lambda: Pow(x, F(1, 2)),
    "MapExpr": lambda: MapExpr((x + y, x * y), ("x", "y")),
    "PolyOverSeries": lambda: PolyOverSeries((t, PuiseuxSeries.one())),
    "RootBranch": lambda: RootBranch(t, 1, None, "exact"),
    "_Branch": lambda: _Branch(((F(1), F(1)),), 1, F(3)),
    "DivergenceWitness": lambda: DivergenceWitness(F(3), -1, F(1, 4), (1, 2)),
    "PushforwardResult": lambda: PushforwardResult("U", (t, t), (t, t), None, {(1, 0): F(1)}),
    "ProductLimit": lambda: ProductLimit(True, (t,)),
    "ArcSamplerSpec": lambda: ArcSamplerSpec(2, True, (F(1), F(2))),
    "HolderEstimate": lambda: HolderEstimate(F(1, 2), F(0), 20, 3, ("t", "2*t")),
    "LojaFit": lambda: LojaFit(1.0, 2.0, 0.0, 10, 5),
    "TransferReport": lambda: TransferReport("injective", 5, "pass"),
    "ZeroUpToTruncation": lambda: ZeroUpToTruncation(F(3)),
}
# their fields hold dicts, which have no hash
UNHASHABLE = {"PushforwardResult"}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_an_immutable_value(name):
    make = RECORDS[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b
    if name not in UNHASHABLE:
        assert hash(a) == hash(b)
        assert {a, b} == {a}
    assert copy.copy(a) == a
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
    fields = type(a).__slots__
    assert fields and not hasattr(a, "__dict__")
    assert repr(a) == f"{name}(" + ", ".join(f"{f}={getattr(a, f)!r}" for f in fields) + ")"
    for field in fields:
        before = getattr(a, field)
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert getattr(a, field) is before
    with pytest.raises(AttributeError):
        a.extra = 1
    assert type(a)(*(getattr(a, f) for f in fields)) == a
    assert type(a)(**{f: getattr(a, f) for f in fields}) == a


def test_equality_and_hash_are_by_class():
    assert Add(x, y) != Sub(x, y)
    assert Mul(x, y) != Div(x, y)
    assert hash(Add(x, y)) != hash(Sub(x, y))
    assert Add(x, y) != (x, y)
    assert Add(x, y) == x + y and Pow(x, 2) == x ** 2


def test_repr_names_the_fields():
    assert repr(Var(0, "x")) == "Var(index=0, name='x')"
    assert repr(Neg(Var(1))) == "Neg(arg=Var(index=1, name=''))"


def test_checks_and_coercions_still_run():
    assert type(Const(2).value) is Fraction and Const(2).value == 2
    assert type(Pow(x, 2).exponent) is Fraction and Pow(x, 2).exponent == 2
    zero, one = PuiseuxSeries.zero(), PuiseuxSeries.one()
    assert PolyOverSeries((one, t, zero, zero)).coeffs == (one, t)
    assert PolyOverSeries((zero, zero)).coeffs == (zero,)
    assert PolyOverSeries((one, t, zero)) == PolyOverSeries((one, t))
    with pytest.raises(ValueError, match="negative parameter power"):
        DivergenceWitness(t_exp=F(3), eps_exp=0, coeff=F(1))
    with pytest.raises(ValueError, match="nonzero"):
        DivergenceWitness(F(3), -1, F(0))
    with pytest.raises(ValueError, match="variable index 1 out of range"):
        MapExpr((x + y,), ("x",))


def test_defaults_and_keywords():
    assert Var(3).name == ""
    assert DivergenceWitness(F(3), -1, F(1, 4)).m0n0 is None
    spec = ArcSamplerSpec(2, min_lead_exp=(F(1), F(2)))
    assert (spec.dim, spec.unit_lead, spec.min_lead_exp) == (2, False, (F(1), F(2)))
    assert ArcSamplerSpec() == ArcSamplerSpec(1, False, ())
    assert ProductLimit(False, None, witness=None) == ProductLimit(False, None, None, None)
    assert ZeroUpToTruncation() == ZeroUpToTruncation(None) != ZeroUpToTruncation(F(3))


@pytest.mark.parametrize("args, kwargs, message", [
    pytest.param((0, "x", 1), {}, "takes 2 arguments but 3 were given", id="too-many"),
    pytest.param((), {"name": "x"}, "missing argument 'index'", id="missing"),
    pytest.param((0,), {"index": 1}, "unexpected or repeated argument 'index'", id="repeated"),
    pytest.param((0,), {"label": "x"}, "unexpected or repeated argument 'label'", id="unknown"),
])
def test_constructor_refuses_bad_arguments(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Var(*args, **kwargs)
