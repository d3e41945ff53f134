"""The value classes against the ``@dataclass`` definitions they replace.

Each oracle below is the dataclass a value class was before: the same
fields, defaults and ``frozen`` flag, and the class's own ``__post_init__``.
``dataclasses`` is a test-only oracle here, as scipy and mpmath are.
"""

import math
import random
from dataclasses import field, fields, make_dataclass

import pytest

from quatstat.metric import MetricOperator, build_metric
from quatstat.models import QubitModelParams, SpinModelParams, TwoLevelGas
from quatstat.quaternion import Quaternion
from quatstat.thermo import (DiscrepancyLog, EnergySliceParams, SpectralEnsemble, ThermoGrid,
                             ThermoReport, ToyModelParams, VolumeModel)

COLUMNS = ("beta", "Z1", "A", "S", "U", "Cv")
LOG = ("quantity", "printed_value", "derived_value", "beta", "at")

#: (class, frozen, fields): a field is a name, or a name and its default.
DEFINITIONS = [
    (Quaternion, True, [("q0", 0.0), ("q1", 0.0), ("q2", 0.0), ("q3", 0.0)]),
    (MetricOperator, True, ["eta", "theta", "positive"]),
    (TwoLevelGas, True, ["n_particles", "e_plus", "e_minus"]),
    (SpinModelParams, True, ["omega", "v", "x"]),
    (QubitModelParams, True, [("phi", 0.0)]),
    (ToyModelParams, True, ["a", "b", "c", "alpha", "gamma"]),
    (EnergySliceParams, True, ["aE", "bE", "kappa"]),
    (SpectralEnsemble, True, ["levels", ("n_particles", 1), ("k", 1.0)]),
    (DiscrepancyLog, False, [(name, field(default_factory=list)) for name in LOG]),
    (ThermoReport, False, [*COLUMNS, ("discrepancies", field(default_factory=DiscrepancyLog))]),
    (ThermoGrid, False, [*COLUMNS, ("discrepancies", field(default_factory=DiscrepancyLog)),
                         ("error", None)]),
    (VolumeModel, False, ["aE", "bE", "kappa", ("h", 1e-5), ("domain", None)]),
]


#: What the base puts in a value class's namespace, or Python does for any class.
NOT_THE_BODY = {"__module__", "__dict__", "__weakref__", "__annotations__", "_fields",
                "_defaults", "__setattr__", "__delattr__", "__hash__"}


def oracle(cls, frozen, spec):
    """The ``@dataclass`` that ``cls`` replaces, under the same name, with the
    rest of its body (``__post_init__``, methods and properties)."""
    specs = [(s, object) if isinstance(s, str) else (s[0], object, s[1]) for s in spec]
    body = {key: value for key, value in vars(cls).items()
            if key not in NOT_THE_BODY and key not in cls._fields}
    return make_dataclass(cls.__name__, specs, frozen=frozen, namespace=body)


def _quaternion(rng, imaginary=False):
    return Quaternion(0.0 if imaginary else rng.choice((0.0, rng.uniform(-2, 2))),
                      *(rng.choice((0.0, 1.0, rng.uniform(-2, 2))) for _ in range(3)))


def _metric(rng):
    metric = build_metric(rng.choice((1.0, 2.0)), 1.0, rng.choice((0j, 0.5j)))
    return [metric.eta, rng.choice((metric.theta, None)), rng.random() < 0.5]


def _floats(rng, n):
    return [rng.choice((0.0, 1.0, -0.5, rng.uniform(-3, 3))) for _ in range(n)]


#: Seeded valid arguments of each class, all positional.
ARGUMENTS = {
    Quaternion: lambda rng: _floats(rng, 4),
    MetricOperator: lambda rng: _metric(rng),
    TwoLevelGas: lambda rng: [rng.randint(1, 3), rng.choice((1.0, 2.0)), rng.choice((-1.0, 0.5))],
    SpinModelParams: lambda rng: [rng.choice((1.0, 2.0)), rng.choice((0.5, -1.0)),
                                  rng.choice((1.0, 3.0))],
    QubitModelParams: lambda rng: [rng.choice((0.0, 1.5))],
    ToyModelParams: lambda rng: [_quaternion(rng, True), _quaternion(rng, True),
                                 _quaternion(rng), rng.choice((1.0, 2.0)), rng.choice((0.5, 1.0))],
    EnergySliceParams: lambda rng: _floats(rng, 3),
    SpectralEnsemble: lambda rng: [((rng.choice((2.0, 1.0)), 1), (0.0, rng.randint(1, 2))),
                                   rng.randint(1, 2), rng.choice((1.0, 0.5))],
    DiscrepancyLog: lambda rng: [[rng.choice("US")], *([x] for x in _floats(rng, 3)), [0]],
    ThermoReport: lambda rng: [*_floats(rng, 6), rng.choice((
        DiscrepancyLog(), DiscrepancyLog(["U"], [1.0], [2.0], [0.5], [0])))],
    ThermoGrid: lambda rng: [*([x] for x in _floats(rng, 5)), [rng.choice((1.0, math.nan))],
                             DiscrepancyLog(), None],
    VolumeModel: lambda rng: [rng.choice((math.sin, abs)), math.cos, abs,
                              rng.choice((1e-5, 1e-3)), rng.choice((None, (0.5, 2.0)))],
}


def calls(rng, cls, spec):
    """Seeded (args, kwargs): the arguments split at a random point between
    positional and keyword, with some defaulted fields left out."""
    values = ARGUMENTS[cls](rng)
    names = [s if isinstance(s, str) else s[0] for s in spec]
    kept = rng.randint(sum(isinstance(s, str) for s in spec), len(names))
    split = rng.randint(0, kept)
    return values[:split], dict(zip(names[split:kept], values[split:kept]))


def both(fn):
    """``fn()``'s value, or the type of the exception it raises."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the type is the result compared
        return type(exc)


@pytest.mark.parametrize("cls, frozen, spec", DEFINITIONS, ids=[d[0].__name__ for d in DEFINITIONS])
def test_value_class_matches_the_dataclass_it_replaces(cls, frozen, spec):
    dc = oracle(cls, frozen, spec)
    assert cls._fields == tuple(f.name for f in fields(dc))
    rng = random.Random(len(cls.__name__))
    others = [Quaternion(), QubitModelParams()]
    for _ in range(40):
        args, kwargs = calls(rng, cls, spec)
        pair = (cls(*args, **kwargs), dc(*args, **kwargs))
        assert repr(pair[0]) == repr(pair[1])
        values = tuple(getattr(pair[1], f.name) for f in fields(dc))
        own = pair[0]._asdict()
        assert list(own.items()) == [(f.name, getattr(pair[0], f.name)) for f in fields(dc)]
        # a second instance, equal half of the time
        again = calls(rng, cls, spec) if rng.random() < 0.5 else (args, kwargs)
        twin = (cls(*again[0], **again[1]), dc(*again[0], **again[1]))
        for probe in (lambda a, b: a == b, lambda a, b: a != b):
            assert probe(pair[0], twin[0]) == probe(pair[1], twin[1])
            for other in (values, *others):
                if type(other) is not cls:
                    assert probe(pair[0], other) == probe(pair[1], other)
                    assert pair[0].__eq__(other) is pair[1].__eq__(other) is NotImplemented
        assert pair[0] == pair[0] and not pair[0] != pair[0]
        # hash: the fields' for frozen classes; TypeError for the others
        assert both(lambda: hash(pair[0])) == both(lambda: hash(pair[1]))
        assert (both(lambda: hash(pair[0])) is TypeError) is not frozen
        name = rng.choice(cls._fields)
        for instance in pair:
            if frozen:
                with pytest.raises(AttributeError):
                    setattr(instance, name, 1.0)
                with pytest.raises(AttributeError):
                    setattr(instance, "unknown", 1.0)
                with pytest.raises(AttributeError):
                    delattr(instance, name)
            else:
                setattr(instance, name, 1.0)
                assert getattr(instance, name) == 1.0


@pytest.mark.parametrize("cls, frozen, spec", DEFINITIONS, ids=[d[0].__name__ for d in DEFINITIONS])
def test_value_class_refuses_the_arguments_its_dataclass_refuses(cls, frozen, spec):
    dc = oracle(cls, frozen, spec)
    values = ARGUMENTS[cls](random.Random(0))
    names = list(cls._fields)
    required = sum(isinstance(s, str) for s in spec)
    refused = [((*values, values[0]), {}), (values, {"unknown": 1.0}),
               (values, {names[0]: values[0]})]
    if required:
        refused.append((values[:required - 1], {}))
        refused.append(((), dict(zip(names[1:], values[1:]))))
    for args, kwargs in refused:
        for make in (cls, dc):
            with pytest.raises(TypeError):
                make(*args, **kwargs)


def test_factory_defaults_are_fresh_for_each_instance():
    first, second = DiscrepancyLog(), DiscrepancyLog()
    assert all(getattr(first, name) is not getattr(second, name) for name in LOG)
    first.quantity.append("U")
    assert second.quantity == [] and DiscrepancyLog() == second
    grids = [ThermoGrid([1.0], [1.0], [1.0], [1.0], [1.0], [1.0]) for _ in range(2)]
    assert grids[0].discrepancies is not grids[1].discrepancies
    reports = [ThermoReport(*[1.0] * 6) for _ in range(2)]
    assert reports[0].discrepancies is not reports[1].discrepancies


def test_post_init_still_refuses_and_normalises():
    # ThermoGrid's refusal rule and SpectralEnsemble's checks run as before
    grid = ThermoGrid([2.0], [1.0], [1.0], [math.inf], [1.0], [1.0])
    assert str(grid.error) == "S = inf at beta = 2"
    ensemble = SpectralEnsemble([(2, 1), (0, 1)])
    assert ensemble.levels == ((0.0, 1), (2.0, 1))
    with pytest.raises(Exception, match="multiplicities"):
        SpectralEnsemble(((1.0, 0),))
    assert Quaternion(1).q0 == 1.0 and type(Quaternion(1).q0) is float


@pytest.mark.parametrize("cls, frozen, spec", DEFINITIONS, ids=[d[0].__name__ for d in DEFINITIONS])
def test_a_full_positional_call_is_the_keyword_call(cls, frozen, spec):
    # every field given positionally binds with no check to make; the
    # instance is the one the same values by keyword build, and compares
    # with it as the dataclass's two instances do (a NaN or an error object
    # of ThermoGrid makes two grids unequal)
    dc = oracle(cls, frozen, spec)
    rng = random.Random(len(cls.__name__) + 26)
    for _ in range(20):
        values = ARGUMENTS[cls](rng)
        keywords = dict(zip(cls._fields, values))
        positional, keyword = cls(*values), cls(**keywords)
        assert repr(positional) == repr(keyword)
        assert (positional == keyword) == (dc(*values) == dc(**keywords))
        assert both(lambda: hash(positional)) == both(lambda: hash(keyword))
        assert list(vars(positional)) == list(cls._fields)
        if frozen:
            with pytest.raises(AttributeError, match="cannot assign to field"):
                setattr(positional, cls._fields[0], values[0])
    name = cls.__qualname__
    with pytest.raises(TypeError, match=rf"^{name}\(\) got extra, repeated or unknown "):
        cls(*values, values[0])
    required = sum(isinstance(s, str) for s in spec)
    if required:
        missing = repr(cls._fields[required - 1])
        with pytest.raises(TypeError, match=rf"^{name}\(\) missing argument {missing}$"):
            cls(*values[:required - 1])


def test_a_full_positional_call_runs_post_init():
    with pytest.raises(Exception, match="particle count must be at least 1"):
        TwoLevelGas(0, 1.0, 0.0)
    assert type(Quaternion(1, 2, 3, 4).q3) is float
    assert SpectralEnsemble([(2, 1), (0, 1)], 1, 1.0).levels == ((0.0, 1), (2.0, 1))
