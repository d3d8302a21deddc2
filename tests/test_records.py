"""The record types behave as the dataclasses they replaced: each real
record is checked against a ``dataclasses.make_dataclass`` twin with the
same fields and values."""

import dataclasses
from fractions import Fraction
from pathlib import Path

import pytest

from pcurves.errors import ValidationError
from pcurves.intersections import PairingInput
from pcurves.orbits import OrbitClass, Perturbation, scalar_orbit
from pcurves.records import fields, replace
from pcurves.scenario import load_scenario
from pcurves.spectral import AsymptoticOperator

FOLIATION = Path(__file__).parent.parent / "src" / "pcurves" / "data" / "foliation.scn"
#: fields left out of eq, hash and repr, per record class
HIDDEN = {OrbitClass: {"tower"}}


@pytest.fixture(scope="module")
def scenario():
    return load_scenario(str(FOLIATION))


def _records(scenario):
    """Real records, each with the changes of one field that make it differ."""
    orbit = scenario.orbits["g_zero"]  # linked: its tower is not empty
    pairing = scenario.pairings[next(iter(scenario.pairings))]
    return [
        (orbit, {"family_id": "elsewhere"}),
        (pairing, {"relative_pairing": pairing.relative_pairing + 1}),
        (Perturbation(Fraction(-1, 8)), {"epsilon": Fraction(1, 8)}),
        (scenario, {"j_mode": "elsewhere"}),
    ]


def _twin(value):
    """A dataclass of the record's name and fields holding its values."""
    cls = type(value)
    hidden = HIDDEN.get(cls, set())
    spec = [
        (name, object, dataclasses.field(compare=name not in hidden, repr=name not in hidden))
        for name in fields(value)
    ]
    twin = dataclasses.make_dataclass(cls.__name__, spec, frozen=cls.__hash__ is not None)
    return twin(**{name: getattr(value, name) for name in fields(value)})


def _outcome(fn, *args):
    try:
        return fn(*args)
    except TypeError as exc:
        return type(exc)


def test_repr_eq_and_hash_match_a_dataclass_twin(scenario):
    for value, changes in _records(scenario):
        twin, other = _twin(value), replace(value, **changes)
        assert repr(value) == repr(twin)
        assert _outcome(hash, value) == _outcome(hash, twin), type(value)
        assert value == replace(value) and not value != replace(value)
        assert value != other and twin != _twin(other)
        assert value != twin  # a record equals only records of its class


def test_a_field_out_of_the_comparison_is_out_of_eq_hash_and_repr(scenario):
    orbit = scenario.orbits["g_zero"]
    assert orbit.tower
    alone = replace(orbit, tower={})
    assert alone == orbit and hash(alone) == hash(orbit)
    assert repr(alone) == repr(orbit) and "tower" not in repr(orbit)


def test_default_dicts_are_built_for_each_instance(scenario):
    a, b = scalar_orbit("a", 1.0), scalar_orbit("a", 1.0)
    assert a.tower == {} and a.tower is not b.tower
    curve = next(iter(scenario.curves.values()))
    p, q = (PairingInput(left=curve, right=curve, relative_pairing=0) for _ in range(2))
    assert p.declared_end_intersections == {}
    assert p.declared_end_intersections is not q.declared_end_intersections


def test_replace_checks_as_construction_does(scenario):
    orbit = scenario.orbits["g_zero"]
    with pytest.raises(ValidationError) as built:
        OrbitClass(id=orbit.id, simple_id=orbit.simple_id, cover=0, winding=orbit.winding)
    with pytest.raises(ValidationError) as replaced:
        replace(orbit, cover=0)
    assert str(replaced.value) == str(built.value)
    assert replace(Perturbation(1), epsilon=Fraction(1, 2)).epsilon == Fraction(1, 2)


def test_arguments_and_assignment_are_refused_as_a_dataclass_refuses_them(scenario):
    with pytest.raises(TypeError):
        Perturbation()
    with pytest.raises(TypeError):
        Perturbation(1, 2)
    with pytest.raises(TypeError):
        Perturbation(epsilon=1, delta=2)
    with pytest.raises(TypeError):
        Perturbation(1, epsilon=2)
    with pytest.raises(TypeError):
        replace(Perturbation(1), delta=2)
    pert = Perturbation(1)
    with pytest.raises(AttributeError):
        pert.epsilon = 2
    with pytest.raises(AttributeError):
        del pert.epsilon
    assert pert.epsilon == 1
    # A loaded scenario is frozen too.
    with pytest.raises(AttributeError):
        scenario.j_mode = scenario.j_mode


def test_a_class_keeps_its_own_hash():
    assert AsymptoticOperator.__hash__.__qualname__ == "AsymptoticOperator.__hash__"
    op = AsymptoticOperator.constant(1.0, 0.0, 2.0)
    assert hash(op) == op._hash and op == AsymptoticOperator.constant(1.0, 0.0, 2.0)
