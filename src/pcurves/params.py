"""Kinds of the values in a scenario document.

A kind reads one JSON value: it checks the value's type and range, resolves
an id to the object it names in the scenario, and says what an absent value
reads as.  Scenario entries and query parameters are read through the same
kinds, so a malformed value is a located ValidationError when the scenario
loads.
"""

from .errors import ValidationError
from .orbits import CROSSING_FLOW, WINDING, Perturbation
from .rationals import as_fraction
from .records import record, replace
from .spectral import MIN_TRUNCATION

#: the default of a value that may not be absent
REQUIRED = object()


@record
class Kind:
    """``parse(value, scenario)`` returns the value as read, or raises a
    ValidationError saying what it must be; ``default`` is what an absent
    value reads as.  A perturbation names the orbit parameter it perturbs in
    ``perturbs``, and in ``scaled_by`` the order k of a cover that is asked
    at k times it."""

    parse: object
    default: object = REQUIRED
    perturbs: str = None
    scaled_by: str = None

    def optional(self, default=None):
        return replace(self, default=default)

    def of(self, orbit_key, order_key=None):
        return replace(self, perturbs=orbit_key, scaled_by=order_key)


def _checked(test, what):
    """The kind of the values that pass ``test``, read as they are."""

    def parse(value, scenario):
        if not test(value):
            raise ValidationError(f"must be {what}, got {value!r}")
        return value

    return Kind(parse)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    """A finite JSON number: NaN and the infinities, which JSON readers
    accept as bare tokens, are no numbers (for them value - value is NaN)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and value - value == 0


def one_of(*choices):
    """Exactly one of ``choices``: a JSON true is not 1, nor 1.0 the integer 1."""
    return _checked(
        lambda v: any(type(v) is type(c) and v == c for c in choices), f"one of {list(choices)}"
    )


def _list_of(test, what):
    return _checked(lambda v: isinstance(v, list) and all(map(test, v)), f"a list of {what}")


def _rows_of(n, what):
    """The kind of lists of rows of ``n`` numbers, read as tuples."""
    rows = _list_of(lambda v: isinstance(v, list) and len(v) == n and all(map(_is_number, v)), what)
    return Kind(lambda value, scenario: tuple(map(tuple, rows.parse(value, scenario))))


def _named(table, noun):
    """The kind of an id of a declared ``noun``, read as the object it names."""

    def parse(value, scenario):
        found = getattr(scenario, table).get(STR.parse(value, scenario))
        if found is None:
            raise ValidationError(f"must name a declared {noun}, got {value!r}")
        return found

    return Kind(parse)


INT = _checked(_is_int, "an integer")
ORDER = _checked(lambda v: _is_int(v) and v >= 1, "an integer >= 1")  # of a cover
COUNT = _checked(lambda v: _is_int(v) and v >= 0, "an integer >= 0")  # of intersections, ends
TRUNCATION = _checked(  # of a Fourier truncation
    lambda v: _is_int(v) and v >= MIN_TRUNCATION, f"an integer >= {MIN_TRUNCATION}"
)
BOOL = _checked(lambda v: isinstance(v, bool), "a boolean")
STR = _checked(lambda v: isinstance(v, str), "a string")
LIST = _checked(lambda v: isinstance(v, list), "a list")
OBJECT = _checked(lambda v: isinstance(v, dict), "an object")
IDS = _list_of(lambda v: isinstance(v, str), "string ids")
INTS = _list_of(_is_int, "integers")
_PAIR = _checked(
    lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_int, v)), "a pair of integers"
)
INT_PAIR = Kind(lambda value, scenario: tuple(_PAIR.parse(value, scenario)))
RATIONAL = Kind(lambda value, scenario: as_fraction(value))
PERTURBATION = Kind(lambda value, scenario: Perturbation(as_fraction(value)), Perturbation(0))
SIGN = one_of("-", "+")
METHOD = one_of(WINDING, CROSSING_FLOW).optional(WINDING)
J_MODE = one_of("homotopy", "fixed")
PARITY = one_of(0, 1)
OPERATOR_SAMPLES = _rows_of(3, "[s11, s12, s22] number rows")
_PAIRS = _rows_of(2, "[re, im] number pairs")
LOOP_SAMPLES = Kind(lambda value, scenario: tuple(complex(*p) for p in _PAIRS.parse(value, None)))
SURFACE = _named("surfaces", "surface")
ORBIT = _named("orbits", "orbit")
CURVE = _named("curves", "curve")  # read as a CurveData
COVER = _named("covers", "cover")  # read as a CoverScenario
