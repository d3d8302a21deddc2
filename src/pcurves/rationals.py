"""Exact rational helpers.

Winding numbers, indices and intersection counts are integers; several
derived quantities (normal Chern number, Z(du), singularity index) live in
(1/2)Z.  Everything is kept exact with ``fractions.Fraction``; floating
point enters only in ``spectral.py`` and ``flow.py``.
"""

from fractions import Fraction

from .errors import ConsistencyError, ValidationError


def as_fraction(value):
    """Coerce ints, Fractions and {num, den} objects of two integers to Fraction."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, dict) and set(value) == {"num", "den"}:
        num, den = value["num"], value["den"]
        if type(num) is int and type(den) is int and den:
            return Fraction(num, den)
    raise ValidationError(f"cannot interpret {value!r} as a rational")


def require_half_integer(value, name):
    """Check value is in (1/2)Z and return it as Fraction."""
    frac = as_fraction(value)
    if frac.denominator not in (1, 2):
        raise ValidationError(f"{name} must be a half-integer, got {frac}")
    return frac


def exact_int(value, name):
    """An exact rational that must be an integer, as an int."""
    frac = Fraction(value)
    if frac.denominator != 1:
        raise ConsistencyError(f"{name} = {frac} is not an integer; data inconsistent")
    return int(frac)


def rational_json(value):
    frac = Fraction(value)
    return {"num": frac.numerator, "den": frac.denominator}
