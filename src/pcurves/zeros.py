"""The half-integer zero count of a line-bundle section with totally real
boundary condition, and the doubling identity, in exact arithmetic.
Floating point enters only in ``spectral.py`` and in ``flow.py``, which
measures the winding numbers of sampled loops."""

from fractions import Fraction

from .errors import ValidationError
from .records import record


@record
class BundleData:
    """Line bundle over a compact surface with totally real boundary data:
    relative Chern number, boundary Maslov index, and the winding of the
    section over the free boundary circles."""

    c1: int
    maslov: int
    boundary_winding: int
    has_maslov_boundary: bool = True

    def __post_init__(self):
        if not self.has_maslov_boundary and self.maslov != 0:
            raise ValidationError("Maslov index must vanish without boundary")


def zero_count(bundle):
    """Algebraic zero count Z = c1 + maslov/2 + boundary winding (boundary
    zeros weighted one half)."""
    return Fraction(bundle.c1) + Fraction(bundle.maslov, 2) + bundle.boundary_winding


def doubling_check(bundle):
    """Zero count of the doubled data (c1 -> 2 c1 + maslov, maslov -> 0,
    winding doubled); returns it with the check that it equals twice the
    original count."""
    if not bundle.has_maslov_boundary:
        raise ValidationError("doubling needs a nonempty totally real boundary part")
    doubled = BundleData(
        c1=2 * bundle.c1 + bundle.maslov,
        maslov=0,
        boundary_winding=2 * bundle.boundary_winding,
    )
    z_doubled = zero_count(doubled)
    return z_doubled, z_doubled == 2 * zero_count(bundle)
