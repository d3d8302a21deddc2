"""Homotopy-invariant intersection pairing, asymptotic contributions,
singularity index via adjunction, and the covering totals.

The relative pairing (the count against a trivialization-offset copy) is
declared input: it is a relative homology count that only the actual maps
determine.  Everything layered on top of it is exact arithmetic in the
orbit winding data, and positivity/adjunction act as the consistency
screen for the declared numbers.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .curves import normal_chern, puncture_perturbations
from .errors import ConsistencyError, ValidationError
from .orbits import (
    cov_extremal,
    delta_mb,
    extremal_side,
    generic_cov_extremal,
    generic_cover_number,
    nu_at,
    omega_pair,
    omega_pair_strict,
    omega_self,
)
from .surfaces import NEGATIVE, POSITIVE


@dataclass(frozen=True)
class PairingInput:
    """Two constrained curves with their declared relative pairing.

    ``declared_end_intersections`` optionally declares the nonnegative
    relative asymptotic intersection of individual end pairs (the generic
    value is 0); keys are (left puncture id, right puncture id).
    """

    left: tuple  # (CurveData, ConstraintSet)
    right: tuple
    relative_pairing: int
    declared_end_intersections: dict = field(default_factory=dict)

    @property
    def is_self_pairing(self):
        curve_l, _ = self.left
        curve_r, _ = self.right
        return curve_l.homology_tag == curve_r.homology_tag

    def same_sign_pairs(self):
        curve_l, _ = self.left
        curve_r, _ = self.right
        for sign in (POSITIVE, NEGATIVE):
            left_ids = (
                curve_l.surface.positive_punctures()
                if sign == POSITIVE
                else curve_l.surface.negative_punctures()
            )
            right_ids = (
                curve_r.surface.positive_punctures()
                if sign == POSITIVE
                else curve_r.surface.negative_punctures()
            )
            for z in left_ids:
                for zp in right_ids:
                    yield sign, z, zp

    def end_intersection(self, z, zp):
        value = self.declared_end_intersections.get((z, zp), 0)
        if value < 0:
            raise ValidationError("declared end intersections must be nonnegative")
        return value


def omega_sum(pairing):
    """Sum of Omega terms over all same-sign end pairs, at the constrained
    perturbations."""
    curve_l, cons_l = pairing.left
    curve_r, cons_r = pairing.right
    perts_l = puncture_perturbations(curve_l, cons_l)
    perts_r = puncture_perturbations(curve_r, cons_r)
    total = 0
    for sign, z, zp in pairing.same_sign_pairs():
        total += omega_pair(
            curve_l.orbit(z),
            perts_l[z],
            curve_r.orbit(zp),
            perts_r[zp],
            sign,
        )
    return total


def intersection_number(pairing):
    """The homotopy-invariant pairing: declared relative count minus the
    Omega sum.  Also meaningful as a self-intersection number."""
    return pairing.relative_pairing - omega_sum(pairing)


@dataclass(frozen=True)
class AsymptoticReport:
    total: int
    per_pair: tuple  # ((z, z'), end_term, morse_bott_term)
    declared_unverified: bool
    geometric_count_consistent: bool = None


def asymptotic_intersection(pairing, geometric_count=None):
    """Total asymptotic contribution hidden at infinity, decomposed per
    same-sign end pair into the fixed-orbit part and the Morse-Bott part.

    Requires geometrically distinct curves.  When the actual geometric
    intersection count is supplied, validates i = count + asymptotic total.
    """
    if pairing.is_self_pairing:
        raise ValidationError(
            "asymptotic decomposition needs geometrically distinct curves"
        )
    curve_l, cons_l = pairing.left
    curve_r, cons_r = pairing.right
    perts_l = puncture_perturbations(curve_l, cons_l)
    perts_r = puncture_perturbations(curve_r, cons_r)
    rows = []
    total = 0
    used_default = False
    for sign, z, zp in pairing.same_sign_pairs():
        a = curve_l.orbit(z)
        b = curve_r.orbit(zp)
        end_term = pairing.end_intersection(z, zp)
        if (z, zp) not in pairing.declared_end_intersections:
            used_default = True
        mb_term = omega_pair_strict(a, b, sign) - omega_pair(
            a, perts_l[z], b, perts_r[zp], sign
        )
        if mb_term < 0:
            raise ConsistencyError(
                f"negative Morse-Bott contribution at end pair ({z}, {zp});"
                " winding data is inconsistent"
            )
        rows.append(((z, zp), end_term, mb_term))
        total += end_term + mb_term
    consistent = None
    if geometric_count is not None:
        consistent = (
            intersection_number(pairing) == geometric_count + total
        )
        if not consistent:
            raise ConsistencyError(
                "declared geometric count does not match the invariant pairing "
                "minus asymptotic contributions"
            )
    return AsymptoticReport(
        total=total,
        per_pair=tuple(rows),
        declared_unverified=used_default,
        geometric_count_consistent=consistent,
    )


def cov_totals(curve, constraints):
    """(cov_infinity, cov_morse_bott) of the curve's asymptotic orbit set.

    cov_infinity sums cov(extremal eigenfunction of the generic perturbed
    orbit) - 1 over all punctures; cov_morse_bott weights the generic
    orbit's covering excess by nu at the unconstrained punctures.
    """
    constraints.validate_against(curve.surface)
    cov_inf = 0
    cov_mb = 0
    for z in curve.surface.puncture_ids:
        orbit = curve.orbit(z)
        side = extremal_side(curve.sign(z))
        constrained = z in constraints.constrained
        if constrained:
            cov_inf += cov_extremal(orbit, side) - 1
        else:
            cov_inf += generic_cov_extremal(orbit, side) - 1
            cov_mb += (generic_cover_number(orbit) - 1) * nu_at(orbit, side)
    return cov_inf, cov_mb


def adjunction_sing(curve, constraints, self_intersection):
    """Singularity index from the adjunction formula:
    sing = [i(u|u) - c_N - cov_infinity - cov_morse_bott] / 2.

    Nonnegative and half-integral for data realizable by a somewhere
    injective curve; anything else is rejected.
    """
    if not curve.somewhere_injective:
        raise ValidationError("adjunction applies to somewhere injective curves")
    c_n = normal_chern(curve, constraints)
    cov_inf, cov_mb = cov_totals(curve, constraints)
    sing = Fraction(self_intersection - c_n - cov_inf - cov_mb, 2)
    if sing < 0:
        raise ConsistencyError(
            f"adjunction gives negative singularity index {sing}; "
            "data inconsistent with a J-holomorphic curve"
        )
    if (2 * sing).denominator != 1:
        raise ConsistencyError("singularity index is not half-integral")
    return sing


@dataclass(frozen=True)
class SingDecomposition:
    delta_infinity_doubled: Fraction  # 2 * delta_infinity(u; c)
    pair_terms: tuple
    end_terms: tuple  # ((z, 2 delta_inf(u_z), 2 delta_MB(z)))
    declared_unverified: bool
    sing_total: Fraction = None


def sing_decomposition(
    curve,
    constraints,
    self_end_intersections=None,
    pair_end_intersections=None,
    delta_u=None,
    adjunction_value=None,
):
    """Assemble 2 delta_infinity(u; c) from per-end data.

    ``self_end_intersections`` maps a puncture z to the declared relative
    self asymptotic intersection of that end; it defaults to the theoretical
    minimum (the self Omega of the orbit), giving delta_inf(u_z) = 0.
    ``pair_end_intersections`` maps ordered pairs (z, z') of distinct
    same-sign punctures to their declared nonnegative contribution
    (default 0).  When the interior singularity count delta(u) is declared,
    the total is validated against the adjunction singularity index.
    """
    self_end_intersections = self_end_intersections or {}
    pair_end_intersections = pair_end_intersections or {}
    perts = puncture_perturbations(curve, constraints)
    used_default = False

    pair_rows = []
    total = Fraction(0)
    ids = curve.surface.puncture_ids
    for z in ids:
        for zp in ids:
            if z == zp or curve.sign(z) != curve.sign(zp):
                continue
            sign = curve.sign(z)
            end_term = pair_end_intersections.get((z, zp), 0)
            if (z, zp) not in pair_end_intersections:
                used_default = True
            mb_term = omega_pair_strict(curve.orbit(z), curve.orbit(zp), sign) - omega_pair(
                curve.orbit(z), perts[z], curve.orbit(zp), perts[zp], sign
            )
            if end_term < 0 or mb_term < 0:
                raise ConsistencyError(
                    f"negative summand at end pair ({z}, {zp})"
                )
            pair_rows.append(((z, zp), end_term, mb_term))
            total += end_term + mb_term

    end_rows = []
    for z in ids:
        orbit = curve.orbit(z)
        sign = curve.sign(z)
        minimum = omega_self(orbit, sign)
        declared = self_end_intersections.get(z, minimum)
        if z not in self_end_intersections:
            used_default = True
        two_delta_inf = declared - minimum
        if two_delta_inf < 0:
            raise ConsistencyError(
                f"declared self asymptotic intersection at {z!r} is below "
                "its theoretical minimum"
            )
        two_delta_mb = 2 * delta_mb(orbit, perts[z], curve.sign(z))
        end_rows.append((z, Fraction(two_delta_inf), two_delta_mb))
        total += two_delta_inf + two_delta_mb

    sing_total = None
    if delta_u is not None:
        sing_total = Fraction(delta_u) + total / 2
        if adjunction_value is not None and sing_total != Fraction(adjunction_value):
            raise ConsistencyError(
                f"declared delta(u) + delta_infinity = {sing_total} does not "
                f"match the adjunction singularity index {adjunction_value}"
            )
    return SingDecomposition(
        delta_infinity_doubled=total,
        pair_terms=tuple(pair_rows),
        end_terms=tuple(end_rows),
        declared_unverified=used_default,
        sing_total=sing_total,
    )
