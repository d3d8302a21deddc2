"""Homotopy-invariant intersection pairing, asymptotic contributions,
singularity index via adjunction, and the covering totals.

The relative pairing (the count against a trivialization-offset copy) is
declared input: it is a relative homology count that only the actual maps
determine.  Everything layered on top of it is exact arithmetic in the
orbit winding data, and positivity/adjunction act as the consistency
screen for the declared numbers.
"""

from fractions import Fraction

from .curves import normal_chern
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
)
from .records import field, record
from .surfaces import NEGATIVE, POSITIVE


@record
class PairingInput:
    """Two constrained curves with their declared relative pairing.

    ``declared_end_intersections`` optionally declares the nonnegative
    relative asymptotic intersection of individual end pairs (the generic
    value is 0); keys are (left puncture id, right puncture id).
    """

    left: object  # CurveData
    right: object
    relative_pairing: int
    declared_end_intersections: dict = field(dict)

    @property
    def is_self_pairing(self):
        return self.left.homology_tag == self.right.homology_tag

    def same_sign_pairs(self):
        """(left end, right end) of each same-sign end pair, positive ends
        first; an end is (z, sign, orbit, perturbation)."""
        for sign in (POSITIVE, NEGATIVE):
            for end_l in self.left.ends:
                for end_r in self.right.ends:
                    if end_l[1] == end_r[1] == sign:
                        yield end_l, end_r

    def end_intersection(self, z, zp):
        value = self.declared_end_intersections.get((z, zp), 0)
        if value < 0:
            raise ValidationError("declared end intersections must be nonnegative")
        return value


def omega_sum(pairing):
    """Sum of Omega terms over all same-sign end pairs, at the constrained
    perturbations."""
    total = 0
    for (_, sign, a, pert_a), (_, _, b, pert_b) in pairing.same_sign_pairs():
        total += omega_pair(a, pert_a, b, pert_b, sign)
    return total


def intersection_number(pairing):
    """The homotopy-invariant pairing: declared relative count minus the
    Omega sum.  Also meaningful as a self-intersection number."""
    return pairing.relative_pairing - omega_sum(pairing)


def _morse_bott_term(pair, a, pert_a, b, pert_b, sign):
    """The Morse-Bott part of the same-sign end pair ``pair`` = (z, z') at
    the orbits a, b: Omega at zero perturbation minus Omega at the
    constrained perturbations, nonnegative for consistent winding data."""
    term = omega_pair_strict(a, b, sign) - omega_pair(a, pert_a, b, pert_b, sign)
    if term < 0:
        z, zp = pair
        raise ConsistencyError(
            f"negative Morse-Bott contribution at end pair ({z}, {zp});"
            " winding data is inconsistent"
        )
    return term


@record
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
    if geometric_count is not None and geometric_count < 0:
        raise ValidationError(
            f"a geometric intersection count is nonnegative, got {geometric_count}"
        )
    rows = []
    total = 0
    used_default = False
    for (z, sign, a, pert_a), (zp, _, b, pert_b) in pairing.same_sign_pairs():
        end_term = pairing.end_intersection(z, zp)
        if (z, zp) not in pairing.declared_end_intersections:
            used_default = True
        mb_term = _morse_bott_term((z, zp), a, pert_a, b, pert_b, sign)
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


def cov_totals(curve):
    """(cov_infinity, cov_morse_bott) of the curve's asymptotic orbit set.

    cov_infinity sums cov(extremal eigenfunction of the generic perturbed
    orbit) - 1 over all punctures; cov_morse_bott weights the generic
    orbit's covering excess by nu at the unconstrained punctures.
    """
    cov_inf = 0
    cov_mb = 0
    for z, sign, orbit, _ in curve.ends:
        side = extremal_side(sign)
        if z in curve.constraints.constrained:
            cov_inf += cov_extremal(orbit, side) - 1
        else:
            cov_inf += generic_cov_extremal(orbit, side) - 1
            cov_mb += (generic_cover_number(orbit) - 1) * nu_at(orbit, side)
    return cov_inf, cov_mb


def adjunction_sing(curve, self_intersection):
    """Singularity index from the adjunction formula:
    sing = [i(u|u) - c_N - cov_infinity - cov_morse_bott] / 2.

    Nonnegative and half-integral for data realizable by a somewhere
    injective curve; anything else is rejected.
    """
    if not curve.somewhere_injective:
        raise ValidationError("adjunction applies to somewhere injective curves")
    c_n = normal_chern(curve)
    cov_inf, cov_mb = cov_totals(curve)
    sing = Fraction(self_intersection - c_n - cov_inf - cov_mb, 2)
    if sing < 0:
        raise ConsistencyError(
            f"adjunction gives negative singularity index {sing}; "
            "data inconsistent with a J-holomorphic curve"
        )
    if (2 * sing).denominator != 1:
        raise ConsistencyError("singularity index is not half-integral")
    return sing


@record
class SingDecomposition:
    delta_infinity_doubled: Fraction  # 2 * delta_infinity(u; c)
    pair_terms: tuple
    end_terms: tuple  # ((z, 2 delta_inf(u_z), 2 delta_MB(z)))
    declared_unverified: bool
    sing_total: Fraction = None


def sing_decomposition(curve, delta_u=None, adjunction_value=None):
    """Assemble 2 delta_infinity(u; c) from per-end data.

    Every relative asymptotic intersection sits at its minimum: the term of
    each ordered pair (z, z') of distinct same-sign punctures is 0, and so
    is delta_inf(u_z) of each end, so only the Morse-Bott parts add up.
    When the interior singularity count delta(u) is declared, the total is
    validated against the adjunction singularity index.
    """
    pair_rows = []
    total = Fraction(0)
    for z, sign, a, pert_a in curve.ends:
        for zp, sign_p, b, pert_b in curve.ends:
            if z == zp or sign != sign_p:
                continue
            mb_term = _morse_bott_term((z, zp), a, pert_a, b, pert_b, sign)
            pair_rows.append(((z, zp), 0, mb_term))
            total += mb_term

    end_rows = []
    for z, sign, orbit, pert in curve.ends:
        two_delta_mb = 2 * delta_mb(orbit, pert, sign)
        end_rows.append((z, Fraction(0), two_delta_mb))
        total += two_delta_mb

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
        declared_unverified=bool(curve.ends),
        sing_total=sing_total,
    )
