import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_curve, shifted_curve
from pcurves.curves import ConstraintSet, CurveData, normal_chern
from pcurves.errors import ConsistencyError, ValidationError
from pcurves.intersections import (
    PairingInput,
    adjunction_sing,
    asymptotic_intersection,
    cov_totals,
    intersection_number,
    omega_sum,
    sing_decomposition,
)
from pcurves.orbits import (
    DeclaredWindings,
    MorseBott,
    Nondegenerate,
    OrbitClass,
    cover_orbit,
    scalar_orbit,
)
from pcurves.surfaces import PuncturedSurface

D = Fraction(1, 8)


def orbit(oid, am, ap, cover=1, distinct=()):
    return OrbitClass(
        id=oid,
        simple_id=oid if cover == 1 else f"{oid}_s",
        cover=cover,
        winding=DeclaredWindings((am, ap), (am, ap)),
        kind=Nondegenerate(),
        distinct_from=frozenset(distinct),
    )


def curve_with(orbits_by_puncture, signs, c1, tag, constrained=()):
    punctures = tuple((z, signs[z]) for z in orbits_by_puncture)
    surface = PuncturedSurface(0, 0, punctures)
    return CurveData(
        surface=surface,
        orbit_at=dict(orbits_by_puncture),
        c1_rel=c1,
        constraints=ConstraintSet(constrained=frozenset(constrained), delta=D),
        homology_tag=tag,
    )


def test_all_distinct_ends_gives_relative_pairing():
    a = orbit("a", 0, 1, distinct=("b",))
    b = orbit("b", 1, 2, distinct=("a",))
    left = curve_with({"x": a}, {"x": "+"}, 1, "L")
    right = curve_with({"y": b}, {"y": "+"}, 0, "R")
    pairing = PairingInput(left=left, right=right, relative_pairing=7)
    assert intersection_number(pairing) == 7


def test_self_pairing_scalar_model():
    # One negative puncture at a simple scalar orbit: Omega_- = alpha_+.
    g = scalar_orbit("g", math.pi / 3)
    left = curve_with({"x": g}, {"x": "-"}, 1, "S")
    pairing = PairingInput(left=left, right=left, relative_pairing=3)
    # alpha_+(g) = 1: i = 3 - 1 = 2.
    assert omega_sum(pairing) == 1
    assert intersection_number(pairing) == 2


def test_asymptotic_decomposition_generic():
    a = orbit("a", 0, 1, distinct=("b",))
    b = orbit("b", 1, 2, distinct=("a",))
    left = curve_with({"x": a}, {"x": "+"}, 1, "L")
    right = curve_with({"y": b}, {"y": "+"}, 0, "R")
    pairing = PairingInput(left=left, right=right, relative_pairing=5)
    report = asymptotic_intersection(pairing, geometric_count=5)
    assert report.total == 0
    assert report.geometric_count_consistent


def test_asymptotic_decomposition_refuses_a_negative_count():
    # A count of intersections is never negative, even where it would match
    # the invariant pairing minus the asymptotic total.
    a = orbit("a", 0, 1, distinct=("b",))
    b = orbit("b", 1, 2, distinct=("a",))
    left = curve_with({"x": a}, {"x": "+"}, 1, "L")
    right = curve_with({"y": b}, {"y": "+"}, 0, "R")
    pairing = PairingInput(left=left, right=right, relative_pairing=-1)
    with pytest.raises(ValidationError):
        asymptotic_intersection(pairing, geometric_count=-1)


def test_asymptotic_decomposition_rejects_self():
    left = curve_with({"x": orbit("a", 0, 1)}, {"x": "+"}, 1, "L")
    pairing = PairingInput(left=left, right=left, relative_pairing=0)
    with pytest.raises(ValidationError):
        asymptotic_intersection(pairing)


def test_morse_bott_contribution_positive():
    # Unconstrained ends at one degenerate orbit (kernel winding above
    # alpha_-): pushing the kernel below raises alpha_-, so Omega at the
    # perturbed operators drops below the strict value: i_MB > 0.
    h = scalar_orbit("h", 2 * math.pi)
    left = curve_with({"x": h}, {"x": "+"}, 1, "L")
    right = CurveData(
        surface=PuncturedSurface(0, 0, (("y", "+"),)),
        orbit_at={"y": h},
        c1_rel=0,
        constraints=ConstraintSet(constrained=frozenset(), delta=D),
        homology_tag="R",
    )
    pairing = PairingInput(left=left, right=right, relative_pairing=2)
    report = asymptotic_intersection(pairing)
    # strict alpha_- = 0; alpha_-(h - delta) = 1: i_MB = -0 - (-1) = 1.
    assert report.per_pair[0][2] == 1
    assert report.total == 1


def test_cov_totals_simple():
    g = scalar_orbit("g", math.pi / 3)
    curve = curve_with({"x": g}, {"x": "-"}, 1, "C")
    assert cov_totals(curve) == (0, 0)


def test_cov_totals_even_double_cover():
    # gamma^2 with even extremal winding on the relevant side contributes 1.
    even2 = OrbitClass(
        id="e2", simple_id="e", cover=2,
        winding=DeclaredWindings((2, 3), (2, 3)), kind=Nondegenerate(),
    )
    curve = curve_with({"x": even2}, {"x": "+"}, 1, "C", constrained=("x",))
    # positive puncture: side '-': alpha_- = 2: gcd(2, 2) = 2: cov - 1 = 1.
    assert cov_totals(curve) == (1, 0)


def test_cov_totals_morse_bott_weight():
    # Unconstrained 2-dim family orbit with nu on the counted side.
    mb = OrbitClass(
        id="m2", simple_id="m", cover=2,
        winding=DeclaredWindings(minus_delta=(2, 3), plus_delta=(2, 2)),
        kind=MorseBott(manifold_dim=2, isotropy=1),
    )
    curve = curve_with({"x": mb}, {"x": "-"}, 1, "C")
    # negative puncture: side '+': nu_+ = 1; generic cover number = 2.
    ci, cm = cov_totals(curve)
    assert cm == (2 - 1) * 1


def test_adjunction_examples():
    # i = 2, c_N = 0, covs 0: sing = 1 (not nicely embedded).
    g1 = scalar_orbit("g1", math.pi / 3, distinct_from=("g2", "g3", "g4"))
    g2 = scalar_orbit("g2", math.pi / 3, distinct_from=("g1", "g3", "g4"))
    g3 = scalar_orbit("g3", math.pi / 3, distinct_from=("g1", "g2", "g4"))
    g4 = scalar_orbit("g4", math.pi / 3, distinct_from=("g1", "g2", "g3"))
    orbits = {"a": g1, "b": g2, "c": g3, "d": g4}
    signs = {z: "-" for z in orbits}
    curve = curve_with(orbits, signs, 3, "A")
    # ind = (n-3)chi + 2c1 - sum mu = 2 + 6 - 4 = 4; c_N = (4-2+0)/2 = 1.
    pairing = PairingInput(left=curve, right=curve,
                           relative_pairing=omega_sum(PairingInput(left=curve, right=curve, relative_pairing=0)) + 3)
    i_self = intersection_number(pairing)
    assert i_self == 3
    sing = adjunction_sing(curve, i_self)
    assert sing == Fraction(3 - 1, 2)


def test_adjunction_negative_rejected():
    g = scalar_orbit("g", math.pi / 3)
    curve = curve_with({"x": g}, {"x": "-"}, 1, "B")
    c_n = normal_chern(curve)
    bad_i = int(c_n) - 1
    with pytest.raises(ConsistencyError):
        adjunction_sing(curve, bad_i)


def test_sing_decomposition_trivial():
    g1 = scalar_orbit("g1", math.pi / 3, distinct_from=("g2",))
    g2 = scalar_orbit("g2", math.pi / 3, distinct_from=("g1",))
    curve = curve_with({"a": g1, "b": g2}, {"a": "-", "b": "-"}, 1, "S")
    report = sing_decomposition(curve)
    assert report.delta_infinity_doubled == 0
    assert all(term == 0 for _, term, _ in report.pair_terms)


def test_sing_decomposition_double_cover_default_minimum():
    g = scalar_orbit("g", 3 * math.pi / 4)
    g2 = cover_orbit(g, 2)
    curve = curve_with({"a": g2}, {"a": "-"}, 1, "S2")
    report = sing_decomposition(curve)
    # Default self end intersection sits at the theoretical minimum.
    assert report.end_terms[0][1] == 0
    assert report.declared_unverified


def test_sing_decomposition_validates_against_adjunction():
    g = scalar_orbit("g", math.pi / 3)
    curve = curve_with({"x": g}, {"x": "-"}, 1, "V")
    pairing = PairingInput(left=curve, right=curve, relative_pairing=1)
    i_self = intersection_number(pairing)  # 1 - 1 = 0
    sing = adjunction_sing(curve, i_self)
    report = sing_decomposition(
        curve, delta_u=sing, adjunction_value=sing
    )
    assert report.sing_total == sing
    with pytest.raises(ConsistencyError):
        sing_decomposition(
            curve, delta_u=sing + 1, adjunction_value=sing
        )


def test_intersection_invariant_under_trivialization_shift():
    rng = np.random.default_rng(17)
    for case in range(40):
        curve = random_curve(rng, f"L{case}")
        shifts = {o.simple_id: int(rng.integers(-2, 3)) for o in curve.orbit_at.values()}
        base_pairing = PairingInput(
            left=curve, right=curve, relative_pairing=5
        )
        i_before = intersection_number(base_pairing)
        moved = shifted_curve(curve, shifts)
        # The relative pairing transforms by the Omega shifts.
        delta = 0
        for z in curve.surface.puncture_ids:
            for zp in curve.surface.puncture_ids:
                oz, ozp = curve.orbit_at[z], curve.orbit_at[zp]
                if oz.simple_id != ozp.simple_id:
                    continue
                if curve.surface.sign_of(z) != curve.surface.sign_of(zp):
                    continue
                w = shifts.get(oz.simple_id, 0)
                if curve.surface.sign_of(z) == "+":
                    delta -= oz.cover * ozp.cover * w
                else:
                    delta += oz.cover * ozp.cover * w
        moved_pairing = PairingInput(
            left=moved, right=moved, relative_pairing=5 + delta
        )
        assert intersection_number(moved_pairing) == i_before


def test_adjunction_implication_on_nice_data():
    # For valid self-pairings with i <= 0 and sing = 0 the identity forces
    # c_N <= 0.
    rng = np.random.default_rng(23)
    checked = 0
    for case in range(300):
        curve = random_curve(rng, f"N{case}")
        try:
            c_n = normal_chern(curve)
            ci, cm = cov_totals(curve)
        except Exception:
            continue
        # Declare a self-pairing that makes sing = 0: i = c_N + covs.
        i_self = c_n + ci + cm
        if i_self.denominator != 1 or i_self > 0:
            continue
        sing = adjunction_sing(curve, int(i_self))
        assert sing == 0
        assert c_n <= 0
        checked += 1
    assert checked >= 30
