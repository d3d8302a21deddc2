import math
from fractions import Fraction

import numpy as np
import pytest

import pcurves.curves
from conftest import random_curve, random_declared_orbit, shifted_curve
from oracles import k_bound_bruteforce
from pcurves.curves import (
    ConstraintSet,
    CurveData,
    _normal_chern_from_index,
    _normal_chern_from_windings,
    adjusted_c1_zero_budget,
    critical_bound_check,
    fredholm_index,
    index_normal_operator,
    index_tangent_operator,
    k_bound,
    line_bundle_bounds,
    normal_chern,
    parity_partition,
    transversality_check,
)
from pcurves.errors import ConsistencyError, PCurvesError, ValidationError
from pcurves.intersections import cov_totals, sing_decomposition
from pcurves.records import replace
from pcurves.orbits import DeclaredWindings, Nondegenerate, OrbitClass, delta_mb, scalar_orbit
from pcurves.surfaces import PuncturedSurface

D = Fraction(1, 8)


def declared_orbit(oid, alpha_minus, alpha_plus, cover=1, distinct=()):
    return OrbitClass(
        id=oid,
        simple_id=oid if cover == 1 else f"{oid}_simple",
        cover=cover,
        winding=DeclaredWindings((alpha_minus, alpha_plus), (alpha_minus, alpha_plus)),
        kind=Nondegenerate(),
        distinct_from=frozenset(distinct),
    )


def closed_curve(genus, c1):
    surface = PuncturedSurface(genus=genus, boundary_components=0, punctures=())
    return CurveData(
        surface=surface,
        orbit_at={},
        c1_rel=c1,
        constraints=no_constraints(),
        homology_tag="closed",
    )


def no_constraints():
    return ConstraintSet(constrained=frozenset(), delta=D)


def test_index_closed_sphere():
    # Closed genus-0 curve with c1 = 1 in ambient dimension 2 has index 0.
    assert fredholm_index(closed_curve(0, 1)) == 0
    # ind = 2 c1 + 2g - 2 more generally.
    for g in (0, 1, 2):
        for c1 in (-1, 0, 3):
            assert fredholm_index(closed_curve(g, c1)) == 2 * c1 + 2 * g - 2


def one_puncture_curve(orbit, sign="+", c1=0, z_du=0, constrained=False):
    surface = PuncturedSurface(0, 0, (("z", sign),))
    return CurveData(
        surface=surface,
        orbit_at={"z": orbit},
        c1_rel=c1,
        constraints=ConstraintSet(constrained=frozenset({"z"} if constrained else ()), delta=D),
        z_du=Fraction(z_du),
        homology_tag="one",
    )


def test_index_single_positive_puncture():
    # ind = (n-3) chi + 2 c1 + mu_CZ(gamma) = -1 + 0 + (2*1+1) = 2.
    orbit = declared_orbit("a", 1, 2)
    curve = one_puncture_curve(orbit)
    assert fredholm_index(curve) == 2
    # A negative puncture enters with the opposite sign.
    curve_n = one_puncture_curve(orbit, sign="-")
    assert fredholm_index(curve_n) == -1 - 3


@pytest.mark.parametrize(
    "sign, constrained, epsilon", [("+", True, D), ("+", False, -D), ("-", True, -D), ("-", False, D)]
)
def test_perturbation_is_the_sign_times_the_constraint_weight(sign, constrained, epsilon):
    # A + (sign of z) c_z, with c_z = delta constrained and -delta unconstrained.
    curve = one_puncture_curve(declared_orbit("a", 1, 2), sign, constrained=constrained)
    [(_, _, _, pert)] = curve.ends
    assert pert.epsilon == epsilon


def test_parity_partition_odd_orbits():
    odd = declared_orbit("a", 1, 2)
    curve = one_puncture_curve(odd)
    assert parity_partition(curve) == (0, 1)
    even = declared_orbit("b", 1, 1)
    curve2 = one_puncture_curve(even)
    assert parity_partition(curve2) == (1, 0)


def test_normal_chern_closed_immersed():
    # Closed immersed curve: c_N = c1(u^*TW) - chi(Sigma).
    for g, c1 in [(0, 1), (1, 2), (2, -1)]:
        curve = closed_curve(g, c1)
        assert normal_chern(curve) == c1 - (2 - 2 * g)


def test_normal_chern_formulas_must_agree(monkeypatch):
    # Both c_N formulas run on every curve.  A sphere with an even (CZ 2)
    # and an odd (CZ 3) positive puncture, c1 = 0: ind = 0 + 0 + 5 = 5, so
    # 2 c_N = 5 - 2 + #even = 4; the winding form is c1 - chi + 1 + 1 = 2.
    surface = PuncturedSurface(0, 0, (("e", "+"), ("o", "+")))
    curve = CurveData(
        surface=surface, orbit_at={"e": declared_orbit("b", 1, 1), "o": declared_orbit("a", 1, 2)},
        c1_rel=0, constraints=no_constraints(), homology_tag="eo",
    )
    assert parity_partition(curve) == (1, 1)
    assert _normal_chern_from_index(curve) == _normal_chern_from_windings(curve) == 2
    assert normal_chern(curve) == 2
    report = transversality_check(curve)
    assert report.criterion_met and report.genus_form and report.winding_form
    # A winding form that disagrees is caught, on a curve whose c_N has not
    # been computed: a curve keeps its c_N once both forms have agreed.
    monkeypatch.setattr(pcurves.curves, "_normal_chern_from_windings", lambda u: Fraction(3))
    assert normal_chern(curve) == 2
    with pytest.raises(ConsistencyError, match="normal Chern number mismatch"):
        normal_chern(replace(curve))


def test_randomized_two_formula_agreement():
    rng = np.random.default_rng(2026)
    for i in range(200):
        curve = random_curve(rng, f"r{i}")
        c_n = normal_chern(curve)
        ind = fredholm_index(curve)
        gamma0, _ = parity_partition(curve)
        assert 2 * c_n == ind - 2 + 2 * curve.surface.genus + gamma0


def _outcome(invariant, curve):
    """The invariant of the curve, or the type of the error it raises."""
    try:
        return invariant(curve)
    except PCurvesError as exc:
        return type(exc)


def test_index_invariant_under_trivialization_shift():
    rng = np.random.default_rng(99)
    for i in range(50):
        curve = random_curve(rng, f"s{i}")
        shifts = {
            o.simple_id: int(rng.integers(-2, 3)) for o in curve.orbit_at.values()
        }
        moved = shifted_curve(curve, shifts)
        assert fredholm_index(moved) == fredholm_index(curve)
        assert normal_chern(moved) == normal_chern(curve)
        for invariant in (
            parity_partition,
            transversality_check,
            cov_totals,
            lambda u: [delta_mb(orbit, pert, sign) for _, sign, orbit, pert in u.ends],
            lambda u: sing_decomposition(u).delta_infinity_doubled,
        ):
            assert _outcome(invariant, moved) == _outcome(invariant, curve), (i, invariant)


# -- K ------------------------------------------------------------------


def test_k_bound_examples():
    # No 0 <= k <= G when G < 0, whatever c is.
    for c in (Fraction(-1), Fraction(1)):
        assert k_bound_bruteforce(c, -1, False) is None
        with pytest.raises(ValidationError):
            k_bound(c, -1, False)
    assert k_bound(Fraction(-1), 0, False) == 0
    assert k_bound(Fraction(-1), 5, True) == 0
    assert k_bound(Fraction(0), 0, False) == 2
    assert k_bound(Fraction(1), 2, True) == 2
    # An enumeration over k <= G or l <= 2c would not end on these.
    assert k_bound(Fraction(10**12), 0, False) == 2 * 10**12 + 2
    assert k_bound(Fraction(10**7), 0, True) == 2 * 10**7 + 1
    assert k_bound(Fraction(3), 10**6, False) == 4


def test_k_bound_matches_bruteforce():
    # The closed form against the enumeration at c = n/d, with G below and
    # above floor c.
    for n in range(-6, 60):
        for d in range(1, 5):
            c = Fraction(n, d)
            for g in range(0, 12):
                for boundary in (False, True):
                    assert k_bound(c, g, boundary) == k_bound_bruteforce(c, g, boundary), (
                        c, g, boundary,
                    )


# -- transversality -------------------------------------------------------


def test_transversality_regular_cases():
    # ind = 0 > c_N + Z = -1: regular with trivial kernel.
    orbit = declared_orbit("a", 0, 1)
    surface = PuncturedSurface(0, 0, (("z1", "-"), ("z2", "-"), ("z3", "-")))
    curve = CurveData(
        surface=surface,
        orbit_at={z: declared_orbit(z + "o", 0, 1) for z in ("z1", "z2", "z3")},
        c1_rel=1,
        constraints=ConstraintSet(constrained=frozenset(), delta=D),
        homology_tag="t",
    )
    report = transversality_check(curve)
    assert report.index == fredholm_index(curve)
    if report.criterion_met:
        assert report.kernel_lower == report.kernel_upper == max(
            report.index, int(2 * curve.z_du)
        )


def test_transversality_smallest_kernel_case():
    # c_N < Z(du) and ind <= 2 Z(du): the kernel is exactly 2 Z(du).
    curve = closed_curve(0, 1)
    curve_crit = CurveData(
        surface=curve.surface,
        orbit_at={},
        c1_rel=1,
        constraints=no_constraints(),
        z_du=Fraction(1),
        homology_tag="crit",
    )
    # ind 0, c_N = -1, Z = 1: criterion 0 > 0 fails; ind <= 2Z.
    report = transversality_check(curve_crit)
    assert not report.criterion_met
    assert report.kernel_lower == report.kernel_upper == 2
    # K(c_N - Z, 0) = K(-2, 0) = 0 collapses the bounds.


def test_transversality_nontrivial_upper_bound():
    # Closed torus, c1 = 1: ind = 2 > c_N + Z = 1: regular, kernel 2.
    report = transversality_check(closed_curve(1, 1))
    assert report.criterion_met
    assert (report.kernel_lower, report.kernel_upper) == (2, 2)
    # Closed torus, c1 = 0: ind = 0, c_N = 0: criterion fails; the closed
    # K(0, 0) = 2 opens a window [0, 2].
    report2 = transversality_check(closed_curve(1, 0))
    assert not report2.criterion_met
    assert (report2.kernel_lower, report2.kernel_upper) == (0, 2)
    # Closed genus 2, c1 = 3: ind = 8, c_N = 5, Z = 2: 8 > 7 met.
    curve_g2 = CurveData(
        surface=PuncturedSurface(2, 0, ()), orbit_at={},
        c1_rel=3, constraints=no_constraints(), z_du=Fraction(2), homology_tag="g2",
    )
    report3 = transversality_check(curve_g2)
    assert report3.criterion_met
    assert report3.kernel_lower == report3.kernel_upper == max(8, 4)
    # Same but c1 = 2: ind = 6, c_N = 4, Z = 2: 6 > 6 fails; 2Z=4 <= 6:
    # bounds [6, 6 + K(0, #even=0)] = [6, 8] (closed: l even).
    curve_g2b = CurveData(
        surface=PuncturedSurface(2, 0, ()), orbit_at={},
        c1_rel=2, constraints=no_constraints(), z_du=Fraction(2), homology_tag="g2b",
    )
    report4 = transversality_check(curve_g2b)
    assert not report4.criterion_met
    assert (report4.kernel_lower, report4.kernel_upper) == (6, 8)


# -- curves with boundary ---------------------------------------------------


def disk(mu, orbits=(), z_du=0):
    """A disk with boundary Maslov number ``mu``, c1_rel 0, no constraints,
    and one positive puncture per orbit."""
    surface = PuncturedSurface(0, 1, tuple((f"z{i}", "+") for i in range(len(orbits))))
    return CurveData(
        surface=surface, orbit_at={f"z{i}": o for i, o in enumerate(orbits)}, c1_rel=0,
        constraints=no_constraints(), maslov_boundary=mu, z_du=Fraction(z_du),
        homology_tag="disk",
    )


@pytest.mark.parametrize(
    "mu, punctured, z_du",
    [(1, False, 0), (2, False, 0), (3, False, 0), (0, True, 0), (1, True, 0), (2, True, 0),
     (3, False, Fraction(1, 2))],
)
def test_disks_match_their_closed_forms(mu, punctured, z_du):
    # S = 3.5 Id has the spectrum {2 pi m - 3.5}: CZ = 2 floor(3.5 / 2 pi) + 1,
    # odd, so no puncture is even.
    orbits = [scalar_orbit("a", 3.5)] if punctured else []
    cz = [2 * math.floor(3.5 / (2 * math.pi)) + 1 for _ in orbits]
    chi = 2 - 1 - len(orbits)
    ind = -chi + mu + sum(cz)
    # 2 c_N = ind - 2 + 2g + #even + m, with g = #even = 0 and m = 1.
    c_n = Fraction(ind - 2 + 1, 2)
    report = transversality_check(disk(mu, orbits, z_du))
    assert (report.index, report.normal_chern) == (ind, c_n)
    assert ind > c_n + z_du
    assert report.criterion_met and report.genus_form and report.winding_form
    assert (report.kernel_lower, report.kernel_upper) == (ind, ind)


def random_bordered_curve(rng, tag):
    """Random curve data with 1 to 3 boundary components over declared orbits."""
    punctures = tuple(
        (f"{tag}z{i}", "+" if rng.random() < 0.5 else "-") for i in range(rng.integers(0, 4))
    )
    return CurveData(
        surface=PuncturedSurface(int(rng.integers(0, 3)), int(rng.integers(1, 4)), punctures),
        orbit_at={z: random_declared_orbit(rng, f"{z}o") for z, _ in punctures},
        c1_rel=int(rng.integers(-4, 5)),
        constraints=ConstraintSet(
            constrained=frozenset(z for z, _ in punctures if rng.random() < 0.5), delta=D
        ),
        maslov_boundary=int(rng.integers(-3, 4)),
        z_du=Fraction(int(rng.integers(0, 5)), 2),
        homology_tag=tag,
    )


def double(curve):
    """The double of a curve with boundary: two copies glued along the m
    boundary circles, genus 2g + m - 1, each puncture mirrored with its sign,
    orbit and constraint, c1_rel 2 c1 + mu, and twice the critical points."""
    surface = curve.surface
    mirror = {z: z + "'" for z in surface.puncture_ids}
    return CurveData(
        surface=PuncturedSurface(
            2 * surface.genus + surface.boundary_components - 1, 0,
            surface.punctures + tuple((mirror[z], sign) for z, sign in surface.punctures),
        ),
        orbit_at={**curve.orbit_at, **{mirror[z]: o for z, o in curve.orbit_at.items()}},
        c1_rel=2 * curve.c1_rel + curve.maslov_boundary,
        constraints=ConstraintSet(
            constrained=curve.constraints.constrained
            | {mirror[z] for z in curve.constraints.constrained},
            delta=curve.constraints.delta,
        ),
        z_du=2 * curve.z_du,
        homology_tag=curve.homology_tag + "-double",
    )


def test_the_double_doubles_the_index_and_the_normal_chern_number():
    # chi, 2 c1 + mu, the CZ sum and Z all double, so ind = -chi + 2 c1 + mu
    # and c_N double too; the kernel bounds need not.
    rng = np.random.default_rng(19)
    for i in range(300):
        curve = random_bordered_curve(rng, f"b{i}")
        doubled = double(curve)
        assert fredholm_index(doubled) == 2 * fredholm_index(curve), i
        assert normal_chern(doubled) == 2 * normal_chern(curve), i
        assert (
            transversality_check(doubled).criterion_met
            == transversality_check(curve).criterion_met
        ), i


# -- line bundle bounds ----------------------------------------------------


def test_line_bundle_examples():
    r = line_bundle_bounds(0, Fraction(-1), 0, False)
    assert r.injective and r.surjective
    r = line_bundle_bounds(2, Fraction(0), 0, False)
    assert r.surjective and r.kernel_lower == r.kernel_upper == 2
    r = line_bundle_bounds(0, Fraction(0), 1, True)
    assert not r.injective and not r.surjective
    assert r.kernel_upper == 1  # K(0, 1) with boundary


def test_line_bundle_self_duality():
    # Formal adjoint data: ind -> -ind, c1 -> c1 - ind; verdicts swap.
    rng = np.random.default_rng(5)
    for _ in range(200):
        ind = int(rng.integers(-4, 5))
        c1 = Fraction(int(rng.integers(-8, 9)), 2)
        gamma0 = int(rng.integers(0, 4))
        boundary = bool(rng.random() < 0.5)
        if not boundary and c1.denominator == 2:
            continue
        direct = line_bundle_bounds(ind, c1, gamma0, boundary)
        adjoint = line_bundle_bounds(-ind, c1 - ind, gamma0, boundary)
        assert direct.injective == adjoint.surjective
        assert direct.surjective == adjoint.injective
        # dim ker D = ind + dim ker D*: the bounds correspond.
        if ind >= 0:
            assert direct.kernel_lower == ind + adjoint.kernel_lower
            assert direct.kernel_upper == ind + adjoint.kernel_upper


# -- normal/tangent operator indices ---------------------------------------


def test_index_normal_operator():
    curve = closed_curve(0, 1)
    assert index_normal_operator(curve) == fredholm_index(curve)
    curve_crit = CurveData(
        surface=curve.surface, orbit_at={}, c1_rel=2,
        constraints=no_constraints(), z_du=Fraction(1), homology_tag="c",
    )
    # ind = 2, Z = 1: normal index 0.
    assert index_normal_operator(curve_crit) == 0
    # Tangent operator: 3 chi + #punctures + 2 Z.
    assert index_tangent_operator(curve_crit) == 3 * 2 + 0 + 2


def test_critical_bound():
    cons = no_constraints()
    embedded = closed_curve(0, 1)
    assert critical_bound_check(embedded)
    bad = CurveData(
        surface=embedded.surface, orbit_at={}, c1_rel=1,
        constraints=cons, z_du=Fraction(1), homology_tag="bad",
    )
    # Z = 1, ind = 0: flags non-generic data.
    assert not critical_bound_check(bad)
    good = CurveData(
        surface=embedded.surface, orbit_at={}, c1_rel=2,
        constraints=cons, z_du=Fraction(1), homology_tag="ok",
    )
    assert critical_bound_check(good)
    multiply_covered = CurveData(
        surface=embedded.surface, orbit_at={}, c1_rel=1,
        constraints=cons, somewhere_injective=False, homology_tag="mc",
    )
    with pytest.raises(ValidationError):
        critical_bound_check(multiply_covered)


def test_zero_budget():
    assert adjusted_c1_zero_budget(Fraction(-1)).kernel_trivial
    report = adjusted_c1_zero_budget(Fraction(0))
    assert not report.kernel_trivial and report.zero_free_kernel
    assert adjusted_c1_zero_budget(Fraction(2)).budget == 2


# -- validation -------------------------------------------------------------


def test_curve_data_validation():
    surface = PuncturedSurface(0, 0, ())
    cons = no_constraints()
    with pytest.raises(ValidationError):
        CurveData(surface=surface, orbit_at={},
                  c1_rel=0, constraints=cons, z_du=Fraction(1, 2), homology_tag="x")
    with pytest.raises(ValidationError):
        CurveData(surface=surface, orbit_at={},
                  c1_rel=0, constraints=cons, maslov_boundary=1, homology_tag="x")
    with pytest.raises(ValidationError):
        CurveData(surface=surface, orbit_at={"q": None},
                  c1_rel=0, constraints=cons, homology_tag="x")
    # A constraint set is checked against the surface of its curve.
    with pytest.raises(ValidationError, match="not on the surface"):
        CurveData(surface=surface, orbit_at={}, c1_rel=0,
                  constraints=ConstraintSet(frozenset({"q"}), D), homology_tag="x")
    with pytest.raises(ValidationError):
        ConstraintSet(constrained=frozenset(), delta=Fraction(0))
