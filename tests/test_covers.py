import math
from fractions import Fraction

import numpy as np
import pytest

from pcurves.covers import (
    CoverScenario,
    composed_curve,
    constraint_leq,
    cn_cover,
    enumerate_cover_candidates,
    i_cover_bound,
    pullback_constraints,
)
from pcurves.curves import ConstraintSet, CurveData, normal_chern
from pcurves.errors import ValidationError
from pcurves.intersections import PairingInput, intersection_number
from pcurves.orbits import cover_orbit, scalar_orbit
from pcurves.records import replace
from pcurves.surfaces import BranchedCover, PuncturedSurface

D = Fraction(1, 8)


def scalar(oid, theta_over_pi, **kw):
    return scalar_orbit(oid, float(Fraction(theta_over_pi)) * math.pi, **kw)


def base_three_punctured(thetas=(Fraction(1), Fraction(1, 3), Fraction(5, 3)),
                         constrained=("a",), c1=2):
    """Somewhere injective scalar-model curve on the 3-punctured sphere."""
    names = ["a", "b", "c"]
    orbits = {}
    for name, theta in zip(names, thetas):
        orbits[name] = scalar(
            f"orb_{name}", theta,
            distinct_from=tuple(f"orb_{m}" for m in names if m != name),
        )
    surface = PuncturedSurface(0, 0, tuple((n, "-") for n in names))
    return CurveData(
        surface=surface, orbit_at=orbits, c1_rel=c1,
        constraints=ConstraintSet(constrained=frozenset(constrained), delta=D),
        homology_tag="base",
    )


def triple_cover_scenario():
    """Degree 3, fully branched over 'a', unbranched elsewhere."""
    base = base_three_punctured()
    dom_punctures = [("A", "-")] + [(f"{z}{i}", "-") for z in "bc" for i in range(3)]
    dom = PuncturedSurface(0, 0, tuple(dom_punctures))
    fiber = {"A": ("a", 3)}
    for z in "bc":
        for i in range(3):
            fiber[f"{z}{i}"] = (z, 1)
    cover = BranchedCover(
        domain=dom, codomain=base.surface, degree=3, fiber_map=fiber,
        interior_branch_count=-(2 - len(dom_punctures)) + 3 * (2 - 3),
    )
    return CoverScenario(cover=cover, base_curve=base)


def test_pullback_identity_cover():
    base = base_three_punctured()
    cons = base.constraints
    cover = BranchedCover(
        domain=base.surface, codomain=base.surface, degree=1,
        fiber_map={z: (z, 1) for z in base.surface.puncture_ids},
        interior_branch_count=0,
    )
    pulled = pullback_constraints(cover, cons)
    assert pulled.constrained == cons.constrained


def test_pullback_all_constrained():
    cons = ConstraintSet(constrained=frozenset("abc"), delta=D)
    scen = triple_cover_scenario()
    pulled = pullback_constraints(scen.cover, cons)
    assert pulled.constrained == frozenset(scen.cover.domain.puncture_ids)


def test_pullback_partial():
    scen = triple_cover_scenario()
    pulled = pullback_constraints(scen.cover, scen.base_curve.constraints)
    assert pulled.constrained == frozenset({"A"})
    assert scen.composed.constraints == pulled


def test_declared_domain_constraints_are_checked_at_construction():
    # A declared set must lie under the pullback, and so on the domain; the
    # limit curve carries it, the composed curve the pullback.
    scen = triple_cover_scenario()
    for total in ({"b0"}, {"nowhere"}):
        with pytest.raises(ValidationError):
            CoverScenario(
                cover=scen.cover, base_curve=scen.base_curve,
                total_constraints=ConstraintSet(frozenset(total), D),
            )
    weaker = CoverScenario(
        cover=scen.cover, base_curve=scen.base_curve,
        total_constraints=ConstraintSet(frozenset(), D),
    )
    assert weaker.composed.constraints.constrained == frozenset({"A"})
    assert weaker.limit.constraints.constrained == frozenset()
    assert weaker.limit.orbit_at == weaker.composed.orbit_at


def test_cn_cover_unbranched():
    # All orders 1, no interior branching: c_N scales by the degree, Q = 0.
    base = base_three_punctured()
    dom_punctures = tuple((f"{z}{i}", "-") for z in "abc" for i in range(2))
    dom = PuncturedSurface(0, 0, dom_punctures)
    fiber = {f"{z}{i}": (z, 1) for z in "abc" for i in range(2)}
    cover = BranchedCover(
        domain=dom, codomain=base.surface, degree=2, fiber_map=fiber,
        interior_branch_count=-(2 - 6) + 2 * (2 - 3),
    )
    scen = CoverScenario(cover=cover, base_curve=base)
    value, q = cn_cover(scen)
    assert q == 0
    # Z(d cover) = 2 here (two interior branch points), so the covering
    # formula reads 2 c_N + 2.
    assert value == 2 * normal_chern(base) + 2


def test_cn_cover_branched_scalar_example():
    # theta = pi at a k = 3 puncture contributes q = 1.
    scen = triple_cover_scenario()
    value, q = cn_cover(scen)
    z_phi = -(2 - 7) + 3 * (2 - 3)
    assert q == 1
    assert value == 3 * normal_chern(scen.base_curve) + z_phi + 1


def test_cn_cover_randomized_against_direct():
    rng = np.random.default_rng(31)
    thetas = [Fraction(1, 7), Fraction(3, 7), Fraction(5, 3), Fraction(11, 9)]
    for case in range(25):
        names = ["a", "b"]
        base_orbits = {}
        for name in names:
            theta = thetas[int(rng.integers(0, len(thetas)))]
            base_orbits[name] = scalar(
                f"c{case}_{name}", theta,
                distinct_from=tuple(f"c{case}_{m}" for m in names if m != name),
            )
        surface = PuncturedSurface(0, 0, (("a", "-"), ("b", "+")))
        c1 = int(rng.integers(-3, 4))
        cons = ConstraintSet(
            constrained=frozenset(n for n in names if rng.random() < 0.5), delta=D
        )
        base = CurveData(
            surface=surface, orbit_at=base_orbits,
            c1_rel=c1, constraints=cons, homology_tag=f"b{case}",
        )
        k_a, k_b = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        dom_punctures, fiber = [], {}
        degree = max(k_a, k_b) + int(rng.integers(0, 2))
        for name, k_z, sign in (("a", k_a, "-"), ("b", k_b, "+")):
            fiber[f"{name}0"] = (name, k_z)
            dom_punctures.append((f"{name}0", sign))
            rest = degree - k_z
            i = 1
            while rest:
                step = int(rng.integers(1, rest + 1))
                fiber[f"{name}{i}"] = (name, step)
                dom_punctures.append((f"{name}{i}", sign))
                rest -= step
                i += 1
        interior = -(2 - len(dom_punctures)) + degree * (2 - 2)
        if interior < 0:
            continue
        cover = BranchedCover(
            domain=PuncturedSurface(0, 0, tuple(dom_punctures)),
            codomain=surface, degree=degree, fiber_map=fiber,
            interior_branch_count=interior,
        )
        scen = CoverScenario(cover=cover, base_curve=base)
        value, q = cn_cover(scen)  # internally cross-checked against direct
        assert q >= 0
        direct = normal_chern(composed_curve(scen))
        assert value == direct


def test_i_cover_bound_identity_cover():
    base = base_three_punctured()
    cover = BranchedCover(
        domain=base.surface, codomain=base.surface, degree=1,
        fiber_map={z: (z, 1) for z in base.surface.puncture_ids},
        interior_branch_count=0,
    )
    scen = CoverScenario(cover=cover, base_curve=base)
    report = i_cover_bound(scen, base, base_pairing=5)
    assert report.slack == 0
    assert report.lhs == report.rhs


def test_i_cover_bound_distinct_ends():
    # Other curve with entirely distinct orbits: all Omega terms vanish and
    # the bound is an equality deg * relative pairing.
    other_orbit = scalar(
        "other", Fraction(1, 5),
        distinct_from=("orb_a", "orb_b", "orb_c"),
    )
    other_surface = PuncturedSurface(0, 0, (("w", "-"),))
    other = CurveData(
        surface=other_surface, orbit_at={"w": other_orbit},
        c1_rel=0, constraints=ConstraintSet(constrained=frozenset(), delta=D),
        homology_tag="other",
    )
    scen = triple_cover_scenario()
    report = i_cover_bound(scen, other, base_pairing=4)
    assert report.lhs == 3 * 4
    assert report.rhs == 3 * 4
    assert report.slack == 0


def test_i_cover_bound_branched_shared_orbit():
    # Pair the branched cover against its own base curve: the slack is the
    # q-tilde total, recomputed independently inside the report.
    scen = triple_cover_scenario()
    report = i_cover_bound(scen, scen.base_curve, base_pairing=6)
    assert report.lhs - report.rhs == report.slack
    assert report.slack >= 0


def test_constraint_partial_order():
    empty = base_three_punctured(constrained=())
    partial = base_three_punctured(constrained=("a",))
    full = base_three_punctured(constrained=("a", "b", "c"))
    # Reflexive.
    for c in (empty, partial, full):
        assert constraint_leq(c, c)
    # Empty below everything.
    assert constraint_leq(empty, partial)
    assert constraint_leq(empty, full)
    # Antisymmetry and transitivity on this chain.
    assert constraint_leq(partial, full)
    assert not constraint_leq(full, partial)
    incomparable = base_three_punctured(constrained=("b",))
    assert not constraint_leq(partial, incomparable)
    assert not constraint_leq(incomparable, partial)
    # Curves on two surfaces have no one puncture set to compare over.
    one_end = curve_on(
        PuncturedSurface(0, 0, (("a", "-"),)), {"a": partial.orbit("a")},
        ConstraintSet(constrained=frozenset({"a"}), delta=D),
    )
    with pytest.raises(ValidationError):
        constraint_leq(one_end, full)


def test_monotonicity_under_weaker_constraints():
    # c- <= c+ gives c_N(u; c-) >= c_N(u; c+) and larger pairings.
    rng = np.random.default_rng(41)
    thetas = [Fraction(1, 7), Fraction(5, 3), Fraction(11, 9), Fraction(2, 1)]
    for case in range(60):
        names = ["a", "b", "c"]
        orbits = {}
        for name in names:
            theta = thetas[int(rng.integers(0, len(thetas)))]
            orbits[name] = scalar(
                f"m{case}{name}", theta,
                distinct_from=tuple(f"m{case}{x}" for x in names if x != name),
            )
        signs = {n: ("+" if rng.random() < 0.5 else "-") for n in names}
        surface = PuncturedSurface(0, 0, tuple((n, signs[n]) for n in names))
        c1 = int(rng.integers(-3, 4))
        stronger_set = frozenset(n for n in names if rng.random() < 0.6)
        weaker_set = frozenset(n for n in stronger_set if rng.random() < 0.5)
        stronger = CurveData(
            surface=surface, orbit_at=orbits, c1_rel=c1,
            constraints=ConstraintSet(constrained=stronger_set, delta=D),
            homology_tag=f"m{case}",
        )
        weaker = replace(stronger, constraints=ConstraintSet(constrained=weaker_set, delta=D))
        assert constraint_leq(weaker, stronger)
        assert normal_chern(weaker) >= normal_chern(stronger)
        pw = PairingInput(left=weaker, right=weaker, relative_pairing=4)
        ps = PairingInput(left=stronger, right=stronger, relative_pairing=4)
        assert intersection_number(pw) >= intersection_number(ps)


# -- enumeration -------------------------------------------------------------


def curve_on(surface, orbits, cons):
    """A curve with these orbits and constraints; enumeration reads no more."""
    return CurveData(
        surface=surface, orbit_at=orbits, c1_rel=0, constraints=cons,
        homology_tag="enum",
    )


def test_enumerate_simple_orbits_only_degree_one():
    cands = enumerate_cover_candidates(base_three_punctured())
    assert len(cands) == 1
    assert cands[0].degree == 1
    assert all(k == 1 for _, members, _, _ in cands[0].fibers for _, k in members)


def test_enumerate_double_cover_orbit_allows_k2():
    g = scalar("g", Fraction(1, 3))
    g2 = cover_orbit(g, 2)
    other = scalar("o", Fraction(1, 5), distinct_from=(g.simple_id,))
    surface = PuncturedSurface(0, 0, (("x", "-"), ("y1", "-"), ("y2", "-")))
    orbits = {"x": g2, "y1": other, "y2": other}
    cons = ConstraintSet(constrained=frozenset({"x"}), delta=D)
    cands = enumerate_cover_candidates(curve_on(surface, orbits, cons))
    orders_at_x = sorted(
        {
            k
            for cand in cands
            for _, members, _, _ in cand.fibers
            for z, k in members
            if z == "x"
        }
    )
    assert orders_at_x == [1, 2]


def test_enumerate_reproduces_foliation_cover():
    # 4-punctured sphere with two doubly covered constrained ends and two
    # simple unconstrained ends at one orbit: exactly the identity and the
    # degree-2 candidate with a 3-punctured codomain.
    gz = scalar("gz", Fraction(2), distinct_from=("gi", "go"))
    gi = scalar("gi", Fraction(2), distinct_from=("gz", "go"))
    go = scalar("go", Fraction(2), distinct_from=("gz", "gi"), family_id="end1")
    orbits = {
        "q0": cover_orbit(gz, 2),
        "qinf": cover_orbit(gi, 2),
        "q1": go,
        "qm1": go,
    }
    surface = PuncturedSurface(
        0, 0, (("q0", "-"), ("q1", "-"), ("qm1", "-"), ("qinf", "-"))
    )
    cons = ConstraintSet(constrained=frozenset({"q0", "qinf"}), delta=D)
    cands = enumerate_cover_candidates(curve_on(surface, orbits, cons))
    degrees = sorted(c.degree for c in cands)
    assert degrees == [1, 2]
    two = [c for c in cands if c.degree == 2][0]
    assert two.codomain_genus == 0
    assert two.interior_branch_count == 0
    assert len(two.fibers) == 3


def test_enumerate_all_satisfy_pullback_domination():
    gz = scalar("gz", Fraction(2), distinct_from=("go",))
    go = scalar("go", Fraction(1, 3), distinct_from=("gz",))
    orbits = {"x": cover_orbit(gz, 2), "y": go}
    surface = PuncturedSurface(0, 0, (("x", "-"), ("y", "-")))
    cons = ConstraintSet(constrained=frozenset({"x"}), delta=D)
    for cand in enumerate_cover_candidates(curve_on(surface, orbits, cons)):
        # Every constrained domain puncture lies in a constrained fiber.
        for sign, members, constrained, root in cand.fibers:
            if any(z in cons.constrained for z, _ in members):
                assert constrained
