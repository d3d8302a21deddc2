import math
from fractions import Fraction

import pytest

from pcurves.classify import (
    CONTRADICTION,
    NICELY_EMBEDDED,
    UNBRANCHED_COVER_OF_INDEX_ZERO,
    degeneration_screen,
    is_bad_puncture,
    is_stable_nicely_embedded,
    kernel_section_cover_obstruction,
    unique_even_analysis,
)
from pcurves.covers import CoverScenario
from pcurves.curves import ConstraintSet, CurveData, fredholm_index, normal_chern
from pcurves.errors import ConsistencyError
from pcurves.orbits import (
    DeclaredWindings,
    MorseBott,
    Nondegenerate,
    OrbitClass,
    cover_orbit,
    linked,
    scalar_orbit,
)
from pcurves.surfaces import BranchedCover, PuncturedSurface

D = Fraction(1, 8)
TWO_PI = 2 * math.pi


def foliation_fixture():
    """The bundled example: embedded 3-punctured base and its double cover."""
    names = ["gz", "gi", "go", "gp", "gm"]
    simples = dict(zip(names, linked(
        scalar_orbit(
            name, TWO_PI,
            distinct_from=tuple(m for m in names if m != name),
            family_id={"gz": "end0", "gi": "endinf"}.get(name, "end1"),
            kind=MorseBott(manifold_dim=3, isotropy=1),
        )
        for name in names
    )))
    gz2 = cover_orbit(simples["gz"], 2)
    gi2 = cover_orbit(simples["gi"], 2)

    cod = PuncturedSurface(0, 0, (("v0", "-"), ("v1", "-"), ("vinf", "-")))
    v = CurveData(
        surface=cod,
        orbit_at={"v0": simples["gz"], "v1": simples["go"], "vinf": simples["gi"]},
        c1_rel=3, constraints=ConstraintSet(constrained=frozenset({"v0", "vinf"}), delta=D),
        homology_tag="v",
    )

    dom = PuncturedSurface(
        0, 0, (("q0", "-"), ("q1", "-"), ("qm1", "-"), ("qinf", "-"))
    )
    u_zeta = CurveData(
        surface=dom,
        orbit_at={"q0": gz2, "q1": simples["gp"], "qm1": simples["gm"], "qinf": gi2},
        c1_rel=6, constraints=ConstraintSet(constrained=frozenset({"q0", "qinf"}), delta=D),
        homology_tag="u_zeta",
    )

    cover = BranchedCover(
        domain=dom, codomain=cod, degree=2,
        fiber_map={
            "q0": ("v0", 2), "q1": ("v1", 1), "qm1": ("v1", 1), "qinf": ("vinf", 2),
        },
        interior_branch_count=0,
    )
    scen = CoverScenario(cover=cover, base_curve=v)
    return v, u_zeta, scen


def test_nice_embedded_base_curve():
    v, *_ = foliation_fixture()
    report = is_stable_nicely_embedded(v, self_intersection=-1)
    assert report.is_nice
    assert report.index == 0
    assert report.c_n_value == -1
    assert report.sing == 0


def test_nice_embedded_index_two():
    _, u, _ = foliation_fixture()
    report = is_stable_nicely_embedded(u, self_intersection=0)
    assert report.is_nice
    assert report.index == 2
    assert report.c_n_value == 0
    assert report.cov_infinity == 0 and report.cov_morse_bott == 0


def test_not_nice_positive_self_intersection():
    v, *_ = foliation_fixture()
    report = is_stable_nicely_embedded(v, self_intersection=2)
    assert not report.is_nice
    assert any("self-intersection" in msg for msg in report.failed_conditions)


def test_screen_foliation_cover():
    *_, scen = foliation_fixture()
    verdict = degeneration_screen(scen)
    assert verdict.outcome == UNBRANCHED_COVER_OF_INDEX_ZERO
    assert verdict.index_base == 0
    assert verdict.c_n_base == -1
    assert verdict.index_cover == 2


def test_screen_degree_one():
    v, *_ = foliation_fixture()
    cover = BranchedCover(
        domain=v.surface, codomain=v.surface, degree=1,
        fiber_map={z: (z, 1) for z in v.surface.puncture_ids},
        interior_branch_count=0,
    )
    scen = CoverScenario(cover=cover, base_curve=v)
    assert degeneration_screen(scen).outcome == NICELY_EMBEDDED


def make_index1_base():
    """Base curve with c_N = 0 for the screen's step-1 contradiction:
    one even orbit makes 2 c_N = ind - 2 + 1 with ind = 1.  The even orbit
    has a declared double cover."""
    even = OrbitClass(
        id="ev", simple_id="ev", cover=1,
        winding=DeclaredWindings((1, 1), (1, 1)), kind=Nondegenerate(),
        distinct_from=frozenset({"od1", "od2"}),
    )
    ev2 = OrbitClass(
        id="ev2", simple_id="ev", cover=2,
        winding=DeclaredWindings((2, 2), (2, 2)), kind=Nondegenerate(),
        distinct_from=frozenset({"od1", "od2"}),
    )
    even, _ = linked([even, ev2])
    odd1 = OrbitClass(
        id="od1", simple_id="od1", cover=1,
        winding=DeclaredWindings((1, 2), (1, 2)), kind=Nondegenerate(),
        distinct_from=frozenset({"ev", "od2"}),
    )
    odd2 = OrbitClass(
        id="od2", simple_id="od2", cover=1,
        winding=DeclaredWindings((0, 1), (0, 1)), kind=Nondegenerate(),
        distinct_from=frozenset({"ev", "od1"}),
    )
    surface = PuncturedSurface(0, 0, (("a", "+"), ("b", "+"), ("c", "-")))
    # chi = -1; CZ sums: mu(a) + mu(b) - mu(c) = 2 + 3 - 1 = 4, so
    # ind = 1 + 2 c1 + 4 = 1 exactly when c1 = -2.
    return CurveData(
        surface=surface,
        orbit_at={"a": even, "b": odd1, "c": odd2},
        c1_rel=-2, constraints=ConstraintSet(constrained=frozenset({"a", "b", "c"}), delta=D),
        homology_tag="w",
    )


def test_screen_cn_zero_contradiction():
    curve = make_index1_base()
    assert normal_chern(curve) == 0
    assert fredholm_index(curve) == 1
    dom = PuncturedSurface(
        0, 0, (("a0", "+"), ("b0", "+"), ("b1", "+"), ("c0", "-"), ("c1", "-")),
    )
    # Degree 2, branched over 'a' only, where the base declares the cover orbit.
    cover = BranchedCover(
        domain=dom, codomain=curve.surface, degree=2,
        fiber_map={
            "a0": ("a", 2), "b0": ("b", 1), "b1": ("b", 1),
            "c0": ("c", 1), "c1": ("c", 1),
        },
        interior_branch_count=1,
    )
    scen = CoverScenario(cover=cover, base_curve=curve)
    verdict = degeneration_screen(scen)
    assert verdict.outcome == CONTRADICTION
    assert "2*deg - 2" in verdict.witness


def test_screen_index_minus_one_contradiction():
    # c_N = -1 with one even puncture forces ind = -1; allowed only along a
    # generic homotopy, where the step-2 ledger rules it out.
    even = OrbitClass(
        id="ев", simple_id="ев", cover=1,
        winding=DeclaredWindings((0, 0), (0, 0)), kind=Nondegenerate(),
        distinct_from=frozenset({"odx"}),
    )
    odd = OrbitClass(
        id="odx", simple_id="odx", cover=1,
        winding=DeclaredWindings((1, 2), (1, 2)), kind=Nondegenerate(),
        distinct_from=frozenset({"ев"}),
    )
    ev2 = OrbitClass(
        id="ев2", simple_id="ев", cover=2,
        winding=DeclaredWindings((0, 0), (0, 0)), kind=Nondegenerate(),
        distinct_from=frozenset({"odx"}),
    )
    even, _, odd = linked([even, ev2, odd])
    surface = PuncturedSurface(0, 0, (("a", "-"), ("b", "+")))
    # chi = 0; mu(b) - mu(a) = 3 - 0, so ind = 2 c1 + 3 = -1 at c1 = -2.
    curve = CurveData(
        surface=surface, orbit_at={"a": even, "b": odd},
        c1_rel=-2, constraints=ConstraintSet(constrained=frozenset({"a", "b"}), delta=D),
        homology_tag="m",
    )
    assert fredholm_index(curve) == -1
    dom = PuncturedSurface(0, 0, (("a0", "-"), ("b0", "+"), ("b1", "+")))
    cover = BranchedCover(
        domain=dom, codomain=surface, degree=2,
        fiber_map={"a0": ("a", 2), "b0": ("b", 1), "b1": ("b", 1)},
        interior_branch_count=1,
    )
    scen = CoverScenario(cover=cover, base_curve=curve)
    verdict = degeneration_screen(scen, j_mode="homotopy")
    assert verdict.outcome == CONTRADICTION
    assert "deg - 1" in verdict.witness
    fixed = degeneration_screen(scen, j_mode="fixed")
    assert fixed.outcome == CONTRADICTION
    assert "fixed generic" in fixed.witness


def test_screen_branched_cover_contradiction():
    # Same foliation base but a branched candidate: step 5's dimension
    # comparison rules it out.
    v, *_ = foliation_fixture()
    dom = PuncturedSurface(
        0, 0, (("q0", "-"), ("q1", "-"), ("qm1", "-"), ("qi0", "-"), ("qi1", "-")),
    )
    cover = BranchedCover(
        domain=dom, codomain=v.surface, degree=2,
        fiber_map={
            "q0": ("v0", 2), "q1": ("v1", 1), "qm1": ("v1", 1),
            "qi0": ("vinf", 1), "qi1": ("vinf", 1),
        },
        interior_branch_count=1,
    )
    scen = CoverScenario(cover=cover, base_curve=v)
    verdict = degeneration_screen(scen)
    assert verdict.outcome == CONTRADICTION
    assert "branched" in verdict.witness


def test_obstruction_foliation():
    *_, scen = foliation_fixture()
    report = kernel_section_cover_obstruction(scen)
    assert report.fires
    assert all("q = 1" in row[2] for row in report.rows)


def test_obstruction_negative_case():
    # Hypothetical cover where the winding chain goes through: the branched
    # end sits at an exceptional Morse-Bott double cover whose covering
    # defect vanishes, divisibility holds, and the unconstrained forced
    # contribution (generic cover 1) is trivial, so the obstruction reports
    # False.
    sigma = OrbitClass(
        id="sig", simple_id="sig", cover=1,
        winding=DeclaredWindings((0, 1), (0, 1)), kind=Nondegenerate(),
        distinct_from=frozenset({"tau"}),
    )
    # sigma^2 lies in a 2-dim family with isotropy 2; kernel winding 2 with
    # the partner above: alpha(+delta) = (2, 2), alpha(-delta) = (2, 3).
    sigma2 = OrbitClass(
        id="sig2", simple_id="sig", cover=2,
        winding=DeclaredWindings(minus_delta=(2, 3), plus_delta=(2, 2)),
        kind=MorseBott(manifold_dim=2, isotropy=2),
        generic_alpha=(2, 2),
        distinct_from=frozenset({"tau"}),
    )
    tau = OrbitClass(
        id="tau", simple_id="tau", cover=1,
        winding=DeclaredWindings((0, 1), (0, 1)), kind=Nondegenerate(),
        distinct_from=frozenset({"sig"}),
    )
    sigma, sigma2, tau = linked([sigma, sigma2, tau])
    cod = PuncturedSurface(0, 0, (("a", "-"), ("b", "-")))
    base = CurveData(
        surface=cod, orbit_at={"a": sigma, "b": tau},
        c1_rel=1, constraints=ConstraintSet(constrained=frozenset(), delta=D),
        homology_tag="base",
    )
    dom = PuncturedSurface(0, 0, (("a0", "-"), ("b0", "-"), ("b1", "-")))
    cover = BranchedCover(
        domain=dom, codomain=cod, degree=2,
        fiber_map={"a0": ("a", 2), "b0": ("b", 1), "b1": ("b", 1)},
        interior_branch_count=1,
    )
    scen = CoverScenario(cover=cover, base_curve=base)
    report = kernel_section_cover_obstruction(scen)
    assert not report.fires
    assert report.forced_total == 0
    assert "divisibility holds" in report.rows[0][2]


def test_bad_puncture_cases():
    odd = OrbitClass(
        id="g", simple_id="g", cover=1,
        winding=DeclaredWindings((1, 2), (1, 2)), kind=Nondegenerate(),
    )
    double = OrbitClass(
        id="g2", simple_id="g", cover=2,
        winding=DeclaredWindings((3, 3), (3, 3)), kind=Nondegenerate(),
    )
    assert not is_bad_puncture(double, 0)  # no simple orbit to read
    odd, double = linked([odd, double])
    assert is_bad_puncture(double, 0)
    assert not is_bad_puncture(double, 1)  # odd parity
    assert not is_bad_puncture(odd, 0)  # simply covered
    even_simple = OrbitClass(
        id="h", simple_id="h", cover=1,
        winding=DeclaredWindings((1, 1), (1, 1)), kind=Nondegenerate(),
    )
    double_even = OrbitClass(
        id="h2", simple_id="h", cover=2,
        winding=DeclaredWindings((2, 2), (2, 2)), kind=Nondegenerate(),
    )
    even_simple, double_even = linked([even_simple, double_even])
    assert not is_bad_puncture(double_even, 0)  # simple orbit even


def index_one_curve(even_orbit, constrained_even=True):
    """Nicely embedded index-1 shape: one even + one odd puncture.

    chi = 0 and mu(odd) = 1, so c1 is chosen to land the index at 1:
    ind = 2 c1 + mu(even) - 1.
    """
    from pcurves.orbits import Perturbation, conley_zehnder

    odd = OrbitClass(
        id="odd", simple_id="odd", cover=1,
        winding=DeclaredWindings((0, 1), (0, 1)), kind=Nondegenerate(),
        distinct_from=frozenset({even_orbit.simple_id}),
    )
    mu_even = conley_zehnder(even_orbit, Perturbation(D if constrained_even else -D))
    assert mu_even % 2 == 0
    surface = PuncturedSurface(0, 0, (("e", "+"), ("o", "-")))
    constrained = {"o"}
    if constrained_even:
        constrained.add("e")
    return CurveData(
        surface=surface,
        orbit_at={"e": even_orbit, "o": odd},
        c1_rel=(2 - mu_even) // 2,
        constraints=ConstraintSet(constrained=frozenset(constrained), delta=D),
        homology_tag="ix1",
    )


def test_unique_even_simple_nondegenerate():
    even = OrbitClass(
        id="ev", simple_id="ev", cover=1,
        winding=DeclaredWindings((0, 0), (0, 0)), kind=Nondegenerate(),
        distinct_from=frozenset({"odd"}),
    )
    curve = index_one_curve(even)
    assert fredholm_index(curve) == 1
    report = unique_even_analysis(curve, self_intersection=0)
    assert report.case == "nondegenerate_even"
    assert report.cover == 1
    assert not report.bad


def test_unique_even_bad_double_cover():
    odd_simple = OrbitClass(
        id="sg", simple_id="sg", cover=1,
        winding=DeclaredWindings((0, 1), (0, 1)), kind=Nondegenerate(),
        distinct_from=frozenset({"odd"}),
    )
    double = OrbitClass(
        id="sg2", simple_id="sg", cover=2,
        winding=DeclaredWindings((1, 1), (1, 1)), kind=Nondegenerate(),
        distinct_from=frozenset({"odd"}),
    )
    odd_simple, double = linked([odd_simple, double])
    curve = index_one_curve(double)
    report = unique_even_analysis(curve, 0)
    assert report.cover == 2
    assert report.bad
    assert is_bad_puncture(double, 0)


def test_unique_even_triple_cover_rejected():
    odd_simple = OrbitClass(
        id="tg", simple_id="tg", cover=1,
        winding=DeclaredWindings((0, 1), (0, 1)), kind=Nondegenerate(),
        distinct_from=frozenset({"odd"}),
    )
    triple = OrbitClass(
        id="tg3", simple_id="tg", cover=3,
        winding=DeclaredWindings((2, 2), (2, 2)), kind=Nondegenerate(),
        distinct_from=frozenset({"odd"}),
    )
    odd_simple, triple = linked([odd_simple, triple])
    curve = index_one_curve(triple)
    with pytest.raises(ConsistencyError):
        unique_even_analysis(curve, 0)


def test_unique_even_morse_bott_constraint_link():
    # 2-dim family with the even side at the constrained perturbation:
    # positive puncture uses nu_-; constrained and nu_- = 0 must agree.
    mb_even = OrbitClass(
        id="mb", simple_id="mb", cover=1,
        winding=DeclaredWindings(minus_delta=(0, 1), plus_delta=(0, 0)),
        kind=MorseBott(manifold_dim=2),
        distinct_from=frozenset({"odd"}),
    )
    curve = index_one_curve(mb_even, constrained_even=True)
    report = unique_even_analysis(curve, 0)
    assert report.case == "morse_bott_2dim"
    assert report.nu_matches_constraint
    # At the unconstrained perturbation the same orbit reads odd, so the
    # puncture could not supply the even slot of an index-1 curve.
    from pcurves.orbits import Perturbation, alpha_pm
    assert alpha_pm(mb_even, Perturbation(-D))[2] == 1
