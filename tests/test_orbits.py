import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import loop_orbit, random_symmetric_loop, safe_epsilon
from oracles import (
    ScalarOracle,
    extremal_residue_class,
    omega_oracle,
    sequential_flow,
    tiled_operator,
)
from pcurves.errors import (
    DegeneracyError,
    MissingDataError,
    SpectralError,
    ValidationError,
)
from pcurves.orbits import (
    CROSSING_FLOW,
    FLOW_TRACE_TOL,
    WINDING,
    DeclaredWindings,
    MorseBott,
    Nondegenerate,
    OperatorWinding,
    OrbitClass,
    Perturbation,
    alpha_pm,
    alpha_strict,
    conley_zehnder,
    cov_extremal,
    cover_orbit,
    delta_mb,
    kernel_dim,
    nu_pm,
    omega_pair,
    omega_pair_strict,
    omega_self,
    q_of_cover,
    q_tilde,
    scalar_orbit,
)
from pcurves.orbits import _crossing_flow, _crossing_flow_cz
from pcurves.spectral import AsymptoticOperator, discretized_spectrum

D = Fraction(1, 8)


def scalar(orbit_id, theta_over_pi, cover=1):
    theta = float(Fraction(theta_over_pi)) * math.pi
    return scalar_orbit(orbit_id, theta, cover=cover)


def eps_pi(e):
    """Perturbation worth e * pi."""
    return Perturbation(Fraction(e) * Fraction(math.pi))


# -- extremal windings ------------------------------------------------------


def test_alpha_scalar_basic():
    g = scalar("g", Fraction(1, 1))
    assert alpha_pm(g, Perturbation(0)) == (0, 1, 1)
    g2 = scalar("g2", Fraction(5, 2))
    assert alpha_pm(g2, Perturbation(0)) == (1, 2, 1)


def test_alpha_matches_exact_oracle_on_scalar_grid():
    thetas = [Fraction(1, 7), Fraction(3, 7), Fraction(12, 7), Fraction(5, 3),
              Fraction(-4, 9), Fraction(9, 5)]
    eps_values = [Fraction(0), Fraction(1, 16), Fraction(-1, 16)]
    for theta in thetas:
        for k in (1, 2, 3, 5):
            oracle = ScalarOracle(theta).cover(k)
            orbit = scalar(f"s{theta}k{k}", theta, cover=k)
            for e in eps_values:
                if oracle.degenerate(e):
                    continue
                am, ap, p = alpha_pm(orbit, eps_pi(e))
                assert am == oracle.alpha_minus(e)
                assert ap == oracle.alpha_plus(e)
                assert p == oracle.parity(e)


def test_alpha_declared_nondegenerate():
    orbit = OrbitClass(
        id="d", simple_id="d", cover=1,
        winding=DeclaredWindings((2, 2), (2, 2)),
        kind=Nondegenerate(),
    )
    assert alpha_pm(orbit, Perturbation(0)) == (2, 2, 0)
    # Small perturbations of either sign leave the result unchanged.
    assert alpha_pm(orbit, Perturbation(D)) == alpha_pm(orbit, Perturbation(-D))


def test_alpha_degenerate_errors():
    h = scalar("h", Fraction(2))  # kernel at winding 1
    with pytest.raises(DegeneracyError) as err:
        alpha_pm(h, Perturbation(0))
    assert err.value.kernel_winding == 1
    mb = OrbitClass(
        id="m", simple_id="m", cover=1,
        winding=DeclaredWindings(minus_delta=(1, 2), plus_delta=(0, 1)),
        kind=MorseBott(manifold_dim=3),
    )
    with pytest.raises(DegeneracyError):
        alpha_pm(mb, Perturbation(0))
    assert alpha_pm(mb, Perturbation(-D)) == (1, 2, 1)
    assert alpha_pm(mb, Perturbation(D)) == (0, 1, 1)


def test_declared_parity_validation():
    with pytest.raises(ValidationError):
        DeclaredWindings((0, 2), (0, 2))
    with pytest.raises(ValidationError):
        DeclaredWindings(minus_delta=(1, 2), plus_delta=(0, 0))  # nu_+ = 2


# -- Conley-Zehnder index ---------------------------------------------------


def test_cz_scalar_examples():
    assert conley_zehnder(scalar("a", Fraction(1)), Perturbation(0)) == 1
    assert conley_zehnder(scalar("b", Fraction(5, 2)), Perturbation(0)) == 3
    assert conley_zehnder(scalar("c", Fraction(-1, 2)), Perturbation(0)) == -1


def test_cz_both_methods_scalar():
    for theta in (Fraction(1), Fraction(5, 2), Fraction(-1, 2), Fraction(7, 2)):
        orbit = scalar(f"t{theta}", theta)
        w = conley_zehnder(orbit, Perturbation(0), WINDING)
        f = conley_zehnder(orbit, Perturbation(0), CROSSING_FLOW)
        assert w == f == ScalarOracle(theta).conley_zehnder()


def test_cz_two_methods_random_sample():
    rng = np.random.default_rng(1234)
    for _ in range(10):
        op = random_symmetric_loop(rng)
        orbit = loop_orbit("r", op)
        spec = discretized_spectrum(op, 64)
        eps = safe_epsilon(spec)
        pert = Perturbation(Fraction(eps).limit_denominator(10**9))
        assert conley_zehnder(orbit, pert, WINDING) == conley_zehnder(
            orbit, pert, CROSSING_FLOW
        )


def test_spectral_flow_across_kernel():
    # Two-dimensional kernel (three-dimensional orbit family).
    h = scalar("h", Fraction(2))
    assert kernel_dim(h) == 2
    assert conley_zehnder(h, Perturbation(-D)) - conley_zehnder(h, Perturbation(D)) == 2
    # One-dimensional kernel: S = diag(0, a).
    op = AsymptoticOperator.constant(0.0, 0.0, 1.3)
    mb = loop_orbit("k1", op)
    assert kernel_dim(mb) == 1
    assert conley_zehnder(mb, Perturbation(-D)) - conley_zehnder(mb, Perturbation(D)) == 1


def test_cz_near_singular_start():
    # S(0) - eps has the eigenvalue 4.5e-4; tr Psi(1) = 7.11 makes the
    # index even.
    a0 = np.array([1.123510533280246, -1.7779772446131967, -1.5642408185544672])
    a1 = np.array([-0.23129631074964063, 1.6743644319857098, 1.1619434421802655])
    b1 = np.array([-0.7947551036572875, 0.3202631825058819, -1.068534934843464])
    t = 2 * np.pi * np.arange(64)[:, None] / 64
    op = AsymptoticOperator(tuple(map(tuple, a0 + a1 * np.cos(t) + b1 * np.sin(t))))
    orbit = loop_orbit("near", op)
    pert = Perturbation(Fraction(9, 10))
    assert conley_zehnder(orbit, pert, WINDING) == 0
    assert conley_zehnder(orbit, pert, CROSSING_FLOW) == 0


def test_crossing_flow_degenerate_endpoint():
    orbit = loop_orbit("k1", AsymptoticOperator.constant(0.0, 0.0, 1.3))
    with pytest.raises(DegeneracyError):
        conley_zehnder(orbit, Perturbation(0), CROSSING_FLOW)


def _flow_outcome(trace, turns):
    """The index read off (tr Psi(1), turns) as the package reads it, or
    "degenerate"."""
    if abs(trace - 2.0) < FLOW_TRACE_TOL:
        return "degenerate"
    return 2 * round(turns) if trace > 2.0 else 2 * math.floor(turns) + 1


def test_crossing_flow_matches_the_sequential_product():
    # The package multiplies its Magnus steps as a prefix product over S from
    # inverse FFTs; the reference multiplies them one after another over S
    # from a dense cos/sin sum.  Criterion 2's loops, then degree-4 loops at
    # scale 4, whose traces reach 4e4.
    rng = np.random.default_rng(20260810)
    ops = [random_symmetric_loop(rng) for _ in range(100)]
    rng = np.random.default_rng(4)
    ops += [random_symmetric_loop(rng, degree=4, scale=4) for _ in range(40)]
    cases = [(op, eps) for op in ops for eps in (0.0, -1.1, 2.3, 0.37)]
    # Endpoints next to tr Psi(1) = 2: epsilon 1e-4 from an eigenvalue, and
    # a kernel.
    for op in ops[:3]:
        lam = min((lam for lam, _, _ in discretized_spectrum(op, 64).eigenpairs), key=abs)
        cases += [(op, lam + 1e-4), (op, lam - 1e-4)]
    cases.append((AsymptoticOperator.constant(0.0, 0.0, 1.3), 0.0))
    near = 0
    for op, eps in cases:
        trace, turns = sequential_flow(op, eps)
        assert abs(_crossing_flow(op, eps)[0] - trace) < 1e-9, eps
        try:
            outcome = _crossing_flow_cz(op, eps)
        except DegeneracyError:
            outcome = "degenerate"
        assert outcome == _flow_outcome(trace, turns), eps
        near += abs(trace - 2.0) < 1e-3
    # The seven endpoints built next to 2 (|tr Psi(1) - 2| < 3e-4 or 0), and
    # one of criterion 2's loops at epsilon 0.37.
    assert near == 8


def test_crossing_flow_needs_operator():
    orbit = OrbitClass(
        id="d", simple_id="d", cover=1,
        winding=DeclaredWindings((0, 1), (0, 1)),
    )
    with pytest.raises(MissingDataError):
        conley_zehnder(orbit, Perturbation(0), CROSSING_FLOW)


# -- nu ---------------------------------------------------------------------


def test_nu_nondegenerate():
    assert nu_pm(scalar("n", Fraction(1, 3))) == (0, 0)


def test_nu_kernel_above_alpha():
    # S = 2 pi Id: kernel winding 1 = alpha_-(up-perturbed) + 1.
    h = scalar("h", Fraction(2))
    assert nu_pm(h) == (1, 1)


def test_nu_declared_morse_bott():
    mb = OrbitClass(
        id="m", simple_id="m", cover=1,
        winding=DeclaredWindings(minus_delta=(3, 4), plus_delta=(3, 3)),
        kind=MorseBott(manifold_dim=2),
    )
    assert nu_pm(mb) == (0, 1)


def test_nu_one_dim_kernel_operator():
    op = AsymptoticOperator.constant(0.0, 0.0, 1.3)
    assert nu_pm(loop_orbit("k1", op)) == (0, 1)


# -- covers -----------------------------------------------------------------


def test_cover_orbit_identity_and_scaling():
    g = scalar("g", Fraction(3, 7))
    assert cover_orbit(g, 1) is g
    g3 = cover_orbit(g, 3)
    assert g3.cover == 3
    oracle = ScalarOracle(Fraction(3, 7)).cover(3)
    am, ap, _ = alpha_pm(g3, Perturbation(0))
    assert (am, ap) == (oracle.alpha_minus(), oracle.alpha_plus())


def even_orbit_operator(w, a=0.4, n_samples=64):
    """Even (parity 0) orbit model with extremal windings w: the hyperbolic
    loop conjugated into a frame rotating w times, which shifts all windings
    by w while keeping the spectrum's gap structure at zero."""
    t = np.arange(n_samples) / n_samples
    theta = 2 * np.pi * w * t
    cos2, sin2 = np.cos(2 * theta), np.sin(2 * theta)
    shift = 2 * np.pi * w
    mats = np.zeros((n_samples, 2, 2))
    # R(theta) diag(a, -a) R(theta)^T = a [[cos 2theta, sin 2theta], [sin, -cos]]
    mats[:, 0, 0] = shift + a * cos2
    mats[:, 0, 1] = a * sin2
    mats[:, 1, 0] = a * sin2
    mats[:, 1, 1] = shift - a * cos2
    return AsymptoticOperator.from_matrices(mats)


def test_cover_of_even_orbit_is_even():
    for w in (0, 1, -1):
        orbit = loop_orbit(f"even{w}", even_orbit_operator(w))
        am, ap, p = alpha_pm(orbit, Perturbation(0))
        assert p == 0 and am == w
        for k in range(2, 7):
            amk, apk, pk = alpha_pm(cover_orbit(orbit, k), Perturbation(0))
            assert pk == 0
            assert amk == k * w


def test_cover_declared_requires_registry():
    base = OrbitClass(
        id="d", simple_id="d", cover=1,
        winding=DeclaredWindings((0, 1), (0, 1)),
    )
    with pytest.raises(MissingDataError):
        cover_orbit(base, 2)
    declared_cover = OrbitClass(
        id="d2", simple_id="d", cover=2,
        winding=DeclaredWindings((1, 1), (1, 1)),
    )
    registry = {"d": base, "d2": declared_cover}
    assert cover_orbit(base, 2, registry) is declared_cover


# -- cov of extremal eigenfunctions ----------------------------------------


def test_cov_extremal_simple_orbit():
    assert cov_extremal(scalar("g", Fraction(1, 3)), "-") == 1


def test_cov_extremal_divisibility():
    # theta = 3/4 pi: alpha_-(gamma^2) = floor(3/4) ... cover spectrum shift
    # 3/2 pi: alpha_- = 0, alpha_+ = 1: odd extremal winding 1 on the + side.
    g = scalar("g", Fraction(3, 4))
    g2 = cover_orbit(g, 2)
    assert alpha_strict(g2, "+") == 1
    assert cov_extremal(g2, "+") == 1  # odd winding: only 1 divides
    # theta = 9/4 pi: cover shift 9/2 pi: alpha_- = 2, even: cov = 2.
    h2 = cover_orbit(scalar("h", Fraction(9, 4)), 2)
    assert alpha_strict(h2, "-") == 2
    assert cov_extremal(h2, "-") == 2


def test_cov_extremal_is_the_gcd_of_the_cover_and_the_residue_class():
    # An eigenfunction with modes m = +-r (mod k) is e^{2 pi i r t} f(k t) up
    # to conjugation, a gcd(k, r)-fold cover; r is read off the eigenvector
    # of the tiled full matrix, not off the winding.
    rng = np.random.default_rng(17)
    bases = [loop_orbit(f"r{i}", random_symmetric_loop(rng)) for i in range(3)]
    thetas = (Fraction(3, 7), Fraction(5, 4), Fraction(9, 4), Fraction(-5, 3))
    bases += [scalar(f"s{theta}", theta) for theta in thetas]
    for base in bases:
        for k in range(2, 7):
            cover = cover_orbit(base, k)
            for side in "-+":
                r = extremal_residue_class(cover.winding.op, 64, side)
                cov = cov_extremal(cover, side, truncation=64)
                assert cov == math.gcd(k, r), (base.id, k, side)


def test_crossing_flow_on_covers():
    # The crossing flow integrates S_k from the cover's Fourier coefficients;
    # it must agree with the tiled samples' flow and with the windings.
    rng = np.random.default_rng(19)
    bases = [random_symmetric_loop(rng) for _ in range(2)]
    bases.append(AsymptoticOperator.constant(3 * math.pi / 7, 0.0, 3 * math.pi / 7))
    covers = [(i, base, k) for i, base in enumerate(bases) for k in range(2, 7)]
    # The first loop at 1024 samples: its 4- and 6-fold covers have modes up
    # to kN/2 = 2048 and 3072, which the flow folds onto k mod FLOW_STEPS.
    resampled = random_symmetric_loop(np.random.default_rng(19), n_samples=1024)
    covers += [(len(bases), resampled, k) for k in (4, 6)]
    for i, base, k in covers:
        cover = base.pulled_back(k)
        orbit = loop_orbit(f"c{i}x{k}", cover)
        tiled = loop_orbit(f"t{i}x{k}", tiled_operator(cover))
        spec = discretized_spectrum(cover, 64)
        for preferred in (0.0, 1.1, -2.3):
            eps = Fraction(safe_epsilon(spec, preferred)).limit_denominator(10**9)
            flow = conley_zehnder(orbit, Perturbation(eps), CROSSING_FLOW)
            assert flow == conley_zehnder(tiled, Perturbation(eps), CROSSING_FLOW), (i, k)
            assert flow == conley_zehnder(orbit, Perturbation(eps), WINDING), (i, k)


def test_alpha_strict_with_an_empty_side_asks_for_more_truncation():
    # S = 13 pi Id at truncation 8: the reliable window holds windings -4..4
    # with eigenvalues 2 pi w - 13 pi < 0, so nothing lies above 0.
    op = scalar("g", 13).winding.op
    g = OrbitClass(id="g", simple_id="g", cover=1, winding=OperatorWinding(op, truncation=8))
    assert alpha_strict(g, "-") == 4
    with pytest.raises(SpectralError, match="increase the truncation"):
        alpha_strict(g, "+")


# -- q ----------------------------------------------------------------------


def test_q_examples():
    g = scalar("g", Fraction(1))
    assert q_of_cover(g, Perturbation(0), 1, "-") == 0
    assert q_of_cover(g, Perturbation(0), 3, "-") == 1
    assert q_of_cover(g, Perturbation(0), 3, "+") == 1


def test_q_range_randomized_scalar():
    thetas = [Fraction(p, q) for p, q in [(1, 7), (3, 7), (5, 3), (11, 9), (-4, 9)]]
    for theta in thetas:
        for m in (1, 2):
            orbit = scalar(f"q{theta}m{m}", theta, cover=m)
            for k in range(1, 7):
                for e in (Fraction(0), Fraction(1, 32), Fraction(-1, 32)):
                    oracle = ScalarOracle(theta * m)
                    if oracle.degenerate(e) or oracle.cover(k).degenerate(k * e):
                        continue
                    for side in "-+":
                        q = q_of_cover(orbit, eps_pi(e), k, side)
                        assert 0 <= q <= k - 1


# -- Omega ------------------------------------------------------------------


def test_omega_distinct_orbits():
    a = scalar("a", Fraction(1, 3))
    b = OrbitClass(
        id="b", simple_id="b", cover=1,
        winding=DeclaredWindings((0, 1), (0, 1)),
        distinct_from=frozenset({"a"}),
    )
    assert omega_pair(a, Perturbation(0), b, Perturbation(0), "+") == 0
    assert omega_pair(a, Perturbation(0), b, Perturbation(0), "-") == 0


def test_omega_unknown_distinctness_errors():
    a = scalar("a", Fraction(1, 3))
    b = scalar("b", Fraction(1, 3))
    with pytest.raises(MissingDataError):
        omega_pair(a, Perturbation(0), b, Perturbation(0), "+")


def test_omega_equal_covers():
    # m = n = 1, equal windings: Omega_+ = -alpha_-, Omega_- = +alpha_+.
    a = scalar("a", Fraction(5, 3))
    am, ap, _ = alpha_pm(a, Perturbation(0))
    assert omega_pair(a, Perturbation(0), a, Perturbation(0), "+") == -am
    assert omega_pair(a, Perturbation(0), a, Perturbation(0), "-") == ap


def test_omega_simple_vs_double_cover():
    # theta = pi: the double cover is exactly degenerate at 0, so the
    # unperturbed pairing is rejected; perturbed values bracket it.
    g = scalar("g", Fraction(1))
    g2 = cover_orbit(g, 2)
    with pytest.raises(DegeneracyError):
        omega_pair(g, Perturbation(0), g2, Perturbation(0), "+")
    # With the kernel pushed below (unconstrained side), alpha_-(g2) = 1 and
    # Omega_+ = 2 min{0, -1/2} = -1; pushed above it is 0.
    assert omega_pair(g, Perturbation(-D), g2, Perturbation(-D), "+") == -1
    assert omega_pair(g, Perturbation(D), g2, Perturbation(D), "+") == 0


def test_omega_strict_zero_on_degenerate_cover():
    g = scalar("g", Fraction(1))
    g2 = cover_orbit(g, 2)
    # Strict windings exclude the kernel: alpha_-(g2) = 0 strictly.
    assert omega_pair_strict(g, g2, "+") == 0


def test_omega_randomized_against_oracle():
    thetas = [Fraction(1, 7), Fraction(5, 3), Fraction(11, 9)]
    eps_values = [Fraction(0), Fraction(1, 32), Fraction(-1, 32)]
    for theta in thetas:
        oracle = ScalarOracle(theta)
        for m in (1, 2, 3):
            for n in (1, 2):
                om = scalar(f"m{theta}{m}", theta, cover=m)
                on = scalar(f"n{theta}{n}", theta, cover=n)
                object.__setattr__(on, "simple_id", om.simple_id)
                for em in eps_values:
                    for en in eps_values:
                        if oracle.cover(m).degenerate(m * em):
                            continue
                        if oracle.cover(n).degenerate(n * en):
                            continue
                        for sign in "+-":
                            got = omega_pair(
                                om, eps_pi(m * em), on, eps_pi(n * en), sign
                            )
                            assert got == omega_oracle(oracle, m, em, n, en, sign)


# -- omega_self -------------------------------------------------------------


def test_omega_self_simple():
    assert omega_self(scalar("g", Fraction(1, 3)), "+") == 0
    assert omega_self(scalar("g", Fraction(1, 3)), "-") == 0


def test_omega_self_declared_double_covers():
    odd = OrbitClass(
        id="o2", simple_id="o", cover=2,
        winding=DeclaredWindings((1, 1), (1, 1)),
    )
    # alpha = 1 odd: cov = 1: Omega_+ = -(2-1)*1 + 0 = -1.
    assert omega_self(odd, "+") == -1
    even = OrbitClass(
        id="e2", simple_id="e", cover=2,
        winding=DeclaredWindings((2, 2), (2, 2)),
    )
    # alpha_+ = 2 even: cov = 2: Omega_- = (2-1)*2 + (2-1) = 3.
    assert omega_self(even, "-") == 3


# -- q_tilde and the covering identity --------------------------------------


def test_q_tilde_k1_vanishes():
    g = scalar("g", Fraction(5, 3))
    assert q_tilde(g, Perturbation(0), g, Perturbation(0), 1, "-") == 0
    assert q_tilde(g, Perturbation(0), g, Perturbation(0), 1, "+") == 0


def test_covering_identity_scalar_spot_checks():
    # Omega(gamma^{km} + k delta, gamma^n + eps)
    #   = k Omega(gamma^m + delta, gamma^n + eps) - q_tilde.
    theta = Fraction(1)
    g = scalar("g", theta)
    delta = Fraction(1, 32)
    eps = Fraction(-1, 32)
    for (m, n, k) in [(1, 1, 3), (1, 2, 2), (2, 1, 3), (2, 3, 2)]:
        gm = cover_orbit(g, m) if m > 1 else g
        gn = cover_orbit(g, n) if n > 1 else g
        gkm = cover_orbit(g, k * m)
        for sign in "+-":
            lhs = omega_pair(
                gkm, eps_pi(k * m * delta), gn, eps_pi(n * eps), sign
            )
            rhs = k * omega_pair(
                gm, eps_pi(m * delta), gn, eps_pi(n * eps), sign
            ) - q_tilde(gm, eps_pi(m * delta), gn, eps_pi(n * eps), k, sign)
            assert lhs == rhs, (m, n, k, sign)


# -- delta_mb ---------------------------------------------------------------


def test_delta_mb_constrained_is_zero():
    h = scalar("h", Fraction(2))
    assert delta_mb(h, Perturbation(D), "-") == 0


def test_delta_mb_nondegenerate_is_zero():
    g = scalar("g", Fraction(1, 3))
    assert delta_mb(g, Perturbation(-D), "-") == 0


def test_delta_mb_generic_family_orbit():
    h = scalar("h", Fraction(2), cover=1)
    h_mb = OrbitClass(
        id=h.id, simple_id=h.simple_id, cover=1, winding=h.winding,
        kind=MorseBott(manifold_dim=3, isotropy=1),
    )
    assert delta_mb(h_mb, Perturbation(-D), "-") == 0


def test_delta_mb_exceptional_equal_covs():
    # Exceptional 2-dimensional family orbit with isotropy 2, nu = 0 on the
    # relevant side and matching generic covering data: no defect.
    orbit = OrbitClass(
        id="x", simple_id="xs", cover=2,
        winding=DeclaredWindings(minus_delta=(3, 3), plus_delta=(2, 3)),
        kind=MorseBott(manifold_dim=2, isotropy=2),
        generic_alpha=(3, 3),
    )
    # k = cover / isotropy = 1; side '-' for a positive puncture: nu_- = 1...
    # use the negative puncture side: nu_+ = 0, covs match: defect 0.
    assert delta_mb(orbit, Perturbation(-D), "-") == 0


def test_delta_mb_positive_defect():
    # Same family shape but the generic orbit's extremal winding breaks the
    # divisibility, shrinking its cov: defect (cov - cov_generic)/2 + nu term.
    orbit = OrbitClass(
        id="x", simple_id="xs", cover=4,
        winding=DeclaredWindings(minus_delta=(4, 5), plus_delta=(4, 4)),
        kind=MorseBott(manifold_dim=2, isotropy=2),
        generic_alpha=(4, 3),
    )
    # negative puncture: side '+': nu_+ = 1, k = 2, m = 2:
    # k (m-1) nu = 2; cov_+ = gcd(4, alpha_+ strict = 5) = 1 ... inconsistent
    # with generic gcd(2, 3) = 1: defect (2 + 1 - 1)/2 = 1.
    assert delta_mb(orbit, Perturbation(-D), "-") == 1


def test_delta_mb_missing_generic_data():
    orbit = OrbitClass(
        id="x", simple_id="xs", cover=2,
        winding=DeclaredWindings(minus_delta=(3, 3), plus_delta=(2, 3)),
        kind=MorseBott(manifold_dim=2, isotropy=2),
    )
    with pytest.raises(MissingDataError):
        delta_mb(orbit, Perturbation(-D), "-")


# -- orbit validation -------------------------------------------------------


def test_isotropy_must_divide_cover():
    with pytest.raises(ValidationError):
        OrbitClass(
            id="x", simple_id="xs", cover=3,
            winding=DeclaredWindings(minus_delta=(1, 1), plus_delta=(0, 1)),
            kind=MorseBott(manifold_dim=2, isotropy=2),
        )


def test_two_dim_family_isotropy_capped():
    with pytest.raises(ValidationError):
        MorseBott(manifold_dim=2, isotropy=3)


def test_kernel_dim_mismatch_rejected():
    with pytest.raises(ValidationError):
        OrbitClass(
            id="x", simple_id="x", cover=1,
            winding=DeclaredWindings(minus_delta=(1, 2), plus_delta=(0, 1)),
            kind=MorseBott(manifold_dim=2),  # declared data has a 2-dim kernel
        )


def test_alpha_monotone_decreasing_in_epsilon():
    # Larger perturbations only push extremal windings down; this is what
    # makes the Morse-Bott intersection contributions nonnegative.
    rng = np.random.default_rng(77)
    for i in range(8):
        op = random_symmetric_loop(rng)
        orbit = loop_orbit(f"mono{i}", op)
        values = []
        for eps in (Fraction(-1, 4), Fraction(-1, 16), Fraction(1, 16), Fraction(1, 4)):
            try:
                am, ap, _ = alpha_pm(orbit, Perturbation(eps))
            except DegeneracyError:
                continue
            values.append((am, ap))
        for (am1, ap1), (am2, ap2) in zip(values, values[1:]):
            assert am1 >= am2
            assert ap1 >= ap2
