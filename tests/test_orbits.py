import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import loop_orbit, random_symmetric_loop, safe_epsilon
from oracles import (
    ScalarOracle,
    direct_magnus_steps,
    extremal_residue_class,
    omega_oracle,
    sequential_flow,
    twisted_constant_loop,
    twisted_constant_trace,
)
from pcurves.errors import (
    DegeneracyError,
    MissingDataError,
    SpectralError,
    ValidationError,
)
from pcurves.orbits import (
    CROSSING_FLOW,
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
    linked,
    nu_pm,
    omega_pair,
    omega_pair_strict,
    omega_self,
    q_of_cover,
    q_tilde,
    scalar_orbit,
)
from pcurves.classify import is_bad_puncture
from pcurves import flow
from pcurves.flow import (
    FLOW_MAX_STEPS,
    FLOW_MAX_TURN,
    FLOW_TRACE_TOL,
    _crossing_flow,
    crossing_flow_cz,
)
from pcurves.orbits import _at
from pcurves.records import replace
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
    # The package multiplies its Magnus steps pairwise into blocks, then takes
    # a prefix product of the block products, over S from inverse FFTs; the
    # reference multiplies them one after another over S from a dense cos/sin
    # sum, and samples the path at every step.  They are compared at the
    # step count that decided the index, or where it is refused, at the
    # count it started from.  Criterion 2's loops, then degree-4 loops at
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
        try:
            outcome, steps, _ = flow._decision(op, eps)
        except DegeneracyError:
            outcome, steps = "degenerate", flow._step_count(op, op.real_series[2] + abs(eps))
        trace, turns = sequential_flow(op, eps, steps)
        flow_trace, _, flow_turns = _crossing_flow(op, eps, steps)
        assert abs(flow_trace - trace) < 1e-9, eps
        assert abs(flow_turns - turns) < 1e-9, eps
        assert outcome == _flow_outcome(trace, turns), eps
        near += abs(trace - 2.0) < 1e-3
    # The seven endpoints built next to 2 (|tr Psi(1) - 2| < 3e-4 or 0), and
    # one of criterion 2's loops at epsilon 0.37.
    assert near == 8


def test_crossing_flow_trace_on_twisted_constant_loops():
    # The twisted loop depends on t, through modes 0 and +-2s, yet its flow
    # ends where the constant loop's does, at a trace known in closed form.
    # At the step count where a flow starts, the trace's error must keep to
    # the law measured on these loops, 1.8 (h rate)^4 max(1, |tr|), and the
    # step-doubling estimate |tr_h - tr_2h| / 15 must be within 2% of it
    # wherever it exceeds 1e-10: 1.9% under it was the most seen, on S0 =
    # (40, 1, 35) at s = 6 (h rate 0.045), and 0.5% elsewhere.  At 2048
    # steps and twists below 4 the error is below 5e-9.  An index that is
    # not refused must have the closed form's parity.  From s = 16 on, mode
    # 2s reaches the Nyquist mode of 64 samples, so 128 are taken.
    rng = np.random.default_rng(13)
    bases = [tuple(row) for row in rng.uniform(-3, 3, (4, 3))]
    bases += [(4.0, 0.5, 3.0), (40.0, 1.0, 35.0)]
    for s0 in bases:
        for s in range(17):
            op = twisted_constant_loop(s0, s, n_samples=128 if s >= 16 else 64)
            for eps in (0.0, 0.125):
                exact = twisted_constant_trace(s0, eps)
                scale = max(1.0, abs(exact))
                if s < 4:
                    assert abs(_crossing_flow(op, eps, 2048)[0] - exact) < 5e-9 * scale, (s0, s, eps)
                rate = op.real_series[2] + eps
                steps = flow._step_count(op, rate)
                trace, coarse, _ = _crossing_flow(op, eps, steps)
                error = abs(trace - exact)
                assert error < 1.8 * (rate / steps) ** 4 * scale, (s0, s, eps)
                if error > 1e-10:
                    assert abs(abs(trace - coarse) / 15 - error) < 0.02 * error, (s0, s, eps)
                try:
                    cz = crossing_flow_cz(op, eps)
                except DegeneracyError:
                    continue
                assert (cz % 2 == 0) == (exact > 2.0), (s0, s, eps)


def test_crossing_flow_refuses_or_is_exact_near_a_fast_degenerate_endpoint():
    # det S0 = -3e-7, so exp(J0 S0) is hyperbolic with trace 2 cosh(sqrt(3e-7))
    # > 2: the constant loop's index is 0, and the twist by s lowers it by 2s.
    # At the step counts where these flows start the trace's error exceeds
    # tr - 2 = 3e-7; with a fixed tolerance the flow answered -17 at s = 9.
    # Step doubling decides them at 8192 and 16384 steps.
    for s0, s, steps in (((10.0, math.sqrt(4 + 3e-7), 0.4), 9, 8192), ((30.0, math.sqrt(45 + 3e-7), 1.5), 12, 16384)):
        assert twisted_constant_trace(s0, 0.0) > 2.0
        op = twisted_constant_loop(s0, s)
        assert flow._decision(op, 0.0)[:2] == (-2 * s, steps)
        orbit = loop_orbit(f"twist{s}", op)
        assert conley_zehnder(orbit, Perturbation(0), CROSSING_FLOW) == -2 * s, s


def test_a_crossing_flow_at_a_kernel_is_refused_without_doubling(monkeypatch):
    # At a kernel |tr - 2| and the estimate are rounding, far below
    # FLOW_TRACE_TOL: no finer pass can decide, so the flow is refused there
    # instead of doubling its steps up to FLOW_MAX_STEPS.
    passes = []
    flow_pass = flow._crossing_flow
    monkeypatch.setattr(
        flow, "_crossing_flow", lambda op, eps, n: passes.append(n) or flow_pass(op, eps, n)
    )
    for s in ((0.0, 0.0, 1.3), (0.0, 0.0, 0.0)):
        passes.clear()
        with pytest.raises(DegeneracyError):
            flow.crossing_flow_cz(AsymptoticOperator.constant(*s), 0.0)
        assert 1 <= len(passes) <= 2, (s, passes)


def test_crossing_flow_samples_the_path_as_often_as_the_turn_bound_needs(monkeypatch):
    # Over span steps Psi(t) e1 turns at most span h rate, so the path is
    # sampled every span steps for the largest power of two span with span h
    # rate <= FLOW_MAX_TURN: all of [0, 1] or half of it for a slow constant
    # loop (rates 0.6 and 1.1), every step for scalar covers just below and
    # just above the rate 512 pi at which the step count doubles (rates
    # 1608.2 and 1608.8), and every 16 steps for a twisted loop (rate 23.1).
    # A constant loop starts at the turn bound, any other loop at
    # FLOW_START_TURN.  The turns must not depend on the span.
    paths = []
    count_turns = flow._turns
    monkeypatch.setattr(flow, "_turns", lambda path: paths.append(path) or count_turns(path))
    cases = [
        (AsymptoticOperator.constant(0.3, 0.1, 0.5), 0.0, 16, 1),
        (AsymptoticOperator.constant(0.3, 0.1, 0.5), 0.5, 16, 2),
        (scalar_orbit("g", 568.6, cover=2).winding.op, 0.0, 2048, 2048),
        (scalar_orbit("g", 568.8, cover=2).winding.op, 0.0, 4096, 4096),
        (twisted_constant_loop((4.0, 0.5, 3.0), 3), 0.0, 512, 32),
    ]
    for op, eps, steps, samples in cases:
        assert flow._step_count(op, op.real_series[2] + eps) == steps
        trace, turns = sequential_flow(op, eps, steps)
        flow_trace, _, flow_turns = _crossing_flow(op, eps, steps)
        assert abs(flow_trace - trace) < 1e-9, (steps, samples)
        assert abs(flow_turns - turns) < 1e-9, (steps, samples)
        path = paths.pop()
        assert len(path) == samples + 1, (steps, samples)
        assert np.abs(np.angle(path[1:] / path[:-1])).max() <= FLOW_MAX_TURN, (steps, samples)


def test_magnus_exponent_is_affine_in_epsilon():
    # The package keeps each step's exponent at epsilon = 0, X0, and its
    # slope D, and forms X = X0 + epsilon D; the oracle forms X from S +
    # epsilon at the Gauss points.  The two differ by rounding alone.  Every
    # entry of X is at most h rate in size, with rate = sum |a_k| + |epsilon|,
    # so each may differ by 4 ulps of h rate (1.8 was the most seen, on 50
    # loops of these kinds); the steps exp(X), whose entries are below 3, by
    # 4 ulps (1.5 seen).  At epsilon = 0 the fine pass's are the same floats.
    # The coarse pass, at 2h, takes its Gauss points from two other grids of
    # the same inverse FFT, and keeps to the same bounds against the oracle
    # at 2h.  They are compared at the step count that decided; epsilon 1700
    # raises it to 65536.
    ulp = np.finfo(float).eps
    rng = np.random.default_rng(20260810)
    ops = [random_symmetric_loop(rng) for _ in range(4)]
    rng = np.random.default_rng(4)
    ops += [random_symmetric_loop(rng, degree=4, scale=4) for _ in range(4)]
    ops.append(twisted_constant_loop((4.0, 0.5, 3.0), 3).pulled_back(2))
    for op in ops:
        for eps in (0.0, 0.37, -0.37, 1.1, -1.1, 1700.0):
            rate = op.real_series[2] + abs(eps)
            steps = flow._decision(op, eps)[1]
            if eps == 1700.0:
                assert steps == 65536
            base, slope = flow._magnus_exponent(op, steps)
            x = slope * eps + base
            # [row, column, pass, j]: the coarse steps are followed by identities
            got_steps = flow._magnus_steps((base, slope), eps)
            assert (got_steps[:, :, 1, steps // 2 :] == np.eye(2)[:, :, None]).all()
            passes = (
                (steps, x[:, :steps], got_steps[:, :, 0]),
                (steps // 2, x[:, steps:], got_steps[:, :, 1, : steps // 2]),
            )
            for count, got_x, got in passes:
                want_x, want_steps = direct_magnus_steps(op, eps, count)
                if eps == 0.0 and count == steps:
                    assert (got_x == want_x).all() and (got == want_steps).all()
                assert np.abs(got_x - want_x).max() <= 4 * ulp * rate / count, (eps, count)
                assert np.abs(got - want_steps).max() <= 4 * ulp, (eps, count)


def test_crossing_flow_does_not_depend_on_what_its_operator_kept(monkeypatch):
    # An operator keeps the epsilon-free part of the Magnus exponents of both
    # passes, one array per step count at which one of its flows started.  A
    # flow must give the same traces and turns, to the bit, on a fresh
    # operator; after flows at other epsilons, one of them at a higher
    # starting count, and after a pass at a count it does not keep; and on a
    # separate operator equal to one that has flowed.  Each operator builds
    # the array of a starting count once and keeps it, and keeps no other.
    built = []
    build = flow._magnus_exponent
    monkeypatch.setattr(flow, "_magnus_exponent", lambda op, steps: built.append((op, steps)) or build(op, steps))
    rng = np.random.default_rng(20260810)
    loops = [random_symmetric_loop(rng).samples for _ in range(3)]
    loops.append(twisted_constant_loop((4.0, 0.5, 3.0), 3).samples)
    for samples in loops:
        fresh, starts = {}, {}
        for eps in (0.0, 0.37, -1.1):
            op = AsymptoticOperator(samples)
            steps = flow._decision(op, eps)[1]
            fresh[eps] = steps, _crossing_flow(op, eps, steps)
            starts[id(op)] = {steps}
        warm = AsymptoticOperator(samples)
        starts[id(warm)] = {flow._decision(warm, eps)[1] for eps in (2.3, 20.0)}
        assert len(starts[id(warm)]) == 2
        unkept = 8 * fresh[0.0][0]
        assert unkept not in starts[id(warm)]
        _crossing_flow(warm, 0.0, unkept)
        for op in (warm, AsymptoticOperator(samples)):
            for eps, (steps, want) in fresh.items():
                assert _crossing_flow(op, eps, steps) == want, eps
        for op in {id(op): op for op, _ in built}.values():
            kept = set(op.magnus_exponents)
            assert kept == starts.get(id(op), set())
            counts = [steps for other, steps in built if other is op]
            assert all(counts.count(steps) == 1 for steps in kept)
        built.clear()


def test_crossing_flow_does_not_alias_on_fast_scalar_covers():
    # S = k theta Id turns Psi(t) e1 by k theta per unit time.  At 2048 steps
    # a step turned by more than pi from theta = 6464.31 on, and the flow
    # gave -2039 there, and -1229 for the 6-fold cover of theta = 1500.9.
    # The step count now grows with the rate bound sqrt2 k theta, and past
    # FLOW_MAX_STEPS the flow refuses.
    thetas = (0.7, 101.3, 1500.9, 3217.2, 6464.31, 6500.0, 8123.4, 9999.9)
    for theta in thetas:
        for k in range(1, 7):
            orbit = scalar_orbit("g", theta, cover=k)
            fast = math.sqrt(2) * k * theta > FLOW_MAX_STEPS * FLOW_MAX_TURN
            try:
                cz = conley_zehnder(orbit, Perturbation(0), CROSSING_FLOW)
            except SpectralError:
                assert fast, (theta, k)
                continue
            assert not fast, (theta, k)
            assert cz == 2 * math.floor(k * theta / (2 * math.pi)) + 1, (theta, k)


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


def test_declared_cover_is_found_through_linked():
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
    base, declared_cover = linked([base, declared_cover])
    assert cover_orbit(base, 2) is declared_cover
    # The first orbit declared with a covering number keeps it.
    base, declared_cover, later = linked([base, declared_cover, replace(declared_cover, id="d2b")])
    assert cover_orbit(base, 2) is declared_cover
    assert later.tower is base.tower


def test_declared_covers_of_a_cover_resolve_without_a_lookup_table():
    # Rotation 1.3 of each period: the k-fold cover winds between floor(1.3 k)
    # and the next integer.
    g, g2, g4 = linked(
        OrbitClass(id=f"g{k}", simple_id="g1", cover=k, winding=DeclaredWindings(w, w))
        for k, w in ((1, (1, 2)), (2, (2, 3)), (4, (5, 6)))
    )
    assert cover_orbit(g2, 2) is g4
    assert cover_orbit(g, 4) is g4
    assert q_of_cover(g2, D, 2, "-") == 5 - 2 * 2
    assert q_of_cover(g2, D, 2, "+") == 2 * 3 - 6
    # Omega terms -2/2 and -1/1, q = 1: 2 * 2 * 1 * (-1 - (-1 - 1/4)) = 1.
    assert q_tilde(g2, D, g, D, 2, "+") == 1
    with pytest.raises(MissingDataError):
        cover_orbit(g2, 3)


def test_an_operator_cover_finds_its_simple_orbit_through_linked():
    # S = diag(1/2, 13/10): both constant modes negative, the winding-1
    # modes positive, so the simple orbit is odd (alpha = (0, 1)).
    s = loop_orbit("s", AsymptoticOperator.constant(0.5, 0.0, 1.3))
    assert alpha_pm(s, Perturbation(0)) == (0, 1, 1)
    # Unlinked, the cover is handed the tower of s alone.
    assert is_bad_puncture(cover_orbit(s, 2), 0)
    assert cover_orbit(s, 2).tower == {1: s} and s.tower == {}
    [s] = linked([s])
    assert is_bad_puncture(cover_orbit(s, 2), 0)
    assert is_bad_puncture(_at(cover_orbit(s, 2), 80), 0)
    assert is_bad_puncture(cover_orbit(_at(s, 80), 2), 0)
    assert cover_orbit(_at(s, 80), 2).winding.truncation == 80


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
    # it must agree with the windings and with the sequential product over
    # the FFT of all kN tiled samples.
    rng = np.random.default_rng(19)
    bases = [random_symmetric_loop(rng) for _ in range(2)]
    bases.append(AsymptoticOperator.constant(3 * math.pi / 7, 0.0, 3 * math.pi / 7))
    covers = [(i, base, k) for i, base in enumerate(bases) for k in range(2, 7)]
    # The first loop at 1024 samples: its 4- and 6-fold covers have modes up
    # to kN/2 = 2048 and 3072, which the flow folds onto k mod its step count.
    resampled = random_symmetric_loop(np.random.default_rng(19), n_samples=1024)
    covers += [(len(bases), resampled, k) for k in (4, 6)]
    for i, base, k in covers:
        cover = base.pulled_back(k)
        orbit = loop_orbit(f"c{i}x{k}", cover)
        spec = discretized_spectrum(cover, 64)
        for preferred in (0.0, 1.1, -2.3):
            eps = Fraction(safe_epsilon(spec, preferred)).limit_denominator(10**9)
            flow = conley_zehnder(orbit, Perturbation(eps), CROSSING_FLOW)
            # A + eps runs the flow with S - eps.
            assert flow == _flow_outcome(*sequential_flow(cover, -float(eps))), (i, k)
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


def test_generic_alpha_is_a_pair_of_integers():
    def orbit(generic):
        return OrbitClass(
            id="x", simple_id="xs", cover=2,
            winding=DeclaredWindings(minus_delta=(3, 3), plus_delta=(2, 3)),
            kind=MorseBott(manifold_dim=2, isotropy=2), generic_alpha=generic,
        )

    assert orbit((1, 2)).generic_alpha == (1, 2)
    for generic in ((), (1,), (1, 2, 3), [1, 2], (1, 2.0), (True, 1), 3):
        with pytest.raises(ValidationError, match="generic_alpha must be a pair of integers"):
            orbit(generic)


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
