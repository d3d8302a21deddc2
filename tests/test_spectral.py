import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import loop_orbit, random_symmetric_loop, safe_epsilon
from oracles import (
    ScalarOracle,
    ScannedDecisions,
    dense_hermitian_eigenvalues,
    dense_spectrum,
    matrix_fourier_modes,
    measured_windings,
    rotated_twin,
    scatter_real_matrix,
    sorted_closed_form,
    spectrum_windings,
    tiled_operator,
    tiled_rows,
)
from pcurves import spectral
from pcurves.errors import DegeneracyError, SpectralError, ValidationError
from pcurves.flow import crossing_flow_cz
from pcurves.orbits import WINDING, Perturbation, conley_zehnder, scalar_orbit
from pcurves.spectral import AsymptoticOperator, SpectralData, discretized_spectrum

TWO_PI = 2 * math.pi


def test_sample_validation():
    with pytest.raises(ValidationError):
        AsymptoticOperator(tuple((0.0, 0.0, 0.0) for _ in range(8)))  # too few
    with pytest.raises(ValidationError):
        AsymptoticOperator.from_matrices([np.array([[0.0, 1.0], [0.0, 0.0]])] * 16)


def test_free_operator_spectrum():
    # S = 0: eigenvalues 2 pi k, winding k, multiplicity 2.
    op = AsymptoticOperator.constant(0.0, 0.0, 0.0)
    spec = discretized_spectrum(op, 32)
    for lam, w, mult in spec.eigenpairs:
        assert mult == 2
        assert abs(lam - TWO_PI * w) < 1e-9


def test_scalar_shift_spectrum():
    # S = pi * Id shifts everything: eigenvalues 2 pi k - pi, winding k.
    op = AsymptoticOperator.constant(math.pi, 0.0, math.pi)
    spec = discretized_spectrum(op, 32)
    for lam, w, mult in spec.eigenpairs:
        assert mult == 2
        assert abs(lam - (TWO_PI * w - math.pi)) < 1e-9


def test_diagonal_scalar_equivalence():
    a = 1.234
    diag = AsymptoticOperator.constant(a, 0.0, a)
    spec = discretized_spectrum(diag, 32)
    for lam, w, _ in spec.eigenpairs:
        assert abs(lam - (TWO_PI * w - a)) < 1e-9


def test_window_properties_random_loops():
    rng = np.random.default_rng(7)
    for _ in range(10):
        op = random_symmetric_loop(rng)
        spec = discretized_spectrum(op, 48)
        assert spectrum_windings(spec) == measured_windings(op, 48)
        counts = spec.winding_counts()
        interior = sorted(counts)[1:-1]  # edge windings may be cut by the window
        for w in interior:
            assert counts[w] == 2


def _counted_winding_cases():
    base = random_symmetric_loop(np.random.default_rng(5), degree=2, scale=0.7)
    rng = np.random.default_rng(4)
    return {
        # at T = 64, winding -5 is two simple eigenvalues 2.9e-6 apart
        "rng7": random_symmetric_loop(np.random.default_rng(7), degree=2, scale=2.5),
        # max ||S|| well above pi: the bands of neighbouring windings overlap
        **{f"degree4_{i}": random_symmetric_loop(rng, degree=4, scale=8.0) for i in range(3)},
        **{f"cover{k}": base.pulled_back(k) for k in (2, 3, 4, 6)},
        "zero": AsymptoticOperator.constant(0.0, 0.0, 0.0),
        "scalar": AsymptoticOperator.constant(math.pi, 0.0, math.pi),
        "constant": AsymptoticOperator.constant(0.5, 0.3, -0.2),
    }


@pytest.mark.parametrize("truncation", [33, 64, 65])
def test_counted_windings_match_measured_windings(truncation):
    # Odd truncations start the window inside a pair of equal windings.
    for name, op in _counted_winding_cases().items():
        spec = discretized_spectrum(op, truncation)
        assert spectrum_windings(spec) == measured_windings(op, truncation), name


def test_pulled_back_operator_scales_eigenvalues():
    rng = np.random.default_rng(11)
    op = random_symmetric_loop(rng, degree=2, scale=0.7)
    base = discretized_spectrum(op, 48)
    cover = discretized_spectrum(op.pulled_back(3), 96)
    # Every eigenvalue of the base appears tripled in the cover's spectrum
    # with tripled winding.
    cover_pairs = [(lam, w) for lam, w, _ in cover.eigenpairs]
    for lam, w, _ in base.eigenpairs:
        if abs(lam) > 4.0:
            continue
        assert any(
            abs(3 * lam - lam_c) < 1e-6 and w_c == 3 * w for lam_c, w_c in cover_pairs
        ), (lam, w)


def test_cover_order_validation():
    op = AsymptoticOperator.constant(0.5, 0.3, -0.2)
    for cover in (0, -2, 1.5, "2", True):
        with pytest.raises(ValidationError):
            AsymptoticOperator(op.samples, cover)
    with pytest.raises(ValidationError):
        op.pulled_back(0)
    cover = op.pulled_back(2).pulled_back(3)
    assert cover.samples == op.samples and cover.cover == 6
    assert cover.sample_count == 6 * op.sample_count
    assert cover == op.pulled_back(6) and hash(cover) == hash(op.pulled_back(6))
    assert cover != op and cover != tiled_operator(cover)


def _cover_cases():
    rng = np.random.default_rng(41)
    rng4 = np.random.default_rng(4)
    return {
        **{f"random{i}": random_symmetric_loop(rng) for i in range(3)},
        "rng7": random_symmetric_loop(np.random.default_rng(7), degree=2, scale=2.5),
        # loops 9 and 15 of this sequence are the under-resolved ones below
        **{f"degree4_{i}": random_symmetric_loop(rng4, degree=4, scale=4.0) for i in range(4)},
        "scalar": AsymptoticOperator.constant(3 * math.pi / 7, 0.0, 3 * math.pi / 7),
    }


@pytest.mark.parametrize("truncation", [33, 64, 65])
def test_cover_blocks_match_the_tiled_operator(truncation):
    # The residue-class blocks and the full matrix of the tiled samples
    # must give the same windings, multiplicities and eigenvalues.
    for name, base in _cover_cases().items():
        for k in range(2, 7):
            _assert_matches_dense(base.pulled_back(k), truncation, (name, k))


def _assert_matches_dense(op, truncation, label):
    blocks, full = discretized_spectrum(op, truncation), dense_spectrum(op, truncation)
    assert [p[1:] for p in blocks.eigenpairs] == [p[1:] for p in full.eigenpairs], label
    lams = np.array([p[0] for p in blocks.eigenpairs])
    assert np.abs(lams - [p[0] for p in full.eigenpairs]).max() < 1e-10, label
    assert abs(blocks.diameter - full.diameter) < 1e-10, label


@pytest.mark.parametrize("truncation", [33, 64])
def test_repeating_samples_match_the_dense_reference(truncation):
    # Samples tiled g times repeat with period N/g: the spectrum splits by
    # residue classes mod g (times the cover order), like a g-fold cover's.
    for name, base in _cover_cases().items():
        for g in (2, 3, 4):
            op = AsymptoticOperator(base.samples * g)
            assert op.period == base.period and op.mode_step == g * base.mode_step, name
            for k in (1, 2):
                _assert_matches_dense(op.pulled_back(k), truncation, (name, g, k))


@pytest.mark.parametrize("theta_over_pi", [Fraction(3, 7), Fraction(2), Fraction(-5, 3)])
def test_scalar_covers_match_the_scalar_oracle(theta_over_pi):
    # S = theta Id: the truncated spectrum is 2 pi w - k theta, |w| <= T,
    # each twice, and the window holds the eigenvalues j = T..3T + 1 with
    # winding j // 2 - T.
    oracle = ScalarOracle(theta_over_pi)
    for k in range(1, 7):
        truncation = 48 + 16 * k
        orbit = scalar_orbit("g", oracle.theta(), cover=k)
        spec = discretized_spectrum(orbit.winding.op, truncation)
        windings = [j // 2 - truncation for j in range(truncation, 3 * truncation + 2)]
        expected = [(w, windings.count(w)) for w in sorted(set(windings))]
        assert [p[1:] for p in spec.eigenpairs] == expected, k
        theta = oracle.cover(k).theta()
        lams = np.array([p[0] for p in spec.eigenpairs])
        assert np.abs(lams - [TWO_PI * w - theta for w, _ in expected]).max() < 1e-10, k


def test_eigensolves_are_one_per_class_size(monkeypatch):
    # Classes of one size are stacked: a 6-fold cover at T = 144 has the
    # classes mod 6 with 25, 48, 48 and 24 modes.  A constant loop has its
    # closed form and makes no eigensolve.
    calls, solve = [], np.linalg.eigvalsh

    def count(mats):
        calls.append(mats.shape)
        return solve(mats)

    monkeypatch.setattr(np.linalg, "eigvalsh", count)
    discretized_spectrum(AsymptoticOperator.constant(0.5, 0.3, -0.2), 144)
    assert calls == []
    discretized_spectrum(random_symmetric_loop(np.random.default_rng(2)).pulled_back(6), 144)
    assert sorted(calls) == [(1, 96, 96), (1, 98, 98), (2, 192, 192)]


@pytest.mark.parametrize("index", [9, 15])
def test_under_resolved_cover_asks_for_more_truncation(index):
    # max |S_6| is about 74 and 84: at T = 31 the blocks' windings interleave
    # inside the window, where the full matrix's count is wrong.
    rng = np.random.default_rng(4)
    base = [random_symmetric_loop(rng, degree=4, scale=4.0) for _ in range(index + 1)][-1]
    cover = base.pulled_back(6)
    with pytest.raises(SpectralError, match="increase the truncation"):
        discretized_spectrum(cover, 31)
    spec = discretized_spectrum(cover, 128)
    full = dense_spectrum(cover, 128)
    assert [p[1:] for p in spec.eigenpairs] == [p[1:] for p in full.eigenpairs]


@pytest.mark.parametrize("k", [34, 51])
def test_cover_orders_beyond_twice_the_truncation(k):
    # From k = 2T + 2 on, some residue classes m = +-r (mod k) with r <= k/2
    # hold no mode |m| <= T, and neither the blocks nor the full matrix have
    # anything there.
    for base in (
        random_symmetric_loop(np.random.default_rng(41), n_samples=16),
        AsymptoticOperator.constant(TWO_PI, 0.0, TWO_PI, n_samples=16),
    ):
        cover = base.pulled_back(k)
        spec = discretized_spectrum(cover, 16)
        full = dense_spectrum(cover, 16)
        assert [p[1:] for p in spec.eigenpairs] == [p[1:] for p in full.eigenpairs]
        dense = dense_hermitian_eigenvalues(tiled_rows(cover), 16)
        lams = np.repeat([p[0] for p in spec.eigenpairs], [p[2] for p in spec.eigenpairs])
        first = len(dense) // 4
        assert np.abs(lams - dense[first:len(dense) - first]).max() < 1e-8


def test_a_cover_that_couples_no_two_modes_takes_its_means_closed_form(monkeypatch):
    # At T = 64 a cover of order k >= 2T + 2 has no mode in 1..2T, so no two
    # modes |m| <= T are coupled: the truncated operator is its mean's, and
    # the spectrum is that constant loop's closed form, with no eigensolve.
    # The full matrix of the tiled samples must give the same windings and
    # multiplicities, and the same eigenvalues within 16 ulps of the
    # diameter.
    base = random_symmetric_loop(np.random.default_rng(41), n_samples=16)
    for k in (130, 131, 200):
        cover = base.pulled_back(k)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", None)
            spec = discretized_spectrum(cover, 64)
        full = dense_spectrum(cover, 64)
        assert [p[1:] for p in spec.eigenpairs] == [p[1:] for p in full.eigenpairs], k
        gap = max(abs(a[0] - b[0]) for a, b in zip(spec.eigenpairs, full.eigenpairs))
        assert gap <= 16 * np.finfo(float).eps * full.diameter, k


def test_an_operator_transforms_its_samples_once(monkeypatch):
    # The spectrum and the crossing flows of one operator read the Fourier
    # modes that the first of them computed and kept with the operator.
    fft, transforms = np.fft.fft, []

    def counted(*args, **kwargs):
        transforms.append(1)
        return fft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counted)
    op = random_symmetric_loop(np.random.default_rng(7))
    discretized_spectrum(op, 32)
    for eps in (0.0, 0.5, -1.5):
        crossing_flow_cz(op, eps)
    assert len(transforms) == 1
    with pytest.raises(ValueError):
        op.fourier_modes[1][0] = 0.0
    # The kept modes are no part of the operator's value.
    fresh = AsymptoticOperator(op.samples)
    assert fresh == op and hash(fresh) == hash(op) and repr(fresh) == repr(op)
    # A cover has modes of its own, computed afresh.
    cover = op.pulled_back(3)
    crossing_flow_cz(cover, 0.0)
    assert len(transforms) == 2
    assert (cover.fourier_modes[0] == 3 * op.fourier_modes[0]).all()


def test_fourier_modes_are_the_fft_of_the_sample_matrices():
    # The package transforms the rows (s11, s12, s22) and reads them as
    # symmetric matrices; the oracle transforms the matrices.  Each entry is
    # the same FFT of the same column, so the modes must agree to the bit:
    # on loops of odd and even N, on loops whose period is below N, at odd
    # and even periods, and on covers of both.
    rng = np.random.default_rng(29)
    ops = [random_symmetric_loop(rng, n_samples=n) for n in (17, 33, 64)]
    ops += [AsymptoticOperator(tuple(map(tuple, rng.uniform(-2, 2, (p, 3)))) * r) for p, r in ((5, 4), (6, 3))]
    ops += [op.pulled_back(k) for op in ops[:5] for k in (2, 3)]
    for op in ops:
        modes, coeffs = op.fourier_modes
        want_modes, want = matrix_fourier_modes(op)
        assert modes.tolist() == want_modes.tolist(), (len(op.samples), op.period, op.cover)
        assert coeffs.shape == want.shape
        assert coeffs.real.tobytes() == want.real.tobytes(), (len(op.samples), op.period, op.cover)
        assert coeffs.imag.tobytes() == want.imag.tobytes(), (len(op.samples), op.period, op.cover)
    assert [op.period for op in ops[3:5]] == [5, 6]


def test_high_cover_orders_allocate_only_the_simple_loop():
    # A k-fold cover's spectrum and crossing flow read the simple loop's
    # coefficients at multiples of k; nothing of size kN is built.  At
    # k = 1e4 on 32 samples a (kN, 2, 2) complex array alone takes 20 MB.
    cover = random_symmetric_loop(np.random.default_rng(5), n_samples=32, scale=1e-6)
    cover = cover.pulled_back(10**4)
    for run in (lambda: discretized_spectrum(cover, 16), lambda: crossing_flow_cz(cover, 0.3)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6


def test_kernel_detection():
    op = AsymptoticOperator.constant(TWO_PI, 0.0, TWO_PI)
    spec = discretized_spectrum(op, 32)
    assert spec.kernel_dimension() == 2
    one_dim = AsymptoticOperator.constant(0.0, 0.0, 1.0)
    spec1 = discretized_spectrum(one_dim, 32)
    assert spec1.kernel_dimension() == 1


def _outcome(decide, *args):
    """("ok", a decision's value), or the type of the error it raises with
    the kernel winding a DegeneracyError reports."""
    try:
        return "ok", decide(*args)
    except DegeneracyError as exc:
        return DegeneracyError, exc.kernel_winding
    except (SpectralError, ValidationError) as exc:
        return type(exc), None


def _edge_spectra():
    """(eigenpairs, diameter) with double eigenvalues and kernels, with
    eigenvalues at and just beyond the tolerance from 0, with a side of 0
    left empty, and three computed spectra."""
    diameter = 100.0
    tol = spectral.DEGENERACY_REL_TOL * diameter
    beyond = math.nextafter(tol, math.inf)
    yield ((-12.5, -2, 2), (-6.0, -1, 1), (-3.0, -1, 1), (0.0, 0, 2), (6.5, 1, 2)), diameter
    yield ((-7.0, -1, 2), (-tol, 0, 1), (tol, 0, 1), (7.0, 1, 2)), diameter
    yield ((-7.0, -1, 2), (-beyond, 0, 1), (beyond, 0, 1), (7.0, 1, 2)), diameter
    yield ((0.5, 0, 1), (1.5, 0, 1), (4.0, 1, 2)), diameter
    yield ((-4.0, -1, 2), (-1.5, 0, 1), (-0.5, 0, 1)), diameter
    yield ((0.0, 0, 2),), diameter
    for op in (
        AsymptoticOperator.constant(TWO_PI, 0.0, TWO_PI),
        AsymptoticOperator.constant(0.0, 0.0, 1.0),
        random_symmetric_loop(np.random.default_rng(5)),
    ):
        spec = discretized_spectrum(op, 16)
        yield spec.eigenpairs, spec.diameter


def test_decisions_match_a_linear_scan_at_the_tolerance_edges():
    kinds = set()
    for pairs, diameter in _edge_spectra():
        spec, scan = SpectralData(pairs, diameter), ScannedDecisions(pairs, diameter)
        tol = spec.degeneracy_tol
        # Every eigenvalue, each of the window's ends among them, probed at
        # and next to its tolerance edges.
        probes = {0.0}
        for lam, _, _ in pairs:
            probes.add(lam)
            for edge in (lam - tol, lam + tol):
                probes |= {edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)}
        for x in sorted(probes):
            outcome = _outcome(spec.alpha_at, -x)
            assert outcome == _outcome(scan.alpha_at, -x), (pairs, x)
            kinds.add(outcome[0])
        for side in (spectral.SIDE_MINUS, spectral.SIDE_PLUS):
            assert _outcome(spec.alpha_strict, side) == _outcome(scan.alpha_strict, side), pairs
        for delta_gap in (0, Fraction(1, 4), Fraction(1, 2), Fraction(7)):
            assert _outcome(spec.gap_margin, delta_gap) == _outcome(scan.gap_margin, delta_gap)
        assert spec.kernel_dimension() == scan.kernel_dimension(), pairs
        assert _outcome(spec.nu) == _outcome(scan.nu), pairs
    # The probes reached every kind of outcome.
    assert kinds == {"ok", SpectralError, DegeneracyError}


def test_doubling_truncation_stability():
    rng = np.random.default_rng(3)
    op = random_symmetric_loop(rng)
    s1 = discretized_spectrum(op, 48)
    s2 = discretized_spectrum(op, 96)
    assert s1.alpha_at(0.07) == s2.alpha_at(0.07)
    assert s1.alpha_at(-0.07) == s2.alpha_at(-0.07)


def _reference_pairs(reference, spec):
    """The reference eigenvalues of the middle half, grouped as ``spec``
    groups them: a double entry is the mean of its two eigenvalues."""
    dim = len(reference)
    window = iter(reference[dim // 4 : dim - dim // 4])
    out = [np.mean([next(window) for _ in range(mult)]) for _, _, mult in spec.eigenpairs]
    assert next(window, None) is None
    return np.array(out)


@pytest.mark.parametrize("truncation", [16, 32])
def test_real_basis_matches_dense_hermitian_reference(truncation):
    rng = np.random.default_rng(23)
    ops = [random_symmetric_loop(rng) for _ in range(4)]
    ops += [
        AsymptoticOperator.constant(0.0, 0.0, 0.0),  # every eigenvalue double
        AsymptoticOperator.constant(1.234, 0.0, 1.234),
        AsymptoticOperator.constant(0.5, 0.3, -0.2),
        random_symmetric_loop(rng, degree=2, scale=0.7).pulled_back(3),
        # raw samples: a nonzero Nyquist coefficient, so its halving counts
        AsymptoticOperator(tuple(map(tuple, rng.uniform(-2.0, 2.0, size=(18, 3))))),
    ]
    for op in ops:
        spec = discretized_spectrum(op, truncation)
        reference = dense_hermitian_eigenvalues(tiled_rows(op), truncation)
        computed = np.array([lam for lam, _, _ in spec.eigenpairs])
        assert np.abs(computed - _reference_pairs(reference, spec)).max() < 1e-10
        assert abs(spec.diameter - (reference[-1] - reference[0])) < 1e-10


def _built_blocks(op, truncation, monkeypatch):
    """The arguments (c, truncation, blocks) of every ``_real_matrix`` call of
    one ``discretized_spectrum``: each block a list of slices, its
    progressions of modes."""
    calls, build = [], spectral._real_matrix

    def record(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(spectral, "_real_matrix", record)
    discretized_spectrum(op, truncation)
    monkeypatch.undo()
    return calls


def _modes(block, truncation):
    """The modes of a block, one progression after another."""
    return [m for p in block for m in range(truncation + 1)[p]]


@pytest.mark.parametrize("truncation", [spectral.MIN_TRUNCATION, 16, 33, 64, 128, 144])
def test_real_matrix_equals_the_scatter_reference(truncation, monkeypatch):
    # Entry for entry, not within a tolerance: equal matrices have equal
    # eigenvalues, so reports do not depend on how the matrix is assembled.
    rng = np.random.default_rng(truncation)
    base = random_symmetric_loop(rng, scale=0.5)
    ops = {
        "simple": random_symmetric_loop(rng),
        "degree4_odd_samples": random_symmetric_loop(rng, degree=4, n_samples=33),
        "tiled3": AsymptoticOperator(base.samples * 3),
        # k = 5 and 6 have two classes of two progressions each (r = 1, 2);
        # at k = 2T mode 2T still couples T to -T, and from k = 2T + 1 on, S
        # has no mode in 1..2T and no matrix is built
        **{f"cover{k}": base.pulled_back(k) for k in (2, 3, 4, 5, 6, 2 * truncation, 2 * truncation + 2)},
    }
    for name, op in ops.items():
        built = _built_blocks(op, truncation, monkeypatch)
        if op.mode_step > 2 * truncation:
            assert built == [], name
            continue
        # One block per residue class m = +-r (mod s), r = 0..s/2, that holds
        # a mode |m| <= T.
        blocks = min(op.mode_step // 2, truncation) + 1
        assert sum(len(stack) for _, _, stack in built) == blocks, name
        assert sorted(m for _, t, stack in built for block in stack for m in _modes(block, t)) == list(
            range(truncation + 1)
        ), name
        for c, t, stack in built:
            mats = spectral._real_matrix(c, t, stack)
            for mat, block in zip(mats, stack, strict=True):
                row = _modes(block, t)
                assert np.array_equal(mat, scatter_real_matrix(c, t, row)), (name, row[:2])


def test_real_matrix_takes_any_list_of_progressions(monkeypatch):
    # The modes are laid out one progression after another, whatever the
    # progressions' lengths and steps.
    t = 16
    [(c, _, _)] = _built_blocks(random_symmetric_loop(np.random.default_rng(5)), t, monkeypatch)
    cases = {
        "unequal lengths": [slice(1, 17, 5), slice(4, 12, 5)],  # 1, 6, 11, 16 and 4, 9
        "strided": [slice(2, 17, 3)],
        "constant's class": [slice(0, 17, 4)],
        "constant and a second progression": [slice(0, 17, 4), slice(3, 17, 4)],
        "lone mode": [slice(5, 17, 2 * t + 2)],
        "lone constant": [slice(0, 17, 2 * t + 2)],
    }
    for name, block in cases.items():
        [mat] = spectral._real_matrix(c, t, [block])
        assert np.array_equal(mat, scatter_real_matrix(c, t, _modes(block, t))), name


@pytest.mark.parametrize("truncation", [128, 144])
def test_real_matrix_allocates_little_beyond_its_output(truncation, monkeypatch):
    # The tiles are added from views of two small tables straight into the
    # matrix; the traced peak was 1.13 (T = 128) and 1.10 (T = 144) times
    # the matrix.  Two gathers of the matrix's size peaked at 3.1 times it,
    # and the scatter construction at 4.5 times.
    op = random_symmetric_loop(np.random.default_rng(3))
    (args,) = _built_blocks(op, truncation, monkeypatch)
    tracemalloc.start()
    try:
        mat = spectral._real_matrix(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dim = 2 * (2 * truncation + 1)
    assert mat.shape == (1, dim, dim) and peak <= 1.2 * mat.nbytes


def _assert_twin_shifts_windings(base, twin, s):
    """Eigenvalues that ``base`` and its rotated twin share carry windings
    w and w - s, with one multiplicity."""
    tol = 1e-9 * base.diameter
    shared = [(b, t) for b in base.eigenpairs for t in twin.eigenpairs if abs(b[0] - t[0]) <= tol]
    assert len(shared) >= len(base.eigenpairs) - 2
    for (_, w, mult), (_, w_twin, mult_twin) in shared:
        assert w_twin == w - s
        assert mult_twin == mult


@pytest.mark.parametrize("truncation", [64, 128])
def test_rotated_twin_shifts_windings_and_cz(truncation):
    # v -> R_s^T v maps eigenfunctions of S to those of its twin with the
    # same eigenvalue and winding w - s, so CZ drops by 2s.
    rng = np.random.default_rng(31)
    for i in range(3):
        op = random_symmetric_loop(rng)
        base = discretized_spectrum(op, truncation)
        eps = Fraction(safe_epsilon(base)).limit_denominator(10**9)
        cz = conley_zehnder(loop_orbit(f"l{i}", op), Perturbation(eps), WINDING, truncation)
        for s in (-2, -1, 1, 2):
            twin_op = rotated_twin(op, s)
            _assert_twin_shifts_windings(base, discretized_spectrum(twin_op, truncation), s)
            twin_orbit = loop_orbit(f"l{i}_twin{s}", twin_op)
            assert conley_zehnder(twin_orbit, Perturbation(eps), WINDING, truncation) == cz - 2 * s


def test_gap_margin_compares_with_the_exact_delta_gap():
    # S = Id: the eigenvalues are 2 pi m - 1, so the gap around 0 is 1.
    spec = discretized_spectrum(AsymptoticOperator.constant(1.0, 0.0, 1.0), 16)
    gap = spec.gap_margin(0)
    assert gap == pytest.approx(1)
    assert spec.gap_margin(Fraction(1, 4)) == gap - 0.25
    # A delta_gap below the gap by less than a float can hold: compared
    # after rounding to a float, it would equal the gap and be refused.
    below = Fraction(gap) - Fraction(1, 10**30)
    assert float(below) == gap
    assert spec.gap_margin(below) == 1e-30
    for delta_gap in (Fraction(gap), Fraction(2)):
        with pytest.raises(ValidationError, match="inside the declared gap"):
            spec.gap_margin(delta_gap)


def _random_constant_loops(rng, count):
    """Constant loops (a, b, c) with b != 0 and a != c: the two eigenvalues
    of mode 0 are apart, and S does not commute with J0."""
    loops = []
    while len(loops) < count:
        a, b, c = rng.uniform(-8.0, 8.0, size=3).tolist()
        if b != 0 and a != c:
            loops.append(AsymptoticOperator.constant(a, b, c))
    return loops


#: closed form against the dense eigensolve, in machine epsilons times the
#: diameter.  The closed form is within about one; the dense solve's error
#: grows with its dimension 2(2T + 1), and reached 9.2 at T = 64.
CLOSED_FORM_EPS = 16


@pytest.mark.parametrize("truncation", [16, 64])
def test_closed_form_matches_the_dense_reference(truncation):
    # 33 constant loops and their covers k = 1..6: 198 operators, each
    # against one eigensolve of its tiled operator's full matrix.
    bound = CLOSED_FORM_EPS * np.finfo(float).eps
    for i, base in enumerate(_random_constant_loops(np.random.default_rng(53), 33)):
        for k in range(1, 7):
            op = base.pulled_back(k)
            closed, dense = discretized_spectrum(op, truncation), dense_spectrum(op, truncation)
            assert [p[1:] for p in closed.eigenpairs] == [p[1:] for p in dense.eigenpairs], (i, k)
            lams = np.array([p[0] for p in closed.eigenpairs])
            err = np.abs(lams - [p[0] for p in dense.eigenpairs]).max()
            assert err <= bound * dense.diameter, (i, k)
            assert abs(closed.diameter - dense.diameter) <= bound * dense.diameter, (i, k)


@pytest.mark.parametrize("truncation", [16, 64])
def test_closed_form_matches_the_block_solve_of_its_twins(truncation):
    # The rotated twin of a constant loop is not constant, so the block
    # solve answers it, and the windings of the two paths differ by s.
    for base_op in _random_constant_loops(np.random.default_rng(59), 4):
        base = discretized_spectrum(base_op, truncation)
        for s in (-2, -1, 1, 2):
            twin_op = rotated_twin(base_op, s)
            assert twin_op.period > 1
            _assert_twin_shifts_windings(base, discretized_spectrum(twin_op, truncation), s)


def _closed_form_corpus(truncation):
    """Loops that take the closed form at ``truncation``: scalar theta Id,
    Morse-Bott diag(0, theta) and diag(theta, 0) for theta of each sign,
    and random (a, b, c), each with its covers k = 1..6; random loops of 16
    samples covered beyond 2T, whose mode step exceeds 2T; and loops whose
    mode-0 pair is 2 h_0 apart, just inside and just outside the merge
    tolerance 1e-9 * diameter, at mid = 0 and mid = -1.3."""
    rng = np.random.default_rng(truncation)
    thetas = (0.0, 1.0, -1.0, TWO_PI, 7.5, -2.9, 3e-12)
    bases = [AsymptoticOperator.constant(th, 0.0, th) for th in thetas]
    bases += [AsymptoticOperator.constant(0.0, 0.0, th) for th in thetas[1:]]
    bases += [AsymptoticOperator.constant(th, 0.0, 0.0) for th in thetas[1:]]
    bases += [AsymptoticOperator.constant(*rng.uniform(-40.0, 40.0, size=3)) for _ in range(12)]
    ops = [base.pulled_back(k) for base in bases for k in range(1, 7)]
    for base in [random_symmetric_loop(rng, n_samples=16) for _ in range(3)]:
        ops += [base.pulled_back(k) for k in (2 * truncation + 1, 3 * truncation)]
    tol = 1e-9 * 2 * math.hypot(0.0, 0.0, TWO_PI * truncation)
    for h_0 in (tol / 2 * (1 - 1e-6), tol / 2 * (1 + 1e-6)):
        for mid in (0.0, -1.3):
            ops += [
                AsymptoticOperator.constant(-mid, h_0, -mid),
                AsymptoticOperator.constant(-mid + h_0, 0.0, -mid - h_0),
            ]
    return ops


@pytest.mark.parametrize("truncation", [8, 9, 16, 17, 64, 65, 144])
def test_closed_form_writes_the_window_of_the_sorted_spectrum(truncation):
    # The window written in the closed form's own order is the one taken
    # from all 4T + 2 eigenvalues, sorted, sliced and merged: the same
    # floats in the same order, and the same diameter.
    ops = _closed_form_corpus(truncation)
    assert all(op.period == 1 or op.mode_step > 2 * truncation for op in ops)
    for op in ops:
        spec, reference = discretized_spectrum(op, truncation), sorted_closed_form(op, truncation)
        assert spec.eigenpairs == reference.eigenpairs, op
        assert spec.diameter == reference.diameter, op
    # The last eight loops straddle the merge tolerance on mode 0.
    references = [sorted_closed_form(op, truncation) for op in ops[-8:]]
    mode_0 = [[n for _, w, n in spec.eigenpairs if w == 0] for spec in references]
    assert mode_0 == [[2]] * 4 + [[1, 1]] * 4


def test_a_closed_form_that_overflows_is_refused():
    # -(a + c) / 2 is -inf for a = c = 1e308, a is inf for the double cover
    # of a = 1e308, the diameter overflows for b = 1e308, and the mean of a
    # loop of period 2 and mode step 8k > 2T overflows in its sum.
    for op in (
        AsymptoticOperator.constant(1e308, 0.0, 1e308),
        AsymptoticOperator.constant(1e308, 0.0, 0.0).pulled_back(2),
        AsymptoticOperator.constant(0.0, 1e308, 0.0),
        AsymptoticOperator(((1e308, 0.0, 0.0), (1.5e308, 0.0, 0.0)) * 8).pulled_back(5),
    ):
        with pytest.raises(SpectralError, match="overflows"):
            discretized_spectrum(op, 16)


@pytest.mark.parametrize("truncation", [64.0, "64", True, False, None, 7])
def test_a_truncation_must_be_an_integer(truncation):
    loop = random_symmetric_loop(np.random.default_rng(3))
    for op in (AsymptoticOperator.constant(0.5, 0.3, -0.2), loop):
        with pytest.raises(ValidationError, match="truncation must be an integer >= 8"):
            discretized_spectrum(op, truncation)
        assert discretized_spectrum(op, np.int64(16)) == discretized_spectrum(op, 16)
