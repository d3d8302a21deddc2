import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import loop_orbit, random_symmetric_loop, safe_epsilon
from oracles import (
    dense_hermitian_eigenvalues,
    measured_windings,
    spectrum_windings,
    tiled_operator,
    tiled_rows,
)
from pcurves.errors import SpectralError, ValidationError
from pcurves.orbits import WINDING, Perturbation, conley_zehnder
from pcurves.spectral import AsymptoticOperator, discretized_spectrum

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
    for cover in (0, -2, 1.5, "2"):
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
            cover = base.pulled_back(k)
            blocks = discretized_spectrum(cover, truncation)
            full = discretized_spectrum(tiled_operator(cover), truncation)
            label = (name, k)
            assert [p[1:] for p in blocks.eigenpairs] == [p[1:] for p in full.eigenpairs], label
            lams = np.array([p[0] for p in blocks.eigenpairs])
            assert np.abs(lams - [p[0] for p in full.eigenpairs]).max() < 1e-10, label
            assert abs(blocks.diameter - full.diameter) < 1e-10, label


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
    full = discretized_spectrum(tiled_operator(cover), 128)
    assert [p[1:] for p in spec.eigenpairs] == [p[1:] for p in full.eigenpairs]


def test_kernel_detection():
    op = AsymptoticOperator.constant(TWO_PI, 0.0, TWO_PI)
    spec = discretized_spectrum(op, 32)
    assert spec.kernel_dimension() == 2
    one_dim = AsymptoticOperator.constant(0.0, 0.0, 1.0)
    spec1 = discretized_spectrum(one_dim, 32)
    assert spec1.kernel_dimension() == 1


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


def _rotated_twin(op, s):
    """S' = R_s^T S R_s - 2 pi s Id with R_s(t) = exp(2 pi s J0 t)."""
    t = np.arange(op.sample_count) / op.sample_count
    c, sn = np.cos(TWO_PI * s * t), np.sin(TWO_PI * s * t)
    rot = np.stack([np.stack([c, -sn], -1), np.stack([sn, c], -1)], -2)
    twin = np.einsum("tji,tjk,tkl->til", rot, op.matrices(), rot) - TWO_PI * s * np.eye(2)
    return AsymptoticOperator.from_matrices(twin)


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
        tol = 1e-9 * base.diameter
        for s in (-2, -1, 1, 2):
            twin_op = _rotated_twin(op, s)
            twin = discretized_spectrum(twin_op, truncation)
            shared = [
                (b, t) for b in base.eigenpairs for t in twin.eigenpairs if abs(b[0] - t[0]) <= tol
            ]
            assert len(shared) >= len(base.eigenpairs) - 2
            for (_, w, mult), (_, w_twin, mult_twin) in shared:
                assert w_twin == w - s
                assert mult_twin == mult
            twin_orbit = loop_orbit(f"l{i}_twin{s}", twin_op)
            assert conley_zehnder(twin_orbit, Perturbation(eps), WINDING, truncation) == cz - 2 * s
