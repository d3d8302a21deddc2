"""Independent oracles used to freeze expected values.

The scalar-model oracle treats the constant loop S = theta * Id exactly:
the spectrum is {2 pi m - theta} with winding m, so extremal windings of
any perturbed cover reduce to exact rational comparisons (everything is
measured in units of pi).  It shares no code with the package.

The dense-Hermitian oracle discretizes -J0 d/dt - S(t) in the complex
Fourier basis e^{2 pi i m t}, |m| <= T, entry by entry, as a reference for
the package's real cos/sin basis.

The scatter construction builds the package's real cos/sin matrix another
way: complex gathers of c_{m-n} and c_{m+n}, their sums and differences
scattered into the cos-cos, cos-sin, sin-cos and sin-sin blocks, then one
negated transposed copy.  It is the reference that the package's
assembly from Toeplitz and Hankel views must match entry for entry.

The sorted closed form builds a constant loop's window the way the
package first did, from all its eigenvalues, sorted, sliced and merged
pair by pair, as the reference that the package's direct window must
equal float for float.

The winding measurement computes eigenvectors of the package's real matrix
and counts the turning of each window eigenfunction on a fine grid, as a
check of the package's windings, which are counted from the eigenvalue
order alone.

A k-fold cover, or a loop whose samples repeat, is checked against the
full matrix of its tiled operator, the plain operator on the kN samples of
S_k(t) = k S(k t): one eigensolve of the whole matrix from one FFT of all
kN samples, with no residue-class blocks, and windings counted over the
whole spectrum.  The residue class of the
modes an extremal eigenfunction of that matrix occupies gives its covering
number independently of its winding.

The scanned decisions make SpectralData's tolerance decisions by testing
every eigenpair in turn, where the package bisects the sorted window: an
eigenvalue sits at x when x - tol <= lambda <= x + tol, with tol the
degeneracy tolerance, in the same floating-point operations.

The rotated twin S' = R_s^T S R_s - 2 pi s Id of a loop S, with R_s(t) =
exp(2 pi s t J0), maps each eigenfunction v of S to R_s^T v, with the same
eigenvalue and the winding less s.  The twin of a constant loop is not
constant, so the block solve answers it where the closed form answers S.

The twisted constant loop S_s(t) = R_s(t)^T S0 R_s(t) - 2 pi s Id, with
R_s(t) = exp(2 pi s t J0), depends on t (modes 0 and +-2s), yet its flow
Psi' = J0 (S_s + eps) Psi is Psi_s(t) = R_s(t)^T Psi_0(t), and R_s(1) = I.
So tr Psi_s(1) = tr exp(J0 (S0 + eps)), which is 2 cos sqrt(D) for D =
det(S0 + eps) > 0 and 2 cosh sqrt(-D) for D < 0: an exact answer for the
crossing flow of a loop that is not constant.

The sequential flow integrates the crossing flow with the same Magnus steps
as the package, but sums S at the Gauss points as a dense cos/sin series
and multiplies the steps one after another, where the package reads S off
a real inverse FFT and multiplies the steps pairwise into blocks, then the
blocks as a prefix product.

The direct Magnus steps evaluate each step's exponent X from S + epsilon at
the Gauss points, as the package first did, where the package keeps the
part of X that does not depend on epsilon and its slope in epsilon.  The
matrix Fourier modes take the FFT of the samples as 2x2 matrices, where
the package transforms the rows (s11, s12, s22) and reads them as
matrices.
"""

import cmath
import functools
import math
from fractions import Fraction

import numpy as np

from pcurves.errors import DegeneracyError, SpectralError, ValidationError
from pcurves.spectral import (
    DEGENERACY_REL_TOL,
    AsymptoticOperator,
    SpectralData,
    _real_matrix,
)

J0 = np.array([[0.0, -1.0], [1.0, 0.0]])
TWO_PI = 2 * math.pi


class ScalarOracle:
    """Exact data of the operator S = theta * Id, theta = theta_over_pi * pi."""

    def __init__(self, theta_over_pi):
        self.theta_over_pi = Fraction(theta_over_pi)

    def cover(self, k):
        return ScalarOracle(self.theta_over_pi * k)

    def _ratio(self, eps_over_pi):
        # eigenvalue 2 pi m - theta + eps < 0  iff  m < (theta - eps) / (2 pi)
        return (self.theta_over_pi - Fraction(eps_over_pi)) / 2

    def degenerate(self, eps_over_pi=0):
        return self._ratio(eps_over_pi).denominator == 1

    def alpha_minus(self, eps_over_pi=0):
        r = self._ratio(eps_over_pi)
        if r.denominator == 1:
            return int(r) - 1
        return math.ceil(r) - 1

    def alpha_plus(self, eps_over_pi=0):
        r = self._ratio(eps_over_pi)
        if r.denominator == 1:
            return int(r) + 1
        return math.floor(r) + 1

    def parity(self, eps_over_pi=0):
        return self.alpha_plus(eps_over_pi) - self.alpha_minus(eps_over_pi)

    def conley_zehnder(self, eps_over_pi=0):
        return 2 * self.alpha_minus(eps_over_pi) + self.parity(eps_over_pi)

    def theta(self):
        return float(self.theta_over_pi) * math.pi


def omega_oracle(oracle_simple, m, eps_m, n, eps_n, sign):
    """Omega of the m- and n-fold covers of one scalar-model simple orbit,
    from first principles (used to check the packaged evaluation and the
    covering identity independently)."""
    a = oracle_simple.cover(m)
    b = oracle_simple.cover(n)
    if sign == "+":
        ta = Fraction(-a.alpha_minus(m * eps_m), m)
        tb = Fraction(-b.alpha_minus(n * eps_n), n)
    else:
        ta = Fraction(a.alpha_plus(m * eps_m), m)
        tb = Fraction(b.alpha_plus(n * eps_n), n)
    value = m * n * min(ta, tb)
    assert value.denominator == 1
    return int(value)


def k_bound_bruteforce(c, genus0_count, has_boundary):
    """Direct enumeration of min{k + l : k <= G, 2k + l > 2c}."""
    c = Fraction(c)
    best = None
    l_cap = int(2 * abs(c)) + 4
    for k in range(0, genus0_count + 1):
        for l in range(0, l_cap + 1):
            if not has_boundary and l % 2:
                continue
            if 2 * k + l > 2 * c:
                if best is None or k + l < best:
                    best = k + l
    return best


def dense_hermitian_eigenvalues(samples, truncation):
    """Sorted eigenvalues of -J0 d/dt - S(t) on the modes |m| <= truncation,
    with multiplicity, from the complex Hermitian matrix built by a plain
    loop.  ``samples`` are rows (s11, s12, s22) of S at t_j = j / N; the
    2x2 block (m, m') is -2 pi i m J0 delta_{m m'} - S_hat(m - m'), where
    S_hat is the discrete Fourier transform of the samples, halved at the
    Nyquist mode N / 2 and zero beyond it."""
    if truncation > 32:
        raise ValueError("the plain-loop reference is meant for truncation <= 32")
    n = len(samples)
    mats = [((a, b), (b, c)) for a, b, c in samples]

    def s_hat(k):
        if abs(k) > n // 2:
            return [[0j, 0j], [0j, 0j]]
        scale = 0.5 if 2 * abs(k) == n else 1.0
        phases = [cmath.exp(-2j * math.pi * k * j / n) for j in range(n)]
        return [
            [scale * sum(mats[j][r][c] * phases[j] for j in range(n)) / n for c in range(2)]
            for r in range(2)
        ]

    modes = range(-truncation, truncation + 1)
    hats = {k: s_hat(k) for k in range(-2 * truncation, 2 * truncation + 1)}
    j0 = ((0.0, -1.0), (1.0, 0.0))
    dim = 2 * len(modes)
    h = np.zeros((dim, dim), dtype=complex)
    for i, m in enumerate(modes):
        for j, mp in enumerate(modes):
            for r in range(2):
                for c in range(2):
                    entry = -hats[m - mp][r][c]
                    if m == mp:
                        entry -= 2j * math.pi * m * j0[r][c]
                    h[2 * i + r, 2 * j + c] = entry
    return np.linalg.eigvalsh(h)


def scatter_real_matrix(c, truncation, modes):
    """The matrix that ``spectral._real_matrix`` builds on the ``modes`` in
    their given order, mode 0 first if present, built by scattering the four
    cos/sin blocks of -S into a (dim, dim, 2, 2) array and transposing it
    into the interleaved layout."""
    t = truncation
    c = np.concatenate([c[:0:-1].conj(), c])  # c_k for k = -2T..2T at k + 2T
    m = np.asarray(modes)
    z = int(m[0] == 0)  # 1 when the block holds the constant
    diff = c[m[:, None] - m[None, :] + 2 * t]
    plus = c[m[:, None] + m[None, :] + 2 * t]
    cs = (diff - plus).imag[:, z:]
    cos = np.maximum(2 * np.arange(len(m)) - z, 0)
    sin = cos[z:] + 1
    dim = 2 * len(m) - z
    blocks = np.empty((dim, dim, 2, 2))
    blocks[np.ix_(cos, cos)] = (diff + plus).real
    blocks[np.ix_(cos, sin)] = cs
    blocks[np.ix_(sin, cos)] = cs.transpose(1, 0, 3, 2)
    blocks[np.ix_(sin, sin)] = (diff - plus).real[z:, z:]
    if z:
        blocks[0] /= np.sqrt(2.0)
        blocks[:, 0] /= np.sqrt(2.0)
    mat = -blocks.transpose(0, 2, 1, 3)
    cos, m = cos[z:], m[z:]
    mat[cos, :, sin, :] -= (2 * np.pi * m)[:, None, None] * J0
    mat[sin, :, cos, :] += (2 * np.pi * m)[:, None, None] * J0
    return mat.reshape(2 * dim, 2 * dim)


def tiled_rows(op):
    """Rows (s11, s12, s22) of S_k at the kN sample points of a k-fold cover."""
    return [(m[0, 0], m[0, 1], m[1, 1]) for m in op.matrices()]


def tiled_operator(op):
    """The plain operator on the tiled samples of ``op``: the same loop, with
    the cover forgotten."""
    return AsymptoticOperator(tuple(tiled_rows(op)))


def tiled_coefficients(op):
    """Fourier coefficients c_m, m = 0..kN/2, of the kN tiled samples of
    ``op`` by one FFT, halved at the Nyquist mode of an even kN: the
    coefficients of the loop with the cover forgotten."""
    mats = op.matrices()
    n = len(mats)
    coeffs = np.fft.fft(mats, axis=0)[: n // 2 + 1] / n
    if n % 2 == 0:
        coeffs[-1] /= 2.0
    return coeffs


def _full_matrix(op, truncation):
    c = np.zeros((2 * truncation + 1, 2, 2), dtype=complex)
    coeffs = tiled_coefficients(op)[: 2 * truncation + 1]
    c[: len(coeffs)] = coeffs
    [mat] = _real_matrix(c, truncation, [[slice(0, truncation + 1, 1)]])
    return mat


def dense_spectrum(op, truncation):
    """The spectrum of ``op`` from one eigensolve of its tiled operator's full
    matrix, with no split by residue class: the eigenvalue of index j gets the
    winding j // 2 - T, and the middle half is kept, equal eigenvalues of one
    winding merged within 1e-9 of the spectral diameter."""
    evals = np.linalg.eigvalsh(_full_matrix(op, truncation))
    diameter = float(evals[-1] - evals[0])
    first = len(evals) // 4
    pairs = []
    for j in range(first, len(evals) - first):
        lam, w = float(evals[j]), j // 2 - truncation
        if pairs and pairs[-1][1:] == (w, 1) and lam - pairs[-1][0] <= 1e-9 * max(diameter, 1.0):
            pairs[-1] = (0.5 * (pairs[-1][0] + lam), w, 2)
        else:
            pairs.append((lam, w, 1))
    return SpectralData(eigenpairs=tuple(pairs), diameter=diameter)


def sorted_closed_form(op, truncation):
    """The closed-form spectrum of the mean of ``op``'s samples, the way the
    package first built it: all 4T + 2 eigenvalues mid -+ h_m with their
    windings, sorted by (eigenvalue, winding), the middle half kept, and
    equal eigenvalues of one winding merged one pair at a time within 1e-9
    of the spectral diameter.  The package writes that window directly, in
    the order the closed form implies, and must match this float for
    float."""
    p = op.period
    a, b, c = (op.cover * math.fsum(column) / p for column in zip(*op.samples[:p]))
    mid, half = -(a + c) / 2, (a - c) / 2
    h = math.hypot(half, b)
    pairs = [(mid - h, 0), (mid + h, 0)]
    for m in range(1, truncation + 1):
        h = math.hypot(half, b, 2 * math.pi * m)
        pairs += [(mid - h, -m), (mid - h, -m), (mid + h, m), (mid + h, m)]
    pairs.sort()
    diameter = pairs[-1][0] - pairs[0][0]
    first, tol = len(pairs) // 4, 1e-9 * max(diameter, 1.0)
    merged = []
    for lam, w in pairs[first : len(pairs) - first]:
        last = merged[-1] if merged else None
        if last and last[1] == w and last[2] == 1 and abs(last[0] - lam) <= tol:
            merged[-1] = (0.5 * (last[0] + lam), w, 2)
        else:
            merged.append((lam, w, 1))
    return SpectralData(eigenpairs=tuple(merged), diameter=diameter)


def extremal_residue_class(op, truncation, side):
    """The residue class r, 0 <= r <= k/2, such that the extremal eigenfunctions
    of the k-fold cover ``op`` on ``side`` ('-' or '+') of 0, kernel excluded,
    have Fourier modes only at m = +-r (mod k).  Read off the eigenvectors of
    the tiled operator's full matrix; entry 2i + c of an eigenvector is the
    coefficient of basis function i (the constant, then cos and sin of each
    mode m >= 1) on e_{c+1}."""
    k = op.cover
    evals, vecs = np.linalg.eigh(_full_matrix(op, truncation))
    tol = 1e-8 * (evals[-1] - evals[0])
    lam = evals[evals < -tol].max() if side == "-" else evals[evals > tol].min()
    coeffs = vecs[:, np.abs(evals - lam) <= tol].reshape(2 * truncation + 1, 2, -1)
    weight = np.abs(coeffs).max(axis=(1, 2))
    modes = (np.arange(2 * truncation + 1) + 1) // 2
    support = modes[weight > 1e-6 * weight.max()]
    classes = {min(m % k, -m % k) for m in support.tolist()}
    assert len(classes) == 1, f"extremal eigenfunctions occupy residue classes {classes}"
    return classes.pop()


def measured_windings(op, truncation):
    """Windings of the window eigenfunctions of the truncated operator, in
    ascending eigenvalue order, measured by counting argument turns.

    Entry 2i + c of an eigenvector is the coefficient of basis function i
    (the constant, then sqrt2 cos and sqrt2 sin of each mode m >= 1) on
    e_{c+1}.  Each eigenfunction is evaluated on 16 (T + 1) points; the
    measurement asserts that it stays away from zero, turns by less than
    pi/2 per step and closes within 1e-2 of a whole turn.  A cover is
    measured on the full matrix of its tiled operator."""
    _, vecs = np.linalg.eigh(_full_matrix(op, truncation))
    first = vecs.shape[1] // 4
    coeffs = vecs[:, first : vecs.shape[1] - first].reshape(2 * truncation + 1, 2, -1)
    grid = 16 * (truncation + 1)
    angle = 2 * np.pi * np.outer(np.arange(grid) / grid, np.arange(1, truncation + 1))
    waves = np.sqrt(2.0) * np.dstack([np.cos(angle), np.sin(angle)]).reshape(grid, -1)
    basis = np.hstack([np.ones((grid, 1)), waves])  # (grid point, basis function)
    x, y = basis @ coeffs[:, 0], basis @ coeffs[:, 1]  # (grid point, eigenfunction)
    radius = np.hypot(x, y)
    assert (radius.min(axis=0) > 1e-6 * radius.max(axis=0)).all(), "eigenfunction near zero"
    args = np.arctan2(y, x)
    steps = np.diff(args, axis=0, append=args[:1])
    steps -= 2 * np.pi * np.round(steps / (2 * np.pi))
    assert np.abs(steps).max() < 0.5 * np.pi, "grid too coarse for an eigenfunction"
    turns = steps.sum(axis=0) / (2 * np.pi)
    assert np.abs(turns - np.round(turns)).max() < 1e-2, "a turn count is not an integer"
    return np.round(turns).astype(int).tolist()


def spectrum_windings(spec):
    """The windings of a package spectrum, one per eigenvalue counted with
    multiplicity, to set against ``measured_windings``."""
    return [w for _, w, mult in spec.eigenpairs for _ in range(mult)]


class ScannedDecisions:
    """SpectralData's decisions on the same eigenpairs, by linear scans."""

    def __init__(self, eigenpairs, diameter):
        self.pairs = [(float(lam), w, mult) for lam, w, mult in eigenpairs]
        self.tol = DEGENERACY_REL_TOL * diameter

    def _split(self, x):
        """The eigenpairs below x - tol, within tol of x, and above x + tol."""
        lo, hi = x - self.tol, x + self.tol
        below = [p for p in self.pairs if p[0] < lo]
        at = [p for p in self.pairs if lo <= p[0] <= hi]
        above = [p for p in self.pairs if p[0] > hi]
        return below, at, above

    def alpha_at(self, epsilon):
        x = -float(epsilon)
        first, last = self.pairs[0][0], self.pairs[-1][0]
        if not (first + self.tol < x and x < last - self.tol):
            raise SpectralError("outside the window")
        below, at, above = self._split(x)
        if at:
            raise DegeneracyError("eigenvalue at the probe", kernel_winding=at[0][1])
        return below[-1][1], above[0][1]

    def alpha_strict(self, side):
        below, _, above = self._split(0.0)
        nearest = below[-1:] if side == "-" else above[:1]
        if not nearest:
            raise SpectralError("no eigenvalue on that side")
        return nearest[0][1]

    def kernel_dimension(self):
        return sum(mult for _, _, mult in self._split(0.0)[1])

    def gap_margin(self, delta_gap):
        below, _, above = self._split(0.0)
        nearest = [abs(lam) for lam, _, _ in below[-1:] + above[:1]]
        if not nearest:
            raise SpectralError("no nonzero eigenvalue")
        gap = min(nearest)
        if Fraction(gap) <= delta_gap:
            raise ValidationError("inside the declared gap")
        return float(Fraction(gap) - delta_gap)

    def nu(self):
        if self.kernel_dimension() == 0:
            return 0, 0
        probe = self.gap_margin(0) / 2.0
        (am_lo, ap_lo), (am_hi, ap_hi) = self.alpha_at(-probe), self.alpha_at(probe)
        return am_lo - am_hi, ap_lo - ap_hi


def rotated_twin(op, s):
    """S' = R_s^T S R_s - 2 pi s Id with R_s(t) = exp(2 pi s J0 t)."""
    t = np.arange(op.sample_count) / op.sample_count
    c, sn = np.cos(TWO_PI * s * t), np.sin(TWO_PI * s * t)
    rot = np.stack([np.stack([c, -sn], -1), np.stack([sn, c], -1)], -2)
    twin = np.einsum("tji,tjk,tkl->til", rot, op.matrices(), rot) - TWO_PI * s * np.eye(2)
    return AsymptoticOperator.from_matrices(twin)


def twisted_constant_loop(s0, s, n_samples=64):
    """The operator of S_s(t) = R_s(t)^T S0 R_s(t) - 2 pi s Id, R_s(t) =
    exp(2 pi s t J0), at n_samples points, for S0 given as (s11, s12, s22)."""
    s0_matrix = np.array([[s0[0], s0[1]], [s0[1], s0[2]]], dtype=float)
    rows = []
    for j in range(n_samples):
        angle = 2 * math.pi * s * j / n_samples
        rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        m = rot.T @ s0_matrix @ rot - 2 * math.pi * s * np.eye(2)
        rows.append((m[0, 0], m[0, 1], m[1, 1]))
    return AsymptoticOperator(tuple(rows))


def twisted_constant_trace(s0, epsilon):
    """tr Psi(1) of the crossing flow of every twisted constant loop of S0:
    tr exp(J0 (S0 + epsilon))."""
    det = (s0[0] + epsilon) * (s0[2] + epsilon) - s0[1] ** 2
    return 2 * math.cos(math.sqrt(det)) if det >= 0 else 2 * math.cosh(math.sqrt(-det))


@functools.lru_cache(maxsize=4)
def _gauss_point_samples(op, steps):
    """S at the two Gauss points of each of ``steps`` equal steps of [0, 1], as
    two arrays of 2x2 matrices, from a dense cos/sin sum over the modes
    0 <= k <= N/2 of the tiled samples (the Nyquist mode split evenly
    between +-N/2).  Kept per operator: epsilon is added afterwards, so the
    flows of one loop at several epsilons share one sum."""
    coeffs = tiled_coefficients(op)
    ks = np.arange(len(coeffs))
    coeffs = 2.0 * coeffs.reshape(len(ks), 4)
    coeffs[0] /= 2.0
    starts = np.arange(steps) / steps
    gauss = math.sqrt(3) / 6
    out = []
    for offset in (0.5 - gauss, 0.5 + gauss):
        phase = 2 * np.pi * np.outer(starts + offset / steps, ks)
        out.append((np.cos(phase) @ coeffs.real - np.sin(phase) @ coeffs.imag).reshape(-1, 2, 2))
    return out


def sequential_flow(op, epsilon, steps=2048):
    """(tr Psi(1), turns of Psi(t) e1 over [0, 1]) for Psi' = J0 (S + epsilon) Psi,
    Psi(0) = I, by fourth-order Magnus steps multiplied one after another,
    each new step on the left, in plain floats."""
    h = 1.0 / steps
    gauss = math.sqrt(3) / 6
    j0 = np.array([[0.0, -1.0], [1.0, 0.0]])
    a1, a2 = (j0 @ (s + epsilon * np.eye(2)) for s in _gauss_point_samples(op, steps))
    x = 0.5 * h * (a1 + a2) + 0.5 * gauss * h * h * (a2 @ a1 - a1 @ a2)
    w = np.sqrt(np.linalg.det(x).astype(complex))
    step = np.cos(w).real[:, None, None] * np.eye(2) + np.sinc(w / np.pi).real[:, None, None] * x
    psi = [(1.0, 0.0, 0.0, 1.0)]  # entries (00, 01, 10, 11) of Psi(t_j)
    for e00, e01, e10, e11 in step.reshape(-1, 4).tolist():
        a, b, c, d = psi[-1]
        psi.append((e00 * a + e01 * c, e00 * b + e01 * d, e10 * a + e11 * c, e10 * b + e11 * d))
    psi = np.array(psi)
    e1 = psi[:, 0] + 1j * psi[:, 2]
    turns = float(np.angle(e1[1:] * e1[:-1].conj()).sum()) / (2 * np.pi)
    return float(psi[-1, 0] + psi[-1, 3]), turns


def matrix_fourier_modes(op):
    """``op.fourier_modes`` from the FFT of one period of samples as 2x2
    matrices."""
    p, k = op.period, op.cover
    j = np.arange(p // 2 + 1)
    mats = np.array([((a, b), (b, c)) for a, b, c in op.samples[:p]])
    coeffs = k * (np.fft.fft(mats, axis=0)[j] / p)
    if p % 2 == 0:
        coeffs[-1] /= 2.0
    return op.mode_step * j, coeffs


def direct_magnus_steps(op, epsilon, steps):
    """(X, E): the Magnus exponents X_j as an array [entry, j] with the
    entries (p, q, r) of [[p, q], [r, -p]], and the steps E_j = exp(X_j) as
    an array [row, column, j], of Psi' = J0 (S + epsilon) Psi, with X formed
    from S + epsilon at the Gauss points of each step."""
    modes, coeffs, _ = op.real_series
    h = 1.0 / steps
    gauss = math.sqrt(3) / 6
    offsets = np.array([[0.5 - gauss], [0.5 + gauss]])
    terms = np.exp(2j * np.pi * h * (offsets * modes))[:, None, :] * coeffs
    folds = modes % steps
    mirrored = folds > steps // 2
    folds[mirrored] = steps - folds[mirrored]
    terms[:, :, mirrored] = terms[:, :, mirrored].conj()
    terms *= np.where((folds == 0) | (folds == steps // 2), steps, steps / 2)
    half = np.zeros((2, 3, steps // 2 + 1), dtype=complex)
    np.add.at(half, (slice(None), slice(None), folds), terms)
    s11, s12, s22 = np.fft.irfft(half, steps).transpose(1, 0, 2)
    (p1, p2), (q1, q2), (r1, r2) = -s12, -(s22 + epsilon), s11 + epsilon
    comm = 0.5 * gauss * h * h
    xp = 0.5 * h * (p1 + p2) + comm * (q2 * r1 - q1 * r2)
    xq = 0.5 * h * (q1 + q2) + 2 * comm * (p2 * q1 - p1 * q2)
    xr = 0.5 * h * (r1 + r2) + 2 * comm * (r2 * p1 - p2 * r1)
    det = -xp * xp - xq * xr
    w = np.sqrt(np.abs(det))
    cos, sin = np.cos(w), np.sin(w)
    hyperbolic = det < 0
    cos[hyperbolic], sin[hyperbolic] = np.cosh(w[hyperbolic]), np.sinh(w[hyperbolic])
    sinc = np.divide(sin, w, out=np.ones(steps), where=w > 0)
    step = np.array([[cos + sinc * xp, sinc * xq], [sinc * xr, cos - sinc * xp]])
    return np.array([xp, xq, xr]), step
