"""Independent oracles used to freeze expected values.

The scalar-model oracle treats the constant loop S = theta * Id exactly:
the spectrum is {2 pi m - theta} with winding m, so extremal windings of
any perturbed cover reduce to exact rational comparisons (everything is
measured in units of pi).  It shares no code with the package.

The dense-Hermitian oracle discretizes -J0 d/dt - S(t) in the complex
Fourier basis e^{2 pi i m t}, |m| <= T, entry by entry, as a reference for
the package's real cos/sin basis.

The winding measurement computes eigenvectors of the package's real matrix
and counts the turning of each window eigenfunction on a fine grid, as a
check of the package's windings, which are counted from the eigenvalue
order alone.

A k-fold cover is checked against its tiled operator: the plain operator on
the kN samples of S_k(t) = k S(k t), whose spectrum is one eigensolve of
the full matrix, with no residue-class blocks.  The residue class of the
modes an extremal eigenfunction of that matrix occupies gives its covering
number independently of its winding.
"""

import cmath
import math
from fractions import Fraction

import numpy as np

from pcurves.spectral import AsymptoticOperator, _real_matrix


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


def tiled_rows(op):
    """Rows (s11, s12, s22) of S_k at the kN sample points of a k-fold cover."""
    return [(m[0, 0], m[0, 1], m[1, 1]) for m in op.matrices()]


def tiled_operator(op):
    """The plain operator on the tiled samples of ``op``: the same loop, with
    the cover forgotten."""
    return AsymptoticOperator(tuple(tiled_rows(op)))


def _full_matrix(op, truncation):
    return _real_matrix(tiled_operator(op), truncation, np.arange(truncation + 1))


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
