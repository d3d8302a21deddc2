"""Numerical oracle for asymptotic operators on loops.

An asymptotic operator is A = -J0 d/dt - S(t) acting on loops R/Z -> R^2,
where S(t) is a loop of symmetric 2x2 matrices given by uniform samples.
A is real and the Fourier modes |m| <= T are closed under conjugation, so
the operator is discretized as a real symmetric matrix in the orthonormal
basis {1, sqrt2 cos 2 pi m t, sqrt2 sin 2 pi m t} x {e_1, e_2}, built from
the Fourier coefficients of the samples, and one real eigensolve gives its
eigenvalues.  The middle half of the computed spectrum is treated as
reliable.

Windings are counted, not measured.  In dimension 2 the eigenvalues of an
asymptotic operator are nondecreasing in the winding of their
eigenfunctions, and every integer winding has total multiplicity exactly
two (Hofer-Wysocki-Zehnder, Properties of pseudoholomorphic curves in
symplectisations II, section 3).  At S = 0 the truncated matrix has the
eigenvalues 2 pi w, |w| <= T, each twice; along t S, t in [0, 1],
eigenvalues of different windings never meet.  So inside the window the
j-th eigenvalue (0-based, ascending) has winding j // 2 - T, and no
eigenvector is computed.

All downstream winding arithmetic is exact; this module is the only place
floating point enters, and its outputs are snapped to integers with guards.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, SpectralError, ValidationError

J0 = np.array([[0.0, -1.0], [1.0, 0.0]])

MIN_SAMPLES = 16
MIN_TRUNCATION = 8
#: Fourier truncation used when neither the caller nor the environment sets one
DEFAULT_TRUNCATION = 64
SYMMETRY_TOL = 1e-12
#: relative tolerance (times spectral diameter) below which an eigenvalue
#: counts as sitting exactly at the probed point
DEGENERACY_REL_TOL = 1e-8


@dataclass(frozen=True)
class AsymptoticOperator:
    """Loop of symmetric 2x2 matrices S(t_j) at t_j = j/N, as rows (s11, s12, s22)."""

    samples: tuple  # tuple of (s11, s12, s22) floats

    def __post_init__(self):
        rows = []
        for j, row in enumerate(self.samples):
            if len(row) != 3:
                raise ValidationError(f"sample {j} must have 3 entries (s11, s12, s22)")
            rows.append((float(row[0]), float(row[1]), float(row[2])))
        if len(rows) < MIN_SAMPLES:
            raise ValidationError(f"need at least {MIN_SAMPLES} samples, got {len(rows)}")
        object.__setattr__(self, "samples", tuple(rows))
        # Hashed once: every spectrum cache lookup hashes its operator.
        object.__setattr__(self, "_hash", hash(self.samples))

    def __hash__(self):
        return self._hash

    @classmethod
    def from_matrices(cls, mats):
        rows = []
        for j, m in enumerate(mats):
            m = np.asarray(m, dtype=float)
            if m.shape != (2, 2):
                raise ValidationError(f"sample {j} is not 2x2")
            if abs(m[0, 1] - m[1, 0]) > SYMMETRY_TOL * max(1.0, np.abs(m).max()):
                raise ValidationError(f"sample {j} is not symmetric within tolerance")
            sym = 0.5 * (m + m.T)
            rows.append((sym[0, 0], sym[0, 1], sym[1, 1]))
        return cls(tuple(rows))

    @classmethod
    def constant(cls, s11, s12, s22, n_samples=32):
        return cls(tuple((float(s11), float(s12), float(s22)) for _ in range(n_samples)))

    @property
    def sample_count(self):
        return len(self.samples)

    def matrices(self):
        return np.array([((a, b), (b, c)) for a, b, c in self.samples])

    def fourier_coefficients(self):
        """S_hat[k] = (1/N) sum_j S(t_j) e^{-2 pi i k j/N} for k = 0..N-1,
        so negative k index modulo N."""
        return np.fft.fft(self.matrices(), axis=0) / self.sample_count

    def pulled_back(self, k):
        """Operator of the k-fold covered orbit: S_k(t) = k * S(k t mod 1).

        With N uniform samples of S, the cover is sampled exactly at kN
        points by tiling: S_k(j / (kN)) = k * S(j/N mod 1).
        """
        if k < 1:
            raise ValidationError("cover order must be >= 1")
        if k == 1:
            return self
        return AsymptoticOperator(tuple((k * a, k * b, k * c) for a, b, c in self.samples) * k)


@dataclass(frozen=True)
class SpectralData:
    """Reliable-window eigenvalues with windings.

    ``eigenpairs`` is a tuple of (eigenvalue, winding, multiplicity) sorted by
    eigenvalue, restricted to the middle half of the computed spectrum.
    ``diameter`` is the full computed spectral diameter, used for tolerances.
    """

    eigenpairs: tuple
    truncation: int
    diameter: float

    def __post_init__(self):
        w_prev = None
        for lam, w, mult in self.eigenpairs:
            if mult not in (1, 2):
                raise ValidationError("eigenvalue multiplicity must be 1 or 2")
            if w_prev is not None and w < w_prev:
                raise ValidationError("windings must be nondecreasing in the eigenvalue")
            w_prev = w

    @property
    def degeneracy_tol(self):
        return DEGENERACY_REL_TOL * self.diameter

    def winding_counts(self):
        """Total multiplicity of each integer winding inside the window."""
        counts = {}
        for _, w, mult in self.eigenpairs:
            counts[w] = counts.get(w, 0) + mult
        return counts

    def alpha_at(self, epsilon):
        """Extremal windings of A + epsilon: windings just below/above -epsilon.

        Raises DegeneracyError when an eigenvalue sits at -epsilon (within
        tolerance), reporting the kernel winding.
        """
        x = -float(epsilon)
        lo, hi = self.eigenpairs[0][0], self.eigenpairs[-1][0]
        tol = self.degeneracy_tol
        # Demand some margin so the neighbors of x are inside the window.
        if not (lo + tol < x < hi - tol):
            raise SpectralError(
                f"probe point {x:.6g} outside the reliable window [{lo:.6g}, {hi:.6g}];"
                " increase the truncation"
            )
        at = [w for lam, w, _ in self.eigenpairs if abs(lam - x) <= tol]
        if at:
            raise DegeneracyError(
                f"operator has an eigenvalue at {x:.6g} (winding {at[0]})", kernel_winding=at[0]
            )
        # The margin above puts the window's first eigenvalue below x and its last above.
        below = [w for lam, w, _ in self.eigenpairs if lam < x - tol]
        above = [w for lam, w, _ in self.eigenpairs if lam > x + tol]
        return max(below), min(above)

    def kernel_dimension(self):
        return sum(mult for lam, _, mult in self.eigenpairs if abs(lam) <= self.degeneracy_tol)

    def gap_around_zero(self):
        """Distance from 0 to the nearest nonzero eigenvalue in the window."""
        nonzero = [abs(lam) for lam, _, _ in self.eigenpairs if abs(lam) > self.degeneracy_tol]
        if not nonzero:
            raise SpectralError("no nonzero eigenvalues inside the window")
        return min(nonzero)


def _real_matrix(op, truncation):
    """Matrix of -J0 d/dt - S(t) in the orthonormal real basis
    {1, sqrt2 cos 2 pi m t, sqrt2 sin 2 pi m t : 1 <= m <= T} x {e_1, e_2}.

    Basis function 0 is the constant, 2m - 1 the cosine and 2m the sine
    of mode m; this order keeps the matrix banded.  With c_k the Fourier
    coefficients of S (halved at the Nyquist mode k = N/2, zero beyond
    it), multiplication by S has the 2x2 blocks
        <cos_m, S cos_n> = Re(c_{m-n} + c_{m+n}),
        <sin_m, S sin_n> = Re(c_{m-n} - c_{m+n}),
        <cos_m, S sin_n> = Im(c_{m-n} - c_{m+n}),
    with the constant mode's rows and columns scaled by 1/sqrt2, and
    -J0 d/dt couples cos_m and sin_m through -+2 pi m J0.  This is the
    Fourier-truncated complex Hermitian matrix on modes |m| <= T written
    in a real basis of the same span, so it has the same eigenvalues.
    """
    n = op.sample_count
    t = truncation
    top = min(n // 2, 2 * t)
    c = np.zeros((2 * t + 1, 2, 2), dtype=complex)  # c_k for k = 0..2T
    c[: top + 1] = op.fourier_coefficients()[: top + 1]
    if n % 2 == 0 and n // 2 <= 2 * t:
        c[n // 2] /= 2.0
    c = np.concatenate([c[:0:-1].conj(), c])  # c_k for k = -2T..2T at k + 2T
    m = np.arange(t + 1)
    diff = c[m[:, None] - m[None, :] + 2 * t]
    plus = c[m[:, None] + m[None, :] + 2 * t]
    cs = (diff - plus).imag[:, 1:]
    cos = np.r_[0, 1 : 2 * t : 2]
    sin = np.arange(2, 2 * t + 1, 2)
    blocks = np.empty((2 * t + 1, 2 * t + 1, 2, 2))
    blocks[np.ix_(cos, cos)] = (diff + plus).real
    blocks[np.ix_(cos, sin)] = cs
    blocks[np.ix_(sin, cos)] = cs.transpose(1, 0, 3, 2)
    blocks[np.ix_(sin, sin)] = (diff - plus).real[1:, 1:]
    blocks[0] /= np.sqrt(2.0)
    blocks[:, 0] /= np.sqrt(2.0)
    mat = -blocks.transpose(0, 2, 1, 3)
    m = m[1:]
    mat[2 * m - 1, :, 2 * m, :] -= (2 * np.pi * m)[:, None, None] * J0
    mat[2 * m, :, 2 * m - 1, :] += (2 * np.pi * m)[:, None, None] * J0
    return mat.reshape(2 * (2 * t + 1), 2 * (2 * t + 1))


def discretized_spectrum(op, truncation):
    """Spectrum of the Fourier-truncated operator with windings.

    Only the middle half of the eigenvalues is kept (the reliable window).
    The j-th eigenvalue (0-based, ascending) has winding j // 2 - T.
    """
    if truncation < MIN_TRUNCATION:
        raise ValidationError(f"truncation must be >= {MIN_TRUNCATION}")
    evals = np.linalg.eigvalsh(_real_matrix(op, truncation))
    diameter = float(evals[-1] - evals[0])
    first = len(evals) // 4
    # Merge equal (eigenvalue, winding) pairs into multiplicity-2 entries.
    merge_tol = 1e-9 * max(diameter, 1.0)
    merged = []
    for j, lam in enumerate(evals[first : len(evals) - first].tolist(), first):
        w = j // 2 - truncation
        last = merged[-1] if merged else None
        if last and last[1] == w and last[2] == 1 and abs(last[0] - lam) <= merge_tol:
            merged[-1] = (0.5 * (last[0] + lam), w, 2)
        else:
            merged.append((lam, w, 1))
    return SpectralData(eigenpairs=tuple(merged), truncation=truncation, diameter=diameter)


class SpectrumCache:
    """Memoizes spectra keyed by (operator, truncation)."""

    def __init__(self):
        self._store = {}

    def get(self, op, truncation):
        key = (op, truncation)
        if key not in self._store:
            self._store[key] = discretized_spectrum(op, truncation)
        return self._store[key]


GLOBAL_SPECTRUM_CACHE = SpectrumCache()
