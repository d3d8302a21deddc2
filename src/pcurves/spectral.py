"""Numerical oracle for asymptotic operators on loops.

An asymptotic operator is A = -J0 d/dt - S(t) acting on loops R/Z -> R^2,
where S(t) is a loop of symmetric 2x2 matrices given by uniform samples.
A is real and the Fourier modes |m| <= T are closed under conjugation, so
the operator is discretized as a real symmetric matrix in the orthonormal
basis {1, sqrt2 cos 2 pi m t, sqrt2 sin 2 pi m t} x {e_1, e_2}, built from
the Fourier coefficients of the samples, and real eigensolves give its
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

A k-fold cover is kept as its simple orbit's samples and k.  S_k(t) =
k S(k t) has Fourier modes only at multiples of k, so in the real basis,
where cos and sin of mode m span the modes +-m, the truncated matrix
splits exactly into one block per residue class m = +-r (mod k), r = 0..k/2.
The counting argument holds block by block along t S_k: a block's
eigenvalues, ascending, have the windings +-m of its modes, each twice,
ascending.  The blocks' eigenvalues are merged by value; if the merged
windings decrease anywhere inside the window, the truncation is too low
for the cover and the oracle raises SpectralError.

All downstream winding arithmetic is exact; this module is the only place
floating point enters, and its outputs are snapped to integers with guards.
"""

import numbers
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
    """Loop of symmetric 2x2 matrices S(t_j) at t_j = j/N, as rows (s11, s12, s22),
    covered ``cover`` times: the operator of S_k(t) = k S(k t), k = cover."""

    samples: tuple  # tuple of (s11, s12, s22) floats
    cover: int = 1

    def __post_init__(self):
        rows = []
        for j, row in enumerate(self.samples):
            if len(row) != 3:
                raise ValidationError(f"sample {j} must have 3 entries (s11, s12, s22)")
            rows.append((float(row[0]), float(row[1]), float(row[2])))
        if len(rows) < MIN_SAMPLES:
            raise ValidationError(f"need at least {MIN_SAMPLES} samples, got {len(rows)}")
        if not isinstance(self.cover, numbers.Integral) or self.cover < 1:
            raise ValidationError(f"cover order must be an integer >= 1, got {self.cover!r}")
        object.__setattr__(self, "samples", tuple(rows))
        object.__setattr__(self, "cover", int(self.cover))
        # Hashed once: every spectrum cache lookup hashes its operator.
        object.__setattr__(self, "_hash", hash((self.samples, self.cover)))

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
        """Samples of S_k: the N samples of S, tiled k times."""
        return len(self.samples) * self.cover

    def _simple_matrices(self):
        return np.array([((a, b), (b, c)) for a, b, c in self.samples])

    def matrices(self):
        """S_k(j / (kN)) = k S(j/N mod 1) for j = 0..kN-1."""
        return np.tile(self.cover * self._simple_matrices(), (self.cover, 1, 1))

    def fourier_coefficients(self):
        """S_hat[m] = (1/kN) sum_j S_k(j/(kN)) e^{-2 pi i m j/(kN)} for m = 0..kN-1,
        so negative m index modulo kN.  S_k has modes only at multiples of k:
        S_hat[jk] = k c_j with c_j the coefficients of S, and exact zeros elsewhere."""
        k = self.cover
        coeffs = np.zeros((self.sample_count, 2, 2), dtype=complex)
        coeffs[::k] = k * (np.fft.fft(self._simple_matrices(), axis=0) / len(self.samples))
        return coeffs

    def pulled_back(self, k):
        """Operator of the k-fold covered orbit: S_k(t) = k * S(k t mod 1),
        kept as the same samples with the cover order multiplied by k."""
        if k < 1:
            raise ValidationError("cover order must be >= 1")
        if k == 1:
            return self
        return AsymptoticOperator(self.samples, self.cover * k)


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


def _real_matrix(op, truncation, modes):
    """Matrix of -J0 d/dt - S(t) in the orthonormal real basis
    {1, sqrt2 cos 2 pi m t, sqrt2 sin 2 pi m t : m in modes} x {e_1, e_2},
    ``modes`` ascending in 0..T; the constant 1 is there when mode 0 is.

    The constant comes first, then the cosine and sine of each nonzero mode
    in ascending order; this order keeps the matrix banded.  With c_k the
    Fourier coefficients of S (halved at the Nyquist mode k = N/2, zero
    beyond it), multiplication by S has the 2x2 blocks
        <cos_m, S cos_n> = Re(c_{m-n} + c_{m+n}),
        <sin_m, S sin_n> = Re(c_{m-n} - c_{m+n}),
        <cos_m, S sin_n> = Im(c_{m-n} - c_{m+n}),
    with the constant mode's rows and columns scaled by 1/sqrt2, and
    -J0 d/dt couples cos_m and sin_m through -+2 pi m J0.  With all modes
    0..T this is the Fourier-truncated complex Hermitian matrix on modes
    |m| <= T written in a real basis of the same span, so it has the same
    eigenvalues; with a set of modes that S does not couple to the others,
    it is that matrix's diagonal block on them.
    """
    n = op.sample_count
    t = truncation
    top = min(n // 2, 2 * t)
    c = np.zeros((2 * t + 1, 2, 2), dtype=complex)  # c_k for k = 0..2T
    c[: top + 1] = op.fourier_coefficients()[: top + 1]
    if n % 2 == 0 and n // 2 <= 2 * t:
        c[n // 2] /= 2.0
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


def discretized_spectrum(op, truncation):
    """Spectrum of the Fourier-truncated operator with windings.

    One eigensolve per residue class of modes m = +-r (mod k), r = 0..k/2,
    for a k-fold cover.  A block's windings are its modes +-m, each twice,
    in ascending order.  Only the middle half of all eigenvalues is kept
    (the reliable window); it must have nondecreasing windings.
    """
    if truncation < MIN_TRUNCATION:
        raise ValidationError(f"truncation must be >= {MIN_TRUNCATION}")
    k = op.cover
    modes = np.arange(truncation + 1)
    residue = np.minimum(modes % k, -modes % k)
    evals, windings = [], []
    for r in range(k // 2 + 1):
        block = modes[residue == r]
        evals.append(np.linalg.eigvalsh(_real_matrix(op, truncation, block)))
        windings.append(np.repeat(np.sort(np.r_[-block[block > 0], block]), 2))
    evals, windings = np.concatenate(evals), np.concatenate(windings)
    order = np.argsort(evals, kind="stable")
    evals, windings = evals[order], windings[order]
    diameter = float(evals[-1] - evals[0])
    first = len(evals) // 4
    window = slice(first, len(evals) - first)
    if (np.diff(windings[window]) < 0).any():
        raise SpectralError(
            f"windings of the {k}-fold cover's residue classes interleave inside the window;"
            " increase the truncation"
        )
    # Merge equal (eigenvalue, winding) pairs into multiplicity-2 entries.
    merge_tol = 1e-9 * max(diameter, 1.0)
    merged = []
    for lam, w in zip(evals[window].tolist(), windings[window].tolist()):
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
