"""Numerical oracle for asymptotic operators on loops.

An asymptotic operator is A = -J0 d/dt - S(t) acting on loops R/Z -> R^2,
where S(t) is a loop of symmetric 2x2 matrices given by uniform samples.
The operator is discretized in a truncated Fourier basis; eigenvalues come
with the winding number of a real eigenfunction, and the middle half of the
computed spectrum is treated as reliable.  Within that window the winding
is nondecreasing in the eigenvalue and takes every integer value with
total multiplicity exactly two.

All downstream winding arithmetic is exact; this module is the only place
floating point enters, and its outputs are snapped to integers with guards.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SpectralError, ValidationError

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
        out = np.empty((self.sample_count, 2, 2))
        for j, (a, b, c) in enumerate(self.samples):
            out[j] = [[a, b], [b, c]]
        return out

    def fourier_coefficients(self):
        """S_hat[k] for k = 0..N//2 (the rest follow by conjugation)."""
        mats = self.matrices()  # (N, 2, 2)
        n = self.sample_count
        coeffs = np.fft.fft(mats, axis=0) / n  # S_hat[k] = (1/N) sum S_j e^{-2pi i k j/N}
        return coeffs  # indexable with negative k modulo N

    def pulled_back(self, k):
        """Operator of the k-fold covered orbit: S_k(t) = k * S(k t mod 1).

        With N uniform samples of S, the cover is sampled exactly at kN
        points by tiling: S_k(j / (kN)) = k * S(j/N mod 1).
        """
        if k < 1:
            raise ValidationError("cover order must be >= 1")
        if k == 1:
            return self
        rows = []
        for _ in range(k):
            for a, b, c in self.samples:
                rows.append((k * a, k * b, k * c))
        return AsymptoticOperator(tuple(rows))


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

    def window_bounds(self):
        return self.eigenpairs[0][0], self.eigenpairs[-1][0]

    def winding_counts(self):
        """Total multiplicity of each integer winding inside the window."""
        counts = {}
        for _, w, mult in self.eigenpairs:
            counts[w] = counts.get(w, 0) + mult
        return counts

    def eigenvalues_near(self, x, radius):
        return [
            (lam, w, mult)
            for lam, w, mult in self.eigenpairs
            if abs(lam - x) <= radius
        ]

    def alpha_at(self, epsilon):
        """Extremal windings of A + epsilon: windings just below/above -epsilon.

        Raises DegeneracyError when an eigenvalue sits at -epsilon (within
        tolerance), reporting the kernel winding.
        """
        from .errors import DegeneracyError

        x = -float(epsilon)
        lo, hi = self.window_bounds()
        tol = self.degeneracy_tol
        # Demand some margin so the neighbors of x are inside the window.
        if not (lo + tol < x < hi - tol):
            raise SpectralError(
                f"probe point {x:.6g} outside the reliable window [{lo:.6g}, {hi:.6g}];"
                " increase the truncation"
            )
        at = self.eigenvalues_near(x, tol)
        if at:
            raise DegeneracyError(
                f"operator has an eigenvalue at {x:.6g} (winding {at[0][1]})",
                kernel_winding=at[0][1],
            )
        below = [w for lam, w, _ in self.eigenpairs if lam < x - tol]
        above = [w for lam, w, _ in self.eigenpairs if lam > x + tol]
        if not below or not above:
            raise SpectralError("window does not bracket the probe point")
        return max(below), min(above)

    def kernel_dimension(self, tol=None):
        tol = self.degeneracy_tol if tol is None else tol
        return sum(mult for lam, _, mult in self.eigenpairs if abs(lam) <= tol)

    def gap_around_zero(self, tol=None):
        """Distance from 0 to the nearest nonzero eigenvalue in the window."""
        tol = self.degeneracy_tol if tol is None else tol
        nonzero = [abs(lam) for lam, _, _ in self.eigenpairs if abs(lam) > tol]
        if not nonzero:
            raise SpectralError("no nonzero eigenvalues inside the window")
        return min(nonzero)


def _hermitian_matrix(op, truncation):
    """Fourier-truncated matrix of -J0 d/dt - S(t) on modes |m| <= truncation."""
    n = op.sample_count
    coeffs = op.fourier_coefficients()
    kmax_avail = n // 2
    m_range = np.arange(-truncation, truncation + 1)
    dim = 2 * len(m_range)
    mat = np.zeros((dim, dim), dtype=complex)
    for i, m in enumerate(m_range):
        mat[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = -2j * np.pi * m * J0
        for j, mp in enumerate(m_range):
            k = m - mp
            if abs(k) > kmax_avail:
                continue
            ck = coeffs[k % n]
            if n % 2 == 0 and abs(k) == n // 2:
                ck = ck / 2.0
            mat[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] -= ck
    return mat, m_range


def _winding_of_vector(vec, m_range, refinement=8):
    """Winding number of a real eigenfunction built from the Fourier vector.

    ``vec`` holds C^2 Fourier coefficients per mode; the underlying real
    eigenfunction is Re(e^{i phi} u(t)) for a phase chosen away from the
    degenerate directions.  Counting uses argument accumulation on a uniform
    grid, refined until each step is unambiguous.
    """
    n_modes = len(m_range)
    u_modes = vec.reshape(n_modes, 2)
    top = int(np.max(np.abs(m_range)))
    base_grid = max(64, 8 * (top + 1))
    for attempt in range(4):
        grid = base_grid * (refinement**attempt)
        t = np.arange(grid) / grid
        phases = np.exp(2j * np.pi * np.outer(t, m_range))  # (grid, modes)
        u = phases @ u_modes  # (grid, 2) complex
        scale = np.sqrt(np.abs(u[:, 0]) ** 2 + np.abs(u[:, 1]) ** 2).max()
        for phase in (1.0, np.exp(0.25j * np.pi), 1j, np.exp(0.75j * np.pi)):
            w = (phase * u).real
            eta = w[:, 0] + 1j * w[:, 1]
            mags = np.abs(eta)
            # The real representative must both stay away from zero and
            # carry a nontrivial share of the complex eigenfunction;
            # otherwise it is numerical noise.
            if mags.min() < 1e-6 * scale:
                continue
            args = np.angle(eta)
            steps = np.diff(np.concatenate([args, args[:1]]))
            steps = (steps + np.pi) % (2 * np.pi) - np.pi
            if np.max(np.abs(steps)) > 0.5 * np.pi:
                continue
            total = steps.sum() / (2 * np.pi)
            nearest = round(total)
            if abs(total - nearest) < 1e-2:
                return int(nearest)
    raise SpectralError("winding extraction failed to converge (eigenfunction too degenerate)")


def _batched_windings(evecs, m_range, indices):
    """First-pass winding extraction for many eigenvectors on one shared
    grid; returns a dict index -> winding for the ones that resolve cleanly,
    leaving the rest for the per-vector fallback."""
    n_modes = len(m_range)
    top = int(np.max(np.abs(m_range)))
    grid = max(64, 8 * (top + 1))
    t = np.arange(grid) / grid
    phases = np.exp(2j * np.pi * np.outer(t, m_range))  # (grid, modes)
    block = evecs[:, indices].reshape(n_modes, 2, len(indices))
    u = np.einsum("gm,mcv->gcv", phases, block)  # (grid, 2, nvec)
    scale = np.sqrt(np.abs(u[:, 0, :]) ** 2 + np.abs(u[:, 1, :]) ** 2).max(axis=0)
    out = {}
    for phase in (1.0, np.exp(0.25j * np.pi), 1j):
        w = (phase * u).real
        eta = w[:, 0, :] + 1j * w[:, 1, :]
        mags = np.abs(eta)
        args = np.angle(eta)
        steps = np.diff(np.concatenate([args, args[:1]]), axis=0)
        steps = (steps + np.pi) % (2 * np.pi) - np.pi
        total = steps.sum(axis=0) / (2 * np.pi)
        ok = (
            (mags.min(axis=0) > 1e-6 * scale)
            & (np.abs(steps).max(axis=0) < 0.5 * np.pi)
            & (np.abs(total - np.round(total)) < 1e-2)
        )
        for pos, idx in enumerate(indices):
            if idx not in out and ok[pos]:
                out[idx] = int(np.round(total[pos]))
        if len(out) == len(indices):
            break
    return out


def discretized_spectrum(op, truncation):
    """Spectrum of the Fourier-truncated operator with windings.

    Only the middle half of the eigenvalues is kept (the reliable window);
    within it the winding must be nondecreasing.
    """
    if truncation < MIN_TRUNCATION:
        raise ValidationError(f"truncation must be >= {MIN_TRUNCATION}")
    mat, m_range = _hermitian_matrix(op, truncation)
    evals, evecs = np.linalg.eigh(mat)
    dim = len(evals)
    diameter = float(evals[-1] - evals[0])
    lo = dim // 4
    hi = dim - dim // 4
    indices = list(range(lo, hi))
    resolved = _batched_windings(evecs, m_range, indices)
    pairs = []
    for idx in indices:
        w = resolved.get(idx)
        if w is None:
            w = _winding_of_vector(evecs[:, idx], m_range)
        pairs.append((float(evals[idx]), w))
    # Merge equal (eigenvalue, winding) pairs into multiplicity-2 entries.
    merge_tol = 1e-9 * max(diameter, 1.0)
    merged = []
    for lam, w in pairs:
        if merged and merged[-1][1] == w and abs(merged[-1][0] - lam) <= merge_tol and merged[-1][2] == 1:
            lam0, w0, _ = merged[-1]
            merged[-1] = (0.5 * (lam0 + lam), w0, 2)
        else:
            merged.append((lam, w, 1))
    return SpectralData(eigenpairs=tuple(merged), truncation=truncation, diameter=diameter)


class SpectrumCache:
    """Memoizes spectra keyed by (operator samples, truncation)."""

    def __init__(self):
        self._store = {}

    def get(self, op, truncation):
        key = (op.samples, truncation)
        if key not in self._store:
            self._store[key] = discretized_spectrum(op, truncation)
        return self._store[key]


GLOBAL_SPECTRUM_CACHE = SpectrumCache()
