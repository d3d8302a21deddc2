"""Computations made apart from pcurves: seeded inputs and the references
the benchmark checks the program's outputs against.

A loop S(t) of symmetric 2x2 matrices is kept as trigonometric
coefficients, so its Fourier coefficients are known in closed form instead
of being read off samples.  Nothing here imports pcurves.
"""

import math
from fractions import Fraction

import numpy as np

TWO_PI = 2.0 * math.pi
J0 = np.array([[0.0, -1.0], [1.0, 0.0]])
SAMPLES = 64
# The reference solve keeps this many Fourier modes more than the program.
# The program keeps only the middle half of its spectrum, windings within
# about T/2 of 0, so the reference's truncation error there is below 1e-11
# on every loop the workloads make, 6-fold covers included.
REFERENCE_EXTRA_MODES = 32
# A cover ladder's perturbations and scalar angles count as well away from
# degeneracy at this distance; the program's own degeneracy tolerance is
# 1e-8 x diameter (about 2e-5).
SAFE_MARGIN = 0.05


class _Loop:
    """A loop given by ``at(t)``, the matrices S(t) for an array of times."""

    def samples(self, n=SAMPLES):
        """Rows (s11, s12, s22) at t_j = j / n, the program's input format."""
        m = self.at(np.arange(n) / n)
        return [[float(x[0, 0]), float(x[0, 1]), float(x[1, 1])] for x in m]


class TrigLoop(_Loop):
    """S(t) = sum_d cos_c[d] cos(2 pi d t) + sin_c[d] sin(2 pi d t).

    ``cos_c`` and ``sin_c`` have shape (degree + 1, 2, 2) and hold symmetric
    matrices; ``sin_c[0]`` is unused.
    """

    def __init__(self, cos_c, sin_c):
        self.cos_c = np.asarray(cos_c, dtype=float)
        self.sin_c = np.asarray(sin_c, dtype=float)

    @property
    def degree(self):
        return len(self.cos_c) - 1

    @classmethod
    def random(cls, rng, degree, scale):
        """Entries uniform in [-scale, scale] for every cos/sin term."""
        cos_c = np.zeros((degree + 1, 2, 2))
        sin_c = np.zeros((degree + 1, 2, 2))
        for d in range(degree + 1):
            for target in (cos_c, sin_c) if d else (cos_c,):
                a, b, c = rng.uniform(-scale, scale, size=3)
                target[d] = [[a, b], [b, c]]
        return cls(cos_c, sin_c)

    def fourier(self):
        """{k: S_hat_k} for |k| <= degree, S(t) = sum_k S_hat_k e^{2 pi i k t}."""
        out = {0: self.cos_c[0].astype(complex)}
        for d in range(1, self.degree + 1):
            out[d] = 0.5 * (self.cos_c[d] - 1j * self.sin_c[d])
            out[-d] = 0.5 * (self.cos_c[d] + 1j * self.sin_c[d])
        return out

    def at(self, t):
        t = np.asarray(t, dtype=float)
        d = np.arange(self.degree + 1)
        cos = np.cos(TWO_PI * np.outer(t, d))
        sin = np.sin(TWO_PI * np.outer(t, d))
        return np.einsum("td,dij->tij", cos, self.cos_c) + np.einsum(
            "td,dij->tij", sin, self.sin_c
        )

    def norm_bound(self, grid=8192):
        """An upper bound of max_t ||S(t)|| (spectral norm): the maximum on
        a grid plus half a grid step times a Lipschitz constant."""
        return _norm_bound(self.at(np.arange(grid) / grid), self._lipschitz(), grid)

    def _lipschitz(self):
        d = np.arange(self.degree + 1)
        norms = np.linalg.norm(self.cos_c, axis=(1, 2)) + np.linalg.norm(self.sin_c, axis=(1, 2))
        return float(np.sum(TWO_PI * d * norms))

    def twin(self, s):
        """The rotated twin S' = R_s^T S R_s - 2 pi s Id, R_s(t) = exp(2 pi s J0 t)."""
        return RotatedLoop(self, s)


class RotatedLoop(_Loop):
    """Samples and norm bound of a rotated twin; its spectrum is its base's."""

    def __init__(self, base, s):
        self.base = base
        self.s = int(s)

    def at(self, t):
        t = np.asarray(t, dtype=float)
        angle = TWO_PI * self.s * t
        cos, sin = np.cos(angle), np.sin(angle)
        rot = np.empty((len(t), 2, 2))
        rot[:, 0, 0], rot[:, 0, 1], rot[:, 1, 0], rot[:, 1, 1] = cos, -sin, sin, cos
        out = np.einsum("tji,tjk,tkl->til", rot, self.base.at(t), rot)
        out[:, 0, 0] -= TWO_PI * self.s
        out[:, 1, 1] -= TWO_PI * self.s
        return out

    def norm_bound(self, grid=8192):
        # Conjugation keeps the eigenvalues of S(t), so the eigenvalues
        # p +- |z| of the twin move only by the constant shift.
        return _norm_bound(self.at(np.arange(grid) / grid), self.base._lipschitz(), grid)


def _norm_bound(mats, lipschitz, grid):
    return float(np.abs(np.linalg.eigvalsh(mats)).max() + lipschitz / (2 * grid))


def reference_eigenvalues(fourier, truncation):
    """Sorted eigenvalues of -J0 d/dt - S on Fourier modes |m| <= truncation,
    counted with multiplicity; ``fourier`` maps k to S_hat_k."""
    modes = np.arange(-truncation, truncation + 1)
    n = len(modes)
    h = np.zeros((n, 2, n, 2), dtype=complex)
    diag = np.arange(n)
    h[diag, :, diag, :] = (-2j * math.pi * modes)[:, None, None] * J0
    for k, coeff in fourier.items():
        if abs(k) >= n:
            continue
        rows = np.arange(max(k, 0), n + min(k, 0))
        h[rows, :, rows - k, :] -= coeff
    return np.linalg.eigvalsh(h.reshape(2 * n, 2 * n))


def cover_fourier(fourier, k):
    """Fourier coefficients of the k-fold cover S_k(t) = k S(k t)."""
    return {k * d: k * c for d, c in fourier.items()}


def reference_for(truncation):
    """Truncation of the reference solve for the program's window at ``truncation``."""
    return truncation + REFERENCE_EXTRA_MODES


def distance_to_spectrum(eigenvalues, x):
    return float(np.min(np.abs(np.asarray(eigenvalues) - x)))


def choose_epsilon(eigenvalues, preferred):
    """A perturbation eps near ``preferred``, searched outward in steps of
    1/64, with -eps at least 0.25 from the spectrum."""
    start = Fraction(preferred).limit_denominator(1024)
    for j in range(256):
        for eps in (start + Fraction(j, 64), start - Fraction(j, 64)):
            if distance_to_spectrum(eigenvalues, -float(eps)) > 0.25:
                return eps
    raise ValueError("no perturbation well away from the spectrum")


def choose_ladder_deltas(spectra_by_k):
    """Perturbations (delta, delta2) for a cover ladder: the base is probed
    at delta and -delta2, the k-fold cover at k * delta.  Picks the pair of
    multiples of 1/64 in (0, 1/4] farthest from every spectrum involved."""
    candidates = [Fraction(j, 64) for j in range(1, 17)]

    def margin_delta(d):
        return min(
            distance_to_spectrum(lams, -float(k * d)) / k for k, lams in spectra_by_k.items()
        )

    def margin_delta2(d):
        return distance_to_spectrum(spectra_by_k[1], float(d))

    delta = max(candidates, key=margin_delta)
    delta2 = max(candidates, key=margin_delta2)
    if min(margin_delta(delta), margin_delta2(delta2)) < SAFE_MARGIN / 6:
        raise ValueError("no ladder perturbation well away from the spectrum")
    return delta, delta2


class ScalarModel:
    """Exact data of the constant loop S = c Id, c = theta * pi, and its covers.

    The k-fold cover has S = k c Id, spectrum {2 pi m - k c} with winding m
    and multiplicity 2, so every extremal winding is a floor or a ceiling.
    """

    def __init__(self, theta):
        self.c = float(theta) * math.pi

    def eigenpairs(self, k, lo, hi):
        """(eigenvalue, winding, multiplicity) with eigenvalue in [lo, hi]."""
        m_lo = math.ceil((lo + k * self.c) / TWO_PI)
        m_hi = math.floor((hi + k * self.c) / TWO_PI)
        return [(TWO_PI * m - k * self.c, m, 2) for m in range(m_lo, m_hi + 1)]

    def _ratio(self, k, eps):
        # 2 pi m - k c + eps < 0  iff  m < (k c - eps) / (2 pi)
        return (k * self.c - float(eps)) / TWO_PI

    def alpha_minus(self, k, eps):
        return math.ceil(self._ratio(k, eps)) - 1

    def alpha_plus(self, k, eps):
        return math.floor(self._ratio(k, eps)) + 1

    def alpha_strict(self, k, side):
        """Extremal winding of the unperturbed cover, kernel excluded; the
        inputs keep the kernel empty, so this is alpha at eps = 0."""
        return self.alpha_minus(k, 0) if side == "-" else self.alpha_plus(k, 0)

    def margin(self, k, eps):
        """Distance from -eps to the spectrum of the k-fold cover."""
        r = self._ratio(k, eps)
        return TWO_PI * abs(r - round(r))

    def q(self, k, delta, side):
        if side == "-":
            return self.alpha_minus(k, k * delta) - k * self.alpha_minus(1, delta)
        return k * self.alpha_plus(1, delta) - self.alpha_plus(k, k * delta)

    def omega(self, m, eps_m, n, eps_n, sign):
        """Omega of the perturbed m- and n-fold covers."""
        if sign == "+":
            ta = Fraction(-self.alpha_minus(m, eps_m), m)
            tb = Fraction(-self.alpha_minus(n, eps_n), n)
        else:
            ta = Fraction(self.alpha_plus(m, eps_m), m)
            tb = Fraction(self.alpha_plus(n, eps_n), n)
        value = m * n * min(ta, tb)
        if value.denominator != 1:
            raise ValueError("Omega of covers of one orbit is an integer")
        return int(value)

    def cov(self, k, side):
        alpha = self.alpha_strict(k, side)
        return math.gcd(k, abs(alpha)) if alpha else k

    def omega_self(self, k, sign):
        side = "-" if sign == "+" else "+"
        alpha = self.alpha_strict(k, side)
        slope = -(k - 1) if sign == "+" else (k - 1)
        return slope * alpha + self.cov(k, side) - 1


def random_scalar_theta(rng, delta, delta2, ladder):
    """theta in (-3, 3) whose covers k in ``ladder`` stay well away from
    degeneracy unperturbed and at the ladder perturbations."""
    while True:
        theta = Fraction(rng.uniform(-3.0, 3.0)).limit_denominator(4096)
        model = ScalarModel(theta)
        margins = [model.margin(1, -delta2)]
        for k in ladder:
            margins += [model.margin(k, 0), model.margin(k, k * delta)]
        if min(margins) > SAFE_MARGIN:
            return theta
