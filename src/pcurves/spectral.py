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

The samples of S repeat with an exact period p dividing N (compared
exactly, with no tolerance), and a k-fold cover is kept as its simple
orbit's samples and k.  S_k(t) = k S(k t) then has Fourier modes only at
multiples of the mode step s = kN/p, so in the real basis, where cos and
sin of mode m span the modes +-m, the truncated matrix splits exactly into
one block per residue class m = +-r (mod s), r = 0..s/2, that holds a mode
|m| <= T.  A cover is the case s = k of a loop that does not repeat.  The
block of class r lays out its modes as the progressions r + js and
s - r + js, j >= 0, one after the other, or as one progression at r = 0
(the constant's class) and r = s/2.  Blocks of one size are solved as one
stack.  The counting argument holds block by block along t S_k: a block's
eigenvalues, ascending, have the windings +-m of its modes, each twice,
ascending.  The blocks' eigenvalues are merged by value; if the merged
windings decrease anywhere inside the window, the truncation is too low
for the loop and the oracle raises SpectralError.

A loop with no mode in 1..2T, constant (p = 1) or of mode step s > 2T,
couples no two modes |m| <= T: its truncated operator is that of its mean,
a constant loop, whose every mode has a closed-form spectrum with windings
+-m.  That form also fixes the order of the eigenvalues and every
multiplicity, so the window is written directly, in plain Python, with no
eigensolve, sort or merge; a mean or spectrum beyond the float range is a
SpectralError.  numpy is imported only for the loops solved in blocks, the
Fourier modes and matrices of the samples, and the flow.

All downstream winding arithmetic is exact.  Floating point enters only
here and in ``flow.py`` (the crossing flow and the windings of sampled
loops), and what both hand on is snapped to integers with guards.
"""

import math
import numbers
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

from .errors import DegeneracyError, SpectralError, ValidationError
from .records import record

#: sides of 0 in the spectrum, spelled as puncture signs are
SIDE_MINUS = "-"
SIDE_PLUS = "+"

MIN_SAMPLES = 16
MIN_TRUNCATION = 8
#: Fourier truncation used when neither the caller nor the environment sets one
DEFAULT_TRUNCATION = 64
SYMMETRY_TOL = 1e-12
#: relative tolerance (times spectral diameter) below which an eigenvalue
#: counts as sitting exactly at the probed point
DEGENERACY_REL_TOL = 1e-8


@record
class AsymptoticOperator:
    """Loop of symmetric 2x2 matrices S(t_j) at t_j = j/N, as rows (s11, s12, s22),
    covered ``cover`` times: the operator of S_k(t) = k S(k t), k = cover.
    ``period`` is the least p with S(t_j) = S(t_{j mod p}) for every j."""

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
        self._set(tuple(rows), _integer(self.cover, 1, "cover order"))

    def _set(self, samples, cover, period=None):
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "cover", cover)
        object.__setattr__(self, "period", period or _exact_period(samples))
        # Hashed once: every spectrum cache lookup hashes its operator.
        object.__setattr__(self, "_hash", hash((samples, cover)))

    def __hash__(self):
        return self._hash

    @classmethod
    def from_matrices(cls, mats):
        import numpy as np

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

    @property
    def mode_step(self):
        """s = kN/p: the Fourier modes of S_k are multiples of s."""
        return self.cover * len(self.samples) // self.period

    def matrices(self):
        """S_k(j / (kN)) = k S(j/N mod 1) for j = 0..kN-1."""
        import numpy as np

        return np.tile(self.cover * _matrices(self.samples), (self.cover, 1, 1))

    @cached_property
    def fourier_modes(self):
        """(m, a_m) for the modes m = sj, j = 0..p/2, of S_k, s = mode_step,
        the only modes 0 <= m <= kN/2 where it can be nonzero: a_m = k c_j
        with c_j the coefficients of one period of p samples.  At even p the
        Nyquist mode j = p/2 is halved, so that it is split evenly between
        +-m.  Computed once per operator, as read-only arrays."""
        import numpy as np

        p, k = self.period, self.cover
        j = np.arange(p // 2 + 1)
        # One FFT of the rows (s11, s12, s22), read as symmetric matrices.
        coeffs = k * (np.fft.fft(np.array(self.samples[:p]), axis=0)[j] / p)
        if p % 2 == 0:
            coeffs[-1] /= 2.0
        return _read_only(self.mode_step * j), _read_only(coeffs[:, [[0, 1], [1, 2]]])

    @cached_property
    def real_series(self):
        """(m, a, bound) of the real series S_k(t) = Re sum of a_m e^{2 pi i m t}
        over the modes m of ``fourier_modes``: a_m is twice the coefficient
        of mode m there, and once it at m = 0, kept as the rows (s11, s12,
        s22) of ``a``, of shape (3, modes).  The Frobenius norms of the a_m
        bound their operator norms, so their sum ``bound`` is at least
        |S_k(t)| at every t.  Computed once per operator, as read-only
        arrays."""
        import numpy as np

        modes, coeffs = self.fourier_modes
        a = 2.0 * coeffs.reshape(-1, 4)[:, [0, 1, 3]]
        a[0] /= 2.0
        bound = float(np.sqrt(np.abs(a) ** 2 @ [1.0, 2.0, 1.0]).sum())
        return modes, _read_only(a.T), bound

    @cached_property
    def magnus_exponents(self):
        """Step count -> the crossing flow's Magnus exponents at epsilon = 0
        and their slopes in epsilon, of both its passes (h = 1 / steps and
        2h) in one array (``flow._magnus_exponent``), filled by the flows of
        the operator at each step count that one of them starts from.  Kept
        with the operator, as read-only arrays, and no part of its value."""
        return {}

    def pulled_back(self, k):
        """Operator of the k-fold covered orbit: S_k(t) = k * S(k t mod 1),
        kept as the same samples with the cover order multiplied by k."""
        k = _integer(k, 1, "cover order")
        if k == 1:
            return self
        # The samples are validated already; only the cover order is new.
        pulled = object.__new__(AsymptoticOperator)
        pulled._set(self.samples, self.cover * k, self.period)
        return pulled


def _read_only(array):
    array.flags.writeable = False
    return array


def _matrices(rows):
    import numpy as np

    return np.array([((a, b), (b, c)) for a, b, c in rows])


def _exact_period(samples):
    """The least p dividing N with samples[j] == samples[j % p] for every j,
    compared exactly."""
    n = len(samples)
    for p in range(1, n):
        if n % p == 0 and all(samples[j] == samples[j - p] for j in range(p, n)):
            return p
    return n


def _integer(value, minimum, what):
    """``value`` as an int: an integer, not a bool, of at least ``minimum``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < minimum:
        raise ValidationError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return int(value)


@record
class SpectralData:
    """Reliable-window eigenvalues with windings.

    ``eigenpairs`` is a tuple of (eigenvalue, winding, multiplicity) sorted by
    eigenvalue, restricted to the middle half of the computed spectrum.
    ``diameter`` is the full computed spectral diameter, used for tolerances.
    The methods below make every decision that depends on a tolerance: which
    eigenvalues sit at a point, and so the windings, nu, the kernel and the gap.
    """

    eigenpairs: tuple
    diameter: float

    def __post_init__(self):
        w_prev = None
        for lam, w, mult in self.eigenpairs:
            if mult not in (1, 2):
                raise ValidationError("eigenvalue multiplicity must be 1 or 2")
            if w_prev is not None and w < w_prev:
                raise ValidationError("windings must be nondecreasing in the eigenvalue")
            w_prev = w
        # Built once for the decisions: the window's columns as plain tuples,
        # searched by eigenvalue, the tolerance, and the split around 0.
        lams, windings, mults = zip(*self.eigenpairs)
        object.__setattr__(self, "_lams", tuple(map(float, lams)))
        object.__setattr__(self, "_windings", windings)
        object.__setattr__(self, "_mults", mults)
        object.__setattr__(self, "degeneracy_tol", DEGENERACY_REL_TOL * self.diameter)
        object.__setattr__(self, "_zero", self._around(0.0))

    def winding_counts(self):
        """Total multiplicity of each integer winding inside the window."""
        counts = {}
        for _, w, mult in self.eigenpairs:
            counts[w] = counts.get(w, 0) + mult
        return counts

    def _around(self, x):
        """(i, j): the eigenvalues below x - tol are [:i], those above x + tol [j:]."""
        tol = self.degeneracy_tol
        return bisect_left(self._lams, x - tol), bisect_right(self._lams, x + tol)

    def alpha_at(self, epsilon):
        """Extremal windings of A + epsilon: windings just below/above -epsilon.

        Raises DegeneracyError when an eigenvalue sits at -epsilon (within
        tolerance), reporting the kernel winding.
        """
        x = -saturated_float(epsilon)
        lo, hi = self._lams[0], self._lams[-1]
        tol = self.degeneracy_tol
        # Demand some margin so the neighbors of x are inside the window.
        if not (lo + tol < x < hi - tol):
            raise SpectralError(
                f"probe point {x:.6g} outside the reliable window [{lo:.6g}, {hi:.6g}];"
                " increase the truncation"
            )
        i, j = self._around(x)
        if i < j:
            w = self._windings[i]
            raise DegeneracyError(
                f"operator has an eigenvalue at {x:.6g} (winding {w})", kernel_winding=w
            )
        # Windings are nondecreasing, and the margin above leaves eigenvalues
        # on both sides of x.
        return self._windings[i - 1], self._windings[j]

    def alpha_strict(self, side):
        """Extremal winding of A with the kernel left out: the largest winding
        below 0 for side '-', the smallest above 0 for side '+'."""
        i, j = self._zero
        if side == SIDE_MINUS and i > 0:
            return self._windings[i - 1]
        if side == SIDE_PLUS and j < len(self._lams):
            return self._windings[j]
        raise SpectralError(
            f"the reliable window has no eigenvalue on side {side!r} of 0;"
            " increase the truncation"
        )

    def nu(self):
        """(nu_-, nu_+): the drop of each extremal winding across the kernel,
        probed at half the gap around 0."""
        if self.kernel_dimension() == 0:
            return 0, 0
        probe = self.gap_margin(0) / 2.0
        (am_lo, ap_lo), (am_hi, ap_hi) = self.alpha_at(-probe), self.alpha_at(probe)
        return am_lo - am_hi, ap_lo - ap_hi

    def kernel_dimension(self):
        i, j = self._zero
        return sum(self._mults[i:j])

    def gap_margin(self, delta_gap):
        """The gap around 0 in the window less the exact delta_gap, if positive."""
        i, j = self._zero
        nearest = self._lams[:i][-1:] + self._lams[j:][:1]  # below and above
        if not nearest:
            raise SpectralError("no nonzero eigenvalues inside the window")
        gap = min(map(abs, nearest))
        if Fraction(gap) <= delta_gap:
            raise ValidationError(
                f"nonzero eigenvalue at distance {gap:.3g} inside the declared gap"
                f" {saturated_float(delta_gap):.3g}"
            )
        return float(Fraction(gap) - delta_gap)


def saturated_float(q):
    """float(q), or the infinity of q's sign when q lies beyond the float
    range, so that the range checks downstream refuse it."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def _real_matrix(c, truncation, blocks):
    """Matrices of -J0 d/dt - S(t), one per block of equally many modes, each
    in the orthonormal real basis
    {1, sqrt2 cos 2 pi m t, sqrt2 sin 2 pi m t : m in the block} x {e_1, e_2}.
    A block is a list of progressions of modes in 0..T, slices with a step,
    laid out one after another: the constant 1 of mode 0, which only the
    first progression of a single block may hold, then the cosine and sine
    of each nonzero mode.

    ``c`` holds the Fourier coefficients c_k of S for k = 0..2T (halved at
    the Nyquist mode k = N/2, zero beyond it), and multiplication by S has
    the 2x2 blocks
        <cos_m, S cos_n> = Re(c_{m-n} + c_{m+n}),
        <sin_m, S sin_n> = Re(c_{m-n} - c_{m+n}),
        <cos_m, S sin_n> = Im(c_{m-n} - c_{m+n}),
    with the constant mode's rows and columns scaled by 1/sqrt2, and
    -J0 d/dt couples cos_m and sin_m through -+2 pi m J0.  With all modes
    0..T this is the Fourier-truncated complex Hermitian matrix on modes
    |m| <= T in a real basis of the same span, so it has the same
    eigenvalues; with modes that S does not couple to the others, it is
    that matrix's diagonal block on them.

    -S's 4x4 block on (cos_m, sin_m) x (cos_n, sin_n) x {e_1, e_2} is a term
    D_{m-n} of c_{m-n} plus a term P_{m+n} of c_{m+n} (c_k is symmetric,
    c_{-k} = conj(c_k)).  D is tabled for k = -T..T in reverse and P for
    k = 0..2T, each as [cos/sin, e_a, k, cos/sin, e_b], and one sliding
    window of length T + 1 views both tables as W[p, q] = table[p + q].
    With the rows of D's window flipped, the tile of modes (m, n) is D's
    window at (m, n) plus P's: a Toeplitz view plus a Hankel view.  The
    tiles of a row progression and a column progression are one strided
    slice of each view, added straight into the rectangle of the matrix
    that they fill: no index array and no temporary of the matrix's size.
    """
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    t = truncation
    # [D / P, cos/sin, e_a, j, cos/sin, e_b] holds D_{T-j} and P_j
    tables = np.empty((2, 2, 2, 2 * t + 1, 2, 2))
    mirrored = np.concatenate([c[t:0:-1].conj(), c[: t + 1]])  # c_k for k = -T..T
    for table, coeffs, sign in ((tables[0, :, :, ::-1], mirrored, np.negative), (tables[1], c, np.positive)):
        re, im = coeffs.real.transpose(1, 0, 2), coeffs.imag.transpose(1, 0, 2)  # [e_a, k, e_b]
        np.negative(re, out=table[0, :, :, 0])
        sign(im, out=table[0, :, :, 1])
        table[1, :, :, 0] = im
        sign(re, out=table[1, :, :, 1])
    # [D / P, p, cos/sin, e_a, q, cos/sin, e_b] = tables[..., p + q, ...]
    window = sliding_window_view(tables, t + 1, axis=3).transpose(0, 3, 1, 2, 6, 4, 5)
    toeplitz, hankel = window[0, ::-1], window[1]  # at (m, n): D_{m-n} and P_{m+n}
    first = blocks[0][0]
    z = int(first.start == 0)  # 1 when the block holds the constant
    if z:  # the modes with a cosine and a sine
        blocks = [[slice(first.step, first.stop, first.step), *blocks[0][1:]]]
    modes = np.arange(t + 1)
    m = np.concatenate([modes[p] for block in blocks for p in block]).reshape(len(blocks), -1)
    b, n = m.shape
    mat = np.empty((b,) + (4 * n + 2 * z,) * 2)
    # [block, m, cos/sin, e_a, n, cos/sin, e_b]
    tiles = mat[:, 2 * z :, 2 * z :].reshape(b, n, 2, 2, n, 2, 2)
    for out, block in zip(tiles, blocks):
        sizes = [len(range(t + 1)[p]) for p in block]
        at = [slice(end - size, end) for size, end in zip(sizes, accumulate(sizes))]
        for rows, x in zip(block, at):
            for cols, y in zip(block, at):
                terms = toeplitz[rows, :, :, cols], hankel[rows, :, :, cols]
                # Columns of step 1, or a single column, run contiguously
                # through the tables and the matrix: one add.  Strided ones
                # are four adds, one per (cos/sin, e_b) column entry, so that
                # each runs along whole rows of tiles.
                contiguous = cols.step == 1 or y.stop - y.start == 1
                entries = [(...,)] if contiguous else [(..., a, e) for a in (0, 1) for e in (0, 1)]
                for entry in entries:
                    np.add(terms[0][entry], terms[1][entry], out=out[x, :, :, y][entry])
    if z:
        column = toeplitz[m, :, :, 0, 0] + hankel[m, :, :, 0, 0]  # [block, m, cos/sin, e_a, e_b]
        mat[:, 2:, :2] = column.reshape(b, -1, 2) / np.sqrt(2.0)
        mat[:, :2, 2:] = mat[:, 2:, :2].transpose(0, 2, 1)
        mat[:, :2, :2] = (toeplitz[0, 0, :, 0, 0] + hankel[0, 0, :, 0, 0]) / np.sqrt(2.0) / np.sqrt(2.0)
    blocks, i = np.arange(b)[:, None], np.arange(n)
    w = (2 * np.pi * m)[:, :, None, None] * np.array([[0.0, -1.0], [1.0, 0.0]])  # 2 pi m J0
    tiles[blocks, i, 0, :, i, 1] -= w
    tiles[blocks, i, 1, :, i, 0] += w
    return mat


def discretized_spectrum(op, truncation):
    """Spectrum of the Fourier-truncated operator with windings, in its
    reliable window: the middle half of all eigenvalues.

    A loop with no mode in 1..2T has its mean's closed form, which writes
    the window directly; any other loop is solved in blocks.
    """
    truncation = _integer(truncation, MIN_TRUNCATION, "truncation")
    if op.period == 1 or op.mode_step > 2 * truncation:
        return _closed_form(op, truncation)
    return _block_solve(op, truncation)


def _merge_tol(diameter):
    """Eigenvalues of one winding this close are one of multiplicity 2."""
    return 1e-9 * max(diameter, 1.0)


def _closed_form(op, truncation):
    """The window of the constant loop S_k = k (a, b, c), with (a, b, c) the
    mean of one period of the samples, with no eigensolve.  It is also the
    window of any loop whose other modes all lie above 2T, so that they
    couple no two modes |m| <= T.  On mode 0 the operator is -S_k, with the
    eigenvalues mid -+ h_0, mid = -(a+c)/2, h_0 = hypot((a-c)/2, b), both of
    winding 0.  On the cos and sin of mode m >= 1 it is equivalent to the two
    Hermitian matrices -S_k -+ 2 pi m i J0, which share the eigenvalues
    mid -+ h_m, h_m = hypot((a-c)/2, b, 2 pi m), so each is double, with
    winding -+m.

    Every mid - h is at most mid, which is at most every mid + h, and h_m
    increases with m, so the ascending order is known: mid - h_m for
    m = T..1, mode 0, then mid + h_m for m = 1..T.  The window drops the
    lowest and the highest T of these 4T + 2 eigenvalues: it keeps each
    mode m <= T/2 as a double on each side and, at odd T, mode (T + 1)/2
    as a single on each side.
    """
    p = op.period
    try:
        a, b, c = (op.cover * math.fsum(column) / p for column in zip(*op.samples[:p]))
    except OverflowError:
        raise SpectralError("the mean of the samples overflows") from None
    mid, half = -(a + c) / 2, (a - c) / 2
    top = math.hypot(half, b, 2 * math.pi * truncation)
    diameter = (mid + top) - (mid - top)
    if not math.isfinite(diameter):
        raise SpectralError(f"the spectrum of the mean ({a:.6g}, {b:.6g}, {c:.6g}) overflows")
    h_0 = math.hypot(half, b)
    lo, hi = mid - h_0, mid + h_0
    merged = abs(lo - hi) <= _merge_tol(diameter)
    zero = [(0.5 * (lo + hi), 0, 2)] if merged else [(lo, 0, 1), (hi, 0, 1)]
    modes = range(1, (truncation + 1) // 2 + 1)
    mults = [2] * (truncation // 2) + [1] * (truncation % 2)
    h = [math.hypot(half, b, 2 * math.pi * m) for m in modes]
    lower = [(mid - h_m, -m, n) for m, h_m, n in zip(modes, h, mults)]
    upper = [(mid + h_m, m, n) for m, h_m, n in zip(modes, h, mults)]
    return SpectralData(eigenpairs=(*lower[::-1], *zero, *upper), diameter=diameter)


def _block_solve(op, truncation):
    """The window of a loop that is not constant.

    The residue class of mode 0 is one eigensolve, and the other classes
    one stacked eigensolve per class size.  A block's windings are its
    modes +-m, each twice, in ascending order.  The blocks' eigenvalues are
    merged by value, the window must have nondecreasing windings, and equal
    (eigenvalue, winding) pairs in it are merged into multiplicity 2.
    """
    import numpy as np

    t, s = truncation, op.mode_step
    m, a = op.fourier_modes
    c = np.zeros((2 * t + 1, 2, 2), dtype=complex)  # c_m for m = 0..2T
    c[m[m <= 2 * t]] = a[m <= 2 * t]
    # Class r: the progressions r + js and s - r + js up to T, one of them at
    # r = 0 and r = s/2; it holds a mode exactly when r <= T.
    classes = [
        [slice(start, t + 1, s) for start in ((r, s - r) if 0 < 2 * r < s else (r,)) if start <= t]
        for r in range(min(s // 2, t) + 1)
    ]
    modes = [[mode for p in block for mode in range(t + 1)[p]] for block in classes]
    sizes = sorted({len(row) for row in modes[1:]})
    stacks = [[0]] + [[r for r in range(1, len(modes)) if len(modes[r]) == n] for n in sizes]
    evals, windings = [], []
    for stack in stacks:
        evals.append(np.linalg.eigvalsh(_real_matrix(c, t, [classes[r] for r in stack])).ravel())
        signed = np.array([[-mode for mode in modes[r] if mode] + modes[r] for r in stack])
        windings.append(np.repeat(np.sort(signed, axis=1), 2, axis=1).ravel())
    evals, windings = np.concatenate(evals), np.concatenate(windings)
    order = np.lexsort((windings, evals))  # equal eigenvalues of two blocks by winding
    evals, windings = evals[order].tolist(), windings[order].tolist()
    diameter = evals[-1] - evals[0]
    first = len(evals) // 4
    window = slice(first, len(evals) - first)
    evals, windings = evals[window], windings[window]
    if any(w > w_next for w, w_next in zip(windings, windings[1:])):
        raise SpectralError(
            f"windings of the residue classes mod {s} interleave inside the window;"
            " increase the truncation"
        )
    merge_tol = _merge_tol(diameter)
    merged = []
    for lam, w in zip(evals, windings):
        last = merged[-1] if merged else None
        if last and last[1] == w and last[2] == 1 and abs(last[0] - lam) <= merge_tol:
            merged[-1] = (0.5 * (last[0] + lam), w, 2)
        else:
            merged.append((lam, w, 1))
    return SpectralData(eigenpairs=tuple(merged), diameter=diameter)


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
