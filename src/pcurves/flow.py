"""The floating point that ``spectral.py`` does not hold: the crossing-flow
Conley-Zehnder index and the winding number of a sampled complex loop, both
turn counts of a planar path, taken by one helper, ``_turns``."""

import math

import numpy as np

from .errors import DegeneracyError, SpectralError, ValidationError
from .records import record
from .spectral import _read_only, saturated_float

#: least number of steps of the crossing-flow integration on [0, 1]
FLOW_STEPS = 2048
#: most steps of the crossing-flow integration; a loop whose rotation
#: bound needs more is refused
FLOW_MAX_STEPS = 2**16
#: the most that the a priori bound lets Psi(t) e1 turn between two samples
#: of the path, well below pi, so that no argument step of the flow wraps
FLOW_MAX_TURN = np.pi / 4
#: |tr Psi(1) - 2| below which the crossing-flow endpoint counts as
#: degenerate at any rate.  The sign of tr - 2 gives the parity; at
#: FLOW_STEPS the error of the trace stayed below 1e-9 near tr = 2 on random
#: loops of degree 4 with coefficients up to 4, against 8 times as many
#: steps.  A loop that turns faster has a larger error, which FLOW_SCREEN and
#: FLOW_MARGIN cover.  S read off a real FFT, the steps' exponentials in real
#: arithmetic and their pairwise product leave the trace within 7e-14 of the
#: same steps multiplied one after another where |tr - 2| < 1, on 600
#: loop/epsilon pairs of those degree-4 loops.
FLOW_TRACE_TOL = 1e-8
#: |tr Psi(1) - 2| below FLOW_SCREEN (h rate)^4 max(1, |tr|), with rate the a
#: priori bound and h the step, runs a second flow at 2h to estimate the
#: trace's error.  A heuristic, not a certificate: on the twisted constant
#: loops, whose trace has a closed form (16 matrices S0, twists s = 0..16,
#: epsilon = 0 and 1/8), the error at h stayed below 1.8 (h rate)^4 max(1,
#: |tr|), more than 50 times under the screen, and fell 16-fold per halving
#: of h.
FLOW_SCREEN = 100
#: multiple of the step-doubling error estimate that |tr Psi(1) - 2| must
#: exceed where the screen runs; the estimate was within 1% of the true error
#: wherever that exceeded 1e-10 on the same loops.
FLOW_MARGIN = 4

MIN_MODULUS = 1e-9
MAX_STEP = np.pi - 1e-12  # argument steps must stay below pi


def _turns(path):
    """Turns of the planar path through the complex points ``path``: its
    argument steps, each wrapped into (-pi, pi], summed over 2 pi.  A step
    that reaches pi may have wrapped, so it is refused."""
    steps = np.angle(path[1:] * path[:-1].conj())
    if (np.abs(steps) >= MAX_STEP).any():
        raise ValidationError(
            "argument step of at least pi between consecutive samples; refine the loop"
        )
    return float(steps.sum()) / (2 * np.pi)


@record
class SampledLoop:
    """Uniform samples of a nonvanishing complex loop over one period."""

    values: tuple  # complex numbers

    def __post_init__(self):
        vals = tuple(complex(v) for v in self.values)
        if len(vals) < 3:
            raise ValidationError("need at least 3 samples")
        if any(abs(v) < MIN_MODULUS for v in vals):
            raise ValidationError("loop passes within 1e-9 of zero")
        object.__setattr__(self, "values", vals)


def loop_winding(loop):
    """Winding number of the loop: its turns over one period, closed back to
    the first sample, which must come out an integer."""
    winding = _turns(np.array(loop.values + loop.values[:1]))
    nearest = round(winding)
    if abs(winding - nearest) > 1e-6:
        raise ValidationError("accumulated winding is not an integer")
    return nearest


def crossing_flow_cz(op, epsilon):
    """Conley-Zehnder index of the path Psi' = J0 (S + epsilon) Psi on
    [0, 1]; callers computing the index of A + eps pass epsilon = -eps.

    In dimension 2 the lifted rotations of Psi(t) v over v != 0 fill an
    interval shorter than 1/2 (Hofer-Wysocki-Zehnder, Properties of
    pseudoholomorphic curves in symplectisations II).  The index is 2k when
    that interval contains the integer k, which happens exactly when
    det(I - Psi(1)) = 2 - tr Psi(1) < 0, and 2k + 1 when it lies in
    (k, k + 1); the rotation of Psi(t) e1 picks k.

    The parity is decided only when |tr Psi(1) - 2| is at least
    FLOW_TRACE_TOL and, where FLOW_SCREEN asks for it, FLOW_MARGIN times the
    step-doubling estimate of the trace's error; otherwise the endpoint is
    refused as degenerate.
    """
    epsilon = saturated_float(epsilon)
    trace, turns = _crossing_flow(op, epsilon)
    rate = op.real_series[2] + abs(epsilon)
    steps = _step_count(rate)
    margin = FLOW_TRACE_TOL
    if abs(trace - 2.0) < FLOW_SCREEN * (rate / steps) ** 4 * max(1.0, abs(trace)):
        # The fourth-order error falls 16-fold per halving of h, so the trace
        # at 2h differs from the trace at h by about 15 times the latter's
        # error (Richardson).  Only the trace is needed: pair down to one.
        coarse = _magnus_steps(op, epsilon, steps // 2)
        while coarse.shape[2] > 1:
            coarse = _product(coarse[:, :, 1::2], coarse[:, :, 0::2])
        error = abs(trace - float(coarse[0, 0, 0] + coarse[1, 1, 0])) / 15
        margin = max(margin, FLOW_MARGIN * error)
    if abs(trace - 2.0) < margin:
        raise DegeneracyError("degenerate endpoint: the perturbed orbit has kernel")
    if trace > 2.0:
        return 2 * round(turns)
    return 2 * math.floor(turns) + 1


def _step_count(rate):
    """The least power of two from FLOW_STEPS on whose step h keeps h * rate
    at most FLOW_MAX_TURN; beyond FLOW_MAX_STEPS the loop is refused with
    SpectralError."""
    steps = FLOW_STEPS
    while rate > steps * FLOW_MAX_TURN:
        steps *= 2
        if steps > FLOW_MAX_STEPS:
            raise SpectralError(
                f"the crossing flow turns at rates up to {rate:.6g}, too fast to"
                f" resolve in {FLOW_MAX_STEPS} steps"
            )
    return steps


def _product(later, earlier):
    """The products later[:, :, j] @ earlier[:, :, j] of two stacks of 2x2
    matrices, each an array [row, column, j]."""
    return later[:, :1] * earlier[:1] + later[:, 1:] * earlier[1:]


def _crossing_flow(op, epsilon):
    """(tr Psi(1), turns of Psi(t) e1 over [0, 1]) for Psi' = J0 (S + epsilon) Psi,
    Psi(0) = I, from fourth-order Magnus steps of length h.

    Psi(t) e1 turns at most at the rate |S(t) + epsilon| <= sum |a_k| +
    |epsilon|, so the step count is ``_step_count`` of this bound.  The a_k
    and their bound are the operator's ``real_series``, computed by its first
    flow and kept with it.  So is the part of the steps' Magnus exponents
    that does not depend on epsilon, once per step count (``_magnus_steps``):
    a flow at another epsilon with the same step count computes only the
    exponents, their exponentials, the product and the turns.

    The steps are there for accuracy; the turn count needs fewer samples of
    the path.  Over ``span`` steps Psi(t) e1 turns by at most span h times
    the rate bound.  While that stays at most FLOW_MAX_TURN, below pi, the
    argument step between two samples span steps apart is the turn itself,
    so the sampled path turns exactly as the whole one does.  Adjacent steps
    are multiplied in pairs, later on the left, for as many rounds as that
    allows, each round doubling the span.  An inclusive prefix product of
    the block products in log2(steps / span) rounds of one batched product
    each (Hillis-Steele) then gives Psi at every span-th step.  Its last
    element is the balanced tree of pairs, pairs of pairs and so on at any
    span, so tr Psi(1) does not depend on the span.
    """
    rate = op.real_series[2] + abs(epsilon)
    steps = _step_count(rate)
    psi = _magnus_steps(op, epsilon, steps)
    span = 1
    while span < steps and 2 * span * rate <= steps * FLOW_MAX_TURN:
        psi = _product(psi[:, :, 1::2], psi[:, :, 0::2])
        span *= 2
    blocks = steps // span
    shift = 1
    while shift < blocks:
        psi[:, :, shift:] = _product(psi[:, :, shift:], psi[:, :, :-shift])
        shift *= 2
    path = np.empty(blocks + 1, dtype=complex)  # Psi(t) e1 at t = 0, span h, ...
    path[0] = 1.0
    path.real[1:], path.imag[1:] = psi[:, 0]
    return float(psi[0, 0, -1] + psi[1, 1, -1]), _turns(path)


def _magnus_steps(op, epsilon, steps):
    """The Magnus steps E_0, ..., E_{steps-1} of Psi' = J0 (S + epsilon) Psi, as
    an array [row, column, j].

    A step is exp(X) for the fourth-order exponent X = h/2 (A1 + A2) +
    sqrt(3)/12 h^2 [A2, A1], with A1, A2 the values of A = J0 (S + epsilon)
    at the step's two Gauss points.  A is affine in epsilon, and so is X
    (the commutator's terms in epsilon^2 cancel): X = X0 + epsilon D, with
    X0 and D from ``_magnus_exponent``, built once per operator and step
    count and kept in the operator's ``magnus_exponents``.  Only X itself,
    its determinant and the exponentials are computed per epsilon.
    """
    exponents = op.magnus_exponents
    if steps not in exponents:
        exponents[steps] = _magnus_exponent(op, steps)
    base, slope = exponents[steps]
    xp, xq, xr = slope * epsilon + base
    # X = [[xp, xq], [xr, -xp]] is trace-free, and X @ X = -det(X) I, so
    # exp(X) = cos(w) I + (sin(w) / w) X with w = sqrt(det X), and cosh and
    # sinh of sqrt(-det X) where det X < 0; every step lies in Sp(2).
    det = -xp * xp - xq * xr
    w = np.sqrt(np.abs(det))
    cos, sin = np.cos(w), np.sin(w)
    hyperbolic = det < 0
    cos[hyperbolic], sin[hyperbolic] = np.cosh(w[hyperbolic]), np.sinh(w[hyperbolic])
    sinc = np.divide(sin, w, out=np.ones(steps), where=w > 0)
    step = np.empty((2, 2, steps))
    sinc_p = sinc * xp
    np.add(cos, sinc_p, out=step[0, 0])
    np.multiply(sinc, xq, out=step[0, 1])
    np.multiply(sinc, xr, out=step[1, 0])
    np.subtract(cos, sinc_p, out=step[1, 1])
    return step


def _magnus_exponent(op, steps):
    """The Magnus exponents X0 of ``steps`` equal steps of Psi' = J0 S Psi and
    their slopes D in epsilon, as one read-only array [X0 / D, entry, j] with
    the entries (p, q, r) of the trace-free [[p, q], [r, -p]].

    The two Gauss points of the steps form two uniform grids t_j = (j + o) h,
    o = 1/2 -+ sqrt(3)/6.  With S(t) = Re sum of a_k e^{2 pi i k t} over
    0 <= k <= N/2, S(t_j) = Re sum of a_k e^{2 pi i k o h} e^{2 pi i k j h}.
    Mode k is folded onto k mod the steps, and a fold r above steps/2 onto
    steps - r with its coefficient conjugated, which leaves the real part of
    each term as it is; then one real inverse FFT of the half spectrum gives
    S at both grids.  S_k has modes only at multiples of its mode step (k
    for a cover of a loop whose samples do not repeat), and only those are
    summed.

    J0 (S + epsilon) = [[p, q - epsilon], [r + epsilon, -p]] with p = -s12,
    q = -s22 and r = s11, so with comm = sqrt(3)/12 h^2 the slope of X is
    (comm ((q2 - q1) + (r2 - r1)), -h - 2 comm (p2 - p1), h - 2 comm (p2 - p1)).
    """
    modes, coeffs, _ = op.real_series
    h = 1.0 / steps
    gauss = math.sqrt(3) / 6
    offsets = np.array([[0.5 - gauss], [0.5 + gauss]])
    # [grid, entry, mode]: the terms a_k e^{2 pi i k o h}, folded.
    terms = np.exp(2j * np.pi * h * (offsets * modes))[:, None, :] * coeffs
    folds = modes % steps
    mirrored = folds > steps // 2
    folds[mirrored] = steps - folds[mirrored]
    terms[:, :, mirrored] = terms[:, :, mirrored].conj()
    # With n = steps, irfft(X)_j = (Re X_0 + Re X_{n/2} (-1)^j + 2 Re sum of
    # X_r e^{2 pi i r j / n} over 0 < r < n/2) / n.
    terms *= np.where((folds == 0) | (folds == steps // 2), steps, steps / 2)
    half = np.zeros((2, 3, steps // 2 + 1), dtype=complex)
    np.add.at(half, (slice(None), slice(None), folds), terms)
    s11, s12, s22 = np.fft.irfft(half, steps).transpose(1, 0, 2)
    (p1, p2), (q1, q2), (r1, r2) = -s12, -s22, s11
    comm = 0.5 * gauss * h * h
    turn = 2 * comm * (p2 - p1)
    exponent = np.array([
        [
            0.5 * h * (p1 + p2) + comm * (q2 * r1 - q1 * r2),
            0.5 * h * (q1 + q2) + 2 * comm * (p2 * q1 - p1 * q2),
            0.5 * h * (r1 + r2) + 2 * comm * (r2 * p1 - p2 * r1),
        ],
        [comm * ((q2 - q1) + (r2 - r1)), -h - turn, h - turn],
    ])
    return _read_only(exponent)
