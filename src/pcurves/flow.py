"""The floating point that ``spectral.py`` does not hold: the crossing-flow
Conley-Zehnder index and the winding number of a sampled complex loop, both
turn counts of a planar path, taken by one helper, ``_turns``.  A crossing
flow starts with its steps at h rate <= FLOW_START_TURN = 1/20, inside the
range where its error law was measured, and doubles them until its
step-doubling error estimate decides the index."""

import math

import numpy as np

from .errors import DegeneracyError, SpectralError, ValidationError
from .records import record
from .spectral import _read_only, saturated_float

#: most that the a priori bound lets Psi(t) e1 turn within one step where a
#: flow starts, on a loop that is not constant: the flow starts at the least
#: power of two from 16 steps on whose step h keeps h rate at most this, with
#: rate the bound.  The fourth-order law was measured up to h rate = 0.057 on
#: the twisted constant loops, whose trace has a closed form (16 matrices S0,
#: twists s = 0..16, epsilon = 0 and 1/8): the trace's error stayed below 1.8
#: (h rate)^4 max(1, |tr|) and fell 16-fold per halving of h.  At the
#: starting counts of those loops, with 18 matrices S0, the step-doubling
#: estimate was within 0.5% of the error wherever that exceeded 1e-10, but
#: for S0 = (40, 1, 35) at s = 6 and h rate 0.045, where it was 1.9% under.
#: On criterion 2's 100 random loops, every parity at 128 steps (h rate up
#: to 0.095) already cleared FLOW_MARGIN times the estimate.
FLOW_START_TURN = 1 / 20
#: most steps of the crossing-flow integration; a loop whose rotation
#: bound needs more is refused
FLOW_MAX_STEPS = 2**16
#: the most that the a priori bound lets Psi(t) e1 turn between two samples
#: of the path, well below pi, so that no argument step of the flow wraps
FLOW_MAX_TURN = np.pi / 4
#: |tr Psi(1) - 2| below which the crossing-flow endpoint is never decided,
#: however small the error estimate.  S read off a real FFT, the steps'
#: exponentials in real arithmetic and their pairwise product leave the
#: trace within 7e-14 of the same steps multiplied one after another where
#: |tr - 2| < 1, on 600 loop/epsilon pairs of random degree-4 loops with
#: coefficients up to 4.
FLOW_TRACE_TOL = 1e-8
#: multiple of the step-doubling error estimate |tr_h - tr_2h| / 15 that
#: |tr Psi(1) - 2| must reach for the parity to be decided.
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

    The parity is decided by step doubling (``_decision``), at the first
    step count from the start, up to FLOW_MAX_STEPS, where |tr Psi(1) - 2|
    is at least FLOW_TRACE_TOL and FLOW_MARGIN times the estimate of the
    trace's error; otherwise the endpoint is refused as degenerate, as soon
    as no finer pass could reach FLOW_TRACE_TOL.
    """
    return _decision(op, saturated_float(epsilon))[0]


def _decision(op, epsilon):
    """(index, steps, estimate): the crossing-flow index at epsilon, the step
    count that decided it and the estimate there of the trace's error.

    The fourth-order error falls 16-fold per halving of h, so the trace at
    2h differs from the trace at h by about 15 times the latter's error
    (Richardson): the estimate is |tr_h - tr_2h| / 15.  Where it leaves the
    parity open, the steps double, unless no finer pass can decide.  The
    flow starts at ``_step_count``, whose exponents the operator keeps; the
    doubled counts are built afresh.
    """
    rate = op.real_series[2] + abs(epsilon)
    steps = _step_count(op, rate)
    kept = op.magnus_exponents
    if steps not in kept:
        kept[steps] = _magnus_exponent(op, steps)
    while True:
        trace, coarse, turns = _crossing_flow(op, epsilon, steps)
        estimate = abs(trace - coarse) / 15
        if abs(trace - 2.0) >= max(FLOW_TRACE_TOL, FLOW_MARGIN * estimate):
            break
        # A finer pass moves the trace by at most about twice FLOW_MARGIN
        # times the estimate; where that cannot reach FLOW_TRACE_TOL, with
        # half of it kept for rounding, no finer pass decides.
        hopeless = abs(trace - 2.0) + 2 * FLOW_MARGIN * estimate < FLOW_TRACE_TOL / 2
        steps *= 2
        if hopeless or steps > FLOW_MAX_STEPS:
            raise DegeneracyError("degenerate endpoint: the perturbed orbit has kernel")
    index = 2 * round(turns) if trace > 2.0 else 2 * math.floor(turns) + 1
    return index, steps, estimate


def _step_count(op, rate):
    """The step count at which a flow starts: the least power of two from 16
    on whose step h keeps h * rate at most FLOW_START_TURN.  A constant loop
    takes FLOW_MAX_TURN in its place, the turn bound alone: its Magnus steps
    are exact, since the commutator in them vanishes.  Beyond FLOW_MAX_STEPS
    the loop is refused with SpectralError."""
    ceiling = FLOW_MAX_TURN if op.period == 1 else FLOW_START_TURN
    steps = 16
    while rate > steps * ceiling:
        steps *= 2
        if steps > FLOW_MAX_STEPS:
            raise SpectralError(
                f"the crossing flow turns at rates up to {rate:.6g}, too fast to"
                f" resolve in {FLOW_MAX_STEPS} steps"
            )
    return steps


def _product(later, earlier):
    """The products later[:, :, ...] @ earlier[:, :, ...] of two stacks of
    2x2 matrices, each an array [row, column, ...]."""
    return later[:, :1] * earlier[:1] + later[:, 1:] * earlier[1:]


def _crossing_flow(op, epsilon, steps):
    """(tr Psi(1), the same at twice the step, turns of Psi(t) e1 over [0, 1])
    for Psi' = J0 (S + epsilon) Psi, Psi(0) = I, from fourth-order Magnus
    steps of length h = 1 / steps and of length 2h.

    Both passes come from one array of exponents (``_magnus_exponent``),
    kept by the operator at the counts its flows start from, and one
    exponential pass (``_magnus_steps``).  The coarse steps are followed by
    as many identities, exact factors, so that the two passes are two rows
    of ``steps`` matrices that every product below multiplies together.

    The steps are there for accuracy; the turn count needs fewer samples of
    the path.  Psi(t) e1 turns at most at the rate |S(t) + epsilon| <= sum
    |a_k| + |epsilon|, the a_k being the operator's ``real_series``, so over
    ``span`` steps by at most span h times that bound.  While that stays at
    most FLOW_MAX_TURN, below pi, the argument step between two samples
    span steps apart is the turn itself, so the sampled path turns exactly
    as the whole one does.  Adjacent steps are multiplied in pairs, later on
    the left, for as many rounds as that allows, each round doubling the
    span.  An inclusive prefix product of the block products in
    log2(steps / span) rounds of one batched product each (Hillis-Steele)
    then gives Psi at every span-th step, and the coarse row's last element
    is its whole product.  The last element of a row is the balanced tree
    of pairs, pairs of pairs and so on at any span, so neither trace
    depends on the span.
    """
    exponent = op.magnus_exponents.get(steps)
    if exponent is None:
        exponent = _magnus_exponent(op, steps)
    psi = _magnus_steps(exponent, epsilon)
    rate = op.real_series[2] + abs(epsilon)
    span = 1
    while span < steps and 2 * span * rate <= steps * FLOW_MAX_TURN:
        psi = _product(psi[..., 1::2], psi[..., 0::2])
        span *= 2
    blocks = steps // span
    shift = 1
    while shift < blocks:
        psi[..., shift:] = _product(psi[..., shift:], psi[..., :-shift])
        shift *= 2
    path = np.empty(blocks + 1, dtype=complex)  # Psi(t) e1 at t = 0, span h, ...
    path[0] = 1.0
    path.real[1:], path.imag[1:] = psi[:, 0, 0]
    fine, coarse = (psi[0, 0, :, -1] + psi[1, 1, :, -1]).tolist()
    return fine, coarse, _turns(path)


def _magnus_steps(exponent, epsilon):
    """The Magnus steps exp(X_j) of Psi' = J0 (S + epsilon) Psi for the
    exponents X = X0 + epsilon D of ``_magnus_exponent``, as an array [row,
    column, pass, j]: the fine pass's steps, then the coarse pass's followed
    by as many identities.

    A step is exp(X) for the fourth-order exponent X = h/2 (A1 + A2) +
    sqrt(3)/12 h^2 [A2, A1], with A1, A2 the values of A = J0 (S + epsilon)
    at the step's two Gauss points.  A is affine in epsilon, and so is X
    (the commutator's terms in epsilon^2 cancel): X0 and D are built once
    per operator and step count.  Only X itself, its determinant and the
    exponentials are computed per epsilon.
    """
    base, slope = exponent
    xp, xq, xr = slope * epsilon + base
    # X = [[xp, xq], [xr, -xp]] is trace-free, and X @ X = -det(X) I, so
    # exp(X) = cos(w) I + (sin(w) / w) X with w = sqrt(det X), and cosh and
    # sinh of sqrt(-det X) where det X < 0; every step lies in Sp(2).
    det = -xp * xp - xq * xr
    w = np.sqrt(np.abs(det))
    cos, sin = np.cos(w), np.sin(w)
    hyperbolic = det < 0
    cos[hyperbolic], sin[hyperbolic] = np.cosh(w[hyperbolic]), np.sinh(w[hyperbolic])
    m = len(w)
    sinc = np.divide(sin, w, out=np.ones(m), where=w > 0)
    step = np.empty((2, 2, m + m // 3))
    sinc_p = sinc * xp
    np.add(cos, sinc_p, out=step[0, 0, :m])
    np.multiply(sinc, xq, out=step[0, 1, :m])
    np.multiply(sinc, xr, out=step[1, 0, :m])
    np.subtract(cos, sinc_p, out=step[1, 1, :m])
    step[:, :, m:] = np.eye(2)[:, :, None]
    return step.reshape(2, 2, 2, -1)


def _magnus_exponent(op, steps):
    """The Magnus exponents X0 of Psi' = J0 S Psi and their slopes D in
    epsilon for both passes of a flow, ``steps`` equal steps of [0, 1] and
    then steps / 2 steps of twice the length, as one read-only array
    [X0 / D, entry, j] with the entries (p, q, r) of the trace-free
    [[p, q], [r, -p]].

    The two Gauss points of the fine steps form two uniform grids
    t_j = (j + o) h, h = 1 / steps, o = 1/2 -+ sqrt(3)/6.  Those of the
    coarse steps, (2i + 1 -+ sqrt(3)/3) h, are the even points of the grid
    o = 1 - sqrt(3)/3 and the odd points of the grid o = sqrt(3)/3.  With
    S(t) = Re sum of a_k e^{2 pi i k t} over 0 <= k <= N/2,
    S(t_j) = Re sum of a_k e^{2 pi i k o h} e^{2 pi i k j h}.  Mode k is
    folded onto k mod the steps, and a fold r above steps/2 onto steps - r
    with its coefficient conjugated, which leaves the real part of each term
    as it is; then one real inverse FFT of the half spectra gives S at all
    four grids.  S_k has modes only at multiples of its mode step (k for a
    cover of a loop whose samples do not repeat), and only those are
    summed.

    J0 (S + epsilon) = [[p, q - epsilon], [r + epsilon, -p]] with p = -s12,
    q = -s22 and r = s11, so with comm = sqrt(3)/12 h^2 the slope of X is
    (comm ((q2 - q1) + (r2 - r1)), -h - 2 comm (p2 - p1), h - 2 comm (p2 - p1)).
    """
    modes, coeffs, _ = op.real_series
    gauss = math.sqrt(3) / 6
    offsets = np.array([[0.5 - gauss], [0.5 + gauss], [1 - 2 * gauss], [2 * gauss]])
    # [grid, entry, mode]: the terms a_k e^{2 pi i k o h}, folded.
    terms = np.exp(2j * np.pi / steps * (offsets * modes))[:, None, :] * coeffs
    folds = modes % steps
    mirrored = folds > steps // 2
    folds[mirrored] = steps - folds[mirrored]
    terms[:, :, mirrored] = terms[:, :, mirrored].conj()
    # With n = steps, irfft(X)_j = (Re X_0 + Re X_{n/2} (-1)^j + 2 Re sum of
    # X_r e^{2 pi i r j / n} over 0 < r < n/2) / n.
    terms *= np.where((folds == 0) | (folds == steps // 2), steps, steps / 2)
    half = np.zeros((4, 3, steps // 2 + 1), dtype=complex)
    np.add.at(half, (slice(None), slice(None), folds), terms)
    grids = np.fft.irfft(half, steps)
    # S at the first and the second Gauss point of each fine step, then of
    # each coarse one, as [entry, Gauss point, j]
    coarse = np.stack([grids[2, :, 0::2], grids[3, :, 1::2]])
    s11, s12, s22 = np.concatenate([grids[:2], coarse], axis=2).transpose(1, 0, 2)
    (p1, p2), (q1, q2), (r1, r2) = -s12, -s22, s11
    h = np.repeat([1.0 / steps, 2.0 / steps], [steps, steps // 2])
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
