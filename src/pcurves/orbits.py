"""Periodic-orbit data and the per-orbit covering calculus.

An orbit class is a (possibly multiply covered) periodic orbit together
with the winding data of its asymptotic operator: either declared extremal
windings, or an operator sample loop handed to the spectral oracle.  All
quantities computed here (Conley-Zehnder indices, extremal windings,
Omega pairings, the covering integers q and q-tilde, Morse-Bott defects)
are exact integers or rationals; the oracle output is snapped to integers
before any arithmetic happens.

Trivialization convention: for each simple orbit the trivialization is
fixed once (for operator-backed orbits it is the coordinate frame of the
samples), and all covers inherit it, so windings of covers are measured
against the same frame.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ConsistencyError,
    DegeneracyError,
    MissingDataError,
    SpectralError,
    ValidationError,
)
from .rationals import exact_int
from .spectral import DEFAULT_TRUNCATION, GLOBAL_SPECTRUM_CACHE, J0, AsymptoticOperator

SIDE_MINUS = "-"
SIDE_PLUS = "+"

WINDING = "winding"
CROSSING_FLOW = "crossing_flow"

#: steps of the crossing-flow integration on [0, 1]
FLOW_STEPS = 2048
#: |tr Psi(1) - 2| below which the crossing-flow endpoint counts as
#: degenerate.  The sign of tr - 2 gives the parity; at FLOW_STEPS the
#: error of the trace stayed below 1e-9 near tr = 2 on random loops of
#: degree 4 with coefficients up to 4, against 8 times as many steps.
FLOW_TRACE_TOL = 1e-8


@dataclass(frozen=True)
class Nondegenerate:
    pass


@dataclass(frozen=True)
class MorseBott:
    """Orbit in a Morse-Bott manifold of dimension 2 or 3.

    ``isotropy`` is the covering multiplicity of the underlying family
    orbit over its simple orbit (1 for generic orbits; exceptional orbits
    in 2-dimensional families always have isotropy 2).
    """

    manifold_dim: int
    isotropy: int = 1

    def __post_init__(self):
        if self.manifold_dim not in (2, 3):
            raise ValidationError("Morse-Bott manifold dimension must be 2 or 3")
        if self.isotropy < 1:
            raise ValidationError("isotropy must be >= 1")
        if self.manifold_dim == 2 and self.isotropy > 2:
            raise ValidationError(
                "exceptional orbits in a 2-dimensional family have isotropy 2"
            )

    @property
    def kernel_dim(self):
        return self.manifold_dim - 1


@dataclass(frozen=True)
class DeclaredNondegenerate:
    """Extremal windings (alpha_-, alpha_+); epsilon-independent for small
    perturbations."""

    alpha_minus: int
    alpha_plus: int

    def __post_init__(self):
        if self.alpha_plus - self.alpha_minus not in (0, 1):
            raise ValidationError(
                "nondegenerate orbit must have alpha_+ - alpha_- in {0, 1}"
            )


@dataclass(frozen=True)
class DeclaredMorseBott:
    """Extremal windings of the two perturbed operators.

    ``minus_delta`` and ``plus_delta`` are (alpha_-, alpha_+) of the
    operator perturbed down/up by a small delta.
    """

    minus_delta: tuple
    plus_delta: tuple

    def __post_init__(self):
        for pair in (self.minus_delta, self.plus_delta):
            if len(pair) != 2:
                raise ValidationError("perturbed winding data must be a pair")
            if pair[1] - pair[0] not in (0, 1):
                raise ValidationError("perturbed operator parity must be in {0, 1}")
        nm = self.minus_delta[0] - self.plus_delta[0]
        np_ = self.minus_delta[1] - self.plus_delta[1]
        if nm not in (0, 1) or np_ not in (0, 1):
            raise ValidationError("nu_- and nu_+ must lie in {0, 1}")
        if nm + np_ == 0:
            raise ValidationError(
                "Morse-Bott winding data shows no spectral flow across 0"
            )

    @property
    def kernel_dim(self):
        mu_minus = 2 * self.minus_delta[0] + (self.minus_delta[1] - self.minus_delta[0])
        mu_plus = 2 * self.plus_delta[0] + (self.plus_delta[1] - self.plus_delta[0])
        return mu_minus - mu_plus


@dataclass(frozen=True)
class OperatorWinding:
    op: AsymptoticOperator


@dataclass(frozen=True)
class Perturbation:
    """Signed perturbation of an asymptotic operator (A + epsilon)."""

    epsilon: Fraction

    def __post_init__(self):
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))

    @property
    def sign(self):
        return (self.epsilon > 0) - (self.epsilon < 0)


@dataclass(frozen=True)
class OrbitClass:
    id: str
    simple_id: str
    cover: int
    winding: object
    kind: object = None  # Nondegenerate | MorseBott | None (underived)
    distinct_from: frozenset = frozenset()
    family_id: str = None
    generic_alpha: tuple = None  # strict extremal windings of the perturbed
    # generic orbit's cover (needed when isotropy >= 2)

    def __post_init__(self):
        if self.cover < 1:
            raise ValidationError(f"orbit {self.id!r}: cover must be >= 1")
        if self.cover == 1 and self.simple_id != self.id:
            raise ValidationError(
                f"orbit {self.id!r}: a simply covered orbit is its own simple orbit"
            )
        object.__setattr__(self, "distinct_from", frozenset(self.distinct_from))
        if isinstance(self.kind, MorseBott):
            if self.cover % self.kind.isotropy:
                raise ValidationError(
                    f"orbit {self.id!r}: isotropy must divide the covering number"
                )
            if isinstance(self.winding, DeclaredMorseBott):
                if self.winding.kernel_dim != self.kind.kernel_dim:
                    raise ValidationError(
                        f"orbit {self.id!r}: declared windings give kernel dimension "
                        f"{self.winding.kernel_dim}, expected {self.kind.kernel_dim}"
                    )
            if isinstance(self.winding, DeclaredNondegenerate):
                raise ValidationError(
                    f"orbit {self.id!r}: Morse-Bott orbit with nondegenerate winding data"
                )
        if isinstance(self.kind, Nondegenerate) and isinstance(
            self.winding, DeclaredMorseBott
        ):
            raise ValidationError(
                f"orbit {self.id!r}: nondegenerate orbit with Morse-Bott winding data"
            )

    @property
    def is_operator_backed(self):
        return isinstance(self.winding, OperatorWinding)

    def shares_simple_orbit(self, other):
        return self.simple_id == other.simple_id

    def declared_distinct(self, other):
        """Geometric distinctness is declared on simple orbits, so covers
        inherit it."""
        return (
            other.simple_id in self.distinct_from
            or self.simple_id in other.distinct_from
        )


def _spectrum(orbit, truncation):
    truncation = truncation or DEFAULT_TRUNCATION
    return GLOBAL_SPECTRUM_CACHE.get(orbit.winding.op, truncation)


def alpha_pm(orbit, pert, truncation=None):
    """Extremal windings (alpha_-, alpha_+, parity) of A + epsilon.

    The perturbed operator must be nondegenerate; a spectrum point at
    -epsilon raises DegeneracyError naming the kernel winding.
    """
    eps = pert.epsilon if isinstance(pert, Perturbation) else Fraction(pert)
    if orbit.is_operator_backed:
        spec = _spectrum(orbit, truncation)
        am, ap = spec.alpha_at(float(eps))
    else:
        am, ap = _declared_alpha(orbit, eps)
    p = ap - am
    if p not in (0, 1):
        raise ConsistencyError(
            f"orbit {orbit.id!r}: perturbed parity {p} outside {{0, 1}};"
            " winding data is inconsistent"
        )
    return am, ap, p


def _declared_alpha(orbit, eps):
    w = orbit.winding
    if isinstance(w, DeclaredNondegenerate):
        return w.alpha_minus, w.alpha_plus
    if isinstance(w, DeclaredMorseBott):
        if eps > 0:
            return tuple(w.plus_delta)
        if eps < 0:
            return tuple(w.minus_delta)
        raise DegeneracyError(
            f"orbit {orbit.id!r} is degenerate at epsilon = 0 "
            f"(kernel winding {w.minus_delta[0]})",
            kernel_winding=w.minus_delta[0],
        )
    raise MissingDataError(f"orbit {orbit.id!r} has no winding data")


def alpha_strict(orbit, side, truncation=None):
    """Extremal winding of the unperturbed operator, kernel excluded.

    For side '-' this is the largest winding among strictly negative
    eigenvalues, equal to alpha_-(A + delta) for small delta > 0; dually
    for side '+'.  Well defined also for degenerate (Morse-Bott) orbits.
    """
    if side not in (SIDE_MINUS, SIDE_PLUS):
        raise ValidationError(f"bad side {side!r}")
    w = orbit.winding
    if isinstance(w, OperatorWinding):
        spec = _spectrum(orbit, truncation)
        sign = -1 if side == SIDE_MINUS else 1
        windings = [wi for lam, wi, _ in spec.eigenpairs if sign * lam > spec.degeneracy_tol]
        if not windings:
            raise SpectralError(
                f"orbit {orbit.id!r}: the reliable window has no eigenvalue on side"
                f" {side!r} of 0; increase the truncation"
            )
        return max(windings) if side == SIDE_MINUS else min(windings)
    if isinstance(w, DeclaredNondegenerate):
        return w.alpha_minus if side == SIDE_MINUS else w.alpha_plus
    if isinstance(w, DeclaredMorseBott):
        # Strictly negative spectrum is untouched by a small upward shift.
        return w.plus_delta[0] if side == SIDE_MINUS else w.minus_delta[1]
    raise MissingDataError(f"orbit {orbit.id!r} has no winding data")


def nu_pm(orbit, truncation=None):
    """(nu_-, nu_+): drop of each extremal winding across the kernel."""
    w = orbit.winding
    if isinstance(w, DeclaredNondegenerate):
        return (0, 0)
    if isinstance(w, DeclaredMorseBott):
        return (
            w.minus_delta[0] - w.plus_delta[0],
            w.minus_delta[1] - w.plus_delta[1],
        )
    if isinstance(w, OperatorWinding):
        spec = _spectrum(orbit, truncation)
        if spec.kernel_dimension() == 0:
            return (0, 0)
        probe = spec.gap_around_zero() / 2.0
        am_lo, ap_lo = spec.alpha_at(-probe)  # A - probe
        am_hi, ap_hi = spec.alpha_at(probe)   # A + probe
        nu = (am_lo - am_hi, ap_lo - ap_hi)
        if nu[0] not in (0, 1) or nu[1] not in (0, 1):
            raise ConsistencyError(f"orbit {orbit.id!r}: nu outside {{0,1}}: {nu}")
        return nu
    raise MissingDataError(f"orbit {orbit.id!r} has no winding data")


def kernel_dim(orbit, truncation=None):
    w = orbit.winding
    if isinstance(w, DeclaredNondegenerate):
        return 0
    if isinstance(w, DeclaredMorseBott):
        return w.kernel_dim
    return _spectrum(orbit, truncation).kernel_dimension()


def conley_zehnder(orbit, pert, method=WINDING, truncation=None):
    """Conley-Zehnder index of the perturbed operator.

    ``winding`` uses 2 alpha_- + p.  ``crossing_flow`` integrates the
    linear Hamiltonian flow Psi' = J0 (S - epsilon) Psi and reads the index
    off the trace of Psi(1) and the rotation of Psi(t) e1; it uses only the
    sampled loop, never the spectrum, and the two methods agree on
    nondegenerate data.
    """
    if method == WINDING:
        am, _, p = alpha_pm(orbit, pert, truncation)
        return 2 * am + p
    if method == CROSSING_FLOW:
        if not orbit.is_operator_backed:
            raise MissingDataError(
                "crossing-flow method needs an operator-backed orbit"
            )
        eps = pert.epsilon if isinstance(pert, Perturbation) else Fraction(pert)
        # A + eps = -J0 d/dt - (S - eps), so the linearized Hamiltonian flow
        # of the perturbed operator runs with the matrix loop S - eps.
        return _crossing_flow_cz(orbit.winding.op, -float(eps))
    raise ValidationError(f"unknown Conley-Zehnder method {method!r}")


# ---------------------------------------------------------------------------
# Crossing-flow evaluation


def _crossing_flow_cz(op, epsilon):
    """Conley-Zehnder index of the path Psi' = J0 (S + epsilon) Psi on
    [0, 1]; callers computing the index of A + eps pass epsilon = -eps.

    In dimension 2 the lifted rotations of Psi(t) v over v != 0 fill an
    interval shorter than 1/2 (Hofer-Wysocki-Zehnder, Properties of
    pseudoholomorphic curves in symplectisations II).  The index is 2k when
    that interval contains the integer k, which happens exactly when
    det(I - Psi(1)) = 2 - tr Psi(1) < 0, and 2k + 1 when it lies in
    (k, k + 1); the rotation of Psi(t) e1 picks k.
    """
    n = op.sample_count
    ks = np.arange(n // 2 + 1)
    # S(t) = sum of c_k e^{2 pi i k t} over |k| <= N/2, with c_{-k} = conj(c_k)
    # and the Nyquist mode split evenly between +-N/2, taken as a real sum
    # over k >= 0.  The complex sum's temporaries are four times larger,
    # large enough that the allocator maps them afresh on every call.
    coeffs = 2.0 * op.fourier_coefficients()[ks].reshape(len(ks), 4)
    coeffs[0] /= 2.0
    if n % 2 == 0:
        coeffs[-1] /= 2.0
    h = 1.0 / FLOW_STEPS
    starts = np.arange(FLOW_STEPS) * h
    gauss = math.sqrt(3) / 6

    def generator(t):
        phase = 2 * np.pi * np.outer(t, ks)
        s = (np.cos(phase) @ coeffs.real - np.sin(phase) @ coeffs.imag).reshape(-1, 2, 2)
        return J0 @ (s + epsilon * np.eye(2))

    # Fourth-order Magnus steps from the two Gauss points of each step.  X
    # is trace-free, so X @ X = -det(X) I and exp(X) = cos(w) I +
    # (sin(w) / w) X with w = sqrt(det X), real also when det X < 0; every
    # step lies in Sp(2).
    a1 = generator(starts + (0.5 - gauss) * h)
    a2 = generator(starts + (0.5 + gauss) * h)
    x = 0.5 * h * (a1 + a2) + 0.5 * gauss * h * h * (a2 @ a1 - a1 @ a2)
    w = np.sqrt(np.linalg.det(x).astype(complex))
    steps = (
        np.cos(w).real[:, None, None] * np.eye(2)
        + np.sinc(w / np.pi).real[:, None, None] * x
    )
    psi = np.empty((FLOW_STEPS + 1, 2, 2))
    psi[0] = np.eye(2)
    for j in range(FLOW_STEPS):
        psi[j + 1] = steps[j] @ psi[j]
    trace = psi[-1, 0, 0] + psi[-1, 1, 1]
    if abs(trace - 2.0) < FLOW_TRACE_TOL:
        raise DegeneracyError("degenerate endpoint: the perturbed orbit has kernel")
    e1 = psi[:, 0, 0] + 1j * psi[:, 1, 0]
    turns = float(np.angle(e1[1:] * e1[:-1].conj()).sum()) / (2 * np.pi)
    if trace > 2.0:
        return 2 * round(turns)
    return 2 * math.floor(turns) + 1


# ---------------------------------------------------------------------------
# Covers


def cover_orbit(orbit, k, registry=None, truncation=None):
    """The k-fold cover of an orbit, inheriting the trivialization.

    Operator-backed orbits get the pulled-back operator (eigenvalues scale
    by k).  Declared orbits are looked up in ``registry`` by simple orbit
    and covering number.
    """
    if k < 1:
        raise ValidationError("cover order must be >= 1")
    if k == 1:
        return orbit
    if orbit.is_operator_backed:
        op = orbit.winding.op.pulled_back(k)
        return OrbitClass(
            id=f"{orbit.id}~x{k}",
            simple_id=orbit.simple_id,
            cover=orbit.cover * k,
            winding=OperatorWinding(op),
            kind=None,
            distinct_from=orbit.distinct_from,
            family_id=orbit.family_id,
        )
    found = _registered_cover(registry, orbit.simple_id, orbit.cover * k)
    if found is not None:
        return found
    raise MissingDataError(
        f"no declared data for the {k}-fold cover of orbit {orbit.id!r}"
    )


def _registered_cover(registry, simple_id, cover):
    """The orbit of ``registry`` over ``simple_id`` with covering number
    ``cover``, or None."""
    for cand in (registry or {}).values():
        if cand.simple_id == simple_id and cand.cover == cover:
            return cand
    return None


def cov_extremal(orbit, side, truncation=None):
    """Covering number of the extremal eigenfunctions on the given side.

    An eigenfunction of the covered operator is a d-fold cover exactly when
    its winding is divisible by d; the covering number of the extremal one
    is therefore the largest divisor of the orbit's covering number that
    divides the extremal winding.
    """
    alpha = alpha_strict(orbit, side, truncation)
    return math.gcd(orbit.cover, abs(alpha)) if alpha else orbit.cover


def q_of_cover(orbit, pert, k, side, registry=None, truncation=None):
    """The covering defect q with alpha(+-)(cover^k + k eps) = k alpha(+-) -+ q."""
    eps = pert.epsilon if isinstance(pert, Perturbation) else Fraction(pert)
    base = alpha_pm(orbit, Perturbation(eps), truncation)
    cov = cover_orbit(orbit, k, registry, truncation)
    covered = alpha_pm(cov, Perturbation(k * eps), truncation)
    if side == SIDE_MINUS:
        q = covered[0] - k * base[0]
    elif side == SIDE_PLUS:
        q = k * base[1] - covered[1]
    else:
        raise ValidationError(f"bad side {side!r}")
    if not 0 <= q <= k - 1:
        raise ConsistencyError(
            f"covering defect q = {q} outside [0, {k - 1}] for orbit {orbit.id!r};"
            " winding data is inconsistent"
        )
    return q


def _signed_alpha_term(orbit, pert, sign, truncation):
    """(-+ alpha_-+) / cover as an exact fraction, for the Omega pairing;
    ``pert`` None takes the unperturbed operator with its kernel excluded."""
    side = SIDE_MINUS if sign == SIDE_PLUS else SIDE_PLUS
    if pert is None:
        alpha = alpha_strict(orbit, side, truncation)
    else:
        am, ap, _ = alpha_pm(orbit, pert, truncation)
        alpha = am if side == SIDE_MINUS else ap
    return Fraction(-alpha if sign == SIDE_PLUS else alpha, orbit.cover)


def _check_comparable(a, b):
    if a.shares_simple_orbit(b):
        return True
    if a.declared_distinct(b):
        return False
    raise MissingDataError(
        f"orbits {a.id!r} and {b.id!r} were not declared geometrically distinct "
        "and do not share a simple orbit; add a distinct_from declaration"
    )


def omega_pair(a, pert_a, b, pert_b, sign, truncation=None):
    """The pairwise asymptotic-intersection bound Omega of two perturbed orbits.

    Zero for geometrically distinct orbits; for covers m, n of one simple
    orbit it is m n min{(-+ alpha_-+)/m, (-+ alpha_-+)/n}, evaluated with
    exact rational arithmetic.
    """
    if not _check_comparable(a, b):
        return 0
    ta = _signed_alpha_term(a, pert_a, sign, truncation)
    tb = _signed_alpha_term(b, pert_b, sign, truncation)
    return exact_int(a.cover * b.cover * min(ta, tb), "Omega")


def omega_pair_strict(a, b, sign, truncation=None):
    """Omega at zero perturbation (kernel excluded); defined also for
    Morse-Bott orbits."""
    return omega_pair(a, None, b, None, sign, truncation)


def omega_self(orbit, sign, truncation=None):
    """Self-intersection analogue of Omega for one orbit end."""
    k = orbit.cover
    if sign == SIDE_PLUS:
        alpha = alpha_strict(orbit, SIDE_MINUS, truncation)
        cov = cov_extremal(orbit, SIDE_MINUS, truncation)
        return -(k - 1) * alpha + (cov - 1)
    if sign == SIDE_MINUS:
        alpha = alpha_strict(orbit, SIDE_PLUS, truncation)
        cov = cov_extremal(orbit, SIDE_PLUS, truncation)
        return (k - 1) * alpha + (cov - 1)
    raise ValidationError(f"bad sign {sign!r}")


def q_tilde(orbit_m, pert_m, orbit_n, pert_n, k, sign, registry=None, truncation=None):
    """Covering defect of the Omega pairing.

    For covers m, n of one simple orbit, Omega(cover^{km} + k delta, cover^n
    + eps) = k Omega(cover^m + delta, cover^n + eps) - q_tilde.
    """
    if not orbit_m.shares_simple_orbit(orbit_n):
        raise ValidationError("q_tilde needs covers of one simple orbit")
    side = SIDE_MINUS if sign == SIDE_PLUS else SIDE_PLUS
    m = orbit_m.cover
    n = orbit_n.cover
    term_m = _signed_alpha_term(orbit_m, pert_m, sign, truncation)
    term_n = _signed_alpha_term(orbit_n, pert_n, sign, truncation)
    q = q_of_cover(orbit_m, pert_m, k, side, registry, truncation)
    first = min(term_m, term_n)
    second = min(term_m - Fraction(q, k * m), term_n)
    value = exact_int(k * m * n * (first - second), "q_tilde")
    if value < 0:
        raise ConsistencyError(f"q_tilde = {value} negative; winding data inconsistent")
    return value


def delta_mb(orbit, pert, sign, truncation=None):
    """Morse-Bott self-intersection defect of one constrained/unconstrained end.

    Zero at constrained ends (positive perturbation).  At unconstrained ends
    of an orbit which is the k-fold cover of a family orbit with isotropy m,
    it is [k (m-1) nu + cov - cov_generic] / 2, with the generic-orbit
    covering data declared on the orbit when the isotropy exceeds 1.
    """
    eps = pert.epsilon if isinstance(pert, Perturbation) else Fraction(pert)
    if eps > 0:
        return Fraction(0)
    if eps == 0:
        raise ValidationError("delta_mb needs a signed constraint perturbation")
    if isinstance(orbit.winding, DeclaredNondegenerate):
        return Fraction(0)
    if isinstance(orbit.kind, Nondegenerate):
        return Fraction(0)
    if orbit.kind is None:
        if orbit.is_operator_backed and kernel_dim(orbit, truncation) == 0:
            return Fraction(0)
        raise MissingDataError(f"orbit {orbit.id!r}: kind needed for delta_mb")
    side = SIDE_MINUS if sign == SIDE_PLUS else SIDE_PLUS
    m = orbit.kind.isotropy
    k = orbit.cover // m
    nu = nu_pm(orbit, truncation)[0 if side == SIDE_MINUS else 1]
    cov_here = cov_extremal(orbit, side, truncation)
    # At isotropy 1 the generic orbit carries the same winding data, so the
    # covering terms cancel.
    cov_generic = generic_cov_extremal(orbit, side, truncation)
    if cov_here < cov_generic:
        raise ConsistencyError(
            f"orbit {orbit.id!r}: cov{side} = {cov_here} smaller than the "
            f"generic orbit's {cov_generic}"
        )
    value = Fraction(k * (m - 1) * nu + cov_here - cov_generic, 2)
    if value < 0:
        raise ConsistencyError(f"delta_mb negative for orbit {orbit.id!r}")
    return value


def generic_cov_extremal(orbit, side, truncation=None):
    """cov of the extremal eigenfunction of the generic nearby orbit's cover.

    Equals the orbit's own cov for nondegenerate orbits and isotropy-1
    families; needs declared generic winding data otherwise.
    """
    if isinstance(orbit.kind, MorseBott) and orbit.kind.isotropy > 1:
        if orbit.generic_alpha is None:
            raise MissingDataError(
                f"orbit {orbit.id!r}: generic-orbit winding data required "
                "(isotropy > 1)"
            )
        k = orbit.cover // orbit.kind.isotropy
        g_alpha = orbit.generic_alpha[0 if side == SIDE_MINUS else 1]
        return math.gcd(k, abs(g_alpha)) if g_alpha else k
    return cov_extremal(orbit, side, truncation)


def generic_cover_number(orbit):
    """Covering number of the generic perturbed orbit (cover / isotropy)."""
    if isinstance(orbit.kind, MorseBott):
        return orbit.cover // orbit.kind.isotropy
    return orbit.cover


def scalar_orbit(orbit_id, theta, cover=1, simple_id=None, n_samples=32,
                 distinct_from=(), family_id=None, kind=None):
    """Operator-backed orbit with the constant loop S = theta * Id.

    The spectrum is exactly {2 pi m - cover * theta} with winding m, so these
    make convenient exactly-analyzable test subjects.
    """
    op = AsymptoticOperator.constant(theta, 0.0, theta, n_samples).pulled_back(cover)
    return OrbitClass(
        id=orbit_id,
        simple_id=simple_id or (orbit_id if cover == 1 else orbit_id + "_simple"),
        cover=cover,
        winding=OperatorWinding(op),
        kind=kind,
        distinct_from=frozenset(distinct_from),
        family_id=family_id,
    )
