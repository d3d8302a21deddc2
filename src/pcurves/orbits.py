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

from fractions import Fraction
from math import gcd

from .errors import (
    ConsistencyError,
    DegeneracyError,
    MissingDataError,
    ValidationError,
)
from .rationals import exact_int
from .records import field, record, replace
from .spectral import (
    DEFAULT_TRUNCATION,
    GLOBAL_SPECTRUM_CACHE,
    SIDE_MINUS,
    SIDE_PLUS,
    AsymptoticOperator,
    saturated_float,
)

WINDING = "winding"
CROSSING_FLOW = "crossing_flow"


@record
class Nondegenerate:
    kernel_dim = 0


@record
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


@record
class DeclaredWindings:
    """Declared extremal windings (alpha_-, alpha_+) of the operator perturbed
    down and up by a small delta: ``minus_delta`` of A - delta, ``plus_delta``
    of A + delta.

    These answer what the spectrum of an operator-backed orbit answers.  Equal
    pairs are nondegenerate data; otherwise the drops nu_-, nu_+ of the
    windings across 0 add up to the dimension of the kernel.
    """

    minus_delta: tuple
    plus_delta: tuple

    def __post_init__(self):
        for pair in (self.minus_delta, self.plus_delta):
            if len(pair) != 2:
                raise ValidationError("perturbed winding data must be a pair")
            if pair[1] - pair[0] not in (0, 1):
                raise ValidationError("perturbed operator parity must be in {0, 1}")
        if not set(self.nu()) <= {0, 1}:
            raise ValidationError("nu_- and nu_+ must lie in {0, 1}")

    def alpha_at(self, epsilon):
        if epsilon > 0:
            return self.plus_delta
        if epsilon < 0 or not self.kernel_dimension():
            return self.minus_delta
        w = self.minus_delta[0]
        raise DegeneracyError(
            f"declared windings are degenerate at epsilon = 0 (kernel winding {w})",
            kernel_winding=w,
        )

    def alpha_strict(self, side):
        # Strictly negative spectrum is untouched by a small upward shift.
        return self.plus_delta[0] if side == SIDE_MINUS else self.minus_delta[1]

    def nu(self):
        return (
            self.minus_delta[0] - self.plus_delta[0],
            self.minus_delta[1] - self.plus_delta[1],
        )

    def kernel_dimension(self):
        return sum(self.nu())


@record
class OperatorWinding:
    """An asymptotic operator, read at Fourier truncation ``truncation``: its
    spectrum answers what declared windings answer."""

    op: AsymptoticOperator
    truncation: int = DEFAULT_TRUNCATION


@record
class Perturbation:
    """Signed perturbation of an asymptotic operator (A + epsilon).
    ``probe`` is epsilon as the spectral oracle reads it, a float taken once
    here rather than at each of the many probes of one perturbation."""

    epsilon: Fraction

    def __post_init__(self):
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        object.__setattr__(self, "probe", saturated_float(self.epsilon))


@record
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
    # covering number -> declared orbit over this simple orbit (see ``linked``)
    tower: dict = field(dict, compare=False)

    def __post_init__(self):
        if self.cover < 1:
            raise ValidationError(f"orbit {self.id!r}: cover must be >= 1")
        if self.cover == 1 and self.simple_id != self.id:
            raise ValidationError(
                f"orbit {self.id!r}: a simply covered orbit is its own simple orbit"
            )
        object.__setattr__(self, "distinct_from", frozenset(self.distinct_from))
        generic = self.generic_alpha
        if generic is not None and (not isinstance(generic, tuple) or list(map(type, generic)) != [int, int]):
            raise ValidationError(f"orbit {self.id!r}: generic_alpha must be a pair of integers")
        if isinstance(self.kind, MorseBott) and self.cover % self.kind.isotropy:
            raise ValidationError(
                f"orbit {self.id!r}: isotropy must divide the covering number"
            )
        # Operator kernels are matched to the kind when the scenario loads.
        if self.kind is not None and not self.is_operator_backed:
            kdim = self.winding.kernel_dimension()
            if kdim != self.kind.kernel_dim:
                raise ValidationError(
                    f"orbit {self.id!r}: declared windings give kernel dimension "
                    f"{kdim}, expected {self.kind.kernel_dim}"
                )

    @property
    def is_operator_backed(self):
        return isinstance(self.winding, OperatorWinding)

    def spectrum(self, truncation):
        """Its operator's spectrum at ``truncation``, None for its own."""
        if not self.is_operator_backed:
            raise ValidationError(f"orbit {self.id!r} is not operator-backed")
        return _windings(_at(self, truncation))

    def shares_simple_orbit(self, other):
        return self.simple_id == other.simple_id

    def declared_distinct(self, other):
        """Geometric distinctness is declared on simple orbits, so covers
        inherit it."""
        return (
            other.simple_id in self.distinct_from
            or self.simple_id in other.distinct_from
        )


def _windings(orbit):
    """The orbit's winding data: the spectrum of its operator at its
    truncation, or its declared windings.  Both answer alpha_at,
    alpha_strict, nu and kernel_dimension."""
    if orbit.is_operator_backed:
        return GLOBAL_SPECTRUM_CACHE.get(orbit.winding.op, orbit.winding.truncation)
    return orbit.winding


def _at(orbit, truncation):
    """The orbit read at ``truncation``; None keeps its own.  This is the
    per-call ``truncation=`` of conley_zehnder, cov_extremal, q_of_cover,
    omega_pair, omega_self and q_tilde, which perfbench/worker.py passes."""
    if truncation is None or not orbit.is_operator_backed:
        return orbit
    return replace(orbit, winding=replace(orbit.winding, truncation=truncation))


def _epsilon(pert):
    return pert.epsilon if isinstance(pert, Perturbation) else Fraction(pert)


def extremal_side(sign):
    """The side of 0 holding the extremal winding at a puncture of this sign:
    alpha_- at positive punctures, alpha_+ at negative ones."""
    return SIDE_MINUS if sign == SIDE_PLUS else SIDE_PLUS


def alpha_pm(orbit, pert):
    """Extremal windings (alpha_-, alpha_+, parity) of A + epsilon.

    The perturbed operator must be nondegenerate; a spectrum point at
    -epsilon raises DegeneracyError naming the kernel winding.
    """
    if not isinstance(pert, Perturbation):
        pert = Perturbation(pert)
    # Declared windings read the sign of the exact epsilon.
    epsilon = pert.probe if orbit.is_operator_backed else pert.epsilon
    am, ap = _windings(orbit).alpha_at(epsilon)
    p = ap - am
    if p not in (0, 1):
        raise ConsistencyError(
            f"orbit {orbit.id!r}: perturbed parity {p} outside {{0, 1}};"
            " winding data is inconsistent"
        )
    return am, ap, p


def alpha_strict(orbit, side):
    """Extremal winding of the unperturbed operator, kernel excluded.

    For side '-' this is the largest winding among strictly negative
    eigenvalues, equal to alpha_-(A + delta) for small delta > 0; dually
    for side '+'.  Well defined also for degenerate (Morse-Bott) orbits.
    """
    if side not in (SIDE_MINUS, SIDE_PLUS):
        raise ValidationError(f"bad side {side!r}")
    return _windings(orbit).alpha_strict(side)


def nu_pm(orbit):
    """(nu_-, nu_+): drop of each extremal winding across the kernel."""
    nu = _windings(orbit).nu()
    if not set(nu) <= {0, 1}:
        raise ConsistencyError(f"orbit {orbit.id!r}: nu outside {{0,1}}: {nu}")
    return nu


def nu_at(orbit, side):
    """nu on one side: nu_- for '-', nu_+ for '+'."""
    return nu_pm(orbit)[0 if side == SIDE_MINUS else 1]


def kernel_dim(orbit):
    return _windings(orbit).kernel_dimension()


def conley_zehnder(orbit, pert, method=WINDING, truncation=None):
    """Conley-Zehnder index of the perturbed operator.

    ``winding`` uses 2 alpha_- + p.  ``crossing_flow`` integrates the
    linear Hamiltonian flow Psi' = J0 (S - epsilon) Psi and reads the index
    off the trace of Psi(1) and the rotation of Psi(t) e1; it uses only the
    sampled loop, never the spectrum, and the two methods agree on
    nondegenerate data.
    """
    if method == WINDING:
        am, _, p = alpha_pm(_at(orbit, truncation), pert)
        return 2 * am + p
    if method == CROSSING_FLOW:
        if not orbit.is_operator_backed:
            raise MissingDataError(
                "crossing-flow method needs an operator-backed orbit"
            )
        # flow imports numpy, which a run that asks for no flow does without.
        from .flow import crossing_flow_cz

        # A + eps = -J0 d/dt - (S - eps), so the linearized Hamiltonian flow
        # of the perturbed operator runs with the matrix loop S - eps.
        return crossing_flow_cz(orbit.winding.op, -_epsilon(pert))
    raise ValidationError(f"unknown Conley-Zehnder method {method!r}")


# ---------------------------------------------------------------------------
# Covers


def linked(orbits):
    """Copies of ``orbits`` that find their declared covers: each carries the
    tower of its simple orbit, which maps a covering number to the first
    orbit given over that simple orbit with it."""
    towers, copies = {}, []
    for orbit in orbits:
        tower = towers.setdefault(orbit.simple_id, {})
        copies.append(replace(orbit, tower=tower))
        tower.setdefault(orbit.cover, copies[-1])
    return copies


def cover_orbit(orbit, k):
    """The k-fold cover of an orbit, inheriting the trivialization.

    Operator-backed orbits get the pulled-back operator (eigenvalues scale
    by k), read at the orbit's truncation, and the orbit's tower, or the
    tower of the orbit alone when it was never linked.  Declared orbits find
    the declared cover in their tower.
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
            winding=replace(orbit.winding, op=op),
            kind=None,
            distinct_from=orbit.distinct_from,
            family_id=orbit.family_id,
            tower=orbit.tower or {orbit.cover: orbit},
        )
    found = orbit.tower.get(orbit.cover * k)
    if found is not None:
        return found
    raise MissingDataError(
        f"no declared data for the {k}-fold cover of orbit {orbit.id!r}"
    )


def _covering_number(cover, winding):
    """Covering number of an eigenfunction with this winding on a
    ``cover``-fold orbit.

    An eigenfunction of the covered operator is a d-fold cover exactly when
    its winding is divisible by d, so this is the largest divisor of the
    orbit's covering number that divides the winding (gcd(k, 0) = k).
    """
    return gcd(cover, winding)


def cov_extremal(orbit, side, truncation=None):
    """Covering number of the extremal eigenfunctions on the given side."""
    return _covering_number(orbit.cover, alpha_strict(_at(orbit, truncation), side))


def q_of_cover(orbit, pert, k, side, truncation=None):
    """The covering defect q with alpha(+-)(cover^k + k eps) = k alpha(+-) -+ q."""
    orbit = _at(orbit, truncation)
    eps = _epsilon(pert)
    base = alpha_pm(orbit, pert)
    cov = cover_orbit(orbit, k)
    covered = alpha_pm(cov, Perturbation(k * eps))
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


def _signed_alpha_term(orbit, pert, sign):
    """(-+ alpha_-+) / cover as an exact fraction, for the Omega pairing;
    ``pert`` None takes the unperturbed operator with its kernel excluded."""
    side = extremal_side(sign)
    if pert is None:
        alpha = alpha_strict(orbit, side)
    else:
        am, ap, _ = alpha_pm(orbit, pert)
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
    ta = _signed_alpha_term(_at(a, truncation), pert_a, sign)
    tb = _signed_alpha_term(_at(b, truncation), pert_b, sign)
    return exact_int(a.cover * b.cover * min(ta, tb), "Omega")


def omega_pair_strict(a, b, sign):
    """Omega at zero perturbation (kernel excluded); defined also for
    Morse-Bott orbits."""
    return omega_pair(a, None, b, None, sign)


def omega_self(orbit, sign, truncation=None):
    """Self-intersection analogue of Omega for one orbit end."""
    orbit = _at(orbit, truncation)
    k = orbit.cover
    if sign == SIDE_PLUS:
        alpha = alpha_strict(orbit, SIDE_MINUS)
        cov = cov_extremal(orbit, SIDE_MINUS)
        return -(k - 1) * alpha + (cov - 1)
    if sign == SIDE_MINUS:
        alpha = alpha_strict(orbit, SIDE_PLUS)
        cov = cov_extremal(orbit, SIDE_PLUS)
        return (k - 1) * alpha + (cov - 1)
    raise ValidationError(f"bad sign {sign!r}")


def q_tilde(orbit_m, pert_m, orbit_n, pert_n, k, sign, truncation=None):
    """Covering defect of the Omega pairing.

    For covers m, n of one simple orbit, Omega(cover^{km} + k delta, cover^n
    + eps) = k Omega(cover^m + delta, cover^n + eps) - q_tilde.
    """
    if not orbit_m.shares_simple_orbit(orbit_n):
        raise ValidationError("q_tilde needs covers of one simple orbit")
    orbit_m, orbit_n = _at(orbit_m, truncation), _at(orbit_n, truncation)
    side = extremal_side(sign)
    m = orbit_m.cover
    n = orbit_n.cover
    term_m = _signed_alpha_term(orbit_m, pert_m, sign)
    term_n = _signed_alpha_term(orbit_n, pert_n, sign)
    q = q_of_cover(orbit_m, pert_m, k, side)
    first = min(term_m, term_n)
    second = min(term_m - Fraction(q, k * m), term_n)
    value = exact_int(k * m * n * (first - second), "q_tilde")
    if value < 0:
        raise ConsistencyError(f"q_tilde = {value} negative; winding data inconsistent")
    return value


def delta_mb(orbit, pert, sign):
    """Morse-Bott self-intersection defect of one constrained/unconstrained end.

    Zero at constrained ends (positive perturbation).  At unconstrained ends
    of an orbit which is the k-fold cover of a family orbit with isotropy m,
    it is [k (m-1) nu + cov - cov_generic] / 2, with the generic-orbit
    covering data declared on the orbit when the isotropy exceeds 1.
    """
    eps = _epsilon(pert)
    if eps == 0:
        raise ValidationError("delta_mb needs a signed constraint perturbation")
    if eps > 0 or kernel_dim(orbit) == 0:
        return Fraction(0)
    if orbit.kind is None:
        raise MissingDataError(f"orbit {orbit.id!r}: kind needed for delta_mb")
    side = extremal_side(sign)
    m = orbit.kind.isotropy
    k = orbit.cover // m
    nu = nu_at(orbit, side)
    cov_here = cov_extremal(orbit, side)
    # At isotropy 1 the generic orbit carries the same winding data, so the
    # covering terms cancel.
    cov_generic = generic_cov_extremal(orbit, side)
    if cov_here < cov_generic:
        raise ConsistencyError(
            f"orbit {orbit.id!r}: cov{side} = {cov_here} smaller than the "
            f"generic orbit's {cov_generic}"
        )
    value = Fraction(k * (m - 1) * nu + cov_here - cov_generic, 2)
    if value < 0:
        raise ConsistencyError(f"delta_mb negative for orbit {orbit.id!r}")
    return value


def generic_cov_extremal(orbit, side):
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
        g_alpha = orbit.generic_alpha[0 if side == SIDE_MINUS else 1]
        return _covering_number(orbit.cover // orbit.kind.isotropy, g_alpha)
    return cov_extremal(orbit, side)


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
    op = AsymptoticOperator.constant(theta, 0, theta, n_samples).pulled_back(cover)
    return OrbitClass(
        id=orbit_id,
        simple_id=simple_id or (orbit_id if cover == 1 else orbit_id + "_simple"),
        cover=cover,
        winding=OperatorWinding(op),
        kind=kind,
        distinct_from=frozenset(distinct_from),
        family_id=family_id,
    )
