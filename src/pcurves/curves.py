"""Per-curve integer calculus: Fredholm index, normal Chern number,
transversality criterion and kernel bounds, line-bundle operator bounds.

Topological inputs that only an actual map could produce (relative Chern
number, boundary Maslov total, the critical-point count Z(du)) are declared
on the curve; their coherence is enforced through the identities relating
the two normal-Chern-number formulas and, downstream, adjunction.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError, ValidationError
from .orbits import (
    Perturbation,
    alpha_pm,
    conley_zehnder,
)
from .rationals import exact_int, require_half_integer
from .surfaces import POSITIVE, euler_char


@dataclass(frozen=True)
class CurveData:
    """Topological data of one asymptotically cylindrical curve."""

    surface: object
    ambient_dim_n: int
    orbit_at: dict  # puncture id -> OrbitClass
    c1_rel: int
    maslov_boundary: int = 0
    z_du: Fraction = Fraction(0)
    somewhere_injective: bool = True
    homology_tag: str = ""

    def __post_init__(self):
        if self.ambient_dim_n < 1:
            raise ValidationError("ambient complex dimension must be >= 1")
        object.__setattr__(
            self, "z_du", require_half_integer(self.z_du, "Z(du)")
        )
        if self.z_du < 0:
            raise ValidationError("Z(du) must be nonnegative")
        if self.surface.boundary_components == 0:
            if self.z_du.denominator != 1:
                raise ValidationError("Z(du) must be an integer when there is no boundary")
            if self.maslov_boundary != 0:
                raise ValidationError("boundary Maslov term must vanish without boundary")
        ids = set(self.surface.puncture_ids)
        if set(self.orbit_at) != ids:
            raise ValidationError("orbit assignment must cover exactly the punctures")

    def orbit(self, z):
        return self.orbit_at[z]

    def sign(self, z):
        return self.surface.sign_of(z)


@dataclass(frozen=True)
class ConstraintSet:
    """Partition of the punctures into constrained and unconstrained ones.

    A constrained puncture perturbs its operator by +delta, an unconstrained
    one by -delta.
    """

    constrained: frozenset
    delta: Fraction = Fraction(1, 8)

    def __post_init__(self):
        object.__setattr__(self, "constrained", frozenset(self.constrained))
        object.__setattr__(self, "delta", Fraction(self.delta))
        if self.delta <= 0:
            raise ValidationError("constraint weight delta must be positive")

    def validate_against(self, surface):
        extra = self.constrained - set(surface.puncture_ids)
        if extra:
            raise ValidationError(f"constrained punctures not on the surface: {sorted(extra)}")

    def c_z(self, z):
        return self.delta if z in self.constrained else -self.delta

    def perturbation(self, curve, z):
        """The operator perturbation at z: A + (sign of z) * c_z."""
        sign = curve.sign(z)
        eps = self.c_z(z) if sign == POSITIVE else -self.c_z(z)
        return Perturbation(eps)


def puncture_perturbations(curve, constraints):
    constraints.validate_against(curve.surface)
    return {
        z: constraints.perturbation(curve, z) for z in curve.surface.puncture_ids
    }


def even_punctures(curve, constraints):
    """The punctures whose perturbed orbit has parity 0, in puncture order."""
    return [
        z
        for z, pert in puncture_perturbations(curve, constraints).items()
        if alpha_pm(curve.orbit(z), pert)[2] == 0
    ]


def parity_partition(curve, constraints):
    """(#even, #odd) punctures with respect to the constraints."""
    even = len(even_punctures(curve, constraints))
    return even, curve.surface.n_punctures - even


def total_maslov(curve, constraints):
    """Boundary Maslov total plus the signed sum of perturbed CZ indices."""
    total = curve.maslov_boundary
    for z, pert in puncture_perturbations(curve, constraints).items():
        mu = conley_zehnder(curve.orbit(z), pert)
        if curve.sign(z) == POSITIVE:
            total += mu
        else:
            total -= mu
    return total


def fredholm_index(curve, constraints):
    """(n - 3) chi + 2 c1 + total Maslov."""
    chi = euler_char(curve.surface)
    return (
        (curve.ambient_dim_n - 3) * chi
        + 2 * curve.c1_rel
        + total_maslov(curve, constraints)
    )


def _normal_chern_from_index(curve, constraints):
    ind = fredholm_index(curve, constraints)
    gamma0, _ = parity_partition(curve, constraints)
    g = curve.surface.genus
    m = curve.surface.boundary_components
    return Fraction(ind - 2 + 2 * g + gamma0 + m, 2)


def _normal_chern_from_windings(curve, constraints):
    if curve.ambient_dim_n != 2:
        raise ValidationError(
            "the winding form of the normal Chern number needs ambient dimension 2"
        )
    total = Fraction(curve.c1_rel - euler_char(curve.surface)) + Fraction(
        curve.maslov_boundary, 2
    )
    for z, pert in puncture_perturbations(curve, constraints).items():
        am, ap, _ = alpha_pm(curve.orbit(z), pert)
        if curve.sign(z) == POSITIVE:
            total += am
        else:
            total -= ap
    return total


def normal_chern(curve, constraints):
    """Normal first Chern number, computed two independent ways.

    2 c_N = ind - 2 + 2g + #even + m, and (in ambient dimension 2) the
    winding form c1 - chi + mu_boundary/2 + sum of extremal windings; a
    disagreement means the declared data is incoherent.
    """
    value = _normal_chern_from_index(curve, constraints)
    if curve.ambient_dim_n == 2:
        other = _normal_chern_from_windings(curve, constraints)
        if other != value:
            raise ConsistencyError(
                f"normal Chern number mismatch: index form gives {value}, "
                f"winding form gives {other}; input data is inconsistent"
            )
    return value


def k_bound(c, genus0_count, has_boundary):
    """min{k + l : 0 <= k <= G, 2k + l > 2c}, with l even when closed."""
    c = Fraction(c)
    if c < 0:
        return 0
    best = None
    step = 1 if has_boundary else 2
    # k > c makes l = 0 admissible, so k never needs to exceed G or c + 1.
    for k in range(0, genus0_count + 1):
        need = 2 * c - 2 * k  # need l > this
        l = 0
        while l <= need:
            l += step
        total = k + l
        if best is None or total < best:
            best = total
    return best


@dataclass(frozen=True)
class TransversalityReport:
    index: int
    normal_chern: Fraction
    z_du: Fraction
    criterion_met: bool
    kernel_lower: int
    kernel_upper: int
    gamma0_count: int
    # Equivalent reformulations of the criterion.
    genus_form: bool = False
    winding_form: bool = False

    def __post_init__(self):
        if self.kernel_lower > self.kernel_upper:
            raise ConsistencyError("kernel bounds out of order")


def transversality_check(curve, constraints):
    """Automatic-transversality criterion with kernel-dimension bounds.

    The criterion ind > c_N + Z(du) guarantees regularity; in that case the
    kernel dimension (modulo automorphisms) is exactly max(ind, 2 Z(du)).
    Otherwise the two-case bounds apply, split at ind vs 2 Z(du).
    """
    ind = fredholm_index(curve, constraints)
    c_n = normal_chern(curve, constraints)
    gamma0, gamma1 = parity_partition(curve, constraints)
    z = curve.z_du
    g = curve.surface.genus
    m = curve.surface.boundary_components
    has_boundary = m > 0
    met = ind > c_n + z

    # Reformulations; they must agree with the direct test.
    genus_form = ind > 2 * g + gamma0 + m - 2 + 2 * z
    winding_form = (
        2 * curve.c1_rel + total_maslov(curve, constraints) + gamma1
        > 2 * z
    )
    if genus_form != met or (curve.ambient_dim_n == 2 and winding_form != met):
        raise ConsistencyError("criterion reformulations disagree; data inconsistent")

    two_z = 2 * z
    if ind <= two_z:
        lower = int(two_z)
        upper = lower + k_bound(c_n - z, gamma0, has_boundary)
    else:
        lower = ind
        upper = ind + k_bound(c_n + z - ind, gamma0, has_boundary)
    if met and not lower == upper == max(ind, int(two_z)):
        raise ConsistencyError("criterion met but the kernel bounds do not agree")
    return TransversalityReport(
        index=ind,
        normal_chern=c_n,
        z_du=z,
        criterion_met=met,
        kernel_lower=lower,
        kernel_upper=upper,
        gamma0_count=gamma0,
        genus_form=genus_form,
        winding_form=winding_form if curve.ambient_dim_n == 2 else genus_form,
    )


@dataclass(frozen=True)
class LineBundleReport:
    index: int
    c1_adjusted: Fraction
    injective: bool = False
    surjective: bool = False
    kernel_lower: int = 0
    kernel_upper: int = 0


def line_bundle_bounds(ind_d, c1_adj, gamma0_count, has_boundary):
    """Injectivity/surjectivity criteria and kernel bounds for a
    Cauchy-Riemann operator on a line bundle.

    For ind <= 0: injective iff the adjusted Chern number is negative, and
    otherwise dim ker <= K(c1, #even).  For ind >= 0: surjective iff
    ind > c1, and otherwise ind <= dim ker <= ind + K(c1 - ind, #even).
    """
    c1_adj = Fraction(c1_adj)
    injective = surjective = False
    lower, upper = 0, None
    if ind_d <= 0:
        if c1_adj < 0:
            injective = True
            upper = 0
        else:
            upper = k_bound(c1_adj, gamma0_count, has_boundary)
    if ind_d >= 0:
        if ind_d > c1_adj:
            surjective = True
            lower = ind_d
            upper = ind_d
        else:
            lower = ind_d
            cap = ind_d + k_bound(c1_adj - ind_d, gamma0_count, has_boundary)
            upper = cap if upper is None else min(upper, cap)
    return LineBundleReport(
        index=ind_d,
        c1_adjusted=c1_adj,
        injective=injective,
        surjective=surjective,
        kernel_lower=lower,
        kernel_upper=upper,
    )


def index_normal_operator(curve, constraints):
    """Index of the normal operator: ind(u) - 2 Z(du)."""
    value = fredholm_index(curve, constraints) - 2 * curve.z_du
    return exact_int(value, "normal operator index")


def index_tangent_operator(curve):
    """Index of the tangent-bundle operator: 3 chi + #punctures + 2 Z(du)."""
    chi = euler_char(curve.surface)
    value = 3 * chi + curve.surface.n_punctures + 2 * curve.z_du
    return exact_int(value, "tangent operator index")


def critical_bound_check(curve, constraints):
    """Somewhere injective curves satisfy 2 Z(du) <= ind for generic data;
    False flags data that no generic almost complex structure produces."""
    if not curve.somewhere_injective:
        raise ValidationError("critical bound applies to somewhere injective curves")
    return 2 * curve.z_du <= fredholm_index(curve, constraints)


@dataclass(frozen=True)
class ZeroBudgetReport:
    c1_adjusted: Fraction
    budget: Fraction
    kernel_trivial: bool
    zero_free_kernel: bool


def adjusted_c1_zero_budget(c1_adj):
    """Zero budget Z + Z_infinity available to nontrivial kernel sections.

    Negative budget forces the kernel to be trivial; zero budget makes
    kernel sections zero free, including at infinity.
    """
    c1_adj = Fraction(c1_adj)
    return ZeroBudgetReport(
        c1_adjusted=c1_adj,
        budget=c1_adj,
        kernel_trivial=c1_adj < 0,
        zero_free_kernel=c1_adj == 0,
    )
