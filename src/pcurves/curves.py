"""Per-curve integer calculus: Fredholm index, normal Chern number,
transversality criterion and kernel bounds, line-bundle operator bounds.

Every curve lives in a 4-dimensional cobordism, the criterion's setting:
each orbit's asymptotic operator is 2x2, on the normal bundle.  Topological
inputs that only an actual map could produce (relative Chern number,
boundary Maslov total, the critical-point count Z(du)) are declared on the
curve; their coherence is enforced through the identities relating the two
normal-Chern-number formulas and, downstream, adjunction.
"""

from fractions import Fraction
from functools import cached_property

from .errors import ConsistencyError, ValidationError
from .orbits import (
    Perturbation,
    alpha_pm,
    conley_zehnder,
)
from .rationals import exact_int, require_half_integer
from .records import record
from .surfaces import POSITIVE, euler_char


@record
class ConstraintSet:
    """Partition of the punctures into constrained and unconstrained ones.

    A constrained puncture has c_z = delta, an unconstrained one c_z = -delta,
    and perturbs its operator by (sign of z) * c_z.
    """

    constrained: frozenset
    delta: Fraction = Fraction(1, 8)

    def __post_init__(self):
        object.__setattr__(self, "constrained", frozenset(self.constrained))
        object.__setattr__(self, "delta", Fraction(self.delta))
        if self.delta <= 0:
            raise ValidationError("constraint weight delta must be positive")
        # The only two perturbations, shared by every puncture.
        object.__setattr__(self, "_up", Perturbation(self.delta))
        object.__setattr__(self, "_down", Perturbation(-self.delta))

    def perturbation(self, z, sign):
        """The operator perturbation at the puncture z of this sign:
        A + (sign of z) * c_z, one of two."""
        if (z in self.constrained) == (sign == POSITIVE):
            return self._up
        return self._down


@record
class CurveData:
    """Topological data of one asymptotically cylindrical curve, with the
    constraint set its invariants are taken at.

    ``ends`` holds (z, sign, orbit, perturbation) of each puncture z in
    puncture order, the perturbation being the constraint's at z; every
    invariant reads the punctures through it.
    """

    surface: object
    orbit_at: dict  # puncture id -> OrbitClass
    c1_rel: int
    constraints: ConstraintSet
    maslov_boundary: int = 0
    z_du: Fraction = Fraction(0)
    somewhere_injective: bool = True
    homology_tag: str = ""

    def __post_init__(self):
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
        extra = self.constraints.constrained - ids
        if extra:
            raise ValidationError(f"constrained punctures not on the surface: {sorted(extra)}")
        object.__setattr__(self, "ends", tuple(
            (z, sign, self.orbit_at[z], self.constraints.perturbation(z, sign))
            for z, sign in self.surface.punctures
        ))

    @cached_property
    def _total_maslov(self):
        """``total_maslov``, kept with the curve as no part of its value."""
        total = self.maslov_boundary
        for _, sign, orbit, pert in self.ends:
            mu = conley_zehnder(orbit, pert)
            if sign == POSITIVE:
                total += mu
            else:
                total -= mu
        return total

    @cached_property
    def _normal_chern(self):
        """``normal_chern``, kept with the curve as no part of its value."""
        value = _normal_chern_from_index(self)
        other = _normal_chern_from_windings(self)
        if other != value:
            raise ConsistencyError(
                f"normal Chern number mismatch: index form gives {value}, "
                f"winding form gives {other}; input data is inconsistent"
            )
        return value

    def orbit(self, z):
        return self.orbit_at[z]

    def sign(self, z):
        return self.surface.sign_of(z)


def even_punctures(curve):
    """The punctures whose perturbed orbit has parity 0, in puncture order."""
    return [z for z, _, orbit, pert in curve.ends if alpha_pm(orbit, pert)[2] == 0]


def parity_partition(curve):
    """(#even, #odd) punctures with respect to the constraints."""
    even = len(even_punctures(curve))
    return even, curve.surface.n_punctures - even


def total_maslov(curve):
    """Boundary Maslov total plus the signed sum of perturbed CZ indices,
    computed once per curve."""
    return curve._total_maslov


def fredholm_index(curve):
    """-chi + 2 c1 + total Maslov, the (n - 3) chi + 2 c1 + mu of a curve in
    a cobordism of complex dimension n = 2."""
    return -euler_char(curve.surface) + 2 * curve.c1_rel + total_maslov(curve)


def _normal_chern_from_index(curve):
    ind = fredholm_index(curve)
    gamma0, _ = parity_partition(curve)
    g = curve.surface.genus
    m = curve.surface.boundary_components
    return Fraction(ind - 2 + 2 * g + gamma0 + m, 2)


def _normal_chern_from_windings(curve):
    total = Fraction(curve.c1_rel - euler_char(curve.surface)) + Fraction(
        curve.maslov_boundary, 2
    )
    for _, sign, orbit, pert in curve.ends:
        am, ap, _ = alpha_pm(orbit, pert)
        if sign == POSITIVE:
            total += am
        else:
            total -= ap
    return total


def normal_chern(curve):
    """Normal first Chern number, computed two independent ways.

    2 c_N = ind - 2 + 2g + #even + m, and the winding form c1 - chi +
    mu_boundary/2 + sum of extremal windings; a disagreement means the
    declared data is incoherent.  Both are computed and compared once per
    curve.
    """
    return curve._normal_chern


def k_bound(c, genus0_count, has_boundary):
    """min{k + l : 0 <= k <= G, 2k + l > 2c}, with l even when closed.

    For k <= c the least admissible l is top - 2k, with top the least
    multiple of the step above 2c, so k + l = top - k falls as k grows to
    min(G, floor c); a k > c admits l = 0, the least such k being
    floor c + 1.  A negative G leaves no k, so it has no minimum."""
    if genus0_count < 0:
        raise ValidationError(f"even-puncture count must be >= 0, got {genus0_count}")
    c = Fraction(c)
    if c < 0:
        return 0
    step = 1 if has_boundary else 2
    top = step * ((2 * c) // step + 1)
    best = top - min(genus0_count, c // 1)
    if genus0_count > c:
        best = min(best, c // 1 + 1)
    return best


@record
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


def transversality_check(curve):
    """Automatic-transversality criterion with kernel-dimension bounds.

    The criterion ind > c_N + Z(du) guarantees regularity; in that case the
    kernel dimension (modulo automorphisms) is exactly max(ind, 2 Z(du)).
    Otherwise the two-case bounds apply, split at ind vs 2 Z(du).
    """
    ind = fredholm_index(curve)
    c_n = normal_chern(curve)
    gamma0, gamma1 = parity_partition(curve)
    z = curve.z_du
    g = curve.surface.genus
    m = curve.surface.boundary_components
    has_boundary = m > 0
    met = ind > c_n + z

    # Reformulations; they must agree with the direct test.
    genus_form = ind > 2 * g + gamma0 + m - 2 + 2 * z
    winding_form = (
        2 * curve.c1_rel + total_maslov(curve) + gamma1
        > 2 * z
    )
    if not genus_form == winding_form == met:
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
        winding_form=winding_form,
    )


@record
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


def index_normal_operator(curve):
    """Index of the normal operator: ind(u) - 2 Z(du)."""
    value = fredholm_index(curve) - 2 * curve.z_du
    return exact_int(value, "normal operator index")


def index_tangent_operator(curve):
    """Index of the tangent-bundle operator: 3 chi + #punctures + 2 Z(du)."""
    chi = euler_char(curve.surface)
    value = 3 * chi + curve.surface.n_punctures + 2 * curve.z_du
    return exact_int(value, "tangent operator index")


def critical_bound_check(curve):
    """Somewhere injective curves satisfy 2 Z(du) <= ind for generic data;
    False flags data that no generic almost complex structure produces."""
    if not curve.somewhere_injective:
        raise ValidationError("critical bound applies to somewhere injective curves")
    return 2 * curve.z_du <= fredholm_index(curve)


@record
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
