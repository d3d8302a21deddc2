"""Stable-nicely-embedded predicate, even/bad puncture analysis, and the
combinatorial degeneration screen for limits of families of such curves.

The genericity of the ambient almost complex structure enters in exactly
one place: the declared lower bound on the index of the underlying simple
curve (-1 for a generic 1-parameter homotopy, 0 for a fixed generic
structure).  The screen carries this as a labeled hypothesis in its
verdict rather than proving it.
"""

from dataclasses import dataclass
from fractions import Fraction

from .covers import composed_curve
from .curves import (
    even_punctures,
    fredholm_index,
    normal_chern,
    parity_partition,
    puncture_perturbations,
)
from .errors import ConsistencyError, ValidationError
from .intersections import adjunction_sing, cov_totals
from .orbits import (
    SIDE_MINUS,
    SIDE_PLUS,
    _registered_cover,
    alpha_pm,
    alpha_strict,
    cov_extremal,
    cover_orbit,
    extremal_side,
    generic_cov_extremal,
    generic_cover_number,
    kernel_dim,
    nu_at,
    q_of_cover,
)
from .surfaces import aut_dim, riemann_hurwitz_punctured

NICELY_EMBEDDED = "nicely_embedded"
UNBRANCHED_COVER_OF_INDEX_ZERO = "unbranched_cover_of_index_zero"
CONTRADICTION = "contradiction"


@dataclass(frozen=True)
class NiceReport:
    is_nice: bool
    failed_conditions: tuple
    genus_zero: bool
    gamma0_rule: bool
    index_range: bool
    c_n_value: Fraction
    index: int
    self_intersection: int
    sing: Fraction = None
    cov_infinity: int = None
    cov_morse_bott: int = None


def is_stable_nicely_embedded(curve, constraints, self_intersection):
    """Check the defining inequalities i <= 0, ind >= 0, ind > c_N, and all
    their combinatorial consequences (genus 0, the even-puncture rule,
    index range, the c_N value, vanishing singularity and covering totals)."""
    if not curve.somewhere_injective:
        raise ValidationError("nice embedding applies to somewhere injective curves")
    ind = fredholm_index(curve, constraints)
    c_n = normal_chern(curve, constraints)
    gamma0, _ = parity_partition(curve, constraints)
    failed = []
    if self_intersection > 0:
        failed.append(f"self-intersection {self_intersection} > 0")
    if ind < 0:
        failed.append(f"index {ind} < 0")
    if not ind > c_n:
        failed.append(f"index {ind} does not exceed c_N = {c_n}")

    genus_zero = curve.surface.genus == 0
    gamma0_rule = gamma0 == (1 if ind == 1 else 0)
    index_range = 0 <= ind <= 2
    sing = None
    cov_inf = cov_mb = None
    if not failed:
        if not genus_zero:
            failed.append("genus must vanish")
        if not gamma0_rule:
            failed.append(f"even-puncture count {gamma0} violates the index rule")
        if not index_range:
            failed.append(f"index {ind} outside {{0, 1, 2}}")
        if c_n not in (Fraction(-1), Fraction(0)):
            failed.append(f"c_N = {c_n} outside {{-1, 0}}")
        cov_inf, cov_mb = cov_totals(curve, constraints)
        sing = adjunction_sing(curve, constraints, self_intersection)
        if sing != 0:
            failed.append(f"singularity index {sing} nonzero")
        if ind in (1, 2):
            if c_n != 0:
                failed.append(f"index {ind} forces c_N = 0, got {c_n}")
            if self_intersection != 0:
                failed.append(
                    f"index {ind} forces i(u|u) = 0, got {self_intersection}"
                )
            if cov_inf or cov_mb:
                failed.append("index 1 or 2 forces vanishing covering totals")
    return NiceReport(
        is_nice=not failed,
        failed_conditions=tuple(failed),
        genus_zero=genus_zero,
        gamma0_rule=gamma0_rule,
        index_range=index_range,
        c_n_value=c_n,
        index=ind,
        self_intersection=self_intersection,
        sing=sing,
        cov_infinity=cov_inf,
        cov_morse_bott=cov_mb,
    )


def is_bad_puncture(orbit, parity_at_puncture, registry=None):
    """Even puncture whose orbit doubly covers a nondegenerate odd orbit."""
    if parity_at_puncture != 0:
        return False
    if orbit.cover % 2:
        return False
    half = _underlying_orbit(orbit, orbit.cover // 2, registry)
    if half is None:
        return False
    if kernel_dim(half) != 0:
        return False
    am = alpha_strict(half, SIDE_MINUS)
    ap = alpha_strict(half, SIDE_PLUS)
    return ap - am == 1


def _underlying_orbit(orbit, target_cover, registry=None):
    """The intermediate cover of the same simple orbit, if resolvable."""
    if orbit.cover == target_cover:
        return orbit
    found = _registered_cover(registry, orbit.simple_id, target_cover)
    simple = (registry or {}).get(orbit.simple_id)
    if found is None and simple is not None and simple.is_operator_backed:
        found = cover_orbit(simple, target_cover, registry)
    return found


@dataclass(frozen=True)
class EvenPunctureReport:
    puncture: str
    case: str  # "nondegenerate_even" | "morse_bott_2dim"
    cover: int
    bad: bool
    nu_matches_constraint: bool = None


def unique_even_analysis(curve, constraints, self_intersection, registry=None):
    """Classify the unique even puncture of an index-1 nicely embedded curve."""
    report = is_stable_nicely_embedded(curve, constraints, self_intersection)
    if not report.is_nice or report.index != 1:
        raise ValidationError("analysis applies to nicely embedded index-1 curves")
    even = even_punctures(curve, constraints)
    if len(even) != 1:
        raise ConsistencyError(
            f"index-1 curve must have exactly one even puncture, found {len(even)}"
        )
    z = even[0]
    orbit = curve.orbit(z)
    kdim = kernel_dim(orbit)
    nu_matches = None
    if kdim == 0:
        case = "nondegenerate_even"
    elif kdim == 1:
        case = "morse_bott_2dim"
        nu = nu_at(orbit, extremal_side(curve.sign(z)))
        nu_matches = (nu == 0) == (z in constraints.constrained)
        if not nu_matches:
            raise ConsistencyError(
                f"even puncture {z!r}: nu = {nu} incompatible with its constraint status"
            )
    else:
        raise ConsistencyError(
            f"even puncture {z!r} sits in a {kdim + 1}-dimensional family; "
            "not possible for a nicely embedded limit"
        )
    if orbit.cover not in (1, 2):
        raise ConsistencyError(
            f"even puncture {z!r} has covering number {orbit.cover}, allowed: 1 or 2"
        )
    bad = False
    if orbit.cover == 2:
        bad = is_bad_puncture(orbit, 0, registry)
        if not bad:
            raise ConsistencyError(
                f"doubly covered even puncture {z!r} must cover a nondegenerate "
                "odd orbit"
            )
    return EvenPunctureReport(
        puncture=z, case=case, cover=orbit.cover, bad=bad, nu_matches_constraint=nu_matches
    )


@dataclass(frozen=True)
class ScreenVerdict:
    outcome: str
    witness: str = ""
    genericity_assumption: str = ""
    index_base: int = None
    c_n_base: Fraction = None
    index_cover: int = None
    bad_puncture: str = None
    remarks: tuple = ()


def _ambient_remarks(ambient):
    if ambient == "symplectization":
        return (
            "R-invariant ambient: a multiple cover would need a somewhere "
            "injective index-0 curve, which generic data excludes; every "
            "curve in the family is embedded",
        )
    if ambient == "closed":
        return (
            "closed ambient: genus-zero domains admit no unbranched multiple "
            "covers by Riemann-Hurwitz; every curve in the family is embedded",
        )
    return ()


def degeneration_screen(
    scenario,
    limit_constraints=None,
    j_mode="homotopy",
    ambient=None,
    registry=None,
):
    """Combinatorial screen for limits of stable nicely embedded families.

    Runs the case ledger: a base curve with c_N >= 0 or (under a generic
    homotopy) index -1 forces covering totals that overrun the adjunction
    budget of the nice family, so those branches are contradictions.  The
    surviving branch has an index-0, c_N = -1, nicely embedded base curve
    and the cover unbranched on the punctured domain.
    """
    if j_mode not in ("homotopy", "fixed"):
        raise ValidationError(f"unknown genericity mode {j_mode!r}")
    lower = -1 if j_mode == "homotopy" else 0
    assumption = (
        f"somewhere injective curves have index >= {lower} "
        f"({'generic 1-parameter homotopy' if lower == -1 else 'fixed generic J'})"
    )
    base = scenario.base_curve
    cons = scenario.base_constraints
    if not base.somewhere_injective:
        raise ValidationError("screen needs a somewhere injective base curve")
    cover = scenario.cover
    limit = limit_constraints or scenario.total_constraints
    ind_v = fredholm_index(base, cons)
    c_n_v = normal_chern(base, cons)
    if ind_v < -1:
        raise ValidationError(
            f"base index {ind_v} below the generic lower bound -1; bad scenario"
        )
    remarks = _ambient_remarks(ambient)
    k = cover.degree

    def verdict(outcome, witness="", **extra):
        return ScreenVerdict(
            outcome=outcome,
            witness=witness,
            genericity_assumption=assumption,
            index_base=ind_v,
            c_n_base=c_n_v,
            remarks=remarks,
            **extra,
        )

    if k == 1:
        return verdict(NICELY_EMBEDDED, witness="degree 1: not a multiple cover")

    if c_n_v > 0:
        return verdict(
            CONTRADICTION,
            witness=(
                f"c_N(base) = {c_n_v} > 0 makes c_N(cover) = "
                f"{k} * c_N(base) + Z + Q positive, but limits of nicely "
                "embedded curves have c_N <= 0"
            ),
        )
    if c_n_v == 0:
        bound = 2 * k - 2
        return verdict(
            CONTRADICTION,
            witness=(
                "c_N(base) = 0 forces Z = Q = 0, so every branching order "
                "divides the extremal windings and cov_infinity + cov_morse_bott "
                f">= 2*deg - 2 = {bound} >= 2, overrunning the adjunction budget "
                "i(u|u) <= 0 of the nice family"
            ),
        )
    if ind_v == -1:
        if j_mode == "fixed":
            return verdict(
                CONTRADICTION,
                witness="index -1 somewhere injective curve excluded for fixed generic J",
            )
        bound = k - 1
        return verdict(
            CONTRADICTION,
            witness=(
                "index(base) = -1 gives a single even base puncture whose covers "
                "force cov_infinity + cov_morse_bott >= deg - 1 = "
                f"{bound} >= 1, overrunning the adjunction budget of the "
                "index-1 nice family"
            ),
        )

    # Surviving branch: c_N(base) = -1 and index 0.
    if c_n_v != -1 or ind_v != 0:
        raise ConsistencyError(
            f"base with c_N = {c_n_v} and index {ind_v} fits no branch of the screen"
        )
    composed = composed_curve(scenario, registry)
    ind_u = fredholm_index(composed, limit)
    z_phi = riemann_hurwitz_punctured(cover)
    if z_phi > 0 or ind_u == 0:
        family_dim = 2 * z_phi + aut_dim(cover.domain) + 1
        kernel_cap = 2 * z_phi
        return verdict(
            CONTRADICTION,
            witness=(
                "a branched cover (or an index-0 multiple cover) is excluded: "
                f"the space of nearby covers has dimension 2 Z + aut + 1 = "
                f"{family_dim} while the kernel bound confines the moduli space "
                f"to dimension 2 Z = {kernel_cap} + aut; nearby curves would all "
                "be covers, contradicting the somewhere injective family"
            ),
            index_cover=ind_u,
        )
    bad = None
    if ind_u == 1:
        even = even_punctures(composed, limit)
        if len(even) != 1:
            raise ConsistencyError("index-1 cover must have exactly one even puncture")
        bad = even[0]
        if not is_bad_puncture(composed.orbit(bad), 0, registry):
            raise ConsistencyError(
                f"the even puncture {bad!r} of an index-1 multiple cover must be bad"
            )
    return verdict(
        UNBRANCHED_COVER_OF_INDEX_ZERO,
        witness=(
            "base curve is nicely embedded with index 0 and c_N = -1; the "
            "cover is unbranched on the punctured domain"
        ),
        index_cover=ind_u,
        bad_puncture=bad,
    )


@dataclass(frozen=True)
class ObstructionReport:
    fires: bool
    forced_total: int
    rows: tuple  # (puncture, k_z, mechanism)


def kernel_section_cover_obstruction(scenario, limit_constraints=None, registry=None):
    """Winding obstruction to multiply covered kernel sections.

    At a puncture with branching order k > 1, a covered kernel section
    would need the covering defect q to vanish and the constrained extremal
    winding to be divisible by k; when the chain goes through it forces
    positive covering totals, contradicting the zero-free budget of the
    nice family.  Returns a report; ``fires`` = the multiple covers are
    isolated in the moduli space.
    """
    cover = scenario.cover
    base = scenario.base_curve
    cons = scenario.base_constraints
    limit = limit_constraints or scenario.total_constraints
    composed = composed_curve(scenario, registry)
    perts = puncture_perturbations(composed, limit)
    rows = []
    fires = False
    forced_total = 0
    for z in cover.domain.puncture_ids:
        k_z = cover.order_at(z)
        if k_z == 1:
            continue
        zeta = cover.target_of(z)
        side = extremal_side(cover.domain.sign_of(z))
        q = q_of_cover(
            base.orbit(zeta),
            cons.perturbation(base, zeta),
            k_z,
            side,
            registry,
        )
        if q != 0:
            rows.append((z, k_z, f"covering defect q = {q} != 0 blocks extremal winding"))
            fires = True
            continue
        orbit_z = composed.orbit(z)
        am, ap, _ = alpha_pm(orbit_z, perts[z])
        alpha = am if side == SIDE_MINUS else ap
        if alpha % k_z:
            rows.append(
                (z, k_z, f"extremal winding {alpha} not divisible by k = {k_z}")
            )
            fires = True
            continue
        forced = _forced_cov_contribution(
            orbit_z, z in limit.constrained, side, k_z
        )
        forced_total += forced
        rows.append(
            (z, k_z, f"divisibility holds; forced covering contribution {forced}")
        )
    if forced_total > 0:
        fires = True
    return ObstructionReport(fires=fires, forced_total=forced_total, rows=tuple(rows))


def _forced_cov_contribution(orbit, constrained, side, k_z):
    """Lower bound for the covering totals contributed by one puncture whose
    extremal winding is divisible by the branching order."""
    if constrained or kernel_dim(orbit) == 0:
        return max(cov_extremal(orbit, side) - 1, 0)
    nu = nu_at(orbit, side)
    if nu == 0:
        return max(generic_cov_extremal(orbit, side) - 1, 0)
    return (generic_cover_number(orbit) - 1) * nu
