"""Multiple-cover relations: constraint pullback, the covering formula for
the normal Chern number, the intersection covering inequality, the partial
order on constraints, and enumeration of possible underlying simple curves.
"""

import itertools
from fractions import Fraction
from functools import cached_property

from .curves import ConstraintSet, CurveData, normal_chern
from .errors import ConsistencyError, ValidationError
from .intersections import PairingInput, intersection_number
from .orbits import cover_orbit, extremal_side, q_of_cover, q_tilde
from .records import record, replace
from .surfaces import (
    BranchedCover,
    euler_char,
    riemann_hurwitz_punctured,
)


@record
class CoverScenario:
    """A branched cover composed with a base curve, and the constraints
    declared on the domain, weaker than the pulled-back ones.  It derives
    each once: the composed curve, at the pulled-back constraints, and the
    limit curve, the composed one at the declared constraints."""

    cover: BranchedCover
    base_curve: CurveData
    total_constraints: ConstraintSet = None  # constraints on the domain; defaults
    # to the pullback of the base constraints

    def __post_init__(self):
        if self.base_curve.surface != self.cover.codomain:
            raise ValidationError("base curve does not live on the cover codomain")
        pulled = pullback_constraints(self.cover, self.base_curve.constraints)
        if self.total_constraints is None:
            object.__setattr__(self, "total_constraints", pulled)
        # The pulled-back constraints lie on the domain, so this also
        # refuses a declared puncture that is not on it.
        extra = self.total_constraints.constrained - pulled.constrained
        if extra:
            raise ValidationError(
                "domain constraints must be dominated by the pulled-back ones: "
                f"{sorted(extra)} are not"
            )

    @property
    def degree(self):
        return self.cover.degree

    @cached_property
    def composed(self):
        return composed_curve(self)

    @cached_property
    def limit(self):
        return replace(self.composed, constraints=self.total_constraints)

    def branched_ends(self):
        """(z, base orbit, constraint perturbation, k_z, sign) of each domain
        puncture z with branching order k_z > 1; the orbit and perturbation
        are the base curve's at the image of z."""
        cover = self.cover
        base_at = {zeta: (orbit, pert) for zeta, _, orbit, pert in self.base_curve.ends}
        for z, sign in cover.domain.punctures:
            k_z = cover.order_at(z)
            if k_z > 1:
                orbit, pert = base_at[cover.target_of(z)]
                yield z, orbit, pert, k_z, sign


def pullback_constraints(cover, base_constraints):
    """Constrain a domain puncture exactly when its image is constrained."""
    constrained = frozenset(
        z
        for z in cover.domain.puncture_ids
        if cover.target_of(z) in base_constraints.constrained
    )
    return ConstraintSet(constrained=constrained, delta=base_constraints.delta)


def composed_curve(scenario):
    """Curve data of (base o cover) at the pulled-back constraints: Chern
    number and critical count scale by the degree, orbits become the
    prescribed covers."""
    cover = scenario.cover
    base = scenario.base_curve
    z_phi = riemann_hurwitz_punctured(cover)
    orbits = {}
    for z in cover.domain.puncture_ids:
        zeta = cover.target_of(z)
        orbits[z] = cover_orbit(base.orbit(zeta), cover.order_at(z))
    return CurveData(
        surface=cover.domain,
        orbit_at=orbits,
        c1_rel=cover.degree * base.c1_rel,
        constraints=pullback_constraints(cover, base.constraints),
        maslov_boundary=0,
        z_du=Fraction(z_phi) + cover.degree * base.z_du,
        somewhere_injective=cover.degree == 1 and base.somewhere_injective,
        homology_tag=f"{base.homology_tag}~cover{cover.degree}",
    )


def cn_cover(scenario):
    """(c_N of the composed curve, the nonnegative correction Q).

    c_N(composed) = degree * c_N(base) + Z(d cover) + Q with Q the sum of
    per-puncture covering defects; the formula value is cross-checked
    against the normal Chern number of the composed curve computed
    directly.
    """
    q_total = sum(
        q_of_cover(orbit, pert, k_z, extremal_side(sign))
        for _, orbit, pert, k_z, sign in scenario.branched_ends()
    )
    cn_base = normal_chern(scenario.base_curve)
    value = scenario.degree * cn_base + riemann_hurwitz_punctured(scenario.cover) + q_total
    direct = normal_chern(scenario.composed)
    if direct != value:
        raise ConsistencyError(
            f"covering formula gives c_N = {value} but the composed curve "
            f"gives {direct}; input data is inconsistent"
        )
    return value, q_total


@record
class CoverBoundReport:
    lhs: int  # i(composed | other)
    rhs: int  # degree * i(base | other)
    slack: int

    def __post_init__(self):
        if self.lhs - self.rhs != self.slack:
            raise ConsistencyError("covering-inequality slack mismatch")
        if self.slack < 0:
            raise ConsistencyError("covering inequality violated")


def i_cover_bound(scenario, other, base_pairing):
    """Covering inequality i(composed | other) >= degree * i(base | other).

    ``base_pairing`` is the declared relative pairing of the base curve with
    the other curve; the composed curve's relative pairing is its multiple
    by the degree.  The slack is recomputed independently as a sum of
    q-tilde terms and must match.
    """
    base_pair = PairingInput(
        left=scenario.base_curve, right=other, relative_pairing=base_pairing
    )
    comp_pair = PairingInput(
        left=scenario.composed, right=other, relative_pairing=scenario.degree * base_pairing
    )
    lhs = intersection_number(comp_pair)
    rhs = scenario.degree * intersection_number(base_pair)

    slack = 0
    for _, base_orbit, pert, k_z, sign_z in scenario.branched_ends():
        for _, sign, other_orbit, other_pert in other.ends:
            if sign == sign_z and base_orbit.shares_simple_orbit(other_orbit):
                slack += q_tilde(base_orbit, pert, other_orbit, other_pert, k_z, sign_z)
    return CoverBoundReport(lhs=lhs, rhs=rhs, slack=slack)


def constraint_leq(u1, u2):
    """Partial order on the constraint sets of two curves over one puncture
    set: u1 <= u2 when every u1-constrained puncture is u2-constrained (to
    the same orbit, which the shared curve data pins down)."""
    if u1.surface != u2.surface:
        raise ValidationError("constraint sets compare over one puncture set")
    return u1.constraints.constrained <= u2.constraints.constrained


@record
class CoverCandidate:
    """Combinatorial sketch of a possible underlying simple curve."""

    degree: int
    codomain_genus: int
    interior_branch_count: int
    # fibers: tuple of (sign, ((puncture id, k_z), ...), constrained, root sketch)
    fibers: tuple

    def sort_key(self):
        return (self.degree, self.codomain_genus, self.interior_branch_count, self.fibers)


def _fiber_compatible(members, orbits, constraints):
    """Can these same-sign punctures share an image under a holomorphic cover?"""
    first = members[0]
    for z in members[1:]:
        a, b = orbits[first], orbits[z]
        same_simple = a.shares_simple_orbit(b)
        same_family = (
            a.family_id is not None and a.family_id == b.family_id
        )
        both_unconstrained = (
            first not in constraints.constrained and z not in constraints.constrained
        )
        if not (same_simple or (same_family and both_unconstrained)):
            return False
    return True


def enumerate_cover_candidates(curve):
    """All combinatorial sketches (codomain, branching orders, constraints)
    that a presentation of the curve as a multiple cover could have.

    Branching orders at a puncture divide the covering number of its orbit;
    punctures may share an image only when their orbits share a simple
    orbit or (if unconstrained) a declared Morse-Bott family.  Existence of
    an actual holomorphic cover is not asserted.
    """
    surface, orbits, constraints = curve.surface, curve.orbit_at, curve.constraints
    ids = list(surface.puncture_ids)

    def partitions(items):
        if not items:
            yield []
            return
        head, rest = items[0], items[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [[head] + part[i]] + part[i + 1 :]
            yield [[head]] + part

    candidates = {}
    for part in partitions(ids):
        # Fibers must be same-sign and orbit-compatible.
        ok = True
        for block in part:
            signs = {surface.sign_of(z) for z in block}
            if len(signs) != 1 or not _fiber_compatible(block, orbits, constraints):
                ok = False
                break
        if not ok:
            continue
        # Each puncture's branching order divides its covering number, and
        # within a fiber the root covering r = cov/k must agree.
        choices_per_block = []
        for block in part:
            opts = []
            divisor_lists = [
                [d for d in range(1, orbits[z].cover + 1) if orbits[z].cover % d == 0]
                for z in block
            ]
            for combo in itertools.product(*divisor_lists):
                roots = {orbits[z].cover // k for z, k in zip(block, combo)}
                if len(roots) == 1:
                    opts.append(tuple(zip(block, combo)))
            choices_per_block.append(opts)
        for assignment in itertools.product(*choices_per_block):
            degrees = {sum(k for _, k in block) for block in assignment}
            if len(degrees) != 1:
                continue
            degree = degrees.pop()
            n_cod = len(assignment)
            chi_dom = euler_char(surface)
            for genus in range(0, surface.genus + 1):
                chi_cod = 2 - 2 * genus - n_cod
                interior = -chi_dom + degree * chi_cod
                if interior < 0:
                    continue
                fibers = []
                for block in assignment:
                    members = tuple(sorted(block))
                    zs = [z for z, _ in members]
                    sign = surface.sign_of(zs[0])
                    constrained = any(z in constraints.constrained for z in zs)
                    root_cov = orbits[zs[0]].cover // dict(members)[zs[0]]
                    root = (orbits[zs[0]].simple_id, root_cov) if constrained else None
                    fibers.append((sign, members, constrained, root))
                cand = CoverCandidate(
                    degree=degree,
                    codomain_genus=genus,
                    interior_branch_count=interior,
                    fibers=tuple(sorted(fibers)),
                )
                candidates[cand.sort_key()] = cand
    return [candidates[key] for key in sorted(candidates)]
