"""Multiple-cover relations: constraint pullback, the covering formula for
the normal Chern number, the intersection covering inequality, the partial
order on constraints, and enumeration of possible underlying simple curves.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .curves import ConstraintSet, CurveData, normal_chern
from .errors import ConsistencyError, ValidationError
from .intersections import PairingInput, intersection_number
from .orbits import cover_orbit, extremal_side, q_of_cover, q_tilde
from .surfaces import (
    BranchedCover,
    euler_char,
    riemann_hurwitz_punctured,
)


@dataclass(frozen=True)
class CoverScenario:
    """A branched cover composed with a base curve, with the pulled-back and
    the declared (weaker) constraints on the domain.  It derives each once:
    the pulled-back constraints, the composed curve and the branched ends."""

    cover: BranchedCover
    base_curve: CurveData
    base_constraints: ConstraintSet
    total_constraints: ConstraintSet = None  # constraints on the domain; defaults
    # to the pullback of the base constraints

    def __post_init__(self):
        self.base_constraints.validate_against(self.base_curve.surface)
        if self.base_curve.surface != self.cover.codomain:
            raise ValidationError("base curve does not live on the cover codomain")
        pulled = self.pulled_constraints
        if self.total_constraints is None:
            object.__setattr__(self, "total_constraints", pulled)
        self.total_constraints.validate_against(self.cover.domain)
        if not self.total_constraints.constrained <= pulled.constrained:
            raise ValidationError(
                "domain constraints must be dominated by the pulled-back ones"
            )

    @property
    def degree(self):
        return self.cover.degree

    @cached_property
    def pulled_constraints(self):
        return pullback_constraints(self.cover, self.base_constraints)

    @cached_property
    def composed(self):
        return composed_curve(self)

    def branched_ends(self):
        """(z, base orbit, constraint perturbation, k_z, sign) of each domain
        puncture z with branching order k_z > 1; the orbit and perturbation
        are the base curve's at the image of z."""
        cover, base = self.cover, self.base_curve
        for z in cover.domain.puncture_ids:
            k_z = cover.order_at(z)
            if k_z > 1:
                zeta = cover.target_of(z)
                pert = self.base_constraints.perturbation(base, zeta)
                yield z, base.orbit(zeta), pert, k_z, cover.domain.sign_of(z)


def pullback_constraints(cover, base_constraints):
    """Constrain a domain puncture exactly when its image is constrained."""
    constrained = frozenset(
        z
        for z in cover.domain.puncture_ids
        if cover.target_of(z) in base_constraints.constrained
    )
    return ConstraintSet(constrained=constrained, delta=base_constraints.delta)


def composed_curve(scenario):
    """Curve data of (base o cover): Chern number and critical count scale
    by the degree, orbits become the prescribed covers."""
    cover = scenario.cover
    base = scenario.base_curve
    z_phi = riemann_hurwitz_punctured(cover)
    orbits = {}
    for z in cover.domain.puncture_ids:
        zeta = cover.target_of(z)
        orbits[z] = cover_orbit(base.orbit(zeta), cover.order_at(z))
    return CurveData(
        surface=cover.domain,
        ambient_dim_n=base.ambient_dim_n,
        orbit_at=orbits,
        c1_rel=cover.degree * base.c1_rel,
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
    cn_base = normal_chern(scenario.base_curve, scenario.base_constraints)
    value = scenario.degree * cn_base + riemann_hurwitz_punctured(scenario.cover) + q_total
    direct = normal_chern(scenario.composed, scenario.pulled_constraints)
    if direct != value:
        raise ConsistencyError(
            f"covering formula gives c_N = {value} but the composed curve "
            f"gives {direct}; input data is inconsistent"
        )
    return value, q_total


@dataclass(frozen=True)
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
    other_curve, other_cons = other
    base_pair = PairingInput(
        left=(scenario.base_curve, scenario.base_constraints), right=other,
        relative_pairing=base_pairing,
    )
    comp_pair = PairingInput(
        left=(scenario.composed, scenario.pulled_constraints), right=other,
        relative_pairing=scenario.degree * base_pairing,
    )
    lhs = intersection_number(comp_pair)
    rhs = scenario.degree * intersection_number(base_pair)

    slack = 0
    for _, base_orbit, pert, k_z, sign_z in scenario.branched_ends():
        for zp in other_curve.surface.puncture_ids:
            other_orbit = other_curve.orbit(zp)
            if other_curve.sign(zp) == sign_z and base_orbit.shares_simple_orbit(other_orbit):
                other_pert = other_cons.perturbation(other_curve, zp)
                slack += q_tilde(base_orbit, pert, other_orbit, other_pert, k_z, sign_z)
    return CoverBoundReport(lhs=lhs, rhs=rhs, slack=slack)


def constraint_leq(c1, c2, surface):
    """Partial order on constraint sets over one puncture set: c1 <= c2 when
    every c1-constrained puncture is c2-constrained (to the same orbit,
    which the shared curve data pins down)."""
    c1.validate_against(surface)
    c2.validate_against(surface)
    return c1.constrained <= c2.constrained


@dataclass(frozen=True)
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


def enumerate_cover_candidates(surface, orbits, constraints):
    """All combinatorial sketches (codomain, branching orders, constraints)
    that a presentation of the curve as a multiple cover could have.

    Branching orders at a puncture divide the covering number of its orbit;
    punctures may share an image only when their orbits share a simple
    orbit or (if unconstrained) a declared Morse-Bott family.  Existence of
    an actual holomorphic cover is not asserted.
    """
    constraints.validate_against(surface)
    ids = list(surface.puncture_ids)
    if set(orbits) != set(ids):
        raise ValidationError("orbit map must cover exactly the punctures")

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
