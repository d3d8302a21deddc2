"""Punctured-surface combinatorics and branched-cover bookkeeping.

A punctured surface is a closed-orientable-type surface of genus ``g`` with
``m`` boundary components and an ordered list of signed interior punctures.
A branched cover between two of them is purely combinatorial data: degree,
a fiber map with branching orders at the punctures, and a declared total
interior branching order, cross-checked against Riemann-Hurwitz.
"""

from .errors import ConsistencyError, ValidationError
from .records import field, record

POSITIVE = "+"
NEGATIVE = "-"


@record
class PuncturedSurface:
    genus: int
    boundary_components: int
    punctures: tuple  # ordered tuple of (puncture_id: str, sign: "+"|"-")

    def __post_init__(self):
        if self.genus < 0:
            raise ValidationError("genus must be nonnegative")
        if self.boundary_components < 0:
            raise ValidationError("boundary component count must be nonnegative")
        object.__setattr__(self, "punctures", tuple(self.punctures))
        seen = set()
        for pid, sign in self.punctures:
            if sign not in (POSITIVE, NEGATIVE):
                raise ValidationError(f"puncture {pid!r} has bad sign {sign!r}")
            if pid in seen:
                raise ValidationError(f"duplicate puncture id {pid!r}")
            seen.add(pid)
        object.__setattr__(self, "_signs", dict(self.punctures))
        object.__setattr__(self, "puncture_ids", tuple(self._signs))

    def sign_of(self, pid):
        try:
            return self._signs[pid]
        except KeyError:
            raise ValidationError(f"unknown puncture id {pid!r}") from None

    @property
    def n_punctures(self):
        return len(self.punctures)


def euler_char(surface):
    """chi of the punctured surface: 2 - 2g - m - #punctures."""
    return 2 - 2 * surface.genus - surface.boundary_components - surface.n_punctures


def _nonstable_row(surface):
    """Return (teich_dim, aut_dim) for the finitely many non-stable cases."""
    g = surface.genus
    m = surface.boundary_components
    p = surface.n_punctures
    table = {
        (0, 0, 0): (0, 6),  # sphere
        (0, 0, 1): (0, 4),  # plane
        (0, 1, 0): (0, 3),  # disk
        (0, 0, 2): (0, 2),  # cylinder
        (0, 1, 1): (0, 1),  # punctured disk
        (0, 2, 0): (1, 1),  # annulus
        (1, 0, 0): (2, 2),  # torus
    }
    row = table.get((g, m, p))
    if row is None:
        raise ConsistencyError("chi >= 0 implies one of the seven tabulated surfaces")
    return row


def teichmuller_dim(surface):
    """Dimension of the moduli space of complex structures on the surface."""
    if euler_char(surface) < 0:
        return (
            6 * surface.genus
            - 6
            + 3 * surface.boundary_components
            + 2 * surface.n_punctures
        )
    return _nonstable_row(surface)[0]


def aut_dim(surface):
    """Dimension of the automorphism group of the surface; 0 in the stable case."""
    if euler_char(surface) < 0:
        return 0
    return _nonstable_row(surface)[1]


@record
class BranchedCover:
    """Combinatorial branched cover of punctured surfaces.

    ``fiber_map`` sends each domain puncture id to (codomain puncture id,
    branching order k_z >= 1).  ``interior_branch_count`` is the declared
    total branching order away from the punctures; it is checked against
    Riemann-Hurwitz rather than derived, because there is no actual map here.
    """

    domain: PuncturedSurface
    codomain: PuncturedSurface
    degree: int
    fiber_map: dict = field(dict)
    interior_branch_count: int = 0

    def __post_init__(self):
        if self.degree < 1:
            raise ValidationError("cover degree must be >= 1")
        if self.interior_branch_count < 0:
            raise ValidationError("interior branch count must be nonnegative")
        dom_ids = set(self.domain.puncture_ids)
        cod_ids = set(self.codomain.puncture_ids)
        if set(self.fiber_map) != dom_ids:
            raise ValidationError("fiber map must cover exactly the domain punctures")
        fiber_sums = {pid: 0 for pid in cod_ids}
        for z, (target, order) in self.fiber_map.items():
            if target not in cod_ids:
                raise ValidationError(f"fiber target {target!r} is not a codomain puncture")
            if order < 1:
                raise ValidationError(f"branching order at {z!r} must be >= 1")
            if self.domain.sign_of(z) != self.codomain.sign_of(target):
                raise ValidationError(f"puncture {z!r} maps across signs to {target!r}")
            fiber_sums[target] += order
        for zeta, total in fiber_sums.items():
            if total != self.degree:
                raise ValidationError(
                    f"branching orders over {zeta!r} sum to {total}, expected degree {self.degree}"
                )
        # Declared interior branching must satisfy Riemann-Hurwitz.
        expected = -euler_char(self.domain) + self.degree * euler_char(self.codomain)
        if expected != self.interior_branch_count:
            raise ValidationError(
                "interior branch count inconsistent with Riemann-Hurwitz: "
                f"declared {self.interior_branch_count}, formula gives {expected}"
            )

    def order_at(self, z):
        return self.fiber_map[z][1]

    def target_of(self, z):
        return self.fiber_map[z][0]


def riemann_hurwitz_punctured(cover):
    """Algebraic critical-point count Z of the punctured cover.

    Equals -chi(domain) + degree * chi(codomain) with punctured Euler
    characteristics; branch points sitting at punctures do not contribute.
    ``BranchedCover`` holds the declared interior branching to this count,
    and its fibers, each summing to the degree, make the closed-surface
    count agree: interior branching plus the orders k_z - 1 at punctures is
    -chi_closed(domain) + degree * chi_closed(codomain), as
    test_randomized_riemann_hurwitz_and_composition checks on random covers.
    """
    if cover.domain.boundary_components or cover.codomain.boundary_components:
        raise ValidationError("branched covers are only supported for m = 0 surfaces")
    return cover.interior_branch_count


def cover_moduli_dim(cover):
    """Dimension of the space of holomorphic maps near the cover, modulo
    domain automorphisms: 2 Z(d(cover))."""
    return 2 * riemann_hurwitz_punctured(cover)


def compose_covers(first, second):
    """The composite cover second o first (first: A -> B, second: B -> C)."""
    if first.codomain != second.domain:
        raise ValidationError("covers do not compose: codomain/domain mismatch")
    fiber = {}
    for z, (mid, k1) in first.fiber_map.items():
        target, k2 = second.fiber_map[mid]
        fiber[z] = (target, k1 * k2)
    degree = first.degree * second.degree
    interior = first.interior_branch_count + first.degree * second.interior_branch_count
    return BranchedCover(
        domain=first.domain,
        codomain=second.codomain,
        degree=degree,
        fiber_map=fiber,
        interior_branch_count=interior,
    )
