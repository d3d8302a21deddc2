import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from pcurves.curves import ConstraintSet, CurveData
from pcurves.orbits import (
    DeclaredWindings,
    MorseBott,
    Nondegenerate,
    OperatorWinding,
    OrbitClass,
)
from pcurves.spectral import AsymptoticOperator
from pcurves.surfaces import PuncturedSurface


def random_symmetric_loop(rng, degree=3, scale=1.5, n_samples=64):
    """Random trigonometric loop of symmetric 2x2 matrices, sampled so the
    trigonometric interpolant reproduces it exactly."""
    t = np.arange(n_samples) / n_samples
    mats = np.zeros((n_samples, 2, 2))
    for d in range(degree + 1):
        a = rng.uniform(-scale, scale, size=3)
        mats[:, 0, 0] += a[0] * np.cos(2 * np.pi * d * t)
        mats[:, 0, 1] += a[1] * np.cos(2 * np.pi * d * t)
        mats[:, 1, 1] += a[2] * np.cos(2 * np.pi * d * t)
        if d:
            b = rng.uniform(-scale, scale, size=3)
            mats[:, 0, 0] += b[0] * np.sin(2 * np.pi * d * t)
            mats[:, 0, 1] += b[1] * np.sin(2 * np.pi * d * t)
            mats[:, 1, 1] += b[2] * np.sin(2 * np.pi * d * t)
    mats[:, 1, 0] = mats[:, 0, 1]
    return AsymptoticOperator.from_matrices(mats)


def loop_orbit(orbit_id, op, cover=1, **kwargs):
    return OrbitClass(
        id=orbit_id,
        simple_id=orbit_id if cover == 1 else kwargs.pop("simple_id"),
        cover=cover,
        winding=OperatorWinding(op if cover == 1 else op.pulled_back(cover)),
        **kwargs,
    )


def safe_epsilon(spec, preferred=0.0, margin=0.05):
    """A perturbation away from the computed spectrum: the preferred value
    if the gap around it is comfortable, else the midpoint of the spectral
    gap containing it."""
    lams = sorted(lam for lam, _, _ in spec.eigenpairs)
    probe = -preferred
    nearest = min(abs(l - probe) for l in lams)
    if nearest > margin:
        return preferred
    below = max((l for l in lams if l < probe), default=None)
    above = min((l for l in lams if l > probe), default=None)
    if below is None or above is None:
        raise AssertionError("probe point outside the window")
    return -((below + above) / 2.0)


def random_declared_orbit(rng, oid, max_cover=3, allow_morse_bott=True):
    """Random declared orbit with coherent winding data."""
    cover = int(rng.integers(1, max_cover + 1))
    w0 = int(rng.integers(-3, 4))
    simple_id = oid if cover == 1 else f"{oid}_simple"
    if allow_morse_bott and rng.random() < 0.4:
        shape = rng.integers(0, 3)
        if shape == 0:  # 2-dim family, partner eigenvalue below
            winding = DeclaredWindings(minus_delta=(w0, w0 + 1), plus_delta=(w0, w0))
            kind = MorseBott(manifold_dim=2)
        elif shape == 1:  # 2-dim family, partner above
            winding = DeclaredWindings(minus_delta=(w0, w0), plus_delta=(w0 - 1, w0))
            kind = MorseBott(manifold_dim=2)
        else:  # 3-dim family (2-dim kernel)
            winding = DeclaredWindings(
                minus_delta=(w0, w0 + 1), plus_delta=(w0 - 1, w0)
            )
            kind = MorseBott(manifold_dim=3)
        return OrbitClass(
            id=oid, simple_id=simple_id, cover=cover, winding=winding, kind=kind
        )
    p = int(rng.integers(0, 2))
    return OrbitClass(
        id=oid,
        simple_id=simple_id,
        cover=cover,
        winding=DeclaredWindings((w0, w0 + p), (w0, w0 + p)),
        kind=Nondegenerate(),
    )


def random_curve(rng, tag, n_punctures=None, orbit_factory=None):
    """Random consistent curve data over distinct declared orbits."""
    if n_punctures is None:
        n_punctures = int(rng.integers(1, 5))
    punctures = tuple(
        (f"{tag}z{i}", "+" if rng.random() < 0.5 else "-") for i in range(n_punctures)
    )
    surface = PuncturedSurface(
        genus=int(rng.integers(0, 3)), boundary_components=0, punctures=punctures
    )
    orbit_factory = orbit_factory or random_declared_orbit
    orbit_at = {}
    for pid, _ in punctures:
        orbit = orbit_factory(rng, f"{tag}o{pid}")
        orbit = OrbitClass(
            id=orbit.id,
            simple_id=orbit.simple_id,
            cover=orbit.cover,
            winding=orbit.winding,
            kind=orbit.kind,
            distinct_from=frozenset({"*other*"}),
            family_id=None,
            generic_alpha=orbit.generic_alpha,
        )
        orbit_at[pid] = orbit
    # Every orbit here is geometrically distinct from every other.
    all_simples = {o.simple_id for o in orbit_at.values()}
    orbit_at = {
        pid: OrbitClass(
            id=o.id,
            simple_id=o.simple_id,
            cover=o.cover,
            winding=o.winding,
            kind=o.kind,
            distinct_from=frozenset(all_simples - {o.simple_id}),
            family_id=None,
            generic_alpha=o.generic_alpha,
        )
        for pid, o in orbit_at.items()
    }
    c1 = int(rng.integers(-4, 5))
    z_du = Fraction(int(rng.integers(0, 3)))
    constrained = frozenset(
        pid for pid, _ in punctures if rng.random() < 0.5
    )
    return CurveData(
        surface=surface,
        orbit_at=orbit_at,
        c1_rel=c1,
        constraints=ConstraintSet(constrained=constrained, delta=Fraction(1, 8)),
        maslov_boundary=0,
        z_du=z_du,
        somewhere_injective=True,
        homology_tag=tag,
    )


def shifted_declared_orbit(orbit, shift):
    """The same orbit read through a trivialization offset by ``shift`` on
    its simple orbit: all windings move by cover * shift."""
    s = orbit.cover * shift
    w = orbit.winding
    new_w = DeclaredWindings(
        minus_delta=(w.minus_delta[0] + s, w.minus_delta[1] + s),
        plus_delta=(w.plus_delta[0] + s, w.plus_delta[1] + s),
    )
    generic = orbit.generic_alpha
    if generic is not None:
        k = orbit.cover
        if isinstance(orbit.kind, MorseBott):
            k = orbit.cover // orbit.kind.isotropy
        generic = (generic[0] + k * shift, generic[1] + k * shift)
    return OrbitClass(
        id=orbit.id,
        simple_id=orbit.simple_id,
        cover=orbit.cover,
        winding=new_w,
        kind=orbit.kind,
        distinct_from=orbit.distinct_from,
        family_id=orbit.family_id,
        generic_alpha=generic,
    )


def shifted_curve(curve, shifts):
    """Re-express curve data in shifted trivializations; ``shifts`` maps a
    simple orbit id to its integer winding offset."""
    orbit_at = {
        z: shifted_declared_orbit(o, shifts.get(o.simple_id, 0))
        for z, o in curve.orbit_at.items()
    }
    # Raising every winding by w means reading the bundle through a frame
    # twisted the opposite way, so the relative Chern number compensates.
    c1 = curve.c1_rel
    for z, orbit in curve.orbit_at.items():
        w = shifts.get(orbit.simple_id, 0) * orbit.cover
        if curve.surface.sign_of(z) == "+":
            c1 -= w
        else:
            c1 += w
    return CurveData(
        surface=curve.surface,
        orbit_at=orbit_at,
        c1_rel=c1,
        constraints=curve.constraints,
        maslov_boundary=curve.maslov_boundary,
        z_du=curve.z_du,
        somewhere_injective=curve.somewhere_injective,
        homology_tag=curve.homology_tag,
    )
