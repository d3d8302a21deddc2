"""Scenario files: declaration of surfaces, orbits, curves, pairings and
covers, plus an ordered query list.

The format is JSON; half-integers and rationals are {"num": ..., "den": ...}
objects, orbit winding data is either ``declared`` or ``operator`` (or
``cover`` to pull back an operator-backed simple orbit).  ``_read`` reads
every object through its schema, which gives each key a kind (see
``params``), and reports a fault at the object's path or a wrong value's key.
"""

import json
from fractions import Fraction
from types import SimpleNamespace

from .covers import CoverScenario
from .curves import ConstraintSet, CurveData
from .errors import ValidationError
from .intersections import PairingInput
from .orbits import DeclaredWindings, MorseBott, Nondegenerate, OperatorWinding, OrbitClass, linked
from .params import (
    BOOL, COUNT, CURVE, IDS, INT, INT_PAIR, INTS, J_MODE, LIST, OBJECT, OPERATOR_SAMPLES, ORBIT,
    ORDER, RATIONAL, REQUIRED, SIGN, STR, SURFACE, Kind, one_of,
)
from .queries import REGISTRY, Query
from .records import record
from .spectral import DEFAULT_TRUNCATION, GLOBAL_SPECTRUM_CACHE, AsymptoticOperator
from .surfaces import BranchedCover, PuncturedSurface

SCHEMA_VERSION = 1


@record
class Scenario:
    delta_gap: Fraction
    surfaces: dict
    orbits: dict
    curves: dict  # id -> CurveData
    pairings: dict  # (left tag, right tag) -> PairingInput
    covers: dict  # id -> CoverScenario
    queries: list  # of Query
    ambient: str = None
    j_mode: str = "homotopy"

    def pairing(self, left, right):
        """The pairing declared for two curves, in either order."""
        tags = (left.homology_tag, right.homology_tag)
        for key in (tags, tags[::-1]):
            if key in self.pairings:
                return self.pairings[key]
        raise ValidationError(f"no pairing declared for {tags}")


def _require(cond, msg, location):
    if not cond:
        raise ValidationError(msg, location)


def _read(doc, kinds, location, scenario=None):
    """The values of the object ``doc`` in the order of ``kinds``, its keys'
    kinds (see ``params``), an absent value read as its kind's default.  No
    object, an unknown key or missing keys with no default are an error at
    ``location``, a wrong value one at ``location.key``."""
    # Tested before formatting: the message reprs the whole document.
    if not isinstance(doc, dict):
        raise ValidationError(f"expected an object, got {doc!r}", location)
    if not doc.keys() <= kinds.keys():
        raise ValidationError(f"unknown keys {sorted(doc.keys() - kinds.keys())}", location)
    values, missing = [], []
    for key, kind in kinds.items():
        if key in doc:
            try:
                values.append(kind.parse(doc[key], scenario))
            except ValidationError as exc:
                raise ValidationError(f"{key!r} {exc}", f"{location}.{key}")
        elif kind.default is REQUIRED:
            missing.append(key)
        else:
            values.append(kind.default)
    if missing:
        raise ValidationError(f"missing {', '.join(missing)}", location)
    return values


def _read_typed(doc, schemas, location):
    """The ``type`` of the object ``doc``, a key of ``schemas``, and its values
    read by the schema there."""
    type_ = doc.get("type") if isinstance(doc, dict) else None
    for name, schema in schemas.items():
        if type_ == name:
            return _read(doc, {"type": STR, **schema}, location)
    # No schema fits: a type given is read alone, so that the error is at it.
    return _read(doc if type_ is None else {"type": type_}, {"type": one_of(*schemas)}, location)


_SURFACE = {
    "id": STR,
    "genus": INT,
    "boundary_components": INT.optional(0),
    "punctures": LIST.optional(()),
}
_PUNCTURE = {"id": STR, "sign": SIGN}


def _parse_surface(doc, location, scenario):
    sid, genus, boundary_components, punctures = _read(doc, _SURFACE, location)
    punctures = tuple(
        tuple(_read(p, _PUNCTURE, f"{location}.punctures[{i}]")) for i, p in enumerate(punctures)
    )
    return sid, PuncturedSurface(
        genus=genus,
        boundary_components=boundary_components,
        punctures=punctures,
    )


_KINDS = {"nondegenerate": {}, "morse_bott": {"manifold_dim": INT, "isotropy": INT.optional(1)}}
_WINDINGS = {
    "operator": {"samples": OPERATOR_SAMPLES},
    "cover": {},
    # spelled either way: the extremal windings, or the windings at -delta and +delta
    "declared": {
        "alpha_minus": INT.optional(),
        "alpha_plus": INT.optional(),
        "minus_delta": INTS.optional(),
        "plus_delta": INTS.optional(),
    },
}


def _parse_winding(doc, location, scenario, simple, cover):
    """The winding data of an orbit."""
    wtype, *values = _read_typed(doc, _WINDINGS, location)
    if wtype == "declared":
        spelled = [value is not None for value in values]
        _require(
            spelled in ([True, True, False, False], [False, False, True, True]),
            "declared windings need exactly alpha_minus and alpha_plus,"
            " or exactly minus_delta and plus_delta",
            location,
        )
        if spelled[0]:
            pair = tuple(values[:2])
            return DeclaredWindings(pair, pair)
        windings = DeclaredWindings(*map(tuple, values[2:]))
        _require(
            windings.kernel_dimension() > 0,
            "Morse-Bott winding data shows no spectral flow across 0",
            location,
        )
        return windings
    if wtype == "operator":
        op = AsymptoticOperator(*values)
    else:
        base = scenario.orbits.get(simple)
        _require(base is not None, f"simple orbit {simple!r} must be declared first", location)
        _require(
            base.is_operator_backed,
            "winding type 'cover' needs an operator-backed simple orbit",
            location,
        )
        op = base.winding.op.pulled_back(cover)
    # One object per distinct loop: spectrum cache hits then find their key
    # by identity, not sample by sample.
    return OperatorWinding(scenario.operators.setdefault(op, op), scenario.truncation)


_ORBIT = {
    "id": STR,
    "simple": STR.optional(),  # its own id when simply covered
    "cover": ORDER.optional(1),
    "kind": Kind(lambda value, scenario: value, None),  # read by its type
    "family": STR.optional(),
    "winding": OBJECT,
    "distinct_from": IDS.optional(()),
    "generic_alpha": INT_PAIR.optional(),
}


def _parse_orbit(doc, location, scenario):
    oid, simple, cover, kind, family, winding, distinct, generic = _read(doc, _ORBIT, location)
    if simple is None and cover == 1:
        simple = oid
    _require(simple is not None, "multiply covered orbit needs a simple id", location)
    if kind is not None:
        _, *family_dims = _read_typed(kind, _KINDS, f"{location}.kind")
        kind = MorseBott(*family_dims) if family_dims else Nondegenerate()
    return oid, OrbitClass(
        id=oid,
        simple_id=simple,
        cover=cover,
        winding=_parse_winding(winding, f"{location}.winding", scenario, simple, cover),
        kind=kind,
        distinct_from=frozenset(distinct),
        family_id=family,
        generic_alpha=generic,
    )


_CURVE = {
    "id": STR,
    "surface": SURFACE,
    # the complex dimension of the cobordism: the calculus is the 4-dimensional one
    "n": one_of(2).optional(2),
    "c1_rel": INT,
    "maslov_boundary": INT.optional(0),
    "z_du": RATIONAL.optional(Fraction(0)),
    "somewhere_injective": BOOL.optional(True),
    "orbits": OBJECT,  # puncture id -> orbit id
    "constrained": IDS.optional(()),
    "delta": RATIONAL.optional(Fraction(1, 8)),
}


def _parse_curve(doc, location, scenario):
    tag, surface, _, c1_rel, maslov, z_du, injective, orbits, constrained, delta = _read(
        doc, _CURVE, location, scenario
    )
    _require(
        0 < delta < scenario.delta_gap,
        f"constraint weight {delta} must lie in (0, delta_gap)",
        location,
    )
    orbit_at = _read(orbits, dict.fromkeys(orbits, ORBIT), f"{location}.orbits", scenario)
    return tag, CurveData(
        surface=surface,
        orbit_at=dict(zip(orbits, orbit_at)),
        c1_rel=c1_rel,
        maslov_boundary=maslov,
        z_du=z_du,
        somewhere_injective=injective,
        homology_tag=tag,
        constraints=ConstraintSet(constrained=frozenset(constrained), delta=delta),
    )


_COVER = {
    "id": STR,
    "domain": SURFACE,
    "codomain": SURFACE,
    "degree": INT,
    "fiber": LIST,
    "interior_branch_count": INT.optional(0),
    "base_curve": CURVE,
    "total_constrained": IDS.optional(),
}
_FIBER = {"from": STR, "to": STR, "order": INT.optional(1)}


def _parse_cover(doc, location, scenario):
    cid, domain, codomain, degree, entries, branch_count, base_curve, total = _read(
        doc, _COVER, location, scenario
    )
    fiber = {}
    for i, entry in enumerate(entries):
        loc = f"{location}.fiber[{i}]"
        z, *image = _read(entry, _FIBER, loc)
        _require(z not in fiber, f"domain puncture {z!r} is already in the fiber", loc)
        fiber[z] = tuple(image)
    if total is not None:
        total = ConstraintSet(frozenset(total), base_curve.constraints.delta)
    return cid, CoverScenario(
        cover=BranchedCover(
            domain=domain,
            codomain=codomain,
            degree=degree,
            fiber_map=fiber,
            interior_branch_count=branch_count,
        ),
        base_curve=base_curve,
        total_constraints=total,
    )


_PAIRING = {
    "left": CURVE,
    "right": CURVE,
    "relative_pairing": INT,
    "end_intersections": LIST.optional(()),
}
_END_INTERSECTION = {"left_puncture": STR, "right_puncture": STR, "value": COUNT}


def _parse_pairing(doc, location, scenario):
    left, right, relative_pairing, entries = _read(doc, _PAIRING, location, scenario)
    ends = {}
    for i, entry in enumerate(entries):
        loc = f"{location}.end_intersections[{i}]"
        z, zp, value = _read(entry, _END_INTERSECTION, loc)
        for side, curve, p in (("left", left, z), ("right", right, zp)):
            _require(
                p in curve.surface.puncture_ids,
                f"{side} curve {curve.homology_tag!r} has no puncture {p!r}",
                f"{loc}.{side}_puncture",
            )
        _require(
            left.sign(z) == right.sign(zp),
            f"punctures {z!r} and {zp!r} have opposite signs; only same-sign ends intersect",
            f"{loc}.right_puncture",
        )
        _require((z, zp) not in ends, f"the end pair ({z!r}, {zp!r}) is already declared", loc)
        ends[(z, zp)] = value
    return (left.homology_tag, right.homology_tag), PairingInput(
        left=left,
        right=right,
        relative_pairing=relative_pairing,
        declared_end_intersections=ends,
    )


def _parse_query(doc, location, scenario):
    """A query with its parameters read as its kind declares them; an
    unknown kind is an error of that query when it runs."""
    _require(
        isinstance(doc, dict) and isinstance(doc.get("name"), str), "query needs a name", location
    )
    params = REGISTRY.params(doc["name"])
    if params is None:
        return Query(doc)
    _, *values = _read(doc, {"name": STR, **params}, location, scenario)
    args = dict(zip(params, values))
    for key, kind in params.items():
        orbit = args.get(kind.perturbs)
        if orbit is not None and not orbit.is_operator_backed:
            # Declared windings hold for perturbations inside the gap only,
            # and a declared k-fold cover is asked at k times the perturbation.
            scaled = f"{kind.scaled_by!r} * {key!r}" if kind.scaled_by else repr(key)
            _require(
                abs(args.get(kind.scaled_by, 1) * args[key].epsilon) < scenario.delta_gap,
                f"{scaled} must lie in (-delta_gap, delta_gap): {orbit.id!r} has declared windings",
                f"{location}.{key}",
            )
    return Query(doc, args)


def _certify_orbit(orbit, delta_gap, location):
    """Operator-backed orbits must have no spectrum in the punctured gap
    (-delta_gap, delta_gap) except an exact kernel matching the kind."""
    if not orbit.is_operator_backed:
        return
    spec = GLOBAL_SPECTRUM_CACHE.get(orbit.winding.op, orbit.winding.truncation)
    kdim = spec.kernel_dimension()
    try:
        spec.gap_margin(delta_gap)
    except ValidationError as exc:
        raise ValidationError(f"orbit {orbit.id!r}: {exc}", location)
    _require(
        orbit.kind is None or kdim == orbit.kind.kernel_dim,
        f"orbit {orbit.id!r}: operator kernel dimension {kdim} does not match "
        f"the declared kind",
        location,
    )


#: each section in the order it is read: the noun of its entries' keys, and their parser
_SECTIONS = {
    "surfaces": ("surface id", _parse_surface),
    "orbits": ("orbit id", _parse_orbit),
    "curves": ("curve id", _parse_curve),
    "pairings": ("pairing", _parse_pairing),
    "covers": ("cover id", _parse_cover),
}
_SCENARIO = {
    "schema_version": one_of(SCHEMA_VERSION).optional(),
    "delta_gap": RATIONAL.optional(Fraction(1, 4)),
    "ambient": one_of(None, "cobordism", "symplectization", "closed").optional(),
    "j_mode": J_MODE.optional("homotopy"),
    "queries": LIST.optional(()),
    **dict.fromkeys(_SECTIONS, LIST.optional(())),
}


def load_scenario(path_or_dict, truncation=DEFAULT_TRUNCATION):
    """Parse and fully validate a scenario; raises ValidationError with a
    document path on the first problem.  Operator-backed orbits are read at
    ``truncation``."""
    if isinstance(path_or_dict, dict):
        doc = path_or_dict
    else:
        with open(path_or_dict, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"not valid JSON: {exc}", str(path_or_dict))
    _, delta_gap, ambient, j_mode, queries, *sections = _read(doc, _SCENARIO, "$")
    _require(delta_gap > 0, "delta_gap must be positive", "$.delta_gap")
    # The scenario read so far, whose tables the entries after them name,
    # with the truncation and the operators of its orbits.
    read = SimpleNamespace(
        delta_gap=delta_gap, ambient=ambient, j_mode=j_mode, truncation=truncation, operators={}
    )
    for (section, (noun, parse)), entries in zip(_SECTIONS.items(), sections):
        table = {}
        setattr(read, section, table)
        for i, entry in enumerate(entries):
            location = f"$.{section}[{i}]"
            try:
                key, value = parse(entry, location, read)
            except ValidationError as exc:  # from a constructor, which knows no location
                raise exc if exc.location else ValidationError(str(exc), location)
            _require(key not in table, f"duplicate {noun} {key!r}", location)
            table[key] = value
        if parse is _parse_orbit:
            read.orbits = _link_orbits(table, delta_gap)
    del read.truncation, read.operators
    queries = [_parse_query(q, f"$.queries[{i}]", read) for i, q in enumerate(queries)]
    return Scenario(**vars(read), queries=queries)


def _link_orbits(orbits, delta_gap):
    """The orbit section linked (see ``orbits.linked``), once each orbit is
    certified, every id in ``distinct_from`` names a simple orbit and no
    simple orbit and covering number name two orbits."""
    simple_ids = {orbit.simple_id for orbit in orbits.values()}
    linked_orbits = linked(orbits.values())
    for i, orbit in enumerate(linked_orbits):
        location = f"$.orbits[{i}]"
        _certify_orbit(orbit, delta_gap, location)
        unknown = sorted(orbit.distinct_from - simple_ids)
        _require(not unknown, f"distinct_from names no declared simple orbit: {unknown}", location)
        first = orbit.tower[orbit.cover]
        _require(
            first is orbit,
            f"cover {orbit.cover} of {orbit.simple_id!r} is already declared as {first.id!r}",
            location,
        )
    return dict(zip(orbits, linked_orbits))
