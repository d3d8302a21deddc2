"""Scenario files: declaration of surfaces, orbits, curves, pairings and
covers, plus an ordered query list.

The format is JSON; half-integers and rationals are {"num": ..., "den": ...}
objects, orbit winding data is either ``declared`` or ``operator`` (or
``cover`` to pull back an operator-backed simple orbit).  Validation
reports carry a path into the document.
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
    ORDER, RATIONAL, REQUIRED, SIGN, STR, SURFACE, one_of,
)
from .queries import REGISTRY, Query
from .records import record
from .spectral import DEFAULT_TRUNCATION, GLOBAL_SPECTRUM_CACHE, AsymptoticOperator
from .surfaces import BranchedCover, PuncturedSurface

SCHEMA_VERSION = 1
_SCHEMA_VERSION = one_of(SCHEMA_VERSION)
_AMBIENT = one_of(None, "cobordism", "symplectization", "closed").optional()
_ORBIT_KIND = one_of("nondegenerate", "morse_bott")
_WINDING_TYPE = one_of("operator", "cover", "declared")
#: the complex dimension of a curve's cobordism: the calculus is the 4-dimensional one
_AMBIENT_DIM = one_of(2).optional(2)

_TOP_LEVEL_KEYS = {
    "schema_version",
    "delta_gap",
    "ambient",
    "j_mode",
    "surfaces",
    "orbits",
    "curves",
    "pairings",
    "covers",
    "queries",
}


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


def _get(obj, key, location, kind, scenario=None, default=REQUIRED):
    """``obj[key]`` read as ``kind`` (see ``params``); an absent key reads as
    ``default``, else as the kind's default, and is a located error when
    there is neither."""
    if key not in obj:
        if default is REQUIRED:
            default = kind.default
        _require(default is not REQUIRED, f"missing key {key!r}", location)
        return default
    try:
        return kind.parse(obj[key], scenario)
    except ValidationError as exc:
        raise ValidationError(f"{key!r} {exc}", location)


def _located(exc, location):
    """``exc`` if it names where it happened, else its message at ``location``."""
    return exc if exc.location else ValidationError(str(exc), location)


def _check_keys(obj, allowed, location):
    # Tested before formatting: the message reprs the whole document.
    if not isinstance(obj, dict):
        raise ValidationError(f"expected an object, got {obj!r}", location)
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ValidationError(f"unknown keys {sorted(unknown)}", location)


def _parse_surface(doc, location, scenario):
    _check_keys(doc, {"id", "genus", "boundary_components", "punctures"}, location)
    punctures = []
    for i, p in enumerate(_get(doc, "punctures", location, LIST, default=[])):
        loc = f"{location}.punctures[{i}]"
        _check_keys(p, {"id", "sign"}, loc)
        punctures.append((_get(p, "id", loc, STR), _get(p, "sign", loc, SIGN)))
    return _get(doc, "id", location, STR), PuncturedSurface(
        genus=_get(doc, "genus", location, INT),
        boundary_components=_get(doc, "boundary_components", location, INT, default=0),
        punctures=tuple(punctures),
    )


def _parse_kind(doc, location):
    if doc is None:
        return None
    _check_keys(doc, {"type", "manifold_dim", "isotropy"}, location)
    if _get(doc, "type", location, _ORBIT_KIND) == "nondegenerate":
        _require(set(doc) == {"type"}, "nondegenerate takes no manifold_dim or isotropy", location)
        return Nondegenerate()
    return MorseBott(
        manifold_dim=_get(doc, "manifold_dim", location, INT),
        isotropy=_get(doc, "isotropy", location, INT, default=1),
    )


def _parse_winding(doc, location, scenario, operator_winding, simple, cover):
    """The winding data of an orbit; ``operator_winding(op)`` is the winding
    of an operator in this run."""
    wtype = _get(doc, "type", location, _WINDING_TYPE)
    if wtype == "declared":
        _check_keys(
            doc, {"type", "alpha_minus", "alpha_plus", "minus_delta", "plus_delta"}, location
        )
        _require(
            set(doc) - {"type"} in ({"alpha_minus", "alpha_plus"}, {"minus_delta", "plus_delta"}),
            "declared windings need exactly alpha_minus and alpha_plus,"
            " or exactly minus_delta and plus_delta",
            location,
        )
        if "alpha_minus" in doc:
            pair = (_get(doc, "alpha_minus", location, INT), _get(doc, "alpha_plus", location, INT))
            return DeclaredWindings(pair, pair)
        windings = DeclaredWindings(
            tuple(_get(doc, "minus_delta", location, INTS)),
            tuple(_get(doc, "plus_delta", location, INTS)),
        )
        _require(
            windings.kernel_dimension() > 0,
            "Morse-Bott winding data shows no spectral flow across 0",
            location,
        )
        return windings
    if wtype == "operator":
        _check_keys(doc, {"type", "samples"}, location)
        op = AsymptoticOperator(_get(doc, "samples", location, OPERATOR_SAMPLES))
    else:
        _check_keys(doc, {"type"}, location)
        base = scenario.orbits.get(simple)
        _require(base is not None, f"simple orbit {simple!r} must be declared first", location)
        _require(
            base.is_operator_backed,
            "winding type 'cover' needs an operator-backed simple orbit",
            location,
        )
        op = base.winding.op.pulled_back(cover)
    return operator_winding(op)


def _parse_orbit(doc, location, scenario, operator_winding):
    _check_keys(
        doc,
        {
            "id",
            "simple",
            "cover",
            "kind",
            "family",
            "winding",
            "distinct_from",
            "generic_alpha",
        },
        location,
    )
    oid = _get(doc, "id", location, STR)
    cover = _get(doc, "cover", location, ORDER, default=1)
    simple = _get(doc, "simple", location, STR, default=oid if cover == 1 else None)
    _require(simple is not None, "multiply covered orbit needs a simple id", location)
    winding_doc = _get(doc, "winding", location, OBJECT)
    return oid, OrbitClass(
        id=oid,
        simple_id=simple,
        cover=cover,
        winding=_parse_winding(
            winding_doc, f"{location}.winding", scenario, operator_winding, simple, cover
        ),
        kind=_parse_kind(doc.get("kind"), f"{location}.kind"),
        distinct_from=frozenset(_get(doc, "distinct_from", location, IDS, default=())),
        family_id=_get(doc, "family", location, STR, default=None),
        generic_alpha=_get(doc, "generic_alpha", location, INT_PAIR, default=None),
    )


def _parse_curve(doc, location, scenario):
    _check_keys(
        doc,
        {
            "id",
            "surface",
            "n",
            "c1_rel",
            "maslov_boundary",
            "z_du",
            "somewhere_injective",
            "orbits",
            "constrained",
            "delta",
        },
        location,
    )
    surface = _get(doc, "surface", location, SURFACE, scenario)
    orbits = _get(doc, "orbits", location, OBJECT)
    delta = _get(doc, "delta", location, RATIONAL, default=Fraction(1, 8))
    _require(
        0 < delta < scenario.delta_gap,
        f"constraint weight {delta} must lie in (0, delta_gap)",
        location,
    )
    _get(doc, "n", location, _AMBIENT_DIM)
    curve = CurveData(
        surface=surface,
        orbit_at={z: _get(orbits, z, location, ORBIT, scenario) for z in orbits},
        c1_rel=_get(doc, "c1_rel", location, INT),
        maslov_boundary=_get(doc, "maslov_boundary", location, INT, default=0),
        z_du=_get(doc, "z_du", location, RATIONAL, default=Fraction(0)),
        somewhere_injective=_get(doc, "somewhere_injective", location, BOOL, default=True),
        homology_tag=_get(doc, "id", location, STR),
        constraints=ConstraintSet(
            constrained=frozenset(_get(doc, "constrained", location, IDS, default=())),
            delta=delta,
        ),
    )
    return curve.homology_tag, curve


def _parse_cover(doc, location, scenario):
    _check_keys(
        doc,
        {
            "id",
            "domain",
            "codomain",
            "degree",
            "fiber",
            "interior_branch_count",
            "base_curve",
            "total_constrained",
        },
        location,
    )
    fiber = {}
    for i, entry in enumerate(_get(doc, "fiber", location, LIST)):
        loc = f"{location}.fiber[{i}]"
        _check_keys(entry, {"from", "to", "order"}, loc)
        fiber[_get(entry, "from", loc, STR)] = (
            _get(entry, "to", loc, STR),
            _get(entry, "order", loc, INT, default=1),
        )
    base_curve = _get(doc, "base_curve", location, CURVE, scenario)
    total = _get(doc, "total_constrained", location, IDS, default=None)
    if total is not None:
        total = ConstraintSet(frozenset(total), base_curve.constraints.delta)
    cover = BranchedCover(
        domain=_get(doc, "domain", location, SURFACE, scenario),
        codomain=_get(doc, "codomain", location, SURFACE, scenario),
        degree=_get(doc, "degree", location, INT),
        fiber_map=fiber,
        interior_branch_count=_get(doc, "interior_branch_count", location, INT, default=0),
    )
    return _get(doc, "id", location, STR), CoverScenario(
        cover=cover,
        base_curve=base_curve,
        total_constraints=total,
    )


def _parse_pairing(doc, location, scenario):
    _check_keys(
        doc, {"left", "right", "relative_pairing", "end_intersections"}, location
    )
    left = _get(doc, "left", location, CURVE, scenario)
    right = _get(doc, "right", location, CURVE, scenario)
    ends = {}
    for i, entry in enumerate(_get(doc, "end_intersections", location, LIST, default=[])):
        loc = f"{location}.end_intersections[{i}]"
        _check_keys(entry, {"left_puncture", "right_puncture", "value"}, loc)
        z, zp = _get(entry, "left_puncture", loc, STR), _get(entry, "right_puncture", loc, STR)
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
        ends[(z, zp)] = _get(entry, "value", f"{loc}.value", COUNT)
    pairing = PairingInput(
        left=left,
        right=right,
        relative_pairing=_get(doc, "relative_pairing", location, INT),
        declared_end_intersections=ends,
    )
    return (left.homology_tag, right.homology_tag), pairing


def _parse_query(doc, location, scenario):
    """A query with its parameters read as its kind declares them; an
    unknown kind is an error of that query when it runs."""
    _require(
        isinstance(doc, dict) and isinstance(doc.get("name"), str), "query needs a name", location
    )
    params = REGISTRY.params(doc["name"])
    if params is None:
        return Query(doc)
    missing = [key for key, kind in params.items() if kind.default is REQUIRED and key not in doc]
    _require(not missing, f"query {doc['name']!r} needs {', '.join(missing)}", location)
    _check_keys(doc, {"name", *params}, location)
    args = {
        key: _get(doc, key, f"{location}.{key}", kind, scenario) for key, kind in params.items()
    }
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
    _check_keys(doc, _TOP_LEVEL_KEYS, "$")
    _get(doc, "schema_version", "$", _SCHEMA_VERSION, default=None)
    # The scenario read so far, whose tables the entries after them name.
    read = SimpleNamespace(
        delta_gap=_get(doc, "delta_gap", "$.delta_gap", RATIONAL, default=Fraction(1, 4)),
        ambient=_get(doc, "ambient", "$.ambient", _AMBIENT),
        j_mode=_get(doc, "j_mode", "$.j_mode", J_MODE, default="homotopy"),
        surfaces={},
        orbits={},
        curves={},
        pairings={},
        covers={},
    )
    _require(read.delta_gap > 0, "delta_gap must be positive", "$.delta_gap")
    operators = {}
    declared = {}  # (simple id, covering number) -> the orbit declared with them

    def operator_winding(op):
        # One object per distinct loop: spectrum cache hits then find their
        # key by identity, not sample by sample.
        return OperatorWinding(operators.setdefault(op, op), truncation)

    def parse_orbit(odoc, location, read):
        oid, orbit = _parse_orbit(odoc, location, read, operator_winding)
        _certify_orbit(orbit, read.delta_gap, location)
        first = declared.setdefault((orbit.simple_id, orbit.cover), orbit)
        _require(
            first is orbit,
            f"cover {orbit.cover} of {orbit.simple_id!r} is already declared as {first.id!r}",
            location,
        )
        return oid, orbit

    for section, noun, parse in (
        ("surfaces", "surface id", _parse_surface),
        ("orbits", "orbit id", parse_orbit),
        ("curves", "curve id", _parse_curve),
        ("pairings", "pairing", _parse_pairing),
        ("covers", "cover id", _parse_cover),
    ):
        table = getattr(read, section)
        for i, entry in enumerate(_get(doc, section, "$", LIST, default=[])):
            location = f"$.{section}[{i}]"
            try:
                key, value = parse(entry, location, read)
            except ValidationError as exc:  # from a constructor, which knows no location
                raise _located(exc, location)
            _require(key not in table, f"duplicate {noun} {key!r}", location)
            table[key] = value
        if section == "orbits":
            read.orbits = _link_orbits(table)
    queries = [
        _parse_query(q, f"$.queries[{i}]", read)
        for i, q in enumerate(_get(doc, "queries", "$", LIST, default=[]))
    ]
    return Scenario(**vars(read), queries=queries)


def _link_orbits(orbits):
    """The orbit section linked (see ``orbits.linked``), once each orbit's
    ``distinct_from`` is found to name declared simple orbits."""
    simple_ids = {orbit.simple_id for orbit in orbits.values()}
    for i, orbit in enumerate(orbits.values()):
        unknown = sorted(orbit.distinct_from - simple_ids)
        _require(
            not unknown, f"distinct_from names no declared simple orbit: {unknown}", f"$.orbits[{i}]"
        )
    return dict(zip(orbits, linked(orbits.values())))
