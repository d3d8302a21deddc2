"""Scenario files: declaration of surfaces, orbits, curves, pairings and
covers, plus an ordered query list.

The format is JSON; half-integers and rationals are {"num": ..., "den": ...}
objects, orbit winding data is either ``declared`` or ``operator`` (or
``cover`` to pull back an operator-backed simple orbit).  Validation
reports carry a path into the document.
"""

import json
from dataclasses import dataclass
from fractions import Fraction

from .covers import CoverScenario
from .curves import ConstraintSet, CurveData
from .errors import ValidationError
from .intersections import PairingInput
from .orbits import (
    CROSSING_FLOW,
    WINDING,
    DeclaredMorseBott,
    DeclaredNondegenerate,
    MorseBott,
    Nondegenerate,
    OperatorWinding,
    OrbitClass,
)
from .queries import REGISTRY
from .rationals import as_fraction
from .spectral import DEFAULT_TRUNCATION, GLOBAL_SPECTRUM_CACHE, AsymptoticOperator
from .surfaces import BranchedCover, PuncturedSurface

SCHEMA_VERSION = 1

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


@dataclass
class Scenario:
    delta_gap: Fraction
    surfaces: dict
    orbits: dict
    curves: dict  # id -> (CurveData, ConstraintSet)
    pairings: dict  # (left tag, right tag) -> PairingInput
    covers: dict  # id -> CoverScenario
    queries: list
    ambient: str = None
    j_mode: str = "homotopy"

    def curve(self, cid):
        if cid not in self.curves:
            raise ValidationError(f"unknown curve {cid!r}")
        return self.curves[cid]

    def orbit(self, oid):
        if oid not in self.orbits:
            raise ValidationError(f"unknown orbit {oid!r}")
        return self.orbits[oid]

    def cover_scenario(self, cid):
        if cid not in self.covers:
            raise ValidationError(f"unknown cover {cid!r}")
        return self.covers[cid]

    def pairing(self, left, right):
        key = (left, right)
        if key in self.pairings:
            return self.pairings[key]
        sym = (right, left)
        if sym in self.pairings:
            return self.pairings[sym]
        raise ValidationError(f"no pairing declared for ({left!r}, {right!r})")


def _require(cond, msg, location):
    if not cond:
        raise ValidationError(msg, location)


_KINDS = {int: "an integer", bool: "a boolean", str: "a string", list: "a list", dict: "an object"}


def _get(obj, key, location, default=None, required=False, kind=None):
    """``obj[key]``, else ``default`` or, if ``required``, a located error;
    a present value must be of ``kind`` (a key of ``_KINDS``) when one is given."""
    if key not in obj:
        if required:
            raise ValidationError(f"missing key {key!r}", location)
        return default
    value = obj[key]
    wrong = kind is not None and (
        not isinstance(value, kind) or isinstance(value, bool) != (kind is bool)
    )
    if wrong:
        raise ValidationError(f"{key!r} must be {_KINDS[kind]}, got {value!r}", location)
    return value


#: JSON types of the query parameters that handlers use as they are
_QUERY_KINDS = {
    **dict.fromkeys(
        ("k", "index", "gamma0", "parity", "c1", "maslov", "genus0", "truncation",
         "boundary_winding"),
        int,
    ),
    "boundary": bool,
    "has_boundary": bool,
}


def _located(exc, location):
    """``exc`` if it names where it happened, else its message at ``location``."""
    return exc if exc.location else ValidationError(str(exc), location)


def _check_keys(obj, allowed, location):
    _require(isinstance(obj, dict), f"expected an object, got {obj!r}", location)
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ValidationError(f"unknown keys {sorted(unknown)}", location)


def _parse_surface(doc, location):
    _check_keys(doc, {"id", "genus", "boundary_components", "punctures"}, location)
    punctures = []
    for i, p in enumerate(_get(doc, "punctures", location, default=[], kind=list)):
        loc = f"{location}.punctures[{i}]"
        _check_keys(p, {"id", "sign"}, loc)
        pid = _get(p, "id", loc, required=True, kind=str)
        punctures.append((pid, _get(p, "sign", loc, required=True)))
    try:
        return PuncturedSurface(
            genus=_get(doc, "genus", location, required=True, kind=int),
            boundary_components=_get(doc, "boundary_components", location, default=0, kind=int),
            punctures=tuple(punctures),
        )
    except ValidationError as exc:
        raise _located(exc, location)


def _parse_kind(doc, location):
    if doc is None:
        return None
    _check_keys(doc, {"type", "manifold_dim", "isotropy"}, location)
    kind_type = _get(doc, "type", location, required=True)
    if kind_type == "nondegenerate":
        return Nondegenerate()
    if kind_type == "morse_bott":
        return MorseBott(
            manifold_dim=_get(doc, "manifold_dim", location, required=True, kind=int),
            isotropy=_get(doc, "isotropy", location, default=1, kind=int),
        )
    raise ValidationError(f"unknown orbit kind {kind_type!r}", location)


def _parse_orbit(doc, location, orbits):
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
    oid = _get(doc, "id", location, required=True, kind=str)
    winding_doc = _get(doc, "winding", location, required=True, kind=dict)
    wtype = _get(winding_doc, "type", f"{location}.winding", required=True)
    cover = _get(doc, "cover", location, default=1, kind=int)
    simple = _get(doc, "simple", location, default=oid if cover == 1 else None, kind=str)
    _require(simple is not None, "multiply covered orbit needs a simple id", location)
    if wtype == "operator":
        _check_keys(winding_doc, {"type", "samples"}, f"{location}.winding")
        samples = _get(winding_doc, "samples", f"{location}.winding", required=True, kind=list)
        try:
            winding = OperatorWinding(AsymptoticOperator(tuple(tuple(s) for s in samples)))
        except (ValidationError, TypeError, ValueError) as exc:  # rows that are not 3 numbers
            raise ValidationError(str(exc), f"{location}.winding")
    elif wtype == "cover":
        _check_keys(winding_doc, {"type"}, f"{location}.winding")
        _require(simple in orbits, f"simple orbit {simple!r} must be declared first", location)
        base = orbits[simple]
        _require(
            base.is_operator_backed,
            "winding type 'cover' needs an operator-backed simple orbit",
            location,
        )
        winding = OperatorWinding(base.winding.op.pulled_back(cover))
    elif wtype == "declared":
        loc = f"{location}.winding"
        _check_keys(
            winding_doc, {"type", "alpha_minus", "alpha_plus", "minus_delta", "plus_delta"}, loc
        )
        if "alpha_minus" in winding_doc:
            winding = DeclaredNondegenerate(
                alpha_minus=_get(winding_doc, "alpha_minus", loc, kind=int),
                alpha_plus=_get(winding_doc, "alpha_plus", loc, required=True, kind=int),
            )
        else:
            winding = DeclaredMorseBott(
                minus_delta=tuple(_get(winding_doc, "minus_delta", loc, required=True, kind=list)),
                plus_delta=tuple(_get(winding_doc, "plus_delta", loc, required=True, kind=list)),
            )
    else:
        raise ValidationError(f"unknown winding type {wtype!r}", f"{location}.winding")
    generic = _get(doc, "generic_alpha", location, kind=list)
    try:
        return OrbitClass(
            id=oid,
            simple_id=simple,
            cover=cover,
            winding=winding,
            kind=_parse_kind(_get(doc, "kind", location), f"{location}.kind"),
            distinct_from=frozenset(_get(doc, "distinct_from", location, default=[], kind=list)),
            family_id=_get(doc, "family", location),
            generic_alpha=tuple(generic) if generic is not None else None,
        )
    except ValidationError as exc:
        raise _located(exc, location)


def _parse_curve(doc, location, surfaces, orbits, delta_gap):
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
    sid = _get(doc, "surface", location, required=True, kind=str)
    _require(sid in surfaces, f"unknown surface {sid!r}", location)
    surface = surfaces[sid]
    orbit_map = {}
    for z, oid in _get(doc, "orbits", location, required=True, kind=dict).items():
        _require(oid in orbits, f"unknown orbit {oid!r} at puncture {z!r}", location)
        orbit_map[z] = orbits[oid]
    delta = as_fraction(_get(doc, "delta", location, default={"num": 1, "den": 8}), location)
    _require(
        0 < delta < delta_gap,
        f"constraint weight {delta} must lie in (0, delta_gap)",
        location,
    )
    try:
        curve = CurveData(
            surface=surface,
            ambient_dim_n=_get(doc, "n", location, default=2, kind=int),
            orbit_at=orbit_map,
            c1_rel=_get(doc, "c1_rel", location, required=True, kind=int),
            maslov_boundary=_get(doc, "maslov_boundary", location, default=0, kind=int),
            z_du=as_fraction(_get(doc, "z_du", location, default=0), location),
            somewhere_injective=_get(
                doc, "somewhere_injective", location, default=True, kind=bool
            ),
            homology_tag=_get(doc, "id", location, required=True, kind=str),
        )
        constraints = ConstraintSet(
            constrained=frozenset(_get(doc, "constrained", location, default=[], kind=list)),
            delta=delta,
        )
        constraints.validate_against(surface)
    except ValidationError as exc:
        raise _located(exc, location)
    return curve, constraints


def _parse_cover(doc, location, surfaces, curves, orbits):
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
    dom_id = _get(doc, "domain", location, required=True, kind=str)
    cod_id = _get(doc, "codomain", location, required=True, kind=str)
    for sid in (dom_id, cod_id):
        _require(sid in surfaces, f"unknown surface {sid!r}", location)
    fiber = {}
    for i, entry in enumerate(_get(doc, "fiber", location, required=True, kind=list)):
        loc = f"{location}.fiber[{i}]"
        _check_keys(entry, {"from", "to", "order"}, loc)
        fiber[_get(entry, "from", loc, required=True)] = (
            _get(entry, "to", loc, required=True),
            _get(entry, "order", loc, default=1, kind=int),
        )
    try:
        cover = BranchedCover(
            domain=surfaces[dom_id],
            codomain=surfaces[cod_id],
            degree=_get(doc, "degree", location, required=True, kind=int),
            fiber_map=fiber,
            interior_branch_count=_get(doc, "interior_branch_count", location, default=0, kind=int),
        )
    except ValidationError as exc:
        raise _located(exc, location)
    base_id = _get(doc, "base_curve", location, required=True, kind=str)
    _require(base_id in curves, f"unknown base curve {base_id!r}", location)
    base_curve, base_cons = curves[base_id]
    total = _get(doc, "total_constrained", location, kind=list)
    total_cons = (
        ConstraintSet(constrained=frozenset(total), delta=base_cons.delta)
        if total is not None
        else None
    )
    try:
        return CoverScenario(
            cover=cover,
            base_curve=base_curve,
            base_constraints=base_cons,
            total_constraints=total_cons,
        )
    except ValidationError as exc:
        raise _located(exc, location)


def _parse_pairing(doc, location, curves):
    _check_keys(
        doc, {"left", "right", "relative_pairing", "end_intersections"}, location
    )
    left = _get(doc, "left", location, required=True, kind=str)
    right = _get(doc, "right", location, required=True, kind=str)
    for cid in (left, right):
        _require(cid in curves, f"unknown curve {cid!r}", location)
    ends = {}
    for i, entry in enumerate(_get(doc, "end_intersections", location, default=[], kind=list)):
        loc = f"{location}.end_intersections[{i}]"
        _check_keys(entry, {"left_puncture", "right_puncture", "value"}, loc)
        left_z = _get(entry, "left_puncture", loc, required=True)
        right_z = _get(entry, "right_puncture", loc, required=True)
        ends[(left_z, right_z)] = _get(entry, "value", loc, required=True, kind=int)
    pairing = PairingInput(
        left=curves[left],
        right=curves[right],
        relative_pairing=_get(doc, "relative_pairing", location, required=True, kind=int),
        declared_end_intersections=ends,
    )
    return (left, right), pairing


def _certify_orbit(orbit, delta_gap, truncation, location):
    """Operator-backed orbits must have no spectrum in the punctured gap
    (-delta_gap, delta_gap) except an exact kernel matching the kind."""
    if not orbit.is_operator_backed:
        return
    spec = GLOBAL_SPECTRUM_CACHE.get(orbit.winding.op, truncation)
    kdim = spec.kernel_dimension()
    gap = spec.gap_around_zero()
    _require(
        gap > float(delta_gap),
        f"orbit {orbit.id!r}: nonzero eigenvalue at distance {gap:.3g} inside "
        f"the declared gap {float(delta_gap):.3g}",
        location,
    )
    if isinstance(orbit.kind, MorseBott):
        _require(
            kdim == orbit.kind.kernel_dim,
            f"orbit {orbit.id!r}: operator kernel dimension {kdim} does not match "
            f"the declared manifold dimension",
            location,
        )
    elif isinstance(orbit.kind, Nondegenerate):
        _require(
            kdim == 0,
            f"orbit {orbit.id!r}: declared nondegenerate but the operator has a kernel",
            location,
        )


def load_scenario(path_or_dict, truncation=DEFAULT_TRUNCATION):
    """Parse and fully validate a scenario; raises ValidationError with a
    document path on the first problem."""
    if isinstance(path_or_dict, dict):
        doc = path_or_dict
    else:
        with open(path_or_dict, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"not valid JSON: {exc}", str(path_or_dict))
    _check_keys(doc, _TOP_LEVEL_KEYS, "$")
    version = _get(doc, "schema_version", "$", default=SCHEMA_VERSION)
    _require(version == SCHEMA_VERSION, f"unsupported schema version {version}", "$")
    delta_gap = as_fraction(_get(doc, "delta_gap", "$", default={"num": 1, "den": 4}), "$.delta_gap")
    _require(delta_gap > 0, "delta_gap must be positive", "$.delta_gap")

    surfaces = {}
    for i, sdoc in enumerate(_get(doc, "surfaces", "$", default=[], kind=list)):
        loc = f"$.surfaces[{i}]"
        surface = _parse_surface(sdoc, loc)
        sid = _get(sdoc, "id", loc, required=True, kind=str)
        _require(sid not in surfaces, f"duplicate surface id {sid!r}", loc)
        surfaces[sid] = surface

    orbits = {}
    for i, odoc in enumerate(_get(doc, "orbits", "$", default=[], kind=list)):
        loc = f"$.orbits[{i}]"
        orbit = _parse_orbit(odoc, loc, orbits)
        _require(orbit.id not in orbits, f"duplicate orbit id {orbit.id!r}", loc)
        _certify_orbit(orbit, delta_gap, truncation, loc)
        orbits[orbit.id] = orbit

    curves = {}
    for i, cdoc in enumerate(_get(doc, "curves", "$", default=[], kind=list)):
        loc = f"$.curves[{i}]"
        curve, cons = _parse_curve(cdoc, loc, surfaces, orbits, delta_gap)
        cid = _get(cdoc, "id", loc, required=True, kind=str)
        _require(cid not in curves, f"duplicate curve id {cid!r}", loc)
        curves[cid] = (curve, cons)

    pairings = {}
    for i, pdoc in enumerate(_get(doc, "pairings", "$", default=[], kind=list)):
        loc = f"$.pairings[{i}]"
        key, pairing = _parse_pairing(pdoc, loc, curves)
        _require(key not in pairings, f"duplicate pairing {key}", loc)
        pairings[key] = pairing

    covers = {}
    for i, vdoc in enumerate(_get(doc, "covers", "$", default=[], kind=list)):
        loc = f"$.covers[{i}]"
        cover = _parse_cover(vdoc, loc, surfaces, curves, orbits)
        cid = _get(vdoc, "id", loc, required=True, kind=str)
        _require(cid not in covers, f"duplicate cover id {cid!r}", loc)
        covers[cid] = cover

    queries = list(_get(doc, "queries", "$", default=[], kind=list))
    for i, q in enumerate(queries):
        loc = f"$.queries[{i}]"
        _require(isinstance(q, dict) and isinstance(q.get("name"), str), "query needs a name", loc)
        missing = REGISTRY.missing_params(q)
        _require(not missing, f"query {q['name']!r} needs {', '.join(missing)}", loc)
        for key, kind in _QUERY_KINDS.items():
            _get(q, key, f"{loc}.{key}", kind=kind)
        k = q.get("k")
        _require(k is None or k >= 1, f"'k' must be >= 1, got {k}", f"{loc}.k")
        if q["name"] == "conley_zehnder":
            method = _get(q, "method", f"{loc}.method", default=WINDING)
            _require(
                method in (WINDING, CROSSING_FLOW),
                f"unknown Conley-Zehnder method {method!r}",
                f"{loc}.method",
            )

    ambient = _get(doc, "ambient", "$")
    _require(
        ambient in (None, "cobordism", "symplectization", "closed"),
        f"unknown ambient type {ambient!r}",
        "$.ambient",
    )
    j_mode = _get(doc, "j_mode", "$", default="homotopy")
    _require(j_mode in ("homotopy", "fixed"), f"unknown j_mode {j_mode!r}", "$.j_mode")

    return Scenario(
        delta_gap=delta_gap,
        surfaces=surfaces,
        orbits=orbits,
        curves=curves,
        pairings=pairings,
        covers=covers,
        queries=queries,
        ambient=ambient,
        j_mode=j_mode,
    )
