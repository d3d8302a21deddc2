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
from .orbits import DeclaredWindings, MorseBott, Nondegenerate, OperatorWinding, OrbitClass
from .params import (
    BOOL, CURVE, IDS, INT, INTS, J_MODE, LIST, OBJECT, OPERATOR_SAMPLES, ORBIT, ORDER, RATIONAL,
    REQUIRED, SIGN, STR, SURFACE, one_of,
)
from .queries import REGISTRY, Query
from .spectral import DEFAULT_TRUNCATION, GLOBAL_SPECTRUM_CACHE, AsymptoticOperator
from .surfaces import BranchedCover, PuncturedSurface

SCHEMA_VERSION = 1
_AMBIENT = one_of(None, "cobordism", "symplectization", "closed").optional()

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
    queries: list  # of Query
    ambient: str = None
    j_mode: str = "homotopy"

    def orbit(self, oid):
        if oid not in self.orbits:
            raise ValidationError(f"unknown orbit {oid!r}")
        return self.orbits[oid]

    def pairing(self, left, right):
        """The pairing declared for two curves, each (CurveData, ConstraintSet),
        in either order."""
        tags = (left[0].homology_tag, right[0].homology_tag)
        for key in (tags, tags[::-1]):
            if key in self.pairings:
                return self.pairings[key]
        raise ValidationError(f"no pairing declared for {tags}")


def _require(cond, msg, location):
    if not cond:
        raise ValidationError(msg, location)


def _get(obj, key, location, kind, scenario=None):
    """``obj[key]`` read as ``kind`` (see ``params``); an absent key reads as
    the kind's default, and is a located error when the kind has none."""
    if key not in obj:
        _require(kind.default is not REQUIRED, f"missing key {key!r}", location)
        return kind.default
    try:
        return kind.parse(obj[key], scenario)
    except ValidationError as exc:
        raise ValidationError(f"{key!r} {exc}", location)


def _located(exc, location):
    """``exc`` if it names where it happened, else its message at ``location``."""
    return exc if exc.location else ValidationError(str(exc), location)


def _check_keys(obj, allowed, location):
    _require(isinstance(obj, dict), f"expected an object, got {obj!r}", location)
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ValidationError(f"unknown keys {sorted(unknown)}", location)


def _parse_surface(doc, location, scenario):
    _check_keys(doc, {"id", "genus", "boundary_components", "punctures"}, location)
    punctures = []
    for i, p in enumerate(_get(doc, "punctures", location, LIST.optional([]))):
        loc = f"{location}.punctures[{i}]"
        _check_keys(p, {"id", "sign"}, loc)
        punctures.append((_get(p, "id", loc, STR), _get(p, "sign", loc, SIGN)))
    return _get(doc, "id", location, STR), PuncturedSurface(
        genus=_get(doc, "genus", location, INT),
        boundary_components=_get(doc, "boundary_components", location, INT.optional(0)),
        punctures=tuple(punctures),
    )


def _parse_kind(doc, location):
    if doc is None:
        return None
    _check_keys(doc, {"type", "manifold_dim", "isotropy"}, location)
    if _get(doc, "type", location, one_of("nondegenerate", "morse_bott")) == "nondegenerate":
        return Nondegenerate()
    return MorseBott(
        manifold_dim=_get(doc, "manifold_dim", location, INT),
        isotropy=_get(doc, "isotropy", location, INT.optional(1)),
    )


def _parse_winding(doc, location, scenario, operator_winding, simple, cover):
    """The winding data of an orbit; ``operator_winding(op)`` is the winding
    of an operator in this run."""
    wtype = _get(doc, "type", location, one_of("operator", "cover", "declared"))
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
    cover = _get(doc, "cover", location, ORDER.optional(1))
    simple = _get(doc, "simple", location, STR.optional(oid if cover == 1 else None))
    _require(simple is not None, "multiply covered orbit needs a simple id", location)
    winding_doc = _get(doc, "winding", location, OBJECT)
    generic = _get(doc, "generic_alpha", location, INTS.optional())
    return oid, OrbitClass(
        id=oid,
        simple_id=simple,
        cover=cover,
        winding=_parse_winding(
            winding_doc, f"{location}.winding", scenario, operator_winding, simple, cover
        ),
        kind=_parse_kind(doc.get("kind"), f"{location}.kind"),
        distinct_from=frozenset(_get(doc, "distinct_from", location, IDS.optional(()))),
        family_id=_get(doc, "family", location, STR.optional()),
        generic_alpha=tuple(generic) if generic is not None else None,
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
    delta = _get(doc, "delta", location, RATIONAL.optional(Fraction(1, 8)))
    _require(
        0 < delta < scenario.delta_gap,
        f"constraint weight {delta} must lie in (0, delta_gap)",
        location,
    )
    curve = CurveData(
        surface=surface,
        ambient_dim_n=_get(doc, "n", location, INT.optional(2)),
        orbit_at={z: _get(orbits, z, location, ORBIT, scenario) for z in orbits},
        c1_rel=_get(doc, "c1_rel", location, INT),
        maslov_boundary=_get(doc, "maslov_boundary", location, INT.optional(0)),
        z_du=_get(doc, "z_du", location, RATIONAL.optional(Fraction(0))),
        somewhere_injective=_get(doc, "somewhere_injective", location, BOOL.optional(True)),
        homology_tag=_get(doc, "id", location, STR),
    )
    constraints = ConstraintSet(
        constrained=frozenset(_get(doc, "constrained", location, IDS.optional(()))),
        delta=delta,
    )
    constraints.validate_against(surface)
    return curve.homology_tag, (curve, constraints)


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
            _get(entry, "order", loc, INT.optional(1)),
        )
    base_curve, base_cons = _get(doc, "base_curve", location, CURVE, scenario)
    total = _get(doc, "total_constrained", location, IDS.optional())
    cover = BranchedCover(
        domain=_get(doc, "domain", location, SURFACE, scenario),
        codomain=_get(doc, "codomain", location, SURFACE, scenario),
        degree=_get(doc, "degree", location, INT),
        fiber_map=fiber,
        interior_branch_count=_get(doc, "interior_branch_count", location, INT.optional(0)),
    )
    return _get(doc, "id", location, STR), CoverScenario(
        cover=cover,
        base_curve=base_curve,
        base_constraints=base_cons,
        total_constraints=(
            ConstraintSet(frozenset(total), base_cons.delta) if total is not None else None
        ),
    )


def _parse_pairing(doc, location, scenario):
    _check_keys(
        doc, {"left", "right", "relative_pairing", "end_intersections"}, location
    )
    left = _get(doc, "left", location, CURVE, scenario)
    right = _get(doc, "right", location, CURVE, scenario)
    ends = {}
    for i, entry in enumerate(_get(doc, "end_intersections", location, LIST.optional([]))):
        loc = f"{location}.end_intersections[{i}]"
        _check_keys(entry, {"left_puncture", "right_puncture", "value"}, loc)
        ends[(_get(entry, "left_puncture", loc, STR), _get(entry, "right_puncture", loc, STR))] = (
            _get(entry, "value", loc, INT)
        )
    pairing = PairingInput(
        left=left,
        right=right,
        relative_pairing=_get(doc, "relative_pairing", location, INT),
        declared_end_intersections=ends,
    )
    return (left[0].homology_tag, right[0].homology_tag), pairing


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
    return Query(doc, {
        key: _get(doc, key, f"{location}.{key}", kind, scenario) for key, kind in params.items()
    })


def _certify_orbit(orbit, delta_gap, location):
    """Operator-backed orbits must have no spectrum in the punctured gap
    (-delta_gap, delta_gap) except an exact kernel matching the kind."""
    if not orbit.is_operator_backed:
        return
    spec = GLOBAL_SPECTRUM_CACHE.get(orbit.winding.op, orbit.winding.truncation)
    kdim = spec.kernel_dimension()
    gap = spec.gap_around_zero()
    _require(
        gap > float(delta_gap),
        f"orbit {orbit.id!r}: nonzero eigenvalue at distance {gap:.3g} inside "
        f"the declared gap {float(delta_gap):.3g}",
        location,
    )
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
    _get(doc, "schema_version", "$", one_of(SCHEMA_VERSION).optional())
    scenario = Scenario(
        delta_gap=_get(doc, "delta_gap", "$.delta_gap", RATIONAL.optional(Fraction(1, 4))),
        surfaces={},
        orbits={},
        curves={},
        pairings={},
        covers={},
        queries=[],
        ambient=_get(doc, "ambient", "$.ambient", _AMBIENT),
        j_mode=_get(doc, "j_mode", "$.j_mode", J_MODE.optional("homotopy")),
    )
    _require(scenario.delta_gap > 0, "delta_gap must be positive", "$.delta_gap")
    operators = {}

    def operator_winding(op):
        # One object per distinct loop: spectrum cache hits then find their
        # key by identity, not sample by sample.
        return OperatorWinding(operators.setdefault(op, op), truncation)

    def parse_orbit(odoc, location, scenario):
        oid, orbit = _parse_orbit(odoc, location, scenario, operator_winding)
        _certify_orbit(orbit, scenario.delta_gap, location)
        return oid, orbit

    for section, noun, parse in (
        ("surfaces", "surface id", _parse_surface),
        ("orbits", "orbit id", parse_orbit),
        ("curves", "curve id", _parse_curve),
        ("pairings", "pairing", _parse_pairing),
        ("covers", "cover id", _parse_cover),
    ):
        table = getattr(scenario, section)
        for i, entry in enumerate(_get(doc, section, "$", LIST.optional([]))):
            location = f"$.{section}[{i}]"
            try:
                key, value = parse(entry, location, scenario)
            except ValidationError as exc:  # from a constructor, which knows no location
                raise _located(exc, location)
            _require(key not in table, f"duplicate {noun} {key!r}", location)
            table[key] = value
    scenario.queries = [
        _parse_query(q, f"$.queries[{i}]", scenario)
        for i, q in enumerate(_get(doc, "queries", "$", LIST.optional([])))
    ]
    return scenario
