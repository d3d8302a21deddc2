"""Query registry: every computation is reachable through a named query on
a loaded scenario, and each result carries the formula it used plus its
echoed inputs, so reports are self-contained and reproducible.  A query
kind names the library function that computes it, or a handler where the
kind builds its result or reads the scenario (see ``register``)."""

import sys
from fractions import Fraction

from . import classify, covers, curves, intersections, orbits, surfaces, zeros
from .errors import PCurvesError, ValidationError
from .params import (
    BOOL, COUNT, COVER, CURVE, IDS, INT, J_MODE, LOOP_SAMPLES, METHOD, ORBIT, ORDER, PARITY,
    PERTURBATION, RATIONAL, SIGN, SURFACE, TRUNCATION,
)
from .rationals import rational_json
from .records import fields, record, replace


def _jsonable(value):
    if isinstance(value, Fraction):
        return rational_json(value)
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return float(f"{value:.12g}")
    names = fields(value)
    if names is not None:
        return {k: _jsonable(getattr(value, k)) for k in names}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, frozenset, set)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=str)
        return [_jsonable(v) for v in items]
    return str(value)


@record
class Query:
    """A scenario query: its JSON as written, and its parameters as its
    kind's declaration reads them (None when the kind is unknown)."""

    doc: dict
    args: dict = None

    @property
    def name(self):
        return self.doc["name"]

    def echo(self):
        """The query's parameters as written, for the report."""
        return _jsonable({k: v for k, v in self.doc.items() if k != "name"})


class QueryRegistry:
    def __init__(self):
        self._handlers = {}

    def register(self, name, formula, fn=None, **params):
        """``params`` gives each parameter of this query kind its kind from
        the ``params`` module.  A kind's function ``fn`` is called with the
        values read in their declared order, its positional order, and is
        looked up on its module at each call, so a wrapper set there after
        import (a tracer's) sees the call.  Without ``fn`` this decorates a
        handler, called with the scenario and the values by name."""
        def wrap(handler):
            self._handlers[name] = (handler, formula, params)
            return handler

        if fn is None:
            return wrap
        module, attr = sys.modules[fn.__module__], fn.__name__
        wrap(lambda scenario, **args: getattr(module, attr)(*(args[key] for key in params)))

    def params(self, name):
        """The declared parameters of a query kind, None for an unknown kind."""
        return self._handlers[name][2] if name in self._handlers else None

    def run_one(self, scenario, query):
        if query.args is None:
            raise ValidationError(f"unknown query kind {query.name!r}")
        fn, formula, _ = self._handlers[query.name]
        result = fn(scenario, **query.args)
        return {
            "name": query.name,
            "params": query.echo(),
            "formula": formula,
            "status": "ok",
            "result": _jsonable(result),
        }


REGISTRY = QueryRegistry()


REGISTRY.register(
    "euler_char",
    "chi = 2 - 2g - m - #punctures",
    surfaces.euler_char,
    surface=SURFACE,
)


REGISTRY.register(
    "teichmuller_dim",
    "stable: 6g - 6 + 3m + 2#punctures; else tabulated",
    surfaces.teichmuller_dim,
    surface=SURFACE,
)


REGISTRY.register("aut_dim", "0 if stable; else tabulated", surfaces.aut_dim, surface=SURFACE)


@REGISTRY.register("riemann_hurwitz", "Z = -chi(domain) + degree * chi(codomain)", cover=COVER)
def _q_rh(scenario, cover):
    return surfaces.riemann_hurwitz_punctured(cover.cover)


@REGISTRY.register("cover_moduli_dim", "dim = 2 Z(d cover)", cover=COVER)
def _q_cmd(scenario, cover):
    return surfaces.cover_moduli_dim(cover.cover)


@REGISTRY.register(
    "spectrum",
    "eigenvalues of the Fourier-truncated operator with windings (reliable window)",
    orbit=ORBIT,
    truncation=TRUNCATION.optional(),
)
def _q_spectrum(scenario, orbit, truncation):
    spec = orbit.spectrum(truncation)
    return {
        "truncation": truncation or orbit.winding.truncation,
        "eigenpairs": [
            {"eigenvalue": lam, "winding": w, "multiplicity": mult}
            for lam, w, mult in spec.eigenpairs
        ],
    }


@REGISTRY.register(
    "alpha",
    "extremal windings below/above the probe point, parity = difference",
    orbit=ORBIT,
    epsilon=PERTURBATION.of("orbit"),
)
def _q_alpha(scenario, orbit, epsilon):
    am, ap, p = orbits.alpha_pm(orbit, epsilon)
    return {"alpha_minus": am, "alpha_plus": ap, "parity": p}


REGISTRY.register(
    "conley_zehnder",
    "winding method: 2 alpha_- + parity; crossing flow: Robbin-Salamon count",
    orbits.conley_zehnder,
    orbit=ORBIT,
    epsilon=PERTURBATION.of("orbit"),
    method=METHOD,
)


@REGISTRY.register("nu", "nu = alpha(down-perturbed) - alpha(up-perturbed)", orbit=ORBIT)
def _q_nu(scenario, orbit):
    nm, np_ = orbits.nu_pm(orbit)
    return {"nu_minus": nm, "nu_plus": np_}


@REGISTRY.register(
    "cover_orbit",
    "k-fold cover: pulled-back operator, eigenvalues scale by k",
    orbit=ORBIT,
    k=ORDER,
)
def _q_cover_orbit(scenario, orbit, k):
    cov = orbits.cover_orbit(orbit, k)
    return {
        "id": cov.id,
        "simple": cov.simple_id,
        "cover": cov.cover,
        "alpha_minus_strict": orbits.alpha_strict(cov, orbits.SIDE_MINUS),
        "alpha_plus_strict": orbits.alpha_strict(cov, orbits.SIDE_PLUS),
    }


REGISTRY.register(
    "cov_extremal",
    "largest divisor of the covering number dividing the extremal winding",
    orbits.cov_extremal,
    orbit=ORBIT,
    side=SIGN,
)


REGISTRY.register(
    "q_cover",
    "alpha(cover + k eps) = k alpha(base + eps) -+ q, q in [0, k-1]",
    orbits.q_of_cover,
    orbit=ORBIT,
    epsilon=PERTURBATION.of("orbit", "k"),
    k=ORDER,
    side=SIGN,
)


REGISTRY.register(
    "omega",
    "m n min{(-+ alpha)/m, (-+ alpha)/n}; 0 for distinct orbits",
    orbits.omega_pair,
    a=ORBIT,
    epsilon_a=PERTURBATION.of("a"),
    b=ORBIT,
    epsilon_b=PERTURBATION.of("b"),
    sign=SIGN,
)


REGISTRY.register(
    "omega_self",
    "-+ (k-1) alpha + (cov - 1)",
    orbits.omega_self,
    orbit=ORBIT,
    sign=SIGN,
)


REGISTRY.register(
    "q_tilde",
    "covering defect of the Omega pairing",
    orbits.q_tilde,
    orbit_m=ORBIT,
    epsilon_m=PERTURBATION.of("orbit_m", "k"),
    orbit_n=ORBIT,
    epsilon_n=PERTURBATION.of("orbit_n"),
    k=ORDER,
    sign=SIGN,
)


REGISTRY.register(
    "delta_mb",
    "[k (m-1) nu + cov - cov_generic] / 2 at unconstrained ends, else 0",
    orbits.delta_mb,
    orbit=ORBIT,
    epsilon=PERTURBATION.of("orbit"),
    sign=SIGN,
)


@REGISTRY.register(
    "parity",
    "(#even, #odd) punctures under the constraint perturbations",
    curve=CURVE,
)
def _q_parity(scenario, curve):
    even, odd = curves.parity_partition(curve)
    return {"even": even, "odd": odd}


REGISTRY.register(
    "index",
    "ind = -chi + 2 c1 + boundary Maslov + signed CZ sum",
    curves.fredholm_index,
    curve=CURVE,
)


REGISTRY.register(
    "normal_chern",
    "2 c_N = ind - 2 + 2g + #even + m, cross-checked against the winding form",
    curves.normal_chern,
    curve=CURVE,
)


REGISTRY.register(
    "k_bound",
    "min{k + l : k <= G, 2k + l > 2c}, l even when closed",
    curves.k_bound,
    c=RATIONAL,
    genus0=COUNT,
    boundary=BOOL,
)


REGISTRY.register(
    "transversality",
    "regular when ind > c_N + Z(du); kernel bounds otherwise",
    curves.transversality_check,
    curve=CURVE,
)


REGISTRY.register(
    "line_bundle",
    "injective iff c1 < 0 (ind <= 0); surjective iff ind > c1 (ind >= 0)",
    curves.line_bundle_bounds,
    index=INT,
    c1_adjusted=RATIONAL,
    gamma0=COUNT,
    boundary=BOOL,
)


@REGISTRY.register(
    "index_normal",
    "ind(normal operator) = ind - 2 Z(du); tangent: 3 chi + #punctures + 2 Z(du)",
    curve=CURVE,
)
def _q_index_normal(scenario, curve):
    return {
        "normal": curves.index_normal_operator(curve),
        "tangent": curves.index_tangent_operator(curve),
    }


REGISTRY.register(
    "critical_bound",
    "somewhere injective and generic: 2 Z(du) <= ind",
    curves.critical_bound_check,
    curve=CURVE,
)


REGISTRY.register(
    "zero_budget",
    "kernel sections spend Z + Z_infinity = adjusted c1",
    curves.adjusted_c1_zero_budget,
    c1_adjusted=RATIONAL,
)


def _self_i(scenario, curve):
    """i(u|u) of a curve, from its declared self-pairing."""
    return intersections.intersection_number(scenario.pairing(curve, curve))


@REGISTRY.register(
    "intersection",
    "i = relative pairing - sum of Omega terms",
    left=CURVE,
    right=CURVE,
)
def _q_intersection(scenario, left, right):
    return intersections.intersection_number(scenario.pairing(left, right))


@REGISTRY.register(
    "asymptotic",
    "asymptotic contributions: per-end-pair fixed and Morse-Bott parts",
    left=CURVE,
    right=CURVE,
    geometric_count=COUNT.optional(),
)
def _q_asymptotic(scenario, left, right, geometric_count):
    return intersections.asymptotic_intersection(scenario.pairing(left, right), geometric_count)


@REGISTRY.register(
    "cov_totals",
    "cov_infinity = sum (cov - 1); cov_morse_bott = sum (cov - 1) nu over unconstrained",
    curve=CURVE,
)
def _q_cov_totals(scenario, curve):
    ci, cm = intersections.cov_totals(curve)
    return {"cov_infinity": ci, "cov_morse_bott": cm}


@REGISTRY.register(
    "adjunction_sing",
    "sing = [i(u|u) - c_N - cov_infinity - cov_morse_bott] / 2 >= 0",
    curve=CURVE,
)
def _q_adj_sing(scenario, curve):
    return intersections.adjunction_sing(curve, _self_i(scenario, curve))


@REGISTRY.register(
    "sing_decomposition",
    "2 delta_infinity assembled from per-end and per-pair nonnegative terms",
    curve=CURVE,
    delta_u=RATIONAL.optional(),
)
def _q_sing_dec(scenario, curve, delta_u):
    adj = None
    if delta_u is not None:
        adj = _q_adj_sing(scenario, curve)
    return intersections.sing_decomposition(curve, delta_u=delta_u, adjunction_value=adj)


@REGISTRY.register(
    "pullback_constraints",
    "a domain puncture is constrained iff its image is",
    cover=COVER,
)
def _q_pullback(scenario, cover):
    pulled = covers.pullback_constraints(cover.cover, cover.base_curve.constraints)
    return {"constrained": sorted(pulled.constrained)}


@REGISTRY.register(
    "cn_cover",
    "c_N(cover) = degree * c_N(base) + Z + Q, Q = sum of covering defects",
    cover=COVER,
)
def _q_cn_cover(scenario, cover):
    value, q = covers.cn_cover(cover)
    return {"c_n": value, "q_correction": q}


@REGISTRY.register(
    "i_cover_bound",
    "i(cover | other) = degree * i(base | other) + sum of q-tilde terms >= degree * i",
    cover=COVER,
    other=CURVE,
)
def _q_icb(scenario, cover, other):
    pairing = scenario.pairing(cover.base_curve, other)
    return covers.i_cover_bound(cover, other, pairing.relative_pairing)


@REGISTRY.register(
    "constraint_leq",
    "weaker <= stronger iff every weaker-constrained puncture is stronger-constrained",
    curve=CURVE,
    weaker=IDS,
    stronger=IDS,
)
def _q_cleq(scenario, curve, weaker, stronger):
    def at(ids):
        constraints = curves.ConstraintSet(frozenset(ids), curve.constraints.delta)
        return replace(curve, constraints=constraints)

    return covers.constraint_leq(at(weaker), at(stronger))


@REGISTRY.register(
    "enumerate_covers",
    "finite list of codomain sketches with branching orders and constraints",
    curve=CURVE,
)
def _q_enum(scenario, curve):
    cands = covers.enumerate_cover_candidates(curve)
    return [
        {
            "degree": c.degree,
            "codomain_genus": c.codomain_genus,
            "interior_branch_count": c.interior_branch_count,
            "fibers": [
                {
                    "sign": sign,
                    "members": [{"puncture": z, "order": k} for z, k in members],
                    "constrained": constrained,
                    "root": None if root is None else {"simple": root[0], "cover": root[1]},
                }
                for sign, members, constrained, root in c.fibers
            ],
        }
        for c in cands
    ]


@REGISTRY.register(
    "nice",
    "somewhere injective with i(u|u) <= 0, ind >= 0, ind > c_N, plus consequences",
    curve=CURVE,
)
def _q_nice(scenario, curve):
    self_i = _self_i(scenario, curve)
    return classify.is_stable_nicely_embedded(curve, self_i)


@REGISTRY.register(
    "unique_even",
    "classify the unique even puncture of an index-1 nicely embedded curve",
    curve=CURVE,
)
def _q_unique_even(scenario, curve):
    self_i = _self_i(scenario, curve)
    return classify.unique_even_analysis(curve, self_i)


REGISTRY.register(
    "bad_puncture",
    "even puncture whose orbit doubly covers a nondegenerate odd orbit",
    classify.is_bad_puncture,
    orbit=ORBIT,
    parity=PARITY,
)


@REGISTRY.register(
    "screen",
    "degeneration ledger: contradiction branches, or an unbranched cover of "
    "an index-0 nicely embedded curve",
    cover=COVER,
    j_mode=J_MODE.optional(),
)
def _q_screen(scenario, cover, j_mode):
    return classify.degeneration_screen(
        cover, j_mode=j_mode or scenario.j_mode, ambient=scenario.ambient
    )


@REGISTRY.register(
    "obstruction",
    "winding obstruction isolating multiple covers in the moduli space",
    cover=COVER,
    j_mode=J_MODE.optional(),
)
def _q_obstruction(scenario, cover, j_mode):
    screen = _q_screen(scenario, cover, j_mode)
    if screen.outcome != classify.UNBRANCHED_COVER_OF_INDEX_ZERO:
        raise ValidationError("obstruction analysis needs an unbranched-cover screen verdict")
    return classify.kernel_section_cover_obstruction(cover)


@REGISTRY.register("loop_winding", "accumulated argument increment / 2 pi", samples=LOOP_SAMPLES)
def _q_loop_winding(scenario, samples):
    from . import flow  # imports numpy

    return flow.loop_winding(flow.SampledLoop(samples))


@REGISTRY.register(
    "zero_count",
    "Z = c1 + maslov/2 + boundary winding",
    c1=INT,
    maslov=INT,
    boundary_winding=INT.optional(0),
    has_boundary=BOOL.optional(True),
)
def _q_zero_count(scenario, c1, maslov, boundary_winding, has_boundary):
    return zeros.zero_count(
        zeros.BundleData(c1, maslov, boundary_winding, has_maslov_boundary=has_boundary)
    )


@REGISTRY.register(
    "doubling",
    "doubled data (2 c1 + maslov, 0, 2 wind) has twice the zero count",
    c1=INT,
    maslov=INT,
    boundary_winding=INT.optional(0),
)
def _q_doubling(scenario, c1, maslov, boundary_winding):
    z_doubled, ok = zeros.doubling_check(zeros.BundleData(c1, maslov, boundary_winding))
    return {"z_doubled": z_doubled, "ok": ok}


def run_queries(scenario):
    """Execute the scenario's queries in declaration order; errors are
    recorded per query and the run continues."""
    results = []
    for query in scenario.queries:
        try:
            results.append(REGISTRY.run_one(scenario, query))
        except PCurvesError as exc:
            results.append({
                "name": query.name,
                "params": query.echo(),
                "status": "error",
                "error": f"{type(exc).__name__}: {exc}",
            })
    return results
