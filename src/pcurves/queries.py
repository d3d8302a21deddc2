"""Query registry: every computation is reachable through a named query on
a loaded scenario, and each result carries the formula it used plus its
echoed inputs, so reports are self-contained and reproducible."""

from dataclasses import asdict, is_dataclass
from fractions import Fraction

from . import classify, covers, curves, intersections, orbits, surfaces, zeros
from .errors import PCurvesError, ValidationError
from .orbits import Perturbation
from .rationals import as_fraction, rational_json
from .spectral import GLOBAL_SPECTRUM_CACHE


def _jsonable(value):
    if isinstance(value, Fraction):
        return rational_json(value)
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, frozenset, set)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=str)
        return [_jsonable(v) for v in items]
    return str(value)


def _pert(params, key="epsilon"):
    return Perturbation(as_fraction(params.get(key, 0)))


class QueryRegistry:
    def __init__(self):
        self._handlers = {}
        self._required = {}
        self.covered_operations = set()

    def register(self, name, formula, operations, required):
        """``required`` names the parameters every query of this kind needs."""
        def wrap(fn):
            self._handlers[name] = (fn, formula)
            self._required[name] = tuple(required)
            self.covered_operations.update(operations)
            return fn

        return wrap

    def missing_params(self, query):
        """Required parameters the query lacks; an unknown kind fails when run."""
        return [p for p in self._required.get(query["name"], ()) if p not in query]

    def run_one(self, scenario, query, truncation):
        name = query["name"]
        if name not in self._handlers:
            raise ValidationError(f"unknown query kind {name!r}")
        fn, formula = self._handlers[name]
        params = {k: v for k, v in query.items() if k != "name"}
        result = fn(scenario, params, truncation)
        return {
            "name": name,
            "params": _jsonable(params),
            "formula": formula,
            "status": "ok",
            "result": _jsonable(result),
        }


REGISTRY = QueryRegistry()


def _surface(scenario, params):
    sid = params["surface"]
    if sid not in scenario.surfaces:
        raise ValidationError(f"unknown surface {sid!r}")
    return scenario.surfaces[sid]


@REGISTRY.register("euler_char", "chi = 2 - 2g - m - #punctures", ["euler_char"], ["surface"])
def _q_euler(scenario, params, truncation):
    return surfaces.euler_char(_surface(scenario, params))


@REGISTRY.register(
    "teichmuller_dim",
    "stable: 6g - 6 + 3m + 2#punctures; else tabulated",
    ["teichmuller_dim"],
    ["surface"],
)
def _q_teich(scenario, params, truncation):
    return surfaces.teichmuller_dim(_surface(scenario, params))


@REGISTRY.register("aut_dim", "0 if stable; else tabulated", ["aut_dim"], ["surface"])
def _q_aut(scenario, params, truncation):
    return surfaces.aut_dim(_surface(scenario, params))


@REGISTRY.register(
    "riemann_hurwitz",
    "Z = -chi(domain) + degree * chi(codomain)",
    ["riemann_hurwitz_punctured"],
    ["cover"],
)
def _q_rh(scenario, params, truncation):
    return surfaces.riemann_hurwitz_punctured(scenario.cover_scenario(params["cover"]).cover)


@REGISTRY.register("cover_moduli_dim", "dim = 2 Z(d cover)", ["cover_moduli_dim"], ["cover"])
def _q_cmd(scenario, params, truncation):
    return surfaces.cover_moduli_dim(scenario.cover_scenario(params["cover"]).cover)


@REGISTRY.register(
    "spectrum",
    "eigenvalues of the Fourier-truncated operator with windings (reliable window)",
    ["discretized_spectrum"],
    ["orbit"],
)
def _q_spectrum(scenario, params, truncation):
    orbit = scenario.orbit(params["orbit"])
    if not orbit.is_operator_backed:
        raise ValidationError(f"orbit {orbit.id!r} is not operator-backed")
    trunc = params.get("truncation", truncation)
    spec = GLOBAL_SPECTRUM_CACHE.get(orbit.winding.op, trunc)
    return {
        "truncation": trunc,
        "eigenpairs": [
            {"eigenvalue": lam, "winding": w, "multiplicity": mult}
            for lam, w, mult in spec.eigenpairs
        ],
    }


@REGISTRY.register(
    "alpha",
    "extremal windings below/above the probe point, parity = difference",
    ["alpha_pm"],
    ["orbit"],
)
def _q_alpha(scenario, params, truncation):
    am, ap, p = orbits.alpha_pm(scenario.orbit(params["orbit"]), _pert(params), truncation)
    return {"alpha_minus": am, "alpha_plus": ap, "parity": p}


@REGISTRY.register(
    "conley_zehnder",
    "winding method: 2 alpha_- + parity; crossing flow: Robbin-Salamon count",
    ["conley_zehnder"],
    ["orbit"],
)
def _q_cz(scenario, params, truncation):
    method = params.get("method", orbits.WINDING)
    return orbits.conley_zehnder(
        scenario.orbit(params["orbit"]), _pert(params), method, truncation
    )


@REGISTRY.register("nu", "nu = alpha(down-perturbed) - alpha(up-perturbed)", ["nu_pm"], ["orbit"])
def _q_nu(scenario, params, truncation):
    nm, np_ = orbits.nu_pm(scenario.orbit(params["orbit"]), truncation)
    return {"nu_minus": nm, "nu_plus": np_}


@REGISTRY.register(
    "cover_orbit",
    "k-fold cover: pulled-back operator, eigenvalues scale by k",
    ["cover_orbit"],
    ["orbit", "k"],
)
def _q_cover_orbit(scenario, params, truncation):
    cov = orbits.cover_orbit(
        scenario.orbit(params["orbit"]), params["k"], scenario.orbits, truncation
    )
    return {
        "id": cov.id,
        "simple": cov.simple_id,
        "cover": cov.cover,
        "alpha_minus_strict": orbits.alpha_strict(cov, orbits.SIDE_MINUS, truncation),
        "alpha_plus_strict": orbits.alpha_strict(cov, orbits.SIDE_PLUS, truncation),
    }


@REGISTRY.register(
    "cov_extremal",
    "largest divisor of the covering number dividing the extremal winding",
    ["cov_extremal"],
    ["orbit", "side"],
)
def _q_cov_extremal(scenario, params, truncation):
    return orbits.cov_extremal(scenario.orbit(params["orbit"]), params["side"], truncation)


@REGISTRY.register(
    "q_cover",
    "alpha(cover + k eps) = k alpha(base + eps) -+ q, q in [0, k-1]",
    ["q_of_cover"],
    ["orbit", "k", "side"],
)
def _q_qcover(scenario, params, truncation):
    return orbits.q_of_cover(
        scenario.orbit(params["orbit"]),
        _pert(params),
        params["k"],
        params["side"],
        scenario.orbits,
        truncation,
    )


@REGISTRY.register(
    "omega",
    "m n min{(-+ alpha)/m, (-+ alpha)/n}; 0 for distinct orbits",
    ["omega_pair"],
    ["a", "b", "sign"],
)
def _q_omega(scenario, params, truncation):
    return orbits.omega_pair(
        scenario.orbit(params["a"]),
        _pert(params, "epsilon_a"),
        scenario.orbit(params["b"]),
        _pert(params, "epsilon_b"),
        params["sign"],
        truncation,
    )


@REGISTRY.register(
    "omega_self",
    "-+ (k-1) alpha + (cov - 1)",
    ["omega_self"],
    ["orbit", "sign"],
)
def _q_omega_self(scenario, params, truncation):
    return orbits.omega_self(scenario.orbit(params["orbit"]), params["sign"], truncation)


@REGISTRY.register(
    "q_tilde",
    "covering defect of the Omega pairing",
    ["q_tilde"],
    ["orbit_m", "orbit_n", "k", "sign"],
)
def _q_qtilde(scenario, params, truncation):
    return orbits.q_tilde(
        scenario.orbit(params["orbit_m"]),
        _pert(params, "epsilon_m"),
        scenario.orbit(params["orbit_n"]),
        _pert(params, "epsilon_n"),
        params["k"],
        params["sign"],
        scenario.orbits,
        truncation,
    )


@REGISTRY.register(
    "delta_mb",
    "[k (m-1) nu + cov - cov_generic] / 2 at unconstrained ends, else 0",
    ["delta_mb"],
    ["orbit", "sign"],
)
def _q_delta_mb(scenario, params, truncation):
    return orbits.delta_mb(
        scenario.orbit(params["orbit"]), _pert(params), params["sign"], truncation
    )


def _curve(scenario, params, key="curve"):
    return scenario.curve(params[key])


@REGISTRY.register(
    "parity", "(#even, #odd) punctures under the constraint perturbations", ["parity_partition"],
    ["curve"],
)
def _q_parity(scenario, params, truncation):
    even, odd = curves.parity_partition(*_curve(scenario, params), truncation)
    return {"even": even, "odd": odd}


@REGISTRY.register(
    "index",
    "ind = (n-3) chi + 2 c1 + boundary Maslov + signed CZ sum",
    ["fredholm_index"],
    ["curve"],
)
def _q_index(scenario, params, truncation):
    return curves.fredholm_index(*_curve(scenario, params), truncation)


@REGISTRY.register(
    "normal_chern",
    "2 c_N = ind - 2 + 2g + #even + m, cross-checked against the winding form",
    ["normal_chern"],
    ["curve"],
)
def _q_cn(scenario, params, truncation):
    return curves.normal_chern(*_curve(scenario, params), truncation)


@REGISTRY.register(
    "k_bound",
    "min{k + l : k <= G, 2k + l > 2c}, l even when closed",
    ["k_bound"],
    ["c", "genus0", "boundary"],
)
def _q_kbound(scenario, params, truncation):
    return curves.k_bound(
        as_fraction(params["c"]), params["genus0"], params["boundary"]
    )


@REGISTRY.register(
    "transversality",
    "regular when ind > c_N + Z(du); kernel bounds otherwise",
    ["transversality_check"],
    ["curve"],
)
def _q_trans(scenario, params, truncation):
    return curves.transversality_check(*_curve(scenario, params), truncation)


@REGISTRY.register(
    "line_bundle",
    "injective iff c1 < 0 (ind <= 0); surjective iff ind > c1 (ind >= 0)",
    ["line_bundle_bounds"],
    ["index", "c1_adjusted", "gamma0", "boundary"],
)
def _q_line_bundle(scenario, params, truncation):
    return curves.line_bundle_bounds(
        params["index"],
        as_fraction(params["c1_adjusted"]),
        params["gamma0"],
        params["boundary"],
    )


@REGISTRY.register(
    "index_normal",
    "ind(normal operator) = ind - 2 Z(du); tangent: 3 chi + #punctures + 2 Z(du)",
    ["index_normal_operator"],
    ["curve"],
)
def _q_index_normal(scenario, params, truncation):
    curve, cons = _curve(scenario, params)
    return {
        "normal": curves.index_normal_operator(curve, cons, truncation),
        "tangent": curves.index_tangent_operator(curve),
    }


@REGISTRY.register(
    "critical_bound",
    "somewhere injective and generic: 2 Z(du) <= ind",
    ["critical_bound_check"],
    ["curve"],
)
def _q_critical(scenario, params, truncation):
    return curves.critical_bound_check(*_curve(scenario, params), truncation)


@REGISTRY.register(
    "zero_budget",
    "kernel sections spend Z + Z_infinity = adjusted c1",
    ["adjusted_c1_zero_budget"],
    ["c1_adjusted"],
)
def _q_budget(scenario, params, truncation):
    return curves.adjusted_c1_zero_budget(as_fraction(params["c1_adjusted"]))


def _pairing(scenario, params):
    return scenario.pairing(params["left"], params["right"])


def _self_i(scenario, params, truncation):
    """i(u|u) of the query's curve."""
    pairing = scenario.pairing(params["curve"], params["curve"])
    return intersections.intersection_number(pairing, truncation)


@REGISTRY.register(
    "intersection",
    "i = relative pairing - sum of Omega terms",
    ["intersection_number"],
    ["left", "right"],
)
def _q_intersection(scenario, params, truncation):
    return intersections.intersection_number(_pairing(scenario, params), truncation)


@REGISTRY.register(
    "asymptotic",
    "asymptotic contributions: per-end-pair fixed and Morse-Bott parts",
    ["asymptotic_intersection"],
    ["left", "right"],
)
def _q_asymptotic(scenario, params, truncation):
    geometric = params.get("geometric_count")
    return intersections.asymptotic_intersection(
        _pairing(scenario, params), geometric, truncation
    )


@REGISTRY.register(
    "cov_totals",
    "cov_infinity = sum (cov - 1); cov_morse_bott = sum (cov - 1) nu over unconstrained",
    ["cov_totals"],
    ["curve"],
)
def _q_cov_totals(scenario, params, truncation):
    ci, cm = intersections.cov_totals(*_curve(scenario, params), truncation)
    return {"cov_infinity": ci, "cov_morse_bott": cm}


@REGISTRY.register(
    "adjunction_sing",
    "sing = [i(u|u) - c_N - cov_infinity - cov_morse_bott] / 2 >= 0",
    ["adjunction_sing"],
    ["curve"],
)
def _q_adj_sing(scenario, params, truncation):
    curve, cons = _curve(scenario, params)
    self_i = _self_i(scenario, params, truncation)
    return intersections.adjunction_sing(curve, cons, self_i, truncation)


@REGISTRY.register(
    "sing_decomposition",
    "2 delta_infinity assembled from per-end and per-pair nonnegative terms",
    ["sing_decomposition"],
    ["curve"],
)
def _q_sing_dec(scenario, params, truncation):
    curve, cons = _curve(scenario, params)
    delta_u = params.get("delta_u")
    adj = None
    if delta_u is not None:
        self_i = _self_i(scenario, params, truncation)
        adj = intersections.adjunction_sing(curve, cons, self_i, truncation)
    return intersections.sing_decomposition(
        curve,
        cons,
        delta_u=as_fraction(delta_u) if delta_u is not None else None,
        adjunction_value=adj,
        truncation=truncation,
    )


@REGISTRY.register(
    "pullback_constraints",
    "a domain puncture is constrained iff its image is",
    ["pullback_constraints"],
    ["cover"],
)
def _q_pullback(scenario, params, truncation):
    sc = scenario.cover_scenario(params["cover"])
    pulled = covers.pullback_constraints(sc.cover, sc.base_constraints)
    return {"constrained": sorted(pulled.constrained)}


@REGISTRY.register(
    "cn_cover",
    "c_N(cover) = degree * c_N(base) + Z + Q, Q = sum of covering defects",
    ["cn_cover"],
    ["cover"],
)
def _q_cn_cover(scenario, params, truncation):
    value, q = covers.cn_cover(
        scenario.cover_scenario(params["cover"]), scenario.orbits, truncation
    )
    return {"c_n": value, "q_correction": q}


@REGISTRY.register(
    "i_cover_bound",
    "i(cover | other) = degree * i(base | other) + sum of q-tilde terms >= degree * i",
    ["i_cover_bound"],
    ["cover", "other"],
)
def _q_icb(scenario, params, truncation):
    sc = scenario.cover_scenario(params["cover"])
    other = scenario.curve(params["other"])
    base_tag = sc.base_curve.homology_tag
    pairing = scenario.pairing(base_tag, params["other"])
    return covers.i_cover_bound(
        sc, other, pairing.relative_pairing, scenario.orbits, truncation
    )


@REGISTRY.register(
    "constraint_leq",
    "weaker <= stronger iff every weaker-constrained puncture is stronger-constrained",
    ["constraint_leq"],
    ["curve", "weaker", "stronger"],
)
def _q_cleq(scenario, params, truncation):
    curve, cons = _curve(scenario, params)
    weaker = curves.ConstraintSet(frozenset(params["weaker"]), cons.delta)
    stronger = curves.ConstraintSet(frozenset(params["stronger"]), cons.delta)
    return covers.constraint_leq(weaker, stronger, curve.surface)


@REGISTRY.register(
    "enumerate_covers",
    "finite list of codomain sketches with branching orders and constraints",
    ["enumerate_cover_candidates"],
    ["curve"],
)
def _q_enum(scenario, params, truncation):
    curve, cons = _curve(scenario, params)
    cands = covers.enumerate_cover_candidates(curve.surface, curve.orbit_at, cons)
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
    ["is_stable_nicely_embedded"],
    ["curve"],
)
def _q_nice(scenario, params, truncation):
    curve, cons = _curve(scenario, params)
    self_i = _self_i(scenario, params, truncation)
    return classify.is_stable_nicely_embedded(curve, cons, self_i, truncation)


@REGISTRY.register(
    "unique_even",
    "classify the unique even puncture of an index-1 nicely embedded curve",
    ["unique_even_analysis"],
    ["curve"],
)
def _q_unique_even(scenario, params, truncation):
    curve, cons = _curve(scenario, params)
    self_i = _self_i(scenario, params, truncation)
    return classify.unique_even_analysis(curve, cons, self_i, scenario.orbits, truncation)


@REGISTRY.register(
    "bad_puncture",
    "even puncture whose orbit doubly covers a nondegenerate odd orbit",
    ["is_bad_puncture"],
    ["orbit", "parity"],
)
def _q_bad(scenario, params, truncation):
    return classify.is_bad_puncture(
        scenario.orbit(params["orbit"]),
        params["parity"],
        scenario.orbits,
        truncation,
    )


@REGISTRY.register(
    "screen",
    "degeneration ledger: contradiction branches, or an unbranched cover of "
    "an index-0 nicely embedded curve",
    ["degeneration_screen"],
    ["cover"],
)
def _q_screen(scenario, params, truncation):
    return classify.degeneration_screen(
        scenario.cover_scenario(params["cover"]),
        j_mode=params.get("j_mode", scenario.j_mode),
        ambient=scenario.ambient,
        registry=scenario.orbits,
        truncation=truncation,
    )


@REGISTRY.register(
    "obstruction",
    "winding obstruction isolating multiple covers in the moduli space",
    ["kernel_section_cover_obstruction"],
    ["cover"],
)
def _q_obstruction(scenario, params, truncation):
    if _q_screen(scenario, params, truncation).outcome != classify.UNBRANCHED_COVER_OF_INDEX_ZERO:
        raise ValidationError("obstruction analysis needs an unbranched-cover screen verdict")
    return classify.kernel_section_cover_obstruction(
        scenario.cover_scenario(params["cover"]), registry=scenario.orbits, truncation=truncation
    )


@REGISTRY.register(
    "loop_winding",
    "accumulated argument increment / 2 pi",
    ["loop_winding"],
    ["samples"],
)
def _q_loop_winding(scenario, params, truncation):
    loop = zeros.SampledLoop(tuple(complex(re, im) for re, im in params["samples"]))
    return zeros.loop_winding(loop)


@REGISTRY.register(
    "zero_count",
    "Z = c1 + maslov/2 + boundary winding",
    ["zero_count"],
    ["c1", "maslov"],
)
def _q_zero_count(scenario, params, truncation):
    return zeros.zero_count(
        _bundle(params, has_maslov_boundary=params.get("has_boundary", True))
    )


def _bundle(params, **extra):
    return zeros.BundleData(
        c1=params["c1"],
        maslov=params["maslov"],
        boundary_winding=params.get("boundary_winding", 0),
        **extra,
    )


@REGISTRY.register(
    "doubling",
    "doubled data (2 c1 + maslov, 0, 2 wind) has twice the zero count",
    ["doubling_check"],
    ["c1", "maslov"],
)
def _q_doubling(scenario, params, truncation):
    z_doubled, ok = zeros.doubling_check(_bundle(params))
    return {"z_doubled": z_doubled, "ok": ok}


def run_queries(scenario, truncation):
    """Execute the scenario's queries in declaration order; errors are
    recorded per query and the run continues."""
    results = []
    for query in scenario.queries:
        try:
            results.append(REGISTRY.run_one(scenario, query, truncation))
        except PCurvesError as exc:
            results.append({
                "name": query.get("name", "?"),
                "params": _jsonable({k: v for k, v in query.items() if k != "name"}),
                "status": "error",
                "error": f"{type(exc).__name__}: {exc}",
            })
    return results
