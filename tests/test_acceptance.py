"""Acceptance suite: one test per release criterion, each printing a
PASS line with the checked quantities."""

import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from conftest import (
    loop_orbit,
    random_curve,
    random_symmetric_loop,
    safe_epsilon,
)
from oracles import (
    ScalarOracle,
    k_bound_bruteforce,
    measured_windings,
    omega_oracle,
    spectrum_windings,
)
from pcurves.cli import build_report
from pcurves.covers import CoverScenario, composed_curve, cn_cover, pullback_constraints
from pcurves.curves import (
    ConstraintSet,
    CurveData,
    fredholm_index,
    k_bound,
    normal_chern,
    parity_partition,
)
from pcurves.errors import DegeneracyError
from pcurves.intersections import PairingInput, intersection_number
from pcurves.orbits import (
    CROSSING_FLOW,
    WINDING,
    Perturbation,
    conley_zehnder,
    cover_orbit,
    omega_pair,
    q_of_cover,
    q_tilde,
    scalar_orbit,
)
from pcurves.scenario import load_scenario
from pcurves.spectral import SpectrumCache, discretized_spectrum
from pcurves.surfaces import (
    BranchedCover,
    PuncturedSurface,
    aut_dim,
    compose_covers,
    euler_char,
    riemann_hurwitz_punctured,
    teichmuller_dim,
)
from pcurves.zeros import BundleData, SampledLoop, doubling_check, loop_winding

FOLIATION = Path(__file__).parent.parent / "src" / "pcurves" / "data" / "foliation.scn"
SEED = 20260810


def _result_of(report, name, **params):
    for q in report["queries"]:
        if q["name"] != name:
            continue
        if all(q["params"].get(k) == v for k, v in params.items()):
            assert q["status"] == "ok", q
            return q["result"]
    raise AssertionError(f"query {name} {params} not found")


def _rat(obj):
    return Fraction(obj["num"], obj["den"])


def test_criterion_01_foliation_reproduction():
    from pcurves.spectral import GLOBAL_SPECTRUM_CACHE

    GLOBAL_SPECTRUM_CACHE._store.clear()
    start = time.monotonic()
    scenario = load_scenario(str(FOLIATION))
    report = build_report(scenario, 64, "default")
    elapsed = time.monotonic() - start

    assert _result_of(report, "index", curve="v") == 0
    assert _rat(_result_of(report, "normal_chern", curve="v")) == -1
    assert _result_of(report, "intersection", left="v", right="v") == -1
    assert _rat(_result_of(report, "adjunction_sing", curve="v")) == 0
    assert _result_of(report, "transversality", curve="v")["criterion_met"] is True
    assert _result_of(report, "index", curve="u_zeta") == 2
    assert _rat(_result_of(report, "normal_chern", curve="u_zeta")) == 0
    assert _result_of(report, "intersection", left="u_zeta", right="u_zeta") == 0
    cov = _result_of(report, "cov_totals", curve="u_zeta")
    assert cov == {"cov_infinity": 0, "cov_morse_bott": 0}
    assert _rat(_result_of(report, "adjunction_sing", curve="u_zeta")) == 0
    assert _result_of(report, "transversality", curve="u_zeta")["criterion_met"] is True
    screen = _result_of(report, "screen", cover="phi")
    assert screen["outcome"] == "unbranched_cover_of_index_zero"
    assert elapsed < 1.0, f"scenario run took {elapsed:.2f}s"
    print(
        f"\nACCEPTANCE 1 PASS: foliation scenario reproduced "
        f"(ind/c_N/i = 0,-1,-1 and 2,0,0; screen verdict unbranched cover; "
        f"{elapsed * 1000:.0f} ms)"
    )


def _corpus(n_loops=100):
    rng = np.random.default_rng(SEED)
    out = []
    for i in range(n_loops):
        op = random_symmetric_loop(rng)
        spec = discretized_spectrum(op, 64)
        eps = safe_epsilon(spec)
        out.append((loop_orbit(f"corpus{i}", op), Perturbation(
            Fraction(eps).limit_denominator(10**9)
        )))
    return out


def test_criterion_02_cz_two_method_agreement():
    corpus = _corpus()
    for orbit, pert in corpus:
        mu_winding = conley_zehnder(orbit, pert, WINDING, truncation=64)
        mu_flow = conley_zehnder(orbit, pert, CROSSING_FLOW)
        assert mu_winding == mu_flow, orbit.id
        mu_doubled = conley_zehnder(orbit, pert, WINDING, truncation=128)
        assert mu_winding == mu_doubled, orbit.id
    print(
        f"\nACCEPTANCE 2 PASS: winding and crossing-flow indices agree on "
        f"{len(corpus)} seeded loops; doubling the truncation changes nothing"
    )


def test_criterion_03_spectral_window_properties():
    corpus = _corpus()
    checked = 0
    for orbit, _ in corpus:
        spec = discretized_spectrum(orbit.winding.op, 64)
        # The windings are counted from the eigenvalue order; measure them.
        assert spectrum_windings(spec) == measured_windings(orbit.winding.op, 64), orbit.id
        counts = spec.winding_counts()
        interior = sorted(counts)[1:-1]
        for w in interior:
            assert counts[w] == 2, (orbit.id, w, counts[w])
        checked += len(interior)
    print(
        f"\nACCEPTANCE 3 PASS: counted windings match measured ones and every "
        f"interior winding has multiplicity 2 across the corpus ({checked} windings)"
    )


def test_criterion_04_k_bound_oracle():
    cases = 0
    for twice_c in range(-6, 13):
        c = Fraction(twice_c, 2)
        for g in range(0, 6):
            for boundary in (False, True):
                assert k_bound(c, g, boundary) == k_bound_bruteforce(c, g, boundary)
                cases += 1
    print(f"\nACCEPTANCE 4 PASS: K(c, G) equals brute force on {cases} cases")


def test_criterion_05_covering_identities():
    thetas = [Fraction(1, 7), Fraction(3, 7), Fraction(5, 3), Fraction(11, 9),
              Fraction(-4, 9), Fraction(9, 5), Fraction(1), Fraction(1, 2)]
    d = Fraction(1, 64)
    e = Fraction(-1, 64)
    scalar_cases = 0
    for theta in thetas:
        oracle = ScalarOracle(theta)
        base = scalar_orbit(f"acc5_{theta}", float(theta) * math.pi)
        for m in range(1, 4):
            for n in range(1, 4):
                for k in range(1, 7):
                    if k * m > 6:
                        continue
                    if oracle.cover(m).degenerate(m * d):
                        continue
                    if oracle.cover(n).degenerate(n * e):
                        continue
                    if oracle.cover(k * m).degenerate(k * m * d):
                        continue
                    gm = cover_orbit(base, m)
                    gn = cover_orbit(base, n)
                    gkm = cover_orbit(base, k * m)
                    pm = Perturbation(Fraction(math.pi) * m * d)
                    pn = Perturbation(Fraction(math.pi) * n * e)
                    pkm = Perturbation(Fraction(math.pi) * k * m * d)
                    for side in "-+":
                        q = q_of_cover(gm, pm, k, side)
                        assert 0 <= q <= k - 1
                    for sign in "+-":
                        lhs = omega_pair(gkm, pkm, gn, pn, sign)
                        rhs = k * omega_pair(gm, pm, gn, pn, sign) - q_tilde(
                            gm, pm, gn, pn, k, sign
                        )
                        assert lhs == rhs
                        assert lhs == k * omega_oracle(
                            oracle, m, d, n, e, sign
                        ) - q_tilde(gm, pm, gn, pn, k, sign)
                        scalar_cases += 1

    rng = np.random.default_rng(SEED + 5)
    loop_cases = 0
    cache = SpectrumCache()
    while loop_cases < 60:
        op = random_symmetric_loop(rng, degree=2, scale=0.8)
        m, n, k = (int(rng.integers(1, 4)) for _ in range(3))
        if k * m > 6:
            continue
        base = loop_orbit(f"acc5r{loop_cases}", op)
        gm = cover_orbit(base, m)
        gn = cover_orbit(base, n)
        gkm = cover_orbit(base, k * m)
        trunc = 48 + 16 * k * m
        delta = Fraction(1, 16)
        try:
            for sign in "+-":
                pm = Perturbation(m * delta)
                pn = Perturbation(-n * delta)
                pkm = Perturbation(k * m * delta)
                lhs = omega_pair(gkm, pkm, gn, pn, sign, truncation=trunc)
                rhs = k * omega_pair(gm, pm, gn, pn, sign, truncation=trunc) - q_tilde(
                    gm, pm, gn, pn, k, sign, truncation=trunc
                )
                assert lhs == rhs
                q = q_of_cover(gm, pm, k, "-" if sign == "+" else "+",
                               truncation=trunc)
                assert 0 <= q <= k - 1
        except DegeneracyError:
            continue
        loop_cases += 1
    total = scalar_cases + loop_cases
    assert total >= 500
    print(
        f"\nACCEPTANCE 5 PASS: q in [0, k-1] and the Omega covering identity "
        f"hold exactly on {scalar_cases} scalar-model and {loop_cases} "
        f"random-loop cases ({total} total)"
    )


def test_criterion_06_normal_chern_consistency():
    rng = np.random.default_rng(SEED + 6)
    for i in range(1000):
        curve, cons = random_curve(rng, f"acc6_{i}")
        c_n = normal_chern(curve, cons)  # internally cross-checks both forms
        ind = fredholm_index(curve, cons)
        gamma0, _ = parity_partition(curve, cons)
        assert 2 * c_n == ind - 2 + 2 * curve.surface.genus + gamma0

    # Covering formula agrees with the direct computation of the composed
    # curve on randomized scalar-model cover scenarios.
    thetas = [Fraction(1, 7), Fraction(3, 7), Fraction(5, 3), Fraction(11, 9)]
    scen_count = 0
    attempts = 0
    while scen_count < 60 and attempts < 400:
        attempts += 1
        names = ["a", "b"]
        orbits = {}
        for name in names:
            theta = thetas[int(rng.integers(0, len(thetas)))]
            orbits[name] = scalar_orbit(
                f"acc6s{attempts}{name}", float(theta) * math.pi,
                distinct_from=tuple(
                    f"acc6s{attempts}{x}" for x in names if x != name
                ),
            )
        signs = {"a": "-", "b": "+"}
        surface = PuncturedSurface(0, 0, (("a", "-"), ("b", "+")))
        base = CurveData(
            surface=surface, ambient_dim_n=2, orbit_at=orbits,
            c1_rel=int(rng.integers(-3, 4)), homology_tag=f"acc6b{attempts}",
        )
        cons = ConstraintSet(
            constrained=frozenset(n for n in names if rng.random() < 0.5),
            delta=Fraction(1, 8),
        )
        degree = int(rng.integers(2, 4))
        fiber = {}
        punctures = []
        for name in names:
            left = degree
            i = 0
            while left:
                k_z = int(rng.integers(1, left + 1))
                fiber[f"{name}{i}"] = (name, k_z)
                punctures.append((f"{name}{i}", signs[name]))
                left -= k_z
                i += 1
        interior = -(2 - len(punctures)) + degree * (2 - 2)
        if interior < 0:
            continue
        cover = BranchedCover(
            domain=PuncturedSurface(0, 0, tuple(punctures)),
            codomain=surface, degree=degree, fiber_map=fiber,
            interior_branch_count=interior,
        )
        scen = CoverScenario(cover=cover, base_curve=base, base_constraints=cons)
        value, q = cn_cover(scen)  # raises on formula/direct disagreement
        assert q >= 0
        scen_count += 1
    assert scen_count >= 50
    print(
        f"\nACCEPTANCE 6 PASS: both normal-Chern formulas agree on 1000 "
        f"randomized curves; covering formula matches the direct computation "
        f"on {scen_count} cover scenarios"
    )


def test_criterion_07_constraint_monotonicity():
    rng = np.random.default_rng(SEED + 7)
    thetas = [Fraction(1, 7), Fraction(5, 3), Fraction(11, 9), Fraction(2)]
    cases = 0
    while cases < 200:
        names = ["a", "b", "c"]
        orbits = {}
        for name in names:
            theta = thetas[int(rng.integers(0, len(thetas)))]
            orbits[name] = scalar_orbit(
                f"acc7_{cases}{name}", float(theta) * math.pi,
                distinct_from=tuple(f"acc7_{cases}{x}" for x in names if x != name),
            )
        signs = {n: ("+" if rng.random() < 0.5 else "-") for n in names}
        surface = PuncturedSurface(0, 0, tuple((n, signs[n]) for n in names))
        curve = CurveData(
            surface=surface, ambient_dim_n=2, orbit_at=orbits,
            c1_rel=int(rng.integers(-3, 4)), homology_tag=f"acc7_{cases}",
        )
        stronger_set = frozenset(n for n in names if rng.random() < 0.6)
        weaker_set = frozenset(n for n in stronger_set if rng.random() < 0.5)
        weaker = ConstraintSet(constrained=weaker_set, delta=Fraction(1, 8))
        stronger = ConstraintSet(constrained=stronger_set, delta=Fraction(1, 8))
        assert normal_chern(curve, weaker) >= normal_chern(curve, stronger)
        pw = PairingInput(left=(curve, weaker), right=(curve, weaker),
                          relative_pairing=4)
        ps = PairingInput(left=(curve, stronger), right=(curve, stronger),
                          relative_pairing=4)
        assert intersection_number(pw) >= intersection_number(ps)
        cases += 1
    print(
        f"\nACCEPTANCE 7 PASS: c_N and the self-pairing are monotone under "
        f"weakening constraints on {cases} randomized cases"
    )


def test_criterion_08_riemann_hurwitz():
    from test_surfaces import _random_cover, sphere

    rng = np.random.default_rng(SEED + 8)
    for _ in range(200):
        cod = sphere(int(rng.integers(1, 4)), genus=int(rng.integers(0, 2)))
        first = _random_cover(rng, cod)
        z1 = riemann_hurwitz_punctured(first)
        closed = -(2 - 2 * first.domain.genus) + first.degree * (2 - 2 * cod.genus)
        assert closed == z1 + sum(k - 1 for _, k in first.fiber_map.values())
        second = _random_cover(rng, first.domain)
        composite = compose_covers(second, first)
        assert riemann_hurwitz_punctured(composite) == riemann_hurwitz_punctured(
            second
        ) + second.degree * z1
    print(
        "\nACCEPTANCE 8 PASS: punctured Riemann-Hurwitz equals the "
        "branch-order count and composes additively on 200 random covers"
    )


def test_criterion_09_appendix_identities():
    rng = np.random.default_rng(SEED + 9)
    for _ in range(200):
        bundle = BundleData(
            c1=int(rng.integers(-6, 7)),
            maslov=int(rng.integers(-6, 7)),
            boundary_winding=int(rng.integers(-4, 5)),
        )
        z_doubled, ok = doubling_check(bundle)
        assert ok
    n = 256
    t = np.arange(n) / n
    for w in range(-4, 5):
        samples = np.exp(2j * np.pi * w * t) * (1.5 + 0.4 * np.cos(2 * np.pi * t))
        assert loop_winding(SampledLoop(tuple(samples))) == w
    print(
        "\nACCEPTANCE 9 PASS: doubling identity on 200 random bundles; loop "
        "windings match closed forms"
    )


def test_criterion_10_moduli_dimension_table():
    rows = [
        ((0, 0, 0), 0, 6),
        ((0, 0, 1), 0, 4),
        ((0, 1, 0), 0, 3),
        ((0, 0, 2), 0, 2),
        ((0, 1, 1), 0, 1),
        ((0, 2, 0), 1, 1),
        ((1, 0, 0), 2, 2),
    ]
    for (g, m, p), teich, aut in rows:
        surface = PuncturedSurface(
            genus=g, boundary_components=m,
            punctures=tuple((f"z{i}", "-") for i in range(p)),
        )
        assert teichmuller_dim(surface) == teich
        assert aut_dim(surface) == aut
        assert aut - teich == 3 * euler_char(surface) + p
    print(
        "\nACCEPTANCE 10 PASS: all seven non-stable rows reproduced with the "
        "index identity aut - teich = 3 chi + #punctures"
    )
