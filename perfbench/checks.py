"""Checks of the program's outputs.  Each returns a list of problems, empty
when the output passes.

Spectra arrive as lists of (eigenvalue, winding, multiplicity) triples, as
pcurves reports them for its reliable window.  Eigenvalues are compared
counted with multiplicity and never tighter than the program's own merge
tolerance, 1e-9 x spectral diameter: a merged pair is the average of two
eigenvalues up to that far apart.
"""

import json
import math
from fractions import Fraction

import numpy as np

from independent import TWO_PI


def eigen_tolerance(diameter):
    return 1e-9 * max(float(diameter), 1.0) + 1e-9


def expand(pairs):
    """Eigenvalues repeated by multiplicity, with their windings."""
    lams, windings = [], []
    for lam, w, mult in pairs:
        lams += [lam] * mult
        windings += [w] * mult
    return np.array(lams), windings


def align(pairs, reference, tol):
    """Index in the sorted ``reference`` at which the program's window
    starts, or None when no placement matches every eigenvalue within tol.
    A window may begin inside a pair, hence the neighbouring offsets."""
    lams, _ = expand(pairs)
    reference = np.asarray(reference)
    if not len(lams):
        return None
    start = int(np.searchsorted(reference, lams[0] - tol))
    for j in (start, start - 1, start + 1):
        if 0 <= j and j + len(lams) <= len(reference):
            if np.max(np.abs(reference[j : j + len(lams)] - lams)) <= tol:
                return j
    return None


def check_eigenvalues(pairs, reference, diameter, label):
    if align(pairs, reference, eigen_tolerance(diameter)) is None:
        return [f"{label}: eigenvalues disagree with the independent solve"]
    return []


def check_window(pairs, label):
    """Windings nondecreasing; every interior winding has multiplicity 2."""
    problems = []
    windings = [w for _, w, _ in pairs]
    if windings != sorted(windings):
        problems.append(f"{label}: windings not nondecreasing")
    counts = {}
    for _, w, mult in pairs:
        counts[w] = counts.get(w, 0) + mult
    for w in sorted(counts)[1:-1]:
        if counts[w] != 2:
            problems.append(f"{label}: winding {w} has multiplicity {counts[w]}")
    if windings and max(windings) - min(windings) + 1 != len(counts):
        problems.append(f"{label}: a winding inside the window is missing")
    return problems


def check_winding_bound(pairs, norm_bound, diameter, label):
    """|lambda - 2 pi w| <= max_t ||S(t)||, from lambda = 2 pi w - int <Su,u>."""
    slack = norm_bound + eigen_tolerance(diameter)
    bad = [(lam, w) for lam, w, _ in pairs if abs(lam - TWO_PI * w) > slack]
    if bad:
        return [f"{label}: winding {bad[0][1]} impossible for eigenvalue {bad[0][0]:.6g}"]
    return []


def check_spectrum(pairs, reference, diameter, norm_bound, label):
    return (
        check_eigenvalues(pairs, reference, diameter, label)
        + check_window(pairs, label)
        + check_winding_bound(pairs, norm_bound, diameter, label)
    )


def _windings_by_reference_index(pairs, reference, tol):
    start = align(pairs, reference, tol)
    if start is None:
        return {}
    _, windings = expand(pairs)
    return {start + i: w for i, w in enumerate(windings)}


def check_twin(pairs, twin_pairs, s, reference, diameter, label):
    """The rotated twin has the same eigenvalues, windings shifted by -s."""
    tol = eigen_tolerance(diameter)
    base = _windings_by_reference_index(pairs, reference, tol)
    twin = _windings_by_reference_index(twin_pairs, reference, tol)
    common = sorted(set(base) & set(twin))
    if len(common) < len(base) // 2:
        return [f"{label}: twin window overlaps only {len(common)} eigenvalues"]
    shifted = sorted(base[i] - s for i in common)
    if shifted != sorted(twin[i] for i in common):
        return [f"{label}: twin windings are not shifted by {-s}"]
    return []


def check_cz(values, label):
    """Every method and truncation gives one Conley-Zehnder index."""
    if len(set(values.values())) != 1:
        return [f"{label}: Conley-Zehnder indices disagree {values}"]
    return []


def check_cover_contains_base(base_pairs, base_diameter, cover_pairs, cover_diameter, k, label):
    """Each k * lambda of the base inside the cover's window is an eigenvalue
    of the cover with winding k * w."""
    tol = k * eigen_tolerance(base_diameter) + eigen_tolerance(cover_diameter)
    lo, hi = cover_pairs[0][0], cover_pairs[-1][0]
    problems = []
    for lam, w, _ in base_pairs:
        target = k * lam
        if not lo + tol < target < hi - tol:
            continue
        if not any(abs(mu - target) <= tol and v == k * w for mu, v, _ in cover_pairs):
            problems.append(f"{label}: {k} x eigenvalue {lam:.6g} (winding {w}) missing")
    return problems


def check_scalar_spectrum(pairs, model, k, diameter, label):
    """The k-fold cover of c Id has spectrum {2 pi m - k c}, winding m, twice."""
    tol = eigen_tolerance(diameter)
    lo, hi = pairs[0][0] - tol, pairs[-1][0] + tol
    expected = model.eigenpairs(k, lo, hi)
    if len(expected) != len(pairs):
        return [f"{label}: {len(pairs)} eigenpairs, the exact model has {len(expected)}"]
    for (lam, w, mult), (mu, v, vm) in zip(pairs, expected):
        if w != v or mult != vm or abs(lam - mu) > tol:
            return [f"{label}: ({lam:.6g}, {w}, {mult}) where the exact model has ({mu:.6g}, {v}, {vm})"]
    return []


def alpha_from_pairs(pairs, eps):
    """(alpha_-, alpha_+) of A + eps from a window of eigenpairs."""
    x = -float(eps)
    below = [w for lam, w, _ in pairs if lam < x]
    above = [w for lam, w, _ in pairs if lam > x]
    return max(below), min(above)


def expected_rung(k, delta, delta2, base_pairs, cover_pairs, model=None):
    """What one rung of the cover ladder must return.  From the exact model
    for scalar loops; otherwise from the covering calculus applied to the
    spectra, which are themselves checked against the independent solve."""
    if model is not None:
        q = {side: model.q(k, delta, side) for side in "-+"}
        omega = {
            sign: (model.omega(k, k * delta, 1, -delta2, sign), model.omega(1, delta, 1, -delta2, sign))
            for sign in "+-"
        }
        cov = {side: model.cov(k, side) for side in "-+"}
        omega_self = {sign: model.omega_self(k, sign) for sign in "+-"}
        return {"q": q, "omega": omega, "cov": cov, "omega_self": omega_self}
    base = {eps: alpha_from_pairs(base_pairs, eps) for eps in (delta, -delta2)}
    cover = alpha_from_pairs(cover_pairs, k * delta)
    strict = {"-": alpha_from_pairs(cover_pairs, 0)[0], "+": alpha_from_pairs(cover_pairs, 0)[1]}
    q = {"-": cover[0] - k * base[delta][0], "+": k * base[delta][1] - cover[1]}

    def omega(alpha_a, m, alpha_b, n, sign):
        if sign == "+":
            return int(m * n * min(Fraction(-alpha_a[0], m), Fraction(-alpha_b[0], n)))
        return int(m * n * min(Fraction(alpha_a[1], m), Fraction(alpha_b[1], n)))

    omega_vals = {
        sign: (omega(cover, k, base[-delta2], 1, sign), omega(base[delta], 1, base[-delta2], 1, sign))
        for sign in "+-"
    }
    cov = {side: math.gcd(k, abs(strict[side])) if strict[side] else k for side in "-+"}
    omega_self = {
        "+": -(k - 1) * strict["-"] + cov["-"] - 1,
        "-": (k - 1) * strict["+"] + cov["+"] - 1,
    }
    return {"q": q, "omega": omega_vals, "cov": cov, "omega_self": omega_self}


def check_rung(rung, expected, k, label):
    """Program outputs of one rung against ``expected``; also q in [0, k-1]
    and the covering identity Omega(km) = k Omega(m) - q_tilde."""
    problems = []
    for side in "-+":
        q = rung["q"][side]
        if not 0 <= q <= k - 1:
            problems.append(f"{label}: q{side} = {q} outside [0, {k - 1}]")
        if q != expected["q"][side]:
            problems.append(f"{label}: q{side} = {q}, expected {expected['q'][side]}")
        if rung["cov"][side] != expected["cov"][side]:
            problems.append(f"{label}: cov{side} = {rung['cov'][side]}, expected {expected['cov'][side]}")
    for sign in "+-":
        lhs, omega_m, q_tilde = rung["omega"][sign]
        if lhs != k * omega_m - q_tilde:
            problems.append(f"{label}: Omega({k}m) != {k} Omega(m) - q_tilde for sign {sign}")
        if (lhs, omega_m) != tuple(expected["omega"][sign]):
            problems.append(f"{label}: Omega{sign} = {(lhs, omega_m)}, expected {expected['omega'][sign]}")
        if rung["omega_self"][sign] != expected["omega_self"][sign]:
            problems.append(f"{label}: omega_self{sign} = {rung['omega_self'][sign]}, expected {expected['omega_self'][sign]}")
    return problems


def _result(report, name, **params):
    for q in report["queries"]:
        if q["name"] == name and all(q["params"].get(k) == v for k, v in params.items()):
            return q
    return None


def _rational(obj):
    return Fraction(obj["num"], obj["den"])


# The paper's worked example: the curve v, the embedded family member
# u_zeta, and the double cover phi of v they degenerate onto.
FOLIATION_EXPECTED = [
    ("index", {"curve": "v"}, lambda r: r == 0),
    ("normal_chern", {"curve": "v"}, lambda r: _rational(r) == -1),
    ("intersection", {"left": "v", "right": "v"}, lambda r: r == -1),
    ("adjunction_sing", {"curve": "v"}, lambda r: _rational(r) == 0),
    ("transversality", {"curve": "v"}, lambda r: r["criterion_met"] is True),
    ("index", {"curve": "u_zeta"}, lambda r: r == 2),
    ("normal_chern", {"curve": "u_zeta"}, lambda r: _rational(r) == 0),
    ("intersection", {"left": "u_zeta", "right": "u_zeta"}, lambda r: r == 0),
    ("cov_totals", {"curve": "u_zeta"}, lambda r: r == {"cov_infinity": 0, "cov_morse_bott": 0}),
    ("adjunction_sing", {"curve": "u_zeta"}, lambda r: _rational(r) == 0),
    ("transversality", {"curve": "u_zeta"}, lambda r: r["criterion_met"] is True),
    ("screen", {"cover": "phi"}, lambda r: r["outcome"] == "unbranched_cover_of_index_zero"),
]
FOLIATION_QUERIES = 19


def check_foliation_report(data, first, label):
    """The report of foliation.scn: the reference values, every query ok,
    and the same bytes as the first report of the run (``first``)."""
    if first is not None and data != first:
        return [f"{label}: report bytes differ from the run's first report"]
    try:
        report = json.loads(data)
    except ValueError:
        return [f"{label}: report is not JSON"]
    problems = []
    if report.get("status") != "ok" or len(report.get("queries", [])) != FOLIATION_QUERIES:
        problems.append(f"{label}: report status {report.get('status')!r}")
    problems += [
        f"{label}: query {q['name']} {q.get('error')}"
        for q in report.get("queries", [])
        if q.get("status") != "ok"
    ]
    for name, params, ok in FOLIATION_EXPECTED:
        q = _result(report, name, **params)
        if q is None or q.get("status") != "ok" or not ok(q["result"]):
            problems.append(f"{label}: {name} {params} differs from the paper's value")
    return problems
