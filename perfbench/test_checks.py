"""Tests of the benchmark itself: the oracles reproduce exact spectra, and
every check passes on real pcurves output and fires on a corrupted copy."""

import copy
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import checks
import independent
import run
import tracer
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCENARIO = "src/pcurves/data/foliation.scn"


def child_env(**extra):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", **extra)
    env.pop("PCURVES_TRUNCATION", None)
    return env


def test_reference_solve_reproduces_the_constant_loop_spectrum():
    c = 1.3
    constant = independent.TrigLoop(np.array([[[c, 0.0], [0.0, c]]]), np.zeros((1, 2, 2)))
    for k in (1, 3):
        lams = independent.reference_eigenvalues(independent.cover_fourier(constant.fourier(), k), 8)
        expected = sorted(2 * math.pi * m - k * c for m in range(-8, 9) for _ in range(2))
        assert np.allclose(lams, expected, atol=1e-12)


def test_scalar_model_reproduces_the_constant_loop_spectrum():
    model = independent.ScalarModel(Fraction(3, 7))
    lams = independent.reference_eigenvalues({0: 2 * model.c * np.eye(2)}, 12)
    pairs = model.eigenpairs(2, -20.0, 20.0)
    assert [w for _, w, _ in pairs] == list(range(-2, 4))
    for lam, w, mult in pairs:
        assert mult == 2 and lam == pytest.approx(2 * math.pi * w - 2 * model.c)
        assert np.sum(np.abs(lams - lam) < 1e-9) == 2


def test_rotated_twin_keeps_the_spectrum():
    loop = independent.TrigLoop.random(np.random.default_rng(3), 2, 1.0)
    twin = loop.twin(2)
    coeffs = np.fft.fft(twin.at(np.arange(64) / 64), axis=0) / 64
    fourier = {k: coeffs[k % 64] for k in range(-31, 32)}
    twin_middle = independent.reference_eigenvalues(fourier, 40)[50:110]
    plain = independent.reference_eigenvalues(loop.fourier(), 40)
    assert np.abs(plain[:, None] - twin_middle[None, :]).min(axis=0).max() < 1e-9


def test_perturbations_keep_away_from_the_spectrum():
    lams = np.array([-1.0, -0.8, 0.1, 3.0])
    eps = independent.choose_epsilon(lams, 0.9)
    assert eps == Fraction(9, 10) + Fraction(23, 64)  # the nearest step outward
    assert independent.distance_to_spectrum(lams, -float(eps)) > 0.25
    assert independent.choose_epsilon(np.array([-1.0, 3.0]), 0.0) == 0


@pytest.fixture(scope="module")
def spectra():
    """Program spectra of a loop and its twin at T = 64."""
    pcurves = pytest.importorskip("pcurves")
    loop = independent.TrigLoop.random(np.random.default_rng(7), 2, 1.5)
    twin = loop.twin(1)

    def spectrum(source):
        op = pcurves.AsymptoticOperator(tuple(tuple(row) for row in source.samples()))
        spec = pcurves.discretized_spectrum(op, 64)
        return [[lam, w, m] for lam, w, m in spec.eigenpairs], spec.diameter

    pairs, diameter = spectrum(loop)
    twin_pairs, _ = spectrum(twin)
    return {
        "loop": loop,
        "twin": twin,
        "pairs": pairs,
        "twin_pairs": twin_pairs,
        "diameter": diameter,
        "reference": independent.reference_eigenvalues(loop.fourier(), 96),
    }


def test_spectrum_checks_pass_on_program_output(spectra):
    d = spectra
    assert checks.check_spectrum(d["pairs"], d["reference"], d["diameter"], d["loop"].norm_bound(), "x") == []
    assert checks.check_spectrum(
        d["twin_pairs"], d["reference"], d["diameter"], d["twin"].norm_bound(), "x"
    ) == []
    assert checks.check_twin(d["pairs"], d["twin_pairs"], 1, d["reference"], d["diameter"], "x") == []


def test_an_eigenvalue_moved_by_1e_3_is_caught(spectra):
    bad = copy.deepcopy(spectra["pairs"])
    bad[len(bad) // 2][0] += 1e-3
    assert checks.check_eigenvalues(bad, spectra["reference"], spectra["diameter"], "x")


def test_a_winding_off_by_one_is_caught(spectra):
    bad = copy.deepcopy(spectra["pairs"])
    bad[len(bad) // 2][1] += 1
    assert checks.check_window(bad, "x")
    d = spectra
    assert checks.check_twin(d["pairs"], d["twin_pairs"], 2, d["reference"], d["diameter"], "x")


def test_windings_all_shifted_break_the_a_priori_bound(spectra):
    bad = [[lam, w + 5, m] for lam, w, m in spectra["pairs"]]
    assert checks.check_window(bad, "x") == []
    assert checks.check_winding_bound(bad, spectra["loop"].norm_bound(), spectra["diameter"], "x")


def test_disagreeing_conley_zehnder_indices_are_caught():
    assert checks.check_cz({"T=64": 3, "T=128": 3, "flow": 3}, "x") == []
    assert checks.check_cz({"T=64": 3, "T=128": 3, "flow": 5}, "x")


@pytest.fixture(scope="module")
def rungs():
    """One program rung (k = 2, T = 80) of a scalar loop and of a random loop."""
    pytest.importorskip("pcurves")
    delta = Fraction(1, 16)
    theta = independent.random_scalar_theta(np.random.default_rng(5), delta, delta, (2,))
    model = independent.ScalarModel(theta)
    loop = independent.TrigLoop.random(np.random.default_rng(6), 2, 0.8)
    common = {"delta": [1, 16], "delta2": [1, 16], "ladder": [2]}
    return {
        "model": model,
        "scalar": worker.ladder({"theta_pi": model.c, **common})["rungs"][0],
        "loop": loop,
        "random": worker.ladder({"samples": loop.samples(), **common})["rungs"][0],
    }


def _rung_problems(rung, model=None, loop=None):
    delta = Fraction(1, 16)
    k = rung["k"]
    problems = checks.check_cover_contains_base(
        rung["base_pairs"], rung["base_diam"], rung["cover_pairs"], rung["cover_diam"], k, "x"
    )
    if model is not None:
        problems += checks.check_scalar_spectrum(rung["cover_pairs"], model, k, rung["cover_diam"], "x")
    else:
        reference = independent.reference_eigenvalues(
            independent.cover_fourier(loop.fourier(), k), independent.reference_for(80)
        )
        problems += checks.check_spectrum(
            rung["cover_pairs"], reference, rung["cover_diam"], k * loop.norm_bound(), "x"
        )
    expected = checks.expected_rung(k, delta, delta, rung["base_pairs"], rung["cover_pairs"], model)
    return problems + checks.check_rung(rung, expected, k, "x")


def test_cover_checks_pass_on_program_output(rungs):
    assert _rung_problems(rungs["scalar"], model=rungs["model"]) == []
    assert _rung_problems(rungs["random"], loop=rungs["loop"]) == []


def test_a_wrong_q_is_caught(rungs):
    for corrupt in (1, -1):
        bad = copy.deepcopy(rungs["scalar"])
        bad["q"]["-"] += corrupt
        assert _rung_problems(bad, model=rungs["model"])
    bad = copy.deepcopy(rungs["random"])
    bad["omega"]["+"][2] += 1
    assert _rung_problems(bad, loop=rungs["loop"])


def test_a_cover_eigenvalue_off_its_base_is_caught(rungs):
    bad = copy.deepcopy(rungs["random"])
    for pair in bad["cover_pairs"]:
        if pair[1] % 2 == 0:
            pair[1] += 2
    assert checks.check_cover_contains_base(
        bad["base_pairs"], bad["base_diam"], bad["cover_pairs"], bad["cover_diam"], 2, "x"
    )
    bad = copy.deepcopy(rungs["scalar"])
    bad["cover_pairs"][3][0] += 1e-3
    assert checks.check_scalar_spectrum(bad["cover_pairs"], rungs["model"], 2, bad["cover_diam"], "x")


def test_foliation_checks_and_the_tracer(tmp_path):
    """The CLI report and a traced library report are byte-identical and
    carry the paper's values; a changed byte or value is caught."""
    if not (ROOT / SCENARIO).is_file():
        pytest.skip("needs the repository's scenario")
    cli = subprocess.run(
        [sys.executable, "-m", "pcurves.cli", "run", SCENARIO, "--format", "json"],
        cwd=ROOT, env=child_env(), capture_output=True, check=True,
    )
    trace = tmp_path / "trace.json"
    lib = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "library", SCENARIO],
        cwd=ROOT, env=child_env(PERFBENCH_TRACE=str(trace)), capture_output=True, check=True,
    )
    reports = json.loads(lib.stdout)["reports"]
    assert len(reports) == worker.QUERY_REPEATS
    first = cli.stdout
    for report in reports:
        assert checks.check_foliation_report(report.encode(), first, "x") == []
    changed = bytearray(first)
    changed[len(changed) // 2] ^= 1
    assert checks.check_foliation_report(bytes(changed), first, "x")
    doc = json.loads(first)
    doc["queries"][0]["result"] = 1  # the index of v
    assert checks.check_foliation_report(json.dumps(doc).encode(), None, "x")

    spans = json.loads(trace.read_text())
    assert spans["spans"]["cli.emit"][0] == worker.QUERY_REPEATS
    assert spans["spans"]["scenario.load_scenario"][0] == 1
    assert spans["spans"]["queries.QueryRegistry.run_one"][0] == 19 * worker.QUERY_REPEATS
    assert 0 < spans["cache_hits"] < spans["cache_lookups"]
    assert {t for t, _ in spans["spectrum_calls"]} == {64}


def test_metrics_without_samples_are_left_out():
    assert run.end_to_end({}, 140.0) == {"peak_rss_mb": (140.0, "MB")}
    metrics = run.end_to_end({"setup_s": [0.7, 0.5, 0.6], "t64": [], "tflow": [0.02, 0.03]}, 140.0)
    assert metrics["setup_s"] == (0.6, "s") and "spectrum64_per_s" not in metrics
    assert metrics["cz_flow_per_s"] == (pytest.approx(40.0), "1/s")


def test_only_the_known_fault_leaves_the_run_correct(tmp_path):
    bench = run.Run(tmp_path, 0, 1.0, False)
    bench.operation("main", "spectra", lambda r, rng: [], None)
    bench.operation("fault", run.KNOWN_FAULT, lambda r, rng: ["CZ indices disagree"], None)
    bench.operation("main", "cli", lambda r, rng: 1 / 0, None)
    assert (bench.attempted, bench.wrong, bench.known_fault) == (3, 0, "CZ indices disagree")
    assert sum(c["failed"] for c in bench.operations.values()) == 2
    bench.operation("main", "spectra", lambda r, rng: ["a winding is off"], None)
    assert bench.wrong == 1 and bench.problems[-1] == "a winding is off"


def test_scipy_import_time_is_read_from_the_outermost_scipy_modules():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        20 |         20 |     scipy._lib._util",
        "import time:        80 |        100 |   scipy",
        "import time:         5 |          5 |   json",
        "import time:        10 |        115 | pcurves.spectral",
        "import time:        40 |         40 |     scipy.linalg",
        "import time:        60 |        100 |   scipy.integrate",
        "import time:        10 |        110 | pcurves.orbits",
    ])
    assert tracer.scipy_import_seconds(log) == pytest.approx(200e-6)


def test_the_benchmark_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "foliation", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == b""
