import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from pcurves.cli import build_report, emit, main, resolve_truncation
from pcurves.errors import ValidationError
from pcurves.queries import REGISTRY
from pcurves.scenario import load_scenario

FOLIATION = Path(__file__).parent.parent / "src" / "pcurves" / "data" / "foliation.scn"

TWO_PI = 2 * math.pi


def foliation_doc():
    return json.loads(FOLIATION.read_text())


def minimal_doc():
    return {
        "schema_version": 1,
        "delta_gap": {"num": 1, "den": 4},
        "surfaces": [
            {
                "id": "s",
                "genus": 0,
                "boundary_components": 0,
                "punctures": [{"id": "z", "sign": "-"}],
            }
        ],
        "orbits": [
            {
                "id": "g",
                "cover": 1,
                "winding": {
                    "type": "operator",
                    "samples": [[1.0, 0.0, 1.0]] * 16,
                },
            }
        ],
        "curves": [
            {
                "id": "c",
                "surface": "s",
                "n": 2,
                "c1_rel": 1,
                "orbits": {"z": "g"},
                "constrained": [],
            }
        ],
        "queries": [],
    }


def test_load_foliation():
    scenario = load_scenario(str(FOLIATION))
    assert len(scenario.curves) == 2
    assert len(scenario.covers) == 1
    assert scenario.ambient == "cobordism"


def test_empty_queries_is_valid():
    scenario = load_scenario(minimal_doc())
    assert scenario.queries == []
    report = build_report(scenario, 64, "default")
    assert report["status"] == "ok"
    assert report["queries"] == []


def test_unknown_key_reports_path():
    doc = minimal_doc()
    doc["surfaces"][0]["bogus"] = 1
    with pytest.raises(ValidationError) as err:
        load_scenario(doc)
    assert "surfaces[0]" in str(err.value)


def test_unresolved_reference_reports_path():
    doc = minimal_doc()
    doc["curves"][0]["orbits"]["z"] = "missing"
    with pytest.raises(ValidationError) as err:
        load_scenario(doc)
    assert "curves[0]" in str(err.value)


def test_fiber_sum_validation_error():
    doc = foliation_doc()
    doc["covers"][0]["fiber"][0]["order"] = 1
    with pytest.raises(ValidationError) as err:
        load_scenario(doc)
    assert "covers[0]" in str(err.value)


def test_gap_certification_rejects_small_gap():
    doc = minimal_doc()
    # Spectrum of S = 1 has an eigenvalue at -1, within a huge delta_gap.
    doc["delta_gap"] = {"num": 2, "den": 1}
    with pytest.raises(ValidationError) as err:
        load_scenario(doc)
    assert "gap" in str(err.value)


def test_declared_and_operator_windings_are_exclusive():
    doc = minimal_doc()
    doc["orbits"][0]["winding"] = {
        "type": "declared",
        "alpha_minus": 0,
        "alpha_plus": 1,
        "samples": [[1.0, 0.0, 1.0]] * 16,
    }
    with pytest.raises(ValidationError):
        load_scenario(doc)


def test_run_is_deterministic():
    scenario = load_scenario(str(FOLIATION))
    r1 = emit(build_report(scenario, 64, "default"), "json")
    scenario2 = load_scenario(str(FOLIATION))
    r2 = emit(build_report(scenario2, 64, "default"), "json")
    assert r1 == r2


def test_json_emit_round_trips():
    scenario = load_scenario(str(FOLIATION))
    report = build_report(scenario, 64, "default")
    blob = emit(report, "json")
    assert json.loads(blob) == json.loads(emit(json.loads(blob) and report, "json"))
    parsed = json.loads(blob)
    assert parsed["status"] == "ok"
    assert emit(parsed, "json") == blob


def test_text_emit_stable():
    scenario = load_scenario(str(FOLIATION))
    report = build_report(scenario, 64, "default")
    t1 = emit(report, "text")
    t2 = emit(report, "text")
    assert t1 == t2
    assert b"unbranched_cover_of_index_zero" in t1


def test_query_errors_recorded_and_run_continues():
    doc = minimal_doc()
    doc["queries"] = [
        {"name": "nope"},
        {"name": "euler_char", "surface": "s"},
    ]
    scenario = load_scenario(doc)
    report = build_report(scenario, 64, "default")
    assert report["status"] == "error"
    assert report["queries"][0]["status"] == "error"
    assert report["queries"][1]["status"] == "ok"
    assert report["queries"][1]["result"] == 1


SPEC_OPERATIONS = {
    # surface model
    "euler_char", "teichmuller_dim", "aut_dim", "riemann_hurwitz_punctured",
    "cover_moduli_dim",
    # orbit spectrum
    "discretized_spectrum", "alpha_pm", "conley_zehnder", "nu_pm",
    "cover_orbit", "cov_extremal", "q_of_cover", "omega_pair", "omega_self",
    "q_tilde", "delta_mb",
    # curve invariants
    "parity_partition", "fredholm_index", "normal_chern", "k_bound",
    "transversality_check", "line_bundle_bounds", "index_normal_operator",
    "critical_bound_check", "adjusted_c1_zero_budget",
    # intersection theory
    "intersection_number", "asymptotic_intersection", "cov_totals",
    "adjunction_sing", "sing_decomposition",
    # cover calculus
    "pullback_constraints", "cn_cover", "i_cover_bound", "constraint_leq",
    "enumerate_cover_candidates",
    # classification
    "is_stable_nicely_embedded", "unique_even_analysis", "is_bad_puncture",
    "degeneration_screen", "kernel_section_cover_obstruction",
    # zero count
    "loop_winding", "zero_count", "doubling_check",
}


def test_query_registry_covers_every_operation():
    assert SPEC_OPERATIONS <= REGISTRY.covered_operations


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "pcurves.cli", *args],
        capture_output=True,
        cwd=str(Path(__file__).parent.parent),
    )


def test_cli_check_ok():
    proc = run_cli("check", str(FOLIATION))
    assert proc.returncode == 0
    assert b"valid scenario" in proc.stdout


def test_cli_check_validation_exit_code(tmp_path):
    bad = tmp_path / "bad.scn"
    doc = foliation_doc()
    doc["covers"][0]["fiber"][0]["order"] = 1
    bad.write_text(json.dumps(doc))
    proc = run_cli("check", str(bad))
    assert proc.returncode == 2


def test_cli_missing_file_exit_code():
    proc = run_cli("check", "/nonexistent/file.scn")
    assert proc.returncode == 3


def test_cli_run_json_deterministic():
    p1 = run_cli("run", str(FOLIATION), "--format", "json")
    p2 = run_cli("run", str(FOLIATION), "--format", "json")
    assert p1.returncode == 0
    assert p1.stdout == p2.stdout


def test_cli_run_query_error_exit_code(tmp_path):
    doc = minimal_doc()
    doc["queries"] = [{"name": "nope"}]
    f = tmp_path / "q.scn"
    f.write_text(json.dumps(doc))
    proc = run_cli("run", str(f))
    assert proc.returncode == 1


def test_cli_spectrum():
    proc = run_cli("spectrum", str(FOLIATION), "--operator", "g_zero",
                   "--truncation", "16")
    assert proc.returncode == 0
    assert b"winding" in proc.stdout


def test_cli_oracle_kbound():
    proc = run_cli("oracle", "kbound", "--c", "0", "--g", "0")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["k_bound"] == 2
    proc = run_cli("oracle", "kbound", "--c", "1", "--g", "2", "--boundary")
    assert json.loads(proc.stdout)["k_bound"] == 2
    proc = run_cli("oracle", "kbound", "--c=-3/2", "--g", "4")
    assert json.loads(proc.stdout)["k_bound"] == 0


def test_truncation_env_override(monkeypatch):
    monkeypatch.setenv("PCURVES_TRUNCATION", "80")
    assert resolve_truncation(None) == (80, "env")
    assert resolve_truncation(32) == (32, "flag")
    monkeypatch.delenv("PCURVES_TRUNCATION")
    assert resolve_truncation(None) == (64, "default")


def test_cli_check_resolves_truncation_from_env(monkeypatch):
    # Below MIN_TRUNCATION the gap certification of the operator orbits
    # must refuse, so an exit code of 0 means the variable was ignored.
    monkeypatch.setenv("PCURVES_TRUNCATION", "4")
    assert main(["check", str(FOLIATION)]) == 2


def test_non_integer_truncation_env_is_a_validation_error(monkeypatch):
    monkeypatch.setenv("PCURVES_TRUNCATION", "abc")
    with pytest.raises(ValidationError):
        resolve_truncation(None)
    assert main(["run", str(FOLIATION)]) == 2


def test_cli_import_leaves_scipy_out():
    code = (
        "import sys, pcurves.cli; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True)
    assert proc.stdout.strip() == b"[]"
