import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from pcurves.cli import build_report, emit, main, resolve_truncation
from pcurves.errors import ValidationError
from pcurves.queries import REGISTRY, run_queries
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


EIGHTH = {"num": 1, "den": 8}
ONE_QUERY_OF_EACH_KIND = [
    {"name": "euler_char", "surface": "cod3"},
    {"name": "teichmuller_dim", "surface": "dom4"},
    {"name": "aut_dim", "surface": "cod3"},
    {"name": "riemann_hurwitz", "cover": "phi"},
    {"name": "cover_moduli_dim", "cover": "phi"},
    {"name": "spectrum", "orbit": "g_zero", "truncation": 16},
    {"name": "alpha", "orbit": "g_zero", "epsilon": EIGHTH},
    {"name": "conley_zehnder", "orbit": "g_one", "epsilon": EIGHTH, "method": "crossing_flow"},
    {"name": "nu", "orbit": "g_inf"},
    {"name": "cover_orbit", "orbit": "g_zero", "k": 2},
    {"name": "cov_extremal", "orbit": "g_zero_x2", "side": "-"},
    {"name": "q_cover", "orbit": "g_inf", "epsilon": EIGHTH, "k": 2, "side": "+"},
    {"name": "omega", "a": "g_zero", "epsilon_a": EIGHTH, "b": "g_zero_x2",
     "epsilon_b": EIGHTH, "sign": "-"},
    {"name": "omega_self", "orbit": "g_inf_x2", "sign": "-"},
    {"name": "q_tilde", "orbit_m": "g_zero", "epsilon_m": EIGHTH, "orbit_n": "g_zero",
     "epsilon_n": EIGHTH, "k": 2, "sign": "-"},
    {"name": "delta_mb", "orbit": "g_one", "epsilon": {"num": -1, "den": 8}, "sign": "-"},
    {"name": "parity", "curve": "u_zeta"},
    {"name": "index", "curve": "v"},
    {"name": "normal_chern", "curve": "v"},
    {"name": "k_bound", "c": {"num": 3, "den": 2}, "genus0": 2, "boundary": False},
    {"name": "transversality", "curve": "u_zeta"},
    {"name": "line_bundle", "index": 1, "c1_adjusted": 0, "gamma0": 0, "boundary": False},
    {"name": "index_normal", "curve": "v"},
    {"name": "critical_bound", "curve": "v"},
    {"name": "zero_budget", "c1_adjusted": {"num": 1, "den": 2}},
    {"name": "intersection", "left": "v", "right": "v"},
    {"name": "asymptotic", "left": "v", "right": "v"},
    {"name": "cov_totals", "curve": "v"},
    {"name": "adjunction_sing", "curve": "v"},
    {"name": "sing_decomposition", "curve": "u_zeta", "delta_u": 0},
    {"name": "pullback_constraints", "cover": "phi"},
    {"name": "cn_cover", "cover": "phi"},
    {"name": "i_cover_bound", "cover": "phi", "other": "v"},
    {"name": "constraint_leq", "curve": "v", "weaker": ["v0"], "stronger": ["v0", "vinf"]},
    {"name": "enumerate_covers", "curve": "v"},
    {"name": "nice", "curve": "v"},
    {"name": "unique_even", "curve": "v"},
    {"name": "bad_puncture", "orbit": "g_zero_x2", "parity": 0},
    {"name": "screen", "cover": "phi"},
    {"name": "obstruction", "cover": "phi"},
    {"name": "loop_winding", "samples": [[1, 0], [0, 1], [-1, 0], [0, -1]]},
    {"name": "zero_count", "c1": 1, "maslov": 2, "boundary_winding": -1},
    {"name": "doubling", "c1": 1, "maslov": 2, "boundary_winding": -1},
]
# The bundled data has no pairing of distinct curves and no index-1 curve.
PRECONDITION_ERRORS = {
    "asymptotic": "geometrically distinct curves",
    "unique_even": "nicely embedded index-1 curves",
}


def test_every_query_kind_runs_on_the_bundled_scenario():
    assert sorted(q["name"] for q in ONE_QUERY_OF_EACH_KIND) == sorted(REGISTRY._handlers)
    doc = foliation_doc()
    doc["queries"] += ONE_QUERY_OF_EACH_KIND
    # run_queries records only PCurvesErrors; any other exception fails here.
    results = run_queries(load_scenario(doc), 64)[-len(ONE_QUERY_OF_EACH_KIND):]
    for result in results:
        if result["name"] in PRECONDITION_ERRORS:
            assert result["status"] == "error"
            assert PRECONDITION_ERRORS[result["name"]] in result["error"]
        else:
            assert result["status"] == "ok", result


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


def test_query_missing_a_parameter_fails_at_load():
    doc = minimal_doc()
    doc["queries"] = [{"name": "euler_char", "surface": "s"}, {"name": "omega", "a": "g"}]
    with pytest.raises(ValidationError) as err:
        load_scenario(doc)
    assert "$.queries[1]" in str(err.value)
    assert "b, sign" in str(err.value)
    doc["queries"] = [{"name": ["index"]}]
    with pytest.raises(ValidationError, match="needs a name"):
        load_scenario(doc)


@pytest.mark.parametrize("command", ["check", "run"])
def test_cli_query_missing_a_parameter_is_a_validation_error(tmp_path, command):
    doc = foliation_doc()
    doc["queries"].append({"name": "index"})
    f = tmp_path / "q.scn"
    f.write_text(json.dumps(doc))
    proc = run_cli(command, str(f))
    assert proc.returncode == 2
    where = f"$.queries[{len(doc['queries']) - 1}]"
    assert f"validation error: {where}: query 'index' needs curve".encode() in proc.stderr
    assert b"Traceback" not in proc.stderr


def _set(path, value):
    """A mutation of the foliation document: set (or, with None, drop) one entry."""
    def mutate(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        if value is None:
            del doc[last]
        else:
            doc[last] = value
    return mutate


@pytest.mark.parametrize(
    "mutate, where",
    [
        (_set(["orbits", 5, "cover"], "two"), "$.orbits[5]"),
        (_set(["surfaces", 0, "genus"], "x"), "$.surfaces[0]"),
        (_set(["curves", 0, "c1_rel"], "x"), "$.curves[0]"),
        (_set(["surfaces", 0, "punctures", 0, "sign"], None), "$.surfaces[0].punctures[0]"),
        (_set(["covers", 0, "fiber", 0, "from"], None), "$.covers[0].fiber[0]"),
        (_set(["orbits", 0], 5), "$.orbits[0]"),
        (_set(["orbits", 0, "winding", "samples", 0], [1.0, "x", 1.0]), "$.orbits[0].winding"),
        (_set(["queries", 0], {"name": "cover_orbit", "orbit": "g_zero", "k": "two"}),
         "$.queries[0].k"),
        (_set(["queries", 0], {"name": "cover_orbit", "orbit": "g_zero", "k": 0}),
         "$.queries[0].k"),
        (_set(["orbits", 0, "id"], ["a"]), "$.orbits[0]"),
        (_set(["surfaces", 0, "id"], ["a"]), "$.surfaces[0]"),
        (_set(["curves", 0, "somewhere_injective"], "no"), "$.curves[0]"),
        ("abc", "--c"),
        ("1/0", "--c"),
    ],
    ids=[
        "cover-not-int", "genus-not-int", "c1_rel-not-int", "puncture-without-sign",
        "fiber-without-from", "orbit-not-object", "sample-row-not-numbers",
        "query-k-not-int", "query-k-zero", "orbit-id-not-string", "surface-id-not-string",
        "somewhere-injective-not-bool", "kbound-c-not-rational", "kbound-c-zero-den",
    ],
)
def test_cli_malformed_input_is_a_located_validation_error(tmp_path, mutate, where):
    if isinstance(mutate, str):
        proc = run_cli("oracle", "kbound", f"--c={mutate}", "--g", "0")
    else:
        doc = foliation_doc()
        mutate(doc)
        f = tmp_path / "bad.scn"
        f.write_text(json.dumps(doc))
        proc = run_cli("check", str(f))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"validation error: {where}: ".encode())
    assert proc.stderr.count(where.encode()) == 1
    assert b"Traceback" not in proc.stderr


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
