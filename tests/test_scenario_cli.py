import contextlib
import copy
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcurves.cli import build_report, emit, main, resolve_truncation
from pcurves.errors import ValidationError
from pcurves.queries import REGISTRY, run_queries
from pcurves.scenario import load_scenario
from pcurves.spectral import GLOBAL_SPECTRUM_CACHE, SpectrumCache

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


def test_boolean_sample_entries_are_rejected():
    doc = minimal_doc()
    doc["orbits"][0]["winding"]["samples"][0] = [True, 0.0, True]  # not the row [1.0, 0.0, 1.0]
    with pytest.raises(ValidationError, match=r"^\$\.orbits\[0\]\.winding: 'samples' must be"):
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
    results = run_queries(load_scenario(doc))[-len(ONE_QUERY_OF_EACH_KIND):]
    for result in results:
        if result["name"] in PRECONDITION_ERRORS:
            assert result["status"] == "error"
            assert PRECONDITION_ERRORS[result["name"]] in result["error"]
        else:
            assert result["status"] == "ok", result


def declared_from_spectra(doc, truncation):
    """``doc`` with the winding of each operator-backed orbit replaced by its
    declared windings of A -+ delta, read off its own spectrum at a delta
    inside the certified gap."""
    scenario = load_scenario(doc, truncation=truncation)
    delta = float(scenario.delta_gap) / 2
    for entry in doc["orbits"]:
        orbit = scenario.orbits[entry["id"]]
        if orbit.is_operator_backed:
            spec = GLOBAL_SPECTRUM_CACHE.get(orbit.winding.op, truncation)
            below, above = spec.alpha_at(-delta), spec.alpha_at(delta)
            entry["winding"] = (
                {"type": "declared", "minus_delta": list(below), "plus_delta": list(above)}
                if below != above
                else {"type": "declared", "alpha_minus": below[0], "alpha_plus": below[1]}
            )
    return doc


def test_declared_windings_read_off_the_spectra_answer_alike():
    # Both sources of winding data answer alpha_at, alpha_strict, nu and
    # kernel_dimension, so every query that does not read the spectrum
    # itself gives the same result from either.
    doc = foliation_doc()
    doc["queries"] += [
        q for q in ONE_QUERY_OF_EACH_KIND
        if q["name"] != "spectrum" and q.get("method") != "crossing_flow"
    ]
    declared = declared_from_spectra(copy.deepcopy(doc), 64)
    assert all(o["winding"]["type"] == "declared" for o in declared["orbits"])
    spectral_results = run_queries(load_scenario(doc, truncation=64))
    declared_results = run_queries(load_scenario(declared, truncation=64))
    for ours, theirs in zip(spectral_results, declared_results):
        if ours["name"] == "cover_orbit":
            # The operator's cover is named after its pull-back, the declared
            # one is the scenario's own orbit.
            assert ours["result"].pop("id") == "g_zero~x2"
            assert theirs["result"].pop("id") == "g_zero_x2"
        assert ours == theirs


GOLDEN = Path(__file__).parent / "data"


def all_kinds_doc():
    """foliation.scn plus one query of each kind except ``spectrum``, whose
    eigenvalues are the only inexact values of a report."""
    doc = foliation_doc()
    doc["queries"] += [q for q in ONE_QUERY_OF_EACH_KIND if q["name"] != "spectrum"]
    return doc


@pytest.mark.parametrize(
    "doc, fmt, golden",
    [
        (foliation_doc, "json", "foliation_64.json"),
        (foliation_doc, "text", "foliation_64.txt"),
        (all_kinds_doc, "json", "all_kinds_64.json"),
    ],
)
def test_reports_match_the_golden_files(doc, fmt, golden):
    report = build_report(load_scenario(doc(), truncation=64), 64, "flag")
    assert emit(report, fmt) == (GOLDEN / golden).read_bytes()


def test_a_run_reads_every_spectrum_at_its_own_truncation(monkeypatch):
    # A path that lost the run's truncation would read the default 64, which
    # the golden reports at T = 64 cannot see.
    asked = []
    get = SpectrumCache.get

    def recording_get(self, op, truncation):
        asked.append(truncation)
        return get(self, op, truncation)

    monkeypatch.setattr(SpectrumCache, "get", recording_get)
    report = build_report(load_scenario(all_kinds_doc(), truncation=80), 80, "flag")
    assert asked and set(asked) == {80}
    # Apart from its header, the report does not depend on the truncation.
    report["truncation"] = 64
    assert emit(report, "json") == (GOLDEN / "all_kinds_64.json").read_bytes()


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
        (_set(["queries", 0], {"name": "line_bundle", "index": "x", "c1_adjusted": 0,
                               "gamma0": 0, "boundary": False}), "$.queries[0].index"),
        (_set(["queries", 0], {"name": "line_bundle", "index": 1, "c1_adjusted": 0,
                               "gamma0": 0, "boundary": "no"}), "$.queries[0].boundary"),
        (_set(["queries", 0], {"name": "zero_count", "c1": 1, "maslov": 2,
                               "has_boundary": 1}), "$.queries[0].has_boundary"),
        (_set(["queries", 0], {"name": "conley_zehnder", "orbit": "g_one",
                               "method": "flow"}), "$.queries[0].method"),
        ("abc", "--c"),
        ("1/0", "--c"),
        *[(_set(["queries", 0], {"name": "alpha", "orbit": "g_zero", **q}), f"$.queries[0]{at}")
          for q, at in [
              ({"orbit": ["g_zero"]}, ".orbit"),
              ({"orbit": "nowhere"}, ".orbit"),
              ({"epsilon": "abc"}, ".epsilon"),
              ({"bogus_key": 1}, ""),
          ]],
        (_set(["queries", 0], {"name": "constraint_leq", "curve": "v", "weaker": [["v0"]],
                               "stronger": ["v0"]}), "$.queries[0].weaker"),
        (_set(["queries", 0], {"name": "constraint_leq", "curve": "v", "weaker": "v0",
                               "stronger": ["v0"]}), "$.queries[0].weaker"),
        (_set(["queries", 0], {"name": "loop_winding", "samples": [[1]]}),
         "$.queries[0].samples"),
        (_set(["queries", 0], {"name": "loop_winding", "samples": "ab"}),
         "$.queries[0].samples"),
        (_set(["queries", 0], {"name": "bad_puncture", "orbit": "g_zero_x2", "parity": 7}),
         "$.queries[0].parity"),
        (_set(["queries", 0], {"name": "index", "curve": "nowhere"}), "$.queries[0].curve"),
        (_set(["queries", 0], {"name": "screen", "cover": "nowhere"}), "$.queries[0].cover"),
        (_set(["queries", 0], {"name": "euler_char", "surface": "nowhere"}),
         "$.queries[0].surface"),
        (_set(["queries", 0], {"name": "i_cover_bound", "cover": "phi", "other": "nowhere"}),
         "$.queries[0].other"),
        (_set(["queries", 0], {"name": "cov_extremal", "orbit": "g_zero", "side": "x"}),
         "$.queries[0].side"),
        (_set(["queries", 0], {"name": "omega_self", "orbit": "g_zero", "sign": "x"}),
         "$.queries[0].sign"),
        (_set(["queries", 0], {"name": "screen", "cover": "phi", "j_mode": "bogus"}),
         "$.queries[0].j_mode"),
        (_set(["queries", 0], {"name": "sing_decomposition", "curve": "v", "delta_u": "x"}),
         "$.queries[0].delta_u"),
        (_set(["orbits", 0, "distinct_from"], [{}]), "$.orbits[0]"),
        (_set(["orbits", 0, "distinct_from"], [["g_inf"]]), "$.orbits[0]"),
        (_set(["curves", 0, "constrained"], [["v0"]]), "$.curves[0]"),
        (_set(["curves", 0, "orbits", "v0"], ["g_zero"]), "$.curves[0]"),
        (_set(["covers", 0, "fiber", 0, "from"], ["q0"]), "$.covers[0].fiber[0]"),
        (_set(["covers", 0, "fiber", 0, "to"], ["v0"]), "$.covers[0].fiber[0]"),
        (_set(["covers", 0, "total_constrained"], [["q0"]]), "$.covers[0]"),
        # Beyond k = 2T + 2 some residue classes of the cover hold no mode |m| <= T.
        (_set(["orbits", 5, "cover"], 130), "$.orbits[5]"),
        # Perturbed windings that do not move across 0 declare no kernel.
        (_set(["orbits", 0, "winding"], {"type": "declared", "minus_delta": [0, 1],
                                         "plus_delta": [0, 1]}), "$.orbits[0].winding"),
        # A declared winding is spelled one way or the other, never both.
        (_set(["orbits", 0, "winding"], {"type": "declared", "alpha_minus": 0, "alpha_plus": 1,
                                         "minus_delta": [5, 6], "plus_delta": [0, 0]}),
         "$.orbits[0].winding"),
        (_set(["orbits", 0, "winding"], {"type": "declared", "alpha_plus": 1,
                                         "minus_delta": [0, 1], "plus_delta": [-1, 0]}),
         "$.orbits[0].winding"),
    ],
    ids=[
        "cover-not-int", "genus-not-int", "c1_rel-not-int", "puncture-without-sign",
        "fiber-without-from", "orbit-not-object", "sample-row-not-numbers",
        "query-k-not-int", "query-k-zero", "orbit-id-not-string", "surface-id-not-string",
        "somewhere-injective-not-bool", "query-index-not-int", "query-boundary-not-bool",
        "query-has-boundary-not-bool", "query-cz-method-unknown", "kbound-c-not-rational",
        "kbound-c-zero-den", "query-orbit-list", "query-orbit-unknown",
        "query-epsilon-not-rational", "query-key-unknown", "query-weaker-nested",
        "query-weaker-string", "query-samples-short-pair", "query-samples-string",
        "query-parity-7", "query-curve-unknown", "query-cover-unknown", "query-surface-unknown",
        "query-other-unknown", "query-side-unknown", "query-sign-unknown", "query-j-mode-unknown",
        "query-delta-u-not-rational", "distinct-from-dict", "distinct-from-list",
        "constrained-list", "curve-orbit-list", "fiber-from-list", "fiber-to-list",
        "total-constrained-list", "cover-beyond-truncation", "declared-no-flow",
        "declared-both-spellings", "declared-alpha-plus-with-deltas",
    ],
)
def test_cli_malformed_input_is_a_located_validation_error(tmp_path, capsys, mutate, where):
    # In-process, so an exception that escapes main fails the test by itself.
    if isinstance(mutate, str):
        code = main(["oracle", "kbound", f"--c={mutate}", "--g", "0"])
    else:
        doc = foliation_doc()
        mutate(doc)
        f = tmp_path / "bad.scn"
        f.write_text(json.dumps(doc))
        code = main(["check", str(f)])
    stderr = capsys.readouterr().err
    assert code == 2
    assert stderr.startswith(f"validation error: {where}: ")
    assert stderr.count(where) == 1


def test_cover_orbit_beyond_the_truncation_is_a_query_error(tmp_path, capsysbinary):
    doc = foliation_doc()
    doc["queries"] = [{"name": "cover_orbit", "orbit": "g_zero", "k": 130}]
    f = tmp_path / "k.scn"
    f.write_text(json.dumps(doc))
    assert main(["run", str(f), "--format", "json"]) == 1
    [result] = json.loads(capsysbinary.readouterr().out)["queries"]
    assert result["status"] == "error"
    assert result["error"].startswith("SpectralError: ")


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


#: values a mutation writes over one entry of the scenario
MUTANT_VALUES = ["x", 1.5, -1, 0, 200, True, None, [], {}, ["a"], [["a"]], {"num": 1, "den": 0}]


def _leaves(node, path=()):
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        yield path + (key,), child
        if isinstance(child, (dict, list)):
            yield from _leaves(child, path + (key,))


@st.composite
def mutated_scenarios(draw):
    """foliation.scn with one query of each kind, and one entry dropped, overwritten
    with one of MUTANT_VALUES, its id pointed at nothing, or its sample row shortened."""
    doc = foliation_doc()
    doc["queries"] += copy.deepcopy(ONE_QUERY_OF_EACH_KIND)
    how = draw(st.sampled_from(["drop", "overwrite", "dangle", "shorten"]))
    if how == "dangle":
        path = draw(st.sampled_from([p for p, v in _leaves(doc) if isinstance(v, str)]))
    elif how == "shorten":
        path = draw(st.sampled_from([p for p, v in _leaves(doc) if p[-2:-1] == ("samples",)]))
    else:  # walk down from the root, stopping at each level below it with probability 1/3
        path, node = (), doc
        while isinstance(node, (dict, list)) and node:
            if path and draw(st.integers(0, 2)) == 0:
                break
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            path, node = path + (key,), node[key]
    *parents, last = path
    parent = doc
    for key in parents:
        parent = parent[key]
    if how == "drop":
        del parent[last]
    elif how == "overwrite":
        parent[last] = draw(st.sampled_from(MUTANT_VALUES))
    elif how == "dangle":
        parent[last] = "nowhere"
    else:
        parent[last] = parent[last][:-1]
    return doc


def test_mutated_scenarios_end_in_an_exit_code(tmp_path_factory):
    f = tmp_path_factory.mktemp("fuzz") / "mutated.scn"

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(mutated_scenarios())
    def check_and_run(doc):
        f.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())):
            for command in ("check", "run"):
                assert main([command, str(f)]) in (0, 1, 2)

    check_and_run()
