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

import pcurves.curves
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
    assert str(err.value).startswith("$.orbits[0]: orbit 'g': nonzero eigenvalue at distance 1 ")


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
    at = r"^\$\.orbits\[0\]\.winding\.samples: 'samples' must be"
    with pytest.raises(ValidationError, match=at):
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


def test_every_operation_is_called_by_some_query(monkeypatch):
    # A fresh cache, so the spectrum query computes its spectrum.
    monkeypatch.setattr(GLOBAL_SPECTRUM_CACHE, "_store", {})
    doc = foliation_doc()
    doc["queries"] = ONE_QUERY_OF_EACH_KIND
    scenario = load_scenario(doc)
    entered = set()

    def record(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__", "").startswith("pcurves."):
            entered.add(frame.f_code.co_name)

    sys.setprofile(record)
    try:
        run_queries(scenario)
    finally:
        sys.setprofile(None)
    assert SPEC_OPERATIONS - entered == set()


def test_a_kind_calls_its_function_as_its_module_holds_it(monkeypatch):
    # A wrapper set on the module after import, as a tracer sets one, sees
    # the query's call.
    calls = []
    check = pcurves.curves.transversality_check

    def recording(curve):
        calls.append(curve)
        return check(curve)

    monkeypatch.setattr(pcurves.curves, "transversality_check", recording)
    doc = foliation_doc()
    curve_id = doc["curves"][0]["id"]
    doc["queries"] = [{"name": "transversality", "curve": curve_id}]
    scenario = load_scenario(doc)
    [result] = run_queries(scenario)
    assert result["status"] == "ok"
    assert calls == [scenario.curves[curve_id]]


def test_a_warm_report_makes_no_numpy_call():
    # Once the spectra are cached, a report is winding decisions on plain
    # tuples and exact arithmetic.
    scenario = load_scenario(foliation_doc())
    emit(build_report(scenario, 64, "default"), "json")
    calls = []

    def record(frame, event, arg):
        if event == "call":
            module = frame.f_globals.get("__name__", "")
        elif event == "c_call":
            module = getattr(arg, "__module__", None) or type(arg.__self__).__module__
        else:
            return
        if module.partition(".")[0] == "numpy":
            calls.append(arg or frame.f_code.co_name)

    sys.setprofile(record)
    try:
        emit(build_report(scenario, 64, "default"), "json")
    finally:
        sys.setprofile(None)
    assert calls == []


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


def morse_bott_signs_doc():
    """foliation.scn plus the Morse-Bott constant loops diag(0, theta), with
    nu = (0, 1) at theta = 1 and (1, 0) at theta = -1, where every orbit of
    foliation.scn has nu = (1, 1): mode 0's eigenvalues are 0 and -theta.
    Each has a double cover at isotropy 2, where delta_mb reads nu.  Queries
    ask nu, alpha, conley_zehnder and delta_mb on all four."""
    doc = foliation_doc()
    for name, theta in (("mb_up", 1.0), ("mb_down", -1.0)):
        doc["orbits"] += [
            {
                "id": name,
                "kind": {"type": "morse_bott", "manifold_dim": 2},
                "winding": {"type": "operator", "samples": [[0.0, 0.0, theta]] * 16},
            },
            {
                "id": f"{name}_x2",
                "simple": name,
                "cover": 2,
                "kind": {"type": "morse_bott", "manifold_dim": 2, "isotropy": 2},
                "winding": {"type": "cover"},
                "generic_alpha": [0, 1],
            },
        ]
        for orbit in (name, f"{name}_x2"):
            doc["queries"].append({"name": "nu", "orbit": orbit})
            for epsilon in ({"num": 1, "den": 8}, {"num": -1, "den": 8}):
                doc["queries"] += [
                    {"name": "alpha", "orbit": orbit, "epsilon": epsilon},
                    {"name": "conley_zehnder", "orbit": orbit, "epsilon": epsilon},
                    *({"name": "delta_mb", "orbit": orbit, "epsilon": epsilon, "sign": sign}
                      for sign in "-+"),
                ]
    return doc


def test_declared_windings_read_off_the_spectra_answer_alike():
    # Both sources of winding data answer alpha_at, alpha_strict, nu and
    # kernel_dimension, so every query that does not read the spectrum
    # itself gives the same result from either.  The Morse-Bott loops of
    # each sign of theta tell nu_- from nu_+.
    doc = morse_bott_signs_doc()
    doc["queries"] += [
        q for q in copy.deepcopy(ONE_QUERY_OF_EACH_KIND)
        if q["name"] != "spectrum" and q.get("method") != "crossing_flow"
    ]
    # A declared k-fold cover is asked at k * epsilon, which must stay inside
    # the gap of 1/4: epsilon = 1/8 with k = 2 would reach it.
    for q in doc["queries"]:
        if q["name"] in ("q_cover", "q_tilde"):
            q["epsilon" if q["name"] == "q_cover" else "epsilon_m"] = {"num": 1, "den": 16}
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
    nus = {
        q["orbit"]: (r["result"]["nu_minus"], r["result"]["nu_plus"])
        for q, r in zip(doc["queries"], declared_results)
        if q["name"] == "nu"
    }
    assert nus == {
        "g_inf": (1, 1),
        "mb_up": (0, 1),
        "mb_up_x2": (0, 1),
        "mb_down": (1, 0),
        "mb_down_x2": (1, 0),
    }


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


def run_cli(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "pcurves.cli", *args],
        capture_output=True,
        cwd=str(Path(__file__).parent.parent),
        timeout=timeout,
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
    assert proc.stderr == f"validation error: {where}: missing curve\n".encode()


def _end_intersection(left_puncture, right_puncture, value):
    """A mutation of the foliation document: a v/u_zeta pairing declaring one
    end intersection."""
    def mutate(doc):
        doc["pairings"].append({
            "left": "v", "right": "u_zeta", "relative_pairing": 0,
            "end_intersections": [
                {"left_puncture": left_puncture, "right_puncture": right_puncture,
                 "value": value},
            ],
        })
    return mutate


NON_FINITE = (float("nan"), float("inf"), float("-inf"))


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
        (_set(["orbits", 5, "cover"], "two"), "$.orbits[5].cover"),
        (_set(["surfaces", 0, "genus"], "x"), "$.surfaces[0].genus"),
        (_set(["curves", 0, "c1_rel"], "x"), "$.curves[0].c1_rel"),
        (_set(["surfaces", 0, "punctures", 0, "sign"], None), "$.surfaces[0].punctures[0]"),
        (_set(["covers", 0, "fiber", 0, "from"], None), "$.covers[0].fiber[0]"),
        (_set(["orbits", 0], 5), "$.orbits[0]"),
        (_set(["orbits", 0, "winding", "samples", 0], [1.0, "x", 1.0]),
         "$.orbits[0].winding.samples"),
        (_set(["queries", 0], {"name": "cover_orbit", "orbit": "g_zero", "k": "two"}),
         "$.queries[0].k"),
        (_set(["queries", 0], {"name": "cover_orbit", "orbit": "g_zero", "k": 0}),
         "$.queries[0].k"),
        (_set(["orbits", 0, "id"], ["a"]), "$.orbits[0].id"),
        (_set(["surfaces", 0, "id"], ["a"]), "$.surfaces[0].id"),
        (_set(["curves", 0, "somewhere_injective"], "no"), "$.curves[0].somewhere_injective"),
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
        # No even-puncture count is negative.
        (("--c", "1", "--g", "-1"), "--g"),
        (_set(["queries", 0], {"name": "k_bound", "c": 1, "genus0": -1, "boundary": False}),
         "$.queries[0].genus0"),
        (_set(["queries", 0], {"name": "line_bundle", "index": 1, "c1_adjusted": 0,
                               "gamma0": -1, "boundary": False}), "$.queries[0].gamma0"),
        # Nor is a count of intersections.
        (_set(["queries", 0], {"name": "asymptotic", "left": "v", "right": "u_zeta",
                               "geometric_count": -1}), "$.queries[0].geometric_count"),
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
        # The spectrum query's own truncation obeys the oracle's minimum.
        (_set(["queries", 0], {"name": "spectrum", "orbit": "g_zero", "truncation": 4}),
         "$.queries[0].truncation"),
        (_set(["orbits", 0, "distinct_from"], [{}]), "$.orbits[0].distinct_from"),
        (_set(["orbits", 0, "distinct_from"], [["g_inf"]]), "$.orbits[0].distinct_from"),
        # Every id that distinct_from holds names a declared simple orbit.
        (_set(["orbits", 0, "distinct_from"], ["g_inf", "g_m", "g_one", "nowhere"]), "$.orbits[0]"),
        # generic_alpha is a pair of integers.
        *[(_set(["orbits", 1, "generic_alpha"], pair), "$.orbits[1].generic_alpha")
          for pair in ([], [1], [1, 2, 3])],
        (_set(["curves", 0, "constrained"], [["v0"]]), "$.curves[0].constrained"),
        (_set(["curves", 0, "orbits", "v0"], ["g_zero"]), "$.curves[0].orbits.v0"),
        # Every curve lives in a 4-dimensional cobordism: n is 2 or absent.
        *[(_set(["curves", 0, "n"], n), "$.curves[0].n") for n in (3, 0, 2.0, True)],
        (_set(["covers", 0, "fiber", 0, "from"], ["q0"]), "$.covers[0].fiber[0].from"),
        (_set(["covers", 0, "fiber", 0, "to"], ["v0"]), "$.covers[0].fiber[0].to"),
        (_set(["covers", 0, "total_constrained"], [["q0"]]), "$.covers[0].total_constrained"),
        # Beyond k = 2T + 2 some residue classes of the cover hold no mode |m| <= T.
        (_set(["orbits", 5, "cover"], 130), "$.orbits[5]"),
        # A gap beyond the float range is refused as any gap wider than the spectrum's.
        (_set(["delta_gap"], {"num": 10**400, "den": 1}), "$.orbits[0]"),
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
        # Declared windings answer perturbations inside the gap only.
        (lambda doc: (
            _set(["orbits", 2, "winding"], {"type": "declared", "minus_delta": [1, 2],
                                            "plus_delta": [0, 1]})(doc),
            _set(["queries", 0], {"name": "alpha", "orbit": "g_one", "epsilon": 7})(doc),
        ), "$.queries[0].epsilon"),
        (lambda doc: (
            _set(["orbits", 2, "winding"], {"type": "declared", "minus_delta": [1, 2],
                                            "plus_delta": [0, 1]})(doc),
            _set(["queries", 0], {"name": "omega", "a": "g_inf", "epsilon_a": 7, "b": "g_one",
                                  "epsilon_b": {"num": -1, "den": 4}, "sign": "-"})(doc),
        ), "$.queries[0].epsilon_b"),
        # A declared k-fold cover is asked at k * epsilon.
        (lambda doc: (
            _set(["orbits", 2, "winding"], {"type": "declared", "minus_delta": [1, 2],
                                            "plus_delta": [0, 1]})(doc),
            _set(["queries", 0], {"name": "q_cover", "orbit": "g_one", "k": 2, "side": "-",
                                  "epsilon": {"num": 15, "den": 64}})(doc),
        ), "$.queries[0].epsilon"),
        (lambda doc: (
            _set(["orbits", 2, "winding"], {"type": "declared", "minus_delta": [1, 2],
                                            "plus_delta": [0, 1]})(doc),
            _set(["queries", 0], {"name": "q_tilde", "orbit_m": "g_one", "orbit_n": "g_one",
                                  "epsilon_m": {"num": -15, "den": 64}, "k": 2,
                                  "sign": "-"})(doc),
        ), "$.queries[0].epsilon_m"),
        # One orbit per simple orbit and covering number.
        (lambda doc: doc["orbits"].extend(
            {"id": oid, "simple": "h", "cover": k,
             "winding": {"type": "declared", "alpha_minus": k, "alpha_plus": k + 1}}
            for oid, k in (("h", 1), ("h2a", 2), ("h2b", 2))
        ), "$.orbits[9]"),
        # A nondegenerate kind has no family to describe.
        (lambda doc: doc["orbits"].append(
            {"id": "h", "winding": {"type": "declared", "alpha_minus": 1, "alpha_plus": 2},
             "kind": {"type": "nondegenerate", "manifold_dim": 7, "isotropy": 99}}
        ), "$.orbits[7].kind"),
        # A declared end intersection is a nonnegative count at two same-sign
        # punctures, one on each curve.
        (_end_intersection("v0", "q0", -3), "$.pairings[2].end_intersections[0].value"),
        (_end_intersection("nowhere", "q0", 5),
         "$.pairings[2].end_intersections[0].left_puncture"),
        (_end_intersection("v0", "v1", 5), "$.pairings[2].end_intersections[0].right_puncture"),
        (lambda doc: (
            _set(["surfaces", 0, "punctures", 2, "sign"], "+")(doc),
            _end_intersection("vinf", "q0", 5)(doc),
        ), "$.pairings[2].end_intersections[0].right_puncture"),
        # A fiber names each domain puncture once, and a pairing each end pair.
        (lambda doc: doc["covers"][0]["fiber"].insert(1, {"from": "q1", "to": "vinf", "order": 5}),
         "$.covers[0].fiber[2]"),
        (lambda doc: doc["covers"][0]["fiber"].append(dict(doc["covers"][0]["fiber"][0])),
         "$.covers[0].fiber[4]"),
        (lambda doc: (
            _end_intersection("v0", "q0", 3)(doc),
            doc["pairings"][2]["end_intersections"].append(
                {"left_puncture": "v0", "right_puncture": "q0", "value": 0}),
        ), "$.pairings[2].end_intersections[1]"),
        # JSON readers take NaN and the infinities as bare tokens; no number
        # row holds them.
        *[(_set(["orbits", 0, "winding", "samples", 3], [1.0, x, 1.0]),
           "$.orbits[0].winding.samples")
          for x in NON_FINITE],
        *[(_set(["queries", 0], {"name": "loop_winding", "samples": [[1, 0], [x, 1], [-1, 0]]}),
           "$.queries[0].samples")
          for x in NON_FINITE],
    ],
    ids=[
        "cover-not-int", "genus-not-int", "c1_rel-not-int", "puncture-without-sign",
        "fiber-without-from", "orbit-not-object", "sample-row-not-numbers",
        "query-k-not-int", "query-k-zero", "orbit-id-not-string", "surface-id-not-string",
        "somewhere-injective-not-bool", "query-index-not-int", "query-boundary-not-bool",
        "query-has-boundary-not-bool", "query-cz-method-unknown", "kbound-c-not-rational",
        "kbound-c-zero-den", "kbound-g-negative", "query-genus0-negative",
        "query-gamma0-negative", "query-geometric-count-negative", "query-orbit-list",
        "query-orbit-unknown",
        "query-epsilon-not-rational", "query-key-unknown", "query-weaker-nested",
        "query-weaker-string", "query-samples-short-pair", "query-samples-string",
        "query-parity-7", "query-curve-unknown", "query-cover-unknown", "query-surface-unknown",
        "query-other-unknown", "query-side-unknown", "query-sign-unknown", "query-j-mode-unknown",
        "query-delta-u-not-rational", "query-truncation-below-minimum", "distinct-from-dict",
        "distinct-from-list", "distinct-from-unknown", "generic-alpha-empty", "generic-alpha-single",
        "generic-alpha-triple", "constrained-list", "curve-orbit-list", "curve-n-3", "curve-n-0",
        "curve-n-float", "curve-n-bool", "fiber-from-list",
        "fiber-to-list",
        "total-constrained-list", "cover-beyond-truncation", "delta-gap-beyond-float-range",
        "declared-no-flow",
        "declared-both-spellings", "declared-alpha-plus-with-deltas",
        "declared-epsilon-outside-the-gap", "declared-epsilon-at-the-gap",
        "declared-cover-epsilon-outside-the-gap", "declared-cover-epsilon-m-outside-the-gap",
        "duplicate-declared-cover",
        "nondegenerate-kind-with-family-keys",
        "end-intersection-negative", "end-intersection-left-puncture-unknown",
        "end-intersection-right-puncture-unknown", "end-intersection-opposite-signs",
        "fiber-from-repeated", "fiber-entry-copied", "end-pair-repeated",
        "sample-nan", "sample-infinity", "sample-minus-infinity",
        "query-samples-nan", "query-samples-infinity", "query-samples-minus-infinity",
    ],
)
def test_cli_malformed_input_is_a_located_validation_error(tmp_path, capsys, mutate, where):
    # In-process, so an exception that escapes main fails the test by itself.
    if isinstance(mutate, str):
        code = main(["oracle", "kbound", f"--c={mutate}", "--g", "0"])
    elif isinstance(mutate, tuple):
        code = main(["oracle", "kbound", *mutate])
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


def sphere_at_three_and_a_half(n):
    """A sphere with one positive puncture at S = 3.5 Id and c1_rel 1, its
    curve's ``n`` as given (None: absent)."""
    doc = minimal_doc()
    doc["surfaces"][0]["punctures"] = [{"id": "z", "sign": "+"}]
    doc["orbits"][0]["winding"]["samples"] = [[3.5, 0.0, 3.5]] * 16
    _set(["curves", 0, "n"], n)(doc)
    return doc


@pytest.mark.parametrize("n", [None, 2])
def test_a_curve_at_n_2_or_without_n_loads(n):
    curve = load_scenario(sphere_at_three_and_a_half(n)).curves["c"]
    report = pcurves.curves.transversality_check(curve)
    assert (report.index, report.normal_chern, report.criterion_met) == (2, 0, True)
    assert (report.kernel_lower, report.kernel_upper) == (2, 2)


@pytest.mark.parametrize("n", [3, 0, 2.0, True])
def test_a_curve_at_another_n_is_refused(tmp_path, capsys, n):
    f = tmp_path / "n.scn"
    f.write_text(json.dumps(sphere_at_three_and_a_half(n)))
    assert main(["check", str(f)]) == 2
    assert capsys.readouterr().err == (
        f"validation error: $.curves[0].n: 'n' must be one of [2], got {n!r}\n"
    )


def test_cover_orbit_beyond_the_truncation_is_a_query_error(tmp_path, capsysbinary):
    doc = foliation_doc()
    doc["queries"] = [{"name": "cover_orbit", "orbit": "g_zero", "k": 130}]
    f = tmp_path / "k.scn"
    f.write_text(json.dumps(doc))
    assert main(["run", str(f), "--format", "json"]) == 1
    [result] = json.loads(capsysbinary.readouterr().out)["queries"]
    assert result["status"] == "error"
    assert result["error"].startswith("SpectralError: ")


def test_an_orbit_whose_closed_form_overflows_is_refused(tmp_path, capsys):
    # S = 1e308 Id: -(a + c) / 2 is -inf, so the closed form refuses the
    # orbit before its gap is checked.
    doc = foliation_doc()
    doc["orbits"][0]["winding"]["samples"] = [[1e308, 0.0, 1e308]] * 32
    f = tmp_path / "huge.scn"
    f.write_text(json.dumps(doc))
    assert main(["check", str(f)]) == 1
    err = capsys.readouterr().err
    assert err == "error: the spectrum of the mean (1e+308, 0, 1e+308) overflows\n"


def test_a_perturbation_beyond_float_range_is_a_query_error(tmp_path, capsysbinary):
    huge = {"num": 10**400, "den": 1}
    doc = foliation_doc()
    doc["queries"] = [
        {"name": "alpha", "orbit": "g_zero", "epsilon": huge},
        {"name": "conley_zehnder", "orbit": "g_zero", "epsilon": huge, "method": "crossing_flow"},
        {"name": "alpha", "orbit": "g_zero", "epsilon": {"num": 1, "den": 8}},
    ]
    f = tmp_path / "huge.scn"
    f.write_text(json.dumps(doc))
    assert main(["run", str(f), "--format", "json"]) == 1
    alpha, flow, ordinary = json.loads(capsysbinary.readouterr().out)["queries"]
    assert alpha["status"] == flow["status"] == "error"
    assert alpha["error"].startswith("SpectralError: ")
    assert "outside the reliable window" in alpha["error"]
    assert flow["error"].startswith("SpectralError: ")
    assert "too fast to resolve" in flow["error"]
    assert ordinary["status"] == "ok"


def test_cli_crossing_flow_cz_of_g_zero_falls_with_epsilon(tmp_path, capsysbinary):
    # S = 2 pi Id, so CZ(A + eps) = 2 floor(1 - eps / 2 pi) + 1.  At eps =
    # 6500 the flow used to alias and report 2029 with status ok.
    epsilons = (100, 190, 3000, 6400, 6500)
    doc = foliation_doc()
    doc["queries"] = [
        {"name": "conley_zehnder", "orbit": "g_zero", "epsilon": eps, "method": "crossing_flow"}
        for eps in epsilons
    ]
    f = tmp_path / "flow.scn"
    f.write_text(json.dumps(doc))
    assert main(["run", str(f), "--format", "json"]) == 0
    values = [q["result"] for q in json.loads(capsysbinary.readouterr().out)["queries"]]
    assert values == sorted(values, reverse=True)
    assert values == [2 * math.floor(1 - eps / TWO_PI) + 1 for eps in epsilons]


def test_declared_end_intersections_reach_the_asymptotic_total():
    def asymptotic(ends):
        doc = foliation_doc()
        doc["pairings"].append(
            {"left": "v", "right": "u_zeta", "relative_pairing": 0, "end_intersections": ends}
        )
        doc["queries"] = [{"name": "asymptotic", "left": "v", "right": "u_zeta"}]
        [result] = run_queries(load_scenario(doc))
        assert result["status"] == "ok", result
        return result["result"]

    generic = asymptotic([])
    # Every same-sign end pair declared, one of them at 2.
    declared = asymptotic([
        {"left_puncture": z, "right_puncture": zp, "value": 2 if (z, zp) == ("v1", "q1") else 0}
        for z in ("v0", "v1", "vinf")
        for zp in ("q0", "q1", "qm1", "qinf")
    ])
    assert generic["declared_unverified"] and not declared["declared_unverified"]
    assert declared["total"] == generic["total"] + 2
    assert [(pair, end) for pair, end, _ in declared["per_pair"] if end] == [(["v1", "q1"], 2)]


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


def test_cli_oracle_kbound_is_immediate_on_a_large_c():
    # A loop over l <= 2c would not end in the timeout.
    proc = run_cli("oracle", "kbound", "--c", "1000000000000", "--g", "0", timeout=30)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["k_bound"] == 2000000000002


def test_truncation_env_override(monkeypatch):
    monkeypatch.setenv("PCURVES_TRUNCATION", "80")
    assert resolve_truncation(None) == (80, "env")
    assert resolve_truncation(32) == (32, "flag")
    monkeypatch.delenv("PCURVES_TRUNCATION")
    assert resolve_truncation(None) == (64, "default")


def test_cli_check_resolves_truncation_from_env(monkeypatch, capsys):
    # Below MIN_TRUNCATION the variable itself is refused, so an exit code
    # of 0 means it was ignored.
    monkeypatch.setenv("PCURVES_TRUNCATION", "4")
    assert main(["check", str(FOLIATION)]) == 2
    assert capsys.readouterr().err.startswith("validation error: PCURVES_TRUNCATION: ")


@pytest.mark.parametrize("command", [["run"], ["spectrum", "--operator", "g_zero"]])
def test_cli_truncation_flag_below_the_minimum_is_located(capsys, command):
    assert main([command[0], str(FOLIATION), *command[1:], "--truncation", "4"]) == 2
    assert capsys.readouterr().err.startswith("validation error: --truncation: ")


@pytest.mark.parametrize(
    "operator, message",
    [("nope", "must name a declared orbit, got 'nope'"), ("g_decl", "not operator-backed")],
)
def test_cli_spectrum_operator_without_a_spectrum_is_located(capsys, tmp_path, operator, message):
    doc = foliation_doc()
    windings = {"type": "declared", "alpha_minus": 0, "alpha_plus": 1}
    doc["orbits"].append({"id": "g_decl", "cover": 1, "winding": windings})
    f = tmp_path / "declared.scn"
    f.write_text(json.dumps(doc))
    assert main(["spectrum", str(f), "--operator", operator]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: --operator: ") and message in err


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


def test_a_reference_run_loads_no_numpy():
    # Every loop of foliation.scn is constant, and a constant loop's
    # spectrum is a closed form.  The records are built without
    # ``dataclasses``, which would load ``inspect`` too.
    code = (
        "import sys; from pcurves.cli import main; "
        f"codes = [main(['check', {str(FOLIATION)!r}]), main(['run', {str(FOLIATION)!r}])]; "
        "print(codes, *(m in sys.modules for m in ('numpy', 'dataclasses', 'inspect')),"
        " file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, check=True,
        cwd=str(Path(__file__).parent.parent),
    )
    assert proc.stderr.strip() == b"[0, 0] False False False"


def twisted_samples(s, n_samples=32):
    """Samples of R^T diag(1, 2) R - 2 pi s Id with R(t) = exp(2 pi s J0 t):
    a loop that is not constant, with the spectrum of diag(1, 2) and every
    winding lowered by s."""
    rows, shift = [], TWO_PI * s
    for j in range(n_samples):
        co, si = math.cos(shift * j / n_samples), math.sin(shift * j / n_samples)
        rows.append([co * co + 2 * si * si - shift, si * co, si * si + 2 * co * co - shift])
    return rows


def test_the_flow_and_a_loop_that_is_not_constant_answer_from_a_fresh_cli(tmp_path):
    # Both import numpy on first use.  diag(1, 2) has alpha_- = 0 and p = 1,
    # so CZ = 1; its twin has CZ = -1.
    doc = foliation_doc()
    twist = {"type": "operator", "samples": twisted_samples(1)}
    doc["orbits"].append({"id": "g_twist", "cover": 1, "winding": twist})
    doc["queries"] = [
        {"name": "conley_zehnder", "orbit": "g_twist", "epsilon": 0, "method": method}
        for method in ("crossing_flow", "winding")
    ]
    f = tmp_path / "twist.scn"
    f.write_text(json.dumps(doc))
    proc = run_cli("run", str(f), "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert [q["result"] for q in json.loads(proc.stdout)["queries"]] == [-1, -1]
    proc = run_cli("spectrum", str(f), "--operator", "g_twist", "--truncation", "16")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.decode().splitlines()[2:]]
    # -(1 + 2)/2 -+ hypot(1/2, 2 pi m) on mode m, with the windings -+m - 1.
    spec = {(round(-1.5 - math.hypot(0.5, TWO_PI * m), 6), -m - 1) for m in range(1, 17)}
    spec |= {(round(-1.5 + math.hypot(0.5, TWO_PI * m), 6), m - 1) for m in range(1, 17)}
    spec |= {(-2.0, -1), (-1.0, -1)}
    assert len(rows) == 18  # the window: 34 eigenvalues, two of them simple
    for lam, w, mult in rows:
        assert (round(float(lam), 6), int(w)) in spec
        assert int(mult) == (1 if w == "-1" else 2)


@pytest.mark.parametrize("truncation", [64, 128])
def test_cli_spectrum_prints_the_kernel_of_g_zero_as_zero(capsys, truncation):
    # S = fl(2 pi) Id: on mode 1 the closed form gives exactly
    # -fl(2 pi) + hypot(0, 0, fl(2 pi)) = 0, twice, with winding 1.
    args = ["spectrum", str(FOLIATION), "--operator", "g_zero", "--truncation", str(truncation)]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines if line.split()[1] == "1"] == [["0", "1", "2"]]


#: values a mutation writes over one entry of the scenario
MUTANT_VALUES = ["x", 1.5, -1, 0, 200, True, None, [], {}, ["a"], [["a"]], {"num": 1, "den": 0}]


def _leaves(node, path=()):
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        yield path + (key,), child
        if isinstance(child, (dict, list)):
            yield from _leaves(child, path + (key,))


def every_key_doc():
    """A valid scenario holding once each key that foliation.scn lacks: declared
    windings in both spellings, a nondegenerate kind, generic_alpha, a surface
    with boundary, end_intersections and total_constrained, with a delta_mb
    query on the isotropy-2 orbit g2."""
    return {
        "schema_version": 1,
        "delta_gap": {"num": 1, "den": 4},
        "surfaces": [
            {"id": "disk", "genus": 0, "boundary_components": 1, "punctures": [{"id": "z", "sign": "+"}]},
            *({"id": sid, "genus": 0, "punctures": [{"id": a, "sign": "+"}, {"id": b, "sign": "+"}]}
              for sid, a, b in (("cyl", "a", "b"), ("cyl2", "c", "d"))),
        ],
        "orbits": [
            {"id": "g", "kind": {"type": "nondegenerate"}, "distinct_from": ["h"],
             "winding": {"type": "declared", "alpha_minus": 1, "alpha_plus": 1}},
            {"id": "g2", "simple": "g", "cover": 2,
             "kind": {"type": "morse_bott", "manifold_dim": 2, "isotropy": 2},
             "winding": {"type": "declared", "minus_delta": [2, 3], "plus_delta": [2, 2]},
             "generic_alpha": [1, 1]},
            {"id": "h", "winding": {"type": "operator", "samples": [[3.5, 0.0, 3.5]] * 16}},
        ],
        "curves": [
            {"id": "u", "surface": "disk", "c1_rel": 1, "maslov_boundary": 2, "orbits": {"z": "g"}},
            {"id": "w", "surface": "cyl", "c1_rel": 2, "orbits": {"a": "g", "b": "h"},
             "constrained": ["a"]},
        ],
        "pairings": [
            {"left": "w", "right": "w", "relative_pairing": 1,
             "end_intersections": [{"left_puncture": "a", "right_puncture": "a", "value": 0}]},
        ],
        "covers": [
            {"id": "psi", "domain": "cyl2", "codomain": "cyl", "degree": 1, "base_curve": "w",
             "fiber": [{"from": "c", "to": "a"}, {"from": "d", "to": "b"}], "total_constrained": ["c"]},
        ],
        "queries": [
            {"name": "delta_mb", "orbit": "g2", "epsilon": {"num": -1, "den": 8}, "sign": "-"},
            {"name": "index", "curve": "u"},
            {"name": "intersection", "left": "w", "right": "w"},
            {"name": "screen", "cover": "psi"},
        ],
    }


def test_the_every_key_scenario_runs():
    results = run_queries(load_scenario(every_key_doc()))
    assert [r["status"] for r in results] == ["ok"] * 4
    assert results[0]["result"] == {"num": 1, "den": 2}


@st.composite
def mutated_scenarios(draw):
    """foliation.scn with one query of each kind, or ``every_key_doc()``, and one
    entry dropped, overwritten with one of MUTANT_VALUES, its id pointed at
    nothing, or its sample row shortened."""
    if draw(st.booleans()):
        doc = foliation_doc()
        doc["queries"] += copy.deepcopy(ONE_QUERY_OF_EACH_KIND)
    else:
        doc = every_key_doc()
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
