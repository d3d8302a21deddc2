"""The benchmark's side of the program: every call into pcurves happens in
a process running this file.

    worker.py serve               answer spectra and ladder requests, one
                                  JSON line in and one out, until stdin ends
    worker.py library FILE        load a scenario, build and emit its report
    worker.py cli ARGS...         run ``pcurves.cli.main(ARGS)``

With PERFBENCH_TRACE=PATH in the environment, the layer functions are
wrapped with timers before the work starts and the totals are written to
PATH at the end (``serve`` returns them with each answer instead).

It reaches pcurves only through public names; README.md lists them.
"""

import json
import os
import sys
import time
from fractions import Fraction

TRACE_ENV = "PERFBENCH_TRACE"
# The report is built this many times on one loaded scenario; a single
# build of about 15 ms varies too much from process to process.
QUERY_REPEATS = 10


def _tracer():
    if TRACE_ENV not in os.environ:
        return None
    import tracer

    tracer.install()
    return tracer


def _eigenpairs(spec):
    return [[float(lam), int(w), int(m)] for lam, w, m in spec.eigenpairs]


def _operator_orbit(orbit_id, samples):
    import pcurves

    op = pcurves.AsymptoticOperator(tuple(tuple(row) for row in samples))
    return pcurves.OrbitClass(
        id=orbit_id, simple_id=orbit_id, cover=1, winding=pcurves.OperatorWinding(op)
    )


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


def spectra(request):
    """For each operator: the CZ index by winding at each requested
    truncation, the first of each on a cold spectrum, and, if asked, by
    crossing flow, at each requested perturbation."""
    import pcurves
    from pcurves.spectral import GLOBAL_SPECTRUM_CACHE

    perts = [pcurves.Perturbation(Fraction(*eps)) for eps in request["eps"]]
    out = []
    for i, samples in enumerate(request["operators"]):
        orbit = _operator_orbit(f"loop{i}", samples)
        row = {}
        for t in request["truncations"]:
            first, row[f"t{t}"] = _timed(pcurves.conley_zehnder, orbit, perts[0], "winding", truncation=t)
            row[f"cz{t}"] = [first] + [
                pcurves.conley_zehnder(orbit, pert, "winding", truncation=t) for pert in perts[1:]
            ]
            spec = GLOBAL_SPECTRUM_CACHE.get(orbit.winding.op, t)
            row[f"pairs{t}"] = _eigenpairs(spec)
            row[f"diam{t}"] = spec.diameter
        if request["flow"]:
            flows = [_timed(pcurves.conley_zehnder, orbit, pert, "crossing_flow") for pert in perts]
            row["czflow"] = [cz for cz, _ in flows]
            row["tflow"] = [seconds for _, seconds in flows]
        out.append(row)
    return {"operators": out}


def ladder_truncation(k):
    return 48 + 16 * k


def ladder(request):
    """One base orbit through the cover ladder k = 1..6 at truncation 48 + 16k.
    With ``base_only``, only the base's spectrum at each rung's truncation,
    which the full rung then finds in the cache."""
    import pcurves
    from pcurves.spectral import GLOBAL_SPECTRUM_CACHE

    if "theta_pi" in request:
        base = pcurves.scalar_orbit("scalar", request["theta_pi"])
    else:
        base = _operator_orbit("base", request["samples"])
    delta = Fraction(*request["delta"])
    p1 = pcurves.Perturbation(delta)
    pn = pcurves.Perturbation(-Fraction(*request["delta2"]))
    if request.get("base_only"):
        elapsed = sum(
            _timed(GLOBAL_SPECTRUM_CACHE.get, base.winding.op, ladder_truncation(k))[1] for k in request["ladder"]
        )
        return {"seconds": elapsed, "rungs": []}
    rungs = []
    elapsed = 0.0
    for k in request["ladder"]:
        t = ladder_truncation(k)
        pk = pcurves.Perturbation(k * delta)
        start = time.perf_counter()
        cover = pcurves.cover_orbit(base, k)
        base_spec = GLOBAL_SPECTRUM_CACHE.get(base.winding.op, t)
        cover_spec = GLOBAL_SPECTRUM_CACHE.get(cover.winding.op, t)
        q = {side: pcurves.q_of_cover(base, p1, k, side, truncation=t) for side in "-+"}
        omega = {
            sign: [
                pcurves.omega_pair(cover, pk, base, pn, sign, truncation=t),
                pcurves.omega_pair(base, p1, base, pn, sign, truncation=t),
                pcurves.q_tilde(base, p1, base, pn, k, sign, truncation=t),
            ]
            for sign in "+-"
        }
        cov = {side: pcurves.cov_extremal(cover, side, truncation=t) for side in "-+"}
        omega_self = {sign: pcurves.omega_self(cover, sign, truncation=t) for sign in "+-"}
        elapsed += time.perf_counter() - start
        rungs.append({
            "k": k,
            "base_pairs": _eigenpairs(base_spec),
            "base_diam": base_spec.diameter,
            "cover_pairs": _eigenpairs(cover_spec),
            "cover_diam": cover_spec.diameter,
            "q": q,
            "omega": omega,
            "cov": cov,
            "omega_self": omega_self,
        })
    return {"seconds": elapsed, "rungs": rungs}


def warm_up():
    """Compute once what a process pays for once (first calls into LAPACK
    and the integrator), on a constant loop no request uses."""
    import pcurves

    orbit = _operator_orbit("warm", [[0.3, 0.1, -0.2]] * 64)
    pert = pcurves.Perturbation(Fraction(1, 7))
    pcurves.conley_zehnder(orbit, pert, "winding", truncation=64)
    pcurves.conley_zehnder(orbit, pert, "crossing_flow")


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def blas_threads():
    """The thread count OpenBLAS reports from inside this process."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def serve():
    tracer = _tracer()
    warm_up()
    if tracer:
        tracer.take()
    handlers = {"spectra": spectra, "ladder": ladder}
    print(json.dumps({"ready": True, "environment": environment()}), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        try:
            answer = {"ok": True, **handlers[request["kind"]](request)}
        except Exception as exc:  # one failed operation must not end the run
            answer = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        if tracer:
            answer["trace"] = tracer.take()
        print(json.dumps(answer), flush=True)


def library(path):
    """The library route of the foliation run: load, then report."""
    tracer = _tracer()
    import pcurves.cli
    import pcurves.scenario

    truncation, source = pcurves.cli.resolve_truncation(None)
    scenario, load_s = _timed(pcurves.scenario.load_scenario, path, truncation=truncation)
    reports, query_s = [], []
    for _ in range(QUERY_REPEATS):
        report, seconds = _timed(
            lambda: pcurves.cli.emit(pcurves.cli.build_report(scenario, truncation, source), "json")
        )
        reports.append(report.decode())
        query_s.append(seconds)
    if tracer:
        tracer.dump(os.environ[TRACE_ENV])
    print(json.dumps({"load_s": load_s, "query_s": query_s, "reports": reports}))


def cli(argv):
    tracer = _tracer()
    import pcurves.cli

    try:
        return pcurves.cli.main(argv)
    finally:
        if tracer:
            tracer.dump(os.environ[TRACE_ENV])


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    mode = sys.argv[1]
    if mode == "serve":
        serve()
    elif mode == "library":
        library(sys.argv[2])
    elif mode == "cli":
        sys.exit(cli(sys.argv[2:]))
    else:
        sys.exit(f"unknown mode {mode!r}")
