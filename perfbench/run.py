"""Benchmark of pcurves: CLI start-up, the spectral oracle and the cover ladder.

    python3 perfbench/run.py --workload foliation|spectra|covers \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload is a closed loop driven
by this one process: it makes the inputs from the seed, sends one
operation at a time to a pcurves process, checks every output against
independent.py or a property the method must have, and repeats whole
rounds of its main operation until they have taken S seconds.  Set-up
samples and probes, a few of the other workloads' operations, are spread
among the rounds, so every end-to-end metric is measured on every
workload.  Every tenth operation is a fixed input on which pcurves is
known to fail; it counts in ``failed`` but leaves ``correct`` true.  With
--trace 1 the pcurves processes wrap each layer with timers (tracer.py)
and the run reports per-layer metrics instead.

The last line of standard output is the result; the line before it and
.perfbench/result-<workload>-<seed>-<trace>.json hold the details.  See
README.md for the metrics and what each should move.
"""

import argparse
import functools
import importlib.util
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
# One BLAS thread: on two CPUs OpenBLAS's spinning worker threads compete
# with the Python thread, which made load_s vary four times as much.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import independent  # noqa: E402
import tracer  # noqa: E402
from worker import TRACE_ENV, ladder_truncation  # noqa: E402

SCENARIO = "src/pcurves/data/foliation.scn"
OUT_DIR = ".perfbench"
SETUP_SAMPLES = 5
LADDER = (1, 2, 3, 4, 5, 6)
DEADLINE_S = 170
CHILD_TIMEOUT_S = 150


class Failed(Exception):
    """An operation raised, exited non-zero or returned unreadable output."""


class Run:
    def __init__(self, root, seed, seconds, trace):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out_dir = root / OUT_DIR
        self.out_dir.mkdir(exist_ok=True)
        self.env = child_env(root)
        self.samples = {}
        self.operations = {}
        self.problems = []
        self.wrong = 0
        self.known_fault = None
        self.first_report = None
        self.environment = None
        self.worker = None
        # Traces of the main loop and of the probes; those of the known
        # fault and of padding, whose count varies from run to run, are
        # dropped so that per-layer counts repeat exactly.
        self.traces = {"main": [], "probe": []}
        self.phase = "main"
        self.trace_files = 0

    # -- bookkeeping -------------------------------------------------------

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    @property
    def attempted(self):
        return sum(c["attempted"] for c in self.operations.values())

    def operation(self, phase, kind, op, rng):
        """Run one operation; it fails if it raises or any check finds a
        problem.  A failure of the known fault is counted in ``failed`` but
        does not make the run incorrect."""
        self.phase = phase
        counts = self.operations.setdefault(kind, {"attempted": 0, "failed": 0})
        counts["attempted"] += 1
        try:
            problems = op(self, rng)
        except Exception as exc:  # a failed operation is counted; the run goes on
            problems, raised = [f"{kind}: {type(exc).__name__}: {exc}"], True
        else:
            raised = False
        if not problems:
            return
        counts["failed"] += 1
        if kind == KNOWN_FAULT:
            self.known_fault = problems[0]
            return
        self.wrong += not raised
        self.problems += problems

    def check_report(self, data, label):
        """The foliation report's checks, against the run's first report."""
        if self.first_report is None:
            self.first_report = data
        return checks.check_foliation_report(data, self.first_report, label)

    def add_trace(self, data):
        if self.phase in self.traces:
            self.traces[self.phase].append(data)

    def trace_env(self):
        env = dict(self.env)
        if self.trace:
            self.trace_files += 1
            env[TRACE_ENV] = str(self.out_dir / f"trace-{os.getpid()}-{self.trace_files}.json")
        return env

    def take_trace(self, env):
        if TRACE_ENV in env:
            path = Path(env[TRACE_ENV])
            self.add_trace(json.loads(path.read_text()))
            path.unlink()

    # -- the pcurves worker ------------------------------------------------

    def start_worker(self):
        self.worker = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "serve"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=self.trace_env(),
            text=True,
        )
        ready = json.loads(self.worker.stdout.readline() or "{}")
        if not ready.get("ready"):
            raise Failed("the pcurves worker did not start")
        self.environment = ready["environment"]

    def request(self, message):
        if self.worker is None or self.worker.poll() is not None:
            self.start_worker()
        self.worker.stdin.write(json.dumps(message) + "\n")
        self.worker.stdin.flush()
        line = self.worker.stdout.readline()
        if not line:
            raise Failed("the pcurves worker ended")
        answer = json.loads(line)
        if "trace" in answer:
            self.add_trace(answer["trace"])
        if not answer["ok"]:
            raise Failed(answer["error"])
        return answer

    def stop_worker(self):
        if self.worker is not None:
            try:
                self.worker.stdin.close()
            except OSError:  # the worker has ended
                pass
            try:
                self.worker.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.worker.kill()
                self.worker.wait()
            self.worker.stdout.close()


def child_env(root):
    """The environment of every pcurves process: the checkout's ``src`` on
    the path, no truncation override, and byte code cached as an installed
    copy has it, whatever the caller's environment says."""
    env = dict(os.environ)
    for var in ("PCURVES_TRUNCATION", "PYTHONDONTWRITEBYTECODE", TRACE_ENV):
        env.pop(var, None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, env):
    proc = subprocess.run(args, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        raise Failed(f"exit {proc.returncode}: {' '.join(tail)}")
    return proc


# -- set-up -----------------------------------------------------------------


def measure_setup(run, rng):
    """A fresh interpreter until ``import pcurves.cli`` returns; traced, the
    import runs under -X importtime and scipy's share is recorded."""
    flags = ["-X", "importtime"] if run.trace else []
    code = "import time, pcurves.cli; print(repr(time.perf_counter()))"
    start = time.perf_counter()
    proc = run_child([sys.executable, *flags, "-c", code], run.env)
    run.sample("setup_s", float(proc.stdout) - start)
    if run.trace:
        run.sample("scipy_import_s", tracer.scipy_import_seconds(proc.stderr.decode()))
    return []


# -- operations --------------------------------------------------------------
#
# An operation is a function (run, rng) returning the problems its checks
# found; ``rng`` makes its inputs.


def cli_op(run, rng):
    """One ``pcurves run --format json`` process on foliation.scn."""
    env = run.trace_env()
    if run.trace:
        args = [sys.executable, str(HERE / "worker.py"), "cli", "run", SCENARIO, "--format", "json"]
    else:
        args = [sys.executable, "-m", "pcurves.cli", "run", SCENARIO, "--format", "json"]
    start = time.perf_counter()
    proc = run_child(args, env)
    run.sample("cli_run_s", time.perf_counter() - start)
    run.take_trace(env)
    return run.check_report(proc.stdout, "pcurves run")


def library_op(run, rng):
    """One library process: load foliation.scn, then build its report."""
    env = run.trace_env()
    proc = run_child([sys.executable, str(HERE / "worker.py"), "library", SCENARIO], env)
    run.take_trace(env)
    out = json.loads(proc.stdout)
    run.sample("load_s", out["load_s"])
    problems = []
    for i, (seconds, report) in enumerate(zip(out["query_s"], out["reports"])):
        run.sample("query_s", seconds)
        problems += run.check_report(report.encode(), f"library report {i}")
    return problems


# Preferred perturbations; each moves away when it sits near an eigenvalue.
SPECTRA_EPS = (0.0, -0.9, 0.9)
DEGREES = (1, 2, 3, 4)
ROTATIONS = (-2, -1, 1, 2)
# Passes over the flow corpus per round of the spectra workload and per
# run elsewhere.
FLOW_PASSES = 2
PROBE_FLOW_PASSES = 3


def spectra_round(rng):
    """Four loops, one of each degree, whose scales fill the four quarters
    of [0.5, 3] and whose twins take the four rotations s in {-2, -1, 1, 2}
    (s = 0 would repeat the loop and hit the cache), each in a random
    order: every round covers the corpus's range, so the cost of a round
    does not depend on the seed's luck.  The flow corpus is spread among
    them, so that its samples see the whole round and not one moment of
    the host's drift."""
    strata = rng.permutation(4)
    rotations = rng.permutation(ROTATIONS)
    loops = [
        ("spectra", lambda run, rng, d=d, q=int(q), s=int(s): spectra_op(run, rng, d, q, s))
        for d, q, s in zip(DEGREES, strata, rotations)
    ]
    return spread([loops, flow_passes()])


def spectra_request(eps, sources, truncations, flow):
    return {
        "kind": "spectra",
        "eps": [[e.numerator, e.denominator] for e in eps],
        "operators": [source.samples() for source in sources],
        "truncations": truncations,
        "flow": flow,
    }


def spectra_op(run, rng, degree, stratum, s=None, truncations=(64, 128)):
    """A loop with random coefficients of the given degree and scale uniform
    in quarter ``stratum`` of [0.5, 3], and its twin rotated by s unless s
    is None: spectra and CZ indices by winding at each truncation."""
    scale = 0.5 + 2.5 * (stratum + rng.uniform()) / 4
    loop = independent.TrigLoop.random(rng, degree, scale)
    reference = independent.reference_eigenvalues(loop.fourier(), independent.reference_for(128))
    sources = [(loop, "loop")] + ([] if s is None else [(loop.twin(s), f"twin s={s}")])
    eps = [independent.choose_epsilon(reference, preferred) for preferred in SPECTRA_EPS]
    answer = run.request(spectra_request(eps, [source for source, _ in sources], list(truncations), False))
    rows = answer["operators"]
    problems = []
    for row, (source, label) in zip(rows, sources):
        bound = source.norm_bound()
        for t in truncations:
            run.sample(f"t{t}", row[f"t{t}"])
            problems += checks.check_spectrum(
                row[f"pairs{t}"], reference, row[f"diam{t}"], bound, f"{label} T={t}"
            )
        for j, e in enumerate(eps):
            problems += checks.check_cz({f"T={t}": row[f"cz{t}"][j] for t in truncations}, f"{label} eps={e}")
    if s is None:
        return problems
    plain, rotated = rows
    for t in truncations:
        problems += checks.check_twin(
            plain[f"pairs{t}"], rotated[f"pairs{t}"], s, reference, plain[f"diam{t}"], f"twin s={s} T={t}"
        )
    for j, e in enumerate(eps):
        if rotated["cz64"][j] != plain["cz64"][j] - 2 * s:
            problems.append(f"twin s={s} eps={e}: CZ {rotated['cz64'][j]} is not {plain['cz64'][j]} - {2 * s}")
    return problems


# The crossing-flow CZ runs on fixed loops, the same in every run, and not
# on the seeded ones: pcurves miscounts when the crossing form S(0) - eps
# at t = 0 is nearly singular, which seeded loops meet on some seeds and
# not on others (CHANGES.md).  One loop of each degree, with the scale in
# the middle of the degree's quarter of [0.5, 3].
FLOW_CORPUS_SEED = 20


@functools.lru_cache(maxsize=None)
def flow_corpus():
    """(loop, perturbations) of the flow corpus."""
    rng = np.random.default_rng(FLOW_CORPUS_SEED)
    corpus = []
    for d in DEGREES:
        loop = independent.TrigLoop.random(rng, d, 0.5 + 2.5 * (d - 0.5) / 4)
        reference = independent.reference_eigenvalues(loop.fourier(), independent.reference_for(64))
        corpus.append((loop, [independent.choose_epsilon(reference, p) for p in SPECTRA_EPS]))
    return corpus


def flow_op(run, loop, eps, label, sample=True):
    """CZ indices of a loop by crossing flow and by winding at T = 64."""
    row = run.request(spectra_request(eps, [loop], [64], True))["operators"][0]
    if sample:
        for seconds in row["tflow"]:
            run.sample("tflow", seconds)
    problems = []
    for j, e in enumerate(eps):
        problems += checks.check_cz({"T=64": row["cz64"][j], "flow": row["czflow"][j]}, f"{label} eps={e}")
    return problems


def flow_passes(passes=FLOW_PASSES, sample=True):
    return [
        ("flow", lambda run, rng, i=i: flow_op(run, *flow_corpus()[i], f"flow corpus degree {DEGREES[i]}", sample))
        for _ in range(passes)
        for i in range(len(DEGREES))
    ]


# A fixed input on which pcurves fails every time: the first loop of the
# spectra workload at seed 1 when perturbations were chosen by their
# distance from the spectrum alone.  At eps = 9/10, S(0) - eps has the
# eigenvalue 4.5e-4 and the crossing-flow CZ is 1, while the winding CZ,
# the right value, is 0.  Every FAULT_EVERY-th operation of a run is this
# one, so failed / attempted is the same in every run.
KNOWN_FAULT = "known_fault"
FAULT_EVERY = 10


def _sym(a, b, c):
    return [[a, b], [b, c]]


KNOWN_FAULT_LOOP = independent.TrigLoop(
    [
        _sym(1.123510533280246, -1.7779772446131967, -1.5642408185544672),
        _sym(-0.23129631074964063, 1.6743644319857098, 1.1619434421802655),
    ],
    [np.zeros((2, 2)), _sym(-0.7947551036572875, 0.3202631825058819, -1.068534934843464)],
)


def known_fault_op(run, rng):
    return flow_op(run, KNOWN_FAULT_LOOP, [Fraction(9, 10)], "known fault", sample=False)


class Ladder:
    """One base orbit through the cover ladder, a random loop of degree 2
    and scale 0.8 or a scalar loop theta pi Id.  Each rung is two
    operations, the base's spectrum at the rung's truncation and then the
    rest, so that the heaviest rungs fall at two moments of a run and not
    one.  The inputs are made at the first."""

    def __init__(self, scalar):
        self.scalar = scalar
        self.label = "scalar ladder" if scalar else "loop ladder"
        self.request = None
        self.seconds = 0.0
        self.done = 0

    def rungs(self):
        return [
            ("ladder", lambda run, rng, k=k, part=part: part(run, rng, k))
            for k in LADDER
            for part in (self.base_spectrum, self.rung)
        ]

    def timed_request(self, run, rng, message):
        if self.request is None:
            self.make_inputs(rng)
        answer = run.request({**self.request, **message})
        self.seconds += answer["seconds"]
        self.done += 1
        if self.done == 2 * len(LADDER):
            run.sample("ladder_s", self.seconds)
        return answer

    def base_spectrum(self, run, rng, k):
        self.timed_request(run, rng, {"ladder": [k], "base_only": True})
        return []

    def make_inputs(self, rng):
        if self.scalar:
            delta = delta2 = Fraction(1, 16)
            self.model = independent.ScalarModel(independent.random_scalar_theta(rng, delta, delta2, LADDER))
            base = {"theta_pi": self.model.c}
        else:
            loop = independent.TrigLoop.random(rng, 2, 0.8)
            fourier = loop.fourier()
            self.references = {
                k: independent.reference_eigenvalues(
                    independent.cover_fourier(fourier, k), independent.reference_for(ladder_truncation(k))
                )
                for k in LADDER
            }
            # One solve at the top truncation serves the base at every rung.
            self.references[1] = independent.reference_eigenvalues(
                fourier, independent.reference_for(ladder_truncation(LADDER[-1]))
            )
            delta, delta2 = independent.choose_ladder_deltas(self.references)
            self.bound = loop.norm_bound()
            base = {"samples": loop.samples()}
        self.delta, self.delta2 = delta, delta2
        self.request = {
            "kind": "ladder",
            **base,
            "delta": [delta.numerator, delta.denominator],
            "delta2": [delta2.numerator, delta2.denominator],
        }

    def rung(self, run, rng, k):
        rung = self.timed_request(run, rng, {"ladder": [k]})["rungs"][0]
        label = f"{self.label} k={k}"
        base_pairs, cover_pairs = rung["base_pairs"], rung["cover_pairs"]
        if self.scalar:
            model = self.model
            problems = checks.check_scalar_spectrum(base_pairs, model, 1, rung["base_diam"], label + " base")
            problems += checks.check_scalar_spectrum(cover_pairs, model, k, rung["cover_diam"], label)
        else:
            model = None
            problems = checks.check_spectrum(
                base_pairs, self.references[1], rung["base_diam"], self.bound, label + " base"
            )
            problems += checks.check_spectrum(
                cover_pairs, self.references[k], rung["cover_diam"], k * self.bound, label
            )
        problems += checks.check_cover_contains_base(
            base_pairs, rung["base_diam"], cover_pairs, rung["cover_diam"], k, label
        )
        expected = checks.expected_rung(k, self.delta, self.delta2, base_pairs, cover_pairs, model)
        return problems + checks.check_rung(rung, expected, k, label)


# Probe loops have degree 1 and the smallest scales and no twin: the
# spectrum cost grows with all three, and two loops from the whole corpus
# made the probes' rates vary by a third.
PROBE_DEGREE = 1


def probe_loop(run, rng):
    return spectra_op(run, rng, PROBE_DEGREE, 0)


def probe_loop64(run, rng):
    return spectra_op(run, rng, PROBE_DEGREE, 0, truncations=(64,))


def probe_loops():
    """Four probe loops at T = 64 and 128 and four more at T = 64 alone,
    which is cheap: spectrum64_per_s then rests on eight moments of a run."""
    return [[("spectra", probe_loop)] * 4, [("spectra", probe_loop64)] * 4]


# name: (one round of the main loop, made with the workload's generator;
# the probes).  Each is a list of (kind, operation).  The probes give each
# of the other workloads' metrics a few samples, and the cover ladder one
# base orbit.
WORKLOADS = {
    "foliation": (
        lambda rng: [("cli", cli_op), ("library", library_op)],
        lambda: [*probe_loops(), flow_passes(PROBE_FLOW_PASSES), Ladder(scalar=True).rungs()],
    ),
    "spectra": (
        spectra_round,
        lambda: [[("cli", cli_op)] * 4, [("library", library_op)] * 5, Ladder(scalar=True).rungs()],
    ),
    "covers": (
        lambda rng: Ladder(scalar=False).rungs() + Ladder(scalar=True).rungs(),
        lambda: [[("cli", cli_op)] * 3, [("library", library_op)] * 4, *probe_loops(), flow_passes(PROBE_FLOW_PASSES)],
    ),
}


# -- metrics -----------------------------------------------------------------


def rate(values):
    return len(values) / sum(values)


# metric: (samples, statistic, unit).  Set-up time is a median.  Other
# times are means and rates are operations over their total time: the
# host's speed moves between a fast and a slow state, and the median of a
# few samples jumps between the two where the mean moves by the share of
# time spent in each.
END_TO_END = {
    "setup_s": ("setup_s", statistics.median, "s"),
    "cli_run_s": ("cli_run_s", statistics.fmean, "s"),
    "load_s": ("load_s", statistics.fmean, "s"),
    "query_s": ("query_s", statistics.fmean, "s"),
    "spectrum64_per_s": ("t64", rate, "1/s"),
    "spectrum128_per_s": ("t128", rate, "1/s"),
    "cz_flow_per_s": ("tflow", rate, "1/s"),
    "cover_ladder_s": ("ladder_s", statistics.fmean, "s"),
}


def end_to_end(samples, peak_rss_mb):
    """The end-to-end metrics; one whose operations all failed has no
    samples and is left out."""
    metrics = {"peak_rss_mb": (peak_rss_mb, "MB")}
    for name, (key, statistic, unit) in END_TO_END.items():
        if samples.get(key):
            metrics[name] = (statistic(samples[key]), unit)
    return metrics


COUNTERS = ("cache_lookups", "cache_hits", "cover_samples")
COVERING = ("q_of_cover", "omega_pair", "q_tilde", "omega_self", "cov_extremal")


def per_layer(run, rounds):
    """Per-layer metrics of one unit of work: the probes plus one average
    round of the main loop.  Counts repeat exactly from run to run."""
    spans = {}
    unit = dict.fromkeys(COUNTERS + ("dim3",), 0.0)
    weighted = [(data, 1.0) for data in run.traces["probe"]]
    weighted += [(data, 1.0 / rounds) for data in run.traces["main"]]
    calls_by_t = {}
    for data, weight in weighted:
        for name, values in data["spans"].items():
            acc = spans.setdefault(name, [0.0, 0.0, 0.0])
            for i in range(3):
                acc[i] += weight * values[i]
        for key in COUNTERS:
            unit[key] += weight * data[key]
        for t, elapsed in data["spectrum_calls"]:
            unit["dim3"] += weight * (2 * (2 * t + 1)) ** 3
            calls_by_t.setdefault(t, []).append(elapsed)

    def span(name):
        return spans.get(name, [0.0, 0.0, 0.0])

    def self_time(layer):
        return sum(v[2] for name, v in spans.items() if name.startswith(layer + "."))

    def per_call_ms(t):
        return 1000 * statistics.median(calls_by_t[t]) if t in calls_by_t else 0.0

    spectrum = span("spectral.discretized_spectrum")
    lookups = unit["cache_lookups"]
    metrics = {
        "cli.emit_s": (span("cli.emit")[1], "s"),
        "scenario.load.self_s": (span("scenario.load_scenario")[2], "s"),
        "queries.run_one.calls": (span("queries.QueryRegistry.run_one")[0], "count"),
        "queries.run_one.self_s": (span("queries.QueryRegistry.run_one")[2], "s"),
        "spectral.spectrum.calls": (spectrum[0], "count"),
        "spectral.spectrum.s": (spectrum[1], "s"),
        "spectral.spectrum.T64_ms": (per_call_ms(64), "ms"),
        "spectral.spectrum.T128_ms": (per_call_ms(128), "ms"),
        "spectral.spectrum.T144_ms": (per_call_ms(144), "ms"),
        "spectral.spectrum.dim3": (unit["dim3"], "count"),
        "spectral.cache.lookups": (lookups, "count"),
        "spectral.cache.hit_ratio": (unit["cache_hits"] / lookups if lookups else 0.0, "ratio"),
        "spectral.cover_build_s": (span("spectral.AsymptoticOperator.pulled_back")[1], "s"),
        "spectral.cover_samples": (unit["cover_samples"], "count"),
        "orbits.crossing_flow.calls": (span("orbits.crossing_flow")[0], "count"),
        "orbits.crossing_flow.s": (span("orbits.crossing_flow")[1], "s"),
        "orbits.alpha_pm.calls": (span("orbits.alpha_pm")[0], "count"),
        "orbits.alpha_pm.self_s": (span("orbits.alpha_pm")[2], "s"),
        "orbits.covering.self_s": (sum(span(f"orbits.{name}")[2] for name in COVERING), "s"),
        "curves.self_s": (self_time("curves"), "s"),
        "intersections.self_s": (self_time("intersections"), "s"),
        "covers.self_s": (self_time("covers"), "s"),
        "classify.self_s": (self_time("classify"), "s"),
    }
    if run.samples.get("scipy_import_s"):
        metrics["cli.import.scipy_s"] = (statistics.median(run.samples["scipy_import_s"]), "s")
    return metrics


# -- running a workload -------------------------------------------------------


def spread(groups):
    """The operations of all groups in one list, each group's evenly spaced."""
    slots = [((i + 0.5) / len(group), g, op) for g, group in enumerate(groups) for i, op in enumerate(group)]
    return [op for _, _, op in sorted(slots, key=lambda slot: slot[:2])]


def execute(run, workload):
    """Whole rounds of the main loop until they have taken ``run.seconds``,
    with the set-up samples and the probes spread among them in proportion
    to the main loop's progress: the host's speed drifts by tens of percent
    over tens of seconds, and spreading lets every metric see all of it.
    Every FAULT_EVERY-th operation is the known fault; the run ends with
    passes over the flow corpus until its operations fill whole blocks."""
    make_round, make_probes = WORKLOADS[workload]
    rng = np.random.default_rng([run.seed, 1])
    probe_rng = np.random.default_rng([run.seed, 2])
    fixed = spread([[("setup", measure_setup)] * SETUP_SAMPLES] + make_probes())

    def fault_when_due():
        if run.attempted % FAULT_EVERY == FAULT_EVERY - 1:
            run.operation("fault", KNOWN_FAULT, known_fault_op, None)

    def probe(phase, kind, op):
        run.operation(phase, kind, op, probe_rng)
        fault_when_due()

    try:
        run.start_worker()
    except (Failed, OSError, ValueError) as exc:  # each request tries again
        run.problems.append(f"worker: {exc}")
    total, main_s, rounds = len(fixed), 0.0, 0
    while main_s < run.seconds:
        for kind, op in make_round(rng):
            while fixed and total - len(fixed) < total * main_s / run.seconds:
                probe("probe", *fixed.pop(0))
            start = time.perf_counter()
            run.operation("main", kind, op, rng)
            main_s += time.perf_counter() - start
            fault_when_due()
        rounds += 1
    while fixed:
        probe("probe", *fixed.pop(0))
    # Padding comes at the end of every run, so it gives no samples.
    padding = flow_passes(FAULT_EVERY, sample=False)
    while run.attempted % FAULT_EVERY:
        probe("padding", *padding.pop(0))
    run.stop_worker()
    return rounds, main_s


def check_checkout(root):
    missing = [p for p in ("src/pcurves/__init__.py", "src/pcurves/cli.py", SCENARIO) if not (root / p).is_file()]
    if missing:
        sys.exit(f"perfbench: run from the root of a pcurves checkout; missing {', '.join(missing)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    check_checkout(root)
    run = Run(root, args.seed, args.seconds, bool(args.trace))
    # Whatever hangs is stopped before the run's time limit.
    watchdog = threading.Timer(DEADLINE_S, lambda: run.worker and run.worker.kill())
    watchdog.daemon = True
    watchdog.start()
    try:
        if not Path(importlib.util.cache_from_source(str(root / "src/pcurves/cli.py"))).is_file():
            # Untimed: compiles the byte code an installed copy would have.
            run_child([sys.executable, "-c", "import pcurves.cli"], run.env)
        rounds, measured = execute(run, args.workload)
    finally:
        watchdog.cancel()
        if run.worker is not None and run.worker.poll() is None:
            run.worker.kill()
            run.worker.wait()
    if run.trace:
        metrics = per_layer(run, rounds)
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        metrics = end_to_end(run.samples, peak_rss_mb)
    failed = sum(c["failed"] for c in run.operations.values())
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "main_rounds": rounds,
        "main_s": measured,
        "round_s": measured / rounds,
        "operations": run.operations,
        "known_fault": run.known_fault,
        "samples": {name: len(values) for name, values in run.samples.items()},
        "environment": run.environment,
        "problems": run.problems[:20],
    }
    result = {
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (run.out_dir / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps({"details": details, "result": result, "samples": run.samples})
    )
    print(json.dumps(details))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
