"""Command line interface.

Subcommands: ``check`` (validate a scenario), ``run`` (execute its queries
and emit a deterministic report), ``spectrum`` (eigenvalue/winding table of
one operator), ``oracle kbound`` (the closed-form kernel-bound constant).

Exit codes: 0 success, 1 query error, 2 validation error, 3 I/O error.
"""

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction

from .curves import k_bound
from .errors import PCurvesError, ValidationError
from .params import COUNT, ORBIT, TRUNCATION
from .queries import _jsonable, run_queries
from .scenario import SCHEMA_VERSION, load_scenario
from .spectral import DEFAULT_TRUNCATION

EXIT_OK = 0
EXIT_QUERY_ERROR = 1
EXIT_VALIDATION = 2
EXIT_IO = 3

ENV_TRUNCATION = "PCURVES_TRUNCATION"


@contextlib.contextmanager
def _located(location):
    """A ValidationError raised inside is one at the flag ``location``."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(str(exc), location)


def resolve_truncation(flag_value):
    """Flag beats environment beats default; the source is echoed into the
    report for reproducibility.  A value that is no ``TRUNCATION`` is a
    validation error at the flag or the variable it came from."""
    if flag_value is not None:
        value, source, location = flag_value, "flag", "--truncation"
    elif ENV_TRUNCATION in os.environ:
        value, source, location = os.environ[ENV_TRUNCATION], "env", ENV_TRUNCATION
        with contextlib.suppress(ValueError):
            value = int(value)
    else:
        return DEFAULT_TRUNCATION, "default"
    with _located(location):
        return TRUNCATION.parse(value, None), source


def build_report(scenario, truncation, truncation_source):
    """The report of the scenario's queries; ``truncation`` and its source
    fill the header, and the scenario's orbits carry the truncation they were
    loaded with."""
    results = run_queries(scenario)
    status = "ok" if all(r["status"] == "ok" for r in results) else "error"
    return {
        "schema_version": SCHEMA_VERSION,
        "truncation": truncation,
        "truncation_source": truncation_source,
        "status": status,
        "queries": results,
    }


def emit(report, fmt):
    """Canonical serialization; identical reports give identical bytes."""
    if fmt == "json":
        return (json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n").encode()
    if fmt != "text":
        raise ValidationError(f"unknown format {fmt!r}")
    lines = [
        f"report status={report['status']} truncation={report['truncation']} "
        f"(source: {report['truncation_source']})"
    ]
    for i, q in enumerate(report["queries"]):
        params = json.dumps(q.get("params", {}), sort_keys=True)
        lines.append(f"[{i}] {q['name']} {params}")
        if q["status"] == "ok":
            lines.append(f"    formula: {q['formula']}")
            lines.append(
                "    result: " + json.dumps(q["result"], sort_keys=True)
            )
        else:
            lines.append(f"    error: {q['error']}")
    return ("\n".join(lines) + "\n").encode()


def _parse_rational(text, location):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"expected a rational such as 3/2 or -1, got {text!r}", location)


def _cmd_check(args):
    truncation, _ = resolve_truncation(None)
    load_scenario(args.file, truncation=truncation)
    print(f"{args.file}: valid scenario")
    return EXIT_OK


def _cmd_run(args):
    truncation, source = resolve_truncation(args.truncation)
    scenario = load_scenario(args.file, truncation=truncation)
    report = build_report(scenario, truncation, source)
    sys.stdout.buffer.write(emit(report, args.format))
    return EXIT_OK if report["status"] == "ok" else EXIT_QUERY_ERROR


def _cmd_spectrum(args):
    truncation, _ = resolve_truncation(args.truncation)
    scenario = load_scenario(args.file, truncation=truncation)
    with _located("--operator"):
        spec = ORBIT.parse(args.operator, scenario).spectrum(truncation)
    print(f"operator {args.operator} truncation {truncation}")
    print(f"{'eigenvalue':>18}  {'winding':>7}  {'mult':>4}")
    for lam, w, mult in spec.eigenpairs:
        print(f"{lam:>18.10g}  {w:>7}  {mult:>4}")
    return EXIT_OK


def _cmd_oracle(args):
    c = _parse_rational(args.c, "--c")
    with _located("--g"):
        COUNT.parse(args.g, None)
    value = k_bound(c, args.g, args.boundary)
    print(json.dumps({"k_bound": value, "c": _jsonable(c),
                      "genus0": args.g, "boundary": args.boundary}, sort_keys=True))
    return EXIT_OK


def make_parser():
    parser = argparse.ArgumentParser(
        prog="pcurves",
        description="Invariant calculus for punctured holomorphic curves in "
        "4-dimensional cobordisms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate a scenario file")
    p_check.add_argument("file")

    p_run = sub.add_parser("run", help="run a scenario's queries")
    p_run.add_argument("file")
    p_run.add_argument("--format", choices=["text", "json"], default="text")
    p_run.add_argument("--truncation", type=int, default=None)

    p_spec = sub.add_parser("spectrum", help="eigenvalue/winding table of an operator")
    p_spec.add_argument("file")
    p_spec.add_argument("--operator", required=True)
    p_spec.add_argument("--truncation", type=int, default=None)

    p_oracle = sub.add_parser("oracle", help="closed-form oracles")
    p_oracle.add_argument("what", choices=["kbound"])
    p_oracle.add_argument("--c", required=True, help="rational, e.g. 3/2 or -1")
    p_oracle.add_argument("--g", type=int, required=True, help="even-puncture count")
    p_oracle.add_argument("--boundary", action="store_true")

    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    handlers = {
        "check": _cmd_check,
        "run": _cmd_run,
        "spectrum": _cmd_spectrum,
        "oracle": _cmd_oracle,
    }
    try:
        return handlers[args.command](args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PCurvesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_QUERY_ERROR


if __name__ == "__main__":
    sys.exit(main())
