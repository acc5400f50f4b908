"""Verification command line: identity suites, tables, the oracle, free bases.

Subcommands
-----------
series   render one closed-form series (text, json, csv, or latex)
table    character or Kostka-Macdonald tables (json, csv, latex, markdown)
oracle   brute-force bigraded dimension tables, optionally compared against
         the closed-form expansion and the diagonal saturation certificates
basis    homogeneous free-basis extraction from a JSON idempotent
         (schema cherpoi/idempotent-v1, described in cli_basis)
verify   run one identity suite and emit a machine-readable report

Exit codes: 0 pass, 1 check failure, 2 resource limit or skipped checks,
3 input error, usage errors included (argparse's own code would be 2).

Reports are deterministic for fixed parameters and engine version; the
per-check wall-clock fields are the one exception and can be omitted with
--no-timings when byte-identical output matters, in the JSON and in the
text format.

Imports
-------
A process loads and compiles only the modules its subcommand uses. This
module keeps argument parsing, the series kind table SERIES_KINDS, the suite
registry SUITES, run_suite and the verify handler. At the top level it
imports only the standard library it needs, __version__, the error types and
report, which holds CheckResult, SuiteReport, the check runner, the
schemas and the label renderer.

- Each other subcommand's handler lives in its own module (cli_series,
  cli_table, cli_oracle, cli_basis), imported when that subcommand runs.
- The suite builders live in four family modules, grouped by what they
  load: suites_closed_forms (fake-degrees, eqpoi, appendix-b),
  suites_macdonald (kostka, omega-specialization, jbar-chain), suites_oracle
  (oracle-J, oracle-jbar, coinvariants, parity) and suites_graded_free. Each
  SUITES entry imports its family when called.
- Each builder imports what its checks call inside the function, so a family
  module loads only the modules of the suite that runs. A builder whose
  checks go through a helper (_window_check, _jbar_check) or through
  a function that loads a module on its first call (hilbert_series loads
  macdonald in _fixed_point_term, under bigraded_J and
  jbar_via_specialization) names those modules with `from . import ...` too.

run_suite calls the builder before _run_checks starts a check's clock, so
loading code counts as start-up and never enters a check's wall_ms; the
helpers' own imports then only look the loaded module up.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import ResourceError
from .report import SuiteReport, _run_checks

DEFAULT_SEED = 1729

# series kind -> (its hilbert_series function, the option it reads, that
# option's default); the k kinds also read --grading. A kind given an option
# it does not read is an input error, not a series computed without it
SERIES_KINDS = {
    "JJ": ("bigraded_JJ", "d", 0),
    "J": ("bigraded_J", "d", 0),
    "Jbar": ("jbar_closed", "d", 0),
    "Nbar": ("nbar_series", "k", 0),
    "Nunder": ("nunder_series", "k", 0),
    "Mbar": ("mbar_series", "k", 1),
    "Munder": ("munder_series", "k", 1),
    "eDelta": ("e_standard_series", "mu", None),
}


def _deferred(module: str, name: str):
    """A function calling cherpoi.<module>.<name>, imported at call time."""

    def call(arg):
        # __import__ rather than importlib.import_module: only the former is
        # listed by python -X importtime, which measures start-up
        return getattr(__import__(f"{__package__}.{module}", fromlist=[name]), name)(arg)

    return call


# suite name -> builder: params -> [(check name, thunk)]
SUITES = {
    "fake-degrees": _deferred("suites_closed_forms", "_suite_fake_degrees"),
    "kostka": _deferred("suites_macdonald", "_suite_kostka"),
    "omega-specialization": _deferred("suites_macdonald", "_suite_omega_specialization"),
    "jbar-chain": _deferred("suites_macdonald", "_suite_jbar_chain"),
    "eqpoi": _deferred("suites_closed_forms", "_suite_eqpoi"),
    "appendix-b": _deferred("suites_closed_forms", "_suite_appendix_b"),
    "oracle-J": _deferred("suites_oracle", "_suite_oracle_j"),
    "oracle-jbar": _deferred("suites_oracle", "_suite_oracle_jbar"),
    "coinvariants": _deferred("suites_oracle", "_suite_coinvariants"),
    "parity": _deferred("suites_oracle", "_suite_parity"),
    "graded-free": _deferred("suites_graded_free", "_suite_graded_free"),
}


# verify's options, by argparse dest, and the suite parameter each one sets
_PARAMETERS = {
    "n": "n",
    "n_max": "n_max",
    "d": "d_max",
    "k": "k_max",
    "window": "window",
    "total": "total",
    "seed": "seed",
}
_OPTIONS = {param: "--" + dest.replace("_", "-") for dest, param in _PARAMETERS.items()}
# the suite parameters that set how many checks a builder makes, one closure
# per grid point, and the largest value run_suite accepts for any of them; at
# 64, jbar-chain --n-max 5 --d 64 took 0.45 s, and eqpoi and appendix-b
# --n-max 7 --k 64 took 0.56 and 0.66 s
_RANGES = ("n_max", "d_max", "k_max")
MAX_GRID = 64


class _Params(dict):
    """Suite parameters that record the keys a builder reads."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def run_suite(name: str, params=None) -> SuiteReport:
    """Execute one named identity suite and return its report.

    Unknown names raise ValueError, and so does a parameter that the suite's
    builder does not read: every builder reads its parameters while it
    builds the checks. A grid that selects no check raises ValueError too,
    so that an empty report never reads as a pass. A grid parameter past
    MAX_GRID raises ResourceError before the builder runs. Checks that trip
    a resource bound are recorded as skipped; the report's exit code is then
    2 unless some other check actually failed.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}, pick from {sorted(SUITES)}")
    params = params or {}
    for key in _RANGES:
        if params.get(key, 0) > MAX_GRID:
            raise ResourceError(f"suite grid bound is {MAX_GRID}, got {_OPTIONS.get(key, key)} {params[key]}")
    params = _Params(params)
    items = SUITES[name](params)
    unread = [_OPTIONS.get(key, key) for key in params if key not in params.read]
    if unread:
        raise ValueError(f"suite {name} does not read {', '.join(unread)}")
    if not items:
        given = " ".join(f"{_OPTIONS.get(key, key)} {value}" for key, value in params.items())
        raise ValueError(f"suite {name} selects no check{' for ' + given if given else ''}")
    return _run_checks(name, params, items)


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    params = {
        param: getattr(args, dest)
        for dest, param in _PARAMETERS.items()
        if getattr(args, dest) is not None
    }
    if "window" in params:
        params["window"] = _parse_pair(params["window"])
    report = run_suite(args.suite, params)
    if args.format == "text":
        for check in report.checks:
            timing = "" if args.no_timings else f" ({check.wall_ms:.1f} ms)"
            print(f"[{check.verdict}] {check.name}{timing}")
        print(f"suite {report.suite}: {report.status}")
    else:
        print(json.dumps(report.to_json(timings=not args.no_timings), sort_keys=True))
    return report.exit_code


# ---------------------------------------------------------------------------
# argument parsing

def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected A,B, got {text!r}")
    return int(parts[0]), int(parts[1])


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 3, as bad input does;
    argparse's own 2 is the resource-limit code here. Subparsers inherit the
    class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cherpoi",
        description="exact verification of graded series, tables, and bases",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_series = sub.add_parser("series", help="render one closed-form series")
    p_series.add_argument("--kind", required=True, choices=SERIES_KINDS)
    p_series.add_argument("--n", type=int, required=True)
    p_series.add_argument("--d", type=int)
    p_series.add_argument("--k", type=int)
    p_series.add_argument("--mu", help="JSON partition for eDelta, e.g. [2,1]")
    p_series.add_argument("--grading", choices=("h", "E"))  # h for the kinds that read it
    p_series.add_argument(
        "--format", choices=("text", "json", "csv", "latex"), default="text"
    )
    p_series.set_defaults(func=_deferred("cli_series", "cmd_series"))

    p_table = sub.add_parser("table", help="character or Kostka-Macdonald tables")
    p_table.add_argument("--kind", required=True, choices=("characters", "kostka-macdonald"))
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument(
        "--format", choices=("json", "csv", "latex", "markdown"), default="csv"
    )
    p_table.set_defaults(func=_deferred("cli_table", "cmd_table"))

    p_oracle = sub.add_parser("oracle", help="brute-force bigraded dimension tables")
    p_oracle.add_argument("--n", type=int, required=True)
    p_oracle.add_argument("--d", type=int, required=True)
    p_oracle.add_argument("--max-bidegree", required=True, help="window bound A,B")
    p_oracle.add_argument("--total", type=int, help="total-degree cap")
    p_oracle.add_argument("--compare", action="store_true")
    p_oracle.add_argument("--format", choices=("csv", "json"), default="csv")
    p_oracle.set_defaults(func=_deferred("cli_oracle", "cmd_oracle"))

    p_basis = sub.add_parser("basis", help="extract a homogeneous free basis")
    p_basis.add_argument("--input", required=True, help="idempotent JSON file")
    p_basis.add_argument("--cutoff", type=int, help="override the algebra cutoff")
    p_basis.set_defaults(func=_deferred("cli_basis", "cmd_basis"))

    p_verify = sub.add_parser("verify", help="run one identity suite")
    p_verify.add_argument("--suite", required=True, choices=sorted(SUITES))
    p_verify.add_argument("--n", type=int)
    p_verify.add_argument("--n-max", type=int)
    p_verify.add_argument("--d", type=int, help="maximum ideal power")
    p_verify.add_argument("--k", type=int, help="maximum shift step")
    p_verify.add_argument("--window", help="window bound A,B")
    p_verify.add_argument("--total", type=int, help="total-degree cap")
    p_verify.add_argument("--seed", type=int, help=f"battery seed (default {DEFAULT_SEED})")
    p_verify.add_argument("--no-timings", action="store_true")
    p_verify.add_argument("--format", choices=("json", "text"), default="json")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
