"""Suite reports: the check runner, the report schema and its JSON rendering.

A suite is a list of (check name, thunk) pairs; each thunk returns
(verdict, left, right). _run_checks times each thunk and records a crash as
a failed check and a tripped resource bound as a skipped one. Reports are
deterministic for fixed parameters and engine version except for the
per-check wall_ms, which to_json(timings=False) leaves out.

Suites hand over raw data and this module renders it: _label is the one
renderer of partition labels, for the dict keys of every report and for the
rows and columns of the table and oracle subcommands.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from . import __version__
from .errors import ResourceError

REPORT_SCHEMA = "cherpoi/report-v1"
SERIES_SCHEMA = "cherpoi/series-v1"
TABLE_SCHEMA = "cherpoi/table-v1"
ORACLE_SCHEMA = "cherpoi/oracle-v1"
BASIS_SCHEMA = "cherpoi/basis-v1"

_SER_CAP = 4000


def _ser(obj):
    """JSON-able rendering of compared objects, deterministic and bounded."""
    if obj is None or isinstance(obj, (int, float, str)):
        return obj
    if isinstance(obj, dict):
        return {_label(k): _ser(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_ser(x) for x in obj]
    text = str(obj)
    if len(text) > _SER_CAP:
        import hashlib

        digest = hashlib.sha256(text.encode()).hexdigest()
        return f"sha256:{digest} ({len(text)} chars)"
    return text


def _label(k) -> str:
    """A key as text, a tuple bracketed with its entries rendered the same
    way: (2, 1) is [2 1], ((2,), (1, 1)) is [[2] [1 1]] and
    ("column-sum", (2, 1)) is [column-sum [2 1]]."""
    if isinstance(k, tuple):
        return "[" + " ".join(map(_label, k)) + "]"
    return str(k)


class CheckResult(NamedTuple):
    """One executed check: verdict plus the two compared objects."""

    name: str
    verdict: str  # pass, fail, unsaturated, skipped
    left: object
    right: object
    wall_ms: float


class SuiteReport(NamedTuple):
    suite: str
    params: dict
    checks: tuple[CheckResult, ...]
    engine: str = __version__

    @property
    def status(self) -> str:
        verdicts = {c.verdict for c in self.checks}
        if "fail" in verdicts:
            return "fail"
        if "skipped" in verdicts or "unsaturated" in verdicts:
            return "partial"
        return "pass"

    @property
    def exit_code(self) -> int:
        return {"pass": 0, "fail": 1, "partial": 2}[self.status]

    def to_json(self, timings: bool = True) -> dict:
        checks = []
        for c in self.checks:
            row = {
                "name": c.name,
                "verdict": c.verdict,
                "left": _ser(c.left),
                "right": _ser(c.right),
            }
            if timings:
                row["wall_ms"] = round(c.wall_ms, 3)
            checks.append(row)
        return {
            "schema": REPORT_SCHEMA,
            "suite": self.suite,
            "engine": self.engine,
            "params": _ser(self.params),
            "status": self.status,
            "checks": checks,
        }


def _run_checks(suite, params, items) -> SuiteReport:
    results = []
    for name, thunk in items:
        start = time.perf_counter()
        try:
            verdict, left, right = thunk()
        except ResourceError as exc:
            verdict, left, right = "skipped", str(exc), None
        except Exception as exc:  # a crash is a failed check, not a crash of the run
            verdict, left, right = "fail", f"{type(exc).__name__}: {exc}", None
        ms = (time.perf_counter() - start) * 1000.0
        results.append(CheckResult(name, verdict, left, right, ms))
    return SuiteReport(suite, dict(params), tuple(results))


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"
