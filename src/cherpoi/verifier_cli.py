"""Verification command line: identity suites, tables, the oracle, free bases.

Subcommands
-----------
series   render one closed-form series (text, json, csv, or latex)
table    character or Kostka-Macdonald tables (json, csv, latex, markdown)
oracle   brute-force bigraded dimension tables, optionally compared against
         the closed-form expansion and the diagonal saturation certificates
basis    homogeneous free-basis extraction from a JSON idempotent
verify   run one identity suite and emit a machine-readable report

Exit codes: 0 pass, 1 check failure, 2 resource limit or skipped checks,
3 input error.

Reports are deterministic for fixed parameters and engine version; the
per-check wall-clock fields are the one exception and can be omitted with
--no-timings when byte-identical output matters.

The basis subcommand reads an idempotent presentation (schema
cherpoi/idempotent-v1):

    {
      "algebra": {"kind": "polynomial" | "truncated",
                  "variables": 2, "cutoff": 12, "top": 3},
      "shifts": [1, 0],
      "matrix": [
        {"row": 1, "col": 0,
         "terms": [{"exponents": [1, 0], "coeff": "3/2"}]}
      ]
    }

"top" applies only to the truncated kind. Absent matrix entries are zero;
each listed term must have total degree shifts[col] - shifts[row].

Imports
-------
A process loads only the modules its subcommand uses. At the top level this
module imports only the standard library, __version__ and the error types:
what argument parsing and report output need. Each suite builder
(_suite_*) and each cmd_* handler imports what it calls inside the function.
A builder whose checks go through a helper (_compare_window,
_jbar_comparison, _collapse_sum) or through a function that loads a module on
its first call (hilbert_series loads macdonald in bigraded_J and
jbar_via_specialization) names those modules with `from . import ...` too.
run_suite calls the builder before _run_checks starts a check's clock, so
loading code counts as start-up and never enters a check's wall_ms; the
helpers' own imports then only look the loaded module up.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import __version__
from .errors import CertificationError, ResourceError

REPORT_SCHEMA = "cherpoi/report-v1"
SERIES_SCHEMA = "cherpoi/series-v1"
TABLE_SCHEMA = "cherpoi/table-v1"
ORACLE_SCHEMA = "cherpoi/oracle-v1"
BASIS_SCHEMA = "cherpoi/basis-v1"

DEFAULT_SEED = 1729

V = ("v",)
ST = ("s", "t")


# ---------------------------------------------------------------------------
# serialization helpers

_SER_CAP = 4000


def _ser(obj):
    """JSON-able rendering of compared objects, deterministic and bounded."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {_key(k): _ser(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_ser(x) for x in obj]
    text = str(obj)
    if len(text) > _SER_CAP:
        import hashlib

        digest = hashlib.sha256(text.encode()).hexdigest()
        return f"sha256:{digest} ({len(text)} chars)"
    return text


def _key(k) -> str:
    if isinstance(k, str):
        return k
    if isinstance(k, tuple):
        return "[" + " ".join(str(x) for x in k) + "]"
    return str(k)


def _plabel(p) -> str:
    return "[" + " ".join(map(str, p)) + "]"


# ---------------------------------------------------------------------------
# suite machinery

@dataclass(frozen=True)
class CheckResult:
    """One executed check: verdict plus the two compared objects."""

    name: str
    verdict: str  # pass, fail, unsaturated, skipped
    left: object
    right: object
    wall_ms: float


@dataclass(frozen=True)
class SuiteReport:
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


# ---------------------------------------------------------------------------
# individual suites

def _suite_fake_degrees(p):
    from .exact_poly import LaurentPoly, q_factorial_poly
    from .partition_core import enumerate_partitions, transpose
    from .sn_rep import dim_irr, fake_degree, fake_degree_maj

    n_max = p.get("n_max", 8)
    items = []
    for n in range(1, n_max + 1):
        def maj_check(n=n):
            left = {mu: fake_degree(mu) for mu in enumerate_partitions(n)}
            right = {mu: fake_degree_maj(mu) for mu in enumerate_partitions(n)}
            return _verdict(left == right), left, right

        def inversion_check(n=n):
            big_n = n * (n - 1) // 2
            vn = LaurentPoly.var_power(V, "v", big_n)
            left = {mu: fake_degree(mu) for mu in enumerate_partitions(n)}
            right = {
                mu: vn * fake_degree(transpose(mu)).invert_variables()
                for mu in enumerate_partitions(n)
            }
            return _verdict(left == right), left, right

        def factorial_check(n=n):
            total = LaurentPoly.zero(V)
            for mu in enumerate_partitions(n):
                total = total + fake_degree(mu).invert_variables() * LaurentPoly.const(
                    V, dim_irr(mu)
                )
            target = q_factorial_poly(n).invert_variables()
            return _verdict(total == target), total, target

        items.append((f"maj-matches-hook-n{n}", maj_check))
        items.append((f"transpose-inversion-n{n}", inversion_check))
        items.append((f"factorial-sum-n{n}", factorial_check))
    return items


def _natural_coeffs(poly: LaurentPoly) -> bool:
    return all(
        c == int(c) and c >= 0 and all(e >= 0 for e in exps)
        for exps, c in poly.terms.items()
    )


def _suite_kostka(p):
    from .exact_poly import LaurentPoly
    from .macdonald import kostka_fake_degree_identity, kostka_macdonald
    from .sn_rep import dim_irr

    n_max = p.get("n_max", 5)
    items = []
    for n in range(2, n_max + 1):
        def positivity(n=n):
            matrix = kostka_macdonald(n)
            bad = {
                (_plabel(lam), _plabel(mu)): str(poly)
                for (lam, mu), poly in matrix.entries.items()
                if not _natural_coeffs(poly)
            }
            return _verdict(not bad), bad, {}

        def specialization(n=n):
            matrix = kostka_macdonald(n)
            one = {"q": Fraction(1), "t": Fraction(1)}
            left = {}
            right = {}
            for (lam, mu), poly in matrix.entries.items():
                left[(_plabel(lam), _plabel(mu))] = poly.evaluate(one)
                right[(_plabel(lam), _plabel(mu))] = Fraction(dim_irr(lam))
            for mu in matrix.partitions:
                column = sum(
                    matrix.entry(lam, mu).evaluate(one) * dim_irr(lam)
                    for lam in matrix.partitions
                )
                left[("column-sum", _plabel(mu))] = column
                right[("column-sum", _plabel(mu))] = Fraction(factorial(n))
            ok = left == right
            return _verdict(ok), left, right

        def variants(n=n):
            printed = kostka_fake_degree_identity(n, variant="printed")
            lam = kostka_fake_degree_identity(n, variant="lam")
            exactly_one = all(printed.values()) != all(lam.values())
            left = {"printed": {_plabel(m): v for m, v in printed.items()}}
            right = {"lam": {_plabel(m): v for m, v in lam.items()}}
            return _verdict(exactly_one), left, right

        items.append((f"positivity-n{n}", positivity))
        items.append((f"specialization-n{n}", specialization))
        items.append((f"fake-degree-variants-n{n}", variants))
    if n_max >= 2:
        def two_matrix():
            matrix = kostka_macdonald(2)
            got = {
                (_plabel(lam), _plabel(mu)): poly
                for (lam, mu), poly in matrix.entries.items()
            }
            q = LaurentPoly.var_power(("q", "t"), "q", 1)
            t = LaurentPoly.var_power(("q", "t"), "t", 1)
            one = LaurentPoly.one(("q", "t"))
            want = {
                ("[2]", "[2]"): one,
                ("[1 1]", "[2]"): q,
                ("[2]", "[1 1]"): t,
                ("[1 1]", "[1 1]"): one,
            }
            return _verdict(got == want), got, want

        items.append(("two-by-two-matrix", two_matrix))
    return items


def _collapse_target(n: int) -> ExactRationalFunction:
    from .exact_poly import ExactRationalFunction, LaurentPoly

    one = LaurentPoly.one(ST)
    s1 = one - LaurentPoly.var_power(ST, "s", 1)
    t1 = one - LaurentPoly.var_power(ST, "t", 1)
    return ExactRationalFunction(one, [s1, t1] * (n - 1))


def _collapse_sum(n: int, order: str) -> ExactRationalFunction:
    from .exact_poly import ExactRationalFunction, LaurentPoly
    from .macdonald import omega, procesi_fiber
    from .partition_core import enumerate_partitions

    one = LaurentPoly.one(ST)
    s1 = one - LaurentPoly.var_power(ST, "s", 1)
    t1 = one - LaurentPoly.var_power(ST, "t", 1)
    cross = ExactRationalFunction(s1 * t1)
    total = ExactRationalFunction(LaurentPoly.zero(ST))
    for mu in enumerate_partitions(n):
        fiber = procesi_fiber(mu, argument_order=order)
        total = total + fiber * cross / omega(mu)
    return total


def _suite_omega_specialization(p):
    # bigraded_J's and _collapse_sum's modules, loaded before any check's clock
    from . import macdonald, partition_core  # noqa: F401
    from .exact_poly import rf_equal
    from .hilbert_series import bigraded_J

    n_max = p.get("n_max", 4)
    items = []
    for n in range(2, n_max + 1):
        def collapse(n=n):
            left = bigraded_J(n, 0)
            right = _collapse_target(n)
            return _verdict(rf_equal(left, right)), left, right

        items.append((f"trivial-collapse-n{n}", collapse))
    for n in range(2, min(n_max, 3) + 1):
        def order_protocol(n=n):
            target = _collapse_target(n)
            outcome = {
                order: rf_equal(_collapse_sum(n, order), target)
                for order in ("positional", "swapped")
            }
            want = {"positional": True, "swapped": False}
            return _verdict(outcome == want), outcome, want

        items.append((f"argument-order-n{n}", order_protocol))
    return items


def _suite_jbar_chain(p):
    # jbar_via_specialization's module, loaded before any check's clock
    from . import macdonald  # noqa: F401
    from .exact_poly import rf_equal
    from .hilbert_series import jbar_closed, jbar_via_specialization

    n_max = p.get("n_max", 5)
    d_max = p.get("d_max", 3)
    items = []
    for n in range(2, n_max + 1):
        for d in range(d_max + 1):
            def chain(n=n, d=d):
                left = jbar_closed(n, d)
                right = jbar_via_specialization(n, d)
                return _verdict(rf_equal(left, right)), left, right

            items.append((f"closed-vs-specialization-n{n}-d{d}", chain))
    return items


def _suite_eqpoi(p):
    from .exact_poly import LaurentPoly, rf_equal
    from .hilbert_series import jbar_closed, nbar_series

    n_max = p.get("n_max", 5)
    k_max = p.get("k_max", 3)
    items = []
    for n in range(2, n_max + 1):
        for k in range(k_max + 1):
            def match(n=n, k=k):
                shift = LaurentPoly.var_power(V, "v", k * (n * (n - 1) // 2))
                left = jbar_closed(n, k) * shift
                right = nbar_series(n, k, "E")
                return _verdict(rf_equal(left, right)), left, right

            items.append((f"shifted-quotient-vs-direct-n{n}-k{k}", match))
    return items


def _suite_appendix_b(p):
    from .exact_poly import LaurentPoly, q_factorial, rf_equal
    from .hilbert_series import jbar_closed, mbar_series

    n_max = p.get("n_max", 5)
    k_max = p.get("k_max", 3)
    items = []
    for n in range(2, n_max + 1):
        for k in range(1, k_max + 1):
            def match(n=n, k=k):
                shift = LaurentPoly.var_power(V, "v", k * (n * (n - 1) // 2))
                left = mbar_series(n, k, "E")
                right = jbar_closed(n, k - 1) * shift / q_factorial(n)
                return _verdict(rf_equal(left, right)), left, right

            items.append((f"factorial-quotient-n{n}-k{k}", match))
    return items


def _oracle_j_grid(p):
    if p.get("n") is not None:
        n = p["n"]
        d_max = p.get("d_max", 3 if n == 2 else 2)
        window = p.get("window", (10, 10) if n == 2 else (8, 8))
        total = p.get("total", None if n == 2 else 8)
        return [(n, d_max, window, total)]
    return [(2, 3, (10, 10), None), (3, 2, (8, 8), 8)]


def _compare_window(n: int, d: int, window, total):
    """Formula coefficients vs oracle dimensions, per window cell."""
    from .commutative_oracle import ideal_power_dims
    from .exact_poly import expand_window
    from .hilbert_series import bigraded_J

    table = ideal_power_dims(n, d, window, total)
    expansion = expand_window(
        bigraded_J(n, d), "ascending", ((0, window[0]), (0, window[1]))
    )
    left = {}
    right = {}
    for (a, b), value in sorted(table.table.items()):
        left[(a, b)] = int(expansion.coefficient((a, b)))
        right[(a, b)] = value
    return left, right


def _suite_oracle_j(p):
    # _compare_window's modules, loaded before any check's clock
    from . import commutative_oracle, exact_poly, hilbert_series, macdonald  # noqa: F401

    items = []
    for n, d_max, window, total in _oracle_j_grid(p):
        for d in range(d_max + 1):
            def compare(n=n, d=d, window=window, total=total):
                left, right = _compare_window(n, d, window, total)
                return _verdict(left == right), left, right

            items.append((f"window-match-n{n}-d{d}", compare))
    return items


def _oracle_jbar_grid(p):
    if p.get("n") is not None:
        n = p["n"]
        d_max = p.get("d_max", 2)
        window = p.get("window", (8, 8) if n == 2 else (7, 7))
        total = p.get("total", None if n == 2 else 10)
        return [(n, d_max, window, total)]
    return [(2, 2, (8, 8), None), (3, 2, (7, 7), 10)]


def _jbar_comparison(n: int, d: int, window, total):
    """Saturated diagonal sums vs the closed-form coefficients."""
    from .commutative_oracle import jbar_dims
    from .exact_poly import expand_window
    from .hilbert_series import jbar_closed

    result = jbar_dims(n, d, window, total)
    sums = result.saturated_sums()
    if not sums:
        return "unsaturated", {}, dict(result.sums)
    lo, hi = min(sums), max(sums)
    series = expand_window(jbar_closed(n, d), "descending", (lo, hi))
    left = {g: int(series.coefficient((g,))) for g in sorted(sums)}
    right = {g: sums[g] for g in sorted(sums)}
    return _verdict(left == right), left, right


def _suite_oracle_jbar(p):
    # _jbar_comparison's modules, loaded before any check's clock
    from . import commutative_oracle, exact_poly, hilbert_series  # noqa: F401

    items = []
    for n, d_max, window, total in _oracle_jbar_grid(p):
        for d in range(d_max + 1):
            def compare(n=n, d=d, window=window, total=total):
                return _jbar_comparison(n, d, window, total)

            items.append((f"saturated-diagonals-n{n}-d{d}", compare))
    return items


def _fake_degree_multiplicities(n: int) -> dict[int, dict]:
    from .partition_core import enumerate_partitions
    from .sn_rep import fake_degree

    expected: dict[int, dict] = {}
    for mu in enumerate_partitions(n):
        for exps, coeff in fake_degree(mu).terms.items():
            expected.setdefault(exps[0], {})[mu] = int(coeff)
    return expected


def _suite_coinvariants(p):
    # _fake_degree_multiplicities's modules, loaded before any check's clock
    from . import partition_core, sn_rep  # noqa: F401
    from .commutative_oracle import coinvariant_multiplicities

    n_max = p.get("n_max", 4)
    items = []
    for n in range(2, n_max + 1):
        def compare(n=n):
            left = coinvariant_multiplicities(n)
            right = _fake_degree_multiplicities(n)
            return _verdict(left == right), left, right

        items.append((f"graded-multiplicities-n{n}", compare))
    return items


def _suite_parity(p):
    from .commutative_oracle import parity_check

    n_max = p.get("n_max", 3)
    d_max = p.get("d_max", 3)
    window = p.get("window", (6, 6))
    total = p.get("total", 8)
    items = []
    for n in range(2, n_max + 1):
        for d in range(d_max + 1):
            def check(n=n, d=d):
                ok = parity_check(n, d, window, total)
                return _verdict(ok), ok, True

            items.append((f"alternation-n{n}-d{d}", check))
    return items


def _random_battery(algebra, trials: int, rng: Random):
    from .graded_free import extract_homogeneous_basis, random_unipotent_idempotent

    passes = 0
    failures = []
    for trial in range(trials):
        size = rng.randint(2, 4)
        shifts = tuple(sorted((rng.randint(0, 3) for _ in range(size)), reverse=True))
        rank = rng.randint(0, size)
        idem = random_unipotent_idempotent(algebra, shifts, rank, rng)
        result = extract_homogeneous_basis(idem)
        if len(result) == rank:
            passes += 1
        else:
            failures.append({"trial": trial, "shifts": list(shifts), "rank": rank})
    return passes, failures


def _suite_graded_free(p):
    from random import Random

    from .graded_free import diagonal_idempotent, extract_homogeneous_basis, polynomial_algebra

    seed = p.get("seed", DEFAULT_SEED)
    trials = p.get("trials", 50)
    items = []

    def identity_case():
        algebra = polynomial_algebra(2, 12)
        shifts = (2, 1, 0)
        idem = diagonal_idempotent(algebra, shifts, (True, True, True))
        result = extract_homogeneous_basis(idem)
        got = sorted(g.degree for g in result)
        return _verdict(got == [0, 1, 2]), got, [0, 1, 2]

    def projection_case():
        algebra = polynomial_algebra(1, 12)
        idem = diagonal_idempotent(algebra, (1, 0, 0), (True, False, False))
        result = extract_homogeneous_basis(idem)
        # Fraction rows, so that _ser renders each coefficient as a string
        rows = [{k: Fraction(c) for k, c in r.items()} for g in result for r in g.rows]
        want = [{0: Fraction(1)}, {}, {}]
        return _verdict(len(result) == 1 and rows == want), rows, want

    def battery_one():
        algebra = polynomial_algebra(1, 12)
        passes, failures = _random_battery(algebra, trials // 2, Random(seed))
        return _verdict(not failures), {"passes": passes}, {"trials": trials // 2}

    def battery_two():
        algebra = polynomial_algebra(2, 12)
        passes, failures = _random_battery(algebra, trials - trials // 2, Random(seed + 1))
        return _verdict(not failures), {"passes": passes}, {"trials": trials - trials // 2}

    items.append(("identity-basis", identity_case))
    items.append(("coordinate-projection", projection_case))
    items.append(("random-battery-one-variable", battery_one))
    items.append(("random-battery-two-variables", battery_two))
    return items


SUITES = {
    "fake-degrees": _suite_fake_degrees,
    "kostka": _suite_kostka,
    "omega-specialization": _suite_omega_specialization,
    "jbar-chain": _suite_jbar_chain,
    "eqpoi": _suite_eqpoi,
    "appendix-b": _suite_appendix_b,
    "oracle-J": _suite_oracle_j,
    "oracle-jbar": _suite_oracle_jbar,
    "coinvariants": _suite_coinvariants,
    "parity": _suite_parity,
    "graded-free": _suite_graded_free,
}


def run_suite(name: str, params=None) -> SuiteReport:
    """Execute one named identity suite and return its report.

    Unknown names raise ValueError. Checks that trip a resource bound are
    recorded as skipped; the report's exit code is then 2 unless some other
    check actually failed.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}, pick from {sorted(SUITES)}")
    params = dict(params or {})
    items = SUITES[name](params)
    return _run_checks(name, params, items)


# ---------------------------------------------------------------------------
# series rendering

SERIES_KINDS = ("JJ", "J", "Jbar", "Nbar", "Nunder", "Mbar", "Munder", "eDelta")


def _series_value(kind, n, d, k, grading, mu):
    from .hilbert_series import (
        bigraded_J,
        bigraded_JJ,
        e_standard_series,
        jbar_closed,
        mbar_series,
        munder_series,
        nbar_series,
        nunder_series,
    )

    if kind == "JJ":
        return bigraded_JJ(n, 0 if d is None else d), None
    if kind == "J":
        return bigraded_J(n, 0 if d is None else d), None
    if kind == "Jbar":
        return jbar_closed(n, 0 if d is None else d), None
    if kind == "Nbar":
        return nbar_series(n, 0 if k is None else k, grading), None
    if kind == "Nunder":
        return nunder_series(n, 0 if k is None else k, grading), None
    if kind == "Mbar":
        return mbar_series(n, 1 if k is None else k, grading), None
    if kind == "Munder":
        return munder_series(n, 1 if k is None else k, grading), None
    if kind == "eDelta":
        if mu is None:
            raise ValueError("eDelta needs --mu, a JSON partition like [2,1]")
        if sum(mu) != n:
            raise ValueError(
                f"--mu {list(mu)} is a partition of {sum(mu)}, not of n = {n}"
            )
        series = e_standard_series(mu)
        return series.body, series.prefix
    raise ValueError(f"unknown series kind {kind!r}")


def _series_csv(f: ExactRationalFunction, prefix) -> str:
    lines = ["part,coeff,exponents"]
    if prefix is not None:
        lines.append(f'prefix,"{prefix}",')
    for exps, coeff in sorted(f.num.terms.items()):
        lines.append(f'num,{coeff},"{";".join(map(str, exps))}"')
    for i, factor in enumerate(f.den):
        for exps, coeff in sorted(factor.terms.items()):
            lines.append(f'den{i},{coeff},"{";".join(map(str, exps))}"')
    return "\n".join(lines) + "\n"


def cmd_series(args) -> int:
    if args.mu:
        try:
            mu = tuple(json.loads(args.mu))
        except (json.JSONDecodeError, TypeError):
            raise ValueError(f"--mu must be a JSON partition like [2,1], got {args.mu!r}")
    else:
        mu = None
    body, prefix = _series_value(args.kind, args.n, args.d, args.k, args.grading, mu)
    if args.format == "json":
        from .exact_poly import rf_to_json

        doc = {
            "schema": SERIES_SCHEMA,
            "kind": args.kind,
            "n": args.n,
            "d": args.d,
            "k": args.k,
            "grading": args.grading,
            "series": rf_to_json(body),
        }
        if mu is not None:
            doc["mu"] = list(mu)
        if prefix is not None:
            doc["prefix"] = str(prefix)
        print(json.dumps(doc, sort_keys=True))
    elif args.format == "csv":
        sys.stdout.write(_series_csv(body, prefix))
    elif args.format == "latex":
        head = f"v^{{{prefix}}} \\cdot " if prefix is not None else ""
        print(head + body.latex())
    else:
        head = f"v^({prefix}) * " if prefix is not None else ""
        print(head + str(body))
    return 0


# ---------------------------------------------------------------------------
# tables

def _table_data(kind: str, n: int):
    if kind == "characters":
        from .sn_rep import character_table

        table = character_table(n)
        columns = [_plabel(r) for r in table.partitions]
        rows = [
            (_plabel(mu), [str(table.values[(mu, r)]) for r in table.partitions])
            for mu in table.partitions
        ]
        return "irr\\class", columns, rows
    if kind == "kostka-macdonald":
        from .macdonald import kostka_macdonald

        matrix = kostka_macdonald(n)
        columns = [_plabel(lam) for lam in matrix.partitions]
        rows = [
            (_plabel(mu), [str(matrix.entry(lam, mu)) for lam in matrix.partitions])
            for mu in matrix.partitions
        ]
        return "mu\\lam", columns, rows
    raise ValueError(f"unknown table kind {kind!r}")


def emit_table(kind: str, n: int, fmt: str) -> str:
    corner, columns, rows = _table_data(kind, n)
    if fmt == "json":
        return json.dumps(
            {
                "schema": TABLE_SCHEMA,
                "kind": kind,
                "n": n,
                "columns": columns,
                "rows": [{"label": label, "cells": cells} for label, cells in rows],
            },
            sort_keys=True,
        )
    if fmt == "csv":
        out = [corner + "," + ",".join(columns)]
        for label, cells in rows:
            out.append(label + "," + ",".join(cells))
        return "\n".join(out) + "\n"
    if fmt == "latex":
        out = [
            r"\begin{tabular}{l|" + "r" * len(columns) + "}",
            " & ".join([corner.replace("\\", r"$\backslash$")] + columns) + r" \\ \hline",
        ]
        for label, cells in rows:
            out.append(" & ".join([label] + [f"${c}$" for c in cells]) + r" \\")
        out.append(r"\end{tabular}")
        return "\n".join(out) + "\n"
    if fmt == "markdown":
        out = ["| " + " | ".join([corner] + columns) + " |"]
        out.append("|" + "---|" * (len(columns) + 1))
        for label, cells in rows:
            out.append("| " + " | ".join([label] + cells) + " |")
        return "\n".join(out) + "\n"
    raise ValueError(f"unknown table format {fmt!r}")


def cmd_table(args) -> int:
    sys.stdout.write(emit_table(args.kind, args.n, args.format))
    return 0


# ---------------------------------------------------------------------------
# oracle

def cmd_oracle(args) -> int:
    from .commutative_oracle import ideal_power_dims

    window = _parse_pair(args.max_bidegree)
    total = args.total
    table = ideal_power_dims(args.n, args.d, window, total)
    cells = sorted(table.table.items())
    if args.format == "json":
        doc = {
            "schema": ORACLE_SCHEMA,
            "n": args.n,
            "d": args.d,
            "window": list(window),
            "total": total,
            "cells": [[a, b, dim] for (a, b), dim in cells],
        }
    else:
        print("a,b,dim")
        for (a, b), dim in cells:
            print(f"{a},{b},{dim}")
    if not args.compare:
        if args.format == "json":
            print(json.dumps(doc, sort_keys=True))
        return 0

    left, right = _compare_window(args.n, args.d, window, total)
    mismatches = {k: (left[k], right[k]) for k in left if left[k] != right[k]}
    exit_code = 1 if mismatches else 0

    jbar_block = None
    try:
        verdict, jleft, jright = _jbar_comparison(args.n, args.d, window, total)
        jbar_block = {"verdict": verdict, "formula": _ser(jleft), "oracle": _ser(jright)}
        if verdict == "fail":
            exit_code = 1
        elif verdict == "unsaturated" and exit_code == 0:
            exit_code = 2
    except ResourceError as exc:
        jbar_block = {"verdict": "skipped", "reason": str(exc)}

    if args.format == "json":
        doc["compare"] = {
            "mismatches": {_key(k): list(v) for k, v in sorted(mismatches.items())},
            "jbar": jbar_block,
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        if mismatches:
            print("mismatch cells (formula, oracle):")
            for k, (fv, ov) in sorted(mismatches.items()):
                print(f"  {k}: {fv} != {ov}")
        else:
            print("all window cells match the formula expansion")
        print(f"jbar diagonals: {jbar_block['verdict']}")
    return exit_code


# ---------------------------------------------------------------------------
# basis extraction from JSON

def _field(doc, key):
    """doc[key] of a JSON object; a missing key or a non-object is bad input."""
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object holding {key!r}, got {type(doc).__name__}")
    if key not in doc:
        raise ValueError(f"missing key {key!r}")
    return doc[key]


def _load_idempotent(doc, cutoff=None) -> GradedIdempotent:
    """The idempotent a JSON document describes; cutoff, when given,
    overrides the document's."""
    from .graded_free import GradedIdempotent, _exact, polynomial_algebra, truncated_polynomial_algebra

    algebra_doc = _field(doc, "algebra")
    kind = _field(algebra_doc, "kind")
    if cutoff is None:
        cutoff = int(_field(algebra_doc, "cutoff"))
    variables = int(_field(algebra_doc, "variables"))
    if kind == "polynomial":
        algebra = polynomial_algebra(variables, cutoff)
    elif kind == "truncated":
        algebra = truncated_polynomial_algebra(variables, cutoff, int(_field(algebra_doc, "top")))
    else:
        raise ValueError(f"unknown algebra kind {kind!r}")
    shifts = tuple(int(s) for s in _field(doc, "shifts"))
    size = len(shifts)
    entries = [[dict() for _ in range(size)] for _ in range(size)]
    for item in doc.get("matrix", []):
        i, j = int(_field(item, "row")), int(_field(item, "col"))
        if not (0 <= i < size and 0 <= j < size):
            raise ValueError(f"matrix position ({i},{j}) outside the {size} shifts")
        degree = shifts[j] - shifts[i]
        if not 0 <= degree <= cutoff:
            raise ValueError(f"entry ({i},{j}) cannot be nonzero at degree {degree}")
        element = entries[i][j]
        for term in _field(item, "terms"):
            exps = tuple(int(e) for e in _field(term, "exponents"))
            if sum(exps) != degree or exps not in algebra.index[degree]:
                raise ValueError(
                    f"term {list(exps)} at ({i},{j}) is not a degree-{degree} monomial"
                )
            coeff = _exact(_field(term, "coeff"))
            if coeff:
                element[algebra.index[degree][exps]] = coeff
    entries = tuple(tuple(row) for row in entries)
    return GradedIdempotent(algebra, shifts, entries)


def cmd_basis(args) -> int:
    from .graded_free import extract_homogeneous_basis

    with open(args.input) as handle:
        doc = json.load(handle)
    idem = _load_idempotent(doc, args.cutoff)
    try:
        result = extract_homogeneous_basis(idem)
    except CertificationError as exc:
        print(json.dumps({"schema": BASIS_SCHEMA, "error": str(exc)}))
        return 1
    generators = []
    for g in result.generators:
        rows = []
        for i, row in enumerate(g.rows):
            degree = g.degree - idem.shifts[i]
            terms = [
                {"exponents": list(idem.algebra.basis[degree][idx]), "coeff": str(c)}
                for idx, c in sorted(row.items())
            ]
            rows.append(terms)
        generators.append({"degree": g.degree, "rows": rows})
    print(
        json.dumps(
            {
                "schema": BASIS_SCHEMA,
                "horizon": result.horizon,
                "image_dims": {str(k): v for k, v in sorted(result.image_dims.items())},
                "generators": generators,
            },
            sort_keys=True,
        )
    )
    return 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    params = {}
    if args.n is not None:
        params["n"] = args.n
    if args.n_max is not None:
        params["n_max"] = args.n_max
    if args.d is not None:
        params["d_max"] = args.d
    if args.k is not None:
        params["k_max"] = args.k
    if args.window is not None:
        params["window"] = _parse_pair(args.window)
    if args.total is not None:
        params["total"] = args.total
    if args.seed is not None:
        params["seed"] = args.seed
    report = run_suite(args.suite, params)
    if args.format == "text":
        for check in report.checks:
            print(f"[{check.verdict}] {check.name} ({check.wall_ms:.1f} ms)")
        print(f"suite {report.suite}: {report.status}")
    else:
        print(json.dumps(report.to_json(timings=not args.no_timings), sort_keys=True))
    return report.exit_code


# ---------------------------------------------------------------------------
# argument parsing

def _parse_pair(text) -> tuple[int, int]:
    if isinstance(text, tuple):
        return text
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected A,B, got {text!r}")
    return int(parts[0]), int(parts[1])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_series.add_argument("--grading", choices=("h", "E"), default="h")
    p_series.add_argument(
        "--format", choices=("text", "json", "csv", "latex"), default="text"
    )
    p_series.set_defaults(func=cmd_series)

    p_table = sub.add_parser("table", help="character or Kostka-Macdonald tables")
    p_table.add_argument("--kind", required=True, choices=("characters", "kostka-macdonald"))
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument(
        "--format", choices=("json", "csv", "latex", "markdown"), default="csv"
    )
    p_table.set_defaults(func=cmd_table)

    p_oracle = sub.add_parser("oracle", help="brute-force bigraded dimension tables")
    p_oracle.add_argument("--n", type=int, required=True)
    p_oracle.add_argument("--d", type=int, required=True)
    p_oracle.add_argument("--max-bidegree", required=True, help="window bound A,B")
    p_oracle.add_argument("--total", type=int, help="total-degree cap")
    p_oracle.add_argument("--compare", action="store_true")
    p_oracle.add_argument("--format", choices=("csv", "json"), default="csv")
    p_oracle.set_defaults(func=cmd_oracle)

    p_basis = sub.add_parser("basis", help="extract a homogeneous free basis")
    p_basis.add_argument("--input", required=True, help="idempotent JSON file")
    p_basis.add_argument("--cutoff", type=int, help="override the algebra cutoff")
    p_basis.set_defaults(func=cmd_basis)

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
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
