"""Oracle suites: oracle-J, oracle-jbar, coinvariants, parity.

The brute-force commutative oracle against the closed formulas.
_compare_window and _jbar_comparison are shared with the oracle subcommand's
--compare. The bigraded suites' builders check their whole grid as input
before any check runs, so bad input raises out of run_suite instead of
failing a check; a resource cap stays per check, which reports skipped.
"""

from __future__ import annotations

from .report import _verdict


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
        left[(a, b)] = expansion.coefficient((a, b))
        right[(a, b)] = value
    return left, right


def _suite_oracle_j(p):
    # _compare_window's modules, loaded before any check's clock
    from . import commutative_oracle, exact_poly, hilbert_series, macdonald  # noqa: F401

    items = []
    for n, d_max, window, total in _oracle_j_grid(p):
        for d in range(d_max + 1):
            commutative_oracle._check_bigraded_input(n, d, window, total)

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
    left = {g: series.coefficient((g,)) for g in sorted(sums)}
    right = {g: sums[g] for g in sorted(sums)}
    return _verdict(left == right), left, right


def _suite_oracle_jbar(p):
    # _jbar_comparison's modules, loaded before any check's clock
    from . import commutative_oracle, exact_poly, hilbert_series  # noqa: F401

    items = []
    for n, d_max, window, total in _oracle_jbar_grid(p):
        for d in range(d_max + 1):
            commutative_oracle._check_bigraded_input(n, d, window, total)

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
            expected.setdefault(exps[0], {})[mu] = coeff
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
    from .commutative_oracle import _check_bigraded_input, parity_check

    n_max = p.get("n_max", 3)
    d_max = p.get("d_max", 3)
    window = p.get("window", (6, 6))
    total = p.get("total", 8)
    items = []
    for n in range(2, n_max + 1):
        for d in range(d_max + 1):
            _check_bigraded_input(n, d, window, total)

            def check(n=n, d=d):
                ok = parity_check(n, d, window, total)
                return _verdict(ok), ok, True

            items.append((f"alternation-n{n}-d{d}", check))
    return items
