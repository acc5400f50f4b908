"""Oracle suites: oracle-J, oracle-jbar, coinvariants, parity.

The brute-force commutative oracle against the closed formulas. The three
bigraded suites are built by one builder, _bigraded_items, from a grid
{n: (d_max, window, total)}: it checks the whole grid as input before any
check runs, so bad input raises out of run_suite instead of failing a check,
and then makes one check per (n, d); a resource cap stays per check, which
reports skipped. _window_check and _jbar_check are shared with the oracle
subcommand's --compare.
"""

from __future__ import annotations

from functools import partial

from .report import _verdict

# the default grids of oracle-J and oracle-jbar, {n: (d_max, window, total)};
# a given --n takes the n = 2 row when it is 2 and the n = 3 row otherwise,
# under its own --d, --window and --total
_GRIDS = {
    "oracle-J": {2: (3, (10, 10), None), 3: (2, (8, 8), 8)},
    "oracle-jbar": {2: (2, (8, 8), None), 3: (2, (7, 7), 10)},
}


def _grid(suite: str, p) -> dict:
    """The suite's grid; --d, --window and --total are read only beside --n,
    so that run_suite refuses them alone."""
    rows = _GRIDS[suite]
    n = p.get("n")
    if n is None:
        return rows
    d_max, window, total = rows[2 if n == 2 else 3]
    return {n: (p.get("d_max", d_max), p.get("window", window), p.get("total", total))}


def _bigraded_items(grid: dict, name: str, check) -> list:
    """One (name-n{n}-d{d}, check(n, d, window, total)) item for each n of
    grid {n: (d_max, window, total)} and d = 0..d_max, once every point has
    passed the oracle's input check."""
    from .commutative_oracle import _check_bigraded_input

    points = [
        (n, d, window, total)
        for n, (d_max, window, total) in grid.items()
        for d in range(d_max + 1)
    ]
    for point in points:
        _check_bigraded_input(*point)
    return [
        (f"{name}-n{n}-d{d}", partial(check, n, d, window, total))
        for n, d, window, total in points
    ]


def _window_check(n: int, d: int, window, total):
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
    return _verdict(left == right), left, right


def _suite_oracle_j(p):
    # _window_check's modules, loaded before any check's clock
    from . import exact_poly, hilbert_series, macdonald  # noqa: F401

    return _bigraded_items(_grid("oracle-J", p), "window-match", _window_check)


def _jbar_check(n: int, d: int, window, total):
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
    # _jbar_check's modules, loaded before any check's clock
    from . import exact_poly, hilbert_series  # noqa: F401

    return _bigraded_items(_grid("oracle-jbar", p), "saturated-diagonals", _jbar_check)


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


def _alternation_check(n: int, d: int, window, total):
    """parity_check at one grid point: J^d and A^d agree in correct parity."""
    from .commutative_oracle import parity_check

    ok = parity_check(n, d, window, total)
    return _verdict(ok), ok, True


def _suite_parity(p):
    n_max = p.get("n_max", 3)
    row = (p.get("d_max", 3), p.get("window", (6, 6)), p.get("total", 8))
    return _bigraded_items({n: row for n in range(2, n_max + 1)}, "alternation", _alternation_check)
