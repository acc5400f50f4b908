"""Closed-form suites: fake-degrees, eqpoi, appendix-b.

Univariate identities among the fake degrees, the quotient series of J^d and
the factorial quotients. The builders import what their checks call, so
fake-degrees never loads hilbert_series.
"""

from __future__ import annotations

from .errors import ResourceError
from .report import _verdict

V = ("v",)
# the fake-degrees grid bound: in process (2 cores, Python 3.11) --n-max 16
# took 0.4 s of checks and 0.3 s to render a 1.8 MB report, and both grow
# about 2.5x per +2; the checks past it are skipped
MAX_FAKE_DEGREES_N = 16


def _suite_fake_degrees(p):
    from .exact_poly import LaurentPoly, q_factorial_poly
    from .partition_core import enumerate_partitions, num_syt, transpose
    from .sn_rep import fake_degree, fake_degree_maj

    def hook_degrees(n):
        if n > MAX_FAKE_DEGREES_N:
            raise ResourceError(f"fake-degrees grid bound is n <= {MAX_FAKE_DEGREES_N}, got {n}")
        return {mu: fake_degree(mu) for mu in enumerate_partitions(n)}

    n_max = p.get("n_max", 8)
    items = []
    for n in range(1, n_max + 1):
        def maj_check(n=n):
            left = hook_degrees(n)
            right = {mu: fake_degree_maj(mu) for mu in enumerate_partitions(n)}
            return _verdict(left == right), left, right

        def inversion_check(n=n):
            left = hook_degrees(n)
            big_n = n * (n - 1) // 2
            vn = LaurentPoly.var_power(V, "v", big_n)
            right = {
                mu: vn * fake_degree(transpose(mu)).invert_variables()
                for mu in enumerate_partitions(n)
            }
            return _verdict(left == right), left, right

        def factorial_check(n=n):
            total = LaurentPoly.zero(V)
            for mu, degree in hook_degrees(n).items():
                total = total + degree.invert_variables() * num_syt(mu)
            target = q_factorial_poly(n).invert_variables()
            return _verdict(total == target), total, target

        items.append((f"maj-matches-hook-n{n}", maj_check))
        items.append((f"transpose-inversion-n{n}", inversion_check))
        items.append((f"factorial-sum-n{n}", factorial_check))
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
