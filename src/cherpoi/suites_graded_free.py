"""Graded-free suite: the certified free-basis extractor on fixed and random idempotents."""

from __future__ import annotations

from fractions import Fraction

from .report import _verdict
from .verifier_cli import DEFAULT_SEED


def _random_battery(algebra, trials: int, rng):
    from .graded_free import extract_homogeneous_basis, random_unipotent_idempotent

    passes = 0
    failures = []
    for trial in range(trials):
        size = rng.randint(2, 4)
        shifts = tuple(sorted((rng.randint(0, 3) for _ in range(size)), reverse=True))
        rank = rng.randint(0, size)
        idem = random_unipotent_idempotent(algebra, shifts, rank, rng)
        result = extract_homogeneous_basis(idem)
        if len(result.generators) == rank:
            passes += 1
        else:
            failures.append({"trial": trial, "shifts": list(shifts), "rank": rank})
    return passes, failures


def _suite_graded_free(p):
    from random import Random

    from .graded_free import MonomialAlgebra, diagonal_idempotent, extract_homogeneous_basis

    seed = p.get("seed", DEFAULT_SEED)
    trials = p.get("trials", 50)
    items = []

    def identity_case():
        algebra = MonomialAlgebra(2, 12)
        shifts = (2, 1, 0)
        idem = diagonal_idempotent(algebra, shifts, (True, True, True))
        result = extract_homogeneous_basis(idem)
        got = sorted(g.degree for g in result.generators)
        return _verdict(got == [0, 1, 2]), got, [0, 1, 2]

    def projection_case():
        algebra = MonomialAlgebra(1, 12)
        idem = diagonal_idempotent(algebra, (1, 0, 0), (True, False, False))
        result = extract_homogeneous_basis(idem)
        # Fraction rows, so that _ser renders each coefficient as a string
        rows = [{k: Fraction(c) for k, c in r.items()} for g in result.generators for r in g.rows]
        want = [{0: Fraction(1)}, {}, {}]
        return _verdict(len(result.generators) == 1 and rows == want), rows, want

    def battery_one():
        algebra = MonomialAlgebra(1, 12)
        passes, failures = _random_battery(algebra, trials // 2, Random(seed))
        return _verdict(not failures), {"passes": passes}, {"trials": trials // 2}

    def battery_two():
        algebra = MonomialAlgebra(2, 12)
        passes, failures = _random_battery(algebra, trials - trials // 2, Random(seed + 1))
        return _verdict(not failures), {"passes": passes}, {"trials": trials - trials // 2}

    items.append(("identity-basis", identity_case))
    items.append(("coordinate-projection", projection_case))
    items.append(("random-battery-one-variable", battery_one))
    items.append(("random-battery-two-variables", battery_two))
    return items
