"""The benchmark's pinned reference, checked in process.

bench/reference.json records, for each benchmark invocation, the name,
verdict and sha256 of the compared contents of every check. Each invocation
runs here at the recorded seed and must reproduce that list exactly, so a
change that alters what any pinned check computes fails Tier-1 as well as
the benchmark.
"""

import hashlib
import json
from pathlib import Path

import pytest

from cherpoi.verifier_cli import main

REFERENCE = json.loads((Path(__file__).resolve().parent.parent / "bench" / "reference.json").read_text())


def _digest(check: dict) -> str:
    """sha256 of a check's left and right, as the JSON report has them."""
    canonical = json.dumps([check.get("left"), check.get("right")], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def test_the_reference_pins_the_benchmark_invocations():
    assert REFERENCE["seed"] == 1729
    assert len(REFERENCE["processes"]) == 13


@pytest.mark.parametrize("invocation", sorted(REFERENCE["processes"]))
def test_report_matches_the_pinned_reference(capsys, invocation):
    argv = invocation.replace("{seed}", str(REFERENCE["seed"])).split()
    assert main([*argv, "--no-timings"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    got = [[c["name"], c["verdict"], _digest(c)] for c in checks]
    assert got == REFERENCE["processes"][invocation]


# sha256 of the whole `verify --suite oracle-jbar --no-timings` report at the
# suite's default grid, n = 2 at (8, 8) and n = 3 at (7, 7) with total 10;
# the benchmark runs only n = 3 at (6, 6) with total 8
ORACLE_JBAR_DEFAULT_SHA256 = "046126314b057eb73b25c2f04db0b085f82696d67ea99a4275ae2ba1aac39121"


def test_oracle_jbar_default_grid_report_is_pinned(capsys):
    assert main(["verify", "--suite", "oracle-jbar", "--no-timings"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_JBAR_DEFAULT_SHA256
