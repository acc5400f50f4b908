"""The benchmark's pinned reference, checked in process.

bench/reference.json records, for each benchmark invocation, the name,
verdict and sha256 of the compared contents of every check. Each invocation
runs here at the recorded seed and must reproduce that list exactly, so a
change that alters what any pinned check computes fails Tier-1 as well as
the benchmark. The whole --no-timings report of every suite at its default
grid, and a few table and oracle outputs, are pinned by sha256 too, so that a
change in how a report renders fails here as well.
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


# sha256 of the whole `verify --suite <name> --no-timings` report at each
# other suite's default grid, and of the table and oracle outputs that render
# partition labels and window cells: these see the rendering itself, such as
# _ser's labels and its "1" strings, which the per-check digests above see
# only through left and right
DEFAULT_REPORT_SHA256 = {
    "fake-degrees": "fba044519b600e247cd96cc46ee7ca381ed05b254961b5be1e416a864f25b67c",
    "kostka": "b7a3855a0bcd828b9bd2e7e2f3a2711330e804a089a625398735653f8e4a3cf6",
    "omega-specialization": "eef72c333cd05a384a2a168371fc0371e24bf2b463aaada5c317801a51dd3074",
    "jbar-chain": "b78b5fcb20576ff307e80abc816a17f52cabe11f01ba381e3370b35f55012e6a",
    "eqpoi": "a8b9b3c576f0b015dad124d3e514aa1e4a7eda0f008af90b11e96650da8e2925",
    "appendix-b": "ecccd5b025344872aaf9bd3eb898f9ab16fef6498cb083afc28a677ff0ce714d",
    "oracle-J": "06c4aa39faf9552fef86f8d580648029382b39ecfc1ef70e72c998c66f5b2b75",
    "coinvariants": "06f84eb13f6aea3af34e041884465effcf12b8f8d0dadf735c9f9517c78fdd26",
    "parity": "edc10e6e1dfd649f2de4fcc88268c60a3bcf58c0d1bc552f6740a6a22f6ade2d",
    "graded-free": "9b1d6c6b29d82abfc4c2d5c2a0e1d52a67b8f3676650aa307a9d93d43bffa415",
}
OUTPUT_SHA256 = {
    "table --kind kostka-macdonald --n 4": "b0e039bb6763c9ac08d9cb56a7df4805282bb48ae7a5348417b6ab5548a5ebee",
    "table --kind kostka-macdonald --n 4 --format json": "49700919ff1ea63208ef531db85ef3c0b6915a9f698717fd36751a9f946261aa",
    "table --kind characters --n 6": "bf9ab65f225063e6a0b020ba4beca126e1e8dfbcec1b6de5a0c0439be7ec7a28",
    "oracle --n 2 --d 1 --max-bidegree 4,4 --compare --format json": "c8177252634e185a8b6dd488a097ba1fba4da9f1a86ef1d17800253d97b37e5a",
}


def test_every_suite_names_its_default_report_pin():
    from cherpoi.verifier_cli import SUITES

    assert {*DEFAULT_REPORT_SHA256, "oracle-jbar"} == set(SUITES)


@pytest.mark.parametrize("suite", sorted(DEFAULT_REPORT_SHA256))
def test_default_grid_report_is_pinned(capsys, suite):
    assert main(["verify", "--suite", suite, "--no-timings"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DEFAULT_REPORT_SHA256[suite]


@pytest.mark.parametrize("invocation", sorted(OUTPUT_SHA256))
def test_table_and_oracle_output_is_pinned(capsys, invocation):
    assert main(invocation.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_SHA256[invocation]
