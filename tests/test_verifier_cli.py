"""Suite runner and command-line surface: small grids, formats, exit codes."""

import json
import os
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from cherpoi.errors import ResourceError
from cherpoi.exact_poly import rf_equal, rf_from_json
from cherpoi.hilbert_series import _graded_numerator, _specialized_sum, jbar_closed
from cherpoi.macdonald import (
    kostka_fake_degree_identity,
    kostka_macdonald,
    omega_factors,
    procesi_fiber,
)
from cherpoi.partition_core import enumerate_partitions
from cherpoi.sn_rep import fake_degree
from cherpoi.cli_table import emit_table
from cherpoi.report import _label, _ser
from cherpoi.suites_macdonald import _swapped_fiber
from cherpoi.verifier_cli import MAX_GRID, SUITES, _Params, _parse_pair, main, run_suite

SMALL_GRIDS = {
    "fake-degrees": {"n_max": 4},
    "kostka": {"n_max": 3},
    "omega-specialization": {"n_max": 3},
    "jbar-chain": {"n_max": 3, "d_max": 2},
    "eqpoi": {"n_max": 3, "k_max": 2},
    "appendix-b": {"n_max": 3, "k_max": 2},
    "oracle-J": {"n": 2, "d_max": 1, "window": (5, 5)},
    "oracle-jbar": {"n": 2, "d_max": 1, "window": (6, 6)},
    "coinvariants": {"n_max": 3},
    "parity": {"n_max": 2, "d_max": 2, "window": (4, 4), "total": 6},
    "graded-free": {},
}


@pytest.mark.parametrize("suite", sorted(SMALL_GRIDS))
def test_suite_passes_on_a_small_grid(suite):
    report = run_suite(suite, SMALL_GRIDS[suite])
    assert report.status == "pass"
    assert report.exit_code == 0
    assert report.checks
    assert all(c.verdict == "pass" for c in report.checks)


# The cherpoi modules a fresh process has loaded: after a bare import of the
# CLI, after each suite at its small grid, and after each other subcommand.
CLI = {"cherpoi", "cherpoi.errors", "cherpoi.report", "cherpoi.verifier_cli"}
SERIES = CLI | {"cherpoi.exact_poly", "cherpoi.partition_core", "cherpoi.sn_rep"}
HILBERT = SERIES | {"cherpoi.hilbert_series"}
MACDONALD = SERIES | {"cherpoi.macdonald"}
ORACLE = SERIES | {"cherpoi._linalg", "cherpoi.commutative_oracle"}
FREE = CLI | {"cherpoi._linalg", "cherpoi.graded_free"}
# the suite builders' family modules
CLOSED_FORMS_SUITES = {"cherpoi.suites_closed_forms"}
MACDONALD_SUITES = {"cherpoi.suites_macdonald"}
ORACLE_SUITES = {"cherpoi.suites_oracle"}
FREE_SUITE = {"cherpoi.suites_graded_free"}
SUITE_MODULES = {
    "fake-degrees": SERIES | CLOSED_FORMS_SUITES,
    "kostka": MACDONALD | MACDONALD_SUITES,
    "omega-specialization": HILBERT | MACDONALD | MACDONALD_SUITES,
    "jbar-chain": HILBERT | MACDONALD | MACDONALD_SUITES,
    "eqpoi": HILBERT | CLOSED_FORMS_SUITES,
    "appendix-b": HILBERT | CLOSED_FORMS_SUITES,
    "oracle-J": HILBERT | MACDONALD | ORACLE | ORACLE_SUITES,
    "oracle-jbar": HILBERT | ORACLE | ORACLE_SUITES,
    "coinvariants": ORACLE | ORACLE_SUITES,
    "parity": ORACLE | ORACLE_SUITES,
    "graded-free": FREE | FREE_SUITE,
}
# Standard-library modules that only introspection needs (dataclasses pulls
# in all four); no subcommand may load them.
INTROSPECTION = ("dataclasses", "inspect", "ast", "dis")

# Run in a fresh interpreter: this process has imported every module.
_PROBE = """
import json, sys
mode, arg = sys.argv[1], json.loads(sys.argv[2])
loaded = lambda: sorted(m for m in sys.modules if m.startswith("cherpoi"))
introspection = lambda: sorted(m for m in %r if m in sys.modules)
import cherpoi.verifier_cli as cli
out = {"imported": loaded(), "introspection_imported": introspection()}
if mode == "suite":
    name, params = arg
    if "window" in params:
        params["window"] = tuple(params["window"])
    cli.SUITES[name](params)
    out["built"] = loaded()
    out["code"] = cli.run_suite(name, params).exit_code
elif mode == "main":
    sys.stdout = sys.stderr
    out["code"] = cli.main(arg)
    sys.stdout = sys.__stdout__
out["ran"] = loaded()
out["introspection_ran"] = introspection()
print(json.dumps(out))
""" % (INTROSPECTION,)


def _probe(mode, arg, cwd) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, mode, json.dumps(arg)],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_bare_cli_import_loads_no_compute_module(tmp_path):
    out = _probe("import", None, tmp_path)
    assert set(out["ran"]) == CLI
    assert out["introspection_ran"] == []


@pytest.mark.parametrize("suite", sorted(SMALL_GRIDS))
def test_a_suite_loads_only_its_modules_before_the_clock(suite, tmp_path):
    out = _probe("suite", [suite, SMALL_GRIDS[suite]], tmp_path)
    assert out["code"] == 0
    assert set(out["imported"]) == CLI
    # every module is in place once the builder returns, before any check runs
    assert set(out["built"]) == set(out["ran"]) == SUITE_MODULES[suite]
    assert out["introspection_imported"] == out["introspection_ran"] == []
    if suite == "graded-free":
        assert "cherpoi.exact_poly" not in out["ran"]
        assert "cherpoi.commutative_oracle" not in out["ran"]
    if suite in ("kostka", "fake-degrees"):
        assert "cherpoi.commutative_oracle" not in out["ran"]
        assert "cherpoi.graded_free" not in out["ran"]


@pytest.mark.parametrize(
    "argv, modules",
    [
        pytest.param(["series", "--kind", "Jbar", "--n", "2", "--d", "1", "--format", "json"],
                     HILBERT | {"cherpoi.cli_series"}, id="series-Jbar-json"),
        pytest.param(["series", "--kind", "J", "--n", "2", "--d", "1"],
                     HILBERT | MACDONALD | {"cherpoi.cli_series"}, id="series-J"),
        pytest.param(["table", "--kind", "characters", "--n", "4"],
                     SERIES | {"cherpoi.cli_table"}, id="table-characters"),
        pytest.param(["table", "--kind", "kostka-macdonald", "--n", "3"],
                     MACDONALD | {"cherpoi.cli_table"}, id="table-kostka-macdonald"),
        pytest.param(["oracle", "--n", "2", "--d", "1", "--max-bidegree", "4,4"],
                     ORACLE | ORACLE_SUITES | {"cherpoi.cli_oracle"}, id="oracle"),
        pytest.param(["oracle", "--n", "2", "--d", "1", "--max-bidegree", "4,4", "--compare"],
                     HILBERT | MACDONALD | ORACLE | ORACLE_SUITES | {"cherpoi.cli_oracle"},
                     id="oracle-compare"),
        pytest.param(["basis", "--input", "idem.json"], FREE | {"cherpoi.cli_basis"}, id="basis"),
    ],
)
def test_a_subcommand_loads_only_its_modules(argv, modules, tmp_path):
    (tmp_path / "idem.json").write_text(json.dumps(_hand_idempotent()))
    out = _probe("main", argv, tmp_path)
    assert out["code"] == 0
    assert set(out["ran"]) == modules
    assert out["introspection_ran"] == []


def test_every_registered_suite_has_a_small_grid():
    # and a list of the options it reads, for the unread-option tests
    assert sorted(SUITES) == sorted(SMALL_GRIDS) == sorted(VERIFY_READS)


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nonsense")


def test_reports_are_deterministic_without_timings():
    a = run_suite("fake-degrees", {"n_max": 4})
    b = run_suite("fake-degrees", {"n_max": 4})
    assert a.to_json(timings=False) == b.to_json(timings=False)
    assert "wall_ms" not in a.to_json(timings=False)["checks"][0]
    assert "wall_ms" in a.to_json()["checks"][0]


def test_random_battery_is_seed_deterministic():
    a = run_suite("graded-free", {"seed": 42})
    b = run_suite("graded-free", {"seed": 42})
    assert a.to_json(timings=False) == b.to_json(timings=False)


def test_graded_free_always_runs_its_fifty_trials():
    # no option sets the trial count, so no parameter does either
    report = run_suite("graded-free")
    assert [c.right for c in report.checks[2:]] == [{"trials": 25}, {"trials": 25}]
    with pytest.raises(ValueError, match="suite graded-free does not read trials$"):
        run_suite("graded-free", {"trials": 6})


@pytest.mark.parametrize(
    "suite, params, others",
    [
        (
            "oracle-J",
            {"n": 2, "d_max": 2, "window": (6, 6)},
            [("oracle-jbar", {"n": 2}), ("parity", {"n_max": 2})],
        ),
        ("kostka", {"n_max": 4}, [("jbar-chain", {"n_max": 4})]),
        ("fake-degrees", {"n_max": 6}, [("eqpoi", {}), ("appendix-b", {})]),
        ("eqpoi", {}, [("appendix-b", {}), ("jbar-chain", {})]),
    ],
)
def test_reports_do_not_depend_on_process_history(suite, params, others):
    # suites share the process-wide oracle engines, Kostka matrices,
    # memoized fake degrees, graded numerators, fixed-point ingredients and
    # specialized fixed-point sums;
    # procesi_fiber, the argument-order check's swapped fiber and
    # kostka_fake_degree_identity read the Kostka ones
    before = run_suite(suite, params).to_json(timings=False)
    shared = {mu: dict(fake_degree(mu).terms) for n in range(1, 7) for mu in enumerate_partitions(n)}
    numerators = {(n, k): dict(_graded_numerator(n, k).terms) for n in range(2, 6) for k in range(-3, 4)}
    kostka = {n: {key: dict(p.terms) for key, p in kostka_macdonald(n).entries.items()} for n in range(1, 5)}

    def fixed_point_ingredients():
        out = {}
        for n in kostka:
            for mu in enumerate_partitions(n):
                out[mu] = [f.terms for f in omega_factors(mu)]
                out[mu, "fiber"] = procesi_fiber(mu).terms
            if n >= 2:
                spec = _specialized_sum(n)
                out[n] = [f.terms for f in spec.den], [(w, part.terms) for w, part in spec.parts]
        return out

    ingredients = fixed_point_ingredients()
    for other, other_params in others:
        assert run_suite(other, other_params).status == "pass"
    for n in kostka:
        kostka_fake_degree_identity(n)
        for mu in enumerate_partitions(n):
            _swapped_fiber(mu)
    assert run_suite(suite, params).to_json(timings=False) == before
    # no caller mutated a shared f_mu, graded numerator, K_{lam mu}, P_mu,
    # Omega(mu) factor or specialized fixed-point sum
    assert {mu: fake_degree(mu).terms for mu in shared} == shared
    assert {key: _graded_numerator(*key).terms for key in numerators} == numerators
    assert {n: {key: p.terms for key, p in kostka_macdonald(n).entries.items()} for n in kostka} == kostka
    assert fixed_point_ingredients() == ingredients


def test_resource_bounds_show_up_as_partial():
    # past the oracle's window cap of 24, every check is skipped
    report = run_suite("oracle-jbar", {"n": 3, "window": (25, 25)})
    assert all(c.verdict == "skipped" for c in report.checks)
    assert report.status == "partial"
    assert report.exit_code == 2


def test_check_names_follow_the_grid():
    report = run_suite("oracle-J", {"n": 2, "d_max": 1, "window": (4, 4)})
    assert [c.name for c in report.checks] == [
        "window-match-n2-d0",
        "window-match-n2-d1",
    ]


@pytest.mark.parametrize(
    "suite,params,row",
    [
        ("oracle-J", {"n": 3, "d_max": 1}, (3, (8, 8), 8)),
        ("oracle-J", {"n": 2, "d_max": 1}, (2, (10, 10), None)),
        ("oracle-jbar", {"n": 3, "d_max": 1}, (3, (7, 7), 10)),
        ("oracle-jbar", {"n": 2, "d_max": 1, "total": 6}, (2, (8, 8), 6)),
    ],
)
def test_a_given_n_takes_its_own_default_row(suite, params, row):
    # each n takes its own row, under the options given beside it; an n
    # without a row is refused by test_bad_input_to_an_oracle_suite_exits_3
    items = SUITES[suite](_Params(params))
    assert [thunk.args for _, thunk in items] == [(row[0], d, *row[1:]) for d in (0, 1)]


def test_the_bigraded_builder_checks_every_point_before_making_a_check():
    # the bad point comes last; --d without --n is refused by
    # test_verify_rejects_an_option_its_suite_does_not_read
    from cherpoi.suites_oracle import _bigraded_items

    with pytest.raises(ValueError, match="need n >= 2, got 1"):
        _bigraded_items({2: (1, (4, 4), None), 1: (0, (4, 4), None)}, "x", None)


@pytest.mark.parametrize(
    "key,label",
    [
        ((2, 1), "[2 1]"),
        (((2,), (1, 1)), "[[2] [1 1]]"),
        (("column-sum", (2, 1)), "[column-sum [2 1]]"),
        ((-1, 3), "[-1 3]"),
        (7, "7"),
        ("printed", "printed"),
    ],
)
def test_one_renderer_labels_every_key(key, label):
    assert _label(key) == label
    assert _ser({key: (key,)}) == {label: [_ser(key)]}


# ---------------------------------------------------------------------------
# series command


def test_series_text_output(capsys):
    assert main(["series", "--kind", "Jbar", "--n", "2", "--d", "0"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "(v^-1 - 2*v + v^3)/((1 - v)(1 - v)(-v^-2 + 1))"


@pytest.mark.parametrize("kind", ["Jbar", "Nbar", "Nunder", "Mbar", "Munder"])
def test_series_refuses_a_numerator_past_its_budget(capsys, kind):
    start = time.perf_counter()
    assert main(["series", "--kind", kind, "--n", "60"]) == 2
    assert time.perf_counter() - start < 0.5
    assert "graded numerator bound" in capsys.readouterr().err


@pytest.mark.parametrize("kind, option", [("Jbar", "--d"), ("Nbar", "--k"), ("J", "--d")])
def test_series_exponent_past_64_bits_is_an_input_error(capsys, kind, option):
    # the shift v^(d n(n-1)/2) or s^(d n(mu)) leaves the 64-bit exponent range
    assert main(["series", "--kind", kind, "--n", "2", option, str(10**19)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: exponent out of 64-bit range" in captured.err


def test_series_edelta_refuses_n_past_its_bound(capsys):
    from cherpoi.hilbert_series import MAX_STANDARD_N

    n = 2 * MAX_STANDARD_N
    start = time.perf_counter()
    assert main(["series", "--kind", "eDelta", "--n", str(n), "--mu", f"[{n // 2},{n // 2}]"]) == 2
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"resource limit: standard series bound is n <= {MAX_STANDARD_N}, got {n}" in captured.err


def test_series_edelta_prefix(capsys):
    argv = ["series", "--kind", "eDelta", "--n", "2", "--mu", "[2]"]
    assert main(argv) == 0
    out = capsys.readouterr().out.strip()
    assert out == "v^(1/2 - c) * 1/(1 - v^2)"
    argv.append("--format")
    assert main(argv + ["csv"]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == ["part,coeff,exponents", 'prefix,"1/2 - c",']
    assert main(argv + ["json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mu"] == [2] and doc["prefix"] == "1/2 - c"


def test_series_edelta_requires_mu(capsys):
    assert main(["series", "--kind", "eDelta", "--n", "2"]) == 3
    assert "input error" in capsys.readouterr().err


def test_series_edelta_mu_must_partition_n(capsys):
    assert main(["series", "--kind", "eDelta", "--n", "3", "--mu", "[2,2]"]) == 3
    assert "partition of 4, not of n = 3" in capsys.readouterr().err


def test_series_mu_must_be_json(capsys):
    # both a comma string and a bare scalar miss the list shape
    for raw in ("2,1", "5"):
        assert main(["series", "--kind", "eDelta", "--n", "2", "--mu", raw]) == 3
        assert "JSON partition" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["[1.5,1.5]", '"21"', '["2","1"]', "[true,true]"])
def test_series_mu_parts_must_be_json_integers(capsys, raw):
    # float parts once truncated to a partition of a smaller n, and a JSON
    # string once reached sum(mu) and ended in a TypeError traceback
    assert main(["series", "--kind", "eDelta", "--n", "3", "--mu", raw]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: --mu must be a JSON partition" in captured.err


SERIES_OPTIONS = {
    "d": ["--d", "1"], "k": ["--k", "2"], "mu": ["--mu", "[2,1]"], "grading": ["--grading", "E"],
}
SERIES_READS = {
    "JJ": ("d",), "J": ("d",), "Jbar": ("d",),
    "Nbar": ("k", "grading"), "Nunder": ("k", "grading"),
    "Mbar": ("k", "grading"), "Munder": ("k", "grading"),
    "eDelta": ("mu",),
}


@pytest.mark.parametrize(
    "kind,option",
    [
        (kind, option)
        for kind, reads in SERIES_READS.items()
        for option in SERIES_OPTIONS
        if option not in reads
    ],
)
def test_series_rejects_an_option_its_kind_does_not_read(capsys, kind, option):
    argv = ["series", "--kind", kind, "--n", "3", *SERIES_OPTIONS[option]]
    if kind == "eDelta":
        argv += SERIES_OPTIONS["mu"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"input error: --kind {kind} does not read --{option}" in captured.err


@pytest.mark.parametrize("kind", sorted(SERIES_READS))
def test_series_accepts_the_option_its_kind_reads(capsys, kind):
    options = [arg for option in SERIES_READS[kind] for arg in SERIES_OPTIONS[option]]
    assert main(["series", "--kind", kind, "--n", "3", *options]) == 0
    assert capsys.readouterr().out


def test_series_json_round_trips(capsys):
    assert main(
        ["series", "--kind", "Jbar", "--n", "3", "--d", "1", "--format", "json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "cherpoi/series-v1"
    assert doc["kind"] == "Jbar" and doc["n"] == 3 and doc["d"] == 1
    assert rf_equal(rf_from_json(doc["series"]), jbar_closed(3, 1))


def test_series_csv_lists_numerator_and_denominators(capsys):
    assert main(["series", "--kind", "JJ", "--n", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "part,coeff,exponents"
    parts = {line.split(",")[0] for line in lines[1:]}
    assert "num" in parts and "den0" in parts


def test_series_latex(capsys):
    assert main(["series", "--kind", "J", "--n", "2", "--format", "latex"]) == 0
    assert capsys.readouterr().out.startswith("\\frac{")


# ---------------------------------------------------------------------------
# table command


def test_kostka_table_csv_orientation(capsys):
    assert main(["table", "--kind", "kostka-macdonald", "--n", "2"]) == 0
    assert capsys.readouterr().out == "mu\\lam,[2],[1 1]\n[2],1,q\n[1 1],t,1\n"


def test_character_table_csv(capsys):
    assert main(["table", "--kind", "characters", "--n", "2"]) == 0
    assert capsys.readouterr().out == "irr\\class,[2],[1 1]\n[2],1,1\n[1 1],-1,1\n"


def test_table_json(capsys):
    assert main(
        ["table", "--kind", "kostka-macdonald", "--n", "2", "--format", "json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "cherpoi/table-v1"
    assert doc["columns"] == ["[2]", "[1 1]"]
    assert doc["rows"][0] == {"label": "[2]", "cells": ["1", "q"]}
    assert doc["rows"][1] == {"label": "[1 1]", "cells": ["t", "1"]}


def test_table_latex_and_markdown(capsys):
    assert main(["table", "--kind", "characters", "--n", "3", "--format", "latex"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("\\begin{tabular}")
    assert out.rstrip().endswith("\\end{tabular}")
    assert main(
        ["table", "--kind", "kostka-macdonald", "--n", "2", "--format", "markdown"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "| mu\\lam | [2] | [1 1] |"
    assert lines[2] == "| [2] | 1 | q |"


def test_table_rejects_bad_input(capsys):
    assert main(["table", "--kind", "characters", "--n", "0"]) == 3
    capsys.readouterr()
    with pytest.raises(ValueError, match="unknown table kind"):
        emit_table("frobnicate", 2, "csv")
    with pytest.raises(ValueError, match="unknown table format"):
        emit_table("characters", 2, "yaml")


# ---------------------------------------------------------------------------
# oracle command


def test_oracle_csv(capsys):
    assert main(["oracle", "--n", "2", "--d", "0", "--max-bidegree", "2,2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "a,b,dim"
    assert lines[1] == "0,0,1"
    assert len(lines) == 10


def test_oracle_json_without_compare(capsys):
    argv = ["oracle", "--n", "2", "--d", "0", "--max-bidegree", "2,2"]
    assert main(argv) == 0
    csv = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert main(argv + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "cherpoi/oracle-v1" and "compare" not in doc
    assert doc["cells"] == [[int(x) for x in row] for row in csv]


def test_oracle_compare_failures_exit_1(capsys, monkeypatch):
    # one cell where the formula and the oracle disagree
    def window_check(n, d, window, total):
        return "fail", {(0, 0): 1, (1, 0): 2}, {(0, 0): 1, (1, 0): 3}

    monkeypatch.setattr("cherpoi.cli_oracle._window_check", window_check)
    argv = ["oracle", "--n", "2", "--d", "0", "--max-bidegree", "2,2", "--compare"]
    assert main(argv) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-3:] == ["mismatch cells (formula, oracle):", "  (1, 0): 2 != 3", "jbar diagonals: pass"]
    # a matching window with a failed diagonal comparison fails too
    monkeypatch.undo()
    monkeypatch.setattr("cherpoi.cli_oracle._jbar_check", lambda n, d, window, total: ("fail", {0: 1}, {0: 2}))
    assert main(argv) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == ["all window cells match the formula expansion", "jbar diagonals: fail"]


def test_oracle_compare_json(capsys):
    code = main(
        [
            "oracle",
            "--n", "2",
            "--d", "1",
            "--max-bidegree", "6,6",
            "--compare",
            "--format", "json",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "cherpoi/oracle-v1"
    assert doc["compare"]["mismatches"] == {}
    assert doc["compare"]["jbar"]["verdict"] == "pass"
    assert doc["compare"]["jbar"]["formula"] == doc["compare"]["jbar"]["oracle"]


def test_oracle_exit_codes(capsys):
    assert main(["oracle", "--n", "5", "--d", "0", "--max-bidegree", "2,2"]) == 2
    assert "resource limit" in capsys.readouterr().err
    # the window matches, but jbar_dims does not run at n = 4: a skipped
    # check with nothing failed exits 2
    args = ["oracle", "--n", "4", "--d", "1", "--max-bidegree", "2,2", "--total", "4", "--compare"]
    assert main(args) == 2
    out = capsys.readouterr().out
    assert "all window cells match" in out and "jbar diagonals: skipped" in out
    assert main(["oracle", "--n", "2", "--d", "0", "--max-bidegree", "junk"]) == 3
    assert "input error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# basis command


def _hand_idempotent(cutoff=12):
    return {
        "schema": "cherpoi/idempotent-v1",
        "algebra": {"kind": "polynomial", "variables": 1, "cutoff": cutoff},
        "shifts": [1, 0],
        "matrix": [
            {"row": 0, "col": 0, "terms": [{"exponents": [0], "coeff": "1"}]},
            {"row": 1, "col": 0, "terms": [{"exponents": [1], "coeff": "1"}]},
        ],
    }


def test_basis_extraction_round_trip(tmp_path, capsys):
    path = tmp_path / "idem.json"
    path.write_text(json.dumps(_hand_idempotent()))
    assert main(["basis", "--input", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "cherpoi/basis-v1"
    assert doc["horizon"] == 11
    assert doc["image_dims"]["0"] == 0 and doc["image_dims"]["11"] == 1
    (gen,) = doc["generators"]
    assert gen["degree"] == 1
    assert gen["rows"] == [
        [{"exponents": [0], "coeff": "1"}],
        [{"exponents": [1], "coeff": "1"}],
    ]


def test_basis_over_a_truncated_algebra(tmp_path, capsys):
    # E = [[1, 0, 0], [a, 0, 0], [0, 0, 1]] with a = 5x^2 - 2/3 xy is idempotent,
    # so im(E) is free on u_3 (degree 0) and u_1 + a u_2 (degree 2)
    doc = {
        "schema": "cherpoi/idempotent-v1",
        "algebra": {"kind": "truncated", "variables": 2, "cutoff": 8, "top": 5},
        "shifts": [2, 0, 0],
        "matrix": [
            {"row": 0, "col": 0, "terms": [{"exponents": [0, 0], "coeff": "1"}]},
            {
                "row": 1,
                "col": 0,
                "terms": [
                    {"exponents": [2, 0], "coeff": "5"},
                    {"exponents": [1, 1], "coeff": "-2/3"},
                ],
            },
            {"row": 2, "col": 2, "terms": [{"exponents": [0, 0], "coeff": "1"}]},
        ],
    }
    path = tmp_path / "truncated.json"
    path.write_text(json.dumps(doc))
    assert main(["basis", "--input", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["horizon"] == 6  # min(8 - 2, 8 + 0)
    assert out["generators"] == [
        {"degree": 0, "rows": [[], [], [{"exponents": [0, 0], "coeff": "1"}]]},
        {
            "degree": 2,
            "rows": [
                [{"exponents": [0, 0], "coeff": "1"}],
                [{"exponents": [2, 0], "coeff": "5"}, {"exponents": [1, 1], "coeff": "-2/3"}],
                [],
            ],
        },
    ]

    def dim(d):  # dim A_d in Q[x, y] modulo the monomials of degree > 5
        return d + 1 if 0 <= d <= 5 else 0

    assert out["image_dims"] == {str(g): dim(g) + dim(g - 2) for g in range(7)}


def test_basis_prints_a_rational_projector_s_trace_as_integers(tmp_path, capsys):
    # [[1/2, 1/2], [1/2, 1/2]]: each image dimension is a trace summed from
    # halves, and prints as a JSON integer
    half = [{"exponents": [0], "coeff": "1/2"}]
    doc = {
        "schema": "cherpoi/idempotent-v1",
        "algebra": {"kind": "polynomial", "variables": 1, "cutoff": 6},
        "shifts": [0, 0],
        "matrix": [{"row": i, "col": j, "terms": half} for i in range(2) for j in range(2)],
    }
    path = tmp_path / "half.json"
    path.write_text(json.dumps(doc))
    assert main(["basis", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert '"image_dims": {"0": 1, "1": 1, "2": 1, "3": 1, "4": 1, "5": 1, "6": 1}' in out
    assert json.loads(out)["generators"] == [{"degree": 0, "rows": [half, half]}]


def test_basis_cutoff_override(tmp_path, capsys):
    path = tmp_path / "idem.json"
    path.write_text(json.dumps(_hand_idempotent()))
    assert main(["basis", "--input", str(path), "--cutoff", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["horizon"] == 5


def test_basis_rejects_non_idempotent(tmp_path, capsys):
    doc = _hand_idempotent()
    doc["matrix"].append(
        {"row": 1, "col": 1, "terms": [{"exponents": [0], "coeff": "1"}]}
    )
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["basis", "--input", str(path)]) == 3
    assert "input error" in capsys.readouterr().err


def test_basis_reports_certification_failure(tmp_path, capsys):
    doc = {
        "schema": "cherpoi/idempotent-v1",
        "algebra": {"kind": "polynomial", "variables": 1, "cutoff": 1},
        "shifts": [2, 2],
        "matrix": [
            {"row": 0, "col": 0, "terms": [{"exponents": [0], "coeff": "1"}]},
            {"row": 1, "col": 1, "terms": [{"exponents": [0], "coeff": "1"}]},
        ],
    }
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(doc))
    assert main(["basis", "--input", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert "cutoff too small" in out["error"]


@pytest.mark.parametrize("algebra", [
    {"kind": "polynomial", "variables": 30, "cutoff": 30},  # C(60, 30), about 1.2e17 monomials
    {"kind": "truncated", "variables": 1, "cutoff": 10**12, "top": 3},  # 10^12 degree rows
])
def test_basis_refuses_an_algebra_past_its_budget(tmp_path, capsys, algebra):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"algebra": algebra, "shifts": [0]}))
    start = time.perf_counter()
    assert main(["basis", "--input", str(path)]) == 2
    assert time.perf_counter() - start < 0.5
    assert "resource limit" in capsys.readouterr().err


def test_basis_refuses_too_many_shifts_before_building_the_table(tmp_path, capsys):
    # reading the 10^6 shifts takes about 16 MB; one row of the shifts x
    # shifts table would take 10^6 dicts, about 64 MB, and the whole table
    # 10^12, so a peak under 40 MB means not one row was built, however fast
    # the machine
    path = tmp_path / "wide.json"
    algebra = {"kind": "polynomial", "variables": 1, "cutoff": 2}
    path.write_text(json.dumps({"algebra": algebra, "shifts": [0] * 10**6}))
    tracemalloc.start()
    try:
        assert main(["basis", "--input", str(path)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20
    assert "idempotent bound" in capsys.readouterr().err


def test_basis_refuses_an_empty_shift_list(tmp_path, capsys):
    # max() of the shifts once failed with "max() arg is an empty sequence"
    path = tmp_path / "empty.json"
    algebra = {"kind": "polynomial", "variables": 1, "cutoff": 2}
    path.write_text(json.dumps({"algebra": algebra, "shifts": [], "matrix": []}))
    assert main(["basis", "--input", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: an idempotent needs at least one shift" in captured.err


def test_basis_missing_file(tmp_path, capsys):
    assert main(["basis", "--input", str(tmp_path / "absent.json")]) == 3
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("drop", ["shifts", "algebra.kind", "matrix.0.terms.0.coeff"])
def test_basis_missing_key_is_input_error(tmp_path, capsys, drop):
    doc = _hand_idempotent()
    *path, last = drop.split(".")
    holder = doc
    for step in path:
        holder = holder[int(step)] if step.isdigit() else holder[step]
    del holder[last]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(doc))
    assert main(["basis", "--input", str(path)]) == 3
    assert f"missing key {last!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, value",
    [
        ("matrix.1.terms.0.coeff", 0.1),
        ("matrix.1.terms.0.coeff", 1.0),
        ("matrix.1.terms.0.coeff", True),
        ("matrix.1.terms.0.coeff", "1/0"),
        ("matrix.1.row", 1.0),
        ("matrix.1.col", 0.5),
        ("matrix.1.terms.0.exponents", [1.0]),
        ("shifts", [1.0, 0]),
        ("shifts", "10"),
        ("algebra.variables", 1.5),
        ("algebra.cutoff", 12.0),
        ("matrix", 5),
        ("matrix.1.terms", 5),
    ],
)
def test_basis_malformed_number_is_input_error(tmp_path, capsys, path, value):
    # float values were once read through Fraction(float) or truncated by
    # int(), and a number in place of a list ended in a TypeError traceback
    doc = _hand_idempotent()
    *steps, last = path.split(".")
    holder = doc
    for step in steps:
        holder = holder[int(step)] if step.isdigit() else holder[step]
    holder[last] = value
    file = tmp_path / "malformed.json"
    file.write_text(json.dumps(doc))
    assert main(["basis", "--input", str(file)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error" in captured.err


def test_basis_truncated_top_must_be_an_integer(tmp_path, capsys):
    doc = _hand_idempotent()
    doc["algebra"].update(kind="truncated", top=5.0)
    path = tmp_path / "top.json"
    path.write_text(json.dumps(doc))
    assert main(["basis", "--input", str(path)]) == 3
    assert "'top' must be a JSON integer, got 5.0" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--cutoff", "3"]])
def test_basis_non_object_document_is_input_error(tmp_path, capsys, extra):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["basis", "--input", str(path), *extra]) == 3
    assert "expected a JSON object" in capsys.readouterr().err


def test_internal_key_error_is_not_input_error(tmp_path, capsys, monkeypatch):
    def broken(_idempotent):
        raise KeyError("internal")

    monkeypatch.setattr("cherpoi.graded_free.extract_homogeneous_basis", broken)
    path = tmp_path / "idem.json"
    path.write_text(json.dumps(_hand_idempotent()))
    with pytest.raises(KeyError, match="internal"):
        main(["basis", "--input", str(path)])
    assert "input error" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify command


def test_verify_text_format(capsys):
    code = main(
        ["verify", "--suite", "fake-degrees", "--n-max", "3", "--format", "text"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "suite fake-degrees: pass" in out
    assert "[pass] maj-matches-hook-n3" in out
    *checks, _ = out.splitlines()
    assert all(re.fullmatch(r"\[pass\] \S+ \(\d+\.\d ms\)", line) for line in checks)


def test_verify_text_format_without_timings_is_reproducible(capsys):
    argv = ["verify", "--suite", "fake-degrees", "--n-max", "3", "--format", "text", "--no-timings"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert "[pass] maj-matches-hook-n3\n" in first
    assert " ms)" not in first


def test_verify_json_is_reproducible(capsys):
    argv = [
        "verify",
        "--suite", "jbar-chain",
        "--n-max", "3",
        "--d", "2",
        "--no-timings",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert doc["schema"] == "cherpoi/report-v1"
    assert doc["status"] == "pass"


def _raise(exc):
    raise exc


@pytest.mark.parametrize(
    "check, row, status, code",
    [
        (lambda: ("fail", 1, 2), ("fail", 1, 2), "fail", 1),
        (lambda: len(5), ("fail", "TypeError: object of type 'int' has no len()", None), "fail", 1),
        (lambda: _raise(ResourceError("budget")), ("skipped", "budget", None), "partial", 2),
    ],
    ids=["mismatch", "crash", "budget"],
)
def test_verify_records_a_failing_check_and_runs_the_next(capsys, monkeypatch, check, row, status, code):
    # a check that fails, crashes or trips a budget is recorded as such, and
    # the checks after it still run
    items = [("first", check), ("second", lambda: ("pass", 0, 0))]
    monkeypatch.setitem(SUITES, "graded-free", lambda p: items)
    assert main(["verify", "--suite", "graded-free", "--no-timings"]) == code
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == status
    assert [(c["name"], c["verdict"], c["left"], c["right"]) for c in doc["checks"]] == [
        ("first", *row),
        ("second", "pass", 0, 0),
    ]


def test_coordinate_projection_renders_fraction_strings(capsys):
    # the extractor keeps integral coefficients as int; the check compares and
    # renders Fraction rows, so the report keeps "1" as a string
    assert main(["verify", "--suite", "graded-free", "--no-timings"]) == 0
    doc = json.loads(capsys.readouterr().out)
    (check,) = [c for c in doc["checks"] if c["name"] == "coordinate-projection"]
    assert check["left"] == check["right"] == [{"0": "1"}, {}, {}]


def test_verify_partial_exit(capsys):
    assert main(["verify", "--suite", "oracle-jbar", "--n", "3", "--window", "25,25"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "partial"
    # a cap is per check: past it the suite still reports, skipped
    assert main(["verify", "--suite", "oracle-J", "--n", "2", "--window", "25,25"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert {c["verdict"] for c in doc["checks"]} == {"skipped"}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--suite", "oracle-J", "--n", "1"], "suite oracle-J has grid rows for --n 2, 3, got --n 1"),
        (["--suite", "oracle-jbar", "--n", "-2"], "suite oracle-jbar has grid rows for --n 2, 3, got --n -2"),
        (["--suite", "oracle-J", "--n", "4"], "suite oracle-J has grid rows for --n 2, 3, got --n 4"),
        (["--suite", "oracle-jbar", "--n", "4"], "suite oracle-jbar has grid rows for --n 2, 3, got --n 4"),
        (["--suite", "oracle-J", "--n", "2", "--window", "0,-1"], "window bounds must be nonnegative"),
        (["--suite", "parity", "--n-max", "3", "--total", "-2"], "total-degree cap must be nonnegative"),
    ],
    ids=["oracle-J-n", "oracle-jbar-n", "oracle-J-n4", "oracle-jbar-n4", "oracle-J-window", "parity-total"],
)
def test_bad_input_to_an_oracle_suite_exits_3(capsys, argv, message):
    # bad input exits 3 before any check runs, as in the oracle subcommand: a
    # failed check with exit 1 would read as a mathematical mismatch
    assert main(["verify", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"input error: {message}" in captured.err


VERIFY_OPTIONS = {
    "n": ["--n", "2"], "n_max": ["--n-max", "2"], "d": ["--d", "1"], "k": ["--k", "1"],
    "window": ["--window", "4,4"], "total": ["--total", "6"], "seed": ["--seed", "7"],
}
# the options each suite reads when given alone: the oracle-J and oracle-jbar
# grids read --d, --window and --total only beside --n
VERIFY_READS = {
    "fake-degrees": ("n_max",),
    "kostka": ("n_max",),
    "omega-specialization": ("n_max",),
    "jbar-chain": ("n_max", "d"),
    "eqpoi": ("n_max", "k"),
    "appendix-b": ("n_max", "k"),
    "oracle-J": ("n",),
    "oracle-jbar": ("n",),
    "coinvariants": ("n_max",),
    "parity": ("n_max", "d", "window", "total"),
    "graded-free": ("seed",),
}


@pytest.mark.parametrize(
    "suite,option",
    [
        (suite, option)
        for suite, reads in VERIFY_READS.items()
        for option in VERIFY_OPTIONS
        if option not in reads
    ],
)
def test_verify_rejects_an_option_its_suite_does_not_read(capsys, suite, option):
    # such an option was once dropped without a word, and the report's
    # params still claimed it
    argv = ["verify", "--suite", suite, *VERIFY_OPTIONS[option]]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"input error: suite {suite} does not read {VERIFY_OPTIONS[option][0]}" in captured.err


def test_run_suite_rejects_an_unread_parameter(monkeypatch):
    with pytest.raises(ValueError, match="suite kostka does not read trials, --d$"):
        run_suite("kostka", {"n_max": 2, "trials": 3, "d_max": 1})
    # a parameter read by index counts as read as well as one read by get
    monkeypatch.setitem(SUITES, "kostka", lambda p: [("n", lambda n=p["n_max"]: ("pass", n, n))])
    assert run_suite("kostka", {"n_max": 2}).status == "pass"


def test_parse_pair():
    assert _parse_pair("3,4") == (3, 4)
    with pytest.raises(ValueError):
        _parse_pair("7")


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "kostka", "--n-max", "1"],
        ["--suite", "fake-degrees", "--n-max", "0"],
        ["--suite", "oracle-J", "--n", "2", "--d", "-1"],
    ],
    ids=["kostka", "fake-degrees", "oracle-J"],
)
def test_verify_rejects_a_grid_that_selects_no_check(capsys, argv):
    # an empty report once read as a pass: "checks": [] with status pass
    assert main(["verify", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"input error: suite {argv[1]} selects no check for {' '.join(argv[2:])}" in captured.err


def test_the_smallest_grids_still_select_checks():
    # the benchmark's warm-up process runs fake-degrees at --n-max 1
    report = run_suite("fake-degrees", {"n_max": 1})
    assert len(report.checks) == 3 and report.exit_code == 0
    with pytest.raises(ValueError, match="suite kostka selects no check for --n-max 1$"):
        run_suite("kostka", {"n_max": 1})


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", "--suite", "nosuch"], 3),
        (["verify", "--suite", "kostka", "--n-max", "x"], 3),
        (["nosuch"], 3),
        ([], 3),
        (["--help"], 0),
        (["--version"], 0),
        (["verify", "--help"], 0),
    ],
    ids=["unknown-suite", "non-int-option", "unknown-subcommand", "bare", "help", "version",
         "verify-help"],
)
def test_usage_errors_exit_3(capsys, argv, code):
    # argparse's own usage-error code is 2, which here means a resource limit
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    captured = capsys.readouterr()
    assert ("error:" in captured.err) == (code == 3)


def test_fake_degrees_past_the_grid_bound_are_skipped(tmp_path):
    from cherpoi.suites_closed_forms import MAX_FAKE_DEGREES_N

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = ["verify", "--suite", "fake-degrees", "--n-max", "30", "--no-timings"]
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "cherpoi.verifier_cli", *argv],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert time.perf_counter() - start < 5.0
    assert done.returncode == 2, done.stderr
    doc = json.loads(done.stdout)
    assert doc["status"] == "partial"
    verdicts = {c["name"]: c["verdict"] for c in doc["checks"]}
    assert len(verdicts) == 90
    for name, verdict in verdicts.items():
        n = int(name.rsplit("-n", 1)[1])
        assert verdict == ("pass" if n <= MAX_FAKE_DEGREES_N else "skipped"), name


@pytest.mark.parametrize("suite, param", [
    ("fake-degrees", "n_max"), ("jbar-chain", "d_max"), ("eqpoi", "k_max"),
])
def test_run_suite_refuses_a_grid_past_its_bound(monkeypatch, suite, param):
    # every builder makes one check per grid point, so a 10^20 grid once ran
    # out of memory before the first check; it is refused before the builder
    # runs, and a builder that runs fails the test instead of the machine
    def builder(params):
        raise AssertionError(f"{suite} built a grid of {params}")

    monkeypatch.setitem(SUITES, suite, builder)
    start = time.perf_counter()
    with pytest.raises(ResourceError, match=f"suite grid bound is {MAX_GRID}"):
        run_suite(suite, {param: 10**20})
    assert time.perf_counter() - start < 0.5


def test_run_suite_accepts_a_grid_at_its_bound():
    report = run_suite("eqpoi", {"n_max": 2, "k_max": MAX_GRID})
    assert report.exit_code == 0
    assert len(report.checks) == MAX_GRID + 1


def _limit_address_space():
    # a regression that builds the grid again fails with MemoryError in the
    # child instead of taking the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_verify_refuses_a_huge_grid_before_building_it(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = ["verify", "--suite", "jbar-chain", "--n-max", "2", "--d", str(10**20)]
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "cherpoi.verifier_cli", *argv],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert time.perf_counter() - start < 5.0
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr == f"resource limit: suite grid bound is {MAX_GRID}, got --d {10**20}\n"
