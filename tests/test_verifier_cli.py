"""Suite runner and command-line surface: small grids, formats, exit codes."""

import json

import pytest

from cherpoi.exact_poly import rf_equal, rf_from_json
from cherpoi.hilbert_series import jbar_closed
from cherpoi.verifier_cli import SUITES, _parse_pair, emit_table, main, run_suite

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
    "graded-free": {"trials": 6},
}


@pytest.mark.parametrize("suite", sorted(SMALL_GRIDS))
def test_suite_passes_on_a_small_grid(suite):
    report = run_suite(suite, SMALL_GRIDS[suite])
    assert report.status == "pass"
    assert report.exit_code == 0
    assert report.checks
    assert all(c.verdict == "pass" for c in report.checks)


def test_every_registered_suite_has_a_small_grid():
    assert sorted(SUITES) == sorted(SMALL_GRIDS)


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
    a = run_suite("graded-free", {"trials": 6, "seed": 42})
    b = run_suite("graded-free", {"trials": 6, "seed": 42})
    assert a.to_json(timings=False) == b.to_json(timings=False)


@pytest.mark.parametrize(
    "suite, params, others",
    [
        (
            "oracle-J",
            {"n": 2, "d_max": 2, "window": (6, 6)},
            [("oracle-jbar", {"n": 2}), ("parity", {"n_max": 2})],
        ),
        ("kostka", {"n_max": 4}, [("jbar-chain", {"n_max": 4})]),
    ],
)
def test_reports_do_not_depend_on_process_history(suite, params, others):
    # suites share the process-wide oracle engines and Kostka matrices
    before = run_suite(suite, params).to_json(timings=False)
    for other, other_params in others:
        assert run_suite(other, other_params).status == "pass"
    assert run_suite(suite, params).to_json(timings=False) == before


def test_resource_bounds_show_up_as_partial():
    report = run_suite("oracle-jbar", {"n": 4})
    assert all(c.verdict == "skipped" for c in report.checks)
    assert report.status == "partial"
    assert report.exit_code == 2


def test_check_names_follow_the_grid():
    report = run_suite("oracle-J", {"n": 2, "d_max": 1, "window": (4, 4)})
    assert [c.name for c in report.checks] == [
        "window-match-n2-d0",
        "window-match-n2-d1",
    ]


# ---------------------------------------------------------------------------
# series command


def test_series_text_output(capsys):
    assert main(["series", "--kind", "Jbar", "--n", "2", "--d", "0"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "(v^-1 - 2*v + v^3)/((1 - v)(1 - v)(-v^-2 + 1))"


def test_series_edelta_prefix(capsys):
    assert main(["series", "--kind", "eDelta", "--n", "2", "--mu", "[2]"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "v^(1/2 - c) * 1/(1 - v^2)"


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


@pytest.mark.parametrize("extra", [[], ["--cutoff", "3"]])
def test_basis_non_object_document_is_input_error(tmp_path, capsys, extra):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["basis", "--input", str(path), *extra]) == 3
    assert "expected a JSON object" in capsys.readouterr().err


def test_internal_key_error_is_not_input_error(tmp_path, capsys, monkeypatch):
    def broken(_idempotent):
        raise KeyError("internal")

    monkeypatch.setattr("cherpoi.verifier_cli.extract_homogeneous_basis", broken)
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


def test_verify_partial_exit(capsys):
    assert main(["verify", "--suite", "oracle-jbar", "--n", "4"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "partial"


def test_parse_pair():
    assert _parse_pair("3,4") == (3, 4)
    assert _parse_pair((5, 6)) == (5, 6)
    with pytest.raises(ValueError):
        _parse_pair("7")
