"""The table subcommand: character and Kostka-Macdonald tables."""

from __future__ import annotations

import json
import sys

from .report import TABLE_SCHEMA, _label


def _table_data(kind: str, n: int):
    if kind == "characters":
        from .sn_rep import character_table

        table = character_table(n)
        columns = [_label(r) for r in table.partitions]
        rows = [
            (_label(mu), [str(table.values[(mu, r)]) for r in table.partitions])
            for mu in table.partitions
        ]
        return "irr\\class", columns, rows
    if kind == "kostka-macdonald":
        from .macdonald import kostka_macdonald

        matrix = kostka_macdonald(n)
        columns = [_label(lam) for lam in matrix.partitions]
        rows = [
            (_label(mu), [str(matrix.entry(lam, mu)) for lam in matrix.partitions])
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
