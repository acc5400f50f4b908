"""The oracle subcommand: brute-force bigraded dimension tables, optionally
compared against the closed-form expansion and the diagonal saturation
certificates."""

from __future__ import annotations

import json

from .errors import ResourceError
from .report import ORACLE_SCHEMA, _label, _ser
from .suites_oracle import _jbar_check, _window_check
from .verifier_cli import _parse_pair


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

    window_verdict, left, right = _window_check(args.n, args.d, window, total)
    mismatches = {k: (left[k], right[k]) for k in left if left[k] != right[k]}
    exit_code = 1 if window_verdict == "fail" else 0

    try:
        verdict, jleft, jright = _jbar_check(args.n, args.d, window, total)
        jbar_block = {"verdict": verdict, "formula": _ser(jleft), "oracle": _ser(jright)}
    except ResourceError as exc:
        verdict = "skipped"
        jbar_block = {"verdict": verdict, "reason": str(exc)}
    if verdict == "fail":
        exit_code = 1
    elif verdict in ("unsaturated", "skipped") and exit_code == 0:
        exit_code = 2

    if args.format == "json":
        doc["compare"] = {
            "mismatches": {_label(k): list(v) for k, v in sorted(mismatches.items())},
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
