"""The series subcommand: one closed-form series as text, JSON, CSV or LaTeX."""

from __future__ import annotations

import json
import sys

from .report import SERIES_SCHEMA
from .verifier_cli import SERIES_KINDS


def _series_value(kind, n, value, grading):
    """(body, prefix) of one series; value is the option the kind reads."""
    name, option, _ = SERIES_KINDS[kind]

    from . import hilbert_series

    series = getattr(hilbert_series, name)
    if option == "mu":
        if value is None:
            raise ValueError("eDelta needs --mu, a JSON partition like [2,1]")
        if sum(value) != n:
            raise ValueError(
                f"--mu {list(value)} is a partition of {sum(value)}, not of n = {n}"
            )
        result = series(value)
        return result.body, result.prefix
    if option == "k":
        return series(n, value, grading), None
    return series(n, value), None


def _series_csv(f, prefix) -> str:
    lines = ["part,coeff,exponents"]
    if prefix is not None:
        lines.append(f'prefix,"{prefix}",')
    for exps, coeff in f.num.sorted_terms():
        lines.append(f'num,{coeff},"{";".join(map(str, exps))}"')
    for i, factor in enumerate(f.den):
        for exps, coeff in factor.sorted_terms():
            lines.append(f'den{i},{coeff},"{";".join(map(str, exps))}"')
    return "\n".join(lines) + "\n"


def cmd_series(args) -> int:
    if args.mu:
        try:
            mu = tuple(json.loads(args.mu))
        except (json.JSONDecodeError, TypeError):
            mu = None
        if mu is None or any(type(p) is not int for p in mu):
            raise ValueError(f"--mu must be a JSON partition like [2,1], got {args.mu!r}")
    else:
        mu = None
    _, option, default = SERIES_KINDS[args.kind]
    reads = (option, "grading") if option == "k" else (option,)
    given = {"d": args.d, "k": args.k, "mu": mu, "grading": args.grading}
    unread = [f"--{o}" for o, value in given.items() if value is not None and o not in reads]
    if unread:
        raise ValueError(f"--kind {args.kind} does not read {', '.join(unread)}")
    value = default if given[option] is None else given[option]
    grading = "h" if args.grading is None else args.grading
    body, prefix = _series_value(args.kind, args.n, value, grading)
    if args.format == "json":
        from .exact_poly import rf_to_json

        doc = {
            "schema": SERIES_SCHEMA,
            "kind": args.kind,
            "n": args.n,
            "d": args.d,
            "k": args.k,
            "grading": grading,
            "series": rf_to_json(body),
        }
        if mu is not None:
            doc["mu"] = list(mu)
        if prefix is not None:
            doc["prefix"] = str(prefix)
        print(json.dumps(doc, sort_keys=True))
    elif args.format == "csv":
        sys.stdout.write(_series_csv(body, prefix))
    elif args.format == "latex":
        head = f"v^{{{prefix}}} \\cdot " if prefix is not None else ""
        print(head + body.latex())
    else:
        head = f"v^({prefix}) * " if prefix is not None else ""
        print(head + str(body))
    return 0
