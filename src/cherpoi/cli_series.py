"""The series subcommand: one closed-form series as text, JSON, CSV or LaTeX."""

from __future__ import annotations

import json
import sys

from .report import SERIES_SCHEMA


# the options each kind reads; a kind given one it does not read is an input
# error, not a series computed without it
_KIND_OPTIONS = {
    "JJ": ("d",),
    "J": ("d",),
    "Jbar": ("d",),
    "Nbar": ("k", "grading"),
    "Nunder": ("k", "grading"),
    "Mbar": ("k", "grading"),
    "Munder": ("k", "grading"),
    "eDelta": ("mu",),
}


def _series_value(kind, n, d, k, grading, mu):
    given = {"d": d, "k": k, "mu": mu, "grading": grading}
    unread = [
        f"--{name}"
        for name, value in given.items()
        if value is not None and name not in _KIND_OPTIONS.get(kind, given)
    ]
    if unread:
        raise ValueError(f"--kind {kind} does not read {', '.join(unread)}")
    grading = "h" if grading is None else grading

    from .hilbert_series import (
        bigraded_J,
        bigraded_JJ,
        e_standard_series,
        jbar_closed,
        mbar_series,
        munder_series,
        nbar_series,
        nunder_series,
    )

    if kind == "JJ":
        return bigraded_JJ(n, 0 if d is None else d), None
    if kind == "J":
        return bigraded_J(n, 0 if d is None else d), None
    if kind == "Jbar":
        return jbar_closed(n, 0 if d is None else d), None
    if kind == "Nbar":
        return nbar_series(n, 0 if k is None else k, grading), None
    if kind == "Nunder":
        return nunder_series(n, 0 if k is None else k, grading), None
    if kind == "Mbar":
        return mbar_series(n, 1 if k is None else k, grading), None
    if kind == "Munder":
        return munder_series(n, 1 if k is None else k, grading), None
    if kind == "eDelta":
        if mu is None:
            raise ValueError("eDelta needs --mu, a JSON partition like [2,1]")
        if sum(mu) != n:
            raise ValueError(
                f"--mu {list(mu)} is a partition of {sum(mu)}, not of n = {n}"
            )
        series = e_standard_series(mu)
        return series.body, series.prefix
    raise ValueError(f"unknown series kind {kind!r}")


def _series_csv(f: ExactRationalFunction, prefix) -> str:
    lines = ["part,coeff,exponents"]
    if prefix is not None:
        lines.append(f'prefix,"{prefix}",')
    for exps, coeff in sorted(f.num.terms.items()):
        lines.append(f'num,{coeff},"{";".join(map(str, exps))}"')
    for i, factor in enumerate(f.den):
        for exps, coeff in sorted(factor.terms.items()):
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
    body, prefix = _series_value(args.kind, args.n, args.d, args.k, args.grading, mu)
    if args.format == "json":
        from .exact_poly import rf_to_json

        doc = {
            "schema": SERIES_SCHEMA,
            "kind": args.kind,
            "n": args.n,
            "d": args.d,
            "k": args.k,
            "grading": "h" if args.grading is None else args.grading,
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
