"""The series subcommand: one closed-form series as text, JSON, CSV or LaTeX."""

from __future__ import annotations

import json
import sys

from .report import SERIES_SCHEMA


# kind -> (its hilbert_series function, the option it reads, that option's
# default); the k kinds also read --grading. A kind given an option it does
# not read is an input error, not a series computed without it
_KINDS = {
    "JJ": ("bigraded_JJ", "d", 0),
    "J": ("bigraded_J", "d", 0),
    "Jbar": ("jbar_closed", "d", 0),
    "Nbar": ("nbar_series", "k", 0),
    "Nunder": ("nunder_series", "k", 0),
    "Mbar": ("mbar_series", "k", 1),
    "Munder": ("munder_series", "k", 1),
    "eDelta": ("e_standard_series", "mu", None),
}


def _series_value(kind, n, d, k, grading, mu):
    if kind not in _KINDS:
        raise ValueError(f"unknown series kind {kind!r}")
    name, option, default = _KINDS[kind]
    reads = (option, "grading") if option == "k" else (option,)
    given = {"d": d, "k": k, "mu": mu, "grading": grading}
    unread = [f"--{o}" for o, value in given.items() if value is not None and o not in reads]
    if unread:
        raise ValueError(f"--kind {kind} does not read {', '.join(unread)}")

    from . import hilbert_series

    series = getattr(hilbert_series, name)
    if kind == "eDelta":
        if mu is None:
            raise ValueError("eDelta needs --mu, a JSON partition like [2,1]")
        if sum(mu) != n:
            raise ValueError(
                f"--mu {list(mu)} is a partition of {sum(mu)}, not of n = {n}"
            )
        result = series(mu)
        return result.body, result.prefix
    value = default if given[option] is None else given[option]
    if option == "k":
        return series(n, value, "h" if grading is None else grading), None
    return series(n, value), None


def _series_csv(f, prefix) -> str:
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
