"""The basis subcommand: a certified homogeneous free basis of the image of
an idempotent read from JSON.

The input document has schema cherpoi/idempotent-v1:

    {
      "algebra": {"kind": "polynomial" | "truncated",
                  "variables": 2, "cutoff": 12, "top": 3},
      "shifts": [1, 0],
      "matrix": [
        {"row": 1, "col": 0,
         "terms": [{"exponents": [1, 0], "coeff": "3/2"}]}
      ]
    }

"top" applies only to the truncated kind. Absent matrix entries are zero;
each listed term must have total degree shifts[col] - shifts[row]. A
coefficient is a JSON integer or a string like "3/2"; every other number is
a JSON integer.
"""

from __future__ import annotations

import json

from .errors import CertificationError, ResourceError
from .report import BASIS_SCHEMA

# the table is shifts x shifts and the E^2 = E check costs about shifts^3:
# 100 shifts took 0.12 s and 200 took 2.0 s; the suites use at most 4
MAX_SHIFTS = 100


def _field(doc, key, types=None):
    """doc[key] of a JSON object; a missing key, a non-object or, when types
    are given, a value of none of those types is bad input."""
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object holding {key!r}, got {type(doc).__name__}")
    if key not in doc:
        raise ValueError(f"missing key {key!r}")
    value = doc[key]
    if types is not None and type(value) not in types:
        names = " or ".join({int: "integer", str: "string", list: "list"}[t] for t in types)
        raise ValueError(f"{key!r} must be a JSON {names}, got {value!r}")
    return value


def _ints(doc, key) -> tuple[int, ...]:
    values = _field(doc, key, (list,))
    if any(type(v) is not int for v in values):
        raise ValueError(f"{key!r} must be a JSON list of integers, got {values!r}")
    return tuple(values)


def _load_idempotent(doc, cutoff=None):
    """The idempotent a JSON document describes; cutoff, when given,
    overrides the document's."""
    from .graded_free import GradedIdempotent, MonomialAlgebra, _exact

    algebra_doc = _field(doc, "algebra")
    kind = _field(algebra_doc, "kind")
    if cutoff is None:
        cutoff = _field(algebra_doc, "cutoff", (int,))
    variables = _field(algebra_doc, "variables", (int,))
    if kind == "polynomial":
        algebra = MonomialAlgebra(variables, cutoff)
    elif kind == "truncated":
        algebra = MonomialAlgebra(variables, cutoff, _field(algebra_doc, "top", (int,)))
    else:
        raise ValueError(f"unknown algebra kind {kind!r}")
    shifts = _ints(doc, "shifts")
    size = len(shifts)
    if size > MAX_SHIFTS:
        raise ResourceError(f"idempotent bound is {MAX_SHIFTS} shifts, got {size}")
    entries = [[dict() for _ in range(size)] for _ in range(size)]
    for item in _field(doc, "matrix", (list,)) if "matrix" in doc else ():
        i, j = _field(item, "row", (int,)), _field(item, "col", (int,))
        if not (0 <= i < size and 0 <= j < size):
            raise ValueError(f"matrix position ({i},{j}) outside the {size} shifts")
        degree = shifts[j] - shifts[i]
        if not 0 <= degree <= cutoff:
            raise ValueError(f"entry ({i},{j}) cannot be nonzero at degree {degree}")
        element = entries[i][j]
        for term in _field(item, "terms", (list,)):
            exps = _ints(term, "exponents")
            if sum(exps) != degree or exps not in algebra.index[degree]:
                raise ValueError(
                    f"term {list(exps)} at ({i},{j}) is not a degree-{degree} monomial"
                )
            try:
                coeff = _exact(_field(term, "coeff", (str, int)))
            except ZeroDivisionError:
                raise ValueError(f"coefficient {term['coeff']!r} divides by zero") from None
            if coeff:
                element[algebra.index[degree][exps]] = coeff
    entries = tuple(tuple(row) for row in entries)
    return GradedIdempotent(algebra, shifts, entries)


def cmd_basis(args) -> int:
    from .graded_free import extract_homogeneous_basis

    with open(args.input) as handle:
        doc = json.load(handle)
    idem = _load_idempotent(doc, args.cutoff)
    try:
        result = extract_homogeneous_basis(idem)
    except CertificationError as exc:
        print(json.dumps({"schema": BASIS_SCHEMA, "error": str(exc)}))
        return 1
    generators = []
    for g in result.generators:
        rows = []
        for i, row in enumerate(g.rows):
            degree = g.degree - idem.shifts[i]
            terms = [
                {"exponents": list(idem.algebra.basis[degree][idx]), "coeff": str(c)}
                for idx, c in sorted(row.items())
            ]
            rows.append(terms)
        generators.append({"degree": g.degree, "rows": rows})
    print(
        json.dumps(
            {
                "schema": BASIS_SCHEMA,
                "horizon": result.horizon,
                "image_dims": {str(k): v for k, v in sorted(result.image_dims.items())},
                "generators": generators,
            },
            sort_keys=True,
        )
    )
    return 0
