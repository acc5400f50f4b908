"""Reference arithmetic on {exponent tuple: coefficient} dicts, shared by the
tests that check exact_poly's packed-key kernel against it."""

from operator import add


def ref_mul(a: dict, b: dict) -> dict:
    """Product of two {exponent tuple: coefficient} dicts, term by term: a
    reference that shares no packing with exact_poly's kernel."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out
