"""Every public top-level function or class of cherpoi has a caller.

A name defined at the top level of src/cherpoi/*.py without a leading
underscore must be named somewhere in src/cherpoi or bench/*.py outside its
own definition, or sit in KEEP. A name counts as an identifier, an
attribute, an imported name, or a dot-separated part of a string constant
other than a docstring: the CLI's suite registry and the bench's trace
targets name functions by string. Tests do not count, so a public name that
only its own unit test calls fails here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cherpoi"

# test-only names kept on purpose: they state the paper's formulas or the
# graded-free lemma's steps, read the CLI's own JSON back, or are the
# references that tests check faster routes against
KEEP = {
    "apply_matrix",
    "dominance_leq",
    "eilenberg_homogenize",
    "minimal_expression",
    "rf_from_json",
    "shift_amount",
    "sign_first_occurrence",
    "standard_series_W",
    "triv_first_occurrence",
}


def _docstrings(tree):
    """The string constants that are docstrings of the module, a class or a function."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                out.add(id(body[0].value))
    return out


def _names(node, docstrings):
    """Every name that the subtree mentions."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield from sub.name.split(".")
        elif (
            isinstance(sub, ast.Constant)
            and isinstance(sub.value, str)
            and id(sub) not in docstrings
        ):
            yield from sub.value.split(".")


def _public_definitions(tree):
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def _uncalled_public_names():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    used = set()
    defined = {}
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        docstrings = _docstrings(tree)
        own = {}
        if path.parent == PACKAGE:
            for node in _public_definitions(tree):
                own[id(node)] = node.name
                defined[node.name] = path.name
        for stmt in tree.body:
            names = set(_names(stmt, docstrings))
            # a definition's mention of itself (recursion) is not a caller
            names.discard(own.get(id(stmt)))
            used |= names
    return {name: module for name, module in defined.items() if name not in used}


def test_every_public_name_has_a_caller_or_is_kept():
    uncalled = _uncalled_public_names()
    flagged = sorted(f"{module}:{name}" for name, module in uncalled.items() if name not in KEEP)
    assert flagged == []


def test_the_keep_list_names_only_uncalled_public_names():
    # a kept name that gains a caller, or disappears, leaves the list
    assert KEEP <= set(_uncalled_public_names())
