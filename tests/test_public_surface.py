"""Every public top-level function or class of cherpoi, and every public
method of a public class, has a caller.

A name defined at the top level of src/cherpoi/*.py without a leading
underscore, or a method without one in such a class's body, must be named
somewhere in src/cherpoi or bench/*.py outside its own definition, or sit in
KEEP (a method as "Class.method"). A name counts as an identifier, an
attribute, an imported name, or a dot-separated part of a string constant
other than a docstring: the CLI's suite registry and the bench's trace
targets name functions by string. An identifier that a function binds, as a
parameter or an assignment target, does not count inside that function: a
local variable calls no public function of its name. Tests do not count, so
a public name that only its own unit test calls fails here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cherpoi"

# test-only names kept on purpose: they state the paper's formulas, read the
# CLI's own JSON back, or are the references that tests check faster routes
# against (Tableau.maj for fake_degree_maj)
KEEP = {
    "Tableau.maj",
    "dominance_leq",
    "integral_form_scalar",
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


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _bound(func):
    """The names a function binds in its own scope: its parameters and its
    Store targets outside nested definitions."""
    args = func.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a}
    stack = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, DEFINITIONS):
            stack.extend(ast.iter_child_nodes(node))
    return names


def _names(node, docstrings, local=frozenset()):
    """Every name that the subtree mentions, less each definition's mentions
    of its own name, since recursion is not a caller, and less the plain
    names that a function binds, read inside it: a local is not a caller."""
    names = set()
    if isinstance(node, FUNCTIONS):
        local = local | _bound(node)
    if isinstance(node, ast.Name):
        if node.id not in local:
            names.add(node.id)
    elif isinstance(node, ast.Attribute):
        names.add(node.attr)
    elif isinstance(node, ast.alias):
        names.update(node.name.split("."))
    elif (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in docstrings
    ):
        names.update(node.value.split("."))
    for child in ast.iter_child_nodes(node):
        names |= _names(child, docstrings, local)
    if isinstance(node, DEFINITIONS):
        names.discard(node.name)
    return names


def _public_definitions(tree):
    """(qualified name, name) of each public top-level definition and of each
    public method of a public top-level class."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, DEFINITIONS) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member.name


def _uncalled_public_names():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    used = set()
    defined = {}
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.parent == PACKAGE:
            for qualified, name in _public_definitions(tree):
                defined[qualified] = (name, path.name)
        used |= _names(tree, _docstrings(tree))
    return {qualified: module for qualified, (name, module) in defined.items() if name not in used}


def test_every_public_name_has_a_caller_or_is_kept():
    uncalled = _uncalled_public_names()
    flagged = sorted(f"{module}:{name}" for name, module in uncalled.items() if name not in KEEP)
    assert flagged == []


def test_the_keep_list_names_only_uncalled_public_names():
    # a kept name that gains a caller, or disappears, leaves the list
    assert KEEP <= set(_uncalled_public_names())


# private names that only their owners may name in src/cherpoi: the sparse
# kernel belongs to exact_poly and the oracle, which packs its own keys
# with _key; LaurentPoly's keys are packed, decoded and wrapped raw only in
# exact_poly; products of binomials 1 - v^i are multiplied out and divided
# only by exact_poly's kernel, whose dense lists become polynomials only
# through _from_coeffs, for exact_poly's [n]_v! and sn_rep's fake degrees;
# z_rho is read only through sn_rep's class average; partition labels are
# rendered only by the report and the two subcommands that print tables, so
# a suite hands over raw keys
OWNERS = {
    "_mul_packed": {"exact_poly.py", "commutative_oracle.py"},
    "_add_into": {"exact_poly.py", "commutative_oracle.py"},
    "_key": {"commutative_oracle.py"},
    "_pack": {"exact_poly.py"},
    "_unpack": {"exact_poly.py"},
    "_build": {"exact_poly.py"},
    "_binomial_quotient": {"exact_poly.py", "sn_rep.py"},
    "_from_coeffs": {"exact_poly.py", "sn_rep.py"},
    "_label": {"report.py", "cli_oracle.py", "cli_table.py"},
    "centralizer_order": {"sn_rep.py"},
}


def test_private_kernels_are_named_only_by_their_owners():
    strays = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name in _names(tree, _docstrings(tree)) & OWNERS.keys():
            if path.name not in OWNERS[name]:
                strays.add(f"{path.name}:{name}")
    assert strays == set()


# the window expansion works on exponent pairs and hands its window to the
# LaurentPoly constructor, so it names nothing of the key layout: no slot
# width, no packing or unpacking, no raw wrap and no hand-made 2^63 check
KEY_LAYOUT = {"_SLOT", "_HALF", "_pack", "_unpack", "_build", "MAX_EXPONENT"}


def test_the_window_expansion_keeps_no_key_layout():
    tree = ast.parse((PACKAGE / "exact_poly.py").read_text())
    (func,) = [node for node in tree.body if isinstance(node, FUNCTIONS) and node.name == "expand_window"]
    assert _names(func, _docstrings(tree)) & KEY_LAYOUT == set()


# a public memo keys on its raw arguments unless partition_core.memo checks
# them first: bare, character_value answered 0 for (1, 2) and hit the entry
# of (1,) for (True,); private memos (_engine, _ssyt_count, ...) are fed
# checked arguments by their owners
BARE_MEMOS = {"cache", "lru_cache"}


def _bare_memo(decorator):
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = decorator.attr if isinstance(decorator, ast.Attribute) else getattr(decorator, "id", None)
    return name in BARE_MEMOS


def test_no_public_function_carries_a_bare_cache():
    bare = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, FUNCTIONS) and not node.name.startswith("_"):
                if any(_bare_memo(d) for d in node.decorator_list):
                    bare.append(f"{path.name}:{node.name}")
    assert bare == []


# attributes that would reach a memoized function past its door: raw, the
# memo without the door, and functools.wraps' __wrapped__, the function
# without either, which answered 0 for the non-partition (1, 2)
SIDE_ENTRANCES = {"raw", "__wrapped__"}


def test_a_memo_is_reached_only_through_its_door():
    # character_value once recursed on character_value.raw; a recursion past
    # the door keeps a private memo of its own
    from cherpoi.partition_core import memo
    from cherpoi.sn_rep import character_value

    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in SIDE_ENTRANCES and not isinstance(node.ctx, ast.Del):
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []
    for name in SIDE_ENTRANCES:
        assert not hasattr(character_value, name)
        assert not hasattr(memo(lambda n: (n,))(abs), name)
