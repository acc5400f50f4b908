"""Every annotation in cherpoi names something its module binds.

The modules import their compute dependencies inside the functions that use
them, so an annotation naming such a type reads fine but cannot be resolved:
typing.get_type_hints raises NameError on it. This walks every function
defined at the top level of a src/cherpoi module and every method of a class
defined there.
"""

import importlib
import inspect
import pkgutil
import sys
import typing

import cherpoi


def _functions():
    for info in pkgutil.iter_modules(cherpoi.__path__):
        module = importlib.import_module(f"cherpoi.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from elsewhere, or made by namedtuple
            if inspect.isfunction(obj):
                yield obj
            elif inspect.isclass(obj):
                for member in vars(obj).values():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    if inspect.isfunction(member) and member.__module__ == module.__name__:
                        yield member


def test_every_annotation_resolves():
    functions = list(_functions())
    names = {f"{f.__module__}.{f.__qualname__}" for f in functions}
    assert "cherpoi.commutative_oracle._Engine.j_basis" in names  # methods too
    assert len(functions) > 200
    unresolved = []
    for function in functions:
        try:
            # the module's namespace, not __globals__: a memoized function's
            # wrapper carries the annotations of the function it wraps, not
            # its globals, nor a __wrapped__ for get_type_hints to follow
            typing.get_type_hints(function, vars(sys.modules[function.__module__]))
        except NameError as exc:
            unresolved.append(f"{function.__module__}.{function.__qualname__}: {exc}")
    assert unresolved == []
