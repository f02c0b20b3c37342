"""Every annotation in ``repro`` names something its module can resolve.

Modules use ``from __future__ import annotations``, so an annotation is a
string nothing evaluates at import time: a type used in a signature but
never imported only shows when ``typing.get_type_hints`` (or a caller
like ``dataclasses`` or a documentation tool) reads it.  Python 3.9,
the oldest supported, cannot evaluate a ``X | None`` union (it raises
``TypeError``), so annotations spell unions with ``Optional``.
"""

import ast
import importlib
import inspect
import pkgutil
import typing

import repro


def _defined_objects():
    """Functions and classes defined in ``repro`` modules, with the
    functions defined in those classes' bodies."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield obj
            elif inspect.isclass(obj):
                yield obj
                for member in vars(obj).values():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    if inspect.isfunction(member):
                        yield member


def _is_pep604_union(annotation) -> bool:
    return isinstance(annotation, str) and any(
        isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr)
        for node in ast.walk(ast.parse(annotation, mode="eval")))


def test_every_annotation_resolves():
    """Unions are found in the annotation text, so a newer interpreter,
    which would evaluate them, still reports them."""
    objects = list(_defined_objects())
    unresolved = []
    for obj in objects:
        name = f"{obj.__module__}.{obj.__qualname__}"
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved.append(f"{name}: {exc}")
        unresolved.extend(
            f"{name}: {annotation} does not evaluate on Python 3.9"
            for annotation in getattr(obj, "__annotations__", {}).values()
            if _is_pep604_union(annotation))
    assert len(objects) > 1000
    assert not unresolved, "\n".join(unresolved)
