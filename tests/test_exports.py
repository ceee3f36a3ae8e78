"""The package exports only what it, its tools or its benchmark use.

A name in ``rectising.__all__``, or a public method or property of an
exported class, that only tests reach is not part of the engine: either
something outside the tests calls it, or it leaves the package.
"""

import ast
import functools
import types
from pathlib import Path

import rectising

ROOT = Path(__file__).resolve().parents[1]


def _used_names():
    """(used, attributes): every name that the code of the package (its
    ``__init__`` aside), of ``tools/`` and of ``perfbench/`` (its tests
    aside) reads, reads as an attribute, or imports as a module; and
    every attribute it reads."""
    files = [p for p in (ROOT / "src" / "rectising").glob("*.py")
             if p.name != "__init__.py"]
    files += (ROOT / "tools").glob("*.py")
    files += [p for p in (ROOT / "perfbench").glob("*.py")
              if not p.name.startswith("test_")]
    used, attributes = set(), set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
                if not isinstance(node.ctx, ast.Store):
                    attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update((node.module or "").split("."))
            elif isinstance(node, ast.Import):
                used.update(part for alias in node.names
                            for part in alias.name.split("."))
    return used, attributes


def test_every_export_is_used_outside_the_tests():
    used, _attributes = _used_names()
    assert sorted(n for n in rectising.__all__ if n not in used) == []


def test_every_exported_method_is_read_outside_the_tests():
    _used, attributes = _used_names()
    kinds = (types.FunctionType, property, functools.cached_property,
             staticmethod, classmethod)
    unread = sorted(
        f"{cls.__name__}.{name}"
        for cls in (getattr(rectising, n) for n in rectising.__all__)
        if isinstance(cls, type)
        for name, member in vars(cls).items()
        if not name.startswith("_") and isinstance(member, kinds)
        and name not in attributes)
    assert unread == []
