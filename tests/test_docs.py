"""Docstring cross-references name what the code holds.

Every Sphinx role (``:meth:``, ``:func:``, ``:class:``, ``:attr:``,
``:mod:``) in the docstrings of ``src/mpflow/*.py`` must resolve: as a
dotted attribute of its module or of ``mpflow`` (a leading ``mpflow.``
dropped), or, for a bare name, as an attribute of a class defined in its
module. So a name that the code drops cannot linger in a docstring.
"""

import ast
import importlib
import re
from pathlib import Path

import mpflow

SRC = Path(mpflow.__file__).parent
ROLE = re.compile(r":(?:meth|func|class|attr|mod):`~?([^`]+)`")
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
MISSING = object()


def roles():
    """(module, target) for each role in a docstring of the package."""
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"mpflow.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, DOCUMENTED):
                for target in ROLE.findall(ast.get_docstring(node) or ""):
                    yield module, target


def lookup(root, dotted):
    for name in dotted.split("."):
        root = getattr(root, name, MISSING)
    return root is not MISSING


def resolves(module, target):
    if lookup(module, target) or lookup(mpflow, target.removeprefix("mpflow.")):
        return True
    classes = [
        value
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    ]
    return "." not in target and any(hasattr(cls, target) for cls in classes)


def test_every_docstring_role_resolves():
    found = list(roles())
    unresolved = [(module.__name__, t) for module, t in found if not resolves(module, t)]
    assert found and unresolved == []


def test_a_role_naming_what_is_not_there_does_not_resolve():
    simnet = importlib.import_module("mpflow.simnet")
    assert resolves(simnet, "Simulation._end_train") and resolves(simnet, "_on_acks")
    assert resolves(simnet, "mpflow.report.TimelineReport")
    assert not resolves(simnet, "Simulation._push_timer")
    assert not resolves(simnet, "_push_timer")
    assert not resolves(simnet, "mpflow.report._push_timer")
