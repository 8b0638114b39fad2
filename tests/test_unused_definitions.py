"""Every module-level function, class and name of the library is used.

A definition in `src/pgakit/*.py` must be named somewhere besides its own
definition and its re-export in `__init__.py`: in the library, the tests
or the benchmark.  A string that is a whole name or a dotted path to one
(`getattr`, `monkeypatch.setattr`) names it too; a docstring does not.
Dunder names are exempt.  A missing root fails the check.  Uses only
`ast`, and only reads the files.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIBRARY = os.path.join(ROOT, "src", "pgakit")


def _sources():
    for root in ("src", "tests", "perfbench"):
        top = os.path.join(ROOT, root)
        assert os.path.isdir(top), top
        for folder, _, names in sorted(os.walk(top)):
            for name in sorted(names):
                if name.endswith(".py"):
                    yield os.path.join(folder, name)


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def _definitions(tree):
    """Module-level names a library module defines, with their lines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                yield body[0].value


def _mentions(tree, reexports):
    """Names a file uses: loaded names, attributes, imported names and
    strings that spell a dotted name; but not the re-exports of
    `__init__.py`, by import or in `__all__`."""
    docs = {id(node) for node in _docstrings(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif reexports:
            continue
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs and re.fullmatch(r"[\w.]+", node.value)):
            yield node.value.rsplit(".", 1)[-1]


def test_every_library_definition_is_named_elsewhere():
    defined = {}  # name -> "module:line"
    for name in sorted(os.listdir(LIBRARY)):
        if name.endswith(".py"):
            for symbol, line in _definitions(_parse(os.path.join(LIBRARY, name))):
                if not (symbol.startswith("__") and symbol.endswith("__")):
                    defined[symbol] = f"{name}:{line}"
    used = set()
    for path in _sources():
        reexports = path == os.path.join(LIBRARY, "__init__.py")
        used.update(_mentions(_parse(path), reexports))
    assert {name: at for name, at in defined.items() if name not in used} == {}
