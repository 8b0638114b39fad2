"""Every name a module imports is used in it.

Covers the library modules, except `__init__.py`, whose imports are its
public names, the tests and the benchmark; a missing root fails the check.
Uses only `ast`, so it needs no linter; it only reads the files.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _sources():
    for parts in (("src", "pgakit"), ("tests",), ("perfbench",)):
        folder = os.path.join(ROOT, *parts)
        assert os.path.isdir(folder), folder
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py") and name != "__init__.py":
                yield os.path.join(folder, name)


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            yield node.annotation
        elif isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns


def _unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    imported = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a quoted annotation such as Tuple["Service", Reply] names a type too
    for note in _annotations(tree):
        for node in ast.walk(note):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_no_module_imports_a_name_it_does_not_use():
    unused = {}
    for path in _sources():
        names = _unused_imports(path)
        if names:
            unused[os.path.relpath(path, ROOT)] = names
    assert unused == {}
