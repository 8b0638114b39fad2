"""No function in the library calls itself by name.

A walk that recurses once per state, position or nesting level overflows
Python's stack on large inputs, so every walk is written as a loop.  This
check finds a call, inside a function, of that function or of one that
encloses it: `name(...)`, or `self.name(...)` / `cls.name(...)` inside a
method.  `super().name(...)` calls another class's method and is not
counted.  Uses only `ast`, like `test_unused_imports.py`; it only reads
the files.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _sources():
    folder = os.path.join(ROOT, "src", "pgakit")
    assert os.path.isdir(folder), folder
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            yield os.path.join(folder, name)


def _self_calls(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    found = []
    # (node, functions it may call by bare name, methods it may call on self)
    stack = [(tree, (), ())]
    while stack:
        node, names, methods = stack.pop()
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in names:
                found.append(f"{func.id} (line {node.lineno})")
            elif (isinstance(func, ast.Attribute) and func.attr in methods
                  and isinstance(func.value, ast.Name) and func.value.id in ("self", "cls")):
                found.append(f"{func.attr} (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                stack.append((child, names, ()))
            elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.append((child, names, methods))
            elif isinstance(node, ast.ClassDef):
                stack.append((child, names, methods + (child.name,)))
            else:
                stack.append((child, names + (child.name,), methods))
    return sorted(found)


def test_finds_direct_and_nested_self_calls(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "def walk(n):\n"
        "    return walk(n - 1)\n"
        "def outer():\n"
        "    def inner():\n"
        "        outer()\n"
        "class A(B):\n"
        "    def apply(self, m):\n"
        "        super().apply(m)\n"
        "        return self.apply(m)\n"
        "    def __init__(self):\n"
        "        super().__init__()\n"
        "    def walk(self):\n"
        "        return walk(1)\n"
        "def fine():\n"
        "    return walk(1)\n"
    )
    assert _self_calls(str(path)) == ["apply (line 9)", "outer (line 5)", "walk (line 2)"]


def test_no_function_calls_itself():
    calls = {}
    for path in _sources():
        names = _self_calls(path)
        if names:
            calls[os.path.relpath(path, ROOT)] = names
    assert calls == {}
