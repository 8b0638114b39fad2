"""The mutant list of `tests/mutants.py` still fits the code and the tests.

No mutant runs here.  Each entry's old text must occur exactly once in
its library file and differ from the new text, and every test it names
must be a test function of a test file, so that a refactor of either
side cannot leave the list stale.  Uses only `ast`; it only reads the
files.
"""

import ast
import os
import re

from mutants import MUTANTS
from test_unused_definitions import LIBRARY, _definitions, _parse

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tests_in(path):
    return {node.name for node in _parse(path).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}


def test_every_old_text_occurs_once():
    for m in MUTANTS:
        with open(os.path.join(LIBRARY, m.file), encoding="utf-8") as fh:
            text = fh.read()
        assert text.count(m.old) == 1, m.what
        assert m.new != m.old, m.what


def test_every_named_test_exists():
    found = {}
    for m in MUTANTS:
        assert m.tests, m.what
        for node_id in m.tests:
            path, _, name = node_id.partition("::")
            assert re.fullmatch(r"tests/test_\w+\.py", path), node_id
            if path not in found:
                found[path] = _tests_in(os.path.join(ROOT, path))
            assert name in found[path], node_id


def test_entries_are_told_apart_and_name_no_definition():
    # `test_unused_definitions.py` counts a string that spells a name as a
    # use of that name, so no field may spell a library definition
    library = {name for file in os.listdir(LIBRARY) if file.endswith(".py")
               for name, _ in _definitions(_parse(os.path.join(LIBRARY, file)))}
    assert len({m.what for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m.equivalent is None or m.equivalent.strip(), m.what
        for text in (m.what, m.old, m.new, m.equivalent or "", *m.tests):
            if re.fullmatch(r"[\w.]+", text):
                assert text.rsplit(".", 1)[-1] not in library, (m.what, text)
