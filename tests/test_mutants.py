"""The mutation catalogue's structure, checked without running any mutant."""

import ast
from functools import cache
from pathlib import Path

from mutants import MUTANTS, ROOT


@cache
def _test_ids(path: Path) -> frozenset[str]:
    """The test ids of one file's test functions, as "name" or "Class::name"."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            names.update(f"{node.name}::{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef) and item.name.startswith("test"))
        elif isinstance(node, ast.FunctionDef) and node.name.startswith("test"):
            names.add(node.name)
    return frozenset(names)


def test_each_mutant_applies_once_and_names_existing_tests():
    assert len(MUTANTS) >= 25
    for path, snippet, replacement, tests in MUTANTS:
        assert (ROOT / path).read_text().count(snippet) == 1, (path, snippet)
        assert replacement != snippet and tests
        for test in tests:
            file, _, name = test.partition("::")
            # A parametrized id names its function before the "[".
            assert name.partition("[")[0] in _test_ids(ROOT / file), test
