"""How the modules of ``src/waylab`` depend on each other, read from their source."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "waylab"

#: Names of the JSON text layout's writer and strict reader, which only ``jsonio`` may hold.
_LAYOUT = re.compile(r"_json(_|$)|_sector_|_numbers$")


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _private_imports(tree):
    """``(module, name)`` of each underscore name the module imports from another waylab module."""
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    ]


def _defined(tree):
    """Every function, class and assigned name in the module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id


def test_only_jsonio_holds_the_text_layout():
    modules = _modules()
    for module, tree in modules.items():
        names = [*_defined(tree), *(name for _, name in _private_imports(tree))]
        held = [name for name in names if _LAYOUT.match(name)]
        assert module == "jsonio" or not held, (module, held)
    graded = ast.walk(modules["graded"])
    assert "json" not in [a.name for n in graded if isinstance(n, ast.Import) for a in n.names]


def test_few_private_names_cross_modules():
    imported = [pair for tree in _modules().values() for pair in _private_imports(tree)]
    assert len(imported) <= 23
    assert sum(module == "graded" for module, _ in imported) <= 19
