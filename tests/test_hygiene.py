"""Source hygiene of the package, checked with the stdlib ast module only.

Every module except __init__.py (whose imports are the public re-exports)
must use each name it imports. A name counts as used when it appears as an
identifier anywhere in the module; a name written only inside a quoted
annotation does not count, so such annotations are left unquoted (every
module has `from __future__ import annotations`).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tinyssi"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported_names(tree) - used


def test_package_has_modules():
    assert "wallet.py" in MODULES and "harness.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == set()


def test_checker_flags_an_unused_import():
    source = "import os\nfrom typing import Any, Iterable\nfrom . import crypto as c\nx: Any = c\n"
    assert unused_imports(source) == {"os", "Iterable"}
