"""Source hygiene of the package, checked with the stdlib ast module only.

Every module except __init__.py (whose imports are the public re-exports)
must use each name it imports. A name counts as used when it appears as an
identifier anywhere in the module; a name written only inside a quoted
annotation does not count, so such annotations are left unquoted (every
module has `from __future__ import annotations`).

handshake.py reads every wire field through `encoding.decode` of its message
record, so it calls none of the hand parsers (`from_hex`, `parse_did`, any
`from_mapping`).

Only identity.py reads a document's key lists (`.public_keys`,
`.previous_keys`). Every other module asks the document who may sign for it
(`signing_key`, `authorizes`, `proof_key`), so the signing-authority rule has
one implementation.
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


HAND_PARSERS = frozenset({"from_hex", "parse_did", "from_mapping"})


def hand_parser_calls(source: str) -> set[str]:
    """The hand parsers a module calls, by bare name or as an attribute."""
    called = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in HAND_PARSERS:
                called.add(name)
    return called


def test_handshake_reads_the_wire_only_through_the_codec():
    assert hand_parser_calls((PACKAGE / "handshake.py").read_text(encoding="utf-8")) == set()


def test_checker_flags_hand_parsing():
    source = (
        "from .encoding import decode, from_hex\n"
        "a = from_hex(text, 16)\n"
        "b = identity.parse_did(text)\n"
        "c = DidDocument.from_mapping(body['document'])\n"
        "d = decode(Hello, body)\n"
    )
    assert hand_parser_calls(source) == {"from_hex", "parse_did", "from_mapping"}


KEY_LISTS = frozenset({"public_keys", "previous_keys"})


def key_list_reads(source: str) -> set[str]:
    """The document key lists a module reads as attributes."""
    return {
        node.attr for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in KEY_LISTS
    }


@pytest.mark.parametrize("module", [m for m in MODULES if m != "identity.py"])
def test_only_identity_reads_document_key_lists(module):
    assert key_list_reads((PACKAGE / module).read_text(encoding="utf-8")) == set()


def test_checker_flags_key_list_reads():
    source = (
        "a = {k.public for k in doc.public_keys}\n"
        "b = next(k for k in self.peer_document.previous_keys)\n"
    )
    assert key_list_reads(source) == {"public_keys", "previous_keys"}
    # Building a document by keyword, or asking it, reads no key list.
    assert key_list_reads("c = DidDocument(id=did, public_keys=keys).signing_key(k)\n") == set()
