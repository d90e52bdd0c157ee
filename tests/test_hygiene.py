"""Source hygiene of the package, checked with the stdlib ast module only.

Every module except __init__.py (whose imports are the public re-exports)
must use each name it imports. A name counts as used when it appears as an
identifier anywhere in the module; a name written only inside a quoted
annotation does not count, so such annotations are left unquoted (every
module has `from __future__ import annotations`).

handshake.py reads every wire field through `encoding.unpack` of its message
record, so it calls none of the hand parsers (`from_hex`, `parse_did`, any
`from_mapping`). Its messages travel in the wire form only: it calls none of
the canonical JSON functions (`to_bytes`, `canonical_bytes`, `from_canonical`).

Only identity.py reads a document's key lists (`.public_keys`,
`.previous_keys`). Every other module asks the document who may sign for it
(`signing_key`, `authorizes`, `proof_key`), so the signing-authority rule has
one implementation.

Every class in crypto.py is an exception or a frozen dataclass: the suite
holds no per-session state, which lives in the session that uses it. Only
`ClaimOpening.commitment` calls `commitment_hash`, so the commitment rule is
written once. Only `Resolver.store_peer` calls `verify_peer_document`: a peer
document is checked once, where it enters the store, not again on resolve.

One rule makes a DID of any method: only `DocumentBody.derive_did` (the digest
of a genesis body) and `Did.from_wire` (the id read off the wire) call
`base58_encode`.
"""

import ast
import builtins
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
CANONICAL_JSON = frozenset({"to_bytes", "canonical_bytes", "from_canonical"})


def calls_to(source: str, functions: frozenset[str]) -> set[str]:
    """Which of `functions` a module calls, by bare name or as an attribute."""
    called = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in functions:
                called.add(name)
    return called


def test_handshake_reads_the_wire_only_through_the_codec():
    source = (PACKAGE / "handshake.py").read_text(encoding="utf-8")
    assert calls_to(source, HAND_PARSERS) == set()


def test_checker_flags_hand_parsing():
    source = (
        "from .encoding import decode, from_hex\n"
        "a = from_hex(text, 16)\n"
        "b = identity.parse_did(text)\n"
        "c = DidDocument.from_mapping(body['document'])\n"
        "d = decode(Hello, body)\n"
    )
    assert calls_to(source, HAND_PARSERS) == {"from_hex", "parse_did", "from_mapping"}


def test_handshake_has_one_wire_form():
    source = (PACKAGE / "handshake.py").read_text(encoding="utf-8")
    assert calls_to(source, CANONICAL_JSON) == set()


def test_checker_flags_canonical_json_on_the_wire():
    source = (
        "from .encoding import canonical_bytes, pack\n"
        "a = bytes([tag]) + body.to_bytes()\n"
        "b = canonical_bytes(encode(body))\n"
        "c = encoding.from_canonical(raw)\n"
        "d = bytes([tag]) + pack(body)\n"
        "e = unpack(Hello, raw)\n"
    )
    assert calls_to(source, CANONICAL_JSON) == {"to_bytes", "canonical_bytes", "from_canonical"}


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


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
        and any(k.arg == "frozen" and getattr(k.value, "value", None) is True for k in d.keywords)
        for d in node.decorator_list
    )


def stateful_classes(source: str) -> set[str]:
    """The top-level classes of a module that are neither an exception (a builtin
    exception's subclass, or one of the module's own) nor a frozen dataclass."""
    exceptions, found = set(), set()
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        bases = {getattr(base, "id", None) for base in node.bases}
        builtin = [getattr(builtins, name, None) for name in bases if name]
        if bases & exceptions or any(
            isinstance(tp, type) and issubclass(tp, BaseException) for tp in builtin
        ):
            exceptions.add(node.name)
        elif not _is_frozen_dataclass(node):
            found.add(node.name)
    return found


def test_crypto_keeps_no_per_session_state():
    assert stateful_classes((PACKAGE / "crypto.py").read_text(encoding="utf-8")) == set()


def test_checker_flags_a_stateful_class():
    source = (
        "class CryptoError(ValueError): pass\n"
        "class AuthenticationError(CryptoError): pass\n"
        "@dataclass(frozen=True)\nclass KeyPair:\n    public: bytes\n"
        "@dataclass\nclass Window:\n    highest: int\n"
        "class Counter:\n    def next(self): ...\n"
    )
    assert stateful_classes(source) == {"Window", "Counter"}


def callers_of(source: str, function: str) -> set[str]:
    """Where a module calls `function`, by bare name or as an attribute: the
    qualified name of each enclosing function, or `<module>` at top level."""
    callers = set()

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == function:
                callers.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return callers


def test_only_an_opening_computes_its_commitment():
    callers = set().union(*(
        callers_of((PACKAGE / module).read_text(encoding="utf-8"), "commitment_hash")
        for module in MODULES
    ))
    assert callers == {"ClaimOpening.commitment"}


def test_checker_flags_a_second_commitment_rule():
    source = (
        "class ClaimOpening:\n"
        "    def commitment(self):\n"
        "        return Commitment(self.name, commitment_hash(self.name, self.value, self.salt))\n"
        "def verify_presentation(p):\n"
        "    return credentials.commitment_hash(o.name, o.value, o.salt)\n"
        "DEFAULT = commitment_hash('a', 'b', bytes(16))\n"
    )
    assert callers_of(source, "commitment_hash") == {
        "ClaimOpening.commitment", "verify_presentation", "<module>",
    }


def test_only_the_peer_store_checks_a_peer_document():
    callers = {
        (module, scope)
        for module in MODULES
        for scope in callers_of(
            (PACKAGE / module).read_text(encoding="utf-8"), "verify_peer_document"
        )
    }
    assert callers == {("resolver.py", "Resolver.store_peer")}


def test_checker_flags_a_peer_document_check_on_resolve():
    source = (
        "class Resolver:\n"
        "    def store_peer(self, did, doc):\n"
        "        if not verify_peer_document(did, doc):\n"
        "            raise DocumentIntegrityError(did)\n"
        "    def _resolve_peer(self, did):\n"
        "        doc = self._peers[did]\n"
        "        return doc if identity.verify_peer_document(did, doc) else None\n"
    )
    assert callers_of(source, "verify_peer_document") == {
        "Resolver.store_peer", "Resolver._resolve_peer",
    }


def test_one_rule_derives_every_did():
    callers = {
        (module, scope)
        for module in MODULES
        for scope in callers_of((PACKAGE / module).read_text(encoding="utf-8"), "base58_encode")
    }
    assert callers == {("identity.py", "DocumentBody.derive_did"), ("identity.py", "Did.from_wire")}


def test_checker_flags_a_second_did_rule():
    source = (
        "def registered_did_for(public, hint=''):\n"
        "    return Did('reg', base58_encode(crypto.digest(public + hint.encode())))\n"
        "class DocumentBody:\n"
        "    def derive_did(self, method):\n"
        "        return Did(method, encoding.base58_encode(crypto.digest(self.to_bytes())))\n"
    )
    assert callers_of(source, "base58_encode") == {
        "registered_did_for", "DocumentBody.derive_did",
    }
