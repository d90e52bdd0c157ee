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

The registry parses and verifies a record once, when a snapshot loads: in
resolver.py only `Registry.from_snapshot` calls `from_bytes` or `verify`, so a
lookup reads the parsed document and a write asks the parsed version before it.

One rule makes a DID of any method: only `DocumentBody.derive_did` (the digest
of a genesis body) and `Did.from_wire` (the id read off the wire) call
`base58_encode`. One rule names a key whose maker names none: only
`crypto._key_id` writes the `f"{purpose}-…"` format, for
`crypto.default_key_id`, which `keygen` and a key read off the wire ask, and
for `crypto.KeyId`, the one byte form of a signing key id on the wire. Only
the codec parses hex.

One rule says how a value travels other than as its own layout: an
`encoding.WireForm`, declared on its type (`WIRE`) or on a text field
(`Annotated[str, form]`). No module defines the retired `wire_form` hook, and
only encoding.py looks a form up by attribute name, in `WireForm.of`.
Text that travels as bytes has one rule, `encoding.text_as_bytes`.

One rule picks the ACK that rides a data frame: only `Messenger._transmit`
calls `SimLink.transmit` with an ACK riding (a third argument, or `ack=`).
Every other call puts one frame on the link alone.

One rule sends an answer again: only `Messenger.check_timer` reads
`_Outbound.answers`, the peer message an outbound message answers, whose
copy sends the answer again, last or not.

The frame layout has one home, `transport.Frame`: only `Frame.encode` and
`Frame._read` (which `Frame.decode` and `decode_packet` call) use the header
structs, `_HEAD` and `_FRAGMENT`, so a whole frame and a fragment are
written and read in one place.

One rule splits a handshake leg: only `handshake.split_leg` walks one, by
`encoding.item_end`, the end of each message's one CBOR item, since a leg is
its messages back to back. No module writes or reads a 2-byte big-endian
length prefix (a `struct.Struct(">H")` packed, `struct.pack(">H", …)` or
`n.to_bytes(2, "big")`), and harness.py imports no `struct`. No counter
travels in a sealed record: each channel nonce is built from a count the
session keeps (`self._sealed`, `self._opened`), never from what a record
holds.

Message ids wrap in one place each way: only `Messenger.send` (which takes
the next id) and `Messenger._receive_state` (which tells a stale copy by how
far its id trails the last delivered one) do 16-bit modular arithmetic, a
`% 0x10000` or a `& 0xFFFF`.
"""

import ast
import builtins
import typing
from pathlib import Path

import pytest

from tinyssi import crypto
from tinyssi.credentials import Proof

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


def _name(node: ast.AST) -> str | None:
    """The name a bare name or an attribute ends in."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def scopes_holding(source: str, wanted) -> set[str]:
    """Where a module holds a node that `wanted(node)` accepts: the qualified
    name of each enclosing function, or `<module>` at top level."""
    scopes = set()

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        if wanted(node):
            scopes.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return scopes


def callers_of(source: str, function: str) -> set[str]:
    """Where a module calls `function`, by bare name or as an attribute."""
    return scopes_holding(
        source, lambda node: isinstance(node, ast.Call) and _name(node.func) == function
    )


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


def _formats_a_key_id(node: ast.AST) -> bool:
    """An f-string that writes a purpose and then a "-": a key id's format."""
    parts = node.values if isinstance(node, ast.JoinedStr) else []
    return any(
        isinstance(part, ast.FormattedValue)
        and any("purpose" in (_name(n) or "").lower() for n in ast.walk(part.value))
        and isinstance(after, ast.Constant) and str(after.value).startswith("-")
        for part, after in zip(parts, parts[1:])
    )


def _package_callers(function: str) -> set[tuple[str, str]]:
    return {
        (module, scope)
        for module in MODULES
        for scope in callers_of((PACKAGE / module).read_text(encoding="utf-8"), function)
    }


def test_one_rule_names_a_default_key():
    formats = {
        (module, scope)
        for module in MODULES
        for scope in scopes_holding((PACKAGE / module).read_text(encoding="utf-8"),
                                    _formats_a_key_id)
    }
    # One formatter writes a key id from its purpose and digest prefix, for the
    # default id of a key and for the prefix a signing key id travels as.
    assert formats == {("crypto.py", "_key_id")}
    # A key id's byte form has one home, `crypto.KeyId`, which declares a proof's
    # key id (AUTH's too). Only crypto and credentials declare an id's byte
    # form, and nothing but the codec parses hex, so no module reads an id's
    # bytes off its text another way.
    hints = typing.get_type_hints(Proof, include_extras=True)
    assert hints["verification_key_id"] == crypto.KeyId
    assert _package_callers("hex_id") == {
        ("crypto.py", "<module>"), ("credentials.py", "<module>"),
    }
    assert _package_callers("fromhex") == {
        ("encoding.py", "from_hex"), ("encoding.py", "hex_id"),
    }
    # Text that travels as bytes, an id's or a DID's, has one rule.
    assert _package_callers("text_as_bytes") == {
        ("encoding.py", "hex_id"), ("credentials.py", "<module>"),
    }


def test_checker_flags_a_second_key_id_rule():
    source = (
        "def default_key_id(purpose, public):\n"
        "    return f\"{purpose}-{digest(public)[:4].hex()}\"\n"
        "class PublicKeyEntry:\n"
        "    def from_wire(cls, wire):\n"
        "        return f\"{crypto.PURPOSES[wire.purpose]}-{digest(wire.public)[:4].hex()}\"\n"
        "def keygen(purpose):\n"
        "    return f\"{kp.purpose}-{public.hex()}\", f\"{purpose}:{public.hex()}\"\n"
        "LABEL = f\"{name}-{n}\"\n"
        "class Auth:\n"
        "    def from_wire(cls, wire):\n"
        "        return cls(bytes.fromhex(wire.key_id[5:]), wire.signature)\n"
    )
    assert scopes_holding(source, _formats_a_key_id) == {
        "default_key_id", "PublicKeyEntry.from_wire", "keygen",
    }
    assert callers_of(source, "fromhex") == {"Auth.from_wire"}


def wire_form_hooks(source: str) -> set[str]:
    """How a module declares or finds a wire form other than by an `encoding.WireForm`
    on a type or field: each `wire_form` it defines, each attribute with "wire" in
    its name that it looks up by name (`getattr`, `hasattr`), and each read of a
    type's `WIRE`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == "wire_form":
            found.add("defines wire_form")
        elif isinstance(node, (ast.Name, ast.Attribute)) and _name(node) == "wire_form":
            if isinstance(node.ctx, ast.Store):
                found.add("defines wire_form")
        elif isinstance(node, ast.Call) and _name(node.func) in ("getattr", "hasattr"):
            attr = node.args[1] if len(node.args) > 1 else None
            if isinstance(attr, ast.Constant) and "wire" in str(attr.value).lower():
                found.add(f"{_name(node.func)} {attr.value}")
        if isinstance(node, ast.Attribute) and node.attr == "WIRE":
            if isinstance(node.ctx, ast.Load):
                found.add("reads WIRE")
    return found


@pytest.mark.parametrize("module", MODULES)
def test_only_the_codec_finds_a_wire_form(module):
    hooks = wire_form_hooks((PACKAGE / module).read_text(encoding="utf-8"))
    assert hooks == ({"getattr WIRE"} if module == "encoding.py" else set())


def test_checker_flags_a_second_wire_form_hook():
    cases = {
        "class Did:\n    wire_form = bytes\n": {"defines wire_form"},
        "class Did:\n    def wire_form(self): ...\n": {"defines wire_form"},
        "PublicKeyEntry.wire_form = _KeyWire\n": {"defines wire_form"},
        "a = hasattr(tp, 'from_wire')\n": {"hasattr from_wire"},
        "b = getattr(tp, 'wire_form', tp)\n": {"getattr wire_form"},
        "c = Did.WIRE.write(did)\n": {"reads WIRE"},
        # Declaring a form on a type, or asking the codec for one, is no second hook.
        "class Did:\n    WIRE = WireForm(bytes, to_wire, from_wire)\n": set(),
        "d = getattr(tp, 'from_text')\ne = WireForm.of(tp)\n": set(),
    }
    for source, hooks in cases.items():
        assert wire_form_hooks(source) == hooks, source


def test_registry_parses_only_on_load():
    source = (PACKAGE / "resolver.py").read_text(encoding="utf-8")
    assert callers_of(source, "from_bytes") == {"Registry.from_snapshot"}
    assert callers_of(source, "verify") == {"Registry.from_snapshot"}


def test_checker_flags_a_registry_parse_on_read():
    source = (
        "class Registry:\n"
        "    def lookup(self, did):\n"
        "        return DidDocument.from_bytes(self._log[-1].document)\n"
        "    def register(self, doc, kp):\n"
        "        if not crypto.verify(kp.public, doc.to_bytes(), crypto.sign(kp, doc)):\n"
        "            raise RegistryError(doc)\n"
        "    @classmethod\n"
        "    def from_snapshot(cls, raw):\n"
        "        doc = identity.DidDocument.from_bytes(raw)\n"
        "        return crypto.verify(key.public, raw, signature)\n"
    )
    assert callers_of(source, "from_bytes") == {"Registry.lookup", "Registry.from_snapshot"}
    assert callers_of(source, "verify") == {"Registry.register", "Registry.from_snapshot"}


def _rides_an_ack(node: ast.AST) -> bool:
    """A `transmit` call that passes an ACK to ride: a third argument, or `ack=`."""
    return (
        isinstance(node, ast.Call)
        and _name(node.func) == "transmit"
        and (len(node.args) > 2 or any(keyword.arg == "ack" for keyword in node.keywords))
    )


def test_one_rule_picks_the_riding_ack():
    riders = {
        (module, scope)
        for module in MODULES
        for scope in scopes_holding((PACKAGE / module).read_text(encoding="utf-8"),
                                    _rides_an_ack)
    }
    assert riders == {("transport.py", "Messenger._transmit")}


def test_checker_flags_a_second_riding_ack_rule():
    source = (
        "class Messenger:\n"
        "    def _transmit(self, frame):\n"
        "        self.link.transmit(self.endpoint, frame, self._ack(self._ack_due[0]))\n"
        "    def send_acks(self):\n"
        "        self.link.transmit(self.endpoint, self._ack(self._ack_due.pop()))\n"
        "    def _transmit_round(self):\n"
        "        for frame in self._sending.frames:\n"
        "            self.link.transmit(self.endpoint, frame, ack=self._newest_ack())\n"
        "def resend(link, frame):\n"
        "    link.transmit('A', frame, None)\n"
    )
    assert scopes_holding(source, _rides_an_ack) == {
        "Messenger._transmit", "Messenger._transmit_round", "resend",
    }


def _mentions_the_last_flag(node: ast.AST) -> bool:
    return any(_name(n) == "FLAG_LAST" for n in ast.walk(node) if isinstance(n, ast.Name))


def _only_flags(node: ast.AST) -> bool:
    """A mask: flag constants joined by `|`."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _only_flags(node.left) and _only_flags(node.right)
    return isinstance(node, ast.Name) and node.id.startswith("FLAG_")


def _sets_the_last_flag(node: ast.AST) -> bool:
    """An expression that sets FLAG_LAST on a frame: `flags | FLAG_LAST` or
    `flags |= FLAG_LAST` (a mask of flag constants alone sets nothing), or
    FLAG_LAST in the flags passed by keyword or as a Frame's first argument."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _mentions_the_last_flag(node) and not _only_flags(node) and (
            _name(node.left) == "FLAG_LAST" or _name(node.right) == "FLAG_LAST"
        )
    if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.BitOr):
        return _mentions_the_last_flag(node.value)
    if isinstance(node, ast.keyword):
        return node.arg == "flags" and _mentions_the_last_flag(node.value)
    return (
        isinstance(node, ast.Call) and _name(node.func) == "Frame"
        and bool(node.args) and _mentions_the_last_flag(node.args[0])
    )


def test_one_rule_sends_a_frame_last():
    setters = {
        (module, scope)
        for module in MODULES
        for scope in scopes_holding((PACKAGE / module).read_text(encoding="utf-8"),
                                    _sets_the_last_flag)
    }
    assert setters == {("transport.py", "Messenger.send")}


def test_checker_flags_a_second_last_flag_rule():
    source = (
        "class Messenger:\n"
        "    def send(self, message, last=False):\n"
        "        self._transmit(replace(frames[0], flags=flags | FLAG_LAST))\n"
        "    def check_timer(self):\n"
        "        frame = Frame(FLAG_LAST, out.message_id, 0, 1, payload)\n"
        "    def _transmit_round(self):\n"
        "        flags = 0\n"
        "        flags |= FLAG_LAST\n"
        "def resend(frame):\n"
        "    return replace(frame, flags=FLAG_LAST)\n"
        "def is_last(frame):\n"
        "    return bool(frame.flags & FLAG_LAST)\n"
        "def refuse(flags):\n"
        "    return flags & ~(FLAG_ACK | FLAG_WHOLE | FLAG_LAST)\n"
        "def ack(frame):\n"
        "    return replace(frame, flags=frame.flags | FLAG_ACK)\n"
    )
    assert scopes_holding(source, _sets_the_last_flag) == {
        "Messenger.send", "Messenger.check_timer", "Messenger._transmit_round", "resend",
    }


def _reads_what_it_answers(node: ast.AST) -> bool:
    """A read of the peer message an outbound message answers: `.answers`
    loaded, or `getattr(…, "answers")`."""
    if isinstance(node, ast.Attribute):
        return node.attr == "answers" and isinstance(node.ctx, ast.Load)
    return (
        isinstance(node, ast.Call) and _name(node.func) == "getattr" and len(node.args) > 1
        and isinstance(node.args[1], ast.Constant) and node.args[1].value == "answers"
    )


def test_one_rule_sends_an_answer_again():
    readers = {
        (module, scope)
        for module in MODULES
        for scope in scopes_holding((PACKAGE / module).read_text(encoding="utf-8"),
                                    _reads_what_it_answers)
    }
    assert readers == {("transport.py", "Messenger.check_timer")}


def test_checker_flags_a_second_answer_resend_rule():
    source = (
        "class Messenger:\n"
        "    def check_timer(self):\n"
        "        copied = self._sending.answers in self._ack_due\n"
        "    def _take(self, frame, state):\n"
        "        if self._last and self._last.answers == frame.message_id:\n"
        "            self._transmit_round()\n"
        "    def send(self, message, last=False):\n"
        "        out = _Outbound(message_id, frames, count, answers=answers)\n"
        "        out.answers = self._delivered\n"
        "def resend(out, due):\n"
        "    return getattr(out, 'answers') in due\n"
        "def other(out):\n"
        "    return getattr(out, 'rounds')\n"
    )
    assert scopes_holding(source, _reads_what_it_answers) == {
        "Messenger.check_timer", "Messenger._take", "resend",
    }


HEADER_STRUCTS = frozenset({"_HEAD", "_FRAGMENT"})


def header_struct_users(source: str) -> set[str]:
    """Where a module names a frame header struct, its definition aside."""
    return scopes_holding(
        source, lambda node: isinstance(node, ast.Name) and node.id in HEADER_STRUCTS
        and isinstance(node.ctx, ast.Load)
    )


def test_only_the_frame_codec_lays_out_a_frame():
    users = {
        (module, scope)
        for module in MODULES
        for scope in header_struct_users((PACKAGE / module).read_text(encoding="utf-8"))
    }
    assert users == {("transport.py", "Frame.encode"), ("transport.py", "Frame._read")}


def test_checker_flags_a_second_frame_layout():
    source = (
        "_HEAD = struct.Struct('>BBH')\n"
        "class Frame:\n"
        "    def encode(self):\n"
        "        return _HEAD.pack(0xD1, self.flags, self.message_id)\n"
        "def decode_packet(raw):\n"
        "    magic, flags, message_id = _HEAD.unpack_from(raw)\n"
        "    index, count = _FRAGMENT.unpack_from(raw, 4)\n"
    )
    assert header_struct_users(source) == {"Frame.encode", "decode_packet"}


def _wraps_an_id(node: ast.AST) -> bool:
    """16-bit modular arithmetic: `x % 0x10000` or `x & 0xFFFF`."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.right, ast.Constant)
        and (isinstance(node.op, ast.Mod) and node.right.value == 0x10000
             or isinstance(node.op, ast.BitAnd) and node.right.value == 0xFFFF)
    )


def test_one_rule_wraps_message_ids():
    wrappers = {
        (module, scope)
        for module in MODULES
        for scope in scopes_holding((PACKAGE / module).read_text(encoding="utf-8"), _wraps_an_id)
    }
    assert wrappers == {("transport.py", "Messenger.send"), ("transport.py", "Messenger._receive_state")}


def test_checker_flags_a_second_id_wrap():
    source = (
        "class Messenger:\n"
        "    def send(self, message):\n"
        "        message_id = (self._sent_id + 1) % 0x10000\n"
        "    def _receive_state(self, frame):\n"
        "        behind = (self._delivered - frame.message_id) % 0x10000\n"
        "    def _ack(self, message_id):\n"
        "        return message_id == (self._delivered + 1) & 0xFFFF\n"
        "class SimLink:\n"
        "    def allocate_message_id(self):\n"
        "        self._next_message_id = (self._next_message_id + 1) % 0x10000\n"
        "LIMIT = 0xFFFF % 7\n"
    )
    assert scopes_holding(source, _wraps_an_id) == {
        "Messenger.send", "Messenger._receive_state", "Messenger._ack",
        "SimLink.allocate_message_id",
    }


LENGTH_FORMAT = ">H"
LENGTH_WRITES = frozenset({"pack", "to_bytes"})
LENGTH_READS = frozenset({"unpack", "unpack_from"})


def length_structs(source: str) -> set[str]:
    """The names a module binds to a length-prefix struct, `struct.Struct(">H")`."""
    return {
        target.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
        and _name(node.value.func) == "Struct"
        and [a.value for a in node.value.args if isinstance(a, ast.Constant)] == [LENGTH_FORMAT]
        for target in node.targets if isinstance(target, ast.Name)
    }


def length_prefix_scopes(source: str, methods: frozenset[str]) -> set[str]:
    """Where a module calls one of `methods` on a 2-byte big-endian length: through
    a length-prefix struct, as `struct.<method>(">H", …)`, or as `.to_bytes(2, "big")`."""
    structs = length_structs(source)

    def handles_a_length(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call) or _name(node.func) not in methods:
            return False
        constants = [a.value for a in node.args[:2] if isinstance(a, ast.Constant)]
        return (
            _name(getattr(node.func, "value", None)) in structs
            or constants[:1] == [LENGTH_FORMAT]
            or constants == [2, "big"]
        )

    return scopes_holding(source, handles_a_length)


def _nonce_of_a_wire_count(node: ast.AST) -> bool:
    """A channel nonce whose counter is not a count the session keeps: it holds
    a name other than `self`, a call or a subscript."""
    if not (isinstance(node, ast.Call) and _name(node.func) == "channel_nonce" and node.args):
        return False
    return any(
        isinstance(n, (ast.Call, ast.Subscript)) or isinstance(n, ast.Name) and n.id != "self"
        for n in ast.walk(node.args[-1])
    )


def test_one_rule_splits_a_leg():
    sources = {module: (PACKAGE / module).read_text(encoding="utf-8") for module in MODULES}
    assert _package_callers("item_end") == {("handshake.py", "split_leg")}
    for source in sources.values():
        assert length_prefix_scopes(source, LENGTH_WRITES | LENGTH_READS) == set()
    assert "struct" not in imported_names(ast.parse(sources["harness.py"]))
    assert _package_callers("channel_nonce") == {
        ("handshake.py", "HandshakeSession._seal"), ("handshake.py", "HandshakeSession._open"),
    }
    assert scopes_holding(sources["handshake.py"], _nonce_of_a_wire_count) == set()


def test_checker_flags_a_second_leg_split():
    source = (
        "import struct\n"
        "_LENGTH = struct.Struct('>H')\n"
        "_HEAD = struct.Struct('>BBH')\n"
        "def _join(leg):\n"
        "    return b''.join(_LENGTH.pack(len(m)) + m for m in leg)\n"
        "def _split(payload):\n"
        "    def message_end(raw, at):\n"
        "        return _LENGTH.unpack_from(raw, at)[0]\n"
        "def split_leg(leg):\n"
        "    return item_end(leg, 1)\n"
        "class Messenger:\n"
        "    def send(self, *messages):\n"
        "        payload = b''.join(struct.pack('>H', len(m)) + m for m in messages)\n"
        "    def _take(self, payload):\n"
        "        (length,) = struct.unpack('>H', payload[:2])\n"
        "        end = item_end(payload, 1)\n"
        "def batch(messages):\n"
        "    return b''.join(len(m).to_bytes(2, 'big') + m for m in messages)\n"
        "def encode(frame, n):\n"
        "    return _HEAD.pack(0xD1, frame.flags, frame.message_id) + n.to_bytes(4, 'big')\n"
        "class HandshakeSession:\n"
        "    def _seal(self, tag, plaintext):\n"
        "        nonce = crypto.channel_nonce(self._role_byte, self._sealed)\n"
        "    def _open(self, record):\n"
        "        counter, start = read_uint(record, 1)\n"
        "        nonce = crypto.channel_nonce(self._peer_role_byte, counter)\n"
        "    def _reopen(self, record):\n"
        "        nonce = channel_nonce(self._peer_role_byte, record[1])\n"
        "    def _next(self):\n"
        "        nonce = channel_nonce(self._peer_role_byte, self._opened + 1)\n"
        "def nonce(counter, size):\n"
        "    return counter.to_bytes(size, 'big') + _HEAD.unpack_from(size)\n"
    )
    assert length_structs(source) == {"_LENGTH"}
    assert length_prefix_scopes(source, LENGTH_WRITES | LENGTH_READS) == {
        "_join", "_split.message_end", "Messenger.send", "Messenger._take", "batch",
    }
    assert callers_of(source, "item_end") == {"split_leg", "Messenger._take"}
    assert "struct" in imported_names(ast.parse(source))
    assert scopes_holding(source, _nonce_of_a_wire_count) == {
        "HandshakeSession._open", "HandshakeSession._reopen",
    }
