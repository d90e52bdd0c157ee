"""Decentralized identifiers and their documents.

A DID is `did:<method>:<id>`. Its document lists public keys and service
endpoints and nothing else: documents are pseudonymous by construction and
never carry attributes or claims. A DID of either method is self-certifying:
its id is the digest of the canonical genesis body (the document without its
id), so two devices can exchange peer documents directly with no registry,
and a registry can check that a genesis belongs to its DID. A document
travels as a DocumentBody, which holds the document invariants, and the
receiver derives the document and its DID with `DidDocument.from_body`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Any, Iterable

from . import crypto
from .encoding import Record, base58_decode, base58_encode, is_base58

METHOD_PEER = "peer"
METHOD_REG = "reg"

# A DID's wire form: one byte naming its method, then its id decoded from base58.
_METHOD_BYTES = {METHOD_PEER: 0x01, METHOD_REG: 0x02}
_BYTE_METHODS = {byte: method for method, byte in _METHOD_BYTES.items()}

_METHOD_RE = re.compile(r"^[a-z0-9]+$")


class DidError(ValueError):
    """Malformed DID text or document structure."""


@dataclass(frozen=True)
class Did:
    method: str
    id: str

    def __post_init__(self) -> None:
        if not self.method or not _METHOD_RE.match(self.method):
            raise DidError(f"method must be lowercase alphanumeric, got {self.method!r}")
        if not self.id or not is_base58(self.id):
            raise DidError(f"method-specific id has illegal characters: {self.id!r}")

    def __str__(self) -> str:
        return format_did(self)

    @classmethod
    def from_text(cls, text: str) -> "Did":
        return parse_did(text)

    wire_form = bytes

    def to_wire(self) -> bytes:
        if self.method not in _METHOD_BYTES:
            raise DidError(f"method {self.method!r} has no wire form")
        return bytes([_METHOD_BYTES[self.method]]) + base58_decode(self.id)

    @classmethod
    def from_wire(cls, raw: bytes) -> "Did":
        if not raw or raw[0] not in _BYTE_METHODS:
            raise DidError(f"unknown DID method byte in {raw[:1].hex()!r}")
        return cls(method=_BYTE_METHODS[raw[0]], id=base58_encode(raw[1:]))


def parse_did(text: str) -> Did:
    """Parse `did:<method>:<id>` text into its parts."""
    if not isinstance(text, str) or not text.startswith("did:"):
        raise DidError(f"missing 'did:' prefix in {text!r}")
    rest = text[len("did:") :]
    method, sep, method_id = rest.partition(":")
    if not sep:
        raise DidError(f"missing method-specific id in {text!r}")
    return Did(method=method, id=method_id)


def format_did(d: Did) -> str:
    return f"did:{d.method}:{d.id}"


class _Record(Record):
    """A record of this module: malformed input raises DidError."""

    decode_error = DidError


def _check_key_length(public: bytes) -> None:
    if len(public) != crypto.KEY_LEN:
        raise DidError(f"public key must be {crypto.KEY_LEN} bytes, got {len(public)}")


@dataclass(frozen=True)
class PublicKeyEntry(_Record):
    key_id: str
    purpose: str
    public: bytes

    def __post_init__(self) -> None:
        if self.purpose not in (crypto.PURPOSE_SIGN, crypto.PURPOSE_AGREE):
            raise DidError(f"unknown key purpose {self.purpose!r}")
        _check_key_length(self.public)


@dataclass(frozen=True)
class ServiceEndpoint(_Record):
    endpoint_id: str
    type: str
    address: str


@dataclass(frozen=True)
class RetiredKey(_Record):
    key_id: str
    public: bytes
    retired_at: int

    def __post_init__(self) -> None:
        _check_key_length(self.public)


@dataclass(frozen=True)
class DocumentBody(_Record):
    """A document without its id: what a peer DID is the digest of, and what travels."""

    public_keys: tuple[PublicKeyEntry, ...]
    service_endpoints: tuple[ServiceEndpoint, ...] = ()
    version: int = 1
    previous_keys: tuple[RetiredKey, ...] = ()

    def __post_init__(self) -> None:
        if len(self.public_keys) < 1:
            raise DidError("document must hold at least one public key")
        ids = [k.key_id for k in self.public_keys] + [k.key_id for k in self.previous_keys]
        if len(ids) != len(set(ids)):
            duplicate = next(i for i in ids if ids.count(i) > 1)
            raise DidError(f"duplicate key id {duplicate!r}")
        if self.version < 1:
            raise DidError("version must be a positive integer")

    def derive_did(self, method: str) -> Did:
        """The DID of `method` this genesis body certifies: base58 of the digest of its
        canonical bytes. The one rule that makes a DID, for every method."""
        return Did(method, base58_encode(crypto.digest(self.to_bytes())))


@dataclass(frozen=True)
class DidDocument(_Record):
    """Pseudonymous record binding a DID to keys and endpoints.

    Immutable; mutation operations return a new document with an incremented
    version. Retired keys are kept forever so proofs made against them stay
    checkable. The document is the signing authority for its DID: every other
    module asks signing_key, authorizes or proof_key, and none reads the key lists.
    """

    id: Did
    public_keys: tuple[PublicKeyEntry, ...]
    service_endpoints: tuple[ServiceEndpoint, ...] = ()
    version: int = 1
    previous_keys: tuple[RetiredKey, ...] = ()

    def __post_init__(self) -> None:
        self.body()  # the body holds the document invariants

    def signing_key(self, key_id: str) -> PublicKeyEntry | None:
        """The current signing key with this id, else None: who signs for the DID now."""
        keys = (k for k in self.public_keys if k.key_id == key_id)
        return next((k for k in keys if k.purpose == crypto.PURPOSE_SIGN), None)

    def authorizes(self, kp: crypto.KeyPair) -> bool:
        """kp is the current signing key it names: sign purpose, same public bytes."""
        key = self.signing_key(kp.key_id)
        return key is not None and kp.purpose == crypto.PURPOSE_SIGN and kp.public == key.public

    def proof_key(self, key_id: str) -> PublicKeyEntry | RetiredKey | None:
        """The key that checks a proof made in the past: a current signing key or a retired one."""
        retired = (k for k in self.previous_keys if k.key_id == key_id)
        return self.signing_key(key_id) or next(retired, None)

    def body(self) -> DocumentBody:
        return DocumentBody(
            self.public_keys, self.service_endpoints, self.version, self.previous_keys
        )

    def certifies_its_id(self) -> bool:
        """Its id is the DID its body derives: true of a genesis document, of either method."""
        return self.body().derive_did(self.id.method) == self.id

    @classmethod
    def from_body(cls, body: DocumentBody, method: str) -> DidDocument:
        """The genesis document of `method` a body certifies: its id is derived, never read."""
        return cls(
            body.derive_did(method), body.public_keys, body.service_endpoints, body.version,
            body.previous_keys,
        )

    @classmethod
    def from_mapping(cls, mapping: Any) -> "DidDocument":
        """Parse a document; any field beyond the schema is an attribute, refused."""
        fields = cls.__dataclass_fields__.keys()
        extra = mapping.keys() - fields if isinstance(mapping, dict) else ()
        if extra:
            raise DidError(f"pseudonymity violation: attribute field {min(extra)!r} not permitted")
        return super().from_mapping(mapping)


def generate_peer_did(
    public_keys: Iterable[PublicKeyEntry],
    service_endpoints: Iterable[ServiceEndpoint] = (),
) -> tuple[Did, DidDocument]:
    """Derive a self-certifying peer DID from a genesis key set.

    The id is the base58 digest of the canonical genesis body, derived as a
    receiver derives it from the wire. Purely a function of the genesis content.
    """
    doc = DidDocument.from_body(
        DocumentBody(tuple(public_keys), tuple(service_endpoints)), METHOD_PEER
    )
    return doc.id, doc


def verify_peer_document(did: Did, doc: DidDocument) -> bool:
    """Check a peer document's self-certification: digest of genesis == id.

    Only genesis documents (version 1) certify their id, so a peer identity
    never rotates its keys (see Wallet.rotate_sign_key).
    """
    return did.method == METHOD_PEER and doc.id == did and doc.certifies_its_id()


def rotate_key(
    doc: DidDocument, old_key_id: str, new_key: PublicKeyEntry, now: int
) -> DidDocument:
    """Retire one key and append a replacement; no re-signing of anything.

    The old key moves to previous_keys with a timestamp and the version is
    bumped. Nothing signs the document itself, so credentials issued against
    the old key stay verifiable as-is.
    """
    remaining = tuple(k for k in doc.public_keys if k.key_id != old_key_id)
    if len(remaining) == len(doc.public_keys):
        raise DidError(f"no key {old_key_id!r} in document")
    old = next(k for k in doc.public_keys if k.key_id == old_key_id)
    return replace(
        doc,
        public_keys=remaining + (new_key,),
        previous_keys=doc.previous_keys
        + (RetiredKey(key_id=old.key_id, public=old.public, retired_at=now),),
        version=doc.version + 1,
    )

