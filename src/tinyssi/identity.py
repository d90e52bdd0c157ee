"""Decentralized identifiers and their documents.

A DID is `did:<method>:<id>`. Its document lists public keys and service
endpoints and nothing else: documents are pseudonymous by construction and
never carry attributes or claims. A DID of either method is self-certifying:
its id is the digest of the canonical genesis body (the document without its
id), so two devices can exchange peer documents directly with no registry,
and a registry can check that a genesis belongs to its DID. A document
travels as a DocumentBody, which holds the document invariants, and the
receiver derives the document and its DID with `DidDocument.from_body`. Only
a genesis body travels, without its version and retired keys, which the
receiver restores. A key's default id (`crypto.default_key_id`) does not
travel: the receiver derives it from the key. Nor does the i-th service
endpoint's id when it is `ep-<i>`, or its type when that is its address's
URI scheme.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Any, Iterable

from . import crypto
from .encoding import Record, WireForm, base58_decode, base58_encode, is_base58

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

    def to_wire(self) -> bytes:
        if self.method not in _METHOD_BYTES:
            raise DidError(f"method {self.method!r} has no wire form")
        return bytes([_METHOD_BYTES[self.method]]) + base58_decode(self.id)

    @staticmethod
    def from_wire(raw: bytes) -> Did:
        if not raw or raw[0] not in _BYTE_METHODS:
            raise DidError(f"unknown DID method byte in {raw[:1].hex()!r}")
        return Did(method=_BYTE_METHODS[raw[0]], id=base58_encode(raw[1:]))

    WIRE = WireForm(bytes, to_wire, from_wire)


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
class _KeyWire:
    """A PublicKeyEntry as it travels: its id, or None when it is the default id
    the reader derives, and its purpose's index in crypto.PURPOSES."""

    key_id: str | None
    purpose: int
    public: bytes


@dataclass(frozen=True)
class PublicKeyEntry(_Record):
    key_id: str
    purpose: str
    public: bytes

    def __post_init__(self) -> None:
        if self.purpose not in crypto.PURPOSES:
            raise DidError(f"unknown key purpose {self.purpose!r}")
        _check_key_length(self.public)

    def to_wire(self) -> _KeyWire:
        default = self.key_id == crypto.default_key_id(self.purpose, self.public)
        return _KeyWire(
            None if default else self.key_id, crypto.PURPOSES.index(self.purpose), self.public
        )

    @staticmethod
    def from_wire(wire: _KeyWire) -> PublicKeyEntry:
        """The entry a wire key names: a null id is the default id of its key."""
        if not 0 <= wire.purpose < len(crypto.PURPOSES):
            raise DidError(f"unknown key purpose index {wire.purpose}")
        purpose = crypto.PURPOSES[wire.purpose]
        default = crypto.default_key_id(purpose, wire.public)
        return PublicKeyEntry(default if wire.key_id is None else wire.key_id, purpose, wire.public)

    WIRE = WireForm(_KeyWire, to_wire, from_wire)


@dataclass(frozen=True)
class _EndpointWire:
    """The i-th ServiceEndpoint of a genesis body as it travels (i from 1): its id,
    or None when it is `ep-<i>`, its type, or None when it is its address's URI
    scheme, and its address."""

    endpoint_id: str | None
    type: str | None
    address: str


def _scheme(address: str) -> str | None:
    """An address's URI scheme: the text before its first colon, if it has one."""
    scheme, colon, _ = address.partition(":")
    return scheme if colon else None


@dataclass(frozen=True)
class ServiceEndpoint(_Record):
    endpoint_id: str
    type: str
    address: str

    def to_wire(self, position: int) -> _EndpointWire:
        return _EndpointWire(
            None if self.endpoint_id == f"ep-{position}" else self.endpoint_id,
            None if self.type == _scheme(self.address) else self.type,
            self.address,
        )

    @staticmethod
    def from_wire(wire: _EndpointWire, position: int) -> ServiceEndpoint:
        """The endpoint at `position` a wire endpoint names: a null id is `ep-<position>`,
        a null type its address's scheme, which it must then have."""
        scheme = _scheme(wire.address)
        if wire.type is None and scheme is None:
            raise DidError(f"endpoint address {wire.address!r} has no scheme to be its type")
        return ServiceEndpoint(
            f"ep-{position}" if wire.endpoint_id is None else wire.endpoint_id,
            scheme if wire.type is None else wire.type,
            wire.address,
        )


@dataclass(frozen=True)
class RetiredKey(_Record):
    key_id: str
    public: bytes
    retired_at: int

    def __post_init__(self) -> None:
        _check_key_length(self.public)


@dataclass(frozen=True)
class _GenesisWire:
    """A genesis DocumentBody as it travels: its keys and endpoints. The reader
    restores version 1 and no retired keys."""

    public_keys: tuple[PublicKeyEntry, ...]
    service_endpoints: tuple[_EndpointWire, ...]


@dataclass(frozen=True)
class DocumentBody(_Record):
    """A document without its id: what a peer DID is the digest of, and what travels.

    Only a genesis body travels, since a peer identity never rotates."""

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

    def to_wire(self) -> _GenesisWire:
        if (self.version, self.previous_keys) != (1, ()):
            raise DidError(
                f"a body of version {self.version} with {len(self.previous_keys)} retired keys"
                " is no genesis and has no wire form"
            )
        endpoints = enumerate(self.service_endpoints, 1)
        return _GenesisWire(self.public_keys, tuple(ep.to_wire(i) for i, ep in endpoints))

    @staticmethod
    def from_wire(wire: _GenesisWire) -> DocumentBody:
        endpoints = enumerate(wire.service_endpoints, 1)
        return DocumentBody(
            wire.public_keys, tuple(ServiceEndpoint.from_wire(ep, i) for i, ep in endpoints)
        )

    WIRE = WireForm(_GenesisWire, to_wire, from_wire)


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

