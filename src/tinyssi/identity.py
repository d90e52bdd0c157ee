"""Decentralized identifiers and their documents.

A DID is `did:<method>:<id>`. Its document lists public keys and service
endpoints and nothing else: documents are pseudonymous by construction and
never carry attributes or claims. Peer-method DIDs are self-certifying, the
id being the digest of the canonical genesis document, so two devices can
exchange them directly with no registry.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable

from . import crypto
from .encoding import (
    EncodingError,
    base58_encode,
    canonical_bytes,
    from_canonical,
    from_hex,
    is_base58,
)

METHOD_PEER = "peer"
METHOD_REG = "reg"

_METHOD_RE = re.compile(r"^[a-z0-9]+$")

_DOCUMENT_FIELDS = frozenset(
    {"id", "public_keys", "service_endpoints", "version", "previous_keys"}
)
_KEY_FIELDS = frozenset({"key_id", "purpose", "public"})
_ENDPOINT_FIELDS = frozenset({"endpoint_id", "type", "address"})
_RETIRED_FIELDS = frozenset({"key_id", "public", "retired_at"})


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


@dataclass(frozen=True)
class PublicKeyEntry:
    key_id: str
    purpose: str
    public: bytes

    def to_mapping(self) -> dict[str, Any]:
        return {"key_id": self.key_id, "purpose": self.purpose, "public": self.public.hex()}


@dataclass(frozen=True)
class ServiceEndpoint:
    endpoint_id: str
    type: str
    address: str

    def to_mapping(self) -> dict[str, Any]:
        return {"endpoint_id": self.endpoint_id, "type": self.type, "address": self.address}


@dataclass(frozen=True)
class RetiredKey:
    key_id: str
    public: bytes
    retired_at: int

    def to_mapping(self) -> dict[str, Any]:
        return {"key_id": self.key_id, "public": self.public.hex(), "retired_at": self.retired_at}


@dataclass(frozen=True)
class DidDocument:
    """Pseudonymous record binding a DID to keys and endpoints.

    Immutable; mutation operations return a new document with an incremented
    version. Retired keys are kept forever so proofs made against them stay
    checkable.
    """

    id: Did
    public_keys: tuple[PublicKeyEntry, ...]
    service_endpoints: tuple[ServiceEndpoint, ...] = ()
    version: int = 1
    previous_keys: tuple[RetiredKey, ...] = ()

    def __post_init__(self) -> None:
        if len(self.public_keys) < 1:
            raise DidError("document must hold at least one public key")
        ids = [k.key_id for k in self.public_keys] + [k.key_id for k in self.previous_keys]
        if len(ids) != len(set(ids)):
            raise DidError("key ids must be unique across current and retired keys")
        if self.version < 1:
            raise DidError("version must be a positive integer")

    def find_key(self, key_id: str) -> PublicKeyEntry | RetiredKey | None:
        """Look up a key id among current and retired keys."""
        for key in self.public_keys:
            if key.key_id == key_id:
                return key
        for key in self.previous_keys:
            if key.key_id == key_id:
                return key
        return None

    def content_mapping(self) -> dict[str, Any]:
        """The document body without its id (the peer-method genesis form)."""
        return {
            "public_keys": [k.to_mapping() for k in self.public_keys],
            "service_endpoints": [e.to_mapping() for e in self.service_endpoints],
            "version": self.version,
            "previous_keys": [k.to_mapping() for k in self.previous_keys],
        }

    def to_mapping(self) -> dict[str, Any]:
        mapping = self.content_mapping()
        mapping["id"] = format_did(self.id)
        return mapping

    def to_bytes(self) -> bytes:
        return canonical_serialize(self)

    @classmethod
    def from_mapping(cls, mapping: Any) -> "DidDocument":
        """Parse a document; raises DidError naming every schema violation."""
        doc, violations = _walk_document(mapping)
        if violations:
            raise DidError("; ".join(violations))
        return doc

    @classmethod
    def from_bytes(cls, raw: bytes) -> "DidDocument":
        try:
            return cls.from_mapping(from_canonical(raw))
        except EncodingError as exc:
            raise DidError(str(exc)) from exc


def _walk_document(mapping: Any) -> tuple[DidDocument | None, list[str]]:
    """The document schema walk: the parsed document, or None and every violation."""
    if not isinstance(mapping, dict):
        return None, ["document must be a mapping"]
    violations = [
        f"pseudonymity violation: attribute field {name!r} not permitted"
        for name in sorted(set(mapping) - _DOCUMENT_FIELDS)
    ]
    missing = sorted(_DOCUMENT_FIELDS - set(mapping))
    violations += [f"missing field {name!r}" for name in missing]
    if missing:
        return None, violations
    keys = _walk_entries(
        mapping["public_keys"], _KEY_FIELDS, _key_from_mapping, "public key", violations
    )
    if mapping["public_keys"] == []:
        violations.append("document must hold at least one public key")
    endpoints = _walk_entries(
        mapping["service_endpoints"], _ENDPOINT_FIELDS, _endpoint_from_mapping,
        "service endpoint", violations,
    )
    retired = _walk_entries(
        mapping["previous_keys"], _RETIRED_FIELDS, _retired_from_mapping,
        "retired key", violations,
    )
    ids = [k.key_id for k in keys] + [k.key_id for k in retired]
    for key_id in sorted({i for i in ids if ids.count(i) > 1}):
        violations.append(f"duplicate key id {key_id!r}")
    version = mapping["version"]
    if not isinstance(version, int) or isinstance(version, bool) or version < 1:
        violations.append("version must be a positive integer")
    try:
        did = parse_did(mapping["id"])
    except DidError as exc:
        violations.append(str(exc))
    if violations:
        return None, violations
    return DidDocument(did, tuple(keys), tuple(endpoints), version, tuple(retired)), []


def _walk_entries(
    entries: Any,
    fields: frozenset[str],
    build: Callable[[dict[str, Any]], Any],
    kind: str,
    violations: list[str],
) -> list:
    """Parse one list of document entries; each bad entry adds a violation."""
    if not isinstance(entries, list):
        violations.append(f"{kind} entries must be a list")
        return []
    parsed = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict) or set(entry) != fields:
            violations.append(f"malformed {kind} entry {index}")
            continue
        try:
            parsed.append(build(entry))
        except (DidError, EncodingError) as exc:
            violations.append(f"malformed {kind} entry {index}: {exc}")
    return parsed


def _key_from_mapping(mapping: dict[str, Any]) -> PublicKeyEntry:
    if mapping["purpose"] not in (crypto.PURPOSE_SIGN, crypto.PURPOSE_AGREE):
        raise DidError("unknown key purpose")
    return PublicKeyEntry(
        key_id=mapping["key_id"],
        purpose=mapping["purpose"],
        public=from_hex(mapping["public"], crypto.KEY_LEN),
    )


def _endpoint_from_mapping(mapping: dict[str, Any]) -> ServiceEndpoint:
    return ServiceEndpoint(
        endpoint_id=mapping["endpoint_id"],
        type=mapping["type"],
        address=mapping["address"],
    )


def _retired_from_mapping(mapping: dict[str, Any]) -> RetiredKey:
    return RetiredKey(
        key_id=mapping["key_id"],
        public=from_hex(mapping["public"], crypto.KEY_LEN),
        retired_at=mapping["retired_at"],
    )


def canonical_serialize(doc: DidDocument) -> bytes:
    """Deterministic document bytes: the wire and storage form."""
    return canonical_bytes(doc.to_mapping())


def generate_peer_did(
    public_keys: Iterable[PublicKeyEntry],
    service_endpoints: Iterable[ServiceEndpoint] = (),
) -> tuple[Did, DidDocument]:
    """Derive a self-certifying peer DID from a genesis key set.

    The id is the base58 digest of the canonical genesis bytes; inserting it
    yields the final document. Purely a function of the genesis content.
    """
    keys = tuple(public_keys)
    if not keys:
        raise DidError("peer DID genesis needs at least one public key")
    # content_mapping() leaves the id out, so any placeholder id will do here.
    genesis = DidDocument(Did(METHOD_PEER, "1"), keys, tuple(service_endpoints))
    did = Did(method=METHOD_PEER, id=_genesis_digest(genesis))
    return did, replace(genesis, id=did)


def _genesis_digest(doc: DidDocument) -> str:
    """The peer-method id that a document's body certifies."""
    return base58_encode(crypto.digest(canonical_bytes(doc.content_mapping())))


def verify_peer_document(did: Did, doc: DidDocument) -> bool:
    """Check a peer document's self-certification: digest of genesis == id.

    Only holds for documents still in genesis form (version 1); rotated peer
    documents need a version chain, which is out of scope here.
    """
    return did.method == METHOD_PEER and doc.id == did and _genesis_digest(doc) == did.id


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
    if doc.find_key(new_key.key_id) is not None:
        raise DidError(f"key id {new_key.key_id!r} already present")
    old = next(k for k in doc.public_keys if k.key_id == old_key_id)
    return replace(
        doc,
        public_keys=remaining + (new_key,),
        previous_keys=doc.previous_keys
        + (RetiredKey(key_id=old.key_id, public=old.public, retired_at=now),),
        version=doc.version + 1,
    )


def validate_document(doc: DidDocument | dict[str, Any]) -> list[str]:
    """Collect structural violations; an empty list means the document is valid."""
    if isinstance(doc, DidDocument):
        doc = doc.to_mapping()
    return _walk_document(doc)[1]
