"""DID resolution: emulated verifiable data registry, peer store, TTL cache.

The registry stands in for a ledger: an in-process, signature-gated version
history per DID. A genesis version must be signed by a signing key of its
own document, and an update by a current signing key of the immediately
preceding version. Resolution goes through a per-device cache so constrained
devices touch the registry once per TTL window; peer-method documents live in
a local store and are re-checked against their self-certifying id on every
resolve.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from . import crypto
from .encoding import EncodingError, base58_encode, canonical_bytes, decode, encode, from_canonical
from .identity import (
    Did, DidDocument, DidError, METHOD_PEER, METHOD_REG, format_did, verify_peer_document,
)

DEFAULT_TTL = 300
_SNAPSHOT_FORMAT = "tinyssi-registry/1"


class RegistryError(Exception):
    """Rejected registry write: version conflict or unauthorized key."""


class ResolutionError(Exception):
    """A DID could not be resolved to a trustworthy document."""


class DidNotFound(ResolutionError):
    pass


class UnsupportedDidMethod(ResolutionError):
    pass


class DocumentIntegrityError(ResolutionError):
    """Stored document does not parse, or does not match its identifier."""


@dataclass(frozen=True)
class RegistryRecord:
    document: bytes
    version: int
    signature: bytes
    signed_by: str

    def __post_init__(self) -> None:
        if len(self.signature) != crypto.SIGNATURE_LEN:
            raise ValueError(f"signature must be {crypto.SIGNATURE_LEN} bytes")


@dataclass(frozen=True)
class _Snapshot:
    """A registry snapshot file (.reg): every DID's history of signed records."""

    format: str
    entries: dict[str, tuple[RegistryRecord, ...]]


class Registry:
    """In-process stand-in for a ledger of DID documents.

    Consensus is out of scope; what is kept is the security property the rest
    of the stack needs: every version is signed by a key the authorizing
    document lists for signing, and versions per DID strictly increase.
    """

    def __init__(self) -> None:
        self._entries: dict[str, list[RegistryRecord]] = {}
        self._lock = threading.Lock()
        self.write_count = 0
        self.read_count = 0

    def register(self, doc: DidDocument, controller_kp: crypto.KeyPair) -> None:
        """Sign doc with controller_kp and append it, if its authorizing version authorizes the key.

        A genesis version authorizes its own signer; an update, the version before it.
        """
        did_text = format_did(doc.id)
        with self._lock:
            history = self._entries.get(did_text, [])
            if history and doc.version <= history[-1].version:
                raise RegistryError(
                    f"version conflict: {doc.version} <= registered {history[-1].version}"
                )
            authority = DidDocument.from_bytes(history[-1].document) if history else doc
            if not authority.authorizes(controller_kp):
                raise RegistryError(
                    f"{controller_kp.key_id!r} is not a current signing key of "
                    + ("the previous version" if history else "the genesis document")
                )
            doc_bytes = doc.to_bytes()
            signature = crypto.sign(controller_kp, doc_bytes)
            history.append(RegistryRecord(doc_bytes, doc.version, signature, controller_kp.key_id))
            self._entries[did_text] = history
            self.write_count += 1

    def lookup(self, did: Did) -> DidDocument:
        with self._lock:
            self.read_count += 1
            history = self._entries.get(format_did(did))
            if not history:
                raise DidNotFound(f"{format_did(did)} not registered")
            raw = history[-1].document
        try:
            return DidDocument.from_bytes(raw)
        except DidError as exc:
            raise DocumentIntegrityError(f"stored document of {format_did(did)}: {exc}") from exc

    def snapshot(self) -> bytes:
        """Registry contents as a single structured-text snapshot (.reg)."""
        with self._lock:
            entries = {did: tuple(history) for did, history in self._entries.items()}
        return canonical_bytes(encode(_Snapshot(_SNAPSHOT_FORMAT, entries)))

    @classmethod
    def from_snapshot(cls, raw: bytes) -> "Registry":
        try:
            snapshot = decode(_Snapshot, from_canonical(raw))
        except EncodingError as exc:
            raise RegistryError(f"bad registry snapshot: {exc}") from exc
        if snapshot.format != _SNAPSHOT_FORMAT:
            raise RegistryError("bad registry snapshot: unknown format")
        registry = cls()
        registry._entries = {did: list(history) for did, history in snapshot.entries.items()}
        return registry

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(self.snapshot())

    @classmethod
    def load(cls, path: str) -> "Registry":
        with open(path, "rb") as fh:
            return cls.from_snapshot(fh.read())


@dataclass
class _CacheEntry:
    document: DidDocument
    fetched_at: int


class Resolver:
    """Resolves DIDs through a TTL cache, with a local store for peer documents."""

    def __init__(self, registry: Registry | None = None, ttl: int = DEFAULT_TTL):
        self.registry = registry
        self.ttl = ttl
        self.hit_count = 0
        self.miss_count = 0
        self._cache: dict[str, _CacheEntry] = {}
        self.peer_documents: dict[str, DidDocument] = {}
        self._lock = threading.Lock()

    def store_peer(self, did: Did, doc: DidDocument) -> None:
        """Accept a directly exchanged peer document iff it certifies itself."""
        if did.method != METHOD_PEER:
            raise UnsupportedDidMethod(f"store_peer only takes peer DIDs, got {did.method!r}")
        if not verify_peer_document(did, doc):
            raise DocumentIntegrityError(
                f"document digest does not match {format_did(did)}"
            )
        with self._lock:
            self.peer_documents[format_did(did)] = doc

    def resolve(self, did: Did, now: int) -> DidDocument:
        if did.method == METHOD_PEER:
            return self._resolve_peer(did)
        if did.method == METHOD_REG:
            return self._resolve_registered(did, now)
        raise UnsupportedDidMethod(f"cannot resolve method {did.method!r}")

    def _resolve_peer(self, did: Did) -> DidDocument:
        with self._lock:
            doc = self.peer_documents.get(format_did(did))
        if doc is None:
            raise DidNotFound(f"{format_did(did)} not in local peer store")
        if not verify_peer_document(did, doc):
            raise DocumentIntegrityError(
                f"stored document digest does not match {format_did(did)}"
            )
        return doc

    def _resolve_registered(self, did: Did, now: int) -> DidDocument:
        did_text = format_did(did)
        # The miss path stays under the lock so concurrent resolves of one
        # DID within a TTL window still cost exactly one registry read.
        with self._lock:
            entry = self._cache.get(did_text)
            if entry is not None and now - entry.fetched_at < self.ttl:
                self.hit_count += 1
                return entry.document
            self.miss_count += 1
            if self.registry is None:
                raise ResolutionError("no registry configured for this resolver")
            doc = self.registry.lookup(did)
            if doc.id != did:
                raise DocumentIntegrityError(f"registry returned a document for {doc.id}")
            self._cache[did_text] = _CacheEntry(document=doc, fetched_at=now)
        return doc


def registered_did_for(public: bytes, hint: str = "") -> Did:
    """Self-generated registry-method DID from key material and an optional hint."""
    suffix = base58_encode(crypto.digest(public + hint.encode("utf-8")))
    return Did(method=METHOD_REG, id=suffix)
