"""DID resolution: emulated verifiable data registry, peer store, TTL cache.

The registry stands in for a ledger: an in-process, signature-gated version
history per DID. A genesis version must certify its DID (the DID is derived
from its body, as a peer DID is) and be signed by a signing key of its own
document; an update, by a current signing key of the immediately preceding
version. A snapshot loaded from a file is held to the same rules when it
loads, the one place records enter from outside. Resolution goes through a
per-device cache so constrained devices touch the registry once per TTL
window, and once more when a signed artifact names a key that the cached
document does not know; peer-method documents live in a local store, checked
against their self-certifying id once, when stored.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import crypto
from .encoding import EncodingError, canonical_bytes, decode, encode, from_canonical
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
    """A peer document does not match its self-certifying identifier."""


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
        self._entries: dict[str, tuple[RegistryRecord, ...]] = {}
        self.write_count = 0
        self.read_count = 0

    def register(self, doc: DidDocument, controller_kp: crypto.KeyPair) -> None:
        """Sign doc with controller_kp and append it, if its authorizing version authorizes the key.

        A genesis version authorizes its own signer, once its body derives its DID; an
        update, the version before it. A refused write signs nothing.
        """
        did_text = format_did(doc.id)
        history = self._entries.get(did_text, ())
        previous = DidDocument.from_bytes(history[-1].document) if history else None
        if not _authority(previous, doc).authorizes(controller_kp):
            raise RegistryError(
                f"{controller_kp.key_id!r} is not a current signing key of "
                + ("the previous version" if history else "the genesis document")
            )
        doc_bytes = doc.to_bytes()
        signature = crypto.sign(controller_kp, doc_bytes)
        record = RegistryRecord(doc_bytes, doc.version, signature, controller_kp.key_id)
        self._entries[did_text] = history + (record,)
        self.write_count += 1

    def lookup(self, did: Did) -> DidDocument:
        self.read_count += 1
        history = self._entries.get(format_did(did))
        if not history:
            raise DidNotFound(f"{format_did(did)} not registered")
        return DidDocument.from_bytes(history[-1].document)

    def snapshot(self) -> bytes:
        """Registry contents as a single structured-text snapshot (.reg)."""
        return canonical_bytes(encode(_Snapshot(_SNAPSHOT_FORMAT, self._entries)))

    @classmethod
    def from_snapshot(cls, raw: bytes) -> "Registry":
        """A registry holding a snapshot's histories, each checked as register() checks
        a write: records enter from outside only here, so they are checked once, here."""
        try:
            snapshot = decode(_Snapshot, from_canonical(raw))
        except EncodingError as exc:
            raise RegistryError(f"bad registry snapshot: {exc}") from exc
        if snapshot.format != _SNAPSHOT_FORMAT:
            raise RegistryError("bad registry snapshot: unknown format")
        for did_text, history in snapshot.entries.items():
            try:
                _check_history(did_text, history)
            except (DidError, RegistryError) as exc:
                raise RegistryError(f"bad registry snapshot: {did_text}: {exc}") from exc
        registry = cls()
        registry._entries = snapshot.entries
        return registry

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(self.snapshot())

    @classmethod
    def load(cls, path: str) -> "Registry":
        with open(path, "rb") as fh:
            return cls.from_snapshot(fh.read())


def _authority(previous: DidDocument | None, doc: DidDocument) -> DidDocument:
    """The version whose signing keys may write doc: the one before it, or doc itself
    as a genesis. RegistryError if doc does not come after the previous version, or
    is a genesis whose id is not the DID its body derives."""
    if previous is None:
        if not doc.certifies_its_id():
            raise RegistryError(f"genesis body does not derive {format_did(doc.id)}")
        return doc
    if doc.version <= previous.version:
        raise RegistryError(f"version conflict: {doc.version} <= registered {previous.version}")
    return previous


def _check_history(did_text: str, history: tuple[RegistryRecord, ...]) -> None:
    """Refuse a history that register() could not have written: each document parses
    (else DidError), is filed under its own DID, comes after the one before it (a
    genesis certifying that DID), and is signed by a current signing key of its
    authorizing version (else RegistryError)."""
    previous = None
    for record in history:
        doc = DidDocument.from_bytes(record.document)
        if format_did(doc.id) != did_text or doc.version != record.version:
            raise RegistryError(
                f"record of version {record.version} holds version {doc.version} "
                f"of {format_did(doc.id)}"
            )
        key = _authority(previous, doc).signing_key(record.signed_by)
        if key is None or not crypto.verify(key.public, record.document, record.signature):
            raise RegistryError(
                f"version {doc.version} is not signed by a current signing key "
                "of its authorizing version"
            )
        previous = doc


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
        self._cache: dict[Did, _CacheEntry] = {}
        self._peers: dict[Did, DidDocument] = {}

    def store_peer(self, did: Did, doc: DidDocument) -> None:
        """Accept a directly exchanged peer document iff it certifies itself: its
        only check, as a stored document is frozen and cannot change."""
        if did.method != METHOD_PEER:
            raise UnsupportedDidMethod(f"store_peer only takes peer DIDs, got {did.method!r}")
        if not verify_peer_document(did, doc):
            raise DocumentIntegrityError(f"document digest does not match {format_did(did)}")
        self._peers[did] = doc

    def resolve(self, did: Did, now: int, key_id: str | None = None) -> DidDocument:
        """The document of did; for a reg DID, one that knows key_id if the registry has one.

        A signed artifact names its key. A cached reg document that lists that key
        neither as current nor as retired is stale if the signer rotated since it was
        read, so it is re-read once, bypassing the cache (DID Resolution's noCache),
        unless it was read at this same instant. One artifact thus costs at most one
        registry read. A peer document is frozen: it is returned as stored.
        """
        if did.method == METHOD_PEER:
            return self._resolve_peer(did)
        if did.method != METHOD_REG:
            raise UnsupportedDidMethod(f"cannot resolve method {did.method!r}")
        entry = self._cache.get(did)
        if (
            key_id is not None and entry is not None and entry.fetched_at != now
            and entry.document.proof_key(key_id) is None
        ):
            del self._cache[did]
        return self._resolve_registered(did, now)

    def _resolve_peer(self, did: Did) -> DidDocument:
        doc = self._peers.get(did)
        if doc is None:
            raise DidNotFound(f"{format_did(did)} not in local peer store")
        return doc

    def _resolve_registered(self, did: Did, now: int) -> DidDocument:
        entry = self._cache.get(did)
        if entry is not None and now - entry.fetched_at < self.ttl:
            self.hit_count += 1
            return entry.document
        self.miss_count += 1
        if self.registry is None:
            raise ResolutionError("no registry configured for this resolver")
        doc = self.registry.lookup(did)
        self._cache[did] = _CacheEntry(document=doc, fetched_at=now)
        return doc
