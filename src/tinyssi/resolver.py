"""DID resolution: emulated verifiable data registry, peer store, TTL cache.

The registry stands in for a ledger: an in-process write log of signed
versions of `reg` DID documents. A genesis version must certify its DID (the
DID is derived from its body, as a peer DID is) and be signed by a signing key
of its own document; an update, by a current signing key of the immediately
preceding version. One rule, `Registry._authority`, says which version may
write a document: `register` asks it before it signs, and a snapshot loaded
from a file replays its log through it, the one place records enter from
outside. Resolution goes through a per-device cache so constrained devices
touch the registry once per TTL window, and once more when a signed artifact
names a key that the cached document does not know. The cache keeps the
highest version of each `reg` DID it has accepted, past its TTL, and refuses
a read that goes back from it, as a TUF client refuses metadata older than
what it holds (Samuel et al., CCS 2010). Peer-method documents live in a
local store, checked against their self-certifying id once, when stored.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import crypto
from .encoding import EncodingError, canonical_bytes, decode, encode, from_canonical
from .identity import (
    Did, DidDocument, DidError, METHOD_PEER, METHOD_REG, format_did, verify_peer_document,
)

DEFAULT_TTL = 300
_SNAPSHOT_FORMAT = "tinyssi-registry/2"


class RegistryError(Exception):
    """Rejected registry write: version conflict or unauthorized key."""


class ResolutionError(Exception):
    """A DID could not be resolved to a trustworthy document."""


class DidNotFound(ResolutionError):
    pass


class UnsupportedDidMethod(ResolutionError):
    pass


class DocumentIntegrityError(ResolutionError):
    """A peer document does not match its self-certifying identifier, or the
    registry serves an older version of a reg document than one accepted."""


@dataclass(frozen=True)
class RegistryRecord:
    """One write: a document's canonical bytes, signed by the key named `signed_by`."""

    document: bytes
    signature: bytes
    signed_by: str

    def __post_init__(self) -> None:
        if len(self.signature) != crypto.SIGNATURE_LEN:
            raise ValueError(f"signature must be {crypto.SIGNATURE_LEN} bytes")


@dataclass(frozen=True)
class _Snapshot:
    """A registry snapshot file (.reg): the write log, every signed record in write order."""

    format: str
    records: tuple[RegistryRecord, ...]


class Registry:
    """In-process stand-in for a ledger of DID documents.

    Consensus is out of scope; what is kept is the security property the rest
    of the stack needs: every version is signed by a key the authorizing
    document lists for signing, and versions per DID strictly increase. It
    holds its write log and, parsed, the latest document of each DID.
    """

    def __init__(self) -> None:
        self._log: list[RegistryRecord] = []
        self._latest: dict[Did, DidDocument] = {}
        self.write_count = 0
        self.read_count = 0

    def register(self, doc: DidDocument, controller_kp: crypto.KeyPair) -> None:
        """Sign doc with controller_kp and append it, if its authorizing version authorizes
        the key. A refused write signs nothing."""
        if not self._authority(doc).authorizes(controller_kp):
            raise RegistryError(
                f"{controller_kp.key_id!r} is not a current signing key of "
                + ("the previous version" if doc.id in self._latest else "the genesis document")
            )
        doc_bytes = doc.to_bytes()
        signature = crypto.sign(controller_kp, doc_bytes)
        self._append(doc, RegistryRecord(doc_bytes, signature, controller_kp.key_id))
        self.write_count += 1

    def _append(self, doc: DidDocument, record: RegistryRecord) -> None:
        self._log.append(record)
        self._latest[doc.id] = doc

    def _authority(self, doc: DidDocument) -> DidDocument:
        """The version whose signing keys may write doc: the latest one of its DID, or doc
        itself as a genesis. RegistryError if doc is of a DID that is not `reg` (a resolver
        never reads any other from the registry), does not come after the latest version,
        or is a genesis whose id is not the DID its body derives."""
        if doc.id.method != METHOD_REG:
            raise RegistryError(
                f"the registry holds only {METHOD_REG} DIDs, not {format_did(doc.id)}"
            )
        previous = self._latest.get(doc.id)
        if previous is None:
            if not doc.certifies_its_id():
                raise RegistryError(f"genesis body does not derive {format_did(doc.id)}")
            return doc
        if doc.version <= previous.version:
            raise RegistryError(f"version conflict: {doc.version} <= registered {previous.version}")
        return previous

    def lookup(self, did: Did) -> DidDocument:
        self.read_count += 1
        doc = self._latest.get(did)
        if doc is None:
            raise DidNotFound(f"{format_did(did)} not registered")
        return doc

    def snapshot(self) -> bytes:
        """The write log as a single structured-text snapshot (.reg)."""
        return canonical_bytes(encode(_Snapshot(_SNAPSHOT_FORMAT, tuple(self._log))))

    @classmethod
    def from_snapshot(cls, raw: bytes) -> "Registry":
        """A registry that replays a snapshot's write log: each record must parse, be
        written as register() would allow, and carry a valid signature of the key it
        names. Records enter from outside only here, so they are checked once, here."""
        try:
            mapping = from_canonical(raw)
            if not isinstance(mapping, dict) or mapping.get("format") != _SNAPSHOT_FORMAT:
                raise EncodingError(f"not a {_SNAPSHOT_FORMAT} file")
            records = decode(_Snapshot, mapping).records
        except EncodingError as exc:
            raise RegistryError(f"bad registry snapshot: {exc}") from exc
        registry = cls()
        for index, record in enumerate(records):
            try:
                doc = DidDocument.from_bytes(record.document)
                key = registry._authority(doc).signing_key(record.signed_by)
                if key is None or not crypto.verify(key.public, record.document, record.signature):
                    raise RegistryError(
                        f"version {doc.version} of {format_did(doc.id)} is not signed by a "
                        "current signing key of its authorizing version"
                    )
            except (DidError, RegistryError) as exc:
                raise RegistryError(f"bad registry snapshot: record {index}: {exc}") from exc
            registry._append(doc, record)
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
    """Resolves DIDs through a TTL cache, with a local store for peer documents.

    A cache entry outlives its TTL: it is read again, never dropped, so it
    holds the highest version of its DID this resolver has accepted.
    """

    def __init__(self, registry: Registry, ttl: int = DEFAULT_TTL):
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

        DocumentIntegrityError if a read gives a lower version than the one
        cached, which stays: the registry has rolled back.
        """
        if did.method == METHOD_PEER:
            return self._resolve_peer(did)
        if did.method != METHOD_REG:
            raise UnsupportedDidMethod(f"cannot resolve method {did.method!r}")
        entry = self._cache.get(did)
        if entry is not None and now - entry.fetched_at < self.ttl and (
            key_id is None or entry.fetched_at == now
            or entry.document.proof_key(key_id) is not None
        ):
            self.hit_count += 1
            return entry.document
        self.miss_count += 1
        doc = self.registry.lookup(did)
        if entry is not None and doc.version < entry.document.version:
            raise DocumentIntegrityError(
                f"rollback: the registry serves version {doc.version} of {format_did(did)}, "
                f"older than version {entry.document.version}"
            )
        self._cache[did] = _CacheEntry(document=doc, fetched_at=now)
        return doc

    def _resolve_peer(self, did: Did) -> DidDocument:
        doc = self._peers.get(did)
        if doc is None:
            raise DidNotFound(f"{format_did(did)} not in local peer store")
        return doc
