"""Shared builders: owners, devices, and wired-up session configs."""

from dataclasses import dataclass, replace
from random import Random

import pytest

from tinyssi import crypto
from tinyssi.credentials import Claim, StoredCredential, issue
from tinyssi.encoding import canonical_bytes, from_canonical
from tinyssi.handshake import OwnerMatch, SessionConfig
from tinyssi.identity import (
    Did,
    DidDocument,
    DocumentBody,
    PublicKeyEntry,
    ServiceEndpoint,
    format_did,
    rotate_key,
)
from tinyssi.resolver import Registry, Resolver

NOW = 1_700_000_000
MONTH = 30 * 24 * 3600


@dataclass
class Actor:
    name: str
    did: Did
    document: DidDocument
    sign_key: crypto.KeyPair
    agree_key: crypto.KeyPair
    resolver: Resolver
    credentials: tuple[StoredCredential, ...] = ()


def build_actor(name: str, seed: int, registry: Registry, method: str = "peer") -> Actor:
    rng = Random(seed)
    sign_key = crypto.keygen(crypto.PURPOSE_SIGN, seed=rng.randbytes(32))
    agree_key = crypto.keygen(crypto.PURPOSE_AGREE, seed=rng.randbytes(32))
    keys = (
        PublicKeyEntry(sign_key.key_id, crypto.PURPOSE_SIGN, sign_key.public),
        PublicKeyEntry(agree_key.key_id, crypto.PURPOSE_AGREE, agree_key.public),
    )
    endpoints = (ServiceEndpoint("ep-1", "sim-link", f"sim-link://{name}"),)
    document = DidDocument.from_body(DocumentBody(keys, endpoints), method)
    if method == "reg":
        registry.register(document, sign_key)
    return Actor(
        name=name,
        did=document.id,
        document=document,
        sign_key=sign_key,
        agree_key=agree_key,
        resolver=Resolver(registry),
    )


def introduce(*actors: Actor) -> None:
    """Hand every peer-method document to every actor's resolver."""
    for holder in actors:
        for other in actors:
            if other.did.method == "peer":
                holder.resolver.store_peer(other.did, other.document)


def give_owner_credential(owner: Actor, device: Actor, rng_seed: int,
                          extra: dict[str, str] | None = None) -> None:
    claims = [Claim("owner", format_did(owner.did))]
    for name, value in (extra or {}).items():
        claims.append(Claim(name, value))
    vc, openings = issue(
        owner.sign_key, owner.did, device.did, claims, MONTH, NOW, rng=Random(rng_seed)
    )
    device.credentials = device.credentials + (StoredCredential(vc, openings),)


def owner_match_config(device: Actor, owner: Actor, rng_seed: int) -> SessionConfig:
    return SessionConfig(
        document=device.document,
        sign_key=device.sign_key,
        resolver=device.resolver,
        policy=OwnerMatch(my_owner=owner.did),
        credentials=device.credentials,
        rng=Random(rng_seed),
    )


def seal_next(sender, receiver, tag: int, body: bytes) -> bytes:
    """A record that `sender`'s keys seal as the one `receiver` opens next, in
    place of whatever record `sender` sealed for that place: the reader counts
    records, so a forged record must take an honest one's count to open."""
    sender._sealed = receiver._opened
    return sender._seal(tag, body)


@pytest.fixture
def household():
    """Alice with two devices holding her owner credentials, fully introduced."""
    registry = Registry()
    alice = build_actor("alice", 1, registry)
    camera = build_actor("camera", 2, registry)
    lock = build_actor("lock", 3, registry)
    introduce(alice, camera, lock)
    give_owner_credential(alice, camera, 10, {"type": "Camera"})
    give_owner_credential(alice, lock, 11, {"type": "Lock"})
    return alice, camera, lock


# Ways to tamper with a registry snapshot, each of which loading must refuse.
TAMPERINGS = (
    "swapped-document", "bad-signature", "unparsable-document", "zero-signed-genesis",
    "genesis-replayed", "update-before-genesis", "self-signed-genesis", "peer-did-history",
)


def rotated_registry() -> tuple[Registry, Did, Did]:
    """A registry of two reg identities, the first rotated once: (registry, rotated, other).
    Its write log is the first's genesis, the other's genesis, the first's update."""
    registry = Registry()
    first = build_actor("first", 1, registry, method="reg")
    other = build_actor("other", 2, registry, method="reg")
    new_key = crypto.keygen(crypto.PURPOSE_SIGN, seed=bytes(31) + b"\x07")
    entry = PublicKeyEntry(new_key.key_id, crypto.PURPOSE_SIGN, new_key.public)
    registry.register(rotate_key(first.document, first.sign_key.key_id, entry, NOW), first.sign_key)
    return registry, first.did, other.did


def cut_registry(registry: Registry, records: int) -> Registry:
    """A registry loaded from the first `records` records of `registry`'s write
    log: a log cut short, which loads as any log register() could write does."""
    snapshot = from_canonical(registry.snapshot())
    snapshot["records"] = snapshot["records"][:records]
    return Registry.from_snapshot(canonical_bytes(snapshot))


def tampered_snapshot(how: str) -> tuple[bytes, Did]:
    """The snapshot of rotated_registry() tampered `how` (one of TAMPERINGS), and the
    DID whose records it changed."""
    registry, did, _ = rotated_registry()
    snapshot = from_canonical(registry.snapshot())
    records = snapshot["records"]
    genesis, latest = records[0], records[-1]
    attacker = crypto.keygen(crypto.PURPOSE_SIGN, seed=bytes(31) + b"\xee")
    attacker_keys = (PublicKeyEntry(attacker.key_id, crypto.PURPOSE_SIGN, attacker.public),)
    if how == "swapped-document":
        # The attacker's keys in the latest version; its signature is the owner's.
        doc = DidDocument.from_bytes(bytes.fromhex(latest["document"]))
        latest["document"] = replace(doc, public_keys=attacker_keys).to_bytes().hex()
    elif how == "bad-signature":
        signature = bytearray(bytes.fromhex(latest["signature"]))
        signature[0] ^= 1
        latest["signature"] = signature.hex()
    elif how == "unparsable-document":
        latest["document"] = b"{}".hex()
    elif how in ("zero-signed-genesis", "self-signed-genesis"):
        # The DID's records replaced by one: the attacker's document under the DID,
        # signed by nobody or by the attacker's own key, which that genesis lists.
        doc = DidDocument(did, attacker_keys).to_bytes()
        signature = bytes(64) if how == "zero-signed-genesis" else crypto.sign(attacker, doc)
        records[:] = [{"document": doc.hex(), "signature": signature.hex(),
                       "signed_by": attacker.key_id}, records[1]]
    elif how == "genesis-replayed":
        # A valid record again, after a later version.
        records.append(genesis)
    elif how == "update-before-genesis":
        # Every record valid, but the update written ahead of its genesis.
        records[:] = [latest, records[1], genesis]
    elif how == "peer-did-history":
        # A record the registry would write for a reg DID, but of a peer DID: a
        # self-certifying genesis signed by the key it lists.
        doc = DidDocument.from_body(DocumentBody(attacker_keys), "peer").to_bytes()
        did = DidDocument.from_bytes(doc).id
        records.append({
            "document": doc.hex(), "signature": crypto.sign(attacker, doc).hex(),
            "signed_by": attacker.key_id,
        })
    else:
        raise ValueError(how)
    return canonical_bytes(snapshot), did
