"""Shared builders: owners, devices, and wired-up session configs."""

from dataclasses import dataclass
from random import Random

import pytest

from tinyssi import crypto
from tinyssi.credentials import Claim, StoredCredential, issue
from tinyssi.handshake import OwnerMatch, SessionConfig
from tinyssi.identity import (
    Did,
    DidDocument,
    PublicKeyEntry,
    ServiceEndpoint,
    format_did,
    generate_peer_did,
)
from tinyssi.resolver import Registry, Resolver, registered_did_for

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
    if method == "peer":
        did, document = generate_peer_did(keys, endpoints)
    else:
        did = registered_did_for(sign_key.public, name)
        document = DidDocument(id=did, public_keys=keys, service_endpoints=endpoints)
        registry.register(document, sign_key)
    return Actor(
        name=name,
        did=did,
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
