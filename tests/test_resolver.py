"""Registry writes, cached resolution, and peer-document self-certification."""

from dataclasses import replace
from random import Random

import pytest

from tinyssi import crypto
from tinyssi.identity import (
    Did,
    DidDocument,
    PublicKeyEntry,
    format_did,
    generate_peer_did,
    rotate_key,
)
from tinyssi.resolver import (
    DidNotFound,
    DocumentIntegrityError,
    Registry,
    RegistryError,
    Resolver,
    UnsupportedDidMethod,
    registered_did_for,
)


def reg_identity(seed: int = 1):
    kp = crypto.keygen(crypto.PURPOSE_SIGN, seed=seed.to_bytes(32, "big"))
    entry = PublicKeyEntry(kp.key_id, crypto.PURPOSE_SIGN, kp.public)
    did = registered_did_for(kp.public, f"actor-{seed}")
    doc = DidDocument(id=did, public_keys=(entry,))
    return kp, did, doc


def reg_identity_with_agreement_key(seed: int = 1):
    """A reg identity whose document also lists an agreement key."""
    kp, did, doc = reg_identity(seed)
    agree = crypto.keygen(crypto.PURPOSE_AGREE, seed=(seed + 100).to_bytes(32, "big"))
    entry = PublicKeyEntry(agree.key_id, crypto.PURPOSE_AGREE, agree.public)
    return kp, agree, did, replace(doc, public_keys=doc.public_keys + (entry,))


def peer_identity(seed: int = 2):
    kp = crypto.keygen(crypto.PURPOSE_SIGN, seed=seed.to_bytes(32, "big"))
    entry = PublicKeyEntry(kp.key_id, crypto.PURPOSE_SIGN, kp.public)
    did, doc = generate_peer_did((entry,))
    return kp, did, doc


class TestRegistry:
    def test_genesis_register_stores_version_one(self):
        registry = Registry()
        kp, did, doc = reg_identity()
        registry.register(doc, kp)
        assert registry.lookup(did).version == 1
        assert registry.write_count == 1

    def test_update_signed_by_current_key(self):
        registry = Registry()
        kp, did, doc = reg_identity()
        registry.register(doc, kp)
        new_kp = crypto.keygen(crypto.PURPOSE_SIGN)
        rotated = rotate_key(
            doc, kp.key_id,
            PublicKeyEntry(new_kp.key_id, crypto.PURPOSE_SIGN, new_kp.public), now=5,
        )
        registry.register(rotated, kp)
        assert registry.lookup(did).version == 2

    def test_update_signed_by_rotated_out_key_rejected(self):
        registry = Registry()
        kp, did, doc = reg_identity()
        registry.register(doc, kp)
        new_kp = crypto.keygen(crypto.PURPOSE_SIGN)
        v2 = rotate_key(
            doc, kp.key_id,
            PublicKeyEntry(new_kp.key_id, crypto.PURPOSE_SIGN, new_kp.public), now=5,
        )
        registry.register(v2, kp)
        third = crypto.keygen(crypto.PURPOSE_SIGN)
        v3 = rotate_key(
            v2, new_kp.key_id,
            PublicKeyEntry(third.key_id, crypto.PURPOSE_SIGN, third.public), now=6,
        )
        # kp was retired in v2; only new_kp may sign the v3 update.
        with pytest.raises(RegistryError):
            registry.register(v3, kp)
        registry.register(v3, new_kp)

    @pytest.mark.parametrize("signer", ["outsider", "own-agreement-key", "listed-id-other-bytes"])
    def test_genesis_signed_by_a_key_its_document_does_not_authorize(self, signer):
        registry = Registry()
        kp, agree, did, doc = reg_identity_with_agreement_key()
        signers = {
            "outsider": crypto.keygen(crypto.PURPOSE_SIGN, seed=bytes(31) + b"\x09"),
            "own-agreement-key": agree,
            "listed-id-other-bytes": crypto.keygen(
                crypto.PURPOSE_SIGN, seed=bytes(31) + b"\x09", key_id=kp.key_id
            ),
        }
        with pytest.raises(RegistryError):
            registry.register(doc, signers[signer])
        with pytest.raises(DidNotFound):
            registry.lookup(did)
        assert registry.snapshot() == Registry().snapshot()
        registry.register(doc, kp)

    def test_update_signed_by_agreement_key_of_previous_version_rejected(self):
        registry = Registry()
        kp, agree, did, doc = reg_identity_with_agreement_key()
        registry.register(doc, kp)
        new_kp = crypto.keygen(crypto.PURPOSE_SIGN)
        v2 = rotate_key(
            doc, kp.key_id,
            PublicKeyEntry(new_kp.key_id, crypto.PURPOSE_SIGN, new_kp.public), now=5,
        )
        with pytest.raises(RegistryError):
            registry.register(v2, agree)
        assert registry.lookup(did) == doc

    def test_version_conflict_rejected(self):
        registry = Registry()
        kp, _, doc = reg_identity()
        registry.register(doc, kp)
        with pytest.raises(RegistryError):
            registry.register(doc, kp)

    def test_unknown_did_not_found(self):
        registry = Registry()
        _, did, _ = reg_identity()
        with pytest.raises(DidNotFound):
            registry.lookup(did)

    def test_snapshot_roundtrip(self):
        registry = Registry()
        kp, did, doc = reg_identity()
        registry.register(doc, kp)
        restored = Registry.from_snapshot(registry.snapshot())
        assert restored.lookup(did) == doc
        assert restored.snapshot() == registry.snapshot()


class TestResolverCache:
    def test_resolves_within_ttl_hit_registry_once(self):
        registry = Registry()
        kp, did, doc = reg_identity()
        registry.register(doc, kp)
        resolver = Resolver(registry, ttl=300)
        for t in (1000, 1050, 1200, 1299):
            assert resolver.resolve(did, t) == doc
        assert registry.read_count == 1
        assert resolver.hit_count == 3
        assert resolver.miss_count == 1

    def test_post_ttl_resolve_reads_again(self):
        registry = Registry()
        kp, did, doc = reg_identity()
        registry.register(doc, kp)
        resolver = Resolver(registry, ttl=300)
        resolver.resolve(did, 1000)
        resolver.resolve(did, 1300)
        assert registry.read_count == 2

    def test_k_resolves_per_distinct_did_one_read_each(self):
        registry = Registry()
        identities = [reg_identity(seed) for seed in range(1, 6)]
        for kp, _, doc in identities:
            registry.register(doc, kp)
        resolver = Resolver(registry, ttl=300)
        for _ in range(7):
            for _, did, _ in identities:
                resolver.resolve(did, 2000)
        assert registry.read_count == len(identities)

    def test_cache_transparency_differential(self):
        # Random resolve/update/advance sequences; updates are always followed
        # by a time jump past the TTL, so the freshness contract guarantees the
        # cached answer equals a direct registry read at the same instant.
        registry = Registry()
        kp, did, doc = reg_identity()
        registry.register(doc, kp)
        resolver = Resolver(registry, ttl=300)
        rng = Random(77)
        now = 10_000
        current_kp, current_doc = kp, doc
        for _ in range(200):
            op = rng.random()
            if op < 0.6:
                assert resolver.resolve(did, now) == registry.lookup(did)
            elif op < 0.8:
                now += rng.randrange(0, 250)
            else:
                new_kp = crypto.keygen(crypto.PURPOSE_SIGN, seed=rng.randbytes(32))
                current_doc = rotate_key(
                    current_doc,
                    current_doc.public_keys[0].key_id,
                    PublicKeyEntry(new_kp.key_id, crypto.PURPOSE_SIGN, new_kp.public),
                    now=now,
                )
                registry.register(current_doc, current_kp)
                current_kp = new_kp
                now += 301

    def test_unsupported_method(self):
        resolver = Resolver(Registry())
        with pytest.raises(UnsupportedDidMethod):
            resolver.resolve(Did(method="btcr", id="abcdefgh12345678"), 0)

    def test_concurrent_resolves_cost_one_read(self):
        import threading

        registry = Registry()
        kp, did, doc = reg_identity()
        registry.register(doc, kp)
        resolver = Resolver(registry, ttl=300)
        results = []

        def worker():
            for _ in range(50):
                results.append(resolver.resolve(did, 1000))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.read_count == 1
        assert len(results) == 400
        assert all(r == doc for r in results)

    def test_concurrent_registry_writes_all_land(self):
        import threading

        registry = Registry()
        identities = [reg_identity(seed) for seed in range(1, 17)]

        def worker(chunk):
            for kp, _, doc in chunk:
                registry.register(doc, kp)

        threads = [
            threading.Thread(target=worker, args=(identities[i::4],)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.write_count == 16
        for _, did, doc in identities:
            assert registry.lookup(did) == doc


class TestPeerStore:
    def test_honest_store_and_resolve(self):
        _, did, doc = peer_identity()
        resolver = Resolver()
        resolver.store_peer(did, doc)
        assert resolver.resolve(did, 0) == doc

    def test_store_rejects_flipped_byte(self):
        _, did, doc = peer_identity()
        bad_key = PublicKeyEntry(
            key_id=doc.public_keys[0].key_id,
            purpose="sign",
            public=bytes([doc.public_keys[0].public[0] ^ 1]) + doc.public_keys[0].public[1:],
        )
        forged = DidDocument(id=did, public_keys=(bad_key,))
        resolver = Resolver()
        with pytest.raises(DocumentIntegrityError):
            resolver.store_peer(did, forged)

    def test_restore_identical_is_idempotent(self):
        _, did, doc = peer_identity()
        resolver = Resolver()
        resolver.store_peer(did, doc)
        resolver.store_peer(did, doc)
        assert resolver.resolve(did, 0) == doc

    def test_corrupted_store_is_detected_on_resolve(self):
        _, did, doc = peer_identity()
        _, _, other_doc = peer_identity(seed=9)
        resolver = Resolver()
        resolver.store_peer(did, doc)
        resolver.peer_documents[format_did(did)] = DidDocument(
            id=did, public_keys=other_doc.public_keys
        )
        with pytest.raises(DocumentIntegrityError):
            resolver.resolve(did, 0)

    def test_unknown_peer_not_found(self):
        _, did, _ = peer_identity()
        with pytest.raises(DidNotFound):
            Resolver().resolve(did, 0)

    def test_store_peer_rejects_other_methods(self):
        kp, did, doc = reg_identity()
        resolver = Resolver()
        with pytest.raises(UnsupportedDidMethod):
            resolver.store_peer(did, doc)

    def test_no_mismatched_document_ever_returned(self):
        # Fuzz the store with corrupted variants: resolve never returns a
        # document whose digest disagrees with the identifier.
        rng = Random(3)
        _, did, doc = peer_identity()
        resolver = Resolver()
        resolver.store_peer(did, doc)
        for _ in range(50):
            mutated_public = bytearray(doc.public_keys[0].public)
            mutated_public[rng.randrange(32)] ^= 1 << rng.randrange(8)
            forged = DidDocument(
                id=did,
                public_keys=(
                    PublicKeyEntry(
                        doc.public_keys[0].key_id, "sign", bytes(mutated_public)
                    ),
                ),
            )
            resolver.peer_documents[format_did(did)] = forged
            with pytest.raises(DocumentIntegrityError):
                resolver.resolve(did, 0)
