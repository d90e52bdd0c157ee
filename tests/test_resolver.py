"""Registry writes, cached resolution, and peer-document self-certification."""

from dataclasses import FrozenInstanceError, replace
from random import Random

import pytest

from conftest import NOW, TAMPERINGS, cut_registry, rotated_registry, tampered_snapshot
from tinyssi import crypto
from tinyssi.identity import (
    Did,
    METHOD_REG,
    DidDocument,
    DocumentBody,
    PublicKeyEntry,
    generate_peer_did,
    rotate_key,
)
from tinyssi.resolver import (
    DEFAULT_TTL,
    DidNotFound,
    DocumentIntegrityError,
    Registry,
    RegistryError,
    Resolver,
    UnsupportedDidMethod,
)


def reg_identity(seed: int = 1):
    kp = crypto.keygen(crypto.PURPOSE_SIGN, seed=seed.to_bytes(32, "big"))
    entry = PublicKeyEntry(kp.key_id, crypto.PURPOSE_SIGN, kp.public)
    doc = DidDocument.from_body(DocumentBody((entry,)), METHOD_REG)
    return kp, doc.id, doc


def reg_identity_with_agreement_key(seed: int = 1):
    """A reg identity whose document also lists an agreement key: a genesis of its
    own, so its DID is derived from the longer key list."""
    kp, _, doc = reg_identity(seed)
    agree = crypto.keygen(crypto.PURPOSE_AGREE, seed=(seed + 100).to_bytes(32, "big"))
    entry = PublicKeyEntry(agree.key_id, crypto.PURPOSE_AGREE, agree.public)
    genesis = DidDocument.from_body(DocumentBody(doc.public_keys + (entry,)), METHOD_REG)
    return kp, agree, genesis.id, genesis


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
            "listed-id-other-bytes": replace(
                crypto.keygen(crypto.PURPOSE_SIGN, seed=bytes(31) + b"\x09"), key_id=kp.key_id
            ),
        }
        with pytest.raises(RegistryError):
            registry.register(doc, signers[signer])
        with pytest.raises(DidNotFound):
            registry.lookup(did)
        assert registry.snapshot() == Registry().snapshot()
        registry.register(doc, kp)

    @pytest.mark.parametrize("claimed", ["another-did", "arbitrary-id", "later-version-first"])
    def test_genesis_not_derived_from_its_body_is_refused_before_signing(
        self, claimed, monkeypatch
    ):
        registry = Registry()
        kp, _, doc = reg_identity()
        new_kp = crypto.keygen(crypto.PURPOSE_SIGN, seed=bytes(31) + b"\x09")
        new_entry = PublicKeyEntry(new_kp.key_id, crypto.PURPOSE_SIGN, new_kp.public)
        # Each genesis is signed by a signing key it lists; only its id is wrong.
        genesis, signer = {
            "another-did": (replace(doc, id=reg_identity(2)[1]), kp),
            "arbitrary-id": (replace(doc, id=Did("reg", "11z")), kp),
            "later-version-first": (rotate_key(doc, kp.key_id, new_entry, now=5), new_kp),
        }[claimed]

        def refuse_to_sign(*_):
            raise AssertionError("signed a genesis the registry refuses")

        monkeypatch.setattr(crypto, "sign", refuse_to_sign)
        with pytest.raises(RegistryError, match="does not derive"):
            registry.register(genesis, signer)
        assert registry.write_count == 0
        assert registry.snapshot() == Registry().snapshot()

    def test_peer_genesis_is_refused_before_signing(self, monkeypatch):
        # A peer document certifies its own DID and lists its signer, yet no
        # resolver reads a peer DID from the registry, so the registry holds none.
        kp = crypto.keygen(crypto.PURPOSE_SIGN, seed=bytes(31) + b"\x05")
        did, doc = generate_peer_did([PublicKeyEntry(kp.key_id, crypto.PURPOSE_SIGN, kp.public)])
        assert doc.certifies_its_id() and doc.authorizes(kp)
        registry = Registry()

        def refuse_to_sign(*_):
            raise AssertionError("signed a document the registry refuses")

        monkeypatch.setattr(crypto, "sign", refuse_to_sign)
        with pytest.raises(RegistryError, match="holds only reg DIDs"):
            registry.register(doc, kp)
        assert registry.write_count == 0
        assert registry.snapshot() == Registry().snapshot()

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


class TestSnapshotCheck:
    """A snapshot loads only if register() could have written every history in it."""

    def test_rotated_history_round_trips(self):
        registry, did, _ = rotated_registry()
        restored = Registry.from_snapshot(registry.snapshot())
        assert restored.lookup(did) == registry.lookup(did)
        assert restored.lookup(did).version == 2
        assert restored.snapshot() == registry.snapshot()

    @pytest.mark.parametrize("how", TAMPERINGS)
    def test_tampered_snapshot_is_refused_on_load(self, how):
        raw, _ = tampered_snapshot(how)
        with pytest.raises(RegistryError, match="bad registry snapshot"):
            Registry.from_snapshot(raw)

    def test_self_signed_genesis_of_another_key_is_refused_by_its_binding(self):
        # Its signature verifies against the key it lists: only the DID, derived
        # from another body, gives it away.
        raw, did = tampered_snapshot("self-signed-genesis")
        with pytest.raises(RegistryError, match=f"genesis body does not derive {did}"):
            Registry.from_snapshot(raw)

    def test_update_before_its_genesis_is_refused_by_its_binding(self):
        # Each record is signed as register() signed it; replayed in this order, the
        # update comes first and is read as a genesis, which its body does not derive.
        raw, did = tampered_snapshot("update-before-genesis")
        with pytest.raises(RegistryError, match=f"record 0: genesis body does not derive {did}"):
            Registry.from_snapshot(raw)

    def test_loaded_registry_reads_without_parsing(self, monkeypatch):
        # A snapshot is parsed once, on load; a lookup reads the parsed document.
        registry, did, other = rotated_registry()
        restored = Registry.from_snapshot(registry.snapshot())

        def refuse_to_parse(*_):
            raise AssertionError("parsed a document on lookup")

        monkeypatch.setattr(DidDocument, "from_bytes", refuse_to_parse)
        assert restored.lookup(did) == registry.lookup(did)
        assert restored.lookup(other).version == 1


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


def rotated(kp, doc, now):
    """doc with kp retired for a new signing key: (new key pair, rotated document)."""
    new_kp = crypto.keygen(crypto.PURPOSE_SIGN, seed=(9).to_bytes(32, "big"))
    entry = PublicKeyEntry(new_kp.key_id, crypto.PURPOSE_SIGN, new_kp.public)
    return new_kp, rotate_key(doc, kp.key_id, entry, now=now)


class TestKeyRefresh:
    """resolve(did, now, key_id) re-reads a cached reg document that does not know key_id."""

    def test_known_key_is_a_cache_hit(self):
        registry = Registry()
        kp, did, doc = reg_identity()
        registry.register(doc, kp)
        resolver = Resolver(registry)
        resolver.resolve(did, 1000)
        assert resolver.resolve(did, 1010, kp.key_id) == doc
        assert registry.read_count == 1

    def test_stale_document_is_re_read_once(self):
        registry = Registry()
        kp, did, doc = reg_identity()
        registry.register(doc, kp)
        resolver = Resolver(registry)
        resolver.resolve(did, 1000)
        new_kp, v2 = rotated(kp, doc, 1005)
        registry.register(v2, kp)
        assert resolver.resolve(did, 1010) == doc  # within the TTL, unchanged
        assert resolver.resolve(did, 1010, new_kp.key_id) == v2
        assert resolver.resolve(did, 1020, new_kp.key_id) == v2
        assert registry.read_count == resolver.miss_count == 2

    def test_retired_key_is_known(self):
        # A retired key checks proofs made in the past: re-reading cannot help.
        registry = Registry()
        kp, did, doc = reg_identity()
        registry.register(doc, kp)
        _, v2 = rotated(kp, doc, 1005)
        registry.register(v2, kp)
        resolver = Resolver(registry)
        assert resolver.resolve(did, 1010, kp.key_id) == v2
        assert resolver.resolve(did, 1020, kp.key_id) == v2
        assert registry.read_count == 1

    def test_unknown_key_costs_one_read_per_instant(self):
        registry = Registry()
        kp, did, doc = reg_identity()
        registry.register(doc, kp)
        resolver = Resolver(registry)
        resolver.resolve(did, 1000)
        reads = []
        for now, key_id in [(1010, "sign-x"), (1010, "sign-y"), (1010, "sign-x"), (1020, "sign-z")]:
            before = registry.read_count
            assert resolver.resolve(did, now, key_id) == doc
            reads.append(registry.read_count - before)
        # A document read at this instant is as fresh as the registry has.
        assert reads == [1, 0, 0, 1]

    def test_peer_document_is_never_re_read(self):
        registry = Registry()
        _, did, doc = peer_identity()
        resolver = Resolver(registry)
        resolver.store_peer(did, doc)
        assert resolver.resolve(did, 1000, "sign-unknown") == doc
        assert registry.read_count == resolver.miss_count == 0

    def test_did_gone_at_re_read_raises(self):
        registry = Registry()
        kp, did, doc = reg_identity()
        registry.register(doc, kp)
        resolver = Resolver(registry)
        resolver.resolve(did, 1000)
        resolver.registry = Registry()
        with pytest.raises(DidNotFound):
            resolver.resolve(did, 1010, "sign-unknown")


class TestRollback:
    """A resolver keeps the highest version of each reg DID it has accepted, and
    refuses a registry read that goes back from it."""

    def _rolled_back(self):
        """A resolver holding the rotated DID at version 2, its registry swapped
        for the log cut before the update: (resolver, rotated, other)."""
        registry, did, other = rotated_registry()
        resolver = Resolver(registry)
        assert resolver.resolve(did, NOW).version == 2
        resolver.registry = cut_registry(registry, 2)  # both geneses, no update
        assert resolver.registry.lookup(did).version == 1
        return resolver, did, other

    def test_read_after_the_ttl_is_refused_and_the_newer_version_stays(self):
        resolver, did, other = self._rolled_back()
        with pytest.raises(DocumentIntegrityError, match="rollback: .* version 1 .* version 2"):
            resolver.resolve(did, NOW + DEFAULT_TTL)
        assert resolver._cache[did].document.version == 2
        # The cut log still serves the DID it did not roll back.
        assert resolver.resolve(other, NOW + DEFAULT_TTL).version == 1

    def test_the_mark_outlives_many_ttl_windows(self):
        resolver, did, _ = self._rolled_back()
        for windows in (1, 2, 10):
            with pytest.raises(DocumentIntegrityError, match="rollback"):
                resolver.resolve(did, NOW + windows * DEFAULT_TTL)

    def test_key_id_re_read_is_refused_too(self):
        # Within the TTL, an unknown key id forces the read that finds version 1.
        resolver, did, _ = self._rolled_back()
        with pytest.raises(DocumentIntegrityError, match="rollback"):
            resolver.resolve(did, NOW + 10, "sign-unknown")
        assert resolver._cache[did].document.version == 2
        assert resolver.resolve(did, NOW + 20).version == 2  # a cache hit, as before

    def test_the_same_version_again_is_accepted(self):
        registry, did, _ = rotated_registry()
        resolver = Resolver(registry)
        resolver.resolve(did, NOW)
        resolver.registry = Registry.from_snapshot(registry.snapshot())
        assert resolver.resolve(did, NOW + DEFAULT_TTL).version == 2


class TestPeerStore:
    def test_honest_store_and_resolve(self):
        _, did, doc = peer_identity()
        resolver = Resolver(Registry())
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
        resolver = Resolver(Registry())
        with pytest.raises(DocumentIntegrityError):
            resolver.store_peer(did, forged)

    def test_restore_identical_is_idempotent(self):
        _, did, doc = peer_identity()
        resolver = Resolver(Registry())
        resolver.store_peer(did, doc)
        resolver.store_peer(did, doc)
        assert resolver.resolve(did, 0) == doc

    def test_substituted_document_is_refused_on_store(self):
        _, did, doc = peer_identity()
        _, _, other_doc = peer_identity(seed=9)
        resolver = Resolver(Registry())
        resolver.store_peer(did, doc)
        with pytest.raises(DocumentIntegrityError):
            resolver.store_peer(did, DidDocument(id=did, public_keys=other_doc.public_keys))
        assert resolver.resolve(did, 0) == doc

    def test_stored_document_cannot_change(self):
        # The store checks a document once, on store_peer; that check holds
        # for as long as the document is kept because nothing in it can change.
        _, did, doc = peer_identity()
        _, _, other_doc = peer_identity(seed=9)
        resolver = Resolver(Registry())
        resolver.store_peer(did, doc)
        stored = resolver.resolve(did, 0)
        with pytest.raises(FrozenInstanceError):
            stored.public_keys = other_doc.public_keys
        with pytest.raises(FrozenInstanceError):
            stored.public_keys[0].public = other_doc.public_keys[0].public
        assert resolver.resolve(did, 0) == doc

    def test_unknown_peer_not_found(self):
        _, did, _ = peer_identity()
        with pytest.raises(DidNotFound):
            Resolver(Registry()).resolve(did, 0)

    def test_store_peer_rejects_other_methods(self):
        kp, did, doc = reg_identity()
        resolver = Resolver(Registry())
        with pytest.raises(UnsupportedDidMethod):
            resolver.store_peer(did, doc)

    def test_no_mismatched_document_ever_returned(self):
        # Fuzz the store with corrupted variants: store_peer refuses each, so
        # resolve never returns a document whose digest disagrees with the id.
        rng = Random(3)
        _, did, doc = peer_identity()
        resolver = Resolver(Registry())
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
            with pytest.raises(DocumentIntegrityError):
                resolver.store_peer(did, forged)
            assert resolver.resolve(did, 0) == doc
