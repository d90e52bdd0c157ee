"""Issuance, verification, selective disclosure, and revocation."""

import hashlib
import itertools
from random import Random

import pytest

from tinyssi import crypto
from tinyssi.credentials import (
    Claim,
    CredentialError,
    Presentation,
    RevocationRegistry,
    Verdict,
    VerifiableCredential,
    commitment_hash,
    issue,
    present,
    revoke,
    verify_credential,
    verify_presentation,
)
from tinyssi.identity import (
    DidDocument,
    DocumentBody,
    PublicKeyEntry,
    generate_peer_did,
    rotate_key,
)
from tinyssi.resolver import Registry, Resolver

NOW = 1_700_000_000
MONTH = 30 * 24 * 3600


def make_issuer(seed: int = 1, method: str = "peer"):
    """Issuer identity resolvable through a fresh resolver."""
    sign_kp = crypto.keygen(crypto.PURPOSE_SIGN, seed=seed.to_bytes(32, "big"))
    entry = PublicKeyEntry(sign_kp.key_id, crypto.PURPOSE_SIGN, sign_kp.public)
    registry = Registry()
    resolver = Resolver(registry)
    doc = DidDocument.from_body(DocumentBody((entry,)), method)
    if method == "peer":
        resolver.store_peer(doc.id, doc)
    else:
        registry.register(doc, sign_kp)
    return sign_kp, doc.id, doc, resolver, registry


def rotate_issuer(sign_kp, doc, registry, now):
    """Register doc with sign_kp retired for a new key: (new key pair, rotated document)."""
    new_kp = crypto.keygen(crypto.PURPOSE_SIGN, seed=bytes(31) + b"\x77")
    entry = PublicKeyEntry(new_kp.key_id, crypto.PURPOSE_SIGN, new_kp.public)
    rotated = rotate_key(doc, sign_kp.key_id, entry, now=now)
    registry.register(rotated, sign_kp)
    return new_kp, rotated


def subject_did(seed: int = 50):
    kp = crypto.keygen(crypto.PURPOSE_SIGN, seed=seed.to_bytes(32, "big"))
    did, _ = generate_peer_did(
        (PublicKeyEntry(kp.key_id, crypto.PURPOSE_SIGN, kp.public),)
    )
    return did


class TestIssue:
    def test_owner_claim_opens_to_its_value(self):
        sign_kp, issuer, _, resolver, _ = make_issuer()
        subject = subject_did()
        vc, openings = issue(
            sign_kp, issuer, subject, [Claim("owner", "Alice")], MONTH, NOW
        )
        assert len(vc.commitments) == 1
        opening = openings[0]
        assert (opening.name, opening.value) == ("owner", "Alice")
        recomputed = hashlib.sha256(
            b"owner" + b"\x00" + b"Alice" + opening.salt
        ).digest()
        assert recomputed == vc.commitments[0].value_hash
        assert verify_credential(vc, resolver, None, NOW + 60).ok

    def test_every_commitment_reopens_from_returned_salt(self):
        sign_kp, issuer, _, _, _ = make_issuer()
        claims = [Claim(f"claim-{i}", f"value-{i}") for i in range(6)]
        vc, openings = issue(sign_kp, issuer, subject_did(), claims, MONTH, NOW)
        for commitment, opening in zip(vc.commitments, openings):
            assert commitment.claim_name == opening.name
            assert commitment.value_hash == commitment_hash(
                opening.name, opening.value, opening.salt
            )

    def test_duplicate_claim_names_rejected(self):
        sign_kp, issuer, _, _, _ = make_issuer()
        with pytest.raises(CredentialError):
            issue(
                sign_kp, issuer, subject_did(),
                [Claim("owner", "a"), Claim("owner", "b")], MONTH, NOW,
            )

    def test_empty_claim_list_rejected(self):
        sign_kp, issuer, _, _, _ = make_issuer()
        with pytest.raises(CredentialError):
            issue(sign_kp, issuer, subject_did(), [], MONTH, NOW)

    def test_salts_are_fresh_per_claim(self):
        sign_kp, issuer, _, _, _ = make_issuer()
        claims = [Claim("a", "same"), Claim("b", "same")]
        vc, openings = issue(sign_kp, issuer, subject_did(), claims, MONTH, NOW)
        assert openings[0].salt != openings[1].salt
        assert vc.commitments[0].value_hash != vc.commitments[1].value_hash

    def test_deterministic_under_seeded_rng(self):
        sign_kp, issuer, _, _, _ = make_issuer()
        claims = [Claim("owner", "Alice")]
        vc1, _ = issue(sign_kp, issuer, subject_did(), claims, MONTH, NOW, rng=Random(5))
        vc2, _ = issue(sign_kp, issuer, subject_did(), claims, MONTH, NOW, rng=Random(5))
        assert vc1.to_bytes() == vc2.to_bytes()


class TestVerifyCredential:
    @pytest.mark.parametrize("ok, reason", [(False, None), (True, "revoked"), (True, "")])
    def test_a_verdict_has_a_reason_exactly_when_it_fails(self, ok, reason):
        with pytest.raises(CredentialError):
            Verdict(ok, reason)

    def test_fresh_credential_is_valid(self):
        sign_kp, issuer, _, resolver, _ = make_issuer()
        vc, _ = issue(sign_kp, issuer, subject_did(), [Claim("type", "Camera")], MONTH, NOW)
        assert verify_credential(vc, resolver, None, NOW + 1).ok

    def test_revoked_credential_is_invalid(self):
        sign_kp, issuer, _, resolver, _ = make_issuer()
        vc, _ = issue(sign_kp, issuer, subject_did(), [Claim("type", "Camera")], MONTH, NOW)
        registry = RevocationRegistry(issuer)
        revoke(registry, sign_kp, vc.vc_id, resolver, NOW)
        verdict = verify_credential(vc, resolver, registry, NOW + 1)
        assert not verdict.ok
        assert verdict.reason == "revoked"

    def test_expired_and_not_yet_valid(self):
        sign_kp, issuer, _, resolver, _ = make_issuer()
        vc, _ = issue(sign_kp, issuer, subject_did(), [Claim("a", "b")], MONTH, NOW)
        assert verify_credential(vc, resolver, None, NOW + MONTH).reason == "expired"
        assert verify_credential(vc, resolver, None, NOW - 1).reason == "not yet valid"

    def test_unresolvable_issuer(self):
        sign_kp, issuer, _, _, _ = make_issuer()
        vc, _ = issue(sign_kp, issuer, subject_did(), [Claim("a", "b")], MONTH, NOW)
        empty_resolver = Resolver(Registry())
        verdict = verify_credential(vc, empty_resolver, None, NOW + 1)
        assert not verdict.ok
        assert "issuer unresolved" in verdict.reason

    def test_survives_issuer_key_rotation(self):
        sign_kp, issuer, doc, resolver, registry = make_issuer(method="reg")
        vc, _ = issue(sign_kp, issuer, subject_did(), [Claim("a", "b")], MONTH, NOW)
        before = verify_credential(vc, resolver, None, NOW + 1)
        assert before.ok
        new_kp = crypto.keygen(crypto.PURPOSE_SIGN)
        rotated = rotate_key(
            doc, sign_kp.key_id,
            PublicKeyEntry(new_kp.key_id, crypto.PURPOSE_SIGN, new_kp.public),
            now=NOW + 10,
        )
        registry.register(rotated, sign_kp)
        fresh = Resolver(registry)  # no stale cache
        assert fresh.resolve(issuer, NOW + 20).version == 2
        after = verify_credential(vc, fresh, None, NOW + 20)
        assert after.ok
        # And the credential bytes were never touched by the rotation.
        assert verify_credential(vc, fresh, None, NOW + 20) == before

    def test_credential_issued_after_a_rotation_verifies_through_a_stale_cache(self):
        sign_kp, issuer, doc, resolver, registry = make_issuer(method="reg")
        resolver.resolve(issuer, NOW)
        new_kp, _ = rotate_issuer(sign_kp, doc, registry, NOW + 10)
        vc, _ = issue(new_kp, issuer, subject_did(), [Claim("a", "b")], MONTH, NOW + 20)
        reads = registry.read_count
        assert verify_credential(vc, resolver, None, NOW + 30).ok
        assert verify_credential(vc, resolver, None, NOW + 40).ok
        assert registry.read_count == reads + 1

    def test_single_byte_mutations_always_rejected(self):
        sign_kp, issuer, _, resolver, _ = make_issuer()
        vc, _ = issue(
            sign_kp, issuer, subject_did(),
            [Claim("owner", "Alice"), Claim("type", "Camera")], MONTH, NOW,
        )
        raw = vc.to_bytes()
        rng = Random(11)
        rejected = 0
        for _ in range(100):
            mutated = bytearray(raw)
            position = rng.randrange(len(raw))
            mutated[position] ^= 1 << rng.randrange(8)
            try:
                candidate = VerifiableCredential.from_bytes(bytes(mutated))
            except CredentialError:
                rejected += 1
                continue
            if not verify_credential(candidate, resolver, None, NOW + 1).ok:
                rejected += 1
        assert rejected == 100


class TestPresent:
    def _five_claim_credential(self):
        sign_kp, issuer, _, resolver, _ = make_issuer()
        claims = [
            Claim("owner", "AliceOwnerValue"),
            Claim("type", "CameraTypeValue"),
            Claim("firmware", "fw-7.7.7-build"),
            Claim("site", "warehouse-north"),
            Claim("batch", "batch-2024-0042"),
        ]
        vc, openings = issue(sign_kp, issuer, subject_did(), claims, MONTH, NOW)
        return vc, openings, resolver

    def test_disclosed_subset_only(self):
        vc, openings, _ = self._five_claim_credential()
        presentation = present(vc, openings, {"type"})
        raw = presentation.to_bytes()
        assert b"CameraTypeValue" in raw
        assert b"AliceOwnerValue" not in raw

    def test_present_all_names(self):
        vc, openings, _ = self._five_claim_credential()
        presentation = present(vc, openings, set(vc.claim_names()))
        assert len(presentation.disclosed) == 5

    def test_all_31_subsets_verify(self):
        vc, openings, resolver = self._five_claim_credential()
        names = vc.claim_names()
        count = 0
        for r in range(1, 6):
            for subset in itertools.combinations(names, r):
                presentation = present(vc, openings, set(subset))
                assert verify_presentation(presentation, resolver, None, NOW + 1).ok
                count += 1
        assert count == 31

    def test_unknown_claim_rejected(self):
        vc, openings, _ = self._five_claim_credential()
        with pytest.raises(CredentialError):
            present(vc, openings, {"nope"})

    def test_empty_subset_rejected(self):
        vc, openings, _ = self._five_claim_credential()
        with pytest.raises(CredentialError):
            present(vc, openings, set())

    def test_hiding_no_undisclosed_bytes(self):
        vc, openings, _ = self._five_claim_credential()
        presentation = present(vc, openings, {"type"})
        raw = presentation.to_bytes()
        for opening in openings:
            if opening.name == "type":
                continue
            assert opening.value.encode() not in raw
            assert opening.salt not in raw
            assert opening.salt.hex().encode() not in raw

    def test_presentation_bytes_roundtrip(self):
        vc, openings, resolver = self._five_claim_credential()
        presentation = present(vc, openings, {"owner", "site"})
        restored = Presentation.from_bytes(presentation.to_bytes())
        assert restored == presentation
        assert verify_presentation(restored, resolver, None, NOW + 1).ok


class TestVerifyPresentation:
    def _setup(self):
        sign_kp, issuer, _, resolver, _ = make_issuer()
        vc, openings = issue(
            sign_kp, issuer, subject_did(),
            [Claim("owner", "Alice"), Claim("type", "Camera")], MONTH, NOW,
        )
        return vc, openings, resolver

    def test_honest_presentation_valid(self):
        vc, openings, resolver = self._setup()
        p = present(vc, openings, {"owner"})
        assert verify_presentation(p, resolver, None, NOW + 1).ok

    def test_altered_disclosed_value_is_commitment_mismatch(self):
        vc, openings, resolver = self._setup()
        p = present(vc, openings, {"owner"})
        mapping = p.to_mapping()
        mapping["disclosed"][0]["value"] = "Mallory"
        verdict = verify_presentation(
            Presentation.from_mapping(mapping), resolver, None, NOW + 1
        )
        assert verdict.reason == "commitment mismatch"

    def test_altered_undisclosed_commitment_is_signature_failure(self):
        vc, openings, resolver = self._setup()
        p = present(vc, openings, {"owner"})
        mapping = p.to_mapping()
        mapping["credential"]["commitments"][1]["value_hash"] = "00" * 32
        verdict = verify_presentation(
            Presentation.from_mapping(mapping), resolver, None, NOW + 1
        )
        assert verdict.reason == "signature"

    def test_revoked_credential_fails_presentation(self):
        sign_kp, issuer, _, resolver, _ = make_issuer()
        vc, openings = issue(
            sign_kp, issuer, subject_did(), [Claim("a", "b")], MONTH, NOW
        )
        registry = RevocationRegistry(issuer)
        revoke(registry, sign_kp, vc.vc_id, resolver, NOW)
        p = present(vc, openings, {"a"})
        assert verify_presentation(p, resolver, registry, NOW + 1).reason == "revoked"


class TestRevocation:
    def test_revoke_then_verify_invalid(self):
        sign_kp, issuer, _, resolver, _ = make_issuer()
        vc, _ = issue(sign_kp, issuer, subject_did(), [Claim("a", "b")], MONTH, NOW)
        registry = RevocationRegistry(issuer)
        assert verify_credential(vc, resolver, registry, NOW + 1).ok
        revoke(registry, sign_kp, vc.vc_id, resolver, NOW)
        assert verify_credential(vc, resolver, registry, NOW + 1).reason == "revoked"

    def test_list_revokes_only_credentials_its_owner_issued(self):
        sign_kp, issuer, _, resolver, _ = make_issuer(1)
        other_kp, other, _, other_resolver, _ = make_issuer(2)
        vc, _ = issue(sign_kp, issuer, subject_did(), [Claim("a", "b")], MONTH, NOW)
        foreign = RevocationRegistry(other)
        revoke(foreign, other_kp, vc.vc_id, other_resolver, NOW)
        assert vc.vc_id in foreign
        assert verify_credential(vc, resolver, foreign, NOW + 1).ok

    def test_revoke_idempotent(self):
        sign_kp, issuer, _, resolver, _ = make_issuer()
        registry = RevocationRegistry(issuer)
        revoke(registry, sign_kp, "vc:deadbeef", resolver, NOW)
        revoke(registry, sign_kp, "vc:deadbeef", resolver, NOW)
        assert registry.revoked == ("vc:deadbeef",)

    def test_revoke_with_the_new_key_through_a_stale_cache(self):
        sign_kp, issuer, doc, resolver, registry = make_issuer(method="reg")
        resolver.resolve(issuer, NOW)
        new_kp, _ = rotate_issuer(sign_kp, doc, registry, NOW + 10)
        revocations = RevocationRegistry(issuer)
        revoke(revocations, new_kp, "vc:deadbeef", resolver, NOW + 20)
        assert revocations.revoked == ("vc:deadbeef",)
        # The retired key is known to the re-read document, and refused.
        with pytest.raises(CredentialError):
            revoke(revocations, sign_kp, "vc:cafebabe", resolver, NOW + 30)

    def test_non_issuer_cannot_revoke(self):
        _, issuer, _, resolver, _ = make_issuer()
        registry = RevocationRegistry(issuer)
        outsider = crypto.keygen(crypto.PURPOSE_SIGN)
        with pytest.raises(CredentialError):
            revoke(registry, outsider, "vc:deadbeef", resolver, NOW)

    def test_owner_agreement_key_cannot_revoke(self):
        sign_kp = crypto.keygen(crypto.PURPOSE_SIGN, seed=(1).to_bytes(32, "big"))
        agree_kp = crypto.keygen(crypto.PURPOSE_AGREE, seed=(2).to_bytes(32, "big"))
        issuer, doc = generate_peer_did((
            PublicKeyEntry(sign_kp.key_id, crypto.PURPOSE_SIGN, sign_kp.public),
            PublicKeyEntry(agree_kp.key_id, crypto.PURPOSE_AGREE, agree_kp.public),
        ))
        resolver = Resolver(Registry())
        resolver.store_peer(issuer, doc)
        registry = RevocationRegistry(issuer)
        with pytest.raises(CredentialError):
            revoke(registry, agree_kp, "vc:deadbeef", resolver, NOW)
        assert registry.revoked == ()
        revoke(registry, sign_kp, "vc:deadbeef", resolver, NOW)
        assert registry.revoked == ("vc:deadbeef",)

    def test_registry_is_append_only(self):
        registry = RevocationRegistry(subject_did())
        registry.add("vc:1")
        assert not hasattr(registry, "remove")
        assert "vc:1" in registry
