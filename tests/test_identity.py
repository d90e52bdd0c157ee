"""DID syntax, peer-method generation, canonical documents, key rotation."""

import hashlib
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from tinyssi import crypto
from tinyssi.encoding import canonical_bytes
from tinyssi.identity import (
    Did,
    DidDocument,
    DidError,
    PublicKeyEntry,
    RetiredKey,
    ServiceEndpoint,
    canonical_serialize,
    format_did,
    generate_peer_did,
    parse_did,
    rotate_key,
    validate_document,
    verify_peer_document,
)

_B58 = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"


def _independent_base58(raw: bytes) -> str:
    # Standalone re-implementation used as the oracle for peer DID suffixes.
    n = int.from_bytes(raw, "big")
    out = ""
    while n:
        n, rem = divmod(n, 58)
        out = _B58[rem] + out
    return "1" * (len(raw) - len(raw.lstrip(b"\x00"))) + out


def _key_entry(seed: int, purpose: str = "sign") -> PublicKeyEntry:
    kp = crypto.keygen(purpose, seed=seed.to_bytes(32, "big"))
    return PublicKeyEntry(key_id=kp.key_id, purpose=purpose, public=kp.public)


def _sample_document(n_keys: int = 2, n_endpoints: int = 1) -> DidDocument:
    keys = tuple(
        _key_entry(i + 1, "sign" if i % 2 == 0 else "agree") for i in range(n_keys)
    )
    endpoints = tuple(
        ServiceEndpoint(f"ep-{i}", "sim-link", f"sim-link://device-{i}")
        for i in range(n_endpoints)
    )
    _, doc = generate_peer_did(keys, endpoints)
    return doc


class TestDidSyntax:
    def test_parse_bitcoin_method_example(self):
        did = parse_did("did:btcr:abcdefgh12345678")
        assert did.method == "btcr"
        assert did.id == "abcdefgh12345678"

    def test_non_did_prefix_rejected(self):
        with pytest.raises(DidError):
            parse_did("urn:uuid:1234")

    def test_empty_id_rejected(self):
        with pytest.raises(DidError):
            parse_did("did:peer:")

    def test_empty_method_rejected(self):
        with pytest.raises(DidError):
            parse_did("did::abc")

    def test_uppercase_method_rejected(self):
        with pytest.raises(DidError):
            parse_did("did:Peer:abc")

    def test_illegal_id_characters_rejected(self):
        for bad in ("did:peer:ab cd", "did:peer:a/b", "did:peer:a0b", "did:peer:aOb"):
            with pytest.raises(DidError):
                parse_did(bad)

    def test_format_trivial(self):
        assert format_did(Did(method="btcr", id="abc")) == "did:btcr:abc"

    def test_format_parse_reproduces_example(self):
        text = "did:btcr:abcdefgh12345678"
        assert format_did(parse_did(text)) == text

    def test_bare_method_without_id_rejected(self):
        for bad in ("did:peer", "did:", "did"):
            with pytest.raises(DidError):
                parse_did(bad)

    @settings(max_examples=100, deadline=None)
    @given(
        method=st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=12),
        method_id=st.text(alphabet=_B58, min_size=1, max_size=48),
    )
    def test_parse_format_roundtrip(self, method, method_id):
        did = Did(method=method, id=method_id)
        assert parse_did(format_did(did)) == did


class TestPeerDid:
    def test_deterministic(self):
        keys = (_key_entry(1),)
        did_a, _ = generate_peer_did(keys)
        did_b, _ = generate_peer_did(keys)
        assert did_a == did_b

    def test_one_key_byte_changes_did(self):
        base = _key_entry(1)
        flipped = PublicKeyEntry(
            key_id=base.key_id,
            purpose=base.purpose,
            public=bytes([base.public[0] ^ 1]) + base.public[1:],
        )
        did_a, _ = generate_peer_did((base,))
        did_b, _ = generate_peer_did((flipped,))
        assert did_a != did_b

    def test_suffix_matches_independent_digest(self):
        keys = (_key_entry(1), _key_entry(2, "agree"))
        endpoints = (ServiceEndpoint("ep-1", "sim-link", "sim-link://cam"),)
        did, doc = generate_peer_did(keys, endpoints)
        genesis = {
            "public_keys": [k.to_mapping() for k in keys],
            "service_endpoints": [e.to_mapping() for e in endpoints],
            "version": 1,
            "previous_keys": [],
        }
        expected = _independent_base58(hashlib.sha256(canonical_bytes(genesis)).digest())
        assert did.id == expected
        assert verify_peer_document(did, doc)

    def test_zero_keys_rejected(self):
        with pytest.raises(DidError):
            generate_peer_did(())

    def test_inserting_id_yields_final_document(self):
        did, doc = generate_peer_did((_key_entry(1),))
        assert doc.id == did
        assert doc.version == 1
        assert doc.previous_keys == ()


class TestCanonicalSerialization:
    def test_serialize_twice_is_byte_identical(self):
        doc = _sample_document()
        assert canonical_serialize(doc) == canonical_serialize(doc)

    def test_roundtrip_is_identity(self):
        doc = _sample_document(3, 2)
        assert DidDocument.from_bytes(canonical_serialize(doc)) == doc

    def test_roundtrip_hundred_random_documents(self):
        rng = Random(42)
        for _ in range(100):
            n_keys = rng.randrange(1, 5)
            keys = tuple(
                _key_entry(rng.randrange(1, 10**9), rng.choice(["sign", "agree"]))
                for _ in range(n_keys)
            )
            # Regenerate on key id collisions from the tiny sample space.
            if len({k.key_id for k in keys}) != len(keys):
                continue
            endpoints = tuple(
                ServiceEndpoint(f"ep-{i}", "sim-link", f"x://{rng.randrange(100)}")
                for i in range(rng.randrange(0, 3))
            )
            _, doc = generate_peer_did(keys, endpoints)
            assert DidDocument.from_bytes(doc.to_bytes()) == doc

    def test_two_key_one_endpoint_document_is_at_least_400_bytes(self):
        doc = _sample_document(2, 1)
        assert 400 <= len(canonical_serialize(doc)) <= 2000

    def test_unknown_field_rejected_on_deserialize(self):
        mapping = _sample_document().to_mapping()
        mapping["owner"] = "Alice"
        with pytest.raises(DidError):
            DidDocument.from_mapping(mapping)

    def test_unknown_key_purpose_rejected_on_deserialize(self):
        # Parsing and validate_document share one schema walk, so they agree.
        mapping = _sample_document().to_mapping()
        mapping["public_keys"][0]["purpose"] = "encrypt"
        assert any("unknown key purpose" in v for v in validate_document(mapping))
        with pytest.raises(DidError, match="unknown key purpose"):
            DidDocument.from_mapping(mapping)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_serialize_deserialize_bijection_property(self, data):
        label = st.text(
            alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_.:/", min_size=1, max_size=24
        )
        n_keys = data.draw(st.integers(min_value=1, max_value=4))
        keys = tuple(
            PublicKeyEntry(
                key_id=f"k{i}-" + data.draw(label),
                purpose=data.draw(st.sampled_from(["sign", "agree"])),
                public=data.draw(st.binary(min_size=32, max_size=32)),
            )
            for i in range(n_keys)
        )
        endpoints = tuple(
            ServiceEndpoint(
                endpoint_id=f"e{i}-" + data.draw(label),
                type=data.draw(label),
                address=data.draw(label),
            )
            for i in range(data.draw(st.integers(min_value=0, max_value=3)))
        )
        _, doc = generate_peer_did(keys, endpoints)
        restored = DidDocument.from_bytes(doc.to_bytes())
        assert restored == doc
        assert restored.to_bytes() == doc.to_bytes()


class TestRotation:
    def test_rotate_sole_sign_key(self):
        doc = _sample_document(1, 0)
        old_id = doc.public_keys[0].key_id
        new = _key_entry(77)
        rotated = rotate_key(doc, old_id, new, now=1000)
        assert [k.key_id for k in rotated.public_keys] == [new.key_id]
        assert [k.key_id for k in rotated.previous_keys] == [old_id]
        assert rotated.previous_keys[0].retired_at == 1000
        assert rotated.version == doc.version + 1

    def test_unknown_key_id_rejected(self):
        doc = _sample_document()
        with pytest.raises(DidError):
            rotate_key(doc, "nope", _key_entry(77), now=0)

    def test_duplicate_new_key_id_rejected(self):
        doc = _sample_document()
        clone = PublicKeyEntry(
            key_id=doc.public_keys[0].key_id, purpose="sign", public=bytes(32)
        )
        with pytest.raises(DidError):
            rotate_key(doc, doc.public_keys[1].key_id, clone, now=0)

    def test_version_strictly_increases_and_history_never_shrinks(self):
        doc = _sample_document(1, 0)
        seen_versions = [doc.version]
        history_sizes = [len(doc.previous_keys)]
        current = doc
        for i in range(5):
            new = _key_entry(1000 + i)
            current = rotate_key(current, current.public_keys[0].key_id, new, now=i)
            seen_versions.append(current.version)
            history_sizes.append(len(current.previous_keys))
        assert seen_versions == sorted(set(seen_versions))
        assert history_sizes == sorted(history_sizes)

    def test_original_document_untouched(self):
        doc = _sample_document(1, 0)
        rotate_key(doc, doc.public_keys[0].key_id, _key_entry(5), now=0)
        assert doc.version == 1
        assert doc.previous_keys == ()


class TestValidation:
    def test_valid_document_has_no_violations(self):
        assert validate_document(_sample_document()) == []

    def test_duplicate_key_id(self):
        mapping = _sample_document().to_mapping()
        mapping["public_keys"].append(dict(mapping["public_keys"][0]))
        violations = validate_document(mapping)
        assert len([v for v in violations if "duplicate key id" in v]) == 1

    def test_owner_field_is_pseudonymity_violation(self):
        mapping = _sample_document().to_mapping()
        mapping["owner"] = "Alice"
        violations = validate_document(mapping)
        assert any("pseudonymity" in v for v in violations)

    def test_zero_keys(self):
        mapping = _sample_document().to_mapping()
        mapping["public_keys"] = []
        assert any("at least one public key" in v for v in validate_document(mapping))

    def test_document_type_has_no_attribute_fields(self):
        # The structure itself cannot carry claims: construction is closed.
        doc = _sample_document()
        assert set(doc.to_mapping()) == {
            "id", "public_keys", "service_endpoints", "version", "previous_keys"
        }

    def test_retired_key_lookup(self):
        doc = _sample_document(1, 0)
        old = doc.public_keys[0]
        rotated = rotate_key(doc, old.key_id, _key_entry(9), now=5)
        found = rotated.find_key(old.key_id)
        assert isinstance(found, RetiredKey)
        assert found.public == old.public
