"""Wallet file format, passphrase handling, secrecy of on-disk bytes, and
the identity lifecycle the wallet owns: creation and signing-key rotation."""

from dataclasses import replace

import pytest

from conftest import build_actor, give_owner_credential
from tinyssi import crypto
from tinyssi.identity import METHOD_PEER, METHOD_REG, ServiceEndpoint, format_did
from tinyssi.resolver import Registry, RegistryError
from tinyssi.wallet import (
    Wallet,
    WalletError,
    WalletIntegrityError,
    WrongPassphraseError,
    create,
)

PASSPHRASE = "correct horse battery staple"


def populated_wallet():
    registry = Registry()
    alice = build_actor("alice", 1, registry)
    camera = build_actor("camera", 2, registry)
    give_owner_credential(alice, camera, 10, {"type": "LongCameraTypeValue"})
    w = Wallet()
    w.put_key(camera.sign_key)
    w.put_key(camera.agree_key)
    w.put_document(camera.document)
    stored = camera.credentials[0]
    w.put_credential(stored.credential, stored.openings)
    return w, camera


class TestRoundtrip:
    def test_create_then_unlock_is_identity(self, tmp_path):
        path = tmp_path / "camera.wallet"
        w, _ = populated_wallet()
        w.save(path, PASSPHRASE)
        restored = Wallet.unlock(path, PASSPHRASE)
        assert restored.owner_did == w.owner_did
        assert restored.keys == w.keys
        assert restored.documents == w.documents
        assert restored.credentials == w.credentials

    def test_create_empty_wallet_file(self, tmp_path):
        path = tmp_path / "empty.wallet"
        create(path, PASSPHRASE)
        restored = Wallet.unlock(path, PASSPHRASE)
        assert restored.owner_did is None
        assert restored.keys == {}

    def test_wrong_passphrase_is_distinct_error(self, tmp_path):
        path = tmp_path / "w.wallet"
        w, _ = populated_wallet()
        w.save(path, PASSPHRASE)
        with pytest.raises(WrongPassphraseError):
            Wallet.unlock(path, "not the passphrase")

    def test_flipped_ciphertext_byte_is_integrity_error(self, tmp_path):
        path = tmp_path / "w.wallet"
        w, _ = populated_wallet()
        w.save(path, PASSPHRASE)
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(WalletIntegrityError) as excinfo:
            Wallet.unlock(path, PASSPHRASE)
        assert not isinstance(excinfo.value, WrongPassphraseError)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "w.wallet"
        path.write_bytes(b"SSIW\x00\x01")
        with pytest.raises(WalletIntegrityError):
            Wallet.unlock(path, PASSPHRASE)

    @pytest.mark.parametrize("fields", [
        {"version": 2},
        {"owner_did": "did:peer:2other"},
        {"owner_did": None},
        {"documents": []},
    ], ids=["version-2", "other-owner", "no-owner", "owner-without-documents"])
    def test_payload_owner_and_version_checked(self, fields):
        w, _ = populated_wallet()
        Wallet._from_payload(w._payload())
        with pytest.raises(WalletIntegrityError):
            Wallet._from_payload(dict(w._payload(), **fields))

    def test_not_a_wallet_rejected(self, tmp_path):
        path = tmp_path / "w.wallet"
        path.write_bytes(b"\x00" * 100)
        with pytest.raises(WalletIntegrityError):
            Wallet.unlock(path, PASSPHRASE)


class TestHeaderFormat:
    def test_header_is_bit_exact(self, tmp_path):
        path = tmp_path / "w.wallet"
        w, _ = populated_wallet()
        w.save(path, PASSPHRASE)
        blob = path.read_bytes()
        assert blob[:4] == b"SSIW"
        assert int.from_bytes(blob[4:6], "big") == 1        # format
        assert blob[6] == 1                                  # scrypt kdf id
        assert int.from_bytes(blob[23:27], "big") == 1 << 14  # n
        assert int.from_bytes(blob[27:31], "big") == 8        # r
        assert int.from_bytes(blob[31:35], "big") == 1        # p

    def test_fresh_salt_and_nonce_per_save(self, tmp_path):
        w, _ = populated_wallet()
        w.save(tmp_path / "a.wallet", PASSPHRASE)
        w.save(tmp_path / "b.wallet", PASSPHRASE)
        a = (tmp_path / "a.wallet").read_bytes()
        b = (tmp_path / "b.wallet").read_bytes()
        assert a[7:23] != b[7:23]    # kdf salt
        assert a[43:55] != b[43:55]  # nonce

    def test_tampered_header_detected(self, tmp_path):
        path = tmp_path / "w.wallet"
        w, _ = populated_wallet()
        w.save(path, PASSPHRASE)
        blob = bytearray(path.read_bytes())
        blob[44] ^= 0x01  # nonce byte; header is bound as associated data
        path.write_bytes(bytes(blob))
        with pytest.raises(WalletIntegrityError):
            Wallet.unlock(path, PASSPHRASE)

    def test_unusable_kdf_parameters_rejected(self, tmp_path):
        path = tmp_path / "w.wallet"
        w, _ = populated_wallet()
        w.save(path, PASSPHRASE)
        blob = bytearray(path.read_bytes())
        blob[23:27] = (0).to_bytes(4, "big")  # scrypt n = 0
        path.write_bytes(bytes(blob))
        with pytest.raises(WalletIntegrityError):
            Wallet.unlock(path, PASSPHRASE)


class TestSecrecy:
    def test_no_secret_material_on_disk(self, tmp_path):
        path = tmp_path / "w.wallet"
        w, camera = populated_wallet()
        w.save(path, PASSPHRASE)
        blob = path.read_bytes()
        for kp in w.keys.values():
            assert kp.secret not in blob
            assert kp.secret.hex().encode() not in blob
        for stored in w.credentials.values():
            for opening in stored.openings:
                assert opening.salt not in blob
                assert opening.salt.hex().encode() not in blob
                if len(opening.value) >= 8:
                    assert opening.value.encode() not in blob
        assert PASSPHRASE.encode() not in blob

    def test_public_document_has_no_secret_bytes(self):
        w, camera = populated_wallet()
        exported = w.current_document.to_bytes()
        for kp in w.keys.values():
            assert kp.secret not in exported
            assert kp.secret.hex().encode() not in exported
        assert format_did(camera.did).encode() in exported


class TestContents:
    def test_put_then_get_credential(self):
        w, camera = populated_wallet()
        stored = camera.credentials[0]
        assert w.get_credential(stored.credential.vc_id).credential == stored.credential

    def test_list_after_puts(self):
        registry = Registry()
        alice = build_actor("alice", 1, registry)
        device = build_actor("device", 2, registry)
        w = Wallet()
        for i in range(3):
            give_owner_credential(alice, device, 20 + i, {"n": str(i)})
        for stored in device.credentials:
            w.put_credential(stored.credential, stored.openings)
        assert len(w.list_credentials()) == 3

    def test_duplicate_key_id_rejected(self):
        w = Wallet()
        kp = crypto.keygen(crypto.PURPOSE_SIGN, seed=bytes(32))
        w.put_key(kp)
        with pytest.raises(WalletError):
            w.put_key(kp)

    def test_foreign_document_rejected(self):
        registry = Registry()
        a = build_actor("a", 1, registry)
        b = build_actor("b", 2, registry)
        w = Wallet()
        w.put_document(a.document)
        with pytest.raises(WalletError):
            w.put_document(b.document)

    def test_document_history_newest_last(self):
        w, camera = populated_wallet()
        assert w.current_document == camera.document


def _keys(seed: int) -> tuple[crypto.KeyPair, crypto.KeyPair]:
    return (
        crypto.keygen(crypto.PURPOSE_SIGN, seed=bytes([seed]) * 32),
        crypto.keygen(crypto.PURPOSE_AGREE, seed=bytes([seed + 1]) * 32),
    )


ENDPOINTS = (ServiceEndpoint("ep-1", "sim-link", "sim-link://device"),)


class TestIdentityLifecycle:
    @pytest.mark.parametrize("method", [METHOD_PEER, METHOD_REG])
    def test_create_identity(self, method):
        registry = Registry()
        sign_key, agree_key = _keys(1)
        w = Wallet()
        doc = w.create_identity(sign_key, agree_key, method, ENDPOINTS, registry)
        assert w.owner_did == doc.id
        assert doc.id.method == method
        assert doc.certifies_its_id()  # the DID is derived from the genesis body
        assert w.current_document == doc
        assert w.current_sign_key() == sign_key
        assert w.keys == {sign_key.key_id: sign_key, agree_key.key_id: agree_key}
        if method == METHOD_REG:
            assert registry.lookup(doc.id) == doc
        else:
            assert registry.write_count == 0

    def test_second_identity_rejected(self):
        w = Wallet()
        w.create_identity(*_keys(1), METHOD_PEER)
        with pytest.raises(WalletError):
            w.create_identity(*_keys(3), METHOD_PEER)

    def test_reg_identity_needs_a_registry(self):
        w = Wallet()
        with pytest.raises(WalletError):
            w.create_identity(*_keys(1), METHOD_REG)
        assert w.owner_did is None and w.keys == {}

    def test_rotate_reg_registers_rotated_document(self):
        registry = Registry()
        old_key, agree_key = _keys(1)
        new_key, _ = _keys(7)
        w = Wallet()
        w.create_identity(old_key, agree_key, METHOD_REG, ENDPOINTS, registry)
        rotated = w.rotate_sign_key(new_key, now=1234, registry=registry)
        assert registry.lookup(w.owner_did) == rotated == w.current_document
        assert rotated.version == 2
        assert [k.key_id for k in rotated.previous_keys] == [old_key.key_id]
        assert rotated.previous_keys[0].retired_at == 1234
        assert old_key.key_id not in {k.key_id for k in rotated.public_keys}
        assert w.current_sign_key() == new_key

    def test_rotate_peer_is_refused(self):
        # Only a peer DID's genesis document certifies it: a rotated one
        # would be refused by every peer, so the wallet refuses to make it.
        sign_key, agree_key = _keys(1)
        w = Wallet()
        w.create_identity(sign_key, agree_key, METHOD_PEER)
        keys, documents = dict(w.keys), list(w.documents)
        with pytest.raises(WalletError, match="peer identity cannot rotate"):
            w.rotate_sign_key(_keys(7)[0], now=1234, registry=Registry())
        assert w.keys == keys
        assert w.documents == documents
        assert w.current_sign_key() == sign_key

    def test_refused_update_leaves_wallet_unchanged(self):
        registry = Registry()
        sign_key, agree_key = _keys(1)
        w = Wallet()
        doc = w.create_identity(sign_key, agree_key, METHOD_REG, ENDPOINTS, registry)
        registry.register(replace(doc, version=5), sign_key)
        keys, documents = dict(w.keys), list(w.documents)
        with pytest.raises(RegistryError):
            w.rotate_sign_key(_keys(7)[0], now=1234, registry=registry)
        assert w.keys == keys
        assert w.documents == documents
        assert w.current_sign_key() == sign_key

    def test_refused_registration_leaves_wallet_empty(self):
        registry = Registry()
        sign_key, agree_key = _keys(1)
        Wallet().create_identity(sign_key, agree_key, METHOD_REG, ENDPOINTS, registry)
        w = Wallet()
        with pytest.raises(RegistryError):
            w.create_identity(sign_key, agree_key, METHOD_REG, ENDPOINTS, registry)
        assert w.owner_did is None
        assert w.keys == {} and w.documents == []
