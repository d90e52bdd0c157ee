"""Suite checks against published algorithm test vectors plus properties."""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from tinyssi import crypto

# RFC 8032 Ed25519 test vectors (TEST 1: empty message, TEST 2: one byte).
ED25519_VECTORS = [
    (
        "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
        b"",
        "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
        "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
    ),
    (
        "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
        b"\x72",
        "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
        "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
    ),
]

# RFC 7748 section 6.1 X25519 Diffie-Hellman vector.
X25519_ALICE_SECRET = "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a"
X25519_ALICE_PUBLIC = "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
X25519_BOB_SECRET = "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb"
X25519_BOB_PUBLIC = "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
X25519_SHARED = "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"

# RFC 8439 section 2.8.2 ChaCha20-Poly1305 AEAD vector.
AEAD_KEY = "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f"
AEAD_NONCE = "070000004041424344454647"
AEAD_AAD = "50515253c0c1c2c3c4c5c6c7"
AEAD_PLAINTEXT = (
    b"Ladies and Gentlemen of the class of '99: If I could offer you "
    b"only one tip for the future, sunscreen would be it."
)
AEAD_CIPHERTEXT = (
    "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
    "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
    "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
    "3ff4def08e4b7a9de576d26586cec64b6116"
)
AEAD_TAG = "1ae10b594f09e26a7e902ecbd0600691"

SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


class TestKeygen:
    def test_deterministic_under_fixed_seed(self):
        a = crypto.keygen(crypto.PURPOSE_SIGN, seed=bytes(32))
        b = crypto.keygen(crypto.PURPOSE_SIGN, seed=bytes(32))
        assert a.public == b.public
        assert a.secret == b.secret

    def test_random_without_seed(self):
        a = crypto.keygen(crypto.PURPOSE_SIGN)
        b = crypto.keygen(crypto.PURPOSE_SIGN)
        assert a.public != b.public

    def test_malformed_seed_length(self):
        with pytest.raises(crypto.CryptoError):
            crypto.keygen(crypto.PURPOSE_SIGN, seed=b"short")

    def test_unknown_purpose(self):
        with pytest.raises(crypto.CryptoError):
            crypto.keygen("encrypt")

    def test_agreement_key_matches_reference_vector(self):
        kp = crypto.keygen(crypto.PURPOSE_AGREE, seed=bytes.fromhex(X25519_ALICE_SECRET))
        assert kp.public.hex() == X25519_ALICE_PUBLIC


class TestSignVerify:
    @pytest.mark.parametrize("secret,public,message,signature", ED25519_VECTORS)
    def test_published_vectors(self, secret, public, message, signature):
        kp = crypto.keygen(crypto.PURPOSE_SIGN, seed=bytes.fromhex(secret))
        assert kp.public.hex() == public
        assert crypto.sign(kp, message).hex() == signature
        assert crypto.verify(bytes.fromhex(public), message, bytes.fromhex(signature))

    def test_roundtrip(self):
        kp = crypto.keygen(crypto.PURPOSE_SIGN)
        sig = crypto.sign(kp, b"hello")
        assert crypto.verify(kp.public, b"hello", sig)

    def test_single_bit_tamper_fails(self):
        kp = crypto.keygen(crypto.PURPOSE_SIGN)
        message = b"the quick brown fox"
        sig = crypto.sign(kp, message)
        tampered = bytes([message[0] ^ 1]) + message[1:]
        assert not crypto.verify(kp.public, tampered, sig)
        bad_sig = bytes([sig[0] ^ 1]) + sig[1:]
        assert not crypto.verify(kp.public, message, bad_sig)

    def test_wrong_purpose_rejected(self):
        kp = crypto.keygen(crypto.PURPOSE_AGREE)
        with pytest.raises(crypto.CryptoError):
            crypto.sign(kp, b"x")

    def test_thousand_random_pairs(self):
        rng = Random(1234)
        for _ in range(1000):
            kp = crypto.keygen(crypto.PURPOSE_SIGN, seed=rng.randbytes(32))
            message = rng.randbytes(rng.randrange(0, 64))
            sig = crypto.sign(kp, message)
            assert crypto.verify(kp.public, message, sig)
            mutated = bytearray(sig)
            mutated[rng.randrange(64)] ^= 1 << rng.randrange(8)
            assert not crypto.verify(kp.public, message, bytes(mutated))


class TestAgree:
    def test_published_vector(self):
        alice = crypto.keygen(crypto.PURPOSE_AGREE, seed=bytes.fromhex(X25519_ALICE_SECRET))
        bob = crypto.keygen(crypto.PURPOSE_AGREE, seed=bytes.fromhex(X25519_BOB_SECRET))
        assert bob.public.hex() == X25519_BOB_PUBLIC
        assert crypto.agree(alice, bob.public).hex() == X25519_SHARED
        assert crypto.agree(bob, alice.public).hex() == X25519_SHARED

    def test_symmetry_thousand_pairs(self):
        rng = Random(99)
        for _ in range(1000):
            a = crypto.keygen(crypto.PURPOSE_AGREE, seed=rng.randbytes(32))
            b = crypto.keygen(crypto.PURPOSE_AGREE, seed=rng.randbytes(32))
            assert crypto.agree(a, b.public) == crypto.agree(b, a.public)

    def test_degenerate_peer_key_rejected(self):
        kp = crypto.keygen(crypto.PURPOSE_AGREE)
        with pytest.raises(crypto.CryptoError):
            crypto.agree(kp, bytes(32))

    def test_wrong_purpose_rejected(self):
        kp = crypto.keygen(crypto.PURPOSE_SIGN)
        with pytest.raises(crypto.CryptoError):
            crypto.agree(kp, bytes(32))


class TestDeriveSession:
    def test_roles_mirror(self):
        shared, transcript = bytes(range(32)), crypto.digest(b"t")
        initiator = crypto.derive_session(shared, transcript, crypto.ROLE_INITIATOR)
        responder = crypto.derive_session(shared, transcript, crypto.ROLE_RESPONDER)
        assert initiator.send_key == responder.recv_key
        assert initiator.recv_key == responder.send_key

    def test_transcript_sensitivity(self):
        shared = bytes(range(32))
        t1 = bytearray(crypto.digest(b"t"))
        t2 = bytearray(t1)
        t2[0] ^= 1
        k1 = crypto.derive_session(shared, bytes(t1), crypto.ROLE_INITIATOR)
        k2 = crypto.derive_session(shared, bytes(t2), crypto.ROLE_INITIATOR)
        assert k1.send_key != k2.send_key
        assert k1.recv_key != k2.recv_key

    def test_key_shape(self):
        keys = crypto.derive_session(bytes(32), crypto.digest(b""), crypto.ROLE_RESPONDER)
        assert len(keys.send_key) == 32
        assert len(keys.recv_key) == 32
        assert keys.send_key != keys.recv_key

    def test_lifetime_default_one_day(self):
        keys = crypto.derive_session(
            bytes(32), crypto.digest(b""), crypto.ROLE_INITIATOR, established_at=100
        )
        assert keys.expires_at() == 100 + 24 * 60 * 60


class TestSealUnseal:
    def test_published_vector(self):
        out = crypto.seal(
            bytes.fromhex(AEAD_KEY),
            bytes.fromhex(AEAD_NONCE),
            AEAD_PLAINTEXT,
            bytes.fromhex(AEAD_AAD),
        )
        assert out.hex() == AEAD_CIPHERTEXT + AEAD_TAG

    def test_empty_roundtrip(self):
        key, nonce = bytes(32), bytes(12)
        assert crypto.unseal(key, nonce, crypto.seal(key, nonce, b"")) == b""

    def test_flipped_aad_bit_fails_authentication(self):
        key, nonce = bytes(32), bytes(12)
        sealed = crypto.seal(key, nonce, b"payload", aad=b"\x01")
        with pytest.raises(crypto.AuthenticationError):
            crypto.unseal(key, nonce, sealed, aad=b"\x00")

    def test_malformed_input_distinct_from_auth_failure(self):
        with pytest.raises(crypto.CryptoError) as excinfo:
            crypto.unseal(bytes(16), bytes(12), bytes(20))
        assert not isinstance(excinfo.value, crypto.AuthenticationError)
        with pytest.raises(crypto.CryptoError) as excinfo:
            crypto.unseal(bytes(32), bytes(12), b"short")
        assert not isinstance(excinfo.value, crypto.AuthenticationError)

    @settings(max_examples=60, deadline=None)
    @given(st.binary(min_size=0, max_size=4096), st.binary(min_size=0, max_size=64))
    def test_roundtrip_property(self, plaintext, aad):
        key = crypto.digest(b"key")
        nonce = crypto.digest(b"nonce")[:12]
        sealed = crypto.seal(key, nonce, plaintext, aad)
        assert crypto.unseal(key, nonce, sealed, aad) == plaintext

    def test_roundtrip_all_small_lengths(self):
        rng = Random(7)
        key, nonce = rng.randbytes(32), rng.randbytes(12)
        for size in list(range(0, 130)) + [1024, 4096]:
            plaintext = rng.randbytes(size)
            assert crypto.unseal(key, nonce, crypto.seal(key, nonce, plaintext)) == plaintext

    def test_tampered_ciphertext_fails(self):
        key, nonce = bytes(32), bytes(12)
        sealed = bytearray(crypto.seal(key, nonce, b"secret data"))
        sealed[3] ^= 0x40
        with pytest.raises(crypto.AuthenticationError):
            crypto.unseal(key, nonce, bytes(sealed))


class TestDigest:
    def test_known_empty_digest(self):
        assert crypto.digest(b"").hex() == SHA256_EMPTY

    def test_equal_inputs_equal_digests(self):
        assert crypto.digest(b"abc") == crypto.digest(b"abc")

    def test_one_bit_change(self):
        assert crypto.digest(b"abc") != crypto.digest(b"abd")
