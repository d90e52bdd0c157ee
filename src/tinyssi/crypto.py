"""Cryptographic suite used by every other module.

One fixed modern suite, all 32-byte keys so identity documents stay small on
constrained links:

  signatures      Ed25519 (64-byte signatures)
  key agreement   X25519
  key derivation  HKDF-SHA256
  channel AEAD    ChaCha20-Poly1305 (12-byte nonces)
  hashing         SHA-256

Nonces for the secure channel are a role byte followed by an 11-byte
big-endian counter; each direction counts independently and a replayed or
rewound counter is rejected.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

import hashlib

KEY_LEN = 32
SIGNATURE_LEN = 64
DIGEST_LEN = 32
NONCE_LEN = 12
SALT_LEN = 16

PURPOSE_SIGN = "sign"
PURPOSE_AGREE = "agree"

ROLE_INITIATOR = "initiator"
ROLE_RESPONDER = "responder"

# Session keys live long by default and are refreshed infrequently to spare
# constrained devices; once a day.
DEFAULT_SESSION_LIFETIME = 24 * 60 * 60

_SESSION_INFO = b"tinyssi/session-keys/v1"
_RAW = {"encoding": Encoding.Raw, "format": PublicFormat.Raw}


class CryptoError(ValueError):
    """Malformed input or misuse of the suite."""


class AuthenticationError(CryptoError):
    """Ciphertext, tag, nonce, or associated data failed authentication."""


@dataclass(frozen=True)
class KeyPair:
    """A 32-byte keypair fixed to one purpose at creation."""

    key_id: str
    purpose: str
    public: bytes
    secret: bytes

    def __post_init__(self) -> None:
        if self.purpose not in (PURPOSE_SIGN, PURPOSE_AGREE):
            raise CryptoError(f"unknown key purpose {self.purpose!r}")
        if len(self.public) != KEY_LEN or len(self.secret) != KEY_LEN:
            raise CryptoError("public and secret keys must be 32 bytes")


@dataclass(frozen=True)
class SessionKeys:
    """Directional symmetric keys derived from one completed handshake."""

    send_key: bytes
    recv_key: bytes
    established_at: int
    lifetime: int

    def __post_init__(self) -> None:
        if self.send_key == self.recv_key:
            raise CryptoError("send and receive keys must differ")
        if self.lifetime <= 0:
            raise CryptoError("session lifetime must be positive")

    def expires_at(self) -> int:
        return self.established_at + self.lifetime


def digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def keygen(purpose: str, seed: bytes | None = None, key_id: str | None = None) -> KeyPair:
    """Generate a keypair; a fixed 32-byte seed gives a deterministic pair."""
    if seed is not None and len(seed) != KEY_LEN:
        raise CryptoError(f"seed must be exactly {KEY_LEN} bytes, got {len(seed)}")
    secret = seed if seed is not None else os.urandom(KEY_LEN)
    if purpose == PURPOSE_SIGN:
        public = (
            Ed25519PrivateKey.from_private_bytes(secret).public_key().public_bytes(**_RAW)
        )
    elif purpose == PURPOSE_AGREE:
        public = (
            X25519PrivateKey.from_private_bytes(secret).public_key().public_bytes(**_RAW)
        )
    else:
        raise CryptoError(f"unknown key purpose {purpose!r}")
    if key_id is None:
        key_id = f"{purpose}-{digest(public)[:4].hex()}"
    return KeyPair(key_id=key_id, purpose=purpose, public=public, secret=secret)


def sign(kp: KeyPair, message: bytes) -> bytes:
    if kp.purpose != PURPOSE_SIGN:
        raise CryptoError(f"cannot sign with a {kp.purpose!r} key")
    return Ed25519PrivateKey.from_private_bytes(kp.secret).sign(message)


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """Check a signature; any malformed input simply fails verification."""
    if len(public) != KEY_LEN or len(signature) != SIGNATURE_LEN:
        return False
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
    except (InvalidSignature, ValueError):
        return False
    return True


def agree(kp: KeyPair, peer_public: bytes) -> bytes:
    """Diffie-Hellman shared secret; degenerate peer keys are rejected."""
    if kp.purpose != PURPOSE_AGREE:
        raise CryptoError(f"cannot agree with a {kp.purpose!r} key")
    if len(peer_public) != KEY_LEN:
        raise CryptoError(f"peer public key must be {KEY_LEN} bytes")
    try:
        shared = X25519PrivateKey.from_private_bytes(kp.secret).exchange(
            X25519PublicKey.from_public_bytes(peer_public)
        )
    except ValueError as exc:
        raise CryptoError(f"degenerate peer public key: {exc}") from exc
    if shared == bytes(KEY_LEN):
        raise CryptoError("degenerate peer public key: low-order point")
    return shared


def derive_session(
    shared: bytes,
    transcript_hash: bytes,
    role: str,
    established_at: int = 0,
    lifetime: int = DEFAULT_SESSION_LIFETIME,
) -> SessionKeys:
    """Expand a shared secret into mirrored directional session keys.

    Both ends call this with the same shared secret and transcript hash;
    the initiator's send key is the responder's receive key and vice versa.
    """
    if role not in (ROLE_INITIATOR, ROLE_RESPONDER):
        raise CryptoError(f"unknown role {role!r}")
    okm = HKDF(
        algorithm=hashes.SHA256(),
        length=2 * KEY_LEN,
        salt=transcript_hash,
        info=_SESSION_INFO,
    ).derive(shared)
    to_responder, to_initiator = okm[:KEY_LEN], okm[KEY_LEN:]
    if role == ROLE_INITIATOR:
        send_key, recv_key = to_responder, to_initiator
    else:
        send_key, recv_key = to_initiator, to_responder
    return SessionKeys(
        send_key=send_key,
        recv_key=recv_key,
        established_at=established_at,
        lifetime=lifetime,
    )


def seal(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    if len(key) != KEY_LEN:
        raise CryptoError(f"AEAD key must be {KEY_LEN} bytes")
    if len(nonce) != NONCE_LEN:
        raise CryptoError(f"nonce must be {NONCE_LEN} bytes")
    return ChaCha20Poly1305(key).encrypt(nonce, plaintext, aad)


def unseal(key: bytes, nonce: bytes, ciphertext: bytes, aad: bytes = b"") -> bytes:
    if len(key) != KEY_LEN:
        raise CryptoError(f"AEAD key must be {KEY_LEN} bytes")
    if len(nonce) != NONCE_LEN:
        raise CryptoError(f"nonce must be {NONCE_LEN} bytes")
    if len(ciphertext) < 16:
        raise CryptoError("ciphertext shorter than the authentication tag")
    try:
        return ChaCha20Poly1305(key).decrypt(nonce, ciphertext, aad)
    except InvalidTag as exc:
        raise AuthenticationError("authentication failed") from exc


class NonceSequence:
    """Strictly increasing 12-byte nonces for one direction of one session."""

    def __init__(self, role_byte: int):
        if not 0 <= role_byte <= 0xFF:
            raise CryptoError("role byte out of range")
        self._prefix = bytes([role_byte])
        self._counter = 0

    def next(self) -> bytes:
        self._counter += 1
        return self._prefix + self._counter.to_bytes(NONCE_LEN - 1, "big")


class ReplayGuard:
    """Accepts each incoming counter once; replays and rewinds are errors.

    check() a nonce, authenticate the record, and only then commit() it, so a
    forged record cannot advance the window (RFC 4303 section 3.4.3).
    """

    def __init__(self, role_byte: int):
        self._prefix = bytes([role_byte])
        self._highest = 0

    def check(self, nonce: bytes) -> None:
        if len(nonce) != NONCE_LEN or nonce[:1] != self._prefix:
            raise AuthenticationError("nonce from wrong direction")
        counter = int.from_bytes(nonce[1:], "big")
        if counter <= self._highest:
            raise AuthenticationError(f"nonce counter {counter} replayed")

    def commit(self, nonce: bytes) -> None:
        """Record a checked nonce whose record authenticated."""
        self._highest = int.from_bytes(nonce[1:], "big")
