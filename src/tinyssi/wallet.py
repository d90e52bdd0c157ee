"""Encrypted-at-rest storage for one identity owner.

Single-file format (all integers big-endian):

  offset 0   magic "SSIW"
  offset 4   format version, u16 (currently 1)
  offset 6   kdf id, u8 (1 = scrypt)
  offset 7   kdf salt, 16 bytes
  offset 23  scrypt n, u32
  offset 27  scrypt r, u32
  offset 31  scrypt p, u32
  offset 35  passphrase check, 8 bytes
  offset 43  AEAD nonce, 12 bytes
  offset 55  ciphertext (ChaCha20-Poly1305 over the canonical payload,
             with the 55 header bytes as associated data)

KDF parameters ride in the file, so defaults can be strengthened later
without breaking wallets already on disk. The check field distinguishes a
wrong passphrase from a corrupted file; neither ever yields garbage.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass, field
from typing import Any

from . import crypto
from .credentials import ClaimOpening, StoredCredential, VerifiableCredential
from .encoding import EncodingError, canonical_bytes, decode, encode, from_canonical
from .identity import (
    METHOD_PEER, METHOD_REG, Did, DidDocument, DocumentBody, PublicKeyEntry, ServiceEndpoint,
    rotate_key,
)
from .resolver import Registry

MAGIC = b"SSIW"
FORMAT_VERSION = 1
KDF_SCRYPT = 1
_HEADER = struct.Struct(">4sHB16sIII8s12s")
_HEADER_LEN = _HEADER.size

# Desk-scale scrypt cost; still memory-hard, parameters are stored per file.
SCRYPT_N = 1 << 14
SCRYPT_R = 8
SCRYPT_P = 1

_CHECK_CONTEXT = b"tinyssi/wallet-check/v1"


class WalletError(Exception):
    pass


class WrongPassphraseError(WalletError):
    pass


class WalletIntegrityError(WalletError):
    """File structure or ciphertext failed authentication."""


def _derive_key(passphrase: str, salt: bytes, n: int, r: int, p: int) -> bytes:
    try:
        return hashlib.scrypt(
            passphrase.encode("utf-8"), salt=salt, n=n, r=r, p=p,
            maxmem=128 * 1024 * 1024, dklen=crypto.KEY_LEN,
        )
    except (ValueError, MemoryError) as exc:
        raise WalletIntegrityError(f"unusable kdf parameters: {exc}") from exc


def _check_value(key: bytes) -> bytes:
    return hashlib.sha256(_CHECK_CONTEXT + key).digest()[:8]


@dataclass(frozen=True)
class _Payload:
    """The canonical payload a wallet file seals."""

    owner_did: Did | None
    keys: tuple[crypto.KeyPair, ...]
    documents: tuple[DidDocument, ...]
    credentials: tuple[StoredCredential, ...]
    version: int


@dataclass
class Wallet:
    """In-memory wallet; persisted with save() and opened with unlock()."""

    keys: dict[str, crypto.KeyPair] = field(default_factory=dict)
    documents: list[DidDocument] = field(default_factory=list)
    credentials: dict[str, StoredCredential] = field(default_factory=dict)

    # -- contents -----------------------------------------------------------

    @property
    def owner_did(self) -> Did | None:
        """My DID: the id of my documents, None before I have one."""
        return self.documents[0].id if self.documents else None

    def put_key(self, kp: crypto.KeyPair) -> None:
        if kp.key_id in self.keys:
            raise WalletError(f"key id {kp.key_id!r} already in wallet")
        self.keys[kp.key_id] = kp

    def put_document(self, doc: DidDocument) -> None:
        """Append a version of my own document; newest last."""
        if self.documents and doc.id != self.owner_did:
            raise WalletError("wallet holds documents for one identity only")
        self.documents.append(doc)

    @property
    def current_document(self) -> DidDocument | None:
        return self.documents[-1] if self.documents else None

    def current_sign_key(self) -> crypto.KeyPair | None:
        """A key pair my current document authorizes to sign; retired keys never qualify."""
        doc = self.current_document
        return next((k for k in self.keys.values() if doc and doc.authorizes(k)), None)

    def create_identity(
        self, sign_key: crypto.KeyPair, agree_key: crypto.KeyPair, method: str,
        endpoints: tuple[ServiceEndpoint, ...] = (), registry: Registry | None = None,
    ) -> DidDocument:
        """Make my genesis document from the keys passed in, and my DID from its body.

        A reg identity is registered, signed by its own key, before the wallet
        takes the keys and the document; a RegistryError leaves it unchanged.
        """
        if self.documents:
            raise WalletError("wallet already holds an identity")
        if method not in (METHOD_PEER, METHOD_REG):
            raise WalletError(f"unknown did method {method!r}")
        keys = (
            PublicKeyEntry(sign_key.key_id, crypto.PURPOSE_SIGN, sign_key.public),
            PublicKeyEntry(agree_key.key_id, crypto.PURPOSE_AGREE, agree_key.public),
        )
        doc = DidDocument.from_body(DocumentBody(keys, endpoints), method)
        if method == METHOD_REG:
            if registry is None:
                raise WalletError("a reg identity needs a registry")
            registry.register(doc, sign_key)
        self.put_key(sign_key)
        self.put_key(agree_key)
        self.put_document(doc)
        return doc

    def rotate_sign_key(
        self, new_key: crypto.KeyPair, now: int, registry: Registry | None = None
    ) -> DidDocument:
        """Retire my current signing key in favour of new_key.

        A reg identity's registry must accept the rotated document, signed by
        the outgoing key, before the wallet changes. A peer identity cannot
        rotate: only its genesis document certifies its DID, so peers would
        refuse every later version.
        """
        doc, old_key = self.current_document, self.current_sign_key()
        if old_key is None:
            raise WalletError("no rotatable signing key in wallet")
        if doc.id.method == METHOD_PEER:
            raise WalletError("a peer identity cannot rotate its keys")
        new_entry = PublicKeyEntry(new_key.key_id, crypto.PURPOSE_SIGN, new_key.public)
        rotated = rotate_key(doc, old_key.key_id, new_entry, now=now)
        if registry is None:
            raise WalletError("a reg identity needs a registry")
        registry.register(rotated, old_key)
        self.put_key(new_key)
        self.put_document(rotated)
        return rotated

    def put_credential(self, vc: VerifiableCredential, openings: tuple[ClaimOpening, ...]) -> None:
        self.credentials[vc.vc_id] = StoredCredential(credential=vc, openings=openings)

    def get_credential(self, vc_id: str) -> StoredCredential:
        try:
            return self.credentials[vc_id]
        except KeyError:
            raise WalletError(f"no credential {vc_id!r} in wallet") from None

    def list_credentials(self) -> list[str]:
        return sorted(self.credentials)

    # -- persistence ----------------------------------------------------------

    def _payload(self) -> dict[str, Any]:
        return encode(_Payload(
            owner_did=self.owner_did,
            keys=tuple(k for _, k in sorted(self.keys.items())),
            documents=tuple(self.documents),
            credentials=tuple(sc for _, sc in sorted(self.credentials.items())),
            version=FORMAT_VERSION,
        ))

    @classmethod
    def _from_payload(cls, mapping: Any) -> "Wallet":
        try:
            payload = decode(_Payload, mapping)
        except EncodingError as exc:
            raise WalletIntegrityError(f"malformed wallet payload: {exc}") from exc
        if payload.version != FORMAT_VERSION:
            raise WalletIntegrityError(f"unsupported wallet payload version {payload.version}")
        wallet = cls(
            keys={k.key_id: k for k in payload.keys},
            documents=list(payload.documents),
            credentials={sc.credential.vc_id: sc for sc in payload.credentials},
        )
        # The stored owner_did is a copy; the documents are the source.
        owner = wallet.owner_did
        if payload.owner_did != owner or any(doc.id != owner for doc in wallet.documents):
            raise WalletIntegrityError("wallet payload's owner_did is not its documents' id")
        return wallet

    def save(self, path: str | os.PathLike, passphrase: str) -> None:
        salt = os.urandom(16)
        nonce = os.urandom(crypto.NONCE_LEN)
        key = _derive_key(passphrase, salt, SCRYPT_N, SCRYPT_R, SCRYPT_P)
        header = _HEADER.pack(
            MAGIC,
            FORMAT_VERSION,
            KDF_SCRYPT,
            salt,
            SCRYPT_N,
            SCRYPT_R,
            SCRYPT_P,
            _check_value(key),
            nonce,
        )
        ciphertext = crypto.seal(key, nonce, canonical_bytes(self._payload()), aad=header)
        tmp = f"{path}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(header + ciphertext)
        os.replace(tmp, path)

    @classmethod
    def unlock(cls, path: str | os.PathLike, passphrase: str) -> "Wallet":
        with open(path, "rb") as fh:
            blob = fh.read()
        if len(blob) < _HEADER_LEN or blob[:4] != MAGIC:
            raise WalletIntegrityError("not a wallet file")
        header, ciphertext = blob[:_HEADER_LEN], blob[_HEADER_LEN:]
        _, version, kdf_id, salt, n, r, p, check, nonce = _HEADER.unpack(header)
        if version != FORMAT_VERSION:
            raise WalletIntegrityError(f"unsupported wallet format {version}")
        if kdf_id != KDF_SCRYPT:
            raise WalletIntegrityError(f"unsupported kdf id {kdf_id}")
        key = _derive_key(passphrase, salt, n, r, p)
        if _check_value(key) != check:
            raise WrongPassphraseError("wrong passphrase")
        try:
            payload = crypto.unseal(key, nonce, ciphertext, aad=header)
        except crypto.AuthenticationError as exc:
            raise WalletIntegrityError("wallet file failed authentication") from exc
        try:
            return cls._from_payload(from_canonical(payload))
        except EncodingError as exc:
            raise WalletIntegrityError(str(exc)) from exc


def create(path: str | os.PathLike, passphrase: str) -> Wallet:
    """Create an empty wallet file and return the in-memory wallet."""
    wallet = Wallet()
    wallet.save(path, passphrase)
    return wallet
