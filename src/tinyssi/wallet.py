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
from .encoding import EncodingError, canonical_bytes, from_canonical, from_hex
from .identity import (
    METHOD_PEER, METHOD_REG, Did, DidDocument, PublicKeyEntry, ServiceEndpoint,
    format_did, generate_peer_did, parse_did, rotate_key,
)
from .resolver import Registry, registered_did_for

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


@dataclass
class Wallet:
    """In-memory wallet; persisted with save() and opened with unlock()."""

    owner_did: Did | None = None
    keys: dict[str, crypto.KeyPair] = field(default_factory=dict)
    documents: list[DidDocument] = field(default_factory=list)
    credentials: dict[str, StoredCredential] = field(default_factory=dict)
    format: int = FORMAT_VERSION

    # -- contents -----------------------------------------------------------

    def put_key(self, kp: crypto.KeyPair) -> None:
        if kp.key_id in self.keys:
            raise WalletError(f"key id {kp.key_id!r} already in wallet")
        self.keys[kp.key_id] = kp

    def get_key(self, key_id: str) -> crypto.KeyPair:
        try:
            return self.keys[key_id]
        except KeyError:
            raise WalletError(f"no key {key_id!r} in wallet") from None

    def put_document(self, doc: DidDocument) -> None:
        """Append a version of my own document; newest last."""
        if self.owner_did is None:
            self.owner_did = doc.id
        elif doc.id != self.owner_did:
            raise WalletError("wallet holds documents for one identity only")
        self.documents.append(doc)

    @property
    def current_document(self) -> DidDocument | None:
        return self.documents[-1] if self.documents else None

    def current_sign_key(self) -> crypto.KeyPair | None:
        """The signing key my current document lists; retired keys never qualify."""
        doc = self.current_document
        if doc is None:
            return None
        current = {entry.key_id for entry in doc.public_keys}
        return next(
            (k for k in self.keys.values()
             if k.purpose == crypto.PURPOSE_SIGN and k.key_id in current),
            None,
        )

    def create_identity(
        self, sign_key: crypto.KeyPair, agree_key: crypto.KeyPair, method: str,
        endpoints: tuple[ServiceEndpoint, ...] = (), registry: Registry | None = None,
        hint: str = "",
    ) -> DidDocument:
        """Make my DID and genesis document from the keys passed in.

        A reg identity is registered, signed by its own key, before the wallet
        takes the keys and the document; a RegistryError leaves it unchanged.
        """
        if self.owner_did is not None:
            raise WalletError("wallet already holds an identity")
        keys = (
            PublicKeyEntry(sign_key.key_id, crypto.PURPOSE_SIGN, sign_key.public),
            PublicKeyEntry(agree_key.key_id, crypto.PURPOSE_AGREE, agree_key.public),
        )
        if method == METHOD_PEER:
            _, doc = generate_peer_did(keys, endpoints)
        elif method == METHOD_REG:
            if registry is None:
                raise WalletError("a reg identity needs a registry")
            did = registered_did_for(sign_key.public, hint)
            doc = DidDocument(id=did, public_keys=keys, service_endpoints=endpoints)
            registry.register(doc, sign_key)
        else:
            raise WalletError(f"unknown did method {method!r}")
        self.put_key(sign_key)
        self.put_key(agree_key)
        self.put_document(doc)
        return doc

    def rotate_sign_key(
        self, new_key: crypto.KeyPair, now: int, registry: Registry | None = None
    ) -> DidDocument:
        """Retire my current signing key in favour of new_key.

        A reg identity's registry must accept the rotated document, signed by
        the outgoing key, before the wallet changes.
        """
        doc, old_key = self.current_document, self.current_sign_key()
        if doc is None or old_key is None:
            raise WalletError("no rotatable signing key in wallet")
        new_entry = PublicKeyEntry(new_key.key_id, crypto.PURPOSE_SIGN, new_key.public)
        rotated = rotate_key(doc, old_key.key_id, new_entry, now=now)
        if doc.id.method == METHOD_REG:
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

    def export_public(self, did: Did) -> bytes:
        """Canonical bytes of my current document; contains no secrets."""
        doc = self.current_document
        if doc is None or doc.id != did:
            raise WalletError(f"wallet holds no document for {format_did(did)}")
        return doc.to_bytes()

    # -- persistence ----------------------------------------------------------

    def _payload(self) -> dict[str, Any]:
        return {
            "owner_did": format_did(self.owner_did) if self.owner_did else None,
            "keys": [
                {
                    "key_id": k.key_id,
                    "purpose": k.purpose,
                    "public": k.public.hex(),
                    "secret": k.secret.hex(),
                }
                for _, k in sorted(self.keys.items())
            ],
            "documents": [d.to_mapping() for d in self.documents],
            "credentials": [
                {
                    "credential": sc.credential.to_mapping(),
                    "openings": [o.to_mapping() for o in sc.openings],
                }
                for _, sc in sorted(self.credentials.items())
            ],
            "version": self.format,
        }

    @classmethod
    def _from_payload(cls, payload: Any) -> "Wallet":
        try:
            wallet = cls(
                owner_did=parse_did(payload["owner_did"]) if payload["owner_did"] else None,
                format=payload["version"],
            )
            for entry in payload["keys"]:
                wallet.keys[entry["key_id"]] = crypto.KeyPair(
                    key_id=entry["key_id"],
                    purpose=entry["purpose"],
                    public=from_hex(entry["public"], crypto.KEY_LEN),
                    secret=from_hex(entry["secret"], crypto.KEY_LEN),
                )
            for mapping in payload["documents"]:
                wallet.documents.append(DidDocument.from_mapping(mapping))
            for entry in payload["credentials"]:
                vc = VerifiableCredential.from_mapping(entry["credential"])
                openings = tuple(ClaimOpening.from_mapping(o) for o in entry["openings"])
                wallet.credentials[vc.vc_id] = StoredCredential(vc, openings)
        except (KeyError, TypeError, ValueError) as exc:
            raise WalletIntegrityError(f"malformed wallet payload: {exc}") from exc
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
