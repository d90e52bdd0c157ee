"""Verifiable credentials with selective disclosure.

A credential binds a subject DID to claims through salted-hash commitments:
the signed credential carries only digests, and the holder keeps the openings
(value + 16-byte salt per claim). Presenting a subset reveals exactly those
openings; everything else stays committed but hidden. The proof names its
verification key so credentials survive issuer key rotation.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, replace
from random import Random
from typing import Iterable, Sequence

from . import crypto
from .encoding import Record, canonical_bytes, encode
from .identity import Did
from .resolver import ResolutionError, Resolver

# Stable verdict reasons, also surfaced through the CLI.
REASON_ISSUER_UNRESOLVED = "issuer unresolved"
REASON_UNKNOWN_KEY = "unknown verification key"
REASON_SIGNATURE = "signature"
REASON_NOT_YET_VALID = "not yet valid"
REASON_EXPIRED = "expired"
REASON_REVOKED = "revoked"
REASON_COMMITMENT = "commitment mismatch"
REASON_UNKNOWN_CLAIM = "unknown claim"


class CredentialError(ValueError):
    """Misuse of the credential API (issuance and presentation preconditions)."""


@dataclass(frozen=True)
class Verdict:
    """Verification outcome; failures carry a reason instead of raising."""

    ok: bool
    reason: str | None = None

    @classmethod
    def valid(cls) -> "Verdict":
        return cls(ok=True)

    @classmethod
    def invalid(cls, reason: str) -> "Verdict":
        return cls(ok=False, reason=reason)

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Claim:
    name: str
    value: str


class _Record(Record):
    """A record of this module: malformed input raises CredentialError."""

    decode_error = CredentialError


def _check_length(what: str, raw: bytes, expected: int) -> None:
    if len(raw) != expected:
        raise CredentialError(f"{what} must be {expected} bytes, got {len(raw)}")


@dataclass(frozen=True)
class ClaimOpening(_Record):
    """Holder-side secret that opens one commitment."""

    name: str
    value: str
    salt: bytes

    def __post_init__(self) -> None:
        _check_length("salt", self.salt, crypto.SALT_LEN)


@dataclass(frozen=True)
class Commitment(_Record):
    claim_name: str
    value_hash: bytes

    def __post_init__(self) -> None:
        _check_length("value hash", self.value_hash, crypto.DIGEST_LEN)


@dataclass(frozen=True)
class Proof(_Record):
    verification_key_id: str
    signature: bytes

    def __post_init__(self) -> None:
        _check_length("signature", self.signature, crypto.SIGNATURE_LEN)


@dataclass(frozen=True)
class VerifiableCredential(_Record):
    vc_id: str
    issuer: Did
    subject: Did
    commitments: tuple[Commitment, ...]
    issued_at: int
    expires_at: int
    proof: Proof

    def __post_init__(self) -> None:
        if not self.commitments:
            raise CredentialError("credential must commit to at least one claim")
        if self.expires_at <= self.issued_at:
            raise CredentialError("expiry must come after issuance")

    def claim_names(self) -> tuple[str, ...]:
        return tuple(c.claim_name for c in self.commitments)

    def commitment_for(self, name: str) -> Commitment | None:
        for commitment in self.commitments:
            if commitment.claim_name == name:
                return commitment
        return None

    def signing_payload(self) -> bytes:
        """Canonical bytes of everything but the proof: what the issuer signs."""
        mapping = self.to_mapping()
        del mapping["proof"]
        return canonical_bytes(mapping)


@dataclass(frozen=True)
class Presentation(_Record):
    """A credential plus the openings for exactly the disclosed claims."""

    credential: VerifiableCredential
    disclosed: tuple[ClaimOpening, ...]


@dataclass(frozen=True)
class StoredCredential(_Record):
    """What a holder's wallet keeps: the credential and all its openings."""

    credential: VerifiableCredential
    openings: tuple[ClaimOpening, ...]

    def opening_for(self, name: str) -> ClaimOpening | None:
        for opening in self.openings:
            if opening.name == name:
                return opening
        return None


class RevocationRegistry:
    """Append-only set of revoked credential ids, owned by one issuer."""

    def __init__(self, owner: Did):
        self.owner = owner
        self._revoked: set[str] = set()

    @property
    def revoked(self) -> frozenset[str]:
        return frozenset(self._revoked)

    def __contains__(self, vc_id: str) -> bool:
        return vc_id in self._revoked

    def add(self, vc_id: str) -> None:
        self._revoked.add(vc_id)


def commitment_hash(name: str, value: str, salt: bytes) -> bytes:
    """Salted digest of one claim; the NUL keeps the name/value split unambiguous."""
    return crypto.digest(name.encode("utf-8") + b"\x00" + value.encode("utf-8") + salt)


def check_claims(claims: Sequence[Claim]) -> None:
    """Refuse a claim list that issue() cannot commit to: empty, duplicated or unnamed."""
    if not claims:
        raise CredentialError("claim list must not be empty")
    names = [c.name for c in claims]
    if len(names) != len(set(names)):
        raise CredentialError("duplicate claim names")
    for claim in claims:
        if not claim.name or "\x00" in claim.name:
            raise CredentialError(f"illegal claim name {claim.name!r}")


def issue(
    issuer_kp: crypto.KeyPair,
    issuer: Did,
    subject: Did,
    claims: Sequence[Claim],
    validity: int,
    now: int,
    rng: Random | None = None,
) -> tuple[VerifiableCredential, tuple[ClaimOpening, ...]]:
    """Issue a credential; the openings go to the holder and nobody else."""
    check_claims(claims)
    if validity <= 0:
        raise CredentialError("validity must be positive")
    rand = rng.randbytes if rng is not None else secrets.token_bytes
    openings = tuple(
        ClaimOpening(name=c.name, value=c.value, salt=rand(crypto.SALT_LEN)) for c in claims
    )
    commitments = tuple(
        Commitment(claim_name=o.name, value_hash=commitment_hash(o.name, o.value, o.salt))
        for o in openings
    )
    unsigned = VerifiableCredential(
        vc_id="vc:" + encode(rand(8)),
        issuer=issuer,
        subject=subject,
        commitments=commitments,
        issued_at=now,
        expires_at=now + validity,
        proof=Proof(verification_key_id=issuer_kp.key_id, signature=bytes(crypto.SIGNATURE_LEN)),
    )
    signature = crypto.sign(issuer_kp, unsigned.signing_payload())
    return replace(unsigned, proof=replace(unsigned.proof, signature=signature)), openings


def verify_credential(
    vc: VerifiableCredential,
    resolver: Resolver,
    registry: RevocationRegistry | None,
    now: int,
) -> Verdict:
    """Full credential check; never raises, all failures become reasons."""
    try:
        issuer_doc = resolver.resolve(vc.issuer, now)
    except ResolutionError as exc:
        return Verdict.invalid(f"{REASON_ISSUER_UNRESOLVED}: {exc}")
    key = issuer_doc.proof_key(vc.proof.verification_key_id)
    if key is None:
        return Verdict.invalid(REASON_UNKNOWN_KEY)
    if not crypto.verify(key.public, vc.signing_payload(), vc.proof.signature):
        return Verdict.invalid(REASON_SIGNATURE)
    if now < vc.issued_at:
        return Verdict.invalid(REASON_NOT_YET_VALID)
    if now >= vc.expires_at:
        return Verdict.invalid(REASON_EXPIRED)
    if registry is not None and vc.vc_id in registry:
        return Verdict.invalid(REASON_REVOKED)
    return Verdict.valid()


def present(
    vc: VerifiableCredential,
    openings: Iterable[ClaimOpening],
    subset: Iterable[str],
) -> Presentation:
    """Disclose exactly `subset`; undisclosed values and salts never leave."""
    wanted = set(subset)
    if not wanted:
        raise CredentialError("disclosure subset must not be empty")
    by_name = {o.name: o for o in openings}
    committed = set(vc.claim_names())
    unknown = wanted - committed
    if unknown:
        raise CredentialError(f"{REASON_UNKNOWN_CLAIM}: {sorted(unknown)}")
    missing = wanted - set(by_name)
    if missing:
        raise CredentialError(f"no opening held for {sorted(missing)}")
    disclosed = tuple(
        by_name[name] for name in vc.claim_names() if name in wanted
    )
    return Presentation(credential=vc, disclosed=disclosed)


def verify_presentation(
    p: Presentation,
    resolver: Resolver,
    registry: RevocationRegistry | None,
    now: int,
) -> Verdict:
    """Valid iff the credential verifies and every opening matches its commitment."""
    verdict = verify_credential(p.credential, resolver, registry, now)
    if not verdict:
        return verdict
    seen: set[str] = set()
    for opening in p.disclosed:
        if opening.name in seen:
            return Verdict.invalid(f"duplicate disclosure of {opening.name!r}")
        seen.add(opening.name)
        commitment = p.credential.commitment_for(opening.name)
        if commitment is None:
            return Verdict.invalid(f"{REASON_UNKNOWN_CLAIM}: {opening.name!r}")
        recomputed = commitment_hash(opening.name, opening.value, opening.salt)
        if recomputed != commitment.value_hash:
            return Verdict.invalid(REASON_COMMITMENT)
    return Verdict.valid()


def revoke(
    registry: RevocationRegistry,
    issuer_kp: crypto.KeyPair,
    vc_id: str,
    resolver: Resolver,
    now: int,
) -> None:
    """Mark a credential revoked; only a current signing key of the owner may do this."""
    try:
        owner_doc = resolver.resolve(registry.owner, now)
    except ResolutionError as exc:
        raise CredentialError(f"cannot resolve registry owner: {exc}") from exc
    if not owner_doc.authorizes(issuer_kp):
        raise CredentialError("revocation requires a current issuer key")
    registry.add(vc_id)
