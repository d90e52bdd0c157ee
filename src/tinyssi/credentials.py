"""Verifiable credentials with selective disclosure.

A credential binds a subject DID to claims through salted-hash commitments:
the signed credential carries only digests, and the holder keeps the openings
(value + 16-byte salt per claim). Presenting a subset reveals exactly those
openings; everything else stays committed but hidden. The proof names its
verification key so credentials survive issuer key rotation.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from random import Random
from typing import Any, Iterable, Sequence

from . import crypto
from .encoding import EncodingError, canonical_bytes, from_canonical, from_hex
from .identity import Did, DidError, PublicKeyEntry, format_did, parse_did
from .resolver import ResolutionError, Resolver

_CREDENTIAL_FIELDS = frozenset(
    {"vc_id", "issuer", "subject", "commitments", "issued_at", "expires_at", "proof"}
)

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


@dataclass(frozen=True)
class ClaimOpening:
    """Holder-side secret that opens one commitment."""

    name: str
    value: str
    salt: bytes

    def to_mapping(self) -> dict[str, Any]:
        return {"name": self.name, "value": self.value, "salt": self.salt.hex()}

    @classmethod
    def from_mapping(cls, mapping: Any) -> "ClaimOpening":
        try:
            return cls(
                name=mapping["name"], value=mapping["value"], salt=from_hex(mapping["salt"], 16)
            )
        except (TypeError, KeyError, EncodingError) as exc:
            raise CredentialError(f"malformed claim opening: {exc}") from exc


@dataclass(frozen=True)
class Commitment:
    claim_name: str
    value_hash: bytes

    def to_mapping(self) -> dict[str, Any]:
        return {"claim_name": self.claim_name, "value_hash": self.value_hash.hex()}


@dataclass(frozen=True)
class Proof:
    verification_key_id: str
    signature: bytes


@dataclass(frozen=True)
class VerifiableCredential:
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
        return canonical_bytes(self._unsigned_mapping())

    def _unsigned_mapping(self) -> dict[str, Any]:
        return {
            "vc_id": self.vc_id,
            "issuer": format_did(self.issuer),
            "subject": format_did(self.subject),
            "commitments": [c.to_mapping() for c in self.commitments],
            "issued_at": self.issued_at,
            "expires_at": self.expires_at,
        }

    def to_mapping(self) -> dict[str, Any]:
        mapping = self._unsigned_mapping()
        mapping["proof"] = {
            "verification_key_id": self.proof.verification_key_id,
            "signature": self.proof.signature.hex(),
        }
        return mapping

    def to_bytes(self) -> bytes:
        return canonical_bytes(self.to_mapping())

    @classmethod
    def from_mapping(cls, mapping: Any) -> "VerifiableCredential":
        if not isinstance(mapping, dict) or set(mapping) != _CREDENTIAL_FIELDS:
            raise CredentialError("malformed credential structure")
        proof = mapping["proof"]
        if not isinstance(proof, dict) or set(proof) != {"verification_key_id", "signature"}:
            raise CredentialError("malformed credential proof")
        try:
            commitments = tuple(
                Commitment(
                    claim_name=c["claim_name"],
                    value_hash=from_hex(c["value_hash"], 32),
                )
                for c in mapping["commitments"]
            )
            return cls(
                vc_id=mapping["vc_id"],
                issuer=parse_did(mapping["issuer"]),
                subject=parse_did(mapping["subject"]),
                commitments=commitments,
                issued_at=mapping["issued_at"],
                expires_at=mapping["expires_at"],
                proof=Proof(
                    verification_key_id=proof["verification_key_id"],
                    signature=from_hex(proof["signature"], crypto.SIGNATURE_LEN),
                ),
            )
        except (TypeError, KeyError, EncodingError, DidError) as exc:
            raise CredentialError(f"malformed credential: {exc}") from exc

    @classmethod
    def from_bytes(cls, raw: bytes) -> "VerifiableCredential":
        try:
            return cls.from_mapping(from_canonical(raw))
        except EncodingError as exc:
            raise CredentialError(str(exc)) from exc


@dataclass(frozen=True)
class Presentation:
    """A credential plus the openings for exactly the disclosed claims."""

    credential: VerifiableCredential
    disclosed: tuple[ClaimOpening, ...]

    def to_mapping(self) -> dict[str, Any]:
        return {
            "credential": self.credential.to_mapping(),
            "disclosed": [o.to_mapping() for o in self.disclosed],
        }

    def to_bytes(self) -> bytes:
        return canonical_bytes(self.to_mapping())

    @classmethod
    def from_mapping(cls, mapping: Any) -> "Presentation":
        if not isinstance(mapping, dict) or set(mapping) != {"credential", "disclosed"}:
            raise CredentialError("malformed presentation structure")
        try:
            disclosed = tuple(ClaimOpening.from_mapping(o) for o in mapping["disclosed"])
        except TypeError as exc:
            raise CredentialError(f"malformed presentation: {exc}") from exc
        return cls(
            credential=VerifiableCredential.from_mapping(mapping["credential"]),
            disclosed=disclosed,
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Presentation":
        try:
            return cls.from_mapping(from_canonical(raw))
        except EncodingError as exc:
            raise CredentialError(str(exc)) from exc


@dataclass(frozen=True)
class StoredCredential:
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


def _check_claims(claims: Sequence[Claim]) -> None:
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
    _check_claims(claims)
    if validity <= 0:
        raise CredentialError("validity must be positive")
    rand = rng.randbytes if rng is not None else secrets.token_bytes
    openings = tuple(
        ClaimOpening(name=c.name, value=c.value, salt=rand(16)) for c in claims
    )
    commitments = tuple(
        Commitment(claim_name=o.name, value_hash=commitment_hash(o.name, o.value, o.salt))
        for o in openings
    )
    unsigned = VerifiableCredential(
        vc_id="vc:" + rand(8).hex(),
        issuer=issuer,
        subject=subject,
        commitments=commitments,
        issued_at=now,
        expires_at=now + validity,
        proof=Proof(verification_key_id=issuer_kp.key_id, signature=bytes(64)),
    )
    signature = crypto.sign(issuer_kp, unsigned.signing_payload())
    vc = VerifiableCredential(
        vc_id=unsigned.vc_id,
        issuer=issuer,
        subject=subject,
        commitments=commitments,
        issued_at=now,
        expires_at=now + validity,
        proof=Proof(verification_key_id=issuer_kp.key_id, signature=signature),
    )
    return vc, openings


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
    key = issuer_doc.find_key(vc.proof.verification_key_id)
    if key is None:
        return Verdict.invalid(REASON_UNKNOWN_KEY)
    if isinstance(key, PublicKeyEntry) and key.purpose != crypto.PURPOSE_SIGN:
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
    """Mark a credential revoked; only a current key of the owner may do this."""
    try:
        owner_doc = resolver.resolve(registry.owner, now)
    except ResolutionError as exc:
        raise CredentialError(f"cannot resolve registry owner: {exc}") from exc
    current = {k.public for k in owner_doc.public_keys}
    if issuer_kp.public not in current:
        raise CredentialError("revocation requires a current issuer key")
    registry.add(vc_id)
