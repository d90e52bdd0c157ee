"""Layered mutual authentication between two identities.

Layer 1 turns a document exchange into an authenticated encrypted channel;
layer 2 exchanges credential presentations over that channel and applies a
trust policy.

  I -> R  HELLO       did, full document (peer method), ephemeral key, nonce
  I <- R  HELLO_ACK   same shape
  I -> R  AUTH        signature over the transcript digest so far
  I <- R  AUTH_ACK    responder's signature likewise
          both sides now agree on the ephemerals and derive session keys
  I -> R  CRED_REQUEST + CRED_PRESENT   encrypted; wanted claim names, and
                                        the initiator's own presentations
  I <- R  CRED_PRESENT + TRUST_RESULT   responder's presentations (tailored
                                        to the request) and its verdict
  I -> R  TRUST_RESULT                  initiator's verdict

Both sides sign the running transcript, so swapping any key or nonce in
transit breaks authentication on at least one side. The initiator presents
proactively (without waiting for a request) so that both sides can reach a
verdict within three round trips; by default it discloses the claims its own
policy would ask of the peer.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass, field
from enum import Enum
from random import Random
from typing import Any, Sequence

from . import crypto
from .credentials import (
    Presentation,
    RevocationRegistry,
    StoredCredential,
    present,
    verify_presentation,
)
from .encoding import EncodingError, canonical_bytes, from_canonical, from_hex
from .identity import (
    Did,
    DidDocument,
    DidError,
    METHOD_PEER,
    format_did,
    parse_did,
    verify_peer_document,
)
from .resolver import ResolutionError, Resolver

MSG_HELLO = 0x01
MSG_HELLO_ACK = 0x02
MSG_AUTH = 0x03
MSG_AUTH_ACK = 0x04
MSG_CRED_REQUEST = 0x05
MSG_CRED_PRESENT = 0x06
MSG_TRUST_RESULT = 0x07
MSG_DATA = 0x08
MSG_ERROR = 0x7F

_ENCRYPTED_TAGS = frozenset({MSG_CRED_REQUEST, MSG_CRED_PRESENT, MSG_TRUST_RESULT, MSG_DATA})

_ROLE_BYTE = {crypto.ROLE_INITIATOR: 0x01, crypto.ROLE_RESPONDER: 0x02}

FAIL_PROTOCOL = "protocol"
FAIL_AUTH = "auth"
FAIL_CHANNEL = "channel"
FAIL_RESOLVE = "resolve"
FAIL_PEER = "peer"


class HandshakeError(Exception):
    """Misuse of the session API (not an on-protocol failure)."""


class ChannelError(HandshakeError):
    """Secure-channel receive failed: replay, tamper, or wrong session."""


class State(Enum):
    INIT = "Init"
    HELLO_SENT = "HelloSent"
    HELLO_RECEIVED = "HelloReceived"
    AUTH_PENDING = "AuthPending"
    SECURE = "Secure"
    TRUSTED = "Trusted"
    UNTRUSTED = "Untrusted"
    FAILED = "Failed"


_CHANNEL_STATES = frozenset({State.SECURE, State.TRUSTED, State.UNTRUSTED})

# The one plaintext message each role accepts in each layer-1 state.
_LAYER1_EXPECTS = {
    (crypto.ROLE_RESPONDER, State.INIT): MSG_HELLO,
    (crypto.ROLE_INITIATOR, State.HELLO_SENT): MSG_HELLO_ACK,
    (crypto.ROLE_RESPONDER, State.HELLO_RECEIVED): MSG_AUTH,
    (crypto.ROLE_INITIATOR, State.AUTH_PENDING): MSG_AUTH_ACK,
}


# ---------------------------------------------------------------------------
# Trust policies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlwaysTrust:
    pass


@dataclass(frozen=True)
class OwnerMatch:
    """Trust peers holding an owner claim from my own owner."""

    my_owner: Did


@dataclass(frozen=True)
class RequireClaim:
    name: str
    value: str


TrustPolicy = AlwaysTrust | OwnerMatch | RequireClaim


@dataclass(frozen=True)
class TrustDecision:
    trusted: bool
    reason: str | None = None


def requested_claims(policy: TrustPolicy) -> tuple[str, ...]:
    if isinstance(policy, OwnerMatch):
        return ("owner",)
    if isinstance(policy, RequireClaim):
        return (policy.name,)
    return ()


def decide_trust(policy: TrustPolicy, presented: Sequence[Presentation]) -> TrustDecision:
    """Apply a policy to presentations that have already been verified.

    OwnerMatch is RequireClaim("owner", <my owner's DID>) restricted to
    credentials my owner issued; both go through one claim-matching loop.
    """
    if isinstance(policy, AlwaysTrust):
        return TrustDecision(trusted=True)
    if isinstance(policy, OwnerMatch):
        name, value = "owner", format_did(policy.my_owner)
        candidates = [p for p in presented if p.credential.issuer == policy.my_owner]
        mismatch, missing = "owner mismatch", "owner claim missing"
    elif isinstance(policy, RequireClaim):
        name, value, candidates = policy.name, policy.value, presented
        mismatch, missing = "claim mismatch", "claim missing"
    else:
        raise HandshakeError(f"unknown policy {policy!r}")
    if not presented:
        return TrustDecision(False, "no valid credentials")
    if not candidates:
        return TrustDecision(False, "issuer")
    values = [o.value for p in candidates for o in p.disclosed if o.name == name]
    if value in values:
        return TrustDecision(trusted=True)
    return TrustDecision(False, mismatch if values else missing)


# ---------------------------------------------------------------------------
# Session
# ---------------------------------------------------------------------------

@dataclass
class SessionConfig:
    """Everything one side needs: identity, keys, resolution, and policy."""

    did: Did
    document: DidDocument
    sign_key: crypto.KeyPair
    resolver: Resolver
    policy: TrustPolicy = field(default_factory=AlwaysTrust)
    credentials: tuple[StoredCredential, ...] = ()
    revocation: RevocationRegistry | None = None
    disclose: tuple[str, ...] | None = None
    session_lifetime: int = crypto.DEFAULT_SESSION_LIFETIME
    rng: Random | None = None

    def random_bytes(self, n: int) -> bytes:
        if self.rng is not None:
            return self.rng.randbytes(n)
        return secrets.token_bytes(n)

    @classmethod
    def from_wallet(cls, wallet, resolver: Resolver, **kwargs) -> "SessionConfig":
        """Wire a config from a wallet: identity, current sign key, credentials."""
        doc = wallet.current_document
        if wallet.owner_did is None or doc is None:
            raise HandshakeError("wallet holds no identity")
        sign_key = wallet.current_sign_key()
        if sign_key is None:
            raise HandshakeError("wallet holds no current signing key")
        return cls(
            did=wallet.owner_did,
            document=doc,
            sign_key=sign_key,
            resolver=resolver,
            credentials=tuple(wallet.credentials.values()),
            **kwargs,
        )


class HandshakeSession:
    """One side of one handshake; single-owner, driven by step()."""

    def __init__(self, role: str, config: SessionConfig):
        # Only a current key signs; a retired one would fail the peer's check.
        if all(k.key_id != config.sign_key.key_id for k in config.document.public_keys):
            raise HandshakeError("signing key is not a current key of my document")
        if config.sign_key.purpose != crypto.PURPOSE_SIGN:
            raise HandshakeError("handshake needs a signing key")
        self.role = role
        self.config = config
        self.state = State.INIT
        self.my_did = config.did
        self.peer_did: Did | None = None
        self.peer_document: DidDocument | None = None
        self.my_nonce: bytes = config.random_bytes(16)
        self.peer_nonce: bytes | None = None
        self.ephemeral = crypto.keygen(crypto.PURPOSE_AGREE, seed=config.random_bytes(32))
        self.peer_ephemeral: bytes | None = None
        self.session_keys: crypto.SessionKeys | None = None
        self.presented: list[Presentation] = []
        self.peer_verdict: TrustDecision | None = None
        self.my_verdict: TrustDecision | None = None
        self.failure_reason: str | None = None
        self._transcript = hashlib.sha256()
        self._expected_peer_did: Did | None = None
        self._peer_requested: tuple[str, ...] = ()
        self._send_nonces = crypto.NonceSequence(_ROLE_BYTE[role])
        self._recv_guard = crypto.ReplayGuard(_ROLE_BYTE[_other_role(role)])

    # -- helpers ------------------------------------------------------------

    def transcript_digest(self) -> bytes:
        return self._transcript.copy().digest()

    def _absorb(self, message: bytes) -> None:
        self._transcript.update(message)

    def _fail(self, reason: str, notify: bool = True) -> list[bytes]:
        self.state = State.FAILED
        self.failure_reason = reason
        if notify:
            return [_encode_plain(MSG_ERROR, {"reason": reason})]
        return []

    def _hello_body(self) -> dict[str, Any]:
        embed = self.my_did.method == METHOD_PEER
        return {
            "did": format_did(self.my_did),
            "document": self.config.document.to_mapping() if embed else None,
            "ephemeral": self.ephemeral.public.hex(),
            "nonce": self.my_nonce.hex(),
        }

    def _load_peer_identity(self, body: dict[str, Any], now: int) -> str | None:
        """Fix peer did/document from a HELLO body; returns a failure reason."""
        try:
            did = parse_did(body["did"])
        except DidError:
            return FAIL_PROTOCOL
        if self._expected_peer_did is not None and did != self._expected_peer_did:
            return FAIL_AUTH
        embedded = body.get("document")
        if did.method == METHOD_PEER:
            if embedded is None:
                # Peer-method documents may also have been exchanged earlier.
                try:
                    doc = self.config.resolver.resolve(did, now)
                except ResolutionError:
                    return FAIL_RESOLVE
            else:
                try:
                    doc = DidDocument.from_mapping(embedded)
                except DidError:
                    return FAIL_PROTOCOL
                if not verify_peer_document(did, doc):
                    return FAIL_AUTH
        else:
            # Only self-certifying documents are trusted off the wire.
            try:
                doc = self.config.resolver.resolve(did, now)
            except ResolutionError:
                return FAIL_RESOLVE
        if not any(k.purpose == crypto.PURPOSE_SIGN for k in doc.public_keys):
            return FAIL_AUTH
        self.peer_did = did
        self.peer_document = doc
        return None

    def _auth_signature(self) -> dict[str, Any]:
        digest = self.transcript_digest()
        signature = crypto.sign(self.config.sign_key, digest)
        return {"key_id": self.config.sign_key.key_id, "signature": signature.hex()}

    def _verify_peer_auth(self, body: dict[str, Any], expected_digest: bytes) -> bool:
        assert self.peer_document is not None
        key_id = body.get("key_id")
        entry = next(
            (
                k
                for k in self.peer_document.public_keys
                if k.key_id == key_id and k.purpose == crypto.PURPOSE_SIGN
            ),
            None,
        )
        if entry is None:
            return False
        try:
            signature = from_hex(body["signature"], crypto.SIGNATURE_LEN)
        except (EncodingError, KeyError):
            return False
        return crypto.verify(entry.public, expected_digest, signature)

    def _establish_keys(self, now: int) -> str | None:
        assert self.peer_ephemeral is not None
        try:
            shared = crypto.agree(self.ephemeral, self.peer_ephemeral)
        except crypto.CryptoError:
            return FAIL_AUTH
        self.session_keys = crypto.derive_session(
            shared,
            self.transcript_digest(),
            self.role,
            established_at=now,
            lifetime=self.config.session_lifetime,
        )
        return None

    def _seal(self, tag: int, plaintext: bytes) -> bytes:
        """Seal one channel record: tag byte, nonce, then ciphertext bound to the tag."""
        nonce = self._send_nonces.next()
        sealed = crypto.seal(self.session_keys.send_key, nonce, plaintext, aad=bytes([tag]))
        return bytes([tag]) + nonce + sealed

    def _open(self, record: bytes) -> bytes:
        """Open one channel record: check the nonce, unseal, and only then commit it."""
        if len(record) < 1 + crypto.NONCE_LEN + 16:
            raise ChannelError("truncated channel record")
        nonce = record[1 : 1 + crypto.NONCE_LEN]
        try:
            self._recv_guard.check(nonce)
            plain = crypto.unseal(
                self.session_keys.recv_key, nonce, record[1 + crypto.NONCE_LEN :],
                aad=record[:1],
            )
        except crypto.AuthenticationError as exc:
            raise ChannelError(f"channel authentication failed: {exc}") from exc
        self._recv_guard.commit(nonce)
        return plain

    def _build_presentations(self, names: Sequence[str]) -> list[dict[str, Any]]:
        wanted = set(names)
        out = []
        for stored in self.config.credentials:
            subset = [
                n for n in stored.credential.claim_names()
                if n in wanted and stored.opening_for(n) is not None
            ]
            if subset:
                out.append(present(stored.credential, stored.openings, subset).to_mapping())
        return out

    def _verify_presentations(self, mappings: Any, now: int) -> list[Presentation]:
        """Presentations that verify and whose subject is the authenticated peer."""
        verified = []
        for mapping in mappings:
            try:
                presentation = Presentation.from_mapping(mapping)
            except Exception:
                continue
            # Holder binding: a credential speaks only for its own subject.
            if presentation.credential.subject != self.peer_did:
                continue
            verdict = verify_presentation(
                presentation, self.config.resolver, self.config.revocation, now
            )
            if verdict:
                verified.append(presentation)
        return verified

    def _decide(self) -> list[bytes]:
        decision = decide_trust(self.config.policy, self.presented)
        self.my_verdict = decision
        self.state = State.TRUSTED if decision.trusted else State.UNTRUSTED
        result = {"trusted": decision.trusted, "reason": decision.reason}
        return [self._seal(MSG_TRUST_RESULT, canonical_bytes(result))]

    def _layer2_opening(self) -> list[bytes]:
        """Initiator's first encrypted batch: request plus proactive presentation."""
        want = requested_claims(self.config.policy)
        disclose = self.config.disclose if self.config.disclose is not None else want
        presentations = {"presentations": self._build_presentations(disclose)}
        return [
            self._seal(MSG_CRED_REQUEST, canonical_bytes({"want": list(want)})),
            self._seal(MSG_CRED_PRESENT, canonical_bytes(presentations)),
        ]

    # -- protocol steps -----------------------------------------------------

    def step(self, incoming: bytes, now: int) -> list[bytes]:
        """Feed one incoming message; returns messages to send in order."""
        if self.state == State.FAILED:
            return []
        if not incoming:
            return self._fail(FAIL_PROTOCOL)
        tag = incoming[0]
        if tag == MSG_ERROR:
            try:
                body = from_canonical(incoming[1:])
                detail = body.get("reason", "unspecified")
            except EncodingError:
                detail = "unspecified"
            self.state = State.FAILED
            self.failure_reason = f"{FAIL_PEER}: {detail}"
            return []
        if tag in _ENCRYPTED_TAGS:
            if self.state not in _CHANNEL_STATES:
                return self._fail(FAIL_PROTOCOL)
            try:
                body = from_canonical(self._open(incoming))
            except (ChannelError, EncodingError):
                return self._fail(FAIL_CHANNEL)
            if not isinstance(body, dict):
                return self._fail(FAIL_CHANNEL)
            return self._step_layer2(tag, body, now)
        try:
            body = from_canonical(incoming[1:])
        except EncodingError:
            return self._fail(FAIL_PROTOCOL)
        if not isinstance(body, dict):
            return self._fail(FAIL_PROTOCOL)
        return self._step_layer1(tag, body, incoming, now)

    def _step_layer1(
        self, tag: int, body: dict[str, Any], raw: bytes, now: int
    ) -> list[bytes]:
        if _LAYER1_EXPECTS.get((self.role, self.state)) != tag:
            return self._fail(FAIL_PROTOCOL)
        if tag in (MSG_HELLO, MSG_HELLO_ACK):
            return self._on_hello(body, raw, now)
        return self._on_auth(body, raw, now)

    def _on_hello(self, body: dict[str, Any], raw: bytes, now: int) -> list[bytes]:
        """Accept HELLO (responder) or HELLO_ACK (initiator); both have one shape."""
        if set(body) != {"did", "document", "ephemeral", "nonce"}:
            return self._fail(FAIL_PROTOCOL)
        try:
            nonce = from_hex(body["nonce"], 16)
            ephemeral = from_hex(body["ephemeral"], crypto.KEY_LEN)
        except EncodingError:
            return self._fail(FAIL_PROTOCOL)
        failure = self._load_peer_identity(body, now)
        if failure:
            return self._fail(failure)
        self.peer_nonce = nonce
        self.peer_ephemeral = ephemeral
        self._absorb(raw)
        if self.role == crypto.ROLE_RESPONDER:
            reply = _encode_plain(MSG_HELLO_ACK, self._hello_body())
            self.state = State.HELLO_RECEIVED
        else:
            reply = _encode_plain(MSG_AUTH, self._auth_signature())
            self.state = State.AUTH_PENDING
        self._absorb(reply)
        return [reply]

    def _on_auth(self, body: dict[str, Any], raw: bytes, now: int) -> list[bytes]:
        """Accept AUTH (responder) or AUTH_ACK (initiator) and derive the session keys."""
        # The peer signed the transcript up to the message before this one.
        if not self._verify_peer_auth(body, self.transcript_digest()):
            return self._fail(FAIL_AUTH)
        self._absorb(raw)
        reply = None
        if self.role == crypto.ROLE_RESPONDER:
            reply = _encode_plain(MSG_AUTH_ACK, self._auth_signature())
            self._absorb(reply)
        failure = self._establish_keys(now)
        if failure:
            return self._fail(failure)
        self.state = State.SECURE
        return [reply] if reply is not None else self._layer2_opening()

    def _step_layer2(self, tag: int, body: dict[str, Any], now: int) -> list[bytes]:
        if tag == MSG_CRED_REQUEST and self.state == State.SECURE:
            want = body.get("want")
            if not isinstance(want, list) or not all(isinstance(n, str) for n in want):
                return self._fail(FAIL_PROTOCOL)
            self._peer_requested = tuple(want)
            return []
        if tag == MSG_CRED_PRESENT and self.state == State.SECURE:
            self.presented = self._verify_presentations(body.get("presentations", []), now)
            if self.role == crypto.ROLE_RESPONDER:
                disclose = (
                    self.config.disclose
                    if self.config.disclose is not None
                    else self._peer_requested
                )
                presentations = {"presentations": self._build_presentations(disclose)}
                reply = self._seal(MSG_CRED_PRESENT, canonical_bytes(presentations))
                return [reply] + self._decide()
            return self._decide()
        if tag == MSG_TRUST_RESULT and self.state in (State.TRUSTED, State.UNTRUSTED):
            trusted = body.get("trusted")
            if not isinstance(trusted, bool):
                return self._fail(FAIL_PROTOCOL)
            self.peer_verdict = TrustDecision(trusted=trusted, reason=body.get("reason"))
            return []
        return self._fail(FAIL_PROTOCOL)

    # -- secure channel -----------------------------------------------------

    def secure_send(self, plaintext: bytes) -> bytes:
        if self.session_keys is None or self.state not in _CHANNEL_STATES:
            raise HandshakeError(f"no secure channel in state {self.state.value}")
        return self._seal(MSG_DATA, plaintext)

    def secure_recv(self, data: bytes) -> bytes:
        if self.session_keys is None or self.state not in _CHANNEL_STATES:
            raise HandshakeError(f"no secure channel in state {self.state.value}")
        if not data or data[0] != MSG_DATA:
            raise ChannelError("not a data record")
        return self._open(data)


def _other_role(role: str) -> str:
    return (
        crypto.ROLE_RESPONDER if role == crypto.ROLE_INITIATOR else crypto.ROLE_INITIATOR
    )


def _encode_plain(tag: int, body: dict[str, Any]) -> bytes:
    return bytes([tag]) + canonical_bytes(body)


def initiate(
    config: SessionConfig,
    peer_hint: Did | DidDocument | None = None,
    now: int = 0,
) -> tuple[HandshakeSession, bytes]:
    """Open a session towards a peer; returns the session and the HELLO bytes."""
    session = HandshakeSession(crypto.ROLE_INITIATOR, config)
    if isinstance(peer_hint, DidDocument):
        session._expected_peer_did = peer_hint.id
    elif isinstance(peer_hint, Did):
        session._expected_peer_did = peer_hint
    hello = _encode_plain(MSG_HELLO, session._hello_body())
    session._absorb(hello)
    session.state = State.HELLO_SENT
    return session, hello


def respond(config: SessionConfig, now: int = 0) -> HandshakeSession:
    """Create the responder side; it waits for a HELLO."""
    return HandshakeSession(crypto.ROLE_RESPONDER, config)
