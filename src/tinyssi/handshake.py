"""Layered mutual authentication between two identities.

Layer 1 turns a document exchange into an authenticated encrypted channel;
layer 2 exchanges credential presentations over that channel and applies a
trust policy.

  I -> R  HELLO       Hello: did, full document (peer method), ephemeral key, nonce
  I <- R  HELLO_ACK   Hello likewise
  I -> R  AUTH        Auth: signature over the transcript digest so far
  I <- R  AUTH_ACK    Auth: the responder's signature likewise
          both sides now agree on the ephemerals and derive session keys
  I -> R  CRED_REQUEST + CRED_PRESENT   sealed; wanted claim names, and
                                        the initiator's own presentations
  I <- R  CRED_PRESENT + TRUST_RESULT   responder's presentations (tailored
                                        to the request) and its verdict
  I -> R  TRUST_RESULT                  initiator's verdict

A message is a tag byte and a body. Every body is a record in canonical form:
Hello, Auth, CredRequest, CredPresent, TrustDecision or Error; the bodies of
CRED_REQUEST, CRED_PRESENT and TRUST_RESULT travel sealed under the session
keys. step() runs every message through one pipeline: its tag must be one
the session accepts in its role and state (else `protocol`), a sealed body
must open (else `channel`), and the body must decode as its tag's record
(else `protocol`). An ERROR ends the session in any state.

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
from .encoding import EncodingError, Record, decode, from_canonical
from .identity import Did, DidDocument, METHOD_PEER, format_did, verify_peer_document
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

HELLO_NONCE_LEN = 16

FAIL_PROTOCOL = "protocol"
FAIL_AUTH = "auth"
FAIL_CHANNEL = "channel"
FAIL_RESOLVE = "resolve"
FAIL_PEER = "peer"


class HandshakeError(Exception):
    """Misuse of the session API (not an on-protocol failure)."""


class ChannelError(HandshakeError):
    """Secure-channel record refused: replay, tamper, wrong session, or expired keys."""


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

# The tags each role accepts in each state; any other message fails `protocol`.
_ACCEPTS: dict[tuple[str, State], set[int]] = {
    (crypto.ROLE_RESPONDER, State.INIT): {MSG_HELLO},
    (crypto.ROLE_INITIATOR, State.HELLO_SENT): {MSG_HELLO_ACK},
    (crypto.ROLE_RESPONDER, State.HELLO_RECEIVED): {MSG_AUTH},
    (crypto.ROLE_INITIATOR, State.AUTH_PENDING): {MSG_AUTH_ACK},
    (crypto.ROLE_INITIATOR, State.SECURE): {MSG_CRED_REQUEST, MSG_CRED_PRESENT},
    (crypto.ROLE_RESPONDER, State.SECURE): {MSG_CRED_REQUEST, MSG_CRED_PRESENT},
    (crypto.ROLE_INITIATOR, State.TRUSTED): {MSG_TRUST_RESULT},
    (crypto.ROLE_RESPONDER, State.TRUSTED): {MSG_TRUST_RESULT},
    (crypto.ROLE_INITIATOR, State.UNTRUSTED): {MSG_TRUST_RESULT},
    (crypto.ROLE_RESPONDER, State.UNTRUSTED): {MSG_TRUST_RESULT},
}


# ---------------------------------------------------------------------------
# Message bodies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hello(Record):
    """HELLO and HELLO_ACK: my DID, my document if it is a peer DID, and my key share."""

    did: Did
    document: DidDocument | None
    ephemeral: bytes
    nonce: bytes

    def __post_init__(self) -> None:
        if len(self.ephemeral) != crypto.KEY_LEN or len(self.nonce) != HELLO_NONCE_LEN:
            raise ValueError(
                f"ephemeral key must be {crypto.KEY_LEN} bytes and nonce {HELLO_NONCE_LEN}"
            )


@dataclass(frozen=True)
class Auth(Record):
    """AUTH and AUTH_ACK: my signature over the transcript digest so far."""

    key_id: str
    signature: bytes

    def __post_init__(self) -> None:
        if len(self.signature) != crypto.SIGNATURE_LEN:
            raise ValueError(f"signature must be {crypto.SIGNATURE_LEN} bytes")


@dataclass(frozen=True)
class CredRequest(Record):
    want: tuple[str, ...]


@dataclass(frozen=True)
class CredPresent(Record):
    presentations: tuple[Presentation, ...]


@dataclass(frozen=True)
class Error(Record):
    reason: str


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
class TrustDecision(Record):
    """A side's verdict on its peer; the body of TRUST_RESULT."""

    trusted: bool
    reason: str | None = None


# The body record of each tag that _ACCEPTS admits; an ERROR's body is an Error.
_BODIES: dict[int, type[Record]] = {
    MSG_HELLO: Hello,
    MSG_HELLO_ACK: Hello,
    MSG_AUTH: Auth,
    MSG_AUTH_ACK: Auth,
    MSG_CRED_REQUEST: CredRequest,
    MSG_CRED_PRESENT: CredPresent,
    MSG_TRUST_RESULT: TrustDecision,
}


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

    document: DidDocument
    sign_key: crypto.KeyPair
    resolver: Resolver
    policy: TrustPolicy = field(default_factory=AlwaysTrust)
    credentials: tuple[StoredCredential, ...] = ()
    revocation: RevocationRegistry | None = None
    disclose: tuple[str, ...] | None = None
    rng: Random | None = None

    @property
    def did(self) -> Did:
        return self.document.id

    def random_bytes(self, n: int) -> bytes:
        if self.rng is not None:
            return self.rng.randbytes(n)
        return secrets.token_bytes(n)

    @classmethod
    def from_wallet(cls, wallet, resolver: Resolver, **kwargs) -> "SessionConfig":
        """Wire a config from a wallet: identity, current sign key, credentials."""
        sign_key = wallet.current_sign_key()
        if sign_key is None:
            raise HandshakeError("wallet holds no identity with a current signing key")
        return cls(
            document=wallet.current_document,
            sign_key=sign_key,
            resolver=resolver,
            credentials=tuple(wallet.credentials.values()),
            **kwargs,
        )


class HandshakeSession:
    """One side of one handshake; single-owner, driven by step()."""

    def __init__(self, role: str, config: SessionConfig):
        # Only a key my document authorizes signs; any other fails the peer's check.
        if not config.document.authorizes(config.sign_key):
            raise HandshakeError("signing key is not a current key of my document")
        self.role = role
        self.config = config
        self.state = State.INIT
        self.peer_did: Did | None = None
        self.peer_document: DidDocument | None = None
        self.my_nonce: bytes = config.random_bytes(HELLO_NONCE_LEN)
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

    def _fail(self, reason: str) -> list[bytes]:
        self.state = State.FAILED
        self.failure_reason = reason
        return [self._send(MSG_ERROR, Error(reason))]

    def _send(self, tag: int, body: Record) -> bytes:
        """One message: the tag byte, then the body's canonical bytes, sealed if the tag is."""
        if tag in _ENCRYPTED_TAGS:
            return self._seal(tag, body.to_bytes())
        return bytes([tag]) + body.to_bytes()

    def _hello(self) -> Hello:
        embed = self.config.did.method == METHOD_PEER
        return Hello(
            self.config.did, self.config.document if embed else None,
            self.ephemeral.public, self.my_nonce,
        )

    def _auth(self) -> Auth:
        key = self.config.sign_key
        return Auth(key.key_id, crypto.sign(key, self.transcript_digest()))

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

    def _present(self, requested: Sequence[str]) -> bytes:
        """My CRED_PRESENT: the claims config.disclose names, else those requested."""
        disclose = self.config.disclose if self.config.disclose is not None else requested
        wanted = set(disclose)
        presentations = []
        for stored in self.config.credentials:
            subset = [
                n for n in stored.credential.claim_names()
                if n in wanted and stored.opening_for(n) is not None
            ]
            if subset:
                presentations.append(present(stored.credential, stored.openings, subset))
        return self._send(MSG_CRED_PRESENT, CredPresent(tuple(presentations)))

    # -- protocol steps -----------------------------------------------------

    def step(self, incoming: bytes, now: int) -> list[bytes]:
        """Feed one incoming message; returns messages to send in order."""
        if self.state == State.FAILED:
            return []
        tag, body = (incoming[0] if incoming else None), incoming[1:]
        if tag == MSG_ERROR:
            error = _read(Error, body)
            self.state = State.FAILED
            self.failure_reason = f"{FAIL_PEER}: {error.reason if error else 'unspecified'}"
            return []
        if tag not in _ACCEPTS.get((self.role, self.state), ()):
            return self._fail(FAIL_PROTOCOL)
        if tag in _ENCRYPTED_TAGS:
            try:
                body = self._open(incoming)
            except ChannelError:
                return self._fail(FAIL_CHANNEL)
        message = _read(_BODIES[tag], body)
        match message:
            case Hello():
                return self._on_hello(message, incoming, now)
            case Auth():
                return self._on_auth(message, incoming, now)
            case CredRequest():
                self._peer_requested = message.want
                return []
            case CredPresent():
                return self._on_present(message, now)
            case TrustDecision():
                self.peer_verdict = message
                return []
        return self._fail(FAIL_PROTOCOL)

    def _on_hello(self, hello: Hello, raw: bytes, now: int) -> list[bytes]:
        """Accept HELLO (responder) or HELLO_ACK (initiator): fix the peer, then answer."""
        did, doc = hello.did, hello.document
        if self._expected_peer_did is not None and did != self._expected_peer_did:
            return self._fail(FAIL_AUTH)
        if did.method == METHOD_PEER and doc is not None:
            if not verify_peer_document(did, doc):
                return self._fail(FAIL_AUTH)
        else:
            # Only self-certifying documents are trusted off the wire; a peer
            # document may also have been exchanged earlier.
            try:
                doc = self.config.resolver.resolve(did, now)
            except ResolutionError:
                return self._fail(FAIL_RESOLVE)
        self.peer_did, self.peer_document, self.peer_ephemeral = did, doc, hello.ephemeral
        self._transcript.update(raw)
        if self.role == crypto.ROLE_RESPONDER:
            reply = self._send(MSG_HELLO_ACK, self._hello())
            self.state = State.HELLO_RECEIVED
        else:
            reply = self._send(MSG_AUTH, self._auth())
            self.state = State.AUTH_PENDING
        self._transcript.update(reply)
        return [reply]

    def _on_auth(self, auth: Auth, raw: bytes, now: int) -> list[bytes]:
        """Accept AUTH (responder) or AUTH_ACK (initiator) and derive the session keys."""
        # The peer signed the transcript up to the message before this one,
        # with a current signing key of its document.
        key = self.peer_document.signing_key(auth.key_id)
        if key is None or not crypto.verify(key.public, self.transcript_digest(), auth.signature):
            return self._fail(FAIL_AUTH)
        self._transcript.update(raw)
        replies = []
        if self.role == crypto.ROLE_RESPONDER:
            replies.append(self._send(MSG_AUTH_ACK, self._auth()))
            self._transcript.update(replies[0])
        try:
            shared = crypto.agree(self.ephemeral, self.peer_ephemeral)
        except crypto.CryptoError:
            return self._fail(FAIL_AUTH)
        self.session_keys = crypto.derive_session(
            shared, self.transcript_digest(), self.role, established_at=now
        )
        self.state = State.SECURE
        if replies:
            return replies
        # The initiator opens layer 2: its request and a proactive presentation.
        want = requested_claims(self.config.policy)
        return [self._send(MSG_CRED_REQUEST, CredRequest(want)), self._present(want)]

    def _on_present(self, message: CredPresent, now: int) -> list[bytes]:
        """Keep the peer's presentations that verify, answer (responder), and decide."""
        # Holder binding: a credential speaks only for its own subject.
        self.presented = [
            p for p in message.presentations
            if p.credential.subject == self.peer_did
            and verify_presentation(p, self.config.resolver, self.config.revocation, now)
        ]
        replies = []
        if self.role == crypto.ROLE_RESPONDER:
            replies.append(self._present(self._peer_requested))
        decision = decide_trust(self.config.policy, self.presented)
        self.my_verdict = decision
        self.state = State.TRUSTED if decision.trusted else State.UNTRUSTED
        return replies + [self._send(MSG_TRUST_RESULT, decision)]

    # -- secure channel -----------------------------------------------------

    def _check_channel(self, now: int) -> None:
        if self.session_keys is None or self.state not in _CHANNEL_STATES:
            raise HandshakeError(f"no secure channel in state {self.state.value}")
        if now >= self.session_keys.expires_at():
            raise ChannelError("session keys expired; handshake again")

    def secure_send(self, plaintext: bytes, now: int) -> bytes:
        self._check_channel(now)
        return self._seal(MSG_DATA, plaintext)

    def secure_recv(self, data: bytes, now: int) -> bytes:
        self._check_channel(now)
        if not data or data[0] != MSG_DATA:
            raise ChannelError("not a data record")
        return self._open(data)


def _other_role(role: str) -> str:
    return (
        crypto.ROLE_RESPONDER if role == crypto.ROLE_INITIATOR else crypto.ROLE_INITIATOR
    )


def _read(body: type[Record], raw: bytes) -> Any:
    """The body record that raw canonical bytes hold, or None if they hold none."""
    try:
        return decode(body, from_canonical(raw))
    except EncodingError:
        return None


def initiate(
    config: SessionConfig, peer_hint: Did | None = None, now: int = 0
) -> tuple[HandshakeSession, bytes]:
    """Open a session towards a peer, which must prove the DID `peer_hint` if given.

    Returns the session and the HELLO bytes.
    """
    session = HandshakeSession(crypto.ROLE_INITIATOR, config)
    session._expected_peer_did = peer_hint
    hello = session._send(MSG_HELLO, session._hello())
    session._transcript.update(hello)
    session.state = State.HELLO_SENT
    return session, hello


def respond(config: SessionConfig, now: int = 0) -> HandshakeSession:
    """Create the responder side; it waits for a HELLO."""
    return HandshakeSession(crypto.ROLE_RESPONDER, config)
