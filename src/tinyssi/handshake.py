"""Layered mutual authentication between two identities.

Layer 1 turns a document exchange into an authenticated encrypted channel;
layer 2 exchanges credential presentations over that channel and applies a
trust policy.

  I -> R  HELLO       Hello: did (reg) or document body (peer, the did derived
                      from it), ephemeral key
  I <- R  HELLO_ACK   Hello likewise
  I -> R  AUTH        Auth: a proof (key id, signature) of the transcript so far
  I <- R  AUTH_ACK + CRED_REQUEST + CRED_PRESENT
                      Auth: the responder's proof likewise, after which both
                      sides derive session keys from the transcript; then,
                      sealed, the responder's wanted claim names and its own
                      presentations
  I -> R  CRED_PRESENT + TRUST_RESULT   initiator's presentations (the
                                        requested claims, from the requested
                                        issuer) and its verdict
  I <- R  TRUST_RESULT                  responder's verdict

A message is a tag byte and one deterministic CBOR item. The item is the
body, a record in wire form (`encoding.pack`): Hello, Auth, CredRequest,
CredPresent, `credentials.Verdict` or Error; or, once the session holds keys,
the body sealed, as a byte string. step() runs every message through one
pipeline: its tag must be one the session accepts in its state (else
`protocol`), once the session holds keys the message must open (else
`channel`), and the body must decode as its tag's record (else `protocol`).
An ERROR ends the session until it is complete, but once the session holds
keys one that does not open is dropped. A complete session, holding both
verdicts, ignores whatever arrives.

The wire leaves out what its reader can derive (as SCHC does, RFC 8724). The
compact key, key id, DID value, credential id, endpoint and verdict below
each travel in the `encoding.WireForm` their type or field declares, and the
codec refuses a second spelling of the same value:
- A document travels as the body its peer DID is the digest of, so the
  reader derives the DID and the decoded body gives back its canonical bytes.
- The i-th service endpoint of that body (counting from 1) travels with null
  for its id when the id is `ep-<i>`, and with null for its type when the
  type is its address's URI scheme.
- A HELLO has no nonce: its fresh ephemeral key makes the transcript fresh.
- A key travels with null for its id when the id is the default
  (`crypto.default_key_id` of its purpose and public key), and with its
  purpose as an index into `crypto.PURPOSES`. In AUTH and proofs a key id
  of the default signing shape travels as its digest bytes (`crypto.KeyId`).
- A disclosed claim value that is DID text travels as the DID's wire bytes
  (`credentials.DidText`), and one that is its credential's issuer as null
  (IssuerOpening). An id that issue() made travels as its raw bytes
  (`credentials.VcId`).
- A presentation travels as a PresentationWire: its credential without the
  subject, which holder binding makes the authenticated peer, and with null
  for each commitment a disclosed opening opens, the digest of that opening.
  The reader restores each before it verifies the presentation, and the
  restored credential is the one the issuer signed and the holder stores as
  canonical JSON, so another subject or a changed opening fails `signature`.
- The issuer of the first presentation in the responder's CRED_PRESENT is
  the context issuer. An initiator's presentation whose issuer is that one
  travels with null for it, and the reader fills it in before it restores
  the rest, so a credential of another issuer sent with null fails
  `signature`. The issuer spelled out where it is the context's, or null
  where there is no context (every responder presentation, and an initiator
  one when the responder presented nothing), fails `protocol`.
- A CRED_REQUEST whose issuer is the context issuer travels as its claim
  names alone, and the reader fills the context issuer in once the
  responder's CRED_PRESENT, which follows it in the same leg, names it. A
  request of another issuer, or of any issuer (null), travels whole
  (RequestWire). The context issuer spelled out, or left out where there is
  no context, fails `protocol`.
- A TRUST_RESULT's verdict travels as one value (`credentials.Verdict`):
  null when it is trusted, and the reason's text when it is not.
- A record of one field travels as that field, not as an array of one
  (`encoding.pack`): a CredPresent as its presentations, an Error as its
  reason.
- A leg travels as its messages back to back, with no length prefix, as a
  CBOR sequence does its items (RFC 8742): each message is a tag byte and
  one item, so `split_leg` finds where each ends, and a leg has one
  spelling (`harness.drive_handshake`).
- A message travels sealed exactly when its sender holds session keys,
  whatever its tag, as OSCORE protects a message once a security context
  exists (RFC 8613): HELLO, HELLO_ACK, AUTH and AUTH_ACK are written before
  there are keys, and every later message, an ERROR included, after. A
  sealed message is one record `tag | byte string`: the ciphertext as a CBOR
  byte string, its associated data the tag byte. No counter travels. The
  session keeps one count per direction, the records it sealed and the
  records it opened, as TLS 1.3 keeps an implicit record number (RFC 8446
  section 5.3), and the reader builds the 12-byte nonce of the next record
  from the sender's role byte and that count. The transport delivers each
  message of a direction once and in order, so the counts agree; a replayed,
  reordered, reflected or forged record fails the AEAD, and so does every
  record after one that went missing.

Both sides sign the running transcript, so swapping any key in transit
breaks authentication on at least one side. The responder opens layer 2 in
the leg that carries AUTH_ACK, as a TLS 1.3 server sends its
CertificateRequest in the flight that authenticates it (RFC 8446 section
4.3.2). By then AUTH has authenticated the initiator, and the records are
sealed under keys bound to the transcript the initiator signed, so each side
discloses only to a peer it has authenticated: the responder after AUTH, the
initiator after AUTH_ACK. The responder presents proactively (without
waiting for a request) so that both sides have decided once the fifth leg
arrives, within three round trips; it discloses the claims its own policy
would ask of the peer. The request names the one issuer the responder's
policy accepts, or any, and the initiator presents only credentials of that
issuer, as a TLS 1.3 CertificateRequest names the authorities a server
accepts and a client with no match sends an empty Certificate (RFC 8446
sections 4.2.4 and 4.4.2). So a device of another owner learns neither the
initiator's owner nor its claims, and the CRED_PRESENT leg still goes,
empty. Whatever arrives is still verified and judged by the reader's own
policy.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from random import Random
from typing import Any, Sequence

from . import crypto
from .credentials import (
    ClaimOpening,
    Commitment,
    CredentialError,
    Presentation,
    Proof,
    RevocationRegistry,
    StoredCredential,
    Verdict,
    VcId,
    VerifiableCredential,
    present,
    verify_presentation,
)
from .encoding import EncodingError, Record, cbor_bytes, item_end, pack, unpack
from .identity import Did, DidDocument, DocumentBody, METHOD_PEER, format_did
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


def split_leg(leg: bytes) -> list[bytes] | None:
    """The messages a leg carries back to back, each a tag byte and one CBOR
    item; None unless `leg` is exactly one or more such messages."""
    messages, at = [], 0
    while at < len(leg):
        try:
            end = item_end(leg, at + 1)
        except EncodingError:
            return None
        messages.append(leg[at:end])
        at = end
    return messages or None


# Each role's byte, which leads the nonces it seals under, and its peer's.
_ROLE_BYTES = {crypto.ROLE_INITIATOR: (0x01, 0x02), crypto.ROLE_RESPONDER: (0x02, 0x01)}

FAIL_PROTOCOL = "protocol"
FAIL_AUTH = "auth"
FAIL_CHANNEL = "channel"
FAIL_RESOLVE = "resolve"
FAIL_PEER = "peer"
FAIL_CREDENTIALS = "credentials"


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


# ---------------------------------------------------------------------------
# Message bodies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hello(Record):
    """HELLO and HELLO_ACK: my DID (reg) or my document's body (peer, the DID
    derived from it), never both, and my key share, fresh for each session."""

    did: Did | None
    document: DocumentBody | None
    ephemeral: bytes

    def __post_init__(self) -> None:
        if len(self.ephemeral) != crypto.KEY_LEN:
            raise ValueError(f"ephemeral key must be {crypto.KEY_LEN} bytes")
        if (self.did is None) == (self.document is None):
            raise ValueError("a Hello carries a DID or a document, exactly one")


class Auth(Proof):
    """AUTH and AUTH_ACK: my proof over the transcript digest so far."""


@dataclass(frozen=True)
class CredRequest(Record):
    """CRED_REQUEST: the claim names the responder wants, and the one issuer
    whose credentials its policy accepts, None for any issuer."""

    want: tuple[str, ...]
    issuer: Did | None

    def wire(self, context: Did | None) -> RequestWire:
        """What travels: the claim names alone when the issuer is the context issuer."""
        return self.want if context is not None and self.issuer == context else self

    @staticmethod
    def restore(wire: RequestWire, context: Did | None) -> CredRequest:
        """The request that `wire` carries, the context issuer filled in for a
        left-out issuer. CredentialError if the issuer is spelled out where it is
        the context's, or left out where there is no context."""
        if isinstance(wire, CredRequest):
            if context is not None and wire.issuer == context:
                raise CredentialError("the issuer is left out exactly when it is the context's")
            return wire
        if context is None:
            raise CredentialError("a request that leaves its issuer out needs a context issuer")
        return CredRequest(wire, context)


# A CRED_REQUEST body: a CredRequest, or its claim names alone when its issuer
# is the context issuer. A claim name is text and a CredRequest an array, so
# each body decodes one way.
RequestWire = tuple[str, ...] | CredRequest


@dataclass(frozen=True)
class IssuerOpening(Record):
    """A disclosed opening of its credential's issuer DID: the reader fills it in."""

    name: str
    value: None
    salt: bytes


@dataclass(frozen=True)
class PresentationWire(Record):
    """A presentation as CRED_PRESENT carries it, less what its reader derives.

    Its credential's subject is left out: holder binding makes it the
    authenticated peer. Its issuer is None when it is the context issuer,
    which both sides already hold. Each commitment that a disclosed opening
    opens is None: it is that opening's digest. Undisclosed commitments
    travel whole.
    """

    vc_id: VcId
    issuer: Did | None
    commitments: tuple[Commitment | None, ...]
    issued_at: int
    expires_at: int
    proof: Proof
    disclosed: tuple[ClaimOpening | IssuerOpening, ...]

    @classmethod
    def of(cls, p: Presentation, context: Did | None) -> "PresentationWire":
        vc, opened = p.credential, {o.name for o in p.disclosed}
        commitments = tuple(None if c.claim_name in opened else c for c in vc.commitments)
        issuer = format_did(vc.issuer)
        disclosed = tuple(
            IssuerOpening(o.name, None, o.salt) if o.value == issuer else o for o in p.disclosed
        )
        return cls(vc.vc_id, None if vc.issuer == context else vc.issuer, commitments,
                   vc.issued_at, vc.expires_at, vc.proof, disclosed)

    def restore(self, subject: Did, context: Did | None) -> Presentation:
        """The presentation of `subject`, the context issuer filled in for a null
        issuer, the issuer for each null value, and each None commitment rebuilt
        from the next disclosed opening in order. CredentialError if the issuer
        is spelled out where it is the context or is null with no context, if an
        opening spells out the issuer, if the None slots and the openings do not
        pair one to one, or the credential breaks an invariant."""
        if self.issuer == context:  # both null, or the context spelled out
            raise CredentialError("the issuer travels as null exactly when it is the context's")
        issuer_did = context if self.issuer is None else self.issuer
        if sum(c is None for c in self.commitments) != len(self.disclosed):
            raise CredentialError("derived commitments do not pair with the disclosed openings")
        issuer = format_did(issuer_did)
        if any(o.value == issuer for o in self.disclosed):
            raise CredentialError("the issuer's DID as a value travels as null")
        disclosed = tuple(
            ClaimOpening(o.name, issuer if o.value is None else o.value, o.salt)
            for o in self.disclosed
        )
        openings = iter(disclosed)
        commitments = tuple(
            next(openings).commitment() if c is None else c for c in self.commitments
        )
        credential = VerifiableCredential(
            self.vc_id, issuer_did, subject, commitments, self.issued_at, self.expires_at,
            self.proof,
        )
        return Presentation(credential, disclosed)


@dataclass(frozen=True)
class CredPresent(Record):
    presentations: tuple[PresentationWire, ...]


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


# The tags each state accepts, each with the type its body decodes as; any
# other message fails `protocol`, and an ERROR's body is an Error. Each set-up
# state belongs to one role, and the channel states accept the same tags in
# both.
_ACCEPTS: dict[State, dict[int, Any]] = {
    State.INIT: {MSG_HELLO: Hello},
    State.HELLO_SENT: {MSG_HELLO_ACK: Hello},
    State.HELLO_RECEIVED: {MSG_AUTH: Auth},
    State.AUTH_PENDING: {MSG_AUTH_ACK: Auth},
    State.SECURE: {MSG_CRED_REQUEST: RequestWire, MSG_CRED_PRESENT: CredPresent},
    State.TRUSTED: {MSG_TRUST_RESULT: Verdict},
    State.UNTRUSTED: {MSG_TRUST_RESULT: Verdict},
}


def policy_request(policy: TrustPolicy) -> CredRequest:
    """What a policy asks of a peer: the claim names it reads, and the one
    issuer whose credentials it accepts (None for any)."""
    if isinstance(policy, OwnerMatch):
        return CredRequest(("owner",), policy.my_owner)
    if isinstance(policy, RequireClaim):
        return CredRequest((policy.name,), None)
    return CredRequest((), None)


def decide_trust(
    policy: TrustPolicy, presented: Sequence[Presentation], rejected: Sequence[str] = (),
) -> Verdict:
    """Apply a policy to presentations that have already been verified.

    OwnerMatch is RequireClaim("owner", <my owner's DID>) restricted to
    credentials my owner issued; both go through one claim-matching loop.
    `rejected` holds the reasons the other presentations did not verify;
    when none verified, they are the verdict's reason. Otherwise nothing
    from my owner reads `issuer`, whether the peer presented another
    issuer's credential or none, and nothing at all under RequireClaim reads
    `claim missing`.
    """
    if isinstance(policy, AlwaysTrust):
        return Verdict(True)
    if isinstance(policy, OwnerMatch):
        name, value = "owner", format_did(policy.my_owner)
        candidates = [p for p in presented if p.credential.issuer == policy.my_owner]
        mismatch, missing = "owner mismatch", "owner claim missing"
    elif isinstance(policy, RequireClaim):
        name, value, candidates = policy.name, policy.value, presented
        mismatch, missing = "claim mismatch", "claim missing"
    else:
        raise HandshakeError(f"unknown policy {policy!r}")
    if rejected and not presented:
        return Verdict(False, "; ".join(dict.fromkeys(rejected)))
    if not candidates and isinstance(policy, OwnerMatch):
        return Verdict(False, "issuer")
    values = [o.value for p in candidates for o in p.disclosed if o.name == name]
    if value in values:
        return Verdict(True)
    return Verdict(False, mismatch if values else missing)


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
    rng: Random | None = None

    @property
    def did(self) -> Did:
        return self.document.id

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
        seed = config.rng.randbytes(crypto.KEY_LEN) if config.rng is not None else None
        self.ephemeral = crypto.keygen(crypto.PURPOSE_AGREE, seed=seed)
        self.role = role
        self.config = config
        self.state = State.INIT
        self.peer_did: Did | None = None
        self.peer_document: DidDocument | None = None
        self.peer_ephemeral: bytes | None = None
        self.session_keys: crypto.SessionKeys | None = None
        self.presented: list[Presentation] = []
        self.rejected: list[str] = []
        self.peer_verdict: Verdict | None = None
        self.my_verdict: Verdict | None = None
        self.failure_reason: str | None = None
        self._transcript = hashlib.sha256()
        self._expected_peer_did: Did | None = None
        # The responder's request as it travelled: the initiator reads it once
        # the responder's presentations fix the context issuer. Until one
        # arrives, nothing is asked for.
        self._peer_request: RequestWire = CredRequest((), None)
        # The issuer of the responder's first presentation, which the
        # initiator's presentations name by null.
        self._context_issuer: Did | None = None
        self._role_byte, self._peer_role_byte = _ROLE_BYTES[role]
        # The channel's counts, one per direction: records I sealed, and records I opened.
        self._sealed = 0
        self._opened = 0
        # My HELLO (HELLO_ACK as responder), written once here, carries my
        # document's body (peer) or my DID (reg), which must travel.
        if config.did.method == METHOD_PEER:
            did, body = None, config.document.body()
        else:
            did, body = config.did, None
        tag = MSG_HELLO if role == crypto.ROLE_INITIATOR else MSG_HELLO_ACK
        try:
            self._hello = self._send(tag, Hello(did, body, self.ephemeral.public))
        except EncodingError as exc:
            raise HandshakeError(f"my document has no wire form: {exc}") from exc

    @property
    def complete(self) -> bool:
        """Failed, or both verdicts in: the session sends nothing more."""
        return self.state == State.FAILED or (
            self.my_verdict is not None and self.peer_verdict is not None
        )

    # -- helpers ------------------------------------------------------------

    def transcript_digest(self) -> bytes:
        return self._transcript.copy().digest()

    def _fail(self, reason: str) -> list[bytes]:
        self.state = State.FAILED
        self.failure_reason = reason
        return [self._send(MSG_ERROR, Error(reason))]

    def _send(self, tag: int, body: Record) -> bytes:
        """One message: the tag byte, then the body's wire bytes, sealed once the
        session holds keys, as it does for every message after AUTH_ACK."""
        if self.session_keys is not None:
            return self._seal(tag, pack(body))
        return bytes([tag]) + pack(body)

    def _auth(self) -> Auth:
        key = self.config.sign_key
        return Auth(key.key_id, crypto.sign(key, self.transcript_digest()))

    def _seal(self, tag: int, plaintext: bytes) -> bytes:
        """Seal my next channel record: the tag byte, then the ciphertext, bound
        to the tag, as one byte string. The reader counts my records, so no
        counter travels."""
        self._sealed += 1
        nonce = crypto.channel_nonce(self._role_byte, self._sealed)
        return bytes([tag]) + cbor_bytes(
            crypto.seal(self.session_keys.send_key, nonce, plaintext, aad=bytes([tag]))
        )

    def _open(self, record: bytes) -> bytes:
        """Open the peer's next channel record under the nonce of the next count,
        and only then take that count as opened, so a forged record cannot
        advance it. A replayed, reordered, reflected or forged record, or any
        after a record that never opened, fails the AEAD."""
        try:
            plain = crypto.unseal(
                self.session_keys.recv_key,
                crypto.channel_nonce(self._peer_role_byte, self._opened + 1),
                unpack(bytes, record[1:]), aad=record[:1],
            )
        except (EncodingError, crypto.CryptoError) as exc:
            # Not one byte string, or a short or forged ciphertext.
            raise ChannelError(f"channel record refused: {exc}") from exc
        self._opened += 1
        return plain

    def _presentations(self, want: Sequence[str], issuer: Did | None) -> list[Presentation]:
        """The claims wanted, from each of my credentials that holds them and
        that `issuer` issued (any issuer if None)."""
        presentations = []
        for stored in self.config.credentials:
            vc = stored.credential
            if issuer is not None and vc.issuer != issuer:
                continue
            subset = [n for n in vc.claim_names() if n in want and stored.opening_for(n) is not None]
            if subset:
                presentations.append(present(vc, stored.openings, subset))
        return presentations

    def _present(self, presentations: Sequence[Presentation]) -> list[bytes]:
        """My CRED_PRESENT. The responder's goes first, so no context issuer
        shortens it.

        A credential with no wire form (its issuer's DID method has none) never
        leaves: the session fails `credentials` instead.
        """
        context = self._context_issuer if self.role == crypto.ROLE_INITIATOR else None
        wires = tuple(PresentationWire.of(p, context) for p in presentations)
        try:
            return [self._send(MSG_CRED_PRESENT, CredPresent(wires))]
        except EncodingError:
            return self._fail(FAIL_CREDENTIALS)

    # -- protocol steps -----------------------------------------------------

    def step(self, incoming: bytes, now: int) -> list[bytes]:
        """Feed one incoming message; returns messages to send in order."""
        if self.complete:  # it ignores what arrives
            return []
        tag, body = (incoming[0] if incoming else None), incoming[1:]
        bodies = _ACCEPTS.get(self.state, {})
        if tag != MSG_ERROR and tag not in bodies:
            return self._fail(FAIL_PROTOCOL)
        if self.session_keys is not None:
            try:
                body = self._open(incoming)
            except ChannelError:  # a plaintext or forged ERROR is dropped
                return [] if tag == MSG_ERROR else self._fail(FAIL_CHANNEL)
        if tag == MSG_ERROR:
            error = _read(Error, body)
            self.state = State.FAILED
            self.failure_reason = f"{FAIL_PEER}: {error.reason if error else 'unspecified'}"
            return []
        message = _read(bodies[tag], body)
        match message:
            case Hello():
                return self._on_hello(message, incoming, now)
            case Auth():
                return self._on_auth(message, incoming, now)
            case CredRequest() | tuple():
                self._peer_request = message
                return []
            case CredPresent():
                return self._on_present(message, now)
            case Verdict():
                self.peer_verdict = message
                return []
        return self._fail(FAIL_PROTOCOL)

    def _on_hello(self, hello: Hello, raw: bytes, now: int) -> list[bytes]:
        """Accept HELLO (responder) or HELLO_ACK (initiator): fix the peer, then answer.

        A document off the wire is self-certifying: its DID is derived from its
        body, so a substituted key names another DID.
        """
        did, doc = hello.did, None
        if hello.document is not None:
            doc = DidDocument.from_body(hello.document, METHOD_PEER)
            did = doc.id
        if self._expected_peer_did is not None and did != self._expected_peer_did:
            return self._fail(FAIL_AUTH)
        if doc is None:
            # A reg DID, or a peer DID whose document was exchanged earlier.
            try:
                doc = self.config.resolver.resolve(did, now)
            except ResolutionError:
                return self._fail(FAIL_RESOLVE)
        self.peer_did, self.peer_document, self.peer_ephemeral = did, doc, hello.ephemeral
        self._transcript.update(raw)
        if self.role == crypto.ROLE_RESPONDER:
            reply = self._hello
            self.state = State.HELLO_RECEIVED
        else:
            reply = self._send(MSG_AUTH, self._auth())
            self.state = State.AUTH_PENDING
        self._transcript.update(reply)
        return [reply]

    def _on_auth(self, auth: Auth, raw: bytes, now: int) -> list[bytes]:
        """Accept AUTH (responder) or AUTH_ACK (initiator) and derive the session keys."""
        # The peer signed the transcript up to the message before this one,
        # with a current signing key of its document. A reg document that does
        # not know the key may predate a rotation: the resolver re-reads it once.
        key_id = auth.verification_key_id
        key = self.peer_document.signing_key(key_id)
        if key is None and self.peer_did.method != METHOD_PEER:
            try:
                self.peer_document = self.config.resolver.resolve(self.peer_did, now, key_id)
            except ResolutionError:
                return self._fail(FAIL_RESOLVE)
            key = self.peer_document.signing_key(key_id)
        if key is None or not crypto.verify(key.public, self.transcript_digest(), auth.signature):
            return self._fail(FAIL_AUTH)
        self._transcript.update(raw)
        auth_ack = None
        if self.role == crypto.ROLE_RESPONDER:
            auth_ack = self._send(MSG_AUTH_ACK, self._auth())
            self._transcript.update(auth_ack)
        try:
            shared = crypto.agree(self.ephemeral, self.peer_ephemeral)
        except crypto.CryptoError:
            return self._fail(FAIL_AUTH)
        self.session_keys = crypto.derive_session(
            shared, self.transcript_digest(), self.role, established_at=now
        )
        self.state = State.SECURE
        if auth_ack is None:
            return []  # the initiator waits for the responder's layer 2
        # The responder opens layer 2 in the AUTH_ACK leg, sealed to the peer
        # that AUTH authenticated: its request, then a proactive presentation
        # of the claims it asks for, from any issuer. The first one's issuer is
        # the context issuer, which the request leaves out when it names it.
        request = policy_request(self.config.policy)
        mine = self._presentations(request.want, None)
        if mine:
            self._context_issuer = mine[0].credential.issuer
        return [
            auth_ack,
            self._send(MSG_CRED_REQUEST, request.wire(self._context_issuer)),
            *self._present(mine),
        ]

    def _on_present(self, message: CredPresent, now: int) -> list[bytes]:
        """Restore the peer's presentations, sort them into verified and rejected,
        answer (initiator), decide."""
        try:
            # Holder binding: a credential speaks only for its own subject, so
            # the authenticated peer is the subject of each.
            presentations = [
                p.restore(self.peer_did, self._context_issuer) for p in message.presentations
            ]
            if self.role == crypto.ROLE_INITIATOR:
                # The context issuer holds whether or not that presentation verifies.
                if presentations:
                    self._context_issuer = presentations[0].credential.issuer
                request = CredRequest.restore(self._peer_request, self._context_issuer)
        except CredentialError:
            return self._fail(FAIL_PROTOCOL)
        for p in presentations:
            verdict = verify_presentation(p, self.config.resolver, self.config.revocation, now)
            if verdict:
                self.presented.append(p)
            else:
                self.rejected.append(verdict.reason)
        replies = []
        if self.role == crypto.ROLE_INITIATOR:
            replies = self._present(self._presentations(request.want, request.issuer))
            if self.state is State.FAILED:
                return replies
        decision = decide_trust(self.config.policy, self.presented, self.rejected)
        self.my_verdict = decision
        self.state = State.TRUSTED if decision.ok else State.UNTRUSTED
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


def _read(body: Any, raw: bytes) -> Any:
    """The body record that raw wire bytes hold, or None if they hold none."""
    try:
        return unpack(body, raw)
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
    session._transcript.update(session._hello)
    session.state = State.HELLO_SENT
    return session, session._hello


def respond(config: SessionConfig, now: int = 0) -> HandshakeSession:
    """Create the responder side; it waits for a HELLO."""
    return HandshakeSession(crypto.ROLE_RESPONDER, config)
