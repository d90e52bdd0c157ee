"""Self-sovereign identity for machine-to-machine IoT.

Decentralized identifiers and documents, verifiable credentials with
selective disclosure, a layered mutual-authentication handshake, a
constrained-network transport with fragmentation, encrypted wallets, and a
scenario harness that drives it all over simulated links.
"""

from .credentials import (
    Claim,
    ClaimOpening,
    Presentation,
    RevocationRegistry,
    StoredCredential,
    VerifiableCredential,
    Verdict,
    issue,
    present,
    revoke,
    verify_credential,
    verify_presentation,
)
from .crypto import KeyPair, SessionKeys, agree, derive_session, digest, keygen, seal, sign, unseal, verify
from .handshake import (
    AlwaysTrust,
    HandshakeSession,
    OwnerMatch,
    RequireClaim,
    SessionConfig,
    State,
    decide_trust,
    initiate,
    respond,
)
from .identity import (
    Did,
    DidDocument,
    PublicKeyEntry,
    ServiceEndpoint,
    format_did,
    generate_peer_did,
    parse_did,
    rotate_key,
)
from .resolver import Registry, Resolver
from .transport import Frame, LinkProfile, Messenger, fragment, make_link, reassemble
from .wallet import Wallet

__version__ = "0.1.0"
