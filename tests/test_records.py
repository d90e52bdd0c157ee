"""The record codec: canonical bytes pinned by a golden file, round trips
through canonical JSON and through the CBOR wire form, and strict decoding.

`tests/golden/records.json` holds the canonical bytes of every document,
credential, signing payload, presentation, wallet payload and registry
snapshot that the two shipped scenarios produce. A peer DID and every
signature certify exactly these bytes, so they must not drift. Regenerate
only on purpose, from the repository root:

    PYTHONPATH=src python tests/test_records.py > tests/golden/records.json
"""

import dataclasses
import json
import struct
import typing
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinyssi import crypto
from tinyssi.credentials import (
    ClaimOpening,
    Commitment,
    CredentialError,
    Presentation,
    Proof,
    RevocationRegistry,
    StoredCredential,
    Verdict,
    VerifiableCredential,
    present,
)
from tinyssi.encoding import (
    EncodingError,
    canonical_bytes,
    cbor_bytes,
    decode,
    encode,
    from_canonical,
    from_cbor,
    pack,
    unpack,
)
from tinyssi.handshake import (
    _ACCEPTS,
    Auth,
    CredPresent,
    CredRequest,
    Error,
    Hello,
    PresentationWire,
)
from tinyssi.harness import (
    HandshakeStep,
    Scenario,
    ScenarioActor,
    ScenarioCredential,
    ScenarioError,
    ScenarioLink,
    ScenarioRunner,
)
from tinyssi.identity import (
    METHOD_PEER,
    METHOD_REG,
    Did,
    DidDocument,
    DidError,
    DocumentBody,
    PublicKeyEntry,
    RetiredKey,
    ServiceEndpoint,
    generate_peer_did,
)
from tinyssi.resolver import Registry, RegistryError, RegistryRecord
from tinyssi.wallet import Wallet, WalletIntegrityError

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ("owner-two-devices", "household-lifecycle")
GOLDEN_RECORDS = ROOT / "tests" / "golden" / "records.json"


def scenario_records() -> dict[str, str]:
    """Canonical text of every record both shipped scenarios leave behind."""
    records: dict[str, str] = {}

    def put(key: str, raw: bytes) -> None:
        records[key] = raw.decode("utf-8")

    for name in SCENARIOS:
        runner = ScenarioRunner(Scenario.load(str(ROOT / "scenarios" / f"{name}.scn")))
        runner.run()
        deployment = runner.deployment
        for actor_name, actor in sorted(deployment.actors.items()):
            wallet = actor.wallet
            for doc in wallet.documents:
                put(f"{name}/document/{actor_name}/v{doc.version}", doc.to_bytes())
            for vc_id, stored in sorted(wallet.credentials.items()):
                vc = stored.credential
                put(f"{name}/credential/{vc_id}", vc.to_bytes())
                put(f"{name}/signing-payload/{vc_id}", vc.signing_payload())
                for subset in (vc.claim_names(), ("owner",)):
                    put(
                        f"{name}/presentation/{vc_id}/{'+'.join(subset)}",
                        present(vc, stored.openings, subset).to_bytes(),
                    )
            put(f"{name}/wallet/{actor_name}", canonical_bytes(wallet._payload()))
        put(f"{name}/registry", deployment.registry.snapshot())
    return records


def test_records_match_golden():
    golden = json.loads(GOLDEN_RECORDS.read_text(encoding="utf-8"))
    fresh = scenario_records()
    assert sorted(fresh) == sorted(golden)
    for key, text in golden.items():
        assert fresh[key] == text, key


# ---------------------------------------------------------------------------
# Round trips: decode(encode(record)) is the record, for every record type
# ---------------------------------------------------------------------------

B58 = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
texts = st.text(max_size=12)
ints = st.integers(min_value=-(2**62), max_value=2**62)
dids = st.builds(
    Did,
    method=st.from_regex(r"[a-z0-9]{1,6}", fullmatch=True),
    id=st.text(alphabet=B58, min_size=1, max_size=44),
)
# The wire form has a method byte for the peer and reg methods only.
wire_dids = st.builds(
    Did,
    method=st.sampled_from([METHOD_PEER, METHOD_REG]),
    id=st.text(alphabet=B58, min_size=1, max_size=44),
)
purposes = st.sampled_from([crypto.PURPOSE_SIGN, crypto.PURPOSE_AGREE])
keys = st.builds(
    PublicKeyEntry, key_id=texts, purpose=purposes, public=st.binary(min_size=32, max_size=32),
)
endpoints = st.builds(ServiceEndpoint, endpoint_id=texts, type=texts, address=texts)
retired = st.builds(RetiredKey, key_id=texts, public=st.binary(min_size=32, max_size=32),
                    retired_at=ints)
openings = st.builds(
    ClaimOpening, name=texts, value=texts, salt=st.binary(min_size=16, max_size=16)
)
commitments = st.builds(
    Commitment, claim_name=texts, value_hash=st.binary(min_size=32, max_size=32)
)
proofs = st.builds(
    Proof, verification_key_id=texts, signature=st.binary(min_size=64, max_size=64)
)


@st.composite
def documents(draw, dids=dids):
    # Key ids are unique across current and retired keys.
    current = draw(st.lists(keys, min_size=1, max_size=3))
    old = draw(st.lists(retired, max_size=2))
    return DidDocument(
        id=draw(dids),
        public_keys=tuple(replace(k, key_id=f"k{i}{k.key_id}") for i, k in enumerate(current)),
        service_endpoints=tuple(draw(st.lists(endpoints, max_size=2))),
        version=draw(st.integers(min_value=1, max_value=2**40)),
        previous_keys=tuple(replace(k, key_id=f"r{i}{k.key_id}") for i, k in enumerate(old)),
    )


@st.composite
def credentials(draw, dids=dids):
    issued_at = draw(ints)
    return VerifiableCredential(
        vc_id=draw(texts), issuer=draw(dids), subject=draw(dids),
        commitments=tuple(draw(st.lists(commitments, min_size=1, max_size=3))),
        issued_at=issued_at, expires_at=issued_at + draw(st.integers(1, 2**40)),
        proof=draw(proofs),
    )


tuples = lambda strategy: st.lists(strategy, max_size=3).map(tuple)  # noqa: E731


def hellos(dids, bodies):
    """Hellos with a DID and no document, or with a document body and no DID."""
    key_share = {
        "ephemeral": st.binary(min_size=32, max_size=32),
        "nonce": st.binary(min_size=16, max_size=16),
    }
    return (
        st.builds(Hello, did=dids, document=st.none(), **key_share)
        | st.builds(Hello, did=st.none(), document=bodies, **key_share)
    )


def record_strategies(dids, documents):
    """A strategy for every record type, its DIDs drawn from `dids` and its
    documents from `documents`."""
    presentations = st.builds(
        Presentation, credential=credentials(dids), disclosed=tuples(openings)
    )
    # Any mix of whole and derived (null) commitments: the wire record pairs
    # them with the openings only when it is restored.
    presentation_wires = st.builds(
        PresentationWire, vc_id=texts, issuer=dids,
        commitments=tuples(st.none() | commitments), issued_at=ints, expires_at=ints,
        proof=proofs, disclosed=tuples(openings),
    )
    bodies = documents.map(DidDocument.body)
    return {
        "PublicKeyEntry": keys,
        "ServiceEndpoint": endpoints,
        "RetiredKey": retired,
        "DidDocument": documents,
        "DocumentBody": bodies,
        "ClaimOpening": openings,
        "Commitment": commitments,
        "Proof": proofs,
        "VerifiableCredential": credentials(dids),
        "Presentation": presentations,
        "PresentationWire": presentation_wires,
        "StoredCredential": st.builds(
            StoredCredential, credential=credentials(dids), openings=tuples(openings)
        ),
        "KeyPair": st.builds(
            crypto.KeyPair, key_id=texts, purpose=purposes,
            public=st.binary(min_size=32, max_size=32), secret=st.binary(min_size=32, max_size=32),
        ),
        "RegistryRecord": st.builds(
            RegistryRecord, document=st.binary(max_size=40), version=ints,
            signature=st.binary(min_size=64, max_size=64), signed_by=texts,
        ),
        "RevocationRegistry": st.builds(RevocationRegistry, owner=dids, revoked=tuples(texts)),
        "Hello": hellos(dids, bodies),
        "Auth": st.builds(Auth, key_id=texts, signature=st.binary(min_size=64, max_size=64)),
        "CredRequest": st.builds(CredRequest, want=tuples(texts)),
        "CredPresent": st.builds(CredPresent, presentations=tuples(presentation_wires)),
        "Verdict": st.builds(Verdict, ok=st.booleans(), reason=st.none() | texts),
        "Error": st.builds(Error, reason=texts),
        "ScenarioActor": st.builds(ScenarioActor, name=texts, role=texts, did_method=texts,
                                   owner=st.none() | texts),
        "ScenarioCredential": st.builds(ScenarioCredential, issuer=texts, subject=texts,
                                        claims=st.dictionaries(texts, texts), validity=ints),
        "ScenarioLink": st.builds(ScenarioLink, a=texts, b=texts, profile=texts,
                                  loss=st.none() | st.floats(0, 1),
                                  reorder=st.none() | st.floats(0, 1)),
    }


def travelling_records() -> list[str]:
    """The names of every record a handshake message carries: each body record
    and, field by field, every record nested in it. A type whose wire form is
    no record (a DID) is a leaf."""
    seen, todo = set(), [*(tp for bodies in _ACCEPTS.values() for tp in bodies.values()), Error]
    while todo:
        tp = todo.pop()
        form = getattr(tp, "wire_form", tp)
        if dataclasses.is_dataclass(form) and tp not in seen:
            seen.add(tp)
            todo += [t for hint in typing.get_type_hints(form).values() for t in _types_in(hint)]
    return sorted(tp.__name__ for tp in seen)


def _types_in(hint):
    return [hint, *(t for arg in typing.get_args(hint) for t in _types_in(arg))]


RECORDS = record_strategies(dids, documents(dids))
WIRE_RECORDS = record_strategies(wire_dids, documents(wire_dids))
TRAVELLING = travelling_records()


@pytest.mark.parametrize("name", sorted(RECORDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_round_trip(name, data):
    record = data.draw(RECORDS[name])
    raw = canonical_bytes(encode(record))
    restored = decode(type(record), from_canonical(raw))
    assert restored == record
    assert canonical_bytes(encode(restored)) == raw
    if hasattr(record, "from_bytes"):
        assert type(record).from_bytes(record.to_bytes()) == record


@pytest.mark.parametrize("name", TRAVELLING)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_wire_round_trip(name, data):
    record = data.draw(WIRE_RECORDS[name])
    raw = pack(record)
    restored = unpack(type(record), raw)
    assert restored == record
    assert pack(restored) == raw
    # The wire carries the very record whose canonical bytes are signed and stored.
    assert canonical_bytes(encode(restored)) == canonical_bytes(encode(record))


def test_every_message_record_is_walked():
    assert {"Hello", "RetiredKey", "PresentationWire", "Proof", "Error"} <= set(TRAVELLING)
    # A presentation travels as its wire record, its credential never whole.
    assert {"Presentation", "VerifiableCredential"}.isdisjoint(TRAVELLING)
    assert "ScenarioLink" not in TRAVELLING


def test_no_message_carries_a_document_with_its_did():
    # A document travels only as its body, so no DID travels next to the body
    # it derives from: no record a message carries, at any depth, is a DidDocument.
    assert "DocumentBody" in TRAVELLING
    assert "DidDocument" not in TRAVELLING


def test_scenario_records_have_no_wire_form():
    # A scenario file's links and credentials hold floats and maps; neither travels.
    with pytest.raises(EncodingError):
        pack(ScenarioLink("a", "b", "lora", loss=0.5))
    with pytest.raises(EncodingError):
        pack(ScenarioCredential("alice", "camera", {"owner": "alice"}))


@settings(max_examples=40, deadline=None)
@given(doc=documents(), vc=credentials(), key_pairs=st.lists(RECORDS["KeyPair"], max_size=3))
def test_wallet_payload_and_registry_snapshot_round_trip(doc, vc, key_pairs):
    wallet = Wallet(
        keys={k.key_id: k for k in key_pairs}, documents=[doc],
        credentials={vc.vc_id: StoredCredential(vc, ())},
    )
    payload = wallet._payload()
    assert Wallet._from_payload(from_canonical(canonical_bytes(payload)))._payload() == payload
    # A genesis the registry accepts: the drawn document's body plus a key that
    # signs it, under the reg DID that body derives.
    controller = crypto.keygen(crypto.PURPOSE_SIGN, seed=bytes(32), key_id="controller")
    entry = PublicKeyEntry(controller.key_id, crypto.PURPOSE_SIGN, controller.public)
    body = replace(doc.body(), public_keys=doc.public_keys + (entry,))
    registry = Registry()
    registry.register(DidDocument.from_body(body, METHOD_REG), controller)
    assert Registry.from_snapshot(registry.snapshot()).snapshot() == registry.snapshot()


# ---------------------------------------------------------------------------
# Strict decoding: each wrong shape fails with the module's own error type
# ---------------------------------------------------------------------------

def _document_mapping():
    return DidDocument(
        Did("peer", "abc"), (PublicKeyEntry("k1", crypto.PURPOSE_SIGN, bytes(32)),),
    ).to_mapping()


def _credential_mapping():
    return VerifiableCredential(
        "vc:1", Did("peer", "abc"), Did("peer", "def"), (Commitment("owner", bytes(32)),),
        1, 2, Proof("k1", bytes(64)),
    ).to_mapping()


def _set(mapping, path, value):
    *parents, leaf = path
    target = mapping
    for part in parents:
        target = target[part]
    target[leaf] = value
    return mapping


@pytest.mark.parametrize("path, value", [
    (("version",), "1"),
    (("version",), True),           # bool is not int
    (("version",), 0),              # the constructor's invariant
    (("id",), "did:peer"),
    (("public_keys",), {}),
    (("public_keys", 0, "key_id"), ["k1"]),
    (("public_keys", 0, "public"), "00" * 31),
    (("public_keys", 0, "public"), "AA" * 32),
    (("service_endpoints",), None),
])
def test_document_rejects_wrong_field(path, value):
    with pytest.raises(DidError):
        DidDocument.from_mapping(_set(_document_mapping(), path, value))


@pytest.mark.parametrize("path, value", [
    (("issued_at",), 1.0),
    (("expires_at",), False),
    (("expires_at",), 1),           # expiry must come after issuance
    (("issuer",), 7),
    (("commitments",), []),
    (("commitments", 0, "value_hash"), "00" * 31),
    (("proof", "signature"), "00" * 63),
    (("proof",), None),
])
def test_credential_rejects_wrong_field(path, value):
    with pytest.raises(CredentialError):
        VerifiableCredential.from_mapping(_set(_credential_mapping(), path, value))


def test_presentation_rejects_wrong_field():
    mapping = {"credential": _credential_mapping(), "disclosed": [
        {"name": "owner", "value": 3, "salt": "00" * 16},
    ]}
    with pytest.raises(CredentialError, match="value"):
        Presentation.from_mapping(mapping)


@pytest.mark.parametrize("mapping", [
    dict(_document_mapping(), extra=1),
    {k: v for k, v in _document_mapping().items() if k != "version"},  # no default filled
    [],
])
def test_document_wants_exactly_its_fields(mapping):
    with pytest.raises(DidError):
        DidDocument.from_mapping(mapping)


def test_wallet_registry_and_scenario_errors():
    payload = Wallet()._payload()
    with pytest.raises(WalletIntegrityError):
        Wallet._from_payload(dict(payload, version="1"))
    snapshot = from_canonical(Registry().snapshot())
    with pytest.raises(RegistryError):
        Registry.from_snapshot(canonical_bytes(dict(snapshot, entries={"did:reg:x": [{}]})))
    with pytest.raises(ScenarioError):
        Scenario.from_mapping({"actors": [{"name": "a", "role": 1}]})
    with pytest.raises(EncodingError):
        decode(crypto.KeyPair, dict(encode(crypto.keygen(crypto.PURPOSE_SIGN)), purpose="x"))


def test_record_wants_every_field():
    with pytest.raises(EncodingError, match="missing field 'link'"):
        decode(HandshakeStep, {"initiator": "a", "responder": "b", "policy": "always-trust"})


@pytest.mark.parametrize("raw", [b"1" * 5000, b"[" * 100_000, b"\xff", b"{"],
                         ids=["long-integer", "deep-nesting", "not-utf8", "truncated"])
def test_from_canonical_raises_only_encoding_error(raw):
    with pytest.raises(EncodingError):
        from_canonical(raw)


# ---------------------------------------------------------------------------
# The wire form: deterministic CBOR, read strictly
# ---------------------------------------------------------------------------

# RFC 8949 Appendix A, the examples of the items the wire form holds.
@pytest.mark.parametrize("value, hex_form", [
    (0, "00"), (23, "17"), (24, "1818"), (100, "1864"), (1000, "1903e8"),
    (1000000, "1a000f4240"), (1000000000000, "1b000000e8d4a51000"),
    (18446744073709551615, "1bffffffffffffffff"), (-1, "20"), (-100, "3863"),
    (-1000, "3903e7"), (-18446744073709551616, "3bffffffffffffffff"),
    (False, "f4"), (True, "f5"), (None, "f6"),
    (b"", "40"), (b"\x01\x02\x03\x04", "4401020304"),
    ("", "60"), ("IETF", "6449455446"), ("\u00fc", "62c3bc"), ("\u6c34", "63e6b0b4"),
    ([], "80"), ([1, [2, 3], [4, 5]], "8301820203820405"),
    (list(range(1, 26)), "98190102030405060708090a0b0c0d0e0f101112131415161718181819"),
])
def test_cbor_matches_rfc_8949_examples(value, hex_form):
    assert cbor_bytes(value).hex() == hex_form
    parsed = from_cbor(bytes.fromhex(hex_form))
    assert parsed == value
    assert type(parsed) is type(value)


@pytest.mark.parametrize("value", [{1: 2}, 2**64, -(2**64) - 1, {"a"}, 1.5, {"a": 1}],
                         ids=["int-map-key", "int-too-large", "int-too-small", "set",
                              "float", "map"])
def test_cbor_writes_only_wire_values(value):
    with pytest.raises(EncodingError):
        cbor_bytes(value)


@pytest.mark.parametrize("hex_form", [
    "a26161016162820203", "f93e00", "fa47c35000", "fb3ff199999999999a", "f7",
], ids=["map", "half-float", "single-float", "double-float", "simple-23"])
def test_cbor_reads_no_item_outside_the_wire_form(hex_form):
    with pytest.raises(EncodingError, match="not part of the wire form"):
        from_cbor(bytes.fromhex(hex_form))


# Wire values: a drawn item, or a drawn record packed, then maybe damaged.
# Random bytes alone decode about 1% of the time.
_wire_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**64), 2**64 - 1) | st.text(max_size=8)
    | st.binary(max_size=8),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=12,
)


@st.composite
def _cbor_inputs(draw):
    if draw(st.booleans()):
        raw = cbor_bytes(draw(_wire_values))
    else:
        raw = pack(draw(WIRE_RECORDS[draw(st.sampled_from(TRAVELLING))]))
    damage = draw(st.sampled_from(["none", "truncate", "flip", "widen", "random"]))
    at = draw(st.integers(0, len(raw) - 1))
    if damage == "truncate":
        return raw[:at]
    if damage == "widen" and raw[at] & 0x1F < 24:
        # If the byte at `at` is a head, the same item with a head one byte too long.
        return raw[:at] + bytes([raw[at] & 0xE0 | 24, raw[at] & 0x1F]) + raw[at + 1 :]
    if damage == "flip":
        flipped = bytearray(raw)
        flipped[at] ^= 1 << draw(st.integers(0, 7))
        return bytes(flipped)
    if damage == "random":
        return draw(st.binary(max_size=24))
    return raw


@settings(max_examples=400, deadline=None)
@given(raw=_cbor_inputs())
def test_from_cbor_reads_exactly_what_cbor_bytes_writes(raw):
    try:
        value = from_cbor(raw)
    except EncodingError:
        return
    assert cbor_bytes(value) == raw


AUTH = Auth("k", bytes(64))
SIGNATURE = b"\x58\x40" + bytes(64)   # a 64-byte byte string
PEER_DID, PEER_DOCUMENT = generate_peer_did(
    [PublicKeyEntry("k1", crypto.PURPOSE_SIGN, bytes(32))]
)
HELLO = Hello(None, PEER_DOCUMENT.body(), bytes(32), bytes(16))
# The same 32-byte id under the reg method: a HELLO that carries its DID and no document.
REG_HELLO = Hello(Did(METHOD_REG, PEER_DID.id), None, bytes(32), bytes(16))
KEY_SHARE = b"\x58\x20" + bytes(32) + b"\x50" + bytes(16)   # ephemeral, nonce


def test_wire_form_of_a_record_is_an_array_of_its_fields():
    assert pack(AUTH) == b"\x82" + b"\x61k" + SIGNATURE
    assert unpack(Auth, b"\x82" + b"\x61k" + SIGNATURE) == AUTH
    assert pack(Verdict(False)) == b"\x82\xf4\xf6"


def test_a_did_travels_as_its_method_byte_and_raw_id():
    assert PEER_DID.to_wire() == b"\x01" + crypto.digest(canonical_bytes(encode(HELLO.document)))
    assert pack(REG_HELLO) == b"\x84\x58\x21" + REG_HELLO.did.to_wire() + b"\xf6" + KEY_SHARE
    assert Did.from_wire(Did(METHOD_REG, "11z").to_wire()) == Did(METHOD_REG, "11z")
    with pytest.raises(EncodingError, match="no wire form"):
        pack(Did("web", "abc"))


def test_a_peer_hello_travels_without_either_did():
    body = pack(HELLO.document)
    # The document's body alone: [public_keys, service_endpoints, version, previous_keys].
    assert from_cbor(body) == [[["k1", crypto.PURPOSE_SIGN, bytes(32)]], [], 1, []]
    assert pack(HELLO) == b"\x84\xf6" + body + KEY_SHARE
    assert unpack(Hello, pack(HELLO)) == HELLO
    # The reader derives the document, and with it the DID, from the body.
    assert DidDocument.from_body(unpack(DocumentBody, body), METHOD_PEER) == PEER_DOCUMENT


def test_a_substituted_key_derives_another_did():
    key = PublicKeyEntry("k1", crypto.PURPOSE_SIGN, b"\x01" * 32)
    forged = replace(HELLO, document=replace(HELLO.document, public_keys=(key,)))
    read = unpack(Hello, pack(forged))
    did = DidDocument.from_body(read.document, METHOD_PEER).id
    assert did == generate_peer_did([key])[0] != PEER_DID


def test_only_a_peer_document_travels():
    # A HELLO carries a reg DID or a peer document's body: never both, never neither.
    for did, document in ((REG_HELLO.did, HELLO.document), (None, None)):
        with pytest.raises(ValueError, match="exactly one"):
            Hello(did, document, bytes(32), bytes(16))


def _with_did_byte(raw: bytes, method_byte: int) -> bytes:
    """A reg HELLO's wire bytes with the DID's method byte replaced."""
    return raw[:3] + bytes([method_byte]) + raw[4:]


@pytest.mark.parametrize("tp, raw", [
    (Auth, b"\x82" + b"\x41k" + SIGNATURE),
    (Auth, b"\x82" + b"\x61k" + b"\x78\x40" + b"0" * 64),
    (Verdict, b"\x82\x01\xf6"),
    (Auth, b"\x81\x61k"),
    (Auth, b"\x83\x61k" + SIGNATURE + b"\x00"),
    (Auth, b"\x82" + b"\x78\x01k" + SIGNATURE),
    (Auth, b"\x98\x02" + b"\x61k" + SIGNATURE),
    (RetiredKey, b"\x83\x61k\x58\x20" + bytes(32) + b"\x19\x00\x01"),
    (Auth, pack(AUTH)[:-1]),
    (Auth, b""),
    (Auth, pack(AUTH) + b"\x00"),
    (Auth, b"\x82" + b"\x61\xff" + SIGNATURE),
    (Auth, b"\x82" + b"\x63\xed\xa0\x80" + SIGNATURE),
    (Hello, _with_did_byte(pack(REG_HELLO), 0x07)),
    (Hello, _with_did_byte(pack(REG_HELLO), 0x00)),
    (Hello, b"\x84\x58\x21" + PEER_DID.to_wire() + pack(HELLO)[2:]),
    (Hello, b"\x84\xf6\xf6" + KEY_SHARE),
    (Hello, b"\x84\xf6\x85\x58\x21" + PEER_DID.to_wire() + pack(HELLO.document)[1:] + KEY_SHARE),
    (Auth, b"\x82" + b"\x61k" + b"\x58\x3f" + bytes(63)),
    (Auth, b"\x9f" + b"\x61k" + SIGNATURE + b"\xff"),
    (Auth, b"\xd8\x18" + pack(AUTH)),
    (Verdict, b"\x82\xf5\xa1\x61a\x61b"),
    (Verdict, b"\x82\xf5\xf9\x3e\x00"),
    (Verdict, b"\x82\xf5\xfa" + struct.pack(">f", 1.5)),
    (Verdict, b"\x82\xf5\xfb" + struct.pack(">d", 1.5)),
    (Verdict, b"\x82\xf5\xf7"),
], ids=[
    "major-type-bytes-for-text", "major-type-text-for-bytes", "major-type-int-for-bool",
    "field-count-short", "field-count-long",
    "non-shortest-text-length", "non-shortest-array-length", "non-shortest-integer",
    "truncated", "empty", "trailing-byte",
    "invalid-utf8", "utf8-surrogate",
    "unknown-method-byte", "method-byte-zero",
    "hello-did-and-document", "hello-neither-did-nor-document", "document-id-slot",
    "constructor-invariant",
    "indefinite-length", "tag",
    "map", "half-float", "single-float", "double-float",
    "undefined-simple-value",
])
def test_unpack_rejects(tp, raw):
    with pytest.raises(EncodingError):
        unpack(tp, raw)


if __name__ == "__main__":
    print(json.dumps(scenario_records(), indent=1, sort_keys=True, ensure_ascii=False))
