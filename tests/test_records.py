"""The record codec: canonical bytes pinned by a golden file, round trips,
and strict decoding.

`tests/golden/records.json` holds the canonical bytes of every document,
credential, signing payload, presentation, wallet payload and registry
snapshot that the two shipped scenarios produce. A peer DID and every
signature certify exactly these bytes, so they must not drift. Regenerate
only on purpose, from the repository root:

    PYTHONPATH=src python tests/test_records.py > tests/golden/records.json
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinyssi import crypto
from tinyssi.cli import RevocationList
from tinyssi.credentials import (
    ClaimOpening,
    Commitment,
    CredentialError,
    Presentation,
    Proof,
    StoredCredential,
    VerifiableCredential,
    present,
)
from tinyssi.encoding import EncodingError, canonical_bytes, decode, encode, from_canonical
from tinyssi.handshake import Auth, CredPresent, CredRequest, Error, Hello, TrustDecision
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
    Did,
    DidDocument,
    DidError,
    PublicKeyEntry,
    RetiredKey,
    ServiceEndpoint,
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
def documents(draw):
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
def credentials(draw):
    issued_at = draw(ints)
    return VerifiableCredential(
        vc_id=draw(texts), issuer=draw(dids), subject=draw(dids),
        commitments=tuple(draw(st.lists(commitments, min_size=1, max_size=3))),
        issued_at=issued_at, expires_at=issued_at + draw(st.integers(1, 2**40)),
        proof=draw(proofs),
    )


tuples = lambda strategy: st.lists(strategy, max_size=3).map(tuple)  # noqa: E731
RECORDS = {
    "PublicKeyEntry": keys,
    "ServiceEndpoint": endpoints,
    "RetiredKey": retired,
    "DidDocument": documents(),
    "ClaimOpening": openings,
    "Commitment": commitments,
    "Proof": proofs,
    "VerifiableCredential": credentials(),
    "Presentation": st.builds(Presentation, credential=credentials(), disclosed=tuples(openings)),
    "StoredCredential": st.builds(
        StoredCredential, credential=credentials(), openings=tuples(openings)
    ),
    "KeyPair": st.builds(
        crypto.KeyPair, key_id=texts, purpose=purposes,
        public=st.binary(min_size=32, max_size=32), secret=st.binary(min_size=32, max_size=32),
    ),
    "RegistryRecord": st.builds(
        RegistryRecord, document=st.binary(max_size=40), version=ints,
        signature=st.binary(min_size=64, max_size=64), signed_by=texts,
    ),
    "RevocationList": st.builds(RevocationList, owner=dids, revoked=tuples(texts)),
    "Hello": st.builds(
        Hello, did=dids, document=st.none() | documents(),
        ephemeral=st.binary(min_size=32, max_size=32), nonce=st.binary(min_size=16, max_size=16),
    ),
    "Auth": st.builds(Auth, key_id=texts, signature=st.binary(min_size=64, max_size=64)),
    "CredRequest": st.builds(CredRequest, want=tuples(texts)),
    "CredPresent": st.builds(CredPresent, presentations=tuples(
        st.builds(Presentation, credential=credentials(), disclosed=tuples(openings))
    )),
    "TrustDecision": st.builds(TrustDecision, trusted=st.booleans(), reason=st.none() | texts),
    "Error": st.builds(Error, reason=texts),
    "ScenarioActor": st.builds(ScenarioActor, name=texts, role=texts, did_method=texts,
                               owner=st.none() | texts),
    "ScenarioCredential": st.builds(ScenarioCredential, issuer=texts, subject=texts,
                                    claims=st.dictionaries(texts, texts), validity=ints),
    "ScenarioLink": st.builds(ScenarioLink, a=texts, b=texts, profile=texts,
                              loss=st.none() | st.floats(0, 1), reorder=st.none() | st.floats(0, 1)),
}


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


@settings(max_examples=40, deadline=None)
@given(doc=documents(), vc=credentials(), key_pairs=st.lists(RECORDS["KeyPair"], max_size=3))
def test_wallet_payload_and_registry_snapshot_round_trip(doc, vc, key_pairs):
    wallet = Wallet(
        keys={k.key_id: k for k in key_pairs}, documents=[doc],
        credentials={vc.vc_id: StoredCredential(vc, ())},
    )
    payload = wallet._payload()
    assert Wallet._from_payload(from_canonical(canonical_bytes(payload)))._payload() == payload
    registry = Registry()
    record = RegistryRecord(doc.to_bytes(), doc.version, bytes(64), "k")
    registry._entries = {str(doc.id): [record]}
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


if __name__ == "__main__":
    print(json.dumps(scenario_records(), indent=1, sort_keys=True, ensure_ascii=False))
