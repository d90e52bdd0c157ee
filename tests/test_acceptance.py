"""Acceptance suite: one test per criterion, one pass line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
"""

import copy
import math
import time
from dataclasses import replace
from random import Random

from conftest import (
    MONTH,
    NOW,
    build_actor,
    give_owner_credential,
    introduce,
    owner_match_config,
)
from tinyssi import crypto
from tinyssi.credentials import (
    Claim,
    CredentialError,
    VerifiableCredential,
    issue,
    present,
    verify_credential,
    verify_presentation,
)
from tinyssi.encoding import pack, unpack
from tinyssi.handshake import State, initiate, respond
from tinyssi.harness import Scenario, drive_handshake, run_scenario
from tinyssi.identity import (
    PublicKeyEntry,
    ServiceEndpoint,
    format_did,
    generate_peer_did,
    rotate_key,
)
from tinyssi.resolver import Registry, Resolver
from tinyssi.transport import fragment, make_link, reassemble

import itertools

OWNER_SCENARIO = {
    "name": "owner-two-devices",
    "seed": 7,
    "actors": [
        {"name": "alice", "role": "owner", "did_method": "peer"},
        {"name": "camera", "role": "device", "did_method": "peer", "owner": "alice"},
        {"name": "lock", "role": "device", "did_method": "peer", "owner": "alice"},
    ],
    "credentials": [
        {"issuer": "alice", "subject": "camera",
         "claims": {"owner": "@alice", "type": "Camera"}, "validity": 2592000},
        {"issuer": "alice", "subject": "lock",
         "claims": {"owner": "@alice", "type": "Lock"}, "validity": 2592000},
    ],
    "links": [{"a": "camera", "b": "lock", "profile": "lora"}],
    "steps": [
        {"action": "handshake", "initiator": "camera", "responder": "lock",
         "link": 0, "policy": "owner-match", "expect": "trusted"},
    ],
}


def passed(number: int, description: str) -> None:
    print(f"ACCEPTANCE {number:2d} PASS  {description}")


def run_pair(seed: int, method: str = "peer", profile: str = "lossless",
             loss: float | None = None, link_seed: int = 0, intercept=None):
    """Provision an owner and two devices, then drive one handshake."""
    registry = Registry()
    rng = Random(seed)
    alice = build_actor("alice", rng.randrange(2**31), registry, method=method)
    cam = build_actor("cam", rng.randrange(2**31), registry, method=method)
    lock = build_actor("lock", rng.randrange(2**31), registry, method=method)
    introduce(alice, cam, lock)
    give_owner_credential(alice, cam, rng.randrange(2**31),
                          {"type": f"Camera-{rng.randrange(1000)}"})
    give_owner_credential(alice, lock, rng.randrange(2**31),
                          {"type": f"Lock-{rng.randrange(1000)}"})
    cfg_i = owner_match_config(cam, alice, rng.randrange(2**31))
    cfg_r = owner_match_config(lock, alice, rng.randrange(2**31))
    link = make_link(profile, a="cam", b="lock", loss=loss, seed=link_seed)
    session_i, hello = initiate(cfg_i, peer_hint=lock.did, now=NOW)
    session_r = respond(cfg_r, now=NOW)
    run = drive_handshake(link, session_i, hello, session_r, NOW, intercept=intercept)
    return run, link


def test_criterion_01_document_sizes():
    started = time.monotonic()
    kp_sign = crypto.keygen(crypto.PURPOSE_SIGN, seed=bytes(31) + b"\x01")
    kp_agree = crypto.keygen(crypto.PURPOSE_AGREE, seed=bytes(31) + b"\x02")
    keys = (
        PublicKeyEntry(kp_sign.key_id, crypto.PURPOSE_SIGN, kp_sign.public),
        PublicKeyEntry(kp_agree.key_id, crypto.PURPOSE_AGREE, kp_agree.public),
    )
    endpoints = (ServiceEndpoint("ep-1", "sim-link", "sim-link://camera-01"),)
    did, doc = generate_peer_did(keys, endpoints)
    ddo_size = len(doc.to_bytes())
    assert 400 <= ddo_size <= 2000, f"DDo size {ddo_size} outside [400, 2000]"

    vc, _ = issue(
        kp_sign, did, did,
        [Claim("owner", "did:peer:2exampleownervalue"),
         Claim("type", "Camera"), Claim("firmware", "fw-1.2.3")],
        MONTH, NOW,
    )
    vc_size = len(vc.to_bytes())
    assert 400 <= vc_size <= 2000, f"VC size {vc_size} outside [400, 2000]"

    report = run_scenario(Scenario.from_mapping(copy.deepcopy(OWNER_SCENARIO)))
    assert report.ddo_bytes and report.vc_bytes, "report must record both size kinds"
    assert all(400 <= s <= 2000 for s in report.ddo_bytes.values())
    assert all(400 <= s <= 2000 for s in report.vc_bytes)

    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    passed(1, f"DDo {ddo_size} B and VC {vc_size} B in canonical form, in [400, 2000]")


def test_criterion_02_fragmentation_arithmetic():
    started = time.monotonic()
    lora = fragment(bytes(500), mtu=222, message_id=1)
    assert len(lora) == 3, f"500 B over lora gave {len(lora)} frames, want 3"
    ble = fragment(bytes(500), mtu=244, message_id=1)
    assert len(ble) == 3, f"500 B over ble gave {len(ble)} frames, want 3"

    rng = Random(2024)
    for case in range(1000):
        size = rng.randrange(1, 8000)
        mtu = rng.choice([64, 128, 222, 244, 512, 1500])
        message = rng.randbytes(size)
        frames = fragment(message, mtu, case % 0x10000)
        assert len(frames) == math.ceil(size / (mtu - 8))
        rng.shuffle(frames)
        assert reassemble(frames) == message

    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.2f}s"
    passed(2, "lora/ble 500 B -> 3 frames; 1000 random fragment/reassemble roundtrips")


def test_criterion_03_handshake_correctness():
    started = time.monotonic()
    for i in range(100):
        method = "peer" if i % 2 == 0 else "reg"
        run, _ = run_pair(seed=37_000 + i, method=method)
        assert run.outcome() == "trusted", f"pair {i}: {run.outcome()}"
        assert run.round_trips_to_secure() == 2, f"pair {i}: secure RTs"
        assert run.round_trips_to_terminal() == 3, f"pair {i}: trusted RTs"
        keys_i = run.initiator.session_keys
        keys_r = run.responder.session_keys
        assert keys_i.send_key == keys_r.recv_key
        assert keys_i.recv_key == keys_r.send_key
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"criterion 3 took {elapsed:.2f}s"
    passed(3, "100 identity pairs: Secure in 2 RTs, Trusted in 3, keys mirror")


def test_criterion_04_mitm_resistance():
    from tinyssi.handshake import MSG_HELLO, MSG_HELLO_ACK, Hello

    rng = Random(404)
    failures = 0
    for i in range(100):
        target_tag = rng.choice([MSG_HELLO, MSG_HELLO_ACK])
        substitute_static = rng.random() < 0.5
        mitm_sign = crypto.keygen(crypto.PURPOSE_SIGN, seed=rng.randbytes(32))
        mitm_agree = crypto.keygen(crypto.PURPOSE_AGREE, seed=rng.randbytes(32))

        def intercept(role, message):
            if message[0] != target_tag:
                return message
            body = unpack(Hello, message[1:])
            if substitute_static:
                victim_keys = list(body.document.public_keys)
                sign_slot = next(i for i, k in enumerate(victim_keys) if k.purpose == "sign")
                victim_keys[sign_slot] = replace(victim_keys[sign_slot], public=mitm_sign.public)
                body = replace(body, document=replace(body.document, public_keys=tuple(victim_keys)))
            else:
                body = replace(body, ephemeral=mitm_agree.public)
            return bytes([message[0]]) + pack(body)

        registry = Registry()
        alice = build_actor("alice", rng.randrange(2**31), registry)
        cam = build_actor("cam", rng.randrange(2**31), registry)
        lock = build_actor("lock", rng.randrange(2**31), registry)
        introduce(alice, cam, lock)
        give_owner_credential(alice, cam, rng.randrange(2**31))
        give_owner_credential(alice, lock, rng.randrange(2**31))
        session_i, hello = initiate(
            owner_match_config(cam, alice, rng.randrange(2**31)),
            peer_hint=lock.did, now=NOW,
        )
        session_r = respond(
            owner_match_config(lock, alice, rng.randrange(2**31)), now=NOW
        )
        inbox, target, other = [hello], session_r, session_i
        for _ in range(16):
            outbox = []
            for message in inbox:
                outbox.extend(target.step(intercept(target.role, message), NOW))
            if not outbox:
                break
            inbox, target, other = outbox, other, target
        states = {session_i.state, session_r.state}
        reasons = {session_i.failure_reason, session_r.failure_reason}
        assert State.TRUSTED not in states, f"run {i}: MITM went unnoticed"
        assert State.FAILED in states and "auth" in reasons, f"run {i}: {reasons}"
        failures += 1
    assert failures == 100
    passed(4, "100/100 static or ephemeral key substitutions end in Failed(auth)")


def test_criterion_05_owner_centric_policy():
    report = run_scenario(Scenario.from_mapping(copy.deepcopy(OWNER_SCENARIO)))
    assert report.steps[0].outcome == "trusted"

    mismatch = copy.deepcopy(OWNER_SCENARIO)
    mismatch["actors"].append({"name": "bob", "role": "owner", "did_method": "peer"})
    mismatch["credentials"][1]["claims"]["owner"] = "@bob"
    mismatch["steps"][0]["expect"] = "untrusted(owner mismatch)"
    report = run_scenario(Scenario.from_mapping(mismatch))
    assert report.steps[0].outcome == "untrusted(owner mismatch)"
    assert report.steps[0].matched

    foreign = copy.deepcopy(OWNER_SCENARIO)
    foreign["actors"].append({"name": "bob", "role": "owner", "did_method": "peer"})
    foreign["credentials"][1]["issuer"] = "bob"
    foreign["steps"][0]["expect"] = "untrusted(issuer)"
    report = run_scenario(Scenario.from_mapping(foreign))
    assert report.steps[0].outcome == "untrusted(issuer)"
    assert report.steps[0].matched
    passed(5, "same owner -> trusted; wrong owner value -> owner mismatch; "
              "foreign issuer -> issuer")


def test_criterion_06_selective_disclosure():
    registry = Registry()
    alice = build_actor("alice", 61, registry)
    device = build_actor("device", 62, registry)
    introduce(alice, device)
    claims = [
        Claim("owner", "did:peer:2ownerownerowner"),
        Claim("type", "CameraDeviceKind"),
        Claim("firmware", "firmware-9.9.9"),
        Claim("site", "warehouse-north-7"),
        Claim("batch", "batch-2024-00042"),
    ]
    vc, openings = issue(alice.sign_key, alice.did, device.did, claims, MONTH, NOW)
    names = vc.claim_names()
    verified = 0
    for r in range(1, 6):
        for subset in itertools.combinations(names, r):
            presentation = present(vc, openings, set(subset))
            verdict = verify_presentation(presentation, alice.resolver, None, NOW + 1)
            assert verdict.ok, f"subset {subset}: {verdict.reason}"
            raw = presentation.to_bytes()
            for opening in openings:
                if opening.name in subset:
                    continue
                assert opening.value.encode() not in raw, f"{opening.name} leaked"
                assert opening.salt not in raw
                assert opening.salt.hex().encode() not in raw
            verified += 1
    assert verified == 31
    passed(6, "all 31 subsets of a 5-claim credential verify; no undisclosed bytes leak")


def test_criterion_07_key_rotation():
    registry = Registry()
    alice = build_actor("alice", 71, registry, method="reg")
    device = build_actor("device", 72, registry, method="reg")
    vc, _ = issue(
        alice.sign_key, alice.did, device.did,
        [Claim("owner", format_did(alice.did))], MONTH, NOW,
    )
    vc_bytes_before = vc.to_bytes()
    assert verify_credential(vc, Resolver(registry), None, NOW + 1).ok

    new_kp = crypto.keygen(crypto.PURPOSE_SIGN, seed=bytes(31) + b"\x09")
    rotated = rotate_key(
        alice.document, alice.sign_key.key_id,
        PublicKeyEntry(new_kp.key_id, crypto.PURPOSE_SIGN, new_kp.public),
        now=NOW + 100,
    )
    registry.register(rotated, alice.sign_key)

    fresh = Resolver(registry)
    resolved = fresh.resolve(alice.did, NOW + 200)
    assert resolved.version == 2
    assert not any(k.key_id == alice.sign_key.key_id for k in resolved.public_keys)
    verdict = verify_credential(vc, fresh, None, NOW + 200)
    assert verdict.ok, f"rotation broke the credential: {verdict.reason}"
    # The credential was not re-signed and the document carries no signature.
    assert vc.to_bytes() == vc_bytes_before
    assert "signature" not in resolved.to_mapping()
    assert "proof" not in resolved.to_mapping()
    passed(7, "credential still verifies after issuer key rotation, nothing re-signed")


def test_criterion_08_resolver_cache():
    registry = Registry()
    alice = build_actor("alice", 81, registry, method="reg")
    resolver = Resolver(registry, ttl=300)
    base = 50_000
    reads_before = registry.read_count
    for k in range(6):
        resolver.resolve(alice.did, base + 40 * k)  # all within one TTL window
    assert registry.read_count == reads_before + 1, "cache must absorb repeat resolves"
    resolver.resolve(alice.did, base + 300)
    assert registry.read_count == reads_before + 2, "post-TTL resolve must re-read"
    passed(8, "k resolves in one TTL window cost one registry read; TTL expiry re-reads")


def test_criterion_09_lossy_link_resilience():
    run1, link1 = run_pair(seed=91, profile="lora", loss=0.1, link_seed=9100)
    assert run1.outcome() == "trusted", f"lossy handshake failed: {run1.outcome()}"
    assert run1.retransmissions >= 0

    mapping = copy.deepcopy(OWNER_SCENARIO)
    mapping["links"][0]["loss"] = 0.1
    first = run_scenario(Scenario.from_mapping(mapping))
    second = run_scenario(Scenario.from_mapping(mapping))
    assert first.steps[0].outcome == "trusted"
    assert first.to_json_bytes() == second.to_json_bytes(), "reports must be byte-identical"
    passed(9, "loss=0.1 handshake completes in budget; fixed seed reproduces the report")


def test_criterion_10_tamper_fuzzing():
    registry = Registry()
    alice = build_actor("alice", 101, registry)
    device = build_actor("device", 102, registry)
    introduce(alice, device)
    vc, _ = issue(
        alice.sign_key, alice.did, device.did,
        [Claim("owner", format_did(alice.did)), Claim("type", "Camera")],
        MONTH, NOW,
    )
    raw = vc.to_bytes()
    rng = Random(1010)
    rejected = 0
    for _ in range(100):
        mutated = bytearray(raw)
        mutated[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
        try:
            candidate = VerifiableCredential.from_bytes(bytes(mutated))
        except CredentialError:
            rejected += 1
            continue
        if not verify_credential(candidate, alice.resolver, None, NOW + 1).ok:
            rejected += 1
    assert rejected == 100, f"credential mutations rejected {rejected}/100"

    # Handshake messages: collect one honest trace, then re-run with one
    # mutated message per run.
    honest_messages = []

    def recorder(role, message):
        honest_messages.append(message)
        return message

    run_pair(seed=10_101, intercept=recorder)
    run_direct_total = len(honest_messages)
    assert run_direct_total >= 7

    handshake_rejected = 0
    for trial in range(100):
        target_index = rng.randrange(run_direct_total)
        state = {"seen": 0}

        def mutate(role, message):
            index = state["seen"]
            state["seen"] += 1
            if index == target_index:
                flipped = bytearray(message)
                flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
                return bytes(flipped)
            return message

        run, _ = run_pair(seed=10_101, intercept=mutate)
        states = {run.initiator.state, run.responder.state}
        if State.FAILED in states:
            handshake_rejected += 1
    assert handshake_rejected == 100, f"handshake mutations rejected {handshake_rejected}/100"
    passed(10, "100/100 mutated credentials and 100/100 mutated handshake messages rejected")
