"""State machine, transcript binding, trust policies, and the secure channel.

`tests/golden/handshake-messages.json` holds the hex of every wire message of
every handshake in the two shipped scenarios, in delivery order. Signatures
and session keys bind these exact bytes, so they must not drift. Regenerate
only on purpose, from the repository root:

    PYTHONPATH=src python tests/test_handshake.py > tests/golden/handshake-messages.json
"""

import json
from functools import cache
from pathlib import Path
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    NOW,
    Actor,
    build_actor,
    give_owner_credential,
    introduce,
    owner_match_config,
)
from tinyssi import crypto, harness
from tinyssi.credentials import Claim, StoredCredential, issue
from tinyssi.encoding import canonical_bytes, from_canonical
from tinyssi.handshake import (
    AlwaysTrust,
    ChannelError,
    HandshakeError,
    MSG_AUTH,
    MSG_CRED_PRESENT,
    MSG_ERROR,
    MSG_HELLO,
    MSG_HELLO_ACK,
    MSG_TRUST_RESULT,
    OwnerMatch,
    RequireClaim,
    SessionConfig,
    State,
    decide_trust,
    initiate,
    respond,
)
from tinyssi.identity import PublicKeyEntry, format_did, rotate_key
from tinyssi.resolver import Registry, Resolver

ALL_TAGS = [0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x7F]
ROOT = Path(__file__).resolve().parent.parent
GOLDEN_MESSAGES = ROOT / "tests" / "golden" / "handshake-messages.json"


def run_direct(initiator_cfg, responder_cfg, peer_hint=None, now=NOW, intercept=None):
    """Drive both sessions directly (no link); returns the sessions and legs."""
    session_i, hello = initiate(initiator_cfg, peer_hint=peer_hint, now=now)
    session_r = respond(responder_cfg, now=now)
    legs = [[hello]]
    inbox, target, other = [hello], session_r, session_i
    for _ in range(16):
        outbox = []
        for index, message in enumerate(inbox):
            if intercept is not None:
                message = intercept(target.role, message)
            outbox.extend(target.step(message, now))
        if not outbox:
            break
        legs.append(outbox)
        inbox, target, other = outbox, other, target
    return session_i, session_r, legs


def household_configs(household, policy_override=None):
    alice, camera, lock = household
    cfg_i = owner_match_config(camera, alice, 100)
    cfg_r = owner_match_config(lock, alice, 101)
    if policy_override is not None:
        cfg_i.policy = policy_override
        cfg_r.policy = policy_override
    return cfg_i, cfg_r, (alice, camera, lock)


class TestWireFormat:
    def test_message_type_tags_are_normative(self):
        from tinyssi import handshake as hs

        assert hs.MSG_HELLO == 0x01
        assert hs.MSG_HELLO_ACK == 0x02
        assert hs.MSG_AUTH == 0x03
        assert hs.MSG_AUTH_ACK == 0x04
        assert hs.MSG_CRED_REQUEST == 0x05
        assert hs.MSG_CRED_PRESENT == 0x06
        assert hs.MSG_TRUST_RESULT == 0x07
        assert hs.MSG_ERROR == 0x7F

    def test_wire_messages_carry_their_tag_byte(self, household):
        cfg_i, cfg_r, _ = household_configs(household)
        session_i, hello = initiate(cfg_i, now=NOW)
        assert hello[0] == MSG_HELLO
        session_r = respond(cfg_r, now=NOW)
        (hello_ack,) = session_r.step(hello, NOW)
        assert hello_ack[0] == MSG_HELLO_ACK
        (auth,) = session_i.step(hello_ack, NOW)
        assert auth[0] == MSG_AUTH
        (auth_ack,) = session_r.step(auth, NOW)
        assert auth_ack[0] == 0x04
        request, presentation = session_i.step(auth_ack, NOW)
        assert request[0] == 0x05
        assert presentation[0] == MSG_CRED_PRESENT


def scenario_handshake_messages() -> dict[str, list[str]]:
    """Hex of each message delivered in each handshake step of the shipped scenarios."""
    messages: dict[str, list[str]] = {}
    drive = harness.drive_handshake

    def recording(*args, **kwargs):
        seen = messages[key] = []
        return drive(*args, **kwargs, intercept=lambda role, m: seen.append(m.hex()) or m)

    for name in ("owner-two-devices", "household-lifecycle"):
        runner = harness.ScenarioRunner(
            harness.Scenario.load(str(ROOT / "scenarios" / f"{name}.scn"))
        )
        with mock.patch.object(harness, "drive_handshake", recording):
            for index, step in enumerate(runner.scenario.steps):
                key = f"{name}/step-{index}"
                runner._run_step(index, step)
    return messages


def test_handshake_messages_match_golden():
    golden = json.loads(GOLDEN_MESSAGES.read_text(encoding="utf-8"))
    assert scenario_handshake_messages() == golden


class TestHonestRun:
    def test_both_sides_reach_trusted_under_owner_match(self, household):
        cfg_i, cfg_r, (alice, camera, lock) = household_configs(household)
        session_i, session_r, legs = run_direct(cfg_i, cfg_r, peer_hint=lock.did)
        assert session_i.state == State.TRUSTED
        assert session_r.state == State.TRUSTED
        assert session_i.peer_did == lock.did
        assert session_r.peer_did == camera.did
        assert session_i.peer_verdict.trusted and session_r.peer_verdict.trusted

    def test_session_keys_mirror(self, household):
        cfg_i, cfg_r, _ = household_configs(household)
        session_i, session_r, _ = run_direct(cfg_i, cfg_r)
        assert session_i.session_keys.send_key == session_r.session_keys.recv_key
        assert session_i.session_keys.recv_key == session_r.session_keys.send_key

    def test_two_round_trips_to_secure(self, household):
        # Messages: HELLO, HELLO_ACK, AUTH, AUTH_ACK and no more.
        cfg_i, cfg_r, _ = household_configs(household)
        session_i, hello = initiate(cfg_i, now=NOW)
        session_r = respond(cfg_r, now=NOW)
        hello_ack = session_r.step(hello, NOW)
        assert len(hello_ack) == 1
        auth = session_i.step(hello_ack[0], NOW)
        assert len(auth) == 1
        assert session_i.state == State.AUTH_PENDING
        auth_ack = session_r.step(auth[0], NOW)
        assert session_r.state == State.SECURE
        session_i.step(auth_ack[0], NOW)
        assert session_i.state == State.SECURE

    def test_layer1_message_count_is_four(self, household):
        cfg_i, cfg_r, _ = household_configs(household)
        _, _, legs = run_direct(cfg_i, cfg_r)
        layer1 = [m for leg in legs for m in leg if m[0] in (0x01, 0x02, 0x03, 0x04)]
        assert len(layer1) == 4

    def test_hello_embeds_document_for_peer_method(self, household):
        cfg_i, _, _ = household_configs(household)
        _, hello = initiate(cfg_i, now=NOW)
        body = from_canonical(hello[1:])
        assert body["document"] is not None

    def test_hello_carries_did_only_for_reg_method(self):
        registry = Registry()
        actor = build_actor("regdev", 5, registry, method="reg")
        cfg = SessionConfig(
            document=actor.document, sign_key=actor.sign_key,
            resolver=actor.resolver, policy=AlwaysTrust(),
        )
        _, hello = initiate(cfg, now=NOW)
        body = from_canonical(hello[1:])
        assert body["document"] is None
        assert body["did"] == format_did(actor.did)

    def test_two_initiations_use_distinct_nonces_and_ephemerals(self, household):
        cfg_i, _, _ = household_configs(household)
        cfg_i.rng = None  # fresh randomness
        first, _ = initiate(cfg_i, now=NOW)
        second, _ = initiate(cfg_i, now=NOW)
        assert first.my_nonce != second.my_nonce
        assert first.ephemeral.public != second.ephemeral.public

    def test_reg_method_handshake(self):
        registry = Registry()
        alice = build_actor("alice", 1, registry, method="reg")
        cam = build_actor("cam", 2, registry, method="reg")
        lock = build_actor("lock", 3, registry, method="reg")
        give_owner_credential(alice, cam, 20)
        give_owner_credential(alice, lock, 21)
        session_i, session_r, _ = run_direct(
            owner_match_config(cam, alice, 200), owner_match_config(lock, alice, 201)
        )
        assert session_i.state == State.TRUSTED
        assert session_r.state == State.TRUSTED

    def test_missing_keys_rejected_at_initiate(self, household):
        cfg_i, _, _ = household_configs(household)
        cfg_i.sign_key = crypto.keygen(crypto.PURPOSE_SIGN)  # not in the document
        with pytest.raises(HandshakeError):
            initiate(cfg_i, now=NOW)

    def test_key_pair_with_a_listed_id_but_other_bytes_rejected_at_initiate(self, household):
        cfg_i, _, _ = household_configs(household)
        cfg_i.sign_key = crypto.keygen(crypto.PURPOSE_SIGN, key_id=cfg_i.sign_key.key_id)
        with pytest.raises(HandshakeError, match="current key"):
            initiate(cfg_i, now=NOW)

    def test_config_did_is_its_document_id(self, household):
        cfg_i, cfg_r, _ = household_configs(household)
        assert cfg_i.did == cfg_i.document.id
        with pytest.raises(AttributeError):
            cfg_i.did = cfg_r.did

    def test_retired_signing_key_rejected_at_initiate(self):
        registry = Registry()
        alice = build_actor("alice", 1, registry, method="reg")
        cam = build_actor("cam", 2, registry, method="reg")
        new_key = crypto.keygen(crypto.PURPOSE_SIGN, seed=bytes(31) + b"\x05")
        cam.document = rotate_key(
            cam.document, cam.sign_key.key_id,
            PublicKeyEntry(new_key.key_id, crypto.PURPOSE_SIGN, new_key.public),
            now=NOW,
        )
        registry.register(cam.document, cam.sign_key)
        assert cam.document.proof_key(cam.sign_key.key_id) is not None  # listed as retired
        with pytest.raises(HandshakeError, match="current key"):
            initiate(owner_match_config(cam, alice, 100), now=NOW)
        cam.sign_key = new_key
        session, _ = initiate(owner_match_config(cam, alice, 100), now=NOW)
        assert session.state == State.HELLO_SENT

    def test_configs_built_from_wallets(self, household):
        from tinyssi.wallet import Wallet

        alice, camera, lock = household

        def wallet_for(actor):
            w = Wallet()
            w.put_key(actor.sign_key)
            w.put_key(actor.agree_key)
            w.put_document(actor.document)
            for stored in actor.credentials:
                w.put_credential(stored.credential, stored.openings)
            return w

        cfg_i = SessionConfig.from_wallet(
            wallet_for(camera), camera.resolver, policy=OwnerMatch(my_owner=alice.did)
        )
        cfg_r = SessionConfig.from_wallet(
            wallet_for(lock), lock.resolver, policy=OwnerMatch(my_owner=alice.did)
        )
        session_i, session_r, _ = run_direct(cfg_i, cfg_r)
        assert session_i.state == State.TRUSTED
        assert session_r.state == State.TRUSTED

    def test_empty_wallet_cannot_open_sessions(self):
        from tinyssi.resolver import Resolver
        from tinyssi.wallet import Wallet

        with pytest.raises(HandshakeError):
            SessionConfig.from_wallet(Wallet(), Resolver())


class TestAuthFailures:
    def test_auth_signed_by_foreign_key_fails(self, household):
        cfg_i, cfg_r, _ = household_configs(household)
        rogue = crypto.keygen(crypto.PURPOSE_SIGN)

        def intercept(role, message):
            if message[0] == MSG_AUTH:
                body = from_canonical(message[1:])
                body["signature"] = crypto.sign(rogue, b"anything").hex()
                return bytes([MSG_AUTH]) + canonical_bytes(body)
            return message

        session_i, session_r, _ = run_direct(cfg_i, cfg_r, intercept=intercept)
        assert session_r.state == State.FAILED
        assert session_r.failure_reason == "auth"

    def test_unknown_key_id_in_auth_fails(self, household):
        cfg_i, cfg_r, _ = household_configs(household)

        def intercept(role, message):
            if message[0] == MSG_AUTH:
                body = from_canonical(message[1:])
                body["key_id"] = "sign-ffffffff"
                return bytes([MSG_AUTH]) + canonical_bytes(body)
            return message

        _, session_r, _ = run_direct(cfg_i, cfg_r, intercept=intercept)
        assert session_r.state == State.FAILED
        assert session_r.failure_reason == "auth"

    def test_substituted_ephemeral_breaks_transcript(self, household):
        cfg_i, cfg_r, _ = household_configs(household)
        mitm = crypto.keygen(crypto.PURPOSE_AGREE)

        def intercept(role, message):
            if message[0] == MSG_HELLO:
                body = from_canonical(message[1:])
                body["ephemeral"] = mitm.public.hex()
                return bytes([MSG_HELLO]) + canonical_bytes(body)
            return message

        session_i, session_r, _ = run_direct(cfg_i, cfg_r, intercept=intercept)
        failed = [s for s in (session_i, session_r) if s.state == State.FAILED]
        assert any(s.failure_reason == "auth" for s in failed)

    def test_substituted_static_key_breaks_self_certification(self, household):
        cfg_i, cfg_r, _ = household_configs(household)
        mitm = crypto.keygen(crypto.PURPOSE_SIGN)

        def intercept(role, message):
            if message[0] == MSG_HELLO:
                body = from_canonical(message[1:])
                body["document"]["public_keys"][0]["public"] = mitm.public.hex()
                return bytes([MSG_HELLO]) + canonical_bytes(body)
            return message

        _, session_r, _ = run_direct(cfg_i, cfg_r, intercept=intercept)
        assert session_r.state == State.FAILED
        assert session_r.failure_reason == "auth"

    def test_peer_did_differing_from_hint_fails(self, household):
        cfg_i, cfg_r, (alice, camera, lock) = household_configs(household)
        # Initiator expects to reach the camera but the lock answers.
        session_i, session_r, _ = run_direct(cfg_i, cfg_r, peer_hint=camera.did)
        assert session_i.state == State.FAILED
        assert session_i.failure_reason == "auth"

    def test_transcript_binding_single_byte_fuzz(self, household):
        # Any single-byte change to any pre-AUTH message fails some party.
        rng = Random(17)
        for message_tag in (MSG_HELLO, MSG_HELLO_ACK, MSG_AUTH):
            for _ in range(12):
                cfg_i, cfg_r, _ = household_configs(household)
                cfg_i.rng, cfg_r.rng = Random(1), Random(2)
                state = {"done": False}

                def intercept(role, message, tag=message_tag):
                    if message[0] == tag and not state["done"]:
                        state["done"] = True
                        mutated = bytearray(message)
                        index = rng.randrange(1, len(mutated))
                        mutated[index] ^= 1 << rng.randrange(8)
                        return bytes(mutated)
                    return message

                session_i, session_r, _ = run_direct(cfg_i, cfg_r, intercept=intercept)
                states = {session_i.state, session_r.state}
                assert State.FAILED in states
                assert State.TRUSTED not in states


class TestProtocolOrder:
    def test_out_of_order_message_fails_protocol(self, household):
        cfg_i, cfg_r, _ = household_configs(household)
        session_r = respond(cfg_r, now=NOW)
        auth_like = bytes([MSG_AUTH]) + canonical_bytes({"key_id": "x", "signature": "00"})
        session_r.step(auth_like, NOW)
        assert session_r.state == State.FAILED
        assert session_r.failure_reason == "protocol"

    def test_unknown_tag_fails_protocol(self, household):
        cfg_i, _, _ = household_configs(household)
        session_i, _ = initiate(cfg_i, now=NOW)
        session_i.step(bytes([0x55]) + b"{}", NOW)
        assert session_i.state == State.FAILED
        assert session_i.failure_reason == "protocol"

    def test_encrypted_message_before_secure_fails(self, household):
        cfg_i, cfg_r, _ = household_configs(household)
        session_r = respond(cfg_r, now=NOW)
        session_r.step(bytes([MSG_CRED_PRESENT]) + bytes(40), NOW)
        assert session_r.state == State.FAILED
        assert session_r.failure_reason == "protocol"

    def test_steps_after_failure_are_inert(self, household):
        cfg_i, cfg_r, _ = household_configs(household)
        session_r = respond(cfg_r, now=NOW)
        session_r.step(bytes([0x55]) + b"{}", NOW)
        assert session_r.step(bytes([MSG_HELLO]) + b"{}", NOW) == []
        assert session_r.state == State.FAILED

    def test_state_machine_safety_unexpected_pairs_only_fail(self, household):
        # Feeding every message tag into a fresh session in each reachable
        # at-rest state either follows the table or lands in FAILED.
        tags = [0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08]
        allowed = {
            ("initiator", State.HELLO_SENT): {0x02},
            ("responder", State.INIT): {0x01},
        }
        for role_name, state in [
            ("initiator", State.HELLO_SENT),
            ("responder", State.INIT),
        ]:
            for tag in tags:
                cfg_i, cfg_r, _ = household_configs(household)
                if role_name == "initiator":
                    session, _ = initiate(cfg_i, now=NOW)
                else:
                    session = respond(cfg_r, now=NOW)
                session.step(bytes([tag]) + canonical_bytes({}), NOW)
                if tag in allowed[(role_name, state)]:
                    continue  # shape errors may still fail, checked elsewhere
                assert session.state == State.FAILED

    def test_state_machine_safety_after_secure(self, household):
        # Past the channel setup, junk under any tag moves a session only to
        # FAILED, never to some other state.
        tags = [0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x55]
        for tag in tags:
            for victim_role in ("initiator", "responder"):
                alice, camera, lock = household
                cfg_i = owner_match_config(camera, alice, 800 + tag)
                cfg_r = owner_match_config(lock, alice, 900 + tag)
                session_i, hello = initiate(cfg_i, now=NOW)
                session_r = respond(cfg_r, now=NOW)
                (hello_ack,) = session_r.step(hello, NOW)
                (auth,) = session_i.step(hello_ack, NOW)
                (auth_ack,) = session_r.step(auth, NOW)
                session_i.step(auth_ack, NOW)
                victim = session_i if victim_role == "initiator" else session_r
                assert victim.state == State.SECURE
                victim.step(bytes([tag]) + bytes(40), NOW)
                assert victim.state in (State.SECURE, State.FAILED)
                if victim.state is State.FAILED:
                    assert victim.failure_reason in ("protocol", "channel", "peer: unspecified")


class TestTotality:
    """step() never raises: malformed input ends in FAILED with a reason."""

    def _secure_pair(self, household):
        cfg_i, cfg_r, _ = household_configs(household)
        session_i, hello = initiate(cfg_i, now=NOW)
        session_r = respond(cfg_r, now=NOW)
        (hello_ack,) = session_r.step(hello, NOW)
        (auth,) = session_i.step(hello_ack, NOW)
        (auth_ack,) = session_r.step(auth, NOW)
        session_i.step(auth_ack, NOW)
        return session_i, session_r

    def _hello_with(self, household, edit):
        cfg_i, cfg_r, _ = household_configs(household)
        _, hello = initiate(cfg_i, now=NOW)
        body = from_canonical(hello[1:])
        edit(body)
        session_r = respond(cfg_r, now=NOW)
        assert session_r.step(bytes([MSG_HELLO]) + canonical_bytes(body), NOW) != []
        return session_r

    def test_list_valued_retired_key_id_fails_protocol(self, household):
        def edit(body):
            body["document"]["previous_keys"] = [
                {"key_id": ["k"], "public": "00" * 32, "retired_at": 1}
            ]

        session_r = self._hello_with(household, edit)
        assert (session_r.state, session_r.failure_reason) == (State.FAILED, "protocol")

    def test_non_string_key_id_fails_protocol(self, household):
        def edit(body):
            body["document"]["public_keys"][0]["key_id"] = 7

        session_r = self._hello_with(household, edit)
        assert (session_r.state, session_r.failure_reason) == (State.FAILED, "protocol")

    @pytest.mark.parametrize("body", [
        b'{"did":' + b"1" * 5000 + b"}",   # beyond the int-string limit
        b"[" * 100_000,                    # beyond the recursion limit
    ], ids=["long-integer", "deep-nesting"])
    def test_unparseable_hello_fails_protocol(self, household, body):
        _, cfg_r, _ = household_configs(household)
        session_r = respond(cfg_r, now=NOW)
        assert session_r.step(bytes([MSG_HELLO]) + body, NOW) != []
        assert (session_r.state, session_r.failure_reason) == (State.FAILED, "protocol")

    def test_error_message_that_is_not_a_mapping(self, household):
        cfg_i, _, _ = household_configs(household)
        session_i, _ = initiate(cfg_i, now=NOW)
        assert session_i.step(bytes([MSG_ERROR]) + b"[]", NOW) == []
        assert session_i.failure_reason == "peer: unspecified"

    def test_presentations_not_a_list_fails_protocol(self, household):
        session_i, session_r = self._secure_pair(household)
        record = session_i._seal(MSG_CRED_PRESENT, canonical_bytes({"presentations": 5}))
        session_r.step(record, NOW)
        assert (session_r.state, session_r.failure_reason) == (State.FAILED, "protocol")

    @pytest.mark.parametrize("tag, body", [
        (MSG_AUTH, {"extra": 1}),                 # merged into an honest AUTH body
        (MSG_AUTH, {"signature": "00" * 63}),
        (MSG_CRED_PRESENT, {}),
        (MSG_CRED_PRESENT, {"presentations": [{"credential": 5, "disclosed": []}]}),
        (MSG_TRUST_RESULT, {"trusted": True, "reason": 5}),
    ], ids=["auth-extra-field", "auth-short-signature", "present-without-presentations",
            "present-undecodable", "result-reason-not-a-string"])
    def test_body_that_does_not_decode_fails_protocol(self, household, tag, body):
        cfg_i, cfg_r, _ = household_configs(household)
        if tag == MSG_AUTH:
            session_i, hello = initiate(cfg_i, now=NOW)
            victim = respond(cfg_r, now=NOW)
            (auth,) = session_i.step(*victim.step(hello, NOW), NOW)
            message = bytes([MSG_AUTH]) + canonical_bytes({**from_canonical(auth[1:]), **body})
        else:
            if tag == MSG_TRUST_RESULT:
                sender, victim, _ = run_direct(cfg_i, cfg_r)
                assert victim.state == State.TRUSTED
            else:
                sender, victim = self._secure_pair(household)
            message = sender._seal(tag, canonical_bytes(body))
        assert victim.step(message, NOW) != []
        assert (victim.state, victim.failure_reason) == (State.FAILED, "protocol")

    def test_unparsable_registry_document_fails_resolve(self):
        registry = Registry()
        alice = build_actor("alice", 1, registry, method="reg")
        camera = build_actor("camera", 2, registry, method="reg")
        lock = build_actor("lock", 3, registry, method="reg")
        snapshot = from_canonical(registry.snapshot())
        snapshot["entries"][format_did(camera.did)][-1]["document"] = b"{}".hex()
        lock.resolver = Resolver(Registry.from_snapshot(canonical_bytes(snapshot)))
        _, hello = initiate(owner_match_config(camera, alice, 1), now=NOW)
        session_r = respond(owner_match_config(lock, alice, 2), now=NOW)
        assert session_r.step(hello, NOW) != []
        assert (session_r.state, session_r.failure_reason) == (State.FAILED, "resolve")

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_step_never_raises(self, data):
        """Any bytes, in any state a handshake passes through, from either side."""
        alice, camera, lock = _household()
        session_i, hello = initiate(owner_match_config(camera, alice, 1), now=NOW)
        session_r = respond(owner_match_config(lock, alice, 2), now=NOW)
        inbox, target, other = [hello], session_r, session_i
        for _ in range(data.draw(st.integers(0, 5), label="honest legs")):
            outbox = [reply for message in inbox for reply in target.step(message, NOW)]
            if not outbox:
                break
            inbox, target, other = outbox, other, target
        tag = data.draw(st.sampled_from(ALL_TAGS) | st.integers(0, 255), label="tag")
        body = canonical_bytes(data.draw(_JSON, label="body"))
        message = data.draw(st.sampled_from([
            bytes([tag]) + body,
            bytes([tag]) + data.draw(st.binary(max_size=48), label="raw"),
            other._seal(tag, body) if other.session_keys is not None else bytes([tag]) + body,
            _flip(inbox[0], data.draw(st.integers(0, 8 * len(inbox[0]) - 1), label="bit")),
        ]), label="message")
        assert isinstance(target.step(message, NOW), list)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.sampled_from(["00" * 16, "00" * 32, "did:peer:1", "sign-00"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from([
            "did", "document", "ephemeral", "nonce", "key_id", "signature", "want",
            "presentations", "trusted", "reason", "credential", "disclosed",
        ]) | st.text(max_size=4),
        inner, max_size=4,
    ),
    max_leaves=12,
)


def _flip(message: bytes, bit: int) -> bytes:
    flipped = bytearray(message)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


@cache
def _household():
    registry = Registry()
    alice = build_actor("alice", 1, registry)
    camera = build_actor("camera", 2, registry)
    lock = build_actor("lock", 3, registry)
    introduce(alice, camera, lock)
    give_owner_credential(alice, camera, 10, {"type": "Camera"})
    give_owner_credential(alice, lock, 11, {"type": "Lock"})
    return alice, camera, lock


class TestLayer2:
    def test_tampered_encrypted_presentation_fails_channel(self, household):
        cfg_i, cfg_r, _ = household_configs(household)

        def intercept(role, message):
            if message[0] == MSG_CRED_PRESENT and role == crypto.ROLE_RESPONDER:
                mutated = bytearray(message)
                mutated[-1] ^= 1
                return bytes(mutated)
            return message

        session_i, session_r, _ = run_direct(cfg_i, cfg_r, intercept=intercept)
        assert session_r.state == State.FAILED
        assert session_r.failure_reason == "channel"

    def test_credential_ciphertext_hides_claim_values(self, household):
        cfg_i, cfg_r, (alice, camera, lock) = household_configs(household)
        secret_value = format_did(alice.did).encode()
        seen = []

        def intercept(role, message):
            if message[0] == MSG_CRED_PRESENT:
                seen.append(bytes(message))
            return message

        run_direct(cfg_i, cfg_r, intercept=intercept)
        assert seen
        for record in seen:
            assert secret_value not in record
            assert b"owner" not in record

    def test_responder_presentation_tailored_to_request(self, household):
        cfg_i, cfg_r, (alice, camera, lock) = household_configs(household)
        session_i, session_r, _ = run_direct(cfg_i, cfg_r)
        # OwnerMatch requests only "owner": the lock's "type" claim stays hidden.
        assert session_i.presented
        disclosed_names = {
            opening.name for p in session_i.presented for opening in p.disclosed
        }
        assert disclosed_names == {"owner"}

    def test_one_sided_exchange(self, household):
        # Initiator discloses nothing and trusts anyone; the responder still
        # presents on request, so the initiator's policy could check it.
        alice, camera, lock = household
        cfg_i = owner_match_config(camera, alice, 700)
        cfg_i.disclose = ()
        cfg_r = owner_match_config(lock, alice, 701)
        cfg_r.policy = AlwaysTrust()
        session_i, session_r, _ = run_direct(cfg_i, cfg_r)
        assert session_i.state == State.TRUSTED   # verified the lock's owner claim
        assert session_r.state == State.TRUSTED   # trusts regardless
        assert session_r.presented == []          # camera disclosed nothing


class TestSecureChannel:
    def _secure_pair(self, household, seed_base: int = 100):
        alice, camera, lock = household
        cfg_i = owner_match_config(camera, alice, seed_base)
        cfg_r = owner_match_config(lock, alice, seed_base + 1)
        session_i, session_r, _ = run_direct(cfg_i, cfg_r)
        assert session_i.state == State.TRUSTED
        return session_i, session_r

    def test_roundtrip(self, household):
        session_i, session_r = self._secure_pair(household)
        wire = session_i.secure_send(b"open the pod bay doors", NOW)
        assert session_r.secure_recv(wire, NOW) == b"open the pod bay doors"
        back = session_r.secure_send(b"affirmative", NOW)
        assert session_i.secure_recv(back, NOW) == b"affirmative"

    def test_replay_rejected(self, household):
        session_i, session_r = self._secure_pair(household)
        wire = session_i.secure_send(b"once only", NOW)
        session_r.secure_recv(wire, NOW)
        with pytest.raises(ChannelError):
            session_r.secure_recv(wire, NOW)

    def test_tamper_rejected(self, household):
        session_i, session_r = self._secure_pair(household)
        wire = bytearray(session_i.secure_send(b"payload", NOW))
        wire[-2] ^= 0x10
        with pytest.raises(ChannelError):
            session_r.secure_recv(bytes(wire), NOW)

    def test_forged_record_does_not_advance_replay_window(self, household):
        session_i, session_r = self._secure_pair(household)
        wire = session_i.secure_send(b"genuine", NOW)
        # Same ciphertext under a far-future counter: its tag cannot verify.
        counter = (2**80).to_bytes(crypto.NONCE_LEN - 1, "big")
        forged = wire[:2] + counter + wire[1 + crypto.NONCE_LEN :]
        with pytest.raises(ChannelError):
            session_r.secure_recv(forged, NOW)
        assert session_r.secure_recv(wire, NOW) == b"genuine"

    def test_cross_session_ciphertext_rejected(self, household):
        first_i, first_r = self._secure_pair(household, seed_base=500)
        second_i, second_r = self._secure_pair(household, seed_base=600)
        assert first_i.session_keys.send_key != second_i.session_keys.send_key
        wire = first_i.secure_send(b"for the first session", NOW)
        with pytest.raises(ChannelError):
            second_r.secure_recv(wire, NOW)

    def test_expired_session_refused(self, household):
        session_i, session_r = self._secure_pair(household)
        expires = session_i.session_keys.expires_at()
        assert expires == NOW + crypto.DEFAULT_SESSION_LIFETIME
        wire = session_i.secure_send(b"last call", expires - 1)
        assert session_r.secure_recv(wire, expires - 1) == b"last call"
        late = session_i.secure_send(b"still here", expires - 1)
        with pytest.raises(ChannelError, match="expired"):
            session_r.secure_recv(late, expires)
        with pytest.raises(ChannelError, match="expired"):
            session_i.secure_send(b"too late", expires)

    def test_channel_refused_before_secure(self, household):
        cfg_i, _, _ = household_configs(household)
        session_i, _ = initiate(cfg_i, now=NOW)
        with pytest.raises(HandshakeError):
            session_i.secure_send(b"too early", NOW)


class TestDecideTrust:
    def _presentation(self, issuer: Actor, device: Actor, claims: dict[str, str],
                      disclose: set[str], rng_seed: int = 5):
        from tinyssi.credentials import present

        vc, openings = issue(
            issuer.sign_key, issuer.did, device.did,
            [Claim(n, v) for n, v in claims.items()],
            30 * 24 * 3600, NOW, rng=Random(rng_seed),
        )
        return present(vc, openings, disclose)

    def test_same_owner_trusted(self, household):
        alice, camera, lock = household
        p = self._presentation(
            alice, lock, {"owner": format_did(alice.did)}, {"owner"}
        )
        decision = decide_trust(OwnerMatch(my_owner=alice.did), [p])
        assert decision.trusted

    def test_different_owner_value_is_owner_mismatch(self, household):
        alice, camera, lock = household
        p = self._presentation(alice, lock, {"owner": "did:peer:3somebodyelse"}, {"owner"})
        decision = decide_trust(OwnerMatch(my_owner=alice.did), [p])
        assert not decision.trusted
        assert decision.reason == "owner mismatch"

    def test_non_owner_issuer_is_issuer_reason(self, household):
        alice, camera, lock = household
        registry = Registry()
        mallory = build_actor("mallory", 66, registry)
        p = self._presentation(
            mallory, lock, {"owner": format_did(alice.did)}, {"owner"}
        )
        decision = decide_trust(OwnerMatch(my_owner=alice.did), [p])
        assert not decision.trusted
        assert decision.reason == "issuer"

    def test_no_presentations_untrusted(self, household):
        alice, _, _ = household
        decision = decide_trust(OwnerMatch(my_owner=alice.did), [])
        assert not decision.trusted
        assert decision.reason == "no valid credentials"

    def test_always_trust(self):
        assert decide_trust(AlwaysTrust(), []).trusted

    def test_require_claim(self, household):
        alice, camera, lock = household
        p = self._presentation(alice, lock, {"type": "Lock"}, {"type"})
        assert decide_trust(RequireClaim("type", "Lock"), [p]).trusted
        assert decide_trust(RequireClaim("type", "Camera"), [p]).reason == "claim mismatch"
        assert decide_trust(RequireClaim("site", "x"), [p]).reason == "claim missing"


class TestEndToEndPolicies:
    def test_owner_mismatch_untrusted_end_to_end(self):
        # Alice issued the lock a credential claiming Bob as owner.
        registry = Registry()
        alice = build_actor("alice", 1, registry)
        bob = build_actor("bob", 4, registry)
        camera = build_actor("camera", 2, registry)
        lock = build_actor("lock", 3, registry)
        introduce(alice, bob, camera, lock)
        give_owner_credential(alice, camera, 30)
        vc, openings = issue(
            alice.sign_key, alice.did, lock.did,
            [Claim("owner", format_did(bob.did))], 30 * 24 * 3600, NOW, rng=Random(31),
        )
        lock.credentials = (StoredCredential(vc, openings),)
        session_i, session_r, _ = run_direct(
            owner_match_config(camera, alice, 300),
            owner_match_config(lock, alice, 301),
        )
        assert session_i.state == State.UNTRUSTED
        assert session_i.my_verdict.reason == "owner mismatch"

    def test_non_owner_issuer_untrusted_end_to_end(self):
        # Bob (valid identity, wrong owner) issued the lock's credential.
        registry = Registry()
        alice = build_actor("alice", 1, registry)
        bob = build_actor("bob", 4, registry)
        camera = build_actor("camera", 2, registry)
        lock = build_actor("lock", 3, registry)
        introduce(alice, bob, camera, lock)
        give_owner_credential(alice, camera, 40)
        give_owner_credential(bob, lock, 41)
        session_i, session_r, _ = run_direct(
            owner_match_config(camera, alice, 400),
            owner_match_config(lock, alice, 401),
        )
        assert session_i.state == State.UNTRUSTED
        assert session_i.my_verdict.reason == "issuer"
        # The lock distrusts the camera too: its policy says owner must be Alice
        # and the camera's credential says exactly that, so the lock trusts.
        assert session_r.state == State.TRUSTED

    def test_presentation_of_another_subject_is_dropped(self, household):
        # Eve, Bob's device, holds the camera's owner credential and its
        # openings (as handed over in an earlier handshake with the camera)
        # and presents it to the lock, which trusts devices Alice owns.
        alice, camera, lock = household
        registry = Registry()
        bob = build_actor("bob", 4, registry)
        eve = build_actor("eve", 5, registry)
        introduce(alice, bob, camera, lock, eve)
        give_owner_credential(bob, eve, 50)
        eve.credentials = eve.credentials + camera.credentials
        session_i, session_r, _ = run_direct(
            owner_match_config(eve, bob, 500),
            owner_match_config(lock, alice, 501),
        )
        assert session_r.state == State.UNTRUSTED
        assert session_r.my_verdict.reason == "issuer"
        assert [p.credential.subject for p in session_r.presented] == [eve.did]


if __name__ == "__main__":
    print(json.dumps(scenario_handshake_messages(), indent=1, sort_keys=True))
