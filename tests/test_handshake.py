"""State machine, transcript binding, trust policies, and the secure channel.

`tests/golden/handshake-messages.json` holds the hex of every wire message of
every handshake in the two shipped scenarios, in delivery order. Signatures
and session keys bind these exact bytes, so they must not drift. Regenerate
only on purpose, from the repository root:

    PYTHONPATH=src python tests/test_handshake.py > tests/golden/handshake-messages.json

The README's handshake table gives each message's size from that golden and
the handshake's totals from the owner-two-devices report golden; this prints
the figures its last column and the paragraph under it state today:

    PYTHONPATH=src python tests/test_handshake.py --readme-table
"""

import json
import math
import re
import sys
from dataclasses import fields, replace
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
    cut_registry,
    give_owner_credential,
    introduce,
    owner_match_config,
)
from tinyssi import crypto, harness, transport
from tinyssi.credentials import (
    Claim,
    ClaimOpening,
    RevocationRegistry,
    StoredCredential,
    Verdict,
    issue,
    present,
    revoke,
)
from tinyssi.encoding import (
    cbor_bytes,
    from_cbor,
    pack,
    read_uint,
    unpack,
)
from tinyssi.handshake import (
    AlwaysTrust,
    Auth,
    ChannelError,
    CredPresent,
    CredRequest,
    Error,
    HandshakeError,
    HandshakeSession,
    Hello,
    MSG_AUTH,
    MSG_AUTH_ACK,
    MSG_CRED_PRESENT,
    MSG_CRED_REQUEST,
    MSG_DATA,
    MSG_ERROR,
    MSG_HELLO,
    MSG_HELLO_ACK,
    MSG_TRUST_RESULT,
    OwnerMatch,
    PresentationWire,
    RequireClaim,
    SessionConfig,
    State,
    decide_trust,
    initiate,
    respond,
)
from tinyssi.identity import (
    Did, DidDocument, DocumentBody, PublicKeyEntry, _EndpointWire, format_did, rotate_key,
)
from tinyssi.resolver import DEFAULT_TTL, Registry, Resolver
from tinyssi.wallet import Wallet

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


def forge(message: bytes, body: type, **changes) -> bytes:
    """A plain message whose body record has the given fields replaced, packed again."""
    return message[:1] + pack(replace(unpack(body, message[1:]), **changes))


def slot(record: type, name: str) -> int:
    """The position of a record's field in its wire array."""
    return [f.name for f in fields(record)].index(name)


def household_configs(household, policy_override=None):
    alice, camera, lock = household
    cfg_i = owner_match_config(camera, alice, 100)
    cfg_r = owner_match_config(lock, alice, 101)
    if policy_override is not None:
        cfg_i.policy = policy_override
        cfg_r.policy = policy_override
    return cfg_i, cfg_r, (alice, camera, lock)


def secure_pair(household, responder_presents=True):
    """Both sides just past AUTH_ACK, Secure, and the sealed records of the
    responder's leg 4 (CRED_REQUEST, CRED_PRESENT), not yet delivered. A
    responder that does not present holds no credentials."""
    cfg_i, cfg_r, _ = household_configs(household)
    if not responder_presents:
        cfg_r.credentials = ()
    session_i, hello = initiate(cfg_i, now=NOW)
    session_r = respond(cfg_r, now=NOW)
    (hello_ack,) = session_r.step(hello, NOW)
    (auth,) = session_i.step(hello_ack, NOW)
    auth_ack, *records = session_r.step(auth, NOW)
    assert session_i.step(auth_ack, NOW) == []
    return session_i, session_r, records


def reg_household():
    """Alice (peer) and her reg camera and lock, each device holding the other's
    document as read at NOW: (registry, alice, camera, lock)."""
    registry = Registry()
    alice = build_actor("alice", 1, registry)
    camera = build_actor("camera", 2, registry, method="reg")
    lock = build_actor("lock", 3, registry, method="reg")
    introduce(alice, camera, lock)
    give_owner_credential(alice, camera, 10, {"type": "Camera"})
    give_owner_credential(alice, lock, 11, {"type": "Lock"})
    camera.resolver.resolve(lock.did, NOW)
    lock.resolver.resolve(camera.did, NOW)
    return registry, alice, camera, lock


def rotate(actor: Actor, registry: Registry, now: int) -> None:
    """Retire a reg actor's signing key through a wallet holding its identity."""
    keys = {k.key_id: k for k in (actor.sign_key, actor.agree_key)}
    wallet = Wallet(keys=keys, documents=[actor.document])
    new_key = crypto.keygen(crypto.PURPOSE_SIGN, seed=bytes(31) + b"\x42")
    actor.document = wallet.rotate_sign_key(new_key, now, registry)
    actor.sign_key = wallet.current_sign_key()


def forged_key_id(role, message):
    """An intercept naming a key id that no document holds in AUTH."""
    if message[0] == MSG_AUTH:
        return forge(message, Auth, verification_key_id="sign-ffffffff")
    return message


def owner_wire(device: Actor, context: Did | None = None) -> list:
    """The wire array of a household device's presentation of its owner claim,
    under a context issuer: the commitments [null, type] and the owner opening."""
    stored = device.credentials[0]
    assert stored.credential.claim_names() == ("owner", "type")
    p = present(stored.credential, stored.openings, ["owner"])
    return from_cbor(pack(PresentationWire.of(p, context)))


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
        auth_ack, request, presentation = session_r.step(auth, NOW)
        assert auth_ack[0] == 0x04
        assert request[0] == 0x05
        assert presentation[0] == MSG_CRED_PRESENT
        assert session_i.step(auth_ack, NOW) == []


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


def test_golden_messages_are_sealed_exactly_once_there_are_keys():
    """HELLO, HELLO_ACK, AUTH and AUTH_ACK leave before either side holds keys,
    so they travel plain; every later message is a sealed record."""
    plain = {MSG_HELLO: Hello, MSG_HELLO_ACK: Hello, MSG_AUTH: Auth, MSG_AUTH_ACK: Auth}
    golden = json.loads(GOLDEN_MESSAGES.read_text(encoding="utf-8"))
    for message in (bytes.fromhex(m) for messages in golden.values() for m in messages):
        if message[0] in plain:
            unpack(plain[message[0]], message[1:])
        else:
            counter, start = read_uint(message, 1)
            assert counter >= 1 and len(message) - start >= 16  # at least the AEAD tag


# What one LoRa frame carries after the 8-byte frame header.
LORA_PAYLOAD = transport.PROFILES["lora"].mtu - transport.HEADER_LEN
README = ROOT / "README.md"
GOLDEN_REPORT = ROOT / "tests" / "golden" / "owner-two-devices.report.json"


def readme_table() -> list[str]:
    """The README handshake table's current figures, from the goldens: one line
    per row with its last `bytes (fragments)`, the sender named where the two
    sides' differ, then the totals of the paragraph under the table."""
    goldens = json.loads(GOLDEN_MESSAGES.read_text(encoding="utf-8"))
    figures: dict[int, list[str]] = {}
    for message in map(bytes.fromhex, goldens["owner-two-devices/step-0"]):
        figure = f"{len(message)} ({math.ceil(len(message) / LORA_PAYLOAD)})"
        if figure not in figures.setdefault(message[0], []):
            figures[message[0]].append(figure)
    lines = []
    for tag, stated in figures.items():
        if len(stated) == 2:  # the responder sends its own first
            stated = [f"responder {stated[0]}", f"initiator {stated[1]}"]
        lines.append(f"`0x{tag:02X}` {', '.join(stated)}")
    (step,) = json.loads(GOLDEN_REPORT.read_text(encoding="utf-8"))["steps"]
    per_leg = step["fragments_per_message"]
    lines.append(
        f"totals: {sum(per_leg)} LoRa data fragments [{','.join(map(str, per_leg))}],"
        f" {step['frames']} frames, {step['bytes_sent']:,} B, {step['ticks']} ticks"
    )
    return lines


class TestWireSize:
    """The owner-two-devices handshake as its LoRa link carries it: 9 messages in 6 legs."""

    TAGS = [0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x06, 0x07, 0x07]
    # The responder's CRED_PRESENT spells out its issuer, the context issuer
    # that the initiator's names by null.
    MESSAGE_BYTES = [135, 133, 73, 73, 25, 214, 180, 19, 19]
    LORA_FRAGMENTS = [1, 1, 1, 2, 1, 1]  # one transport message per leg
    AIR_BYTES = 933  # data frames and the ACKs riding them
    HELLO_MARGIN = 79  # what the largest HELLO leaves of one LoRa fragment's payload
    # 7 data frames, 6 of them carrying an ACK; the last leg's goes last, so no ACK goes alone
    FRAMES = 7
    TICKS = 6  # a leg a tick, each answering the one before

    def test_owner_two_devices_message_sizes_and_fragments(self):
        messages = [
            bytes.fromhex(m) for m in scenario_handshake_messages()["owner-two-devices/step-0"]
        ]
        assert [m[0] for m in messages] == self.TAGS
        assert [len(m) for m in messages] == self.MESSAGE_BYTES
        report = harness.run_scenario(
            harness.Scenario.load(str(ROOT / "scenarios" / "owner-two-devices.scn"))
        )
        (step,) = report.steps
        assert step.outcome == "trusted"
        assert list(step.fragments_per_message) == self.LORA_FRAGMENTS
        assert sum(step.fragments_per_message) <= 9
        assert step.bytes_sent == self.AIR_BYTES
        assert step.frames == self.FRAMES
        assert step.ticks == self.TICKS

    def test_every_hello_of_the_shipped_scenarios_is_one_lora_fragment(self):
        """A peer HELLO omits both copies of its DID, which the reader derives
        from the document, and each default key id, which the reader derives
        from the key, its body's version and retired keys, which the reader
        restores for a genesis body, its endpoint's default id and the type its
        address's scheme names, and no nonce, so it fits one 214-byte LoRa
        payload: the owner-two-devices HELLO is 135 B, a margin of 79 B, as the
        README says. A reg HELLO carries its DID and no document."""
        hellos = [
            bytes.fromhex(m) for messages in scenario_handshake_messages().values()
            for m in messages if m[:2] in ("01", "02")
        ]
        assert len(hellos) == 8  # a HELLO and a HELLO_ACK in each of 4 handshakes
        assert all(len(m) <= LORA_PAYLOAD for m in hellos)
        assert LORA_PAYLOAD - max(len(m) for m in hellos) == self.HELLO_MARGIN
        stated = re.findall(r"fragment \((\d+) B, (\d+) B to spare\)", README.read_text("utf-8"))
        assert stated == [(str(self.MESSAGE_BYTES[0]), str(self.HELLO_MARGIN))]

    def test_owner_two_devices_at_sf12_saves_whole_fragments(self):
        """At LoRa SF12 (a 51-byte MTU, so 43 B of payload per fragment) the
        derived key ids and DID values save a fragment in each HELLO leg and
        in each presentation leg, the implied issuer value and the raw key
        and credential ids one more in each presentation leg, and the shared
        issuer by reference one more in the initiator's: 24 fragments, where
        sending them all took 31. AUTH_ACK rides the responder's presentation
        leg, which fills 8 fragments. The derived endpoint fields, the verdict
        as one value, one-field records as their field and the batch's
        unprefixed last message save 35 B, no fragment. The last leg, sent
        last, draws no ACK: 4 B and a tick less."""
        sf12 = transport.LinkProfile(name="lora-sf12", mtu=51)
        make_link = harness.make_link
        with mock.patch.object(
            harness, "make_link", lambda profile, **kwargs: make_link(sf12, **kwargs)
        ):
            report = harness.run_scenario(
                harness.Scenario.load(str(ROOT / "scenarios" / "owner-two-devices.scn"))
            )
        (step,) = report.steps
        assert step.outcome == "trusted"
        assert list(step.fragments_per_message) == [4, 4, 2, 8, 5, 1]
        assert (step.bytes_sent, step.ticks) == (1085, self.TICKS)

    def _reg_pairing_on_ble(self, camera_owner):
        """A pairing of two reg devices on BLE, the shape of the fleet-ble
        benchmark's pairings: the camera owned by `camera_owner` (alice, the
        lock's owner, or bob), which issued its credential, and each side
        trusting what its own owner issued. The run, the bytes on the air, and
        the issuer slot of each presentation sent, the lock's first."""
        registry, alice, camera, lock = reg_household()
        bob = build_actor("bob", 4, registry)
        introduce(alice, bob, camera, lock)
        owner = alice
        if camera_owner == "bob":
            owner, camera.credentials = bob, ()
            give_owner_credential(bob, camera, 10, {"type": "Camera"})
        session_i, hello = initiate(owner_match_config(camera, owner, 1), now=NOW)
        session_r = respond(owner_match_config(lock, alice, 2), now=NOW)
        link = transport.make_link("ble", a="camera", b="lock")
        made, of = [], PresentationWire.of
        with mock.patch.object(
            PresentationWire, "of", lambda p, context: made.append(of(p, context)) or made[-1]
        ):
            run = harness.drive_handshake(link, session_i, hello, session_r, NOW)
        return run, link.bytes_on_wire(), [wire.issuer for wire in made], (alice, bob)

    def test_same_owner_reg_pairing_on_ble_sends_leg_5_in_one_fragment(self):
        """The responder's presentation leg, with AUTH_ACK, is 316 B: two
        236-byte BLE payloads. The initiator's names the shared issuer by
        null, 201 B, and with its riding ACK is a 209 B packet: one frame."""
        run, air_bytes, issuers, (alice, _) = self._reg_pairing_on_ble("alice")
        assert run.outcome() == "trusted"
        assert issuers == [alice.did, None]
        assert run.fragments_per_message == [1, 1, 1, 2, 1, 1]
        assert air_bytes == 809

    def test_cross_owner_reg_pairing_on_ble_presents_nothing_to_the_other_owner(self):
        """The lock's request names alice, and the camera holds only bob's
        credential, so its CRED_PRESENT goes empty: leg 5 is one BLE fragment,
        674 B in all. Sending bob's credential, which the lock's policy can only
        refuse as `issuer`, made leg 5 241 B, two fragments, and 871 B while
        the last leg still drew an ACK."""
        run, air_bytes, issuers, (alice, bob) = self._reg_pairing_on_ble("bob")
        assert run.outcome() == "untrusted(issuer)"
        assert run.responder.my_verdict == Verdict(False, "no valid credentials")
        assert issuers == [alice.did]
        assert run.fragments_per_message == [1, 1, 1, 2, 1, 1]
        assert air_bytes == 674

    def test_readme_handshake_table_states_the_pinned_figures(self):
        """The README's message table and the paragraph under it give today's
        figures: the last stage's `bytes (fragments)` of each row, one for
        each direction in sending order where the two differ, and the totals."""
        text = README.read_text(encoding="utf-8")
        stated = {
            int(tag, 16): re.findall(r"(\d+) \((\d+)\)", last)
            for tag, last in re.findall(r"^\| `0x(0[1-7])` \|.*→ ([^→]*) \|$", text, re.M)
        }
        pinned: dict[int, list] = {}
        for tag, size in zip(self.TAGS, self.MESSAGE_BYTES):
            figure = (str(size), str(math.ceil(size / LORA_PAYLOAD)))
            if figure not in pinned.setdefault(tag, []):
                pinned[tag].append(figure)
        assert stated == pinned
        assert len(pinned[MSG_CRED_PRESENT]) == 2
        total = re.search(
            r"now (\d+) LoRa data fragments `\[([\d,]+)\]`.*? (\d+) frames and ([\d,]+) B"
            r".*? in (\d+) ticks",
            text, re.S,
        )
        assert total is not None
        fragments, per_leg, frames, air_bytes, ticks = total.groups()
        assert int(fragments) == sum(self.LORA_FRAGMENTS)
        assert [int(n) for n in per_leg.split(",")] == self.LORA_FRAGMENTS
        assert int(frames) == self.FRAMES
        assert int(air_bytes.replace(",", "")) == self.AIR_BYTES
        assert int(ticks) == self.TICKS

    def test_readme_table_command_prints_the_stated_figures(self):
        """`--readme-table` prints, from the goldens, the last figure of each row
        of the README's table, and the pinned totals."""
        text = README.read_text(encoding="utf-8")
        *rows, totals = readme_table()
        assert len(rows) == len(set(self.TAGS))
        for row in rows:
            tag, figures = row.split(" ", 1)
            assert re.search(rf"^\| {tag} \|.*→ {re.escape(figures)} \|$", text, re.M), row
        assert totals == (
            f"totals: {sum(self.LORA_FRAGMENTS)} LoRa data fragments"
            f" [{','.join(map(str, self.LORA_FRAGMENTS))}], {self.FRAMES} frames,"
            f" {self.AIR_BYTES:,} B, {self.TICKS} ticks"
        )

    def test_readme_scenarios_paragraph_states_the_pinned_figures(self):
        """The Scenarios section's step description gives the same totals."""
        text = README.read_text(encoding="utf-8")
        stated = re.findall(
            r"owner-two-devices` handshake, .*? takes\s+(\d+)\s+ticks,\s+(\d+)\s+frames"
            r"\s+and\s+([\d,]+) B",
            text, re.S,
        )
        assert len(stated) == 1
        ((ticks, frames, air_bytes),) = stated
        assert int(ticks) == self.TICKS
        assert int(frames) == self.FRAMES
        assert int(air_bytes.replace(",", "")) == self.AIR_BYTES


class TestHonestRun:
    def test_both_sides_reach_trusted_under_owner_match(self, household):
        cfg_i, cfg_r, (alice, camera, lock) = household_configs(household)
        session_i, session_r, legs = run_direct(cfg_i, cfg_r, peer_hint=lock.did)
        assert session_i.state == State.TRUSTED
        assert session_r.state == State.TRUSTED
        assert session_i.peer_did == lock.did
        assert session_r.peer_did == camera.did
        assert session_i.peer_verdict.ok and session_r.peer_verdict.ok

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
        body = unpack(Hello, hello[1:])
        assert body.did is None
        assert body.document == cfg_i.document.body()

    def test_hello_carries_did_only_for_reg_method(self):
        registry = Registry()
        actor = build_actor("regdev", 5, registry, method="reg")
        cfg = SessionConfig(
            document=actor.document, sign_key=actor.sign_key,
            resolver=actor.resolver, policy=AlwaysTrust(),
        )
        _, hello = initiate(cfg, now=NOW)
        body = unpack(Hello, hello[1:])
        assert body.document is None
        assert body.did == actor.did

    def test_two_initiations_use_distinct_nonces_and_ephemerals(self, household):
        cfg_i, _, _ = household_configs(household)
        cfg_i.rng = None  # fresh randomness
        first, _ = initiate(cfg_i, now=NOW)
        second, _ = initiate(cfg_i, now=NOW)
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

    def test_document_without_a_wire_form_rejected_at_start(self, household):
        """A DID of a method with no wire form cannot travel in a HELLO, so
        neither role opens a session with it."""
        cfg_i, cfg_r, _ = household_configs(household)
        for cfg in (cfg_i, cfg_r):
            cfg.document = replace(cfg.document, id=Did("web", "abc"))
        with pytest.raises(HandshakeError, match="no wire form"):
            initiate(cfg_i, now=NOW)
        with pytest.raises(HandshakeError, match="no wire form"):
            respond(cfg_r, now=NOW)

    def test_key_pair_with_a_listed_id_but_other_bytes_rejected_at_initiate(self, household):
        cfg_i, _, _ = household_configs(household)
        cfg_i.sign_key = replace(crypto.keygen(crypto.PURPOSE_SIGN), key_id=cfg_i.sign_key.key_id)
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
            SessionConfig.from_wallet(Wallet(), Resolver(Registry()))


class TestAuthFailures:
    def test_auth_signed_by_foreign_key_fails(self, household):
        cfg_i, cfg_r, _ = household_configs(household)
        rogue = crypto.keygen(crypto.PURPOSE_SIGN)

        def intercept(role, message):
            if message[0] == MSG_AUTH:
                return forge(message, Auth, signature=crypto.sign(rogue, b"anything"))
            return message

        session_i, session_r, legs = run_direct(cfg_i, cfg_r, intercept=intercept)
        assert session_r.state == State.FAILED
        assert session_r.failure_reason == "auth"
        # The responder opens layer 2 only once AUTH verifies: its answer is a
        # plaintext ERROR alone, with no request and no presentation.
        assert session_r.session_keys is None
        assert [[m[0] for m in leg] for leg in legs[3:]] == [[MSG_ERROR]]
        assert (session_i.state, session_i.failure_reason) == (State.FAILED, "peer: auth")

    def test_unknown_key_id_in_auth_fails(self, household):
        cfg_i, cfg_r, _ = household_configs(household)

        def intercept(role, message):
            if message[0] == MSG_AUTH:
                return forge(message, Auth, verification_key_id="sign-ffffffff")
            return message

        _, session_r, _ = run_direct(cfg_i, cfg_r, intercept=intercept)
        assert session_r.state == State.FAILED
        assert session_r.failure_reason == "auth"

    def test_forged_auth_ack_draws_no_presentation(self, household):
        # The initiator presents only in answer to the responder's CRED_PRESENT,
        # which it never opens once AUTH_ACK fails to verify.
        cfg_i, cfg_r, _ = household_configs(household)
        rogue = crypto.keygen(crypto.PURPOSE_SIGN, seed=bytes(32))

        def intercept(role, message):
            if message[0] == MSG_AUTH_ACK:
                return forge(message, Auth, signature=crypto.sign(rogue, b"anything"))
            return message

        session_i, session_r, legs = run_direct(cfg_i, cfg_r, intercept=intercept)
        assert (session_i.state, session_i.failure_reason) == (State.FAILED, "auth")
        assert session_i.session_keys is None
        assert session_i.presented == []
        sent = [m for leg in legs[0::2] for m in leg]
        assert [m[0] for m in sent] == [MSG_HELLO, MSG_AUTH, MSG_ERROR]
        assert b"auth" in sent[-1]  # no keys, so the ERROR travels in plaintext

    def test_auth_replayed_into_a_new_session_fails(self, household):
        # A HELLO carries no nonce: each session's fresh ephemeral keys make its
        # transcript fresh. Sessions between the same two configs draw new ones.
        cfg_i, cfg_r, _ = household_configs(household)
        recorded = {}

        def record(role, message):
            recorded.setdefault(message[0], message)
            return message

        first_i, first_r, _ = run_direct(cfg_i, cfg_r, intercept=record)
        assert first_i.state == first_r.state == State.TRUSTED

        # The recorded AUTH in a new honest session, in place of the fresh one.
        def replay(role, message):
            return recorded[MSG_AUTH] if message[0] == MSG_AUTH else message

        _, session_r, _ = run_direct(cfg_i, cfg_r, intercept=replay)
        assert (session_r.state, session_r.failure_reason) == (State.FAILED, "auth")
        # The recorded HELLO and AUTH alone, replayed to a new responder.
        session_r = respond(cfg_r, now=NOW)
        (hello_ack,) = session_r.step(recorded[MSG_HELLO], NOW)
        assert hello_ack != recorded[MSG_HELLO_ACK]
        session_r.step(recorded[MSG_AUTH], NOW)
        assert (session_r.state, session_r.failure_reason) == (State.FAILED, "auth")

    @pytest.mark.parametrize("stored", [True, False], ids=["stored", "from-hello"])
    def test_unknown_key_id_of_a_peer_did_reads_no_registry(self, household, stored):
        # A peer document is frozen, whether stored or derived from the HELLO.
        cfg_i, cfg_r, _ = household_configs(household)
        registry = cfg_r.resolver.registry
        if not stored:
            cfg_r.resolver = Resolver(registry)
        _, session_r, _ = run_direct(cfg_i, cfg_r, intercept=forged_key_id)
        assert (session_r.state, session_r.failure_reason) == (State.FAILED, "auth")
        assert registry.read_count == 0

    def test_substituted_ephemeral_breaks_transcript(self, household):
        cfg_i, cfg_r, _ = household_configs(household)
        mitm = crypto.keygen(crypto.PURPOSE_AGREE)

        def intercept(role, message):
            if message[0] == MSG_HELLO:
                return forge(message, Hello, ephemeral=mitm.public)
            return message

        session_i, session_r, _ = run_direct(cfg_i, cfg_r, intercept=intercept)
        failed = [s for s in (session_i, session_r) if s.state == State.FAILED]
        assert any(s.failure_reason == "auth" for s in failed)

    def test_substituted_static_key_breaks_self_certification(self, household):
        cfg_i, cfg_r, _ = household_configs(household)
        mitm = crypto.keygen(crypto.PURPOSE_SIGN)

        def intercept(role, message):
            if message[0] == MSG_HELLO:
                doc = unpack(Hello, message[1:]).document
                keys = (replace(doc.public_keys[0], public=mitm.public),) + doc.public_keys[1:]
                return forge(message, Hello, document=replace(doc, public_keys=keys))
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


class TestStaleDocument:
    """A cached reg document that does not know the key an AUTH names is re-read once."""

    @pytest.mark.parametrize("rotating", ["initiator", "responder"])
    def test_pairing_after_a_rotation_re_reads_once(self, rotating):
        registry, alice, camera, lock = reg_household()
        rotated = camera if rotating == "initiator" else lock
        rotate(rotated, registry, NOW + 10)
        for now, reads in ((NOW + 20, 1), (NOW + 30, 0)):
            before = registry.read_count
            session_i, session_r, _ = run_direct(
                owner_match_config(camera, alice, 1), owner_match_config(lock, alice, 2),
                now=now,
            )
            assert session_i.state == session_r.state == State.TRUSTED
            assert registry.read_count - before == reads
            verifier = session_r if rotating == "initiator" else session_i
            assert verifier.peer_document == rotated.document

    def test_unknown_key_id_costs_at_most_one_read_per_session(self):
        registry, alice, camera, lock = reg_household()
        reads = []
        for now in (NOW + 10, NOW + 20, NOW + 20):
            before = registry.read_count
            _, session_r, _ = run_direct(
                owner_match_config(camera, alice, 1), owner_match_config(lock, alice, 2),
                now=now, intercept=forged_key_id,
            )
            assert (session_r.state, session_r.failure_reason) == (State.FAILED, "auth")
            reads.append(registry.read_count - before)
        # The second session at NOW + 20 finds the document read at that instant.
        assert reads == [1, 1, 0]


class TestRegistryRollback:
    """A resolver that accepted a rotated document refuses the older version a
    cut registry log serves, so a pairing with that peer fails `resolve`."""

    @pytest.mark.parametrize("when", ["after-the-ttl", "at-the-re-read"])
    def test_pairing_with_a_rolled_back_peer_fails_resolve(self, when):
        registry, alice, camera, lock = reg_household()
        rotate(camera, registry, NOW + 10)
        assert lock.resolver.resolve(camera.did, NOW + 20, camera.sign_key.key_id).version == 2
        lock.resolver.registry = cut_registry(registry, 2)  # the two geneses
        # After the TTL, HELLO re-reads the camera's document; within it, an
        # AUTH that names a key the cached document does not know does.
        now, intercept = (
            (NOW + 20 + DEFAULT_TTL, None) if when == "after-the-ttl"
            else (NOW + 30, forged_key_id)
        )
        session_i, session_r, _ = run_direct(
            owner_match_config(camera, alice, 1), owner_match_config(lock, alice, 2),
            now=now, intercept=intercept,
        )
        assert (session_r.state, session_r.failure_reason) == (State.FAILED, "resolve")
        assert session_i.failure_reason == "peer: resolve"
        assert lock.resolver._cache[camera.did].document == camera.document


class TestProtocolOrder:
    def test_out_of_order_message_fails_protocol(self, household):
        cfg_i, cfg_r, _ = household_configs(household)
        session_r = respond(cfg_r, now=NOW)
        auth_like = bytes([MSG_AUTH]) + cbor_bytes(["x", b"\x00"])
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

    def test_complete_session_ignores_what_arrives(self, household):
        # Both verdicts are in: a spoofed ERROR, a replayed record or junk
        # changes nothing on either side.
        cfg_i, cfg_r, _ = household_configs(household)
        session_i, hello = initiate(cfg_i, now=NOW)
        session_r = respond(cfg_r, now=NOW)
        link = transport.make_link("lossless", a="camera", b="lock")
        run = harness.drive_handshake(link, session_i, hello, session_r, NOW)
        assert run.outcome() == "trusted"
        spoofed = bytes([MSG_ERROR]) + pack(Error("spoofed"))
        replayed = session_i._seal(MSG_TRUST_RESULT, pack(Verdict(False, "replayed")))
        for session in (session_i, session_r):
            verdicts = (session.my_verdict, session.peer_verdict)
            for late in (spoofed, replayed, bytes([MSG_HELLO]) + b"junk", b""):
                assert session.step(late, NOW) == []
            assert (session.state, session.failure_reason) == (State.TRUSTED, None)
            assert (session.my_verdict, session.peer_verdict) == verdicts
        assert run.outcome() == "trusted"

    def test_plaintext_error_to_a_secure_session_is_dropped(self, household):
        # A plaintext ERROR that nobody signed or sealed once ended a Secure
        # session as `peer: spoofed`. Once there is a channel, it is dropped.
        session_i, session_r, records = secure_pair(household)
        spoofed = bytes([MSG_ERROR]) + pack(Error("spoofed"))
        for session in (session_i, session_r):
            assert session.step(spoofed, NOW) == []
            assert (session.state, session.failure_reason) == (State.SECURE, None)
        # The handshake goes on to both verdicts.
        replies = [r for m in records for r in session_i.step(m, NOW)]
        for m in replies:
            session_r.step(m, NOW)
        assert session_i.state == session_r.state == State.TRUSTED

    def test_error_in_a_channel_state_travels_sealed(self, household):
        session_i, session_r, _ = secure_pair(household)
        (error,) = session_r._fail("bye")
        assert error[0] == MSG_ERROR and b"bye" not in error
        # A tampered copy does not open, and is dropped.
        assert session_i.step(error[:-1] + bytes([error[-1] ^ 1]), NOW) == []
        assert session_i.state == State.SECURE
        assert session_i.step(error, NOW) == []
        assert (session_i.state, session_i.failure_reason) == (State.FAILED, "peer: bye")

    @pytest.mark.parametrize(
        ("state", "tag", "body"),
        [
            (State.SECURE, MSG_CRED_REQUEST, CredRequest(("owner",), None)),
            (State.SECURE, MSG_CRED_PRESENT, CredPresent(())),
            (State.TRUSTED, MSG_TRUST_RESULT, Verdict(True)),
            (State.UNTRUSTED, MSG_TRUST_RESULT, Verdict(False, "owner mismatch")),
        ],
        ids=["secure-request", "secure-present", "trusted-result", "untrusted-result"],
    )
    def test_plaintext_message_fails_channel_once_there_are_keys(
        self, household, state, tag, body
    ):
        """A session that holds keys opens every message, so a plaintext body
        under a tag its channel state accepts fails `channel`. The same bytes
        fail `protocol` at a session with no keys, whose state accepts no such tag."""
        session_i, _, records = secure_pair(household, responder_presents=state != State.UNTRUSTED)
        if state != State.SECURE:
            for record in records:
                session_i.step(record, NOW)
        assert (session_i.state, session_i.peer_verdict) == (state, None)
        plaintext = bytes([tag]) + pack(body)
        assert session_i.step(plaintext, NOW) != []
        assert (session_i.state, session_i.failure_reason) == (State.FAILED, "channel")
        keyless = respond(household_configs(household)[1], now=NOW)
        assert keyless.step(plaintext, NOW) != []
        assert (keyless.state, keyless.failure_reason) == (State.FAILED, "protocol")

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
                session.step(bytes([tag]) + cbor_bytes([]), NOW)
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
                auth_ack, *_ = session_r.step(auth, NOW)
                session_i.step(auth_ack, NOW)
                victim = session_i if victim_role == "initiator" else session_r
                assert victim.state == State.SECURE
                victim.step(bytes([tag]) + bytes(40), NOW)
                assert victim.state in (State.SECURE, State.FAILED)
                if victim.state is State.FAILED:
                    assert victim.failure_reason in ("protocol", "channel", "peer: unspecified")


class TestTotality:
    """step() never raises: malformed input ends in FAILED with a reason."""

    def _hello_with(self, edit, initiator, responder):
        """The responder after a HELLO whose wire array `edit` changed in place."""
        _, hello = initiate(initiator, now=NOW)
        body = from_cbor(hello[1:])
        edit(body)
        session_r = respond(responder, now=NOW)
        assert session_r.step(bytes([MSG_HELLO]) + cbor_bytes(body), NOW) != []
        return session_r

    def test_list_valued_retired_key_id_fails_protocol(self, household):
        def edit(body):
            # A genesis body travels without its version and retired keys; this
            # one spells them out, one retired key [key_id, public, retired_at]
            # with its key id an array.
            document = body[slot(Hello, "document")]
            document += [1, [[["k"], bytes(32), 1]]]

        session_r = self._hello_with(edit, *household_configs(household)[:2])
        assert (session_r.state, session_r.failure_reason) == (State.FAILED, "protocol")

    def test_non_string_key_id_fails_protocol(self, household):
        def edit(body):
            # The text slot of the first key's id holds an integer.
            document = body[slot(Hello, "document")]
            document[slot(DocumentBody, "public_keys")][0][slot(PublicKeyEntry, "key_id")] = 7

        session_r = self._hello_with(edit, *household_configs(household)[:2])
        assert (session_r.state, session_r.failure_reason) == (State.FAILED, "protocol")

    @pytest.mark.parametrize("index", [len(crypto.PURPOSES), -1], ids=["past-the-end", "negative"])
    def test_key_purpose_index_out_of_range_fails_protocol(self, household, index):
        def edit(body):
            key = body[slot(Hello, "document")][slot(DocumentBody, "public_keys")][0]
            key[slot(PublicKeyEntry, "purpose")] = index

        session_r = self._hello_with(edit, *household_configs(household)[:2])
        assert (session_r.state, session_r.failure_reason) == (State.FAILED, "protocol")

    def test_default_shaped_key_id_spelled_out_in_auth_fails_protocol(self, household):
        cfg_i, cfg_r, _ = household_configs(household)
        key_id = cfg_i.sign_key.key_id

        def intercept(role, message):
            if message[0] == MSG_AUTH:
                prefix, signature = from_cbor(message[1:])
                assert prefix == crypto.digest(cfg_i.sign_key.public)[:4]
                return message[:1] + cbor_bytes([key_id, signature])
            return message

        _, session_r, _ = run_direct(cfg_i, cfg_r, intercept=intercept)
        assert (session_r.state, session_r.failure_reason) == (State.FAILED, "protocol")

    def test_default_key_id_spelled_out_fails_protocol(self, household):
        cfg_i, cfg_r, _ = household_configs(household)

        def edit(body):
            # A key has one wire form: its default id travels as null.
            key = body[slot(Hello, "document")][slot(DocumentBody, "public_keys")][0]
            assert key[slot(PublicKeyEntry, "key_id")] is None
            key[slot(PublicKeyEntry, "key_id")] = cfg_i.sign_key.key_id

        session_r = self._hello_with(edit, cfg_i, cfg_r)
        assert (session_r.state, session_r.failure_reason) == (State.FAILED, "protocol")

    # An opening's value is a DID's wire bytes or text that is not DID text.
    @pytest.mark.parametrize("value", [b"\x07" + bytes(32), b"\x01", b"", None],
                             ids=["unknown-method-byte", "no-id", "empty", "did-as-text"])
    def test_opening_value_of_no_did_bytes_fails_protocol(self, household, value):
        session_i, session_r, _ = secure_pair(household)
        wire = owner_wire(household[2])
        (opening,) = wire[slot(PresentationWire, "disclosed")]
        # None: the owner DID written as text, where its wire bytes must travel.
        opening[slot(ClaimOpening, "value")] = str(household[0].did) if value is None else value
        record = session_r._seal(MSG_CRED_PRESENT, cbor_bytes([wire]))  # the presentations
        assert session_i.step(record, NOW) != []
        assert (session_i.state, session_i.failure_reason) == (State.FAILED, "protocol")

    # A document body that breaks a document invariant decodes as no Hello, on
    # either side: the body record holds the invariants, so its decode fails.
    @pytest.mark.parametrize("tag", [MSG_HELLO, MSG_HELLO_ACK], ids=["hello", "hello-ack"])
    @pytest.mark.parametrize("edit", [
        lambda document: document[slot(DocumentBody, "public_keys")].clear(),
        lambda document: document[slot(DocumentBody, "public_keys")].append(
            document[slot(DocumentBody, "public_keys")][0]
        ),
        # A genesis body's version does not travel: one spelled out, as 0, is refused.
        lambda document: document.extend([0, []]),
    ], ids=["no-keys", "duplicate-key-id", "version-zero"])
    def test_document_body_that_breaks_an_invariant_fails_protocol(self, household, tag, edit):
        cfg_i, cfg_r, _ = household_configs(household)
        session_i, hello = initiate(cfg_i, now=NOW)
        session_r = respond(cfg_r, now=NOW)
        if tag == MSG_HELLO:
            victim, message = session_r, hello
        else:
            victim, (message,) = session_i, session_r.step(hello, NOW)
        body = from_cbor(message[1:])
        edit(body[slot(Hello, "document")])
        assert victim.step(bytes([tag]) + cbor_bytes(body), NOW) != []
        assert (victim.state, victim.failure_reason) == (State.FAILED, "protocol")

    # A HELLO has one wire form: a DID and no document, or a document without
    # its id and no DID, the DID derived from the document.
    def test_peer_hello_that_also_carries_its_did_fails_protocol(self, household):
        cfg_i, cfg_r, _ = household_configs(household)

        def edit(body):
            assert body[slot(Hello, "did")] is None
            body[slot(Hello, "did")] = cfg_i.did.to_wire()

        session_r = self._hello_with(edit, cfg_i, cfg_r)
        assert (session_r.state, session_r.failure_reason) == (State.FAILED, "protocol")

    def test_document_that_still_has_its_id_slot_fails_protocol(self, household):
        cfg_i, cfg_r, _ = household_configs(household)

        def edit(body):
            body[slot(Hello, "document")].insert(0, cfg_i.did.to_wire())

        session_r = self._hello_with(edit, cfg_i, cfg_r)
        assert (session_r.state, session_r.failure_reason) == (State.FAILED, "protocol")

    def test_reg_hello_that_carries_a_document_fails_protocol(self, household):
        registry = Registry()
        alice, cam, lock = (
            build_actor(name, seed, registry, method="reg")
            for name, seed in (("alice", 1), ("cam", 2), ("lock", 3))
        )
        peer_document = household[1].document

        def edit(body):
            assert body[slot(Hello, "document")] is None
            body[slot(Hello, "document")] = from_cbor(pack(peer_document.body()))

        session_r = self._hello_with(
            edit, owner_match_config(cam, alice, 1), owner_match_config(lock, alice, 2)
        )
        assert (session_r.state, session_r.failure_reason) == (State.FAILED, "protocol")

    @pytest.mark.parametrize("body", [
        b"\xc2\x59\x13\x88" + b"\xff" * 5000,  # a 5000-byte bignum: tags are not wire form
        b"\x81" * 100_000,                    # arrays beyond the recursion limit
    ], ids=["long-integer", "deep-nesting"])
    def test_unparseable_hello_fails_protocol(self, household, body):
        _, cfg_r, _ = household_configs(household)
        session_r = respond(cfg_r, now=NOW)
        assert session_r.step(bytes([MSG_HELLO]) + body, NOW) != []
        assert (session_r.state, session_r.failure_reason) == (State.FAILED, "protocol")

    @pytest.mark.parametrize("body, reason", [
        ("auth", "peer: auth"), (["auth"], "peer: unspecified"),
    ], ids=["reason", "reason-in-an-array-of-one"])
    def test_error_travels_as_its_reason(self, household, body, reason):
        cfg_i, _, _ = household_configs(household)
        session_i, _ = initiate(cfg_i, now=NOW)
        assert session_i.step(bytes([MSG_ERROR]) + cbor_bytes(body), NOW) == []
        assert (session_i.state, session_i.failure_reason) == (State.FAILED, reason)

    # The i-th endpoint's default id, `ep-<i>`, and a type that is its
    # address's scheme travel as null: spelled out, or a null type for an
    # address with no scheme, they do not decode.
    @pytest.mark.parametrize("field, value", [
        ("endpoint_id", "ep-1"), ("type", "sim-link"), ("address", "camera"),
    ], ids=["default-id-spelled-out", "scheme-type-spelled-out", "null-type-without-scheme"])
    def test_endpoint_in_a_second_spelling_fails_protocol(self, household, field, value):
        def edit(body):
            (endpoint,) = body[slot(Hello, "document")][slot(DocumentBody, "service_endpoints")]
            assert endpoint == [None, None, "sim-link://camera"]
            endpoint[slot(_EndpointWire, field)] = value

        session_r = self._hello_with(edit, *household_configs(household)[:2])
        assert (session_r.state, session_r.failure_reason) == (State.FAILED, "protocol")

    def test_error_message_that_is_not_a_mapping(self, household):
        cfg_i, _, _ = household_configs(household)
        session_i, _ = initiate(cfg_i, now=NOW)
        assert session_i.step(bytes([MSG_ERROR]) + b"[]", NOW) == []
        assert session_i.failure_reason == "peer: unspecified"

    def test_presentations_not_a_list_fails_protocol(self, household):
        session_i, session_r, _ = secure_pair(household)
        record = session_r._seal(MSG_CRED_PRESENT, cbor_bytes(5))  # the presentations
        session_i.step(record, NOW)
        assert (session_i.state, session_i.failure_reason) == (State.FAILED, "protocol")

    # `body` maps the honest AUTH array (None for other tags) to the body sent.
    @pytest.mark.parametrize("tag, body", [
        (MSG_AUTH, lambda auth: auth + [1]),              # [key_id, signature, extra]
        (MSG_AUTH, lambda auth: [auth[0], bytes(63)]),
        (MSG_CRED_PRESENT, lambda _: None),               # presentations
        (MSG_CRED_PRESENT, lambda _: [[5, []]]),          # [[credential, disclosed]]
        (MSG_TRUST_RESULT, lambda _: 5),                  # null or the reason
        # The second spelling of a verdict, and of a one-field record.
        (MSG_TRUST_RESULT, lambda _: [True, None]),
        (MSG_TRUST_RESULT, lambda _: [False, "x"]),
        (MSG_CRED_REQUEST, lambda _: [["owner"]]),
        (MSG_CRED_PRESENT, lambda _: [[]]),
    ], ids=["auth-extra-field", "auth-short-signature", "present-without-presentations",
            "present-undecodable", "result-reason-not-a-string", "result-as-ok-and-no-reason",
            "result-as-failure-and-reason", "request-in-an-array-of-one",
            "presentations-in-an-array-of-one"])
    def test_body_that_does_not_decode_fails_protocol(self, household, tag, body):
        cfg_i, cfg_r, _ = household_configs(household)
        if tag == MSG_AUTH:
            session_i, hello = initiate(cfg_i, now=NOW)
            victim = respond(cfg_r, now=NOW)
            (auth,) = session_i.step(*victim.step(hello, NOW), NOW)
            message = bytes([MSG_AUTH]) + cbor_bytes(body(from_cbor(auth[1:])))
        else:
            victim, sender, records = secure_pair(household)
            if tag == MSG_TRUST_RESULT:
                # The initiator has its own verdict and waits for the responder's.
                for message in records:
                    victim.step(message, NOW)
                assert victim.state == State.TRUSTED
            message = sender._seal(tag, cbor_bytes(body(None)))
        assert victim.step(message, NOW) != []
        assert (victim.state, victim.failure_reason) == (State.FAILED, "protocol")

    def test_did_gone_at_re_read_fails_resolve(self):
        registry, alice, camera, lock = reg_household()
        lock.resolver.registry = Registry()  # the camera's DID is gone from it
        rotate(camera, registry, NOW + 10)
        _, session_r, _ = run_direct(
            owner_match_config(camera, alice, 1), owner_match_config(lock, alice, 2),
            now=NOW + 20,
        )
        assert (session_r.state, session_r.failure_reason) == (State.FAILED, "resolve")

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_step_never_raises(self, data):
        """Any bytes, in any state a handshake passes through, from either side,
        with a context issuer or, when the lock presents nothing, without one.

        The state is drawn first: the number of honest messages stepped, one
        at a time in the order they travel, before the drawn message arrives
        in place of the next. The drawn message mostly carries that next
        message's tag, and a body shaped like its record; a session that has
        keys mostly gets a sealed record. So the layer-2 readers, such as a
        presentation's restore, see their own input, not only noise.
        """
        alice, camera, lock = _household()
        session_i, hello = initiate(owner_match_config(camera, alice, 1), now=NOW)
        cfg_r = owner_match_config(lock, alice, 2)
        if not data.draw(st.booleans(), label="lock presents"):
            cfg_r.credentials = ()
        session_r = respond(cfg_r, now=NOW)
        target, other, honest, in_flight = session_r, session_i, hello, []
        for _ in range(data.draw(st.integers(0, HONEST_MESSAGES), label="honest messages")):
            in_flight += [(other, target, reply) for reply in target.step(honest, NOW)]
            if not in_flight:
                break  # the handshake is over: the drawn message reaches a finished session
            target, other, honest = in_flight.pop(0)
        tag = honest[0]
        if data.draw(st.booleans(), label="any tag"):
            tag = data.draw(st.sampled_from(ALL_TAGS) | st.integers(0, 255), label="tag")
        value = cbor_bytes(data.draw(_CBOR, label="value"))
        not_wire = data.draw(_NOT_WIRE, label="not wire")
        actor = data.draw(st.sampled_from([alice, camera, lock]), label="doc")
        document = from_cbor(pack(actor.document.body()))
        # The body's endpoints: each slot null (derived), its default spelled
        # out, or drawn, and an address with or without a scheme.
        document[slot(DocumentBody, "service_endpoints")] = data.draw(st.lists(st.tuples(
            st.sampled_from([None, "ep-1", "ep-2"]) | st.text(max_size=4),
            st.sampled_from([None, "sim-link"]) | st.text(max_size=4),
            st.sampled_from([f"sim-link://{actor.name}", "no-scheme"]) | st.text(max_size=6),
        ).map(list), max_size=2), label="endpoints")
        # A peer HELLO's layout: no DID, a document without its id, then the
        # drawn value as ephemeral key.
        hello_layout = b"\x83\xf6" + cbor_bytes(document) + value
        # The camera's presentation with a drawn issuer slot, null slots and openings.
        wire = owner_wire(camera)
        wire[slot(PresentationWire, "issuer")] = data.draw(
            st.sampled_from([None, alice.did.to_wire()]), label="issuer"
        )
        stored = camera.credentials[0]
        wire[slot(PresentationWire, "commitments")] = data.draw(st.lists(
            st.sampled_from([None, *from_cbor(pack(stored.credential.commitments))]), max_size=3,
        ), label="commitments")
        wire[slot(PresentationWire, "disclosed")] = data.draw(st.lists(
            st.sampled_from(from_cbor(pack(stored.openings))), max_size=3,
        ), label="openings")
        presentations = cbor_bytes([wire])
        # A verdict: null (trusted) or a reason.
        verdict = cbor_bytes(data.draw(st.none() | st.text(max_size=8), label="verdict"))
        shaped = {
            MSG_HELLO: hello_layout, MSG_HELLO_ACK: hello_layout, MSG_CRED_PRESENT: presentations,
            MSG_TRUST_RESULT: verdict,
        }.get(tag, value)
        body = data.draw(st.just(shaped) | st.sampled_from([
            value,
            data.draw(st.binary(max_size=96), label="raw"),
            not_wire,
            b"\x82" + value + not_wire,  # a two-field record holding one
            hello_layout,
            presentations,
        ]), label="body")
        plain = bytes([tag]) + body
        flipped = _flip(honest, data.draw(st.integers(0, 8 * len(honest) - 1), label="bit"))
        forms = st.sampled_from([plain, flipped])
        if other.session_keys is not None:
            forms = st.just(other._seal(tag, body)) | forms
        message = data.draw(forms, label="message")
        assert isinstance(target.step(message, NOW), list)


# The messages an honest handshake of the household steps, whether the lock
# presents or not: HELLO, HELLO_ACK, AUTH, the responder's AUTH_ACK,
# CRED_REQUEST and CRED_PRESENT, the initiator's CRED_PRESENT and
# TRUST_RESULT, and the responder's TRUST_RESULT.
HONEST_MESSAGES = 9


# Wire values shaped like message fields: byte strings of key, nonce, signature
# and DID length, key ids, and arrays the length of a record.
_CBOR = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**64), 2**64 - 1)
    | st.text(max_size=6) | st.binary(max_size=8)
    | st.sampled_from([bytes(16), bytes(32), bytes(64), b"\x01" + bytes(32), "sign-00"]),
    lambda inner: st.lists(inner, max_size=5),
    max_leaves=16,
)
# CBOR items outside the wire form, written by hand: maps and floats of each width.
_NOT_WIRE = st.sampled_from([
    b"\xa0", b"\xa1\x61a\x01", b"\xf9\x3e\x00", b"\xfa\x47\xc3\x50\x00",
    b"\xfb\x3f\xf1\x99\x99\x99\x99\x99\x9a",
])


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
        # Responder holds no credential, so it discloses nothing; the initiator
        # trusts anyone and still presents on request, so the responder's
        # policy could check it: a strict responder facing an AlwaysTrust
        # initiator ends trusted on both sides.
        alice, camera, lock = household
        cfg_i = owner_match_config(camera, alice, 700)
        cfg_i.policy = AlwaysTrust()
        cfg_r = owner_match_config(lock, alice, 701)
        cfg_r.credentials = ()
        session_i, session_r, _ = run_direct(cfg_i, cfg_r)
        assert session_r.state == State.TRUSTED   # verified the camera's owner claim
        assert session_i.state == State.TRUSTED   # trusts regardless
        assert session_i.presented == []          # lock disclosed nothing

    def test_strict_initiator_facing_an_always_trust_responder_is_untrusted(self, household):
        # The responder presents in its AUTH_ACK leg, before it hears from the
        # initiator, which sends no request. So it discloses what its own
        # policy would ask: nothing under AlwaysTrust.
        alice, camera, lock = household
        cfg_i = owner_match_config(camera, alice, 704)
        cfg_r = owner_match_config(lock, alice, 705)
        cfg_r.policy = AlwaysTrust()
        session_i, session_r, _ = run_direct(cfg_i, cfg_r)
        assert session_r.state == State.TRUSTED
        assert session_i.presented == []
        assert (session_i.state, session_i.my_verdict) == (
            State.UNTRUSTED, Verdict(False, "no valid credentials"),
        )
        assert session_r.peer_verdict == Verdict(False, "no valid credentials")

    @pytest.mark.parametrize("holder", ["initiator", "responder"])
    def test_credential_without_a_wire_form_never_leaves(self, household, holder):
        # A did:web issuer has no wire byte. The subject does not travel, so the
        # issuer is the credential's one DID that must have a wire form. The
        # lock asks for an owner claim of any issuer: under OwnerMatch it would
        # ask for Alice's, and the camera would not present the did:web one.
        alice, camera, lock = household
        cfg_i, cfg_r, _ = household_configs(household)
        cfg_r.policy = RequireClaim("owner", format_did(alice.did))
        config, device = (cfg_i, camera) if holder == "initiator" else (cfg_r, lock)
        vc, openings = issue(alice.sign_key, Did("web", "abc"), device.did,
                             [Claim("owner", format_did(alice.did))], 3600, NOW)
        config.credentials += (StoredCredential(vc, openings),)
        session_i, session_r, legs = run_direct(cfg_i, cfg_r)
        sender, receiver = (session_i, session_r) if holder == "initiator" else (session_r, session_i)
        assert (sender.state, sender.failure_reason) == (State.FAILED, "credentials")
        assert (receiver.state, receiver.failure_reason) == (State.FAILED, "peer: credentials")
        sent = legs[0::2] if holder == "initiator" else legs[1::2]
        assert MSG_CRED_PRESENT not in [m[0] for leg in sent for m in leg]
        assert sent[-1][-1][0] == MSG_ERROR
        assert b"credentials" not in sent[-1][-1]  # sealed: the reason does not leak


class TestDerivedFields:
    """A presentation's subject and disclosed commitments are derived by its
    reader; no edit of what travels instead makes it count, or raises."""

    def _presented(self, household, edit):
        """The camera after a CRED_PRESENT holding the lock's presentation, its
        wire array changed by `edit`."""
        session_i, session_r, _ = secure_pair(household)
        wire = owner_wire(household[2])
        edit(wire)
        record = session_r._seal(MSG_CRED_PRESENT, cbor_bytes([wire]))  # the presentations
        assert session_i.step(record, NOW) != []
        return session_i

    def _presented_in_leg_5(self, household, edit, responder_presents=True):
        """The lock after the camera's CRED_PRESENT holding its presentation,
        written under the context issuer Alice (or none if the lock presented
        nothing), its wire array changed by `edit`."""
        session_i, session_r, records = secure_pair(household, responder_presents)
        for record in records:
            session_i.step(record, NOW)  # leg 4; the camera's honest answer is dropped
        context = household[0].did if responder_presents else None
        wire = owner_wire(household[1], context)
        edit(wire)
        record = session_i._seal(MSG_CRED_PRESENT, cbor_bytes([wire]))  # the presentations
        assert session_r.step(record, NOW) != []
        return session_r

    def test_honest_presentation_is_restored_and_counts(self, household):
        session_i = self._presented(household, lambda wire: None)
        assert session_i.state == State.TRUSTED
        (p,) = session_i.presented
        assert p.credential == household[2].credentials[0].credential

    def test_honest_presentation_naming_the_context_issuer_by_null_counts(self, household):
        def edit(wire):
            assert wire[slot(PresentationWire, "issuer")] is None

        session_r = self._presented_in_leg_5(household, edit)
        assert session_r.state == State.TRUSTED
        (p,) = session_r.presented
        assert p.credential == household[1].credentials[0].credential

    def test_context_issuer_spelled_out_fails_protocol(self, household):
        def edit(wire):
            wire[slot(PresentationWire, "issuer")] = household[0].did.to_wire()

        session_r = self._presented_in_leg_5(household, edit)
        assert (session_r.state, session_r.failure_reason) == (State.FAILED, "protocol")

    # A null issuer with no context: in the responder's presentations (leg 4),
    # which come first, and in the initiator's (leg 5) when the responder
    # presented nothing.
    @pytest.mark.parametrize("leg", [4, 5])
    def test_null_issuer_with_no_context_fails_protocol(self, household, leg):
        def edit(wire):
            assert wire[slot(PresentationWire, "issuer")] == household[0].did.to_wire()
            wire[slot(PresentationWire, "issuer")] = None

        if leg == 4:
            victim = self._presented(household, edit)
        else:
            victim = self._presented_in_leg_5(household, edit, responder_presents=False)
        assert (victim.state, victim.failure_reason) == (State.FAILED, "protocol")

    def test_another_issuers_credential_sent_with_a_null_issuer_is_dropped_for_signature(
        self, household,
    ):
        # Mallory's document lists Alice's signing key, so a credential Mallory
        # issued, owner claim and all, is signed with that key. Sent with a null
        # issuer, the reader restores Alice as its issuer and owner: the proof's
        # key resolves, but not over what was signed.
        alice, camera, _ = household
        key = PublicKeyEntry(alice.sign_key.key_id, crypto.PURPOSE_SIGN, alice.sign_key.public)
        mallory = DidDocument.from_body(DocumentBody((key,)), "peer")
        vc, openings = issue(alice.sign_key, mallory.id, camera.did,
                             [Claim("owner", format_did(mallory.id))], 3600, NOW)
        p = present(vc, openings, ["owner"])

        def edit(wire):
            wire[:] = from_cbor(pack(PresentationWire.of(p, alice.did)))
            assert wire[slot(PresentationWire, "issuer")] == mallory.id.to_wire()
            wire[slot(PresentationWire, "issuer")] = None

        session_r = self._presented_in_leg_5(household, edit)
        assert session_r.presented == []
        assert session_r.rejected == ["signature"]

    @pytest.mark.parametrize("field, value", [
        ("value", "did:peer:3somebodyelse"),
        ("salt", bytes(16)),
    ])
    def test_changed_opening_is_dropped_for_signature(self, household, field, value):
        def edit(wire):
            (opening,) = wire[slot(PresentationWire, "disclosed")]
            opening[slot(ClaimOpening, field)] = value

        session_i = self._presented(household, edit)
        assert session_i.presented == []
        assert session_i.rejected == ["signature"]
        assert session_i.my_verdict == Verdict(False, "signature")

    def test_disclosed_did_swapped_for_another_did_is_dropped_for_signature(self, household):
        alice, camera, _ = household

        def edit(wire):
            # The owner value is Alice's DID, the issuer's, so it travels as null;
            # the camera's DID in its wire form replaces it.
            (opening,) = wire[slot(PresentationWire, "disclosed")]
            assert opening[slot(ClaimOpening, "value")] is None
            opening[slot(ClaimOpening, "value")] = camera.did.to_wire()

        session_i = self._presented(household, edit)
        assert session_i.presented == []
        assert session_i.rejected == ["signature"]

    def test_issuer_did_sent_where_null_is_due_fails_protocol(self, household):
        alice = household[0]

        def edit(wire):
            (opening,) = wire[slot(PresentationWire, "disclosed")]
            opening[slot(ClaimOpening, "value")] = alice.did.to_wire()

        session_i = self._presented(household, edit)
        assert (session_i.state, session_i.failure_reason) == (State.FAILED, "protocol")

    def test_null_for_a_value_other_than_the_issuer_is_dropped_for_signature(self, household):
        # The type claim ("Lock") disclosed with a null value: the reader fills
        # in the issuer, whose commitment under that name the issuer never
        # signed. The reader cannot tell this null from an honest one, so the
        # signature, not the decode, refuses it.
        kind = household[2].credentials[0].opening_for("type")

        def edit(wire):
            wire[slot(PresentationWire, "commitments")] = [None, None]
            wire[slot(PresentationWire, "disclosed")].append([kind.name, None, kind.salt])

        session_i = self._presented(household, edit)
        assert session_i.presented == []
        assert session_i.rejected == ["signature"]

    def test_presentation_moved_under_another_issuer_is_dropped_for_signature(self, household):
        # Mallory's document lists Alice's signing key under its own DID, so
        # the proof's key resolves; but the restored credential names Mallory
        # as issuer and, through the null value, as owner: not what Alice signed.
        alice, camera, _ = household
        key = PublicKeyEntry(alice.sign_key.key_id, crypto.PURPOSE_SIGN, alice.sign_key.public)
        mallory = DidDocument.from_body(DocumentBody((key,)), "peer")
        camera.resolver.store_peer(mallory.id, mallory)

        def edit(wire):
            assert wire[slot(PresentationWire, "issuer")] == alice.did.to_wire()
            wire[slot(PresentationWire, "issuer")] = mallory.id.to_wire()

        session_i = self._presented(household, edit)
        assert session_i.presented == []
        assert session_i.rejected == ["signature"]

    @pytest.mark.parametrize("field", ["vc_id", "proof"])
    def test_issued_ids_spelled_out_as_text_fail_protocol(self, household, field):
        # An issued credential id travels as its 8 bytes, and a default-shaped
        # key id in the proof as its 4 digest bytes; as text, neither decodes.
        vc = household[2].credentials[0].credential

        def edit(wire):
            if field == "vc_id":
                assert wire[slot(PresentationWire, "vc_id")] == bytes.fromhex(vc.vc_id[3:])
                wire[slot(PresentationWire, "vc_id")] = vc.vc_id
            else:
                proof = wire[slot(PresentationWire, "proof")]
                key_id = vc.proof.verification_key_id
                assert proof[0] == crypto.digest(household[0].sign_key.public)[:4]
                proof[0] = key_id

        session_i = self._presented(household, edit)
        assert (session_i.state, session_i.failure_reason) == (State.FAILED, "protocol")

    # The honest commitments slot is [null, type commitment], with one opening (owner).
    @pytest.mark.parametrize("commitments, outcome", [
        (lambda owner, kind: [None, None], "protocol"),    # one null too many
        (lambda owner, kind: [owner, kind], "protocol"),   # one too few
        (lambda owner, kind: [owner, None], "signature"),  # a null at an undisclosed claim
    ], ids=["one-null-too-many", "one-null-too-few", "null-at-undisclosed-claim"])
    def test_null_slots_that_do_not_pair_with_the_openings_are_refused(
        self, household, commitments, outcome,
    ):
        owner, kind = from_cbor(pack(household[2].credentials[0].credential.commitments))

        def edit(wire):
            wire[slot(PresentationWire, "commitments")] = commitments(owner, kind)

        session_i = self._presented(household, edit)
        if outcome == "protocol":
            assert (session_i.state, session_i.failure_reason) == (State.FAILED, "protocol")
        else:
            assert session_i.presented == []
            assert session_i.rejected == [outcome]

    @settings(max_examples=60, deadline=None)
    @given(
        claims=st.dictionaries(
            st.text(min_size=1, max_size=6).filter(lambda n: "\x00" not in n),
            st.text(max_size=12), min_size=1, max_size=4,
        ),
        data=st.data(),
    )
    def test_wire_form_restores_the_presentation(self, claims, data):
        alice, camera, lock = _household()
        # Some claims are of the issuer's DID, as an owner claim is.
        claims = {
            n: format_did(alice.did) if data.draw(st.booleans(), label=f"issuer {n}") else v
            for n, v in claims.items()
        }
        subject = data.draw(st.sampled_from([alice.did, camera.did, lock.did]), label="subject")
        # The context issuer: none (the responder's), the issuer, or another DID.
        context = data.draw(st.sampled_from([None, alice.did, lock.did]), label="context")
        subset = data.draw(st.sets(st.sampled_from(sorted(claims)), min_size=1), label="subset")
        vc, openings = issue(
            alice.sign_key, alice.did, subject, [Claim(n, v) for n, v in claims.items()],
            3600, NOW, rng=Random(data.draw(st.integers(0, 2**32), label="seed")),
        )
        p = present(vc, openings, subset)
        raw = pack(PresentationWire.of(p, context))
        wire = unpack(PresentationWire, raw)
        restored = wire.restore(subject, context)
        assert restored == p
        # The issuer travels as null exactly when it is the context's, each value
        # that is the issuer's DID as null, and the id as its 8 bytes.
        vc_id, issuer, *_, disclosed = from_cbor(raw)
        assert (issuer is None) == (context == alice.did)
        assert vc_id == bytes.fromhex(vc.vc_id[3:])
        assert [v is None for _, v, _ in disclosed] == [
            o.value == format_did(alice.did) for o in p.disclosed
        ]
        assert restored.credential.signing_payload() == vc.signing_payload()


# Sealed records that must be refused without moving the replay window.
CHANNEL_DEFECTS = [
    "replayed", "rewound", "non-shortest-counter", "truncated-counter", "truncated-tag",
    "reflected",
]


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
        _, start = read_uint(wire, 1)
        forged = wire[:1] + cbor_bytes(2**63) + wire[start:]
        with pytest.raises(ChannelError):
            session_r.secure_recv(forged, NOW)
        assert session_r.secure_recv(wire, NOW) == b"genuine"

    def test_record_is_tag_counter_ciphertext(self, household):
        session_i, _ = self._secure_pair(household)
        # The initiator sealed 2 records in the handshake (CRED_PRESENT and
        # TRUST_RESULT), so this is the 3rd: a 1-byte counter head, then the
        # 16-byte tag of an empty plaintext.
        wire = session_i.secure_send(b"", NOW)
        assert wire[:2] == bytes([MSG_DATA, 3]) and len(wire) == 2 + 16

    @pytest.mark.parametrize("defect", CHANNEL_DEFECTS)
    def test_defective_data_record_is_refused(self, household, defect):
        session_i, session_r = self._secure_pair(household)
        # Counters 3 to 26, after the handshake's 2: the last ones take a 2-byte head.
        sent = [session_i.secure_send(bytes([n]), NOW) for n in range(24)]
        first, last = sent[0], sent[-1]
        counter, start = read_uint(first, 1)
        receiver = session_r
        if defect == "replayed":
            session_r.secure_recv(first, NOW)
            record = first
        elif defect == "rewound":
            session_r.secure_recv(sent[1], NOW)
            record = first
        elif defect == "non-shortest-counter":
            record = first[:1] + bytes([0x18, counter]) + first[start:]
        elif defect == "truncated-counter":
            assert last[1] == 0x18  # counter 26 takes a 2-byte head
            record = last[:2]
        elif defect == "truncated-tag":
            record = first[: start + 15]
        else:
            receiver, record = session_i, first
        with pytest.raises(ChannelError):
            receiver.secure_recv(record, NOW)
        if defect not in ("replayed", "rewound"):
            # The refused record did not move the window.
            assert session_r.secure_recv(first, NOW) == b"\x00"

    @pytest.mark.parametrize("defect", CHANNEL_DEFECTS)
    def test_defective_handshake_record_fails_channel(self, household, defect):
        """The same defects on the responder's CRED_REQUEST (counter 1), which a
        Secure session of either role accepts by its tag."""
        session_i, session_r, (request, _) = secure_pair(household)
        assert request[:2] == bytes([MSG_CRED_REQUEST, 1])
        victim = session_i
        if defect == "replayed":
            session_i.step(request, NOW)
            record = request
        elif defect == "rewound":
            session_i.step(session_r._seal(MSG_CRED_REQUEST, pack(CredRequest((), None))), NOW)
            record = request
        elif defect == "non-shortest-counter":
            record = request[:1] + bytes([0x18, 1]) + request[2:]
        elif defect == "truncated-counter":
            record = request[:1] + bytes([0x19, 0])  # a 2-byte counter cut after 1
        elif defect == "truncated-tag":
            record = request[: 2 + 15]
        else:
            victim, record = session_r, request
        assert victim.step(record, NOW) != []
        assert (victim.state, victim.failure_reason) == (State.FAILED, "channel")

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
        assert decision.ok

    def test_different_owner_value_is_owner_mismatch(self, household):
        alice, camera, lock = household
        p = self._presentation(alice, lock, {"owner": "did:peer:3somebodyelse"}, {"owner"})
        decision = decide_trust(OwnerMatch(my_owner=alice.did), [p])
        assert not decision.ok
        assert decision.reason == "owner mismatch"

    def test_non_owner_issuer_is_issuer_reason(self, household):
        alice, camera, lock = household
        registry = Registry()
        mallory = build_actor("mallory", 66, registry)
        p = self._presentation(
            mallory, lock, {"owner": format_did(alice.did)}, {"owner"}
        )
        decision = decide_trust(OwnerMatch(my_owner=alice.did), [p])
        assert not decision.ok
        assert decision.reason == "issuer"

    def test_no_presentations_untrusted(self, household):
        alice, _, _ = household
        decision = decide_trust(OwnerMatch(my_owner=alice.did), [])
        assert not decision.ok
        assert decision.reason == "no valid credentials"

    def test_no_verified_presentations_untrusted_for_their_rejection_reasons(self, household):
        alice, _, _ = household
        decision = decide_trust(
            OwnerMatch(my_owner=alice.did), [], ["revoked", "expired", "revoked"]
        )
        assert decision == Verdict(False, "revoked; expired")

    def test_always_trust(self):
        assert decide_trust(AlwaysTrust(), []).ok

    def test_require_claim(self, household):
        alice, camera, lock = household
        p = self._presentation(alice, lock, {"type": "Lock"}, {"type"})
        assert decide_trust(RequireClaim("type", "Lock"), [p]).ok
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
        # and presents it to the lock, which asks for Alice's credentials, so
        # it is all Eve presents.
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
        # The subject does not travel: the lock restores the camera's credential
        # with Eve's DID, which Alice never signed.
        assert session_r.presented == []
        assert session_r.rejected == ["signature"]
        assert session_r.my_verdict.reason == "signature"

    def test_revoked_credential_is_named_in_both_verdicts(self, household):
        alice, camera, _ = household
        revocation = RevocationRegistry(owner=alice.did)
        revoke(revocation, alice.sign_key, camera.credentials[0].credential.vc_id,
               alice.resolver, NOW)
        cfg_i, cfg_r, _ = household_configs(household)
        cfg_r.revocation = revocation
        session_i, session_r, _ = run_direct(cfg_i, cfg_r)
        assert session_r.state == State.UNTRUSTED
        assert session_r.rejected == ["revoked"]
        assert session_r.my_verdict == Verdict(False, "revoked")
        # The camera learns the reason from the lock's TRUST_RESULT.
        assert session_i.state == State.TRUSTED
        assert session_i.peer_verdict == Verdict(False, "revoked")


def owners_and_devices():
    """Alice and Bob, and a camera and a lock that each hold nothing yet."""
    registry = Registry()
    alice = build_actor("alice", 1, registry)
    bob = build_actor("bob", 4, registry)
    camera = build_actor("camera", 2, registry)
    lock = build_actor("lock", 3, registry)
    introduce(alice, bob, camera, lock)
    return alice, bob, camera, lock


class TestRequestedIssuer:
    """The responder's CRED_REQUEST names the one issuer its policy accepts, and
    the initiator presents only that issuer's credentials; the verifier still
    judges whatever arrives."""

    def test_initiator_that_ignores_the_request_is_still_refused_as_issuer(self):
        alice, bob, camera, lock = owners_and_devices()
        give_owner_credential(bob, camera, 60)
        give_owner_credential(alice, lock, 61)
        honest = HandshakeSession._presentations

        def any_issuer(self, want, issuer):
            return honest(self, want, None)

        with mock.patch.object(HandshakeSession, "_presentations", any_issuer):
            session_i, session_r, _ = run_direct(
                owner_match_config(camera, bob, 600), owner_match_config(lock, alice, 601),
            )
        # Bob's credential arrives, spelled out, and verifies; Alice's lock
        # refuses it by its own policy.
        assert [p.credential.issuer for p in session_r.presented] == [bob.did]
        assert (session_r.state, session_r.my_verdict) == (
            State.UNTRUSTED, Verdict(False, "issuer"),
        )
        assert session_i.my_verdict == Verdict(False, "issuer")

    def test_request_spelling_out_the_context_issuer_fails_protocol(self, household):
        session_i, session_r, (_, presentation) = secure_pair(household)
        session_r._sealed = 0  # the forged request takes the honest one's counter
        forged = session_r._seal(
            MSG_CRED_REQUEST, cbor_bytes([["owner"], household[0].did.to_wire()])
        )
        assert session_i.step(forged, NOW) == []
        assert session_i.step(presentation, NOW) != []
        assert (session_i.state, session_i.failure_reason) == (State.FAILED, "protocol")

    def test_request_leaving_out_the_issuer_with_no_context_fails_protocol(self, household):
        # The lock presents nothing, so its honest request names Alice whole.
        session_i, session_r, (request, presentation) = secure_pair(
            household, responder_presents=False
        )
        session_i.step(request, NOW)
        assert session_i._peer_request == CredRequest(("owner",), household[0].did)
        session_i, session_r, (_, presentation) = secure_pair(household, responder_presents=False)
        session_r._sealed = 0
        assert session_i.step(session_r._seal(MSG_CRED_REQUEST, cbor_bytes(["owner"])), NOW) == []
        assert session_i.step(presentation, NOW) != []
        assert (session_i.state, session_i.failure_reason) == (State.FAILED, "protocol")

    def test_request_of_another_issuer_than_the_context_selects_its_credentials(self):
        # The lock trusts Bob's devices but holds Alice's credential, so its
        # request names Bob whole. The camera holds a credential of each and
        # presents only Bob's.
        alice, bob, camera, lock = owners_and_devices()
        give_owner_credential(alice, camera, 62)
        give_owner_credential(bob, camera, 63)
        give_owner_credential(alice, lock, 64)
        session_i, session_r, _ = run_direct(
            owner_match_config(camera, alice, 602), owner_match_config(lock, bob, 603),
        )
        assert session_i._peer_request == CredRequest(("owner",), bob.did)
        assert [p.credential.issuer for p in session_r.presented] == [bob.did]
        assert session_r.rejected == []
        assert session_r.state == State.TRUSTED

    def test_claim_policy_receives_a_credential_of_any_issuer(self):
        # RequireClaim accepts any issuer: Bob's camera credential reaches Alice's
        # lock, which trusts it on its claim.
        alice, bob, camera, lock = owners_and_devices()
        give_owner_credential(bob, camera, 65, {"type": "Camera"})
        give_owner_credential(alice, lock, 66, {"type": "Lock"})
        cfg_i = owner_match_config(camera, bob, 604)
        cfg_i.policy = AlwaysTrust()
        cfg_r = owner_match_config(lock, alice, 605)
        cfg_r.policy = RequireClaim("type", "Camera")
        session_i, session_r, _ = run_direct(cfg_i, cfg_r)
        assert session_i._peer_request == CredRequest(("type",), None)
        assert [p.credential.issuer for p in session_r.presented] == [bob.did]
        assert session_i.state == session_r.state == State.TRUSTED


if __name__ == "__main__":
    if sys.argv[1:] == ["--readme-table"]:
        print("\n".join(readme_table()))
    else:
        print(json.dumps(scenario_handshake_messages(), indent=1, sort_keys=True))
