"""Scenario validation, execution, metrics conservation, and determinism."""

import copy
import json
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from tinyssi import crypto, harness
from tinyssi.encoding import cbor_bytes
from tinyssi.handshake import HandshakeSession, split_leg
from tinyssi.harness import (
    Deployment,
    Scenario,
    ScenarioError,
    run_scenario,
)
from tinyssi.transport import (
    FLAG_LAST, RETRY_LIMIT, DeliveryError, Frame, Messenger, SimLink, make_link,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

BASE = {
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


def scenario(**overrides) -> Scenario:
    mapping = copy.deepcopy(BASE)
    mapping.update(overrides)
    return Scenario.from_mapping(mapping)


@contextmanager
def kept_links(prepare=lambda link: None):
    """Collect every link the harness makes, each passed to `prepare` first."""
    links, make_link = [], harness.make_link

    def recording_make_link(*args, **kwargs):
        link = make_link(*args, **kwargs)
        prepare(link)
        links.append(link)
        return link

    with mock.patch.object(harness, "make_link", recording_make_link):
        yield links


def data_ticks(link) -> dict[tuple[str, int], list[int]]:
    """The ticks each message's data frames went out in, by sender and message
    id: each endpoint numbers its own messages."""
    ticks: dict[tuple[str, int], list[int]] = {}
    for entry in link.trace:
        if entry.kind == "data":
            ticks.setdefault((entry.src, entry.message_id), []).append(entry.tick)
    return ticks


def record_acks_due(link) -> None:
    """Keep on `link.acks_due` a (tick, endpoint, message id) for each message
    whose data arrived in a tick and that the endpoint still holds after that
    tick's deliveries, as its last delivered or its partial message: each of
    these owes one ACK, in that tick. A frame sent last creates no ACK due.
    Keep on `link.newest_held`, by (tick, endpoint), the message id and held
    fragment indexes of the newest message the endpoint holds after that
    tick's deliveries, None for a delivered one: the ACK its data frames of
    the tick may carry when none is due. A message delivered in a last frame
    has none. The ids are the peer's: each endpoint numbers its own messages."""
    link.acks_due, link.newest_held = [], {}
    attach = link.attach

    def recording_attach(endpoint, messenger):
        handle, check_timer, arrived = messenger.handle_packet, messenger.check_timer, []

        def recording_handle(ack, data):
            handle(ack, data)
            if data is not None and not data.flags & FLAG_LAST:
                arrived.append(data.message_id)

        def recording_check_timer():  # runs once a tick, after its deliveries
            partial = messenger._partial
            held = {messenger._delivered: None}
            if partial is not None:
                held[partial.message_id] = tuple(sorted(partial.fragments))
            link.acks_due.extend(
                (link.now, endpoint, message_id) for message_id in dict.fromkeys(arrived)
                if message_id in held
            )
            arrived.clear()
            newest = messenger._delivered if partial is None else partial.message_id
            if newest is not None and (partial is not None or not messenger._delivered_last):
                link.newest_held[link.now, endpoint] = (newest, held[newest])
            check_timer()

        messenger.handle_packet = recording_handle
        messenger.check_timer = recording_check_timer
        attach(endpoint, messenger)

    link.attach = recording_attach


def acks(link) -> list:
    """The trace entries that carry an ACK: ACKs alone, and data frames an ACK rides."""
    return [e for e in link.trace if e.ack_id is not None]


def assert_one_message_in_flight_per_endpoint(link) -> None:
    """No endpoint sends data of a message before its previous one is acknowledged."""
    for src in link.endpoints:
        mine = [e for e in link.trace if e.src == src and e.kind == "data"]
        order = []
        for entry in mine:
            if not order or order[-1] != entry.message_id:
                assert entry.message_id not in order  # never back to an earlier message
                order.append(entry.message_id)
        for earlier, later in zip(order, order[1:]):
            start = next(e.tick for e in mine if e.message_id == later)
            count = next(e.frag_count for e in mine if e.message_id == earlier)
            # A whole ACK covers every fragment.
            acked = {
                index for e in acks(link)
                if e.dst == src and e.ack_id == earlier and not e.dropped and e.tick < start
                for index in (range(count) if e.acked is None else e.acked)
            }
            assert acked == set(range(count)), (src, earlier, later)


class TestValidation:
    def test_base_scenario_is_clean(self):
        assert scenario().validate() == []

    def test_unknown_actor_reference(self):
        bad = copy.deepcopy(BASE)
        bad["credentials"][0]["subject"] = "ghost"
        problems = Scenario.from_mapping(bad).validate()
        assert any("ghost" in p for p in problems)

    def test_unknown_profile(self):
        bad = copy.deepcopy(BASE)
        bad["links"][0]["profile"] = "zigbee"
        assert any("zigbee" in p for p in Scenario.from_mapping(bad).validate())

    def test_unknown_action(self):
        bad = copy.deepcopy(BASE)
        bad["steps"].append({"action": "teleport", "expect": "ok"})
        assert any("teleport" in p for p in Scenario.from_mapping(bad).validate())

    def test_link_must_join_step_actors(self):
        bad = copy.deepcopy(BASE)
        bad["links"][0]["b"] = "alice"
        problems = Scenario.from_mapping(bad).validate()
        assert any("does not join" in p for p in problems)

    def test_link_must_join_two_actors(self):
        bad = copy.deepcopy(BASE)
        bad["links"][0]["b"] = "camera"
        bad["steps"][0]["responder"] = "camera"
        assert Scenario.from_mapping(bad).validate() == ["link 0 joins 'camera' to itself"]
        with pytest.raises(ScenarioError, match="to itself"):
            run_scenario(Scenario.from_mapping(bad))

    def test_owner_match_needs_owner(self):
        bad = copy.deepcopy(BASE)
        del bad["actors"][1]["owner"]
        problems = Scenario.from_mapping(bad).validate()
        assert any("no owner" in p for p in problems)

    @pytest.mark.parametrize("claims", [{}, {"": "x"}, {"own\x00er": "@alice"}],
                             ids=["no-claims", "empty-name", "nul-in-name"])
    def test_claims_issue_cannot_commit_to(self, claims):
        bad = copy.deepcopy(BASE)
        bad["credentials"][0]["claims"] = claims
        problems = Scenario.from_mapping(bad).validate()
        assert [p for p in problems if p.startswith("credential 0: ")]
        with pytest.raises(ScenarioError, match="credential 0"):
            run_scenario(Scenario.from_mapping(bad))

    def test_claim_policy_actor_reference(self):
        good = copy.deepcopy(BASE)
        good["steps"][0]["policy"] = {"name": "owner", "value": "@alice"}
        assert Scenario.from_mapping(good).validate() == []
        bad = copy.deepcopy(BASE)
        bad["steps"][0]["policy"] = {"name": "owner", "value": "@ghost"}
        problems = Scenario.from_mapping(bad).validate()
        assert problems == ["step 0: unknown actor reference '@ghost'"]
        with pytest.raises(ScenarioError, match="ghost"):
            run_scenario(Scenario.from_mapping(bad))

    @pytest.mark.parametrize("target", ["not-a-did", "did:reg:0OIl", "did:reg", "did::abc"])
    def test_resolve_target_must_be_a_did(self, target):
        bad = copy.deepcopy(BASE)
        bad["steps"].append(
            {"action": "resolve", "actor": "camera", "target": target, "expect": "resolved"}
        )
        problems = Scenario.from_mapping(bad).validate()
        assert [p for p in problems if p.startswith("step 1: target is not a DID")]
        with pytest.raises(ScenarioError, match="step 1"):
            run_scenario(Scenario.from_mapping(bad))

    def test_runner_refuses_invalid_scenario(self):
        bad = copy.deepcopy(BASE)
        bad["steps"][0]["initiator"] = "ghost"
        with pytest.raises(ScenarioError):
            run_scenario(Scenario.from_mapping(bad))


class TestOwnerScenario:
    def test_same_owner_devices_reach_trusted(self):
        report = run_scenario(scenario())
        assert report.steps[0].outcome == "trusted"
        assert report.steps[0].matched
        assert report.all_matched()

    def test_fixture_file_runs_clean(self):
        loaded = Scenario.load(str(SCENARIO_DIR / "owner-two-devices.scn"))
        report = run_scenario(loaded)
        assert report.all_matched()

    def test_lifecycle_fixture_runs_clean(self):
        loaded = Scenario.load(str(SCENARIO_DIR / "household-lifecycle.scn"))
        report = run_scenario(loaded)
        assert [s.outcome for s in report.steps] == [
            "resolved", "trusted", "rotated", "trusted", "revoked",
            "untrusted(revoked)",
        ]
        assert report.all_matched()

    def test_document_sizes_recorded(self):
        report = run_scenario(scenario())
        assert set(report.ddo_bytes) == {"alice", "camera", "lock"}
        assert all(400 <= size <= 2000 for size in report.ddo_bytes.values())
        assert len(report.vc_bytes) == 2
        assert all(size >= 400 for size in report.vc_bytes)

    def test_hello_fragments_over_lora(self):
        report = run_scenario(scenario())
        # The HELLO carries a full peer document; in wire form it fits 2 frames.
        assert report.steps[0].fragments_per_message[0] <= 2

    def test_round_trips_to_trusted(self):
        report = run_scenario(scenario())
        assert report.steps[0].round_trips == 3

    def test_ticks_are_one_link_round_trip_per_leg(self):
        step = run_scenario(scenario()).steps[0]
        # Lossless LoRa: each leg goes out in the tick its request arrives, and
        # the last leg, sent last, draws no ACK: the run ends as it arrives.
        assert step.ticks == len(step.fragments_per_message) == 6

    def test_every_data_frame_of_a_leg_goes_out_in_the_same_tick(self):
        with kept_links() as links:
            step = run_scenario(scenario()).steps[0]
        (link,) = links
        ticks = data_ticks(link)
        # One transport message per leg, each answering the one before a tick
        # later; each side numbers its own legs from 1.
        assert list(ticks) == [(side, n) for n in (1, 2, 3) for side in ("camera", "lock")]
        assert [set(t) for t in ticks.values()] == [{leg} for leg in range(6)]
        assert [len(t) for t in ticks.values()] == step.fragments_per_message

    def test_delivery_failure_reports_what_the_link_carried(self):
        mapping = copy.deepcopy(BASE)
        mapping["links"][0]["loss"] = 1.0
        step = run_scenario(Scenario.from_mapping(mapping)).steps[0]
        assert step.outcome == "delivery-failed"
        # The HELLO's one LoRa fragment, sent 1 + RETRY_LIMIT times, never ACKed.
        assert step.fragments_per_message == [1]
        assert step.retransmissions == RETRY_LIMIT == 8
        assert step.frames == 1 + RETRY_LIMIT == 9

    def test_differing_owner_value_is_owner_mismatch(self):
        mapping = copy.deepcopy(BASE)
        mapping["actors"].append(
            {"name": "bob", "role": "owner", "did_method": "peer"}
        )
        mapping["credentials"][1]["claims"]["owner"] = "@bob"
        report = run_scenario(Scenario.from_mapping(mapping))
        assert report.steps[0].outcome == "untrusted(owner mismatch)"

    def test_differing_claim_value_is_claim_mismatch(self):
        """An untrusted step names its verdict's reason, never the `policy` fallback."""
        mapping = copy.deepcopy(BASE)
        mapping["actors"].append(
            {"name": "bob", "role": "owner", "did_method": "peer"}
        )
        mapping["credentials"][1]["claims"]["owner"] = "@bob"
        mapping["steps"][0]["policy"] = {"name": "owner", "value": "@alice"}
        report = run_scenario(Scenario.from_mapping(mapping))
        assert report.steps[0].outcome == "untrusted(claim mismatch)"

    def test_non_owner_issuer_is_issuer(self):
        mapping = copy.deepcopy(BASE)
        mapping["actors"].append(
            {"name": "bob", "role": "owner", "did_method": "peer"}
        )
        mapping["credentials"][1]["issuer"] = "bob"
        report = run_scenario(Scenario.from_mapping(mapping))
        assert report.steps[0].outcome == "untrusted(issuer)"

    def test_revoked_credential_breaks_trust(self):
        mapping = copy.deepcopy(BASE)
        mapping["steps"] = [
            {"action": "revoke", "issuer": "alice", "credential": 1,
             "expect": "revoked"},
            dict(BASE["steps"][0], expect="untrusted"),
        ]
        report = run_scenario(Scenario.from_mapping(mapping))
        assert report.steps[0].outcome == "revoked"
        assert report.steps[1].outcome.startswith("untrusted")
        assert report.all_matched()

    def test_rotate_step_on_registered_identity(self):
        mapping = copy.deepcopy(BASE)
        for actor in mapping["actors"]:
            actor["did_method"] = "reg"
        mapping["steps"] = [
            {"action": "rotate", "actor": "alice", "expect": "rotated"},
            dict(BASE["steps"][0], expect="trusted"),
        ]
        report = run_scenario(Scenario.from_mapping(mapping))
        assert [s.outcome for s in report.steps] == ["rotated", "trusted"]

    def test_resolve_step(self):
        mapping = copy.deepcopy(BASE)
        mapping["steps"] = [
            {"action": "resolve", "actor": "camera", "target": "@alice",
             "expect": "resolved"},
            {"action": "resolve", "actor": "camera",
             "target": "did:reg:3NotRegisteredAnywhereXyz", "expect": "unresolved"},
        ]
        report = run_scenario(Scenario.from_mapping(mapping))
        assert report.steps[0].outcome == "resolved"
        assert report.steps[1].outcome.startswith("unresolved")


class TestPipelinedLegs:
    """Each leg goes out in the tick its request arrives, one message in flight per endpoint."""

    def test_lost_ack_holds_the_next_leg_until_the_previous_is_acknowledged(self):
        def lose_first_ack(link):
            transmit, lost = link.transmit, []

            def transmit_losing_first_ack(src, frame, ack=None):
                if not lost and (ack is not None or frame.is_ack):
                    lost.append(ack or frame)  # the data frame it rode still goes
                    if ack is None:
                        return
                    ack = None
                transmit(src, frame, ack)

            link.transmit = transmit_losing_first_ack

        with kept_links(lose_first_ack) as links:
            step = run_scenario(scenario()).steps[0]
        (link,) = links
        assert step.outcome == "trusted"
        # The lock answers the HELLO (the camera's message 1) at tick 1, though
        # the HELLO's ACK, which rode that answer, is lost. The camera sends the
        # HELLO again at its timer, tick 2, and holds AUTH (its message 2),
        # ready at tick 2, until that ACK is back at tick 4.
        assert data_ticks(link) == {
            ("camera", 1): [0, 2], ("lock", 1): [1], ("camera", 2): [4],
            ("lock", 2): [5, 5], ("camera", 3): [6], ("lock", 3): [7],
        }
        assert step.retransmissions == 1
        assert step.ticks == 6 + 2  # the 2 ticks AUTH was held
        assert_one_message_in_flight_per_endpoint(link)

    def test_lossy_sweep_ends_trusted_or_delivery_failed(self):
        mapping = copy.deepcopy(BASE)
        mapping["links"][0].update(loss=0.3, reorder=0.1)
        handshake = {k: v for k, v in BASE["steps"][0].items() if k != "expect"}
        mapping["steps"] = [handshake] * 200  # each step runs on its own seeded link
        with kept_links(record_acks_due) as links:
            report = run_scenario(Scenario.from_mapping(mapping))
        outcomes = [s.outcome for s in report.steps]
        assert set(outcomes) <= {"trusted", "delivery-failed"}
        assert "trusted" in outcomes
        assert len({link.profile.seed for link in links}) == 200
        riding = reridden = 0
        for link in links:
            assert_one_message_in_flight_per_endpoint(link)
            due = list(link.acks_due)
            for entry in acks(link):
                key = (entry.tick, entry.src, entry.ack_id)
                if key in due:
                    due.remove(key)
                    riding += entry.kind == "data"
                    continue
                # Any other ACK rides a data frame and states the sender's newest
                # held message as it stands in that tick.
                assert entry.kind == "data"
                held = link.newest_held.get((entry.tick, entry.src))
                assert held == (entry.ack_id, entry.acked)
                reridden += 1
            # Every due ACK, riding a data frame or alone, leaves in the tick its data arrived.
            assert due == []
        assert riding > 0 and reridden > 0
        # The sweep's totals pin the ARQ's cost on a lossy link. Before ACKs were
        # re-ridden (an ACK rode only the data frames of the tick its data
        # arrived in), they were 4,284 frames, 411,591 bytes, 7,819 ticks and
        # 1 delivery-failed step. Before the responder opened layer 2 in its
        # AUTH_ACK leg (7 legs, not 6), they were 3,858 frames, 391,423 bytes,
        # 6,984 ticks and no delivery-failed step. Before whole frames (a
        # one-fragment message's frame and a delivered message's ACK sent with
        # fragment fields) and the genesis-only HELLO body, the bytes were 384,526.
        # Before the initiator's presentation named the shared issuer by null
        # (its leg two fragments, not one), they were 3,497 frames, 366,714
        # bytes and 6,202 ticks. Before the derived endpoint fields, the
        # one-value verdict, the one-field records and the batch's unprefixed
        # last message, the bytes were 353,385. Before a round that carries an
        # ACK due armed the shorter timer of a round trip with at most one leg
        # reordered, they were 3,018 frames, 340,754 bytes and 5,860 ticks.
        # Before the last leg went unacknowledged, they were 2,925 frames,
        # 319,555 bytes and 5,020 ticks: at loss 0.3 a lost last frame waits
        # for the requester's copy of its 209 B leg, so the bytes rise. Before
        # legs lost their length prefixes and sealed records their counter,
        # the bytes were 322,639.
        steps = report.steps
        assert sum(s.frames for s in steps) == 2620
        assert sum(s.bytes_sent for s in steps) == 321213
        assert sum(s.ticks for s in steps) == 4503
        assert outcomes.count("delivery-failed") == 0


class TestLastLeg:
    """The leg that completes its sender's session goes last: unacknowledged,
    and sent again, as an ordinary message, only on a copy of what it answers."""

    def test_lossless_pairing_ends_with_the_last_legs_data_frame(self):
        with kept_links() as links:
            step = run_scenario(scenario()).steps[0]
        (link,) = links
        assert step.outcome == "trusted"
        assert (step.ticks, step.frames) == (6, 7)
        assert not [e for e in link.trace if e.kind == "ack"]  # no ACK goes alone
        *_, end = link.trace
        # The lock's TRUST_RESULT carries the ACK of the camera's leg 5, arrives
        # at tick 6, and the run ends with it.
        assert (end.src, end.kind, end.message_id, end.ack_id, end.last) == (
            "lock", "data", 3, 3, True,
        )
        assert end.line().endswith(" dropped=false last")
        assert [e.last for e in link.trace] == [False] * 6 + [True]

    def test_lost_last_frame_goes_again_on_the_requesters_copy(self):
        def lose_first_last_frame(link):
            transmit, profile = link.transmit, link.profile

            def transmit_losing_first_last(src, frame, ack=None):
                if frame.flags & FLAG_LAST and not any(e.last for e in link.trace):
                    link.profile = replace(profile, loss_probability=1.0)
                transmit(src, frame, ack)
                link.profile = profile

            link.transmit = transmit_losing_first_last

        with kept_links(lose_first_last_frame) as links:
            step = run_scenario(scenario()).steps[0]
        (link,) = links
        assert [(e.tick, e.dropped) for e in link.trace if e.last] == [(5, True)]
        assert step.outcome == "trusted"  # both sides end trusted
        # The camera's leg 5 goes again at its timer, tick 6. The lock answers
        # that copy in the tick it arrives, 7, with its TRUST_RESULT again: not
        # last, carrying the copy's ACK. The camera acknowledges it alone.
        assert data_ticks(link)[("camera", 3)] == [4, 6]
        resend = [e for e in link.trace if e.src == "lock" and e.message_id == 3]
        assert [(e.tick, e.ack_id, e.last) for e in resend] == [(5, 3, True), (7, 3, False)]
        alone = [e for e in link.trace if e.kind == "ack"]
        assert [(e.tick, e.src, e.message_id) for e in alone] == [(8, "camera", 3)]
        assert step.retransmissions == 2  # the camera's copy and the lock's resend
        assert step.ticks == 9
        assert_one_message_in_flight_per_endpoint(link)


# Messages of a leg: a tag byte and one wire-form CBOR item.
_ITEMS = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**64), 2**64 - 1)
    | st.text(max_size=8) | st.binary(max_size=40),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=10,
)
leg_messages = st.builds(lambda tag, item: bytes([tag]) + cbor_bytes(item), st.integers(0, 255), _ITEMS)


def message(tag: int, size: int, seed: int = 0) -> bytes:
    """A message of `tag` whose item is a byte string of `size` random bytes."""
    return bytes([tag]) + cbor_bytes(Random(seed).randbytes(size))


def inject_after(src: str, message_id: int, forger: str, frame: Frame):
    """A link preparation: `forger` sends `frame` once, right after `src`
    transmits its first data frame of message `message_id`."""
    def prepare(link):
        transmit, sent = link.transmit, []

        def transmit_with_injection(sender, data, ack=None):
            transmit(sender, data, ack)
            if not sent and sender == src and data.message_id == message_id and not data.is_ack:
                sent.append(frame)
                transmit(forger, frame)

        link.transmit = transmit_with_injection

    return prepare


class TestLegs:
    """A handshake leg travels as its messages back to back, each a tag byte
    and one deterministic CBOR item, and handshake.split_leg reads it back."""

    @settings(max_examples=300, deadline=None)
    @given(leg=st.lists(leg_messages, min_size=1, max_size=4))
    def test_a_leg_round_trips(self, leg):
        assert split_leg(b"".join(leg)) == leg

    @settings(max_examples=300, deadline=None)
    @given(payload=st.binary(max_size=40) | st.builds(
        lambda leg, tail: b"".join(leg) + tail,
        st.lists(leg_messages, max_size=3), st.binary(max_size=3),
    ))
    def test_a_leg_has_one_spelling(self, payload):
        """Any bytes split into messages that join back to them, each a leg of
        its own, or into none."""
        leg = split_leg(payload)
        assert leg is None or b"".join(leg) == payload
        assert leg is None or all(split_leg(m) == [m] for m in leg)

    def test_a_leg_is_its_messages_back_to_back(self):
        # AUTH_ACK, then two sealed records: a 1-byte string head up to 23 B,
        # a 2-byte one from 24 B.
        leg = [b"\x04" + cbor_bytes([b"\x01\x02", bytes(3)]), message(5, 23), message(6, 24)]
        joined = b"".join(leg)
        assert joined == (
            b"\x04\x82\x42\x01\x02\x43\x00\x00\x00" + b"\x05\x57" + leg[1][2:]
            + b"\x06\x58\x18" + leg[2][3:]
        )
        assert split_leg(joined) == leg
        assert split_leg(leg[0]) == leg[:1]  # a leg of one travels as its message

    @pytest.mark.parametrize(
        "payload",
        [
            b"",
            b"\x05",  # a tag byte with no item
            message(5, 3) + b"\x07",  # a message, then a tag byte with no item
            b"\x06\x51" + bytes(16),  # a string whose head states 17 B
            b"\x06\x58\x11" + bytes(17),  # a non-shortest head
            b"\x05\xa0",  # a map
            b"\x05\xf9\x3e\x00",  # a float
            b"\x05\x9f\xff",  # an indefinite length
            b"\x05\x61\xff",  # invalid UTF-8
            b"\x05" + b"\x81" * 100_000,  # arrays beyond the recursion limit
        ],
        ids=["empty", "tag-without-item", "one-byte-tail", "truncated-item",
             "non-shortest-head", "map", "float", "indefinite-length", "invalid-utf-8",
             "deep-nesting"],
    )
    def test_bytes_that_are_not_messages_do_not_split(self, payload):
        assert split_leg(payload) is None

    def test_a_leg_is_one_message_with_one_timer(self):
        link = make_link("lora", seed=1)
        sender = Messenger(link, "A")
        receiver = Messenger(link, "B")
        leg = [message(tag, size, tag) for tag, size in ((4, 37), (5, 376), (6, 300))]
        fragments = sender.send(b"".join(leg))
        while not sender.idle:
            link.tick()
        assert split_leg(receiver.receive()) == leg and receiver.receive() is None
        assert {e.message_id for e in link.trace if e.kind == "data"} == {1}
        # 724 B of messages: 4 LoRa fragments, one round trip.
        assert sum(map(len, leg)) == 724
        assert fragments == len(link.trace) - 1 == 4
        assert link.now == link.round_trip_ticks

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        legs=st.lists(
            st.lists(st.integers(min_value=1, max_value=600), min_size=1, max_size=3),
            min_size=1, max_size=4,
        ),
    )
    def test_legs_delivered_once_in_order_under_loss(self, seed, legs):
        link = make_link("lora", loss=0.3, reorder=0.1, seed=seed)
        sender = Messenger(link, "A")
        receiver = Messenger(link, "B")
        rng = Random(seed)
        for sizes in legs:
            leg = [bytes([rng.randrange(256)]) + cbor_bytes(rng.randbytes(size)) for size in sizes]
            sender.send(b"".join(leg))
            while not sender.idle:
                link.tick()
            delivered = receiver.receive()
            if sender.failure is not None:
                assert isinstance(sender.failure, DeliveryError)
                # The last ACK may be what was lost: all of the leg or none of it.
                assert delivered is None or split_leg(delivered) == leg
                return
            assert split_leg(delivered) == leg and receiver.receive() is None
        for _ in range(4 * link.round_trip_ticks):
            link.tick()  # late duplicates are re-acknowledged, never re-delivered
        assert receiver.receive() is None

    def test_a_leg_that_does_not_split_is_never_stepped(self):
        """Sent in the camera's name as the lock sends its HELLO_ACK, a leg of
        an AUTH and a lone tag byte reaches the lock while it waits for the
        camera's AUTH. The lock's Messenger delivers and acknowledges it; the
        harness drops it whole, so neither of its messages, each of which
        would fail the lock, is stepped."""
        first = b"\x03" + cbor_bytes([b"junk"])
        bad = first + b"\x04"
        assert split_leg(bad) is None
        with (
            kept_links(inject_after("lock", 1, "camera", Frame(0, 0x7777, 0, 1, bad))) as links,
            mock.patch.object(
                HandshakeSession, "step", autospec=True, side_effect=HandshakeSession.step
            ) as step,
        ):
            metrics = run_scenario(scenario()).steps[0]
        (link,) = links
        assert metrics.outcome == "trusted"
        assert step.call_count == 9
        stepped = [call.args[1] for call in step.call_args_list]
        assert not {first, b"\x04", bad} & set(stepped)
        assert [(e.tick, e.src, e.kind) for e in link.trace if e.ack_id == 0x7777] == [
            (2, "lock", "ack"),
        ]
        assert link.malformed_frames == 0
        assert metrics.ticks == 6  # as without the injection

    def test_message_injected_behind_a_delivered_one_is_refused(self):
        """A whole frame sent in the camera's name right behind its AUTH lands in
        the tick the lock delivers AUTH. Taken, it would replace AUTH as the
        message the lock acknowledges, so AUTH's ACK would never go, and AUTH,
        sent again, would be delivered twice: the lock would fail `protocol`
        at tick 8. Refused as a malformed frame, it changes nothing."""
        forged = Frame(0, 0x7777, 0, 1, b"\x03junk")
        with kept_links(inject_after("camera", 2, "camera", forged)) as links:
            metrics = run_scenario(scenario()).steps[0]
        (link,) = links
        assert [e.tick for e in link.trace if e.message_id == 0x7777] == [2]
        assert (metrics.outcome, metrics.ticks) == ("trusted", 6)
        assert link.malformed_frames == 1


class TestBenchmarkReconciliation:
    """The counts `bench/run.py --trace 1` reconciles on pair-lora, checked here in seconds."""

    def test_lossless_handshake_steps_verifies_and_frames(self):
        runner = harness.ScenarioRunner(Scenario.load(str(SCENARIO_DIR / "owner-two-devices.scn")))
        with (
            kept_links() as links,
            mock.patch.object(
                HandshakeSession, "step", autospec=True, side_effect=HandshakeSession.step
            ) as step,
            mock.patch.object(crypto, "verify", wraps=crypto.verify) as verify,
            mock.patch.object(
                SimLink, "transmit", autospec=True, side_effect=SimLink.transmit
            ) as transmit,
        ):
            (metrics,) = runner.run().steps
        (link,) = links
        assert metrics.outcome == "trusted"
        assert step.call_count == 9
        assert verify.call_count == 4
        # bench/layers.reconcile counts one transmit call per packet and reads
        # its third positional argument: the data frame, or the ACK sent alone.
        frames = [call.args[2] for call in transmit.call_args_list]
        assert all(isinstance(frame, Frame) for frame in frames)
        assert [(f.is_ack, f.message_id) for f in frames] == [
            (e.kind == "ack", e.message_id) for e in link.trace
        ]
        data = sum(1 for frame in frames if not frame.is_ack)
        alone = sum(1 for frame in frames if frame.is_ack)
        assert (data, alone) == (7, 0)
        assert data + alone == len(link.trace) == metrics.frames == 7
        # Each leg's data frame carries the ACK of the peer's leg it answers;
        # each side numbers its own messages.
        riding = [e for e in acks(link) if e.kind == "data"]
        assert [(e.src, e.message_id, e.ack_id) for e in riding] == [
            ("lock", 1, 1), ("camera", 2, 1), ("lock", 2, 2), ("camera", 3, 2), ("lock", 3, 3),
        ]


class TestDeterminismAndConservation:
    def test_same_seed_byte_identical_reports(self):
        first = run_scenario(scenario()).to_json_bytes()
        second = run_scenario(scenario()).to_json_bytes()
        assert first == second

    def test_different_seed_changes_key_material(self):
        a = run_scenario(scenario(seed=7))
        b = run_scenario(scenario(seed=8))
        assert a.to_json_bytes() != b.to_json_bytes() or a.ddo_bytes != b.ddo_bytes

    def test_lossy_scenario_deterministic_and_completes(self):
        mapping = copy.deepcopy(BASE)
        mapping["links"][0]["loss"] = 0.1
        first = run_scenario(Scenario.from_mapping(mapping))
        second = run_scenario(Scenario.from_mapping(mapping))
        assert first.steps[0].outcome == "trusted"
        assert first.to_json_bytes() == second.to_json_bytes()

    def test_lossless_no_retransmissions(self):
        mapping = copy.deepcopy(BASE)
        mapping["links"][0]["profile"] = "lossless"
        report = run_scenario(Scenario.from_mapping(mapping))
        assert report.steps[0].retransmissions == 0

    def test_report_json_is_parseable_and_complete(self):
        report = run_scenario(scenario())
        decoded = json.loads(run_scenario(scenario()).to_json_bytes())
        assert decoded["scenario"] == "owner-two-devices"
        step = decoded["steps"][0]
        assert set(step) == {
            "action", "outcome", "expect", "matched", "bytes_sent", "frames",
            "fragments_per_message", "round_trips", "retransmissions", "ticks",
        }
        assert decoded["document_sizes"]["ddo_bytes"] == report.ddo_bytes

    def test_bytes_sent_is_positive_and_scales_with_frames(self):
        report = run_scenario(scenario())
        step = report.steps[0]
        assert step.bytes_sent > 0
        assert step.frames >= sum(step.fragments_per_message)

    def test_summary_lines_render(self):
        report = run_scenario(scenario())
        lines = report.summary_lines()
        assert any("trusted" in line for line in lines)
        assert any("ddo camera" in line for line in lines)


class TestDeployment:
    def test_provisioning_is_seed_deterministic(self):
        a = Deployment(scenario())
        b = Deployment(scenario())
        assert {n: x.did for n, x in a.actors.items()} == {
            n: x.did for n, x in b.actors.items()
        }
        assert a.issued_ids == b.issued_ids

    def test_registered_actor_goes_into_registry(self):
        mapping = copy.deepcopy(BASE)
        mapping["actors"][0]["did_method"] = "reg"
        deployment = Deployment(Scenario.from_mapping(mapping))
        alice = deployment.actors["alice"]
        assert deployment.registry.lookup(alice.did) == alice.wallet.current_document

    def test_claim_references_expand_to_dids(self):
        deployment = Deployment(scenario())
        camera = deployment.actors["camera"]
        stored = next(iter(camera.wallet.credentials.values()))
        owner_opening = stored.opening_for("owner")
        assert owner_opening.value.startswith("did:peer:")
