"""Frame codec, fragmentation arithmetic, ARQ behavior, simulator determinism.

`tests/fixtures/lora-loss0.2-reorder0.1-seed12.trace` holds the frame trace,
ticks included, of one 3,000-byte send over a lossy, reordering LoRa link. It
pins the ARQ's frame order and timing, so it changes only with them.
Regenerate it only on purpose, from the repository root:

    PYTHONPATH=src python tests/test_transport.py > tests/fixtures/lora-loss0.2-reorder0.1-seed12.trace
"""

import math
import sys
from collections import deque
from dataclasses import replace
from pathlib import Path
from random import Random

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from tinyssi.transport import (
    DeliveryError,
    FLAG_ACK,
    FLAG_LAST,
    Frame,
    FrameError,
    HEADER_LEN,
    LinkProfile,
    Messenger,
    PROFILES,
    REORDER_DELAY_TICKS,
    RETRY_LIMIT,
    STALE_IDS,
    SimLink,
    TRANSIT_TICKS,
    TransportError,
    decode_packet,
    fragment,
    make_ack,
    make_link,
    reassemble,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"
LOSSY_TRACE = FIXTURES / "lora-loss0.2-reorder0.1-seed12.trace"


def deliver(sender: Messenger, message: bytes) -> int:
    """Send, then tick the link until the send ends; raise its DeliveryError if it gave up.
    Returns the message's fragment count, as send() does."""
    fragments = sender.send(message)
    while not sender.idle:
        sender.link.tick()
    if sender.failure is not None:
        raise sender.failure
    return fragments


def data_frames(link, src: str = "A") -> int:
    """The data frames `src` put on the link, as the link's trace logs them."""
    return sum(e.kind == "data" and e.src == src for e in link.trace)


def drain(messenger: Messenger) -> list[bytes]:
    received = []
    while (message := messenger.receive()) is not None:
        received.append(message)
    return received


def lossy_reordering_trace() -> list[str]:
    """The trace of the send the fixture pins; the message must arrive intact."""
    link = make_link("lora", loss=0.2, reorder=0.1, seed=12)
    sender = Messenger(link, "A")
    receiver = Messenger(link, "B")
    deliver(sender, bytes(3000))
    assert receiver.receive() == bytes(3000)
    return link.trace_lines()


class _Fragmented(Frame):
    """A frame spelled with its fragment fields, whole or not: the second
    spelling of a whole frame, which no Frame encodes."""

    def encode(self) -> bytes:
        fields = (self.message_id, self.frag_index, self.frag_count)
        return bytes([0xD1, self.flags]) + b"".join(v.to_bytes(2, "big") for v in fields) + self.payload


class TestFrameCodec:
    def test_header_layout_is_bit_exact(self):
        frame = Frame(flags=0, message_id=0x1234, frag_index=2, frag_count=3, payload=b"xyz")
        raw = frame.encode()
        assert raw[0] == 0xD1
        assert raw[1] == 0x00
        assert raw[2:4] == b"\x12\x34"
        assert raw[4:6] == b"\x00\x02"
        assert raw[6:8] == b"\x00\x03"
        assert raw[8:] == b"xyz"
        assert Frame.decode(raw) == frame

    def test_whole_frame_has_a_four_byte_head(self):
        """A one-fragment message's frame and the ACK of a delivered message
        set flag bit 1 and send no fragment fields."""
        data = Frame(flags=0, message_id=0x1234, frag_index=0, frag_count=1, payload=b"xyz")
        assert data.whole
        assert data.encode() == b"\xd1\x02\x12\x34xyz"
        assert Frame.decode(data.encode()) == data
        ack = make_ack(message_id=0x1234, frag_count=3, held=0b111)
        assert ack.whole and ack.is_ack
        assert ack.encode() == b"\xd1\x03\x12\x34"
        assert Frame.decode(ack.encode()) == ack
        assert fragment(b"xyz", mtu=222, message_id=0x1234) == [data]

    @pytest.mark.parametrize(
        "frame",
        [
            _Fragmented(0, 1, 0, 1, b"x"),  # a one-fragment message with fragment fields
            _Fragmented(FLAG_ACK, 1, 0, 3, b"\x07"),  # a bitmap that sets every bit
            _Fragmented(FLAG_ACK, 1, 0, 9, b"\xff\x01"),
        ],
        ids=["one-fragment-data", "every-bit-of-3", "every-bit-of-9"],
    )
    def test_second_spelling_of_a_whole_frame_rejected(self, frame):
        with pytest.raises(FrameError, match="whole message"):
            Frame.decode(frame.encode())
        with pytest.raises(FrameError, match="whole message"):
            decode_packet(frame.encode())

    @pytest.mark.parametrize(
        "raw", [b"\xd1\x02\x00\x09", b"\xd1\x00\x00\x09\x00\x00\x00\x02"],
        ids=["whole", "fragment"],
    )
    def test_data_frame_without_payload_rejected(self, raw):
        # No sender makes one: send() refuses an empty message, and fragment()
        # gives every frame part of the message.
        with pytest.raises(FrameError, match="without payload"):
            Frame.decode(raw)
        with pytest.raises(FrameError, match="without payload"):
            decode_packet(make_ack(1, 1, 1).encode() + raw)

    @pytest.mark.parametrize(
        ("raw", "refusal"),
        [
            ("d1120005" "6869", "reserved flag bits"),  # bit 4 on a whole data frame
            ("d1820005" "6869", "reserved flag bits"),  # bit 7
            ("d1060005" "6869", "reserved flag bits"),  # bit 2, once the batch flag
            ("d1041234" "00020003" "78797a", "reserved flag bits"),  # bit 2 on a fragment
            ("d1070005", "reserved flag bits"),  # bit 2 on a whole ACK
            ("d10b0005", "data flags"),  # the last flag on a whole ACK
            ("d1090005" "00000002" "00", "data flags"),  # the last flag on a hole report
            ("d1080005" "00000002" "6869", "sent as last"),  # the last flag on a fragment
        ],
        ids=["bit-4", "bit-7", "bit-2", "bit-2-fragment", "batch-ack", "last-ack",
             "last-hole-report", "last-fragment"],
    )
    def test_flags_outside_their_one_wire_form_rejected(self, raw, refusal):
        """A frame sets only the three flags, an ACK not the last flag, and
        only a whole data frame the last flag."""
        with pytest.raises(FrameError, match=refusal):
            Frame.decode(bytes.fromhex(raw))
        with pytest.raises(FrameError, match=refusal):
            decode_packet(bytes.fromhex(raw))
        with pytest.raises(FrameError):
            decode_packet(make_ack(1, 1, 1).encode() + bytes.fromhex(raw))

    def test_last_whole_data_frame_round_trips(self):
        frame = Frame(FLAG_LAST, 5, 0, 1, b"hi")
        assert frame.encode() == bytes.fromhex("d10a00056869")
        assert Frame.decode(frame.encode()) == frame
        ack = make_ack(9, 1, 1)
        assert decode_packet(ack.encode() + frame.encode()) == (ack, frame)

    def test_bad_magic_rejected(self):
        raw = bytearray(Frame(0, 1, 0, 1, b"").encode())
        raw[0] = 0x55
        with pytest.raises(FrameError):
            Frame.decode(bytes(raw))

    def test_short_frame_rejected(self):
        with pytest.raises(FrameError):
            Frame.decode(b"\xd1\x00\x00")

    def test_ack_frame_carries_acknowledged_index(self):
        """A hole report: frag_index 0, the message's frag_count, and a bitmap
        of ceil(frag_count / 8) bytes, bit i (LSB first) for fragment i."""
        held = 1 << 0 | 1 << 2 | 1 << 9  # fragments 0, 2 and 9 of 10
        ack = make_ack(message_id=7, frag_count=10, held=held)
        assert ack.is_ack
        raw = ack.encode()
        assert raw[:8] == b"\xd1\x01\x00\x07\x00\x00\x00\x0a"
        assert raw[8:] == bytes([0b0000_0101, 0b0000_0010])
        decoded = Frame.decode(raw)
        assert decoded.is_ack
        assert decoded.held == held
        # A hole report of up to 8 fragments takes 9 bytes; a whole ACK 4, however many.
        assert [len(make_ack(1, n, 0).encode()) for n in (1, 8, 9)] == [9, 9, 10]
        assert [len(make_ack(1, n, (1 << n) - 1).encode()) for n in (1, 8, 9)] == [4, 4, 4]

    @pytest.mark.parametrize(
        ("frame", "refusal"),
        [
            (Frame(FLAG_ACK, 1, 0, 10, b"\xff"), "cut short"),  # bitmap one byte short
            (Frame(FLAG_ACK, 1, 0, 3, b"\x03\x00"), "follow the ACK"),  # one byte long
            (Frame(FLAG_ACK, 1, 0, 3, b"\x08"), "beyond"),  # bit 3 of a 3-fragment message
            (Frame(FLAG_ACK, 1, 1, 3, b"\x03"), "frag_index 1"),  # frag_index not 0
        ],
        ids=["short", "long", "bit-beyond-count", "nonzero-index"],
    )
    def test_malformed_ack_bitmap_rejected(self, frame, refusal):
        """The decoder refuses the ACK, alone or riding a data frame."""
        with pytest.raises(FrameError, match=refusal):
            Frame.decode(frame.encode())
        with pytest.raises(FrameError):
            decode_packet(frame.encode() + Frame(0, 2, 0, 1, b"data").encode())


message_ids = st.integers(min_value=0, max_value=0xFFFF)


@st.composite
def emitted_packets(draw):
    """A packet a Messenger can emit, as its (ACK, data frame) pair: a data
    frame, whole, possibly sent last, or a fragment, with a whole ACK, a hole
    report or no ACK riding it, or an ACK alone."""
    mtu = draw(st.sampled_from([64, 222, 244]))
    message = draw(st.binary(min_size=1, max_size=1500))
    data = draw(st.sampled_from(fragment(message, mtu, draw(message_ids))) | st.none())
    if data is not None and data.whole and draw(st.booleans()):
        data = replace(data, flags=data.flags | FLAG_LAST)
    count = draw(st.integers(min_value=1, max_value=20))
    ack = make_ack(draw(message_ids), count, draw(st.integers(0, (1 << count) - 1)))
    if data is not None and draw(st.booleans()):
        ack = None
    return ack, data


def packet_bytes(packet) -> bytes:
    return b"".join(frame.encode() for frame in packet if frame is not None)


@st.composite
def damaged_packets(draw):
    """An emitted packet cut short, with a bit flipped, or with bytes after it."""
    raw = packet_bytes(draw(emitted_packets()))
    damage = draw(st.sampled_from(["truncate", "flip", "extend"]))
    if damage == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if damage == "flip":
        flipped = bytearray(raw)
        flipped[draw(st.integers(0, len(raw) - 1))] ^= 1 << draw(st.integers(0, 7))
        return bytes(flipped)
    return raw + draw(st.binary(min_size=1, max_size=12))


class TestPacketCodec:
    """Each packet has one wire form: what a Messenger emits decodes back to its
    frames, and any other bytes decode to the frames they encode, or FrameError."""

    @settings(max_examples=300, deadline=None)
    @given(packet=emitted_packets())
    def test_every_emitted_packet_decodes_to_its_frames(self, packet):
        assert decode_packet(packet_bytes(packet)) == packet
        for frame in packet:
            if frame is not None:
                assert Frame.decode(frame.encode()) == frame

    @settings(max_examples=500, deadline=None)
    @given(raw=st.binary(max_size=48) | damaged_packets())
    def test_arbitrary_bytes_raise_only_frame_error(self, raw):
        try:
            packet = decode_packet(raw)
        except FrameError:
            return
        assert packet_bytes(packet) == raw


class TestFragment:
    def test_500_bytes_over_lora_is_three_frames(self):
        frames = fragment(bytes(500), mtu=222, message_id=1)
        assert len(frames) == 3
        assert [len(f.payload) for f in frames] == [214, 214, 72]
        assert [(f.frag_index, f.frag_count) for f in frames] == [(0, 3), (1, 3), (2, 3)]

    def test_500_bytes_over_ble_is_three_frames(self):
        frames = fragment(bytes(500), mtu=244, message_id=1)
        assert len(frames) == 3  # capacity 236, ceil(500/236) == 3

    def test_exact_capacity_single_frame(self):
        frames = fragment(bytes(214), mtu=222, message_id=1)
        assert [(f.frag_index, f.frag_count) for f in frames] == [(0, 1)]

    def test_one_byte_over_ble_single_frame(self):
        assert len(fragment(b"x", mtu=244, message_id=1)) == 1

    def test_mtu_too_small_rejected(self):
        with pytest.raises(TransportError):
            fragment(b"data", mtu=8, message_id=1)

    def test_empty_message_rejected(self):
        with pytest.raises(TransportError):
            fragment(b"", mtu=222, message_id=1)

    def test_fragment_count_overflow_rejected(self):
        with pytest.raises(TransportError):
            fragment(bytes(0x10000), mtu=9, message_id=1)  # 65536 one-byte chunks

    def test_decode_rejects_index_beyond_count(self):
        raw = bytearray(Frame(0, 1, 0, 2, b"a").encode())
        raw[4:6] = (5).to_bytes(2, "big")  # frag_index 5 of frag_count 2
        with pytest.raises(FrameError):
            Frame.decode(bytes(raw))

    def test_count_formula_exact(self):
        rng = Random(5)
        for _ in range(300):
            mtu = rng.choice([64, 222, 244, 1500])
            size = rng.randrange(1, 10_001)
            frames = fragment(bytes(size), mtu, 1)
            assert len(frames) == math.ceil(size / (mtu - HEADER_LEN))
            assert all(len(f.encode()) <= mtu for f in frames)


class TestReassemble:
    def test_shuffled_frames_reassemble(self):
        message = bytes(range(256)) * 4
        frames = fragment(message, mtu=64, message_id=9)
        Random(1).shuffle(frames)
        assert reassemble(frames) == message

    def test_missing_middle_fragment_incomplete(self):
        frames = fragment(bytes(600), mtu=222, message_id=1)
        assert reassemble([frames[0], frames[2]]) is None

    def test_duplicates_are_idempotent(self):
        message = b"hello world, fragmented"
        frames = fragment(message, mtu=16, message_id=1)
        assert reassemble(frames + frames) == message

    def test_inconsistent_frag_count_rejected(self):
        a = Frame(0, 1, 0, 2, b"aa")
        b = Frame(0, 1, 1, 3, b"bb")
        with pytest.raises(FrameError):
            reassemble([a, b])

    def test_mixed_message_ids_rejected(self):
        a = Frame(0, 1, 0, 2, b"aa")
        b = Frame(0, 2, 1, 2, b"bb")
        with pytest.raises(FrameError):
            reassemble([a, b])

    @settings(max_examples=200, deadline=None)
    @given(
        message=st.binary(min_size=1, max_size=4000),
        mtu=st.sampled_from([64, 222, 244, 1500]),
        shuffle_seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_roundtrip_property(self, message, mtu, shuffle_seed):
        frames = fragment(message, mtu, message_id=3)
        Random(shuffle_seed).shuffle(frames)
        assert reassemble(frames) == message

    def test_roundtrip_exhaustive_lengths(self):
        rng = Random(11)
        cases = 0
        for mtu in (64, 222, 244, 1500):
            for _ in range(250):
                message = rng.randbytes(rng.randrange(1, 2500))
                frames = fragment(message, mtu, 1)
                rng.shuffle(frames)
                assert reassemble(frames) == message
                cases += 1
        assert cases == 1000

    def test_roundtrip_every_length_to_10k(self):
        payload = Random(13).randbytes(10_000)
        for mtu in (64, 222, 244, 1500):
            for size in range(1, 10_001):
                assert reassemble(fragment(payload[:size], mtu, 1)) == payload[:size]


class TestProfiles:
    def test_lora_mtu(self):
        assert PROFILES["lora"].mtu == 222

    def test_ble_mtu(self):
        assert PROFILES["ble"].mtu == 244

    def test_lossless_profile(self):
        profile = PROFILES["lossless"]
        assert profile.mtu == 65535
        assert profile.loss_probability == 0.0

    def test_unknown_profile_rejected(self):
        with pytest.raises(TransportError):
            make_link("zigbee")

    def test_link_of_an_endpoint_to_itself_rejected(self):
        with pytest.raises(TransportError, match="itself"):
            make_link("lora", "camera", "camera")
        with pytest.raises(TransportError, match="itself"):
            SimLink(PROFILES["lora"], "A", "A")


class TestReliableDelivery:
    def test_lossless_no_retransmissions(self):
        link = make_link("lora", seed=1)
        sender = Messenger(link, "A")
        Messenger(link, "B")
        assert deliver(sender, bytes(500)) == 3
        assert data_frames(link) == 3  # no retransmissions

    def test_message_arrives_intact(self):
        link = make_link("ble", seed=2)
        sender = Messenger(link, "A")
        receiver = Messenger(link, "B")
        message = Random(3).randbytes(700)
        deliver(sender, message)
        assert receiver.receive() == message

    def test_total_loss_fails_after_retry_budget(self):
        link = make_link("lora", loss=1.0, seed=1)
        sender = Messenger(link, "A")
        Messenger(link, "B")
        with pytest.raises(DeliveryError):
            deliver(sender, b"doomed")
        data_frames = [e for e in link.trace if e.kind == "data"]
        assert len(data_frames) == 1 + RETRY_LIMIT
        assert all(e.frag_index == 0 for e in data_frames)

    def test_total_loss_report_counts_every_round(self):
        link = make_link("lora", loss=1.0, seed=1)
        sender = Messenger(link, "A")
        Messenger(link, "B")
        fragments = sender.send(bytes(301))  # two LoRa fragments
        while not sender.idle:
            link.tick()
        assert isinstance(sender.failure, DeliveryError)
        assert fragments == 2
        assert data_frames(link) == len(link.trace) == 2 * (1 + RETRY_LIMIT)
        assert data_frames(link) - fragments == 2 * RETRY_LIMIT

    def test_lossy_link_deterministic_reports(self):
        def run():
            link = make_link("lora", loss=0.1, seed=42)
            sender = Messenger(link, "A")
            receiver = Messenger(link, "B")
            fragments = deliver(sender, bytes(1000))
            return fragments, link.trace_lines(), receiver.receive()

        first_fragments, first_trace, first_msg = run()
        second_fragments, second_trace, second_msg = run()
        assert first_fragments == second_fragments
        assert first_trace == second_trace
        assert first_msg == second_msg == bytes(1000)

    def test_lossy_link_eventually_delivers(self):
        link = make_link("lora", loss=0.3, seed=7)
        sender = Messenger(link, "A")
        receiver = Messenger(link, "B")
        fragments = deliver(sender, bytes(600))
        assert receiver.receive() == bytes(600)
        assert data_frames(link) > fragments  # some went out again

    def test_reordering_survived(self):
        link = make_link("ble", reorder=0.5, seed=5)
        sender = Messenger(link, "A")
        receiver = Messenger(link, "B")
        message = Random(9).randbytes(2000)
        deliver(sender, message)
        assert receiver.receive() == message

    def test_no_frame_exceeds_mtu(self):
        link = make_link("lora", loss=0.2, seed=12)
        sender = Messenger(link, "A")
        Messenger(link, "B")
        deliver(sender, bytes(3000))
        assert all(entry.length <= 222 for entry in link.trace)

    def test_oversized_frame_rejected_at_link_boundary(self):
        link = make_link("lora")
        with pytest.raises(TransportError):
            link.transmit("A", Frame(0, 1, 0, 1, bytes(500)))

    def test_duplicate_data_is_reacked_not_redelivered(self):
        link = make_link("ble", seed=4)
        sender = Messenger(link, "A")
        receiver = Messenger(link, "B")
        frames = fragment(b"only once", link.profile.mtu, 1)
        for _ in range(3):
            link.transmit("A", frames[0])
            for _ in range(4):
                link.tick()
        assert receiver.receive() == b"only once"
        assert receiver.receive() is None
        acks = [e for e in link.trace if e.kind == "ack"]
        assert len(acks) == 3

    def test_ack_that_would_exceed_the_mtu_is_never_needed(self):
        # An ACK within a 9-byte MTU has one bitmap byte: 8 fragments of 1 byte.
        link = make_link(LinkProfile("tiny", mtu=9), seed=1)
        sender = Messenger(link, "A")
        receiver = Messenger(link, "B")
        with pytest.raises(TransportError):
            deliver(sender, bytes(9))
        assert link.trace == []
        deliver(sender, bytes(range(8)))
        assert receiver.receive() == bytes(range(8))
        # A frame of a 9-fragment message is dropped, never acknowledged.
        link.transmit("A", Frame(0, 0x7777, 0, 9, b"x"))
        for _ in range(2):
            link.tick()
        assert link.malformed_frames == 1
        assert [e.kind for e in link.trace if e.message_id == 0x7777] == ["data"]


class TestNonBlockingSend:
    """send() starts a message and returns; SimLink.tick() carries it to its end."""

    def test_send_transmits_every_fragment_and_returns_without_ticking(self):
        link = make_link("lora", seed=1)
        sender = Messenger(link, "A")
        receiver = Messenger(link, "B")
        assert sender.send(bytes(500)) == 3
        assert link.now == 0 and not sender.idle
        assert [e.frag_index for e in link.trace] == [0, 1, 2]
        link.tick()
        assert receiver.receive() == bytes(500) and not sender.idle  # the ACK is on its way
        link.tick()
        assert sender.idle and sender.failure is None
        assert link.now == link.round_trip_ticks

    def test_second_send_while_one_is_in_flight_is_refused(self):
        link = make_link("lora", seed=1)
        sender = Messenger(link, "A")
        Messenger(link, "B")
        sender.send(b"first")
        with pytest.raises(TransportError, match="still in flight"):
            sender.send(b"second")
        assert [e.message_id for e in link.trace] == [1]
        assert sender._sent_id == 1  # refused before an id was taken

    def test_both_directions_in_flight_at_once(self):
        link = make_link("lora", seed=1)
        a = Messenger(link, "A")
        b = Messenger(link, "B")
        a.send(bytes(300))
        b.send(b"reply")
        link.tick()
        assert drain(b) == [bytes(300)] and drain(a) == [b"reply"]
        link.tick()
        assert a.idle and b.idle
        # Each endpoint numbers its own messages: both send their message 1.
        kinds = [(e.tick, e.src, e.kind, e.message_id) for e in link.trace]
        assert kinds == [
            (0, "A", "data", 1), (0, "A", "data", 1), (0, "B", "data", 1),
            (1, "A", "ack", 1), (1, "B", "ack", 1),
        ]

    def test_a_send_that_gives_up_leaves_its_error_and_the_next_send_clears_it(self):
        link = make_link("lora", loss=1.0, seed=1)
        sender = Messenger(link, "A")
        Messenger(link, "B")
        sender.send(b"doomed")
        while not sender.idle:
            link.tick()  # nothing raises out of tick()
        assert isinstance(sender.failure, DeliveryError)
        assert data_frames(link) == 1 + RETRY_LIMIT
        sender.send(b"again")
        assert sender.failure is None


class TestBatch:
    """send(message): one message per send, and the transport batches nothing.
    A handshake leg of several messages travels as one message, those
    messages back to back (tests/test_harness.py::TestLegs)."""

    def _sent_frames(self, message):
        link = make_link("lora", seed=1)
        sender = Messenger(link, "A")
        receiver = Messenger(link, "B")
        frames, transmit = [], link.transmit

        def recording_transmit(src, frame):
            if src == "A":
                frames.append(frame)
            transmit(src, frame)

        link.transmit = recording_transmit
        deliver(sender, message)
        return frames, drain(receiver)

    def test_one_message_travels_unbatched(self):
        # Bytes that open with what reads as a length travel as themselves
        # too: the transport adds no prefix of its own.
        for message in (b"abc", b"\x00\x01x", b"\x00\x02xy", bytes(range(8)), bytes(300)):
            frames, received = self._sent_frames(message)
            assert b"".join(f.payload for f in frames) == message
            assert {f.flags for f in frames} == {0}
            assert received == [message]

    @pytest.mark.parametrize("message", [b""], ids=["empty"])
    def test_unsendable_messages_rejected_before_transmitting(self, message):
        link = make_link("lora", seed=1)
        sender = Messenger(link, "A")
        Messenger(link, "B")
        with pytest.raises(TransportError):
            deliver(sender, message)
        assert link.trace == []
        assert sender._sending is None and sender._sent_id == 0


class TestTrace:
    def test_trace_line_format(self):
        link = make_link("lora", a="cam", b="lock", seed=1)
        sender = Messenger(link, "cam")
        Messenger(link, "lock")
        deliver(sender, bytes(300))
        line = link.trace_lines()[0]
        assert line.startswith("t=0 dir=cam→lock type=data id=1 idx=0/2 len=222 dropped=false")

    def test_ack_trace_line_names_the_acknowledged_fragments(self):
        link = make_link("lora", a="cam", b="lock", seed=1)
        sender = Messenger(link, "cam")
        Messenger(link, "lock")
        deliver(sender, bytes(300))
        assert link.trace_lines()[2] == "t=1 dir=lock→cam type=ack id=1 acked=all len=4 dropped=false"

    def test_ack_riding_a_reply_is_on_the_reply_trace_line(self):
        link = make_link("lora", a="cam", b="lock", seed=1)
        cam = Messenger(link, "cam")
        lock = Messenger(link, "lock")
        cam.send(bytes(300))
        link.tick()
        lock.send(b"reply")  # answers in the tick the message arrived
        assert link.trace_lines()[2] == (
            "t=1 dir=lock→cam type=data id=1 idx=0/1 ack=1:all len=13 dropped=false"
        )
        link.tick()
        assert cam.idle and drain(cam) == [b"reply"]

    def test_bytes_on_wire_matches_trace_sum(self):
        link = make_link("lora", loss=0.15, seed=3)
        sender = Messenger(link, "A")
        Messenger(link, "B")
        deliver(sender, bytes(900))
        assert link.bytes_on_wire() == sum(e.length for e in link.trace)


class TestAckTimeout:
    """One timer covers every unacknowledged fragment of a round. A round that
    carries no ACK due, as every round of a one-way send, arms the link's
    worst-case round trip."""

    @pytest.mark.parametrize("fragments", [1, 2, 15])
    def test_lossless_message_is_acknowledged_in_one_round_trip(self, fragments):
        link = make_link("lora", seed=1)
        sender = Messenger(link, "A")
        receiver = Messenger(link, "B")
        message = Random(fragments).randbytes(fragments * (link.profile.mtu - HEADER_LEN))
        assert deliver(sender, message) == data_frames(link) == fragments
        assert receiver.receive() == message
        assert link.now == link.round_trip_ticks

    def test_only_the_lost_fragment_is_retransmitted(self):
        link = make_link("lora", seed=1)
        sender = Messenger(link, "A")
        receiver = Messenger(link, "B")
        transmit, lost = link.transmit, []

        def lose_first_copy_of_fragment_1(src, frame):
            if not frame.is_ack and frame.frag_index == 1 and not lost:
                lost.append(frame)
                return
            transmit(src, frame)

        link.transmit = lose_first_copy_of_fragment_1
        message = Random(2).randbytes(600)  # three LoRa fragments
        assert deliver(sender, message) == 3
        assert receiver.receive() == message
        # The lost copy never reached the trace; the one after it did.
        assert [f.frag_index for f in lost] == [1]
        round_trip = link.round_trip_ticks
        data = [(e.tick, e.frag_index) for e in link.trace if e.kind == "data"]
        assert data == [(0, 0), (0, 2), (round_trip, 1)]
        assert link.now == 2 * round_trip

    @pytest.mark.parametrize("reorder,round_trip", [(0.0, 2), (0.1, 6)])
    def test_total_loss_retries_one_round_trip_apart(self, reorder, round_trip):
        link = make_link("lora", loss=1.0, reorder=reorder, seed=1)
        sender = Messenger(link, "A")
        Messenger(link, "B")
        with pytest.raises(DeliveryError):
            deliver(sender, bytes(300))  # two LoRa fragments
        rounds = [round_trip * r for r in range(1 + RETRY_LIMIT)]
        for index in (0, 1):
            assert [e.tick for e in link.trace if e.frag_index == index] == rounds
        assert link.now == round_trip * (1 + RETRY_LIMIT)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        loss=st.floats(min_value=0.0, max_value=0.5),
        reorder=st.floats(min_value=0.0, max_value=1.0),
        size=st.integers(min_value=1, max_value=1500),
    )
    @example(seed=0, loss=0.0, reorder=1.0, size=1000)
    def test_retransmits_only_after_a_drop(self, seed, loss, reorder, size):
        link = make_link("lora", loss=loss, reorder=reorder, seed=seed)
        sender = Messenger(link, "A")
        receiver = Messenger(link, "B")
        message = Random(seed).randbytes(size)
        try:
            fragments = deliver(sender, message)
        except DeliveryError:
            fragments = None
        received = receiver.receive()
        data = [e for e in link.trace if e.kind == "data"]
        acks = [e for e in link.trace if e.kind == "ack"]
        ticks = sorted({e.tick for e in data})
        assert all(b - a == link.round_trip_ticks for a, b in zip(ticks, ticks[1:]))
        sent = [{e.frag_index: e for e in data if e.tick == t} for t in ticks]
        for before, start, after in zip(sent, ticks, sent[1:]):
            end = start + link.round_trip_ticks
            assert after.keys() <= before.keys()
            # Every ACK sent within a round reaches the sender by its end, unless
            # dropped. A whole ACK covers every fragment.
            acked = {
                index for a in acks if start <= a.tick < end and not a.dropped
                for index in (before if a.acked is None else a.acked)
            }
            for index in before:
                # A fragment goes out again only if its last copy was dropped,
                # or no ACK with its bit set reached the sender within that round.
                if index in after:
                    assert before[index].dropped or index not in acked
                else:
                    assert index in acked
        if fragments is None:
            assert len(sent) == 1 + RETRY_LIMIT
            assert received in (None, message)
        else:
            assert received == message
            if loss == 0.0:
                assert len(data) == fragments  # no retransmissions

    def test_lossless_send_draws_exactly_one_ack(self):
        link = make_link("lora", seed=1)
        sender = Messenger(link, "A")
        receiver = Messenger(link, "B")
        for fragments in range(1, 6):
            message = Random(fragments).randbytes(fragments * (link.profile.mtu - HEADER_LEN))
            assert deliver(sender, message) == fragments
            assert receiver.receive() == message
            acks = [e for e in link.trace if e.kind == "ack" and e.message_id == fragments]
            assert [(a.acked, a.length) for a in acks] == [(None, 4)]  # whole

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        loss=st.floats(min_value=0.0, max_value=0.5),
        reorder=st.floats(min_value=0.0, max_value=1.0),
        size=st.integers(min_value=1, max_value=1500),
    )
    def test_acks_never_outnumber_delivered_data_frames(self, seed, loss, reorder, size):
        link = make_link("lora", loss=loss, reorder=reorder, seed=seed)
        sender = Messenger(link, "A")
        Messenger(link, "B")
        try:
            deliver(sender, Random(seed).randbytes(size))
        except DeliveryError:
            pass
        delivered = [e for e in link.trace if e.kind == "data" and not e.dropped]
        acks = [e for e in link.trace if e.kind == "ack"]
        assert len(acks) <= len(delivered)

    def test_lossy_reordering_trace_matches_fixture(self):
        assert lossy_reordering_trace() == LOSSY_TRACE.read_text(encoding="utf-8").splitlines()


class TestPiggybackedAck:
    """An ACK rides the first data frame with room that its endpoint sends in the
    tick its data arrived, and goes alone in that tick when there is none."""

    def test_ack_rides_a_retransmission_round(self):
        link = make_link("lora", seed=1)
        a = Messenger(link, "A")
        b = Messenger(link, "B")
        transmit, lost = link.transmit, []

        def lose_first_frame_of_b(src, frame, ack=None):
            if src == "B" and not lost:
                lost.append(frame)
                return
            transmit(src, frame, ack)

        link.transmit = lose_first_frame_of_b
        b.send(b"from B")  # lost; B's timer fires at tick 2
        link.tick()
        a.send(b"from A")  # arrives at B in tick 2
        link.tick()
        entry = link.trace[-1]
        assert (entry.tick, entry.src, entry.kind, entry.message_id) == (2, "B", "data", 1)
        assert (entry.ack_id, entry.acked) == (1, None)  # A's message 1, whole
        link.tick()
        link.tick()
        assert a.idle and b.idle
        assert drain(a) == [b"from B"] and drain(b) == [b"from A"]
        # A has nothing to send in tick 3, so B's message's ACK goes alone.
        assert [(e.tick, e.src, e.ack_id) for e in link.trace if e.kind == "ack"] == [
            (3, "A", 1)
        ]

    @pytest.mark.parametrize("profile", ["lora", "ble"])
    @pytest.mark.parametrize(
        "request_fragments, ack_len", [(1, 4), (2, 9), (10, 10)],
        ids=["4-byte-ack", "9-byte-ack", "10-byte-ack"],
    )
    def test_a_packet_never_exceeds_the_mtu(self, profile, request_fragments, ack_len):
        """Near capacity, the ACK rides the reply's last fragment only if the
        packet fits. A delivered request draws a 4-byte whole ACK; a request of
        2 or 10 fragments whose last one is lost draws a 9- or 10-byte hole report."""
        capacity = PROFILES[profile].mtu - HEADER_LEN
        for last in range(capacity - ack_len - 3, capacity + 1):
            link = make_link(profile, seed=1)
            a = Messenger(link, "A")
            b = Messenger(link, "B")
            transmit = link.transmit

            def lose_first_copy_of_the_requests_last_fragment(src, frame, ack=None):
                last_of_many = request_fragments > 1 and frame.frag_index == request_fragments - 1
                if not (src == "A" and last_of_many and link.now == 0):
                    transmit(src, frame, ack)

            link.transmit = lose_first_copy_of_the_requests_last_fragment
            request = bytes(request_fragments * capacity)
            reply = Random(last).randbytes(capacity + last)  # two fragments
            a.send(request)
            link.tick()
            b.send(reply)
            while not (a.idle and b.idle):
                link.tick()
            assert drain(b) == [request] and drain(a) == [reply]
            assert all(e.length <= link.profile.mtu for e in link.trace)
            replies = [e for e in link.trace if e.src == "B" and e.tick == 1]
            fits = HEADER_LEN + last + ack_len <= link.profile.mtu
            assert [(e.kind, e.frag_index, e.ack_id) for e in replies] == (
                [("data", 0, None), ("data", 1, 1)] if fits
                else [("data", 0, None), ("data", 1, None), ("ack", 0, 1)]
            )
            assert replies[1].length == HEADER_LEN + last + (ack_len if fits else 0)
            held = None if request_fragments == 1 else tuple(range(request_fragments - 1))
            assert replies[-1].acked == held
            if not fits:
                assert replies[-1].length == ack_len

    def test_packet_layout_is_the_ack_then_the_data_frame(self):
        hole_report = make_ack(7, 10, 0b01_1111_1111)
        whole_ack = make_ack(7, 10, 0b11_1111_1111)
        data = Frame(0, 8, 1, 2, b"payload")
        for ack, ack_len in ((hole_report, 10), (whole_ack, 4)):
            raw = ack.encode() + data.encode()
            assert len(raw) == ack_len + 15
            assert decode_packet(raw) == (ack, data)
            assert decode_packet(ack.encode()) == (ack, None)
        assert decode_packet(data.encode()) == (None, data)


class TestReriddenAck:
    """A data frame that carries no due ACK, and has room, carries the ACK of the
    newest message its endpoint holds; such an ACK never goes alone."""

    @staticmethod
    def _exchange(profile: str, request: bytes, reply: bytes):
        """A sends `request` at tick 0 and B sends its two-fragment `reply` in the
        tick the request arrives. B's first copy of its last fragment is lost, with
        any ACK riding it, and so is every data frame A sends after tick 0, so B
        never sees a duplicate of the request. Returns the link and the tick A's
        send ended in."""
        link = make_link(profile, seed=1)
        a = Messenger(link, "A")
        b = Messenger(link, "B")
        transmit, lost = link.transmit, []

        def lose(src, frame, ack=None):
            first_last = src == "B" and frame.frag_index == 1 and not lost
            if first_last or (src == "A" and not frame.is_ack and link.now > 0):
                lost.append((link.now, src, frame.frag_index))
                return
            transmit(src, frame, ack)

        link.transmit = lose
        a.send(request)
        link.tick()
        assert drain(b) == [request]
        b.send(reply)
        ended = None
        while not (a.idle and b.idle):
            link.tick()
            if ended is None and a.idle:
                ended = link.now
        assert a.failure is None and b.failure is None
        assert drain(a) == [reply]
        assert (1, "B", 1) in lost
        return link, ended

    def test_next_round_of_a_reply_ends_the_request_it_answers(self):
        capacity = PROFILES["lora"].mtu - HEADER_LEN
        link, ended = self._exchange("lora", bytes(100), bytes(capacity + 50))
        replies = [(e.tick, e.frag_index, e.ack_id, e.acked) for e in link.trace if e.src == "B"]
        # B's first round lost its last fragment and the request's ACK with it;
        # A's ACK of fragment 0 was lost on A's retransmission, so B's second
        # round sends both fragments and its last one states the request again.
        assert replies == [(1, 0, None, ()), (3, 0, None, ()), (3, 1, 1, None)]
        # The request ends in the tick that round arrives, not on a re-ACK that a
        # duplicate of the request would draw a round later.
        assert ended == 3 + TRANSIT_TICKS
        assert [e.tick for e in link.trace if e.src == "A" and e.kind == "data"] == [0]

    @pytest.mark.parametrize("profile", ["lora", "ble"])
    @pytest.mark.parametrize(
        "acked_fragments", [1, 9], ids=["1-fragment-request", "9-fragment-request"]
    )
    def test_a_reridden_ack_never_goes_alone_or_over_the_mtu(self, profile, acked_fragments):
        capacity = PROFILES[profile].mtu - HEADER_LEN
        ack_len = 4  # the request is delivered: its ACK is whole, however many fragments
        for last in range(capacity - ack_len - 3, capacity + 1):
            request = bytes(acked_fragments * capacity)
            reply = Random(last).randbytes(capacity + last)  # two fragments
            link, _ = self._exchange(profile, request, reply)
            assert all(e.length <= link.profile.mtu for e in link.trace)
            sent = [e for e in link.trace if e.src == "B"]
            replies = [(e.tick, e.kind, e.frag_index, e.ack_id) for e in sent]
            fits = HEADER_LEN + last + ack_len <= link.profile.mtu
            # A's ACK of fragment 0 goes alone, since A's full request fragments
            # have no room, so B's second round, at tick 3, resends the last
            # fragment only. B has no ACK due then: the fragment carries the
            # request's ACK only if the packet fits, and no ACK goes alone.
            assert replies == (
                [(1, "data", 0, None), (3, "data", 1, 1)] if fits
                else [(1, "data", 0, None), (1, "ack", 0, 1), (3, "data", 1, None)]
            )
            assert sent[-1].length == HEADER_LEN + last + (ack_len if fits else 0)


class _Rounds(Messenger):
    """A Messenger that logs each round it transmits: (message id, round, timer ticks)."""

    def __init__(self, link: SimLink, endpoint: str):
        super().__init__(link, endpoint)
        self.rounds: list[tuple[int, int, int]] = []

    def _transmit_round(self) -> None:
        super()._transmit_round()
        out = self._sending
        self.rounds.append((out.message_id, out.rounds, out.deadline - self.link.now))


class TestAnswerTimer:
    """A round that carries an ACK due, the ACK of a peer message whose data
    arrived in the tick, arms the round trip with at most one leg reordered;
    any other round arms the link's worst-case round trip."""

    @pytest.mark.parametrize("reorder, answer_bound", [
        (0.0, 2 * TRANSIT_TICKS), (0.1, 2 * TRANSIT_TICKS + REORDER_DELAY_TICKS),
    ])
    def test_a_round_that_carries_an_ack_due_arms_the_shorter_timer(self, reorder, answer_bound):
        link = make_link("lora", reorder=reorder, seed=1)
        a, b = _Rounds(link, "A"), _Rounds(link, "B")
        assert link.answer_round_trip_ticks == answer_bound
        one_way = TRANSIT_TICKS + (REORDER_DELAY_TICKS if reorder else 0)
        assert link.round_trip_ticks == 2 * one_way
        a.send(b"request")
        link.tick()
        assert drain(b) == [b"request"]
        b.send(b"answer")
        assert link.trace[-1].ack_id == 1  # the answer carries the request's ACK, due
        assert a.rounds == [(1, 1, link.round_trip_ticks)]
        assert b.rounds == [(1, 1, answer_bound)]

    @pytest.mark.parametrize("reorder", [0.0, 0.1])
    @pytest.mark.parametrize("case", ["answer-a-tick-late", "answer-without-room"])
    def test_a_round_without_an_ack_due_arms_the_worst_case(self, reorder, case):
        link = make_link("lora", reorder=reorder, seed=1)
        a, b = _Rounds(link, "A"), _Rounds(link, "B")
        a.send(b"request")
        link.tick()
        assert drain(b) == [b"request"]
        if case == "answer-a-tick-late":
            # The request's ACK goes alone at the end of the tick it arrived in;
            # the answer carries it again, re-ridden, not due.
            link.tick()
            b.send(b"answer")
            expected = [(1, "ack", 1), (2, "data", 1)]
        else:
            # A full last fragment leaves no room, so the ACK goes alone at the tick's end.
            b.send(bytes(2 * (link.profile.mtu - HEADER_LEN)))
            link.tick()
            expected = [(1, "data", None), (1, "data", None), (1, "ack", 1)]
        assert [(e.tick, e.kind, e.ack_id) for e in link.trace if e.src == "B"] == expected
        assert b.rounds == [(1, 1, link.round_trip_ticks)]

    def test_a_lost_answer_is_sent_again_before_the_request_times_out(self):
        """The answer, and the request's ACK it carries, are lost. The answer's
        next round carries that ACK again and lands in the tick the request's
        timer fires; delivery runs first, so the request ends unsent again."""
        link = make_link("lora", reorder=0.1, seed=1)
        a, b = _Rounds(link, "A"), _Rounds(link, "B")
        transmit, lost = link.transmit, []

        def lose_the_first_answer(src, frame, ack=None):
            if src == "B" and not frame.is_ack and not lost:
                lost.append((link.now, ack.message_id))
                return
            transmit(src, frame, ack)

        link.transmit = lose_the_first_answer
        a.send(b"request")
        link.tick()
        assert drain(b) == [b"request"]
        b.send(b"answer")
        ended = None
        while not (a.idle and b.idle):
            link.tick()
            if ended is None and a.idle:
                ended = link.now
        assert drain(a) == [b"answer"] and a.failure is None and b.failure is None
        assert lost == [(1, 1)]
        answer_bound, full = link.answer_round_trip_ticks, link.round_trip_ticks
        assert a.rounds == [(1, 1, full)]  # the request went out exactly once
        assert ended == full  # in the tick its timer fires
        # The answer's second round carries a re-ridden ACK, not one due.
        assert b.rounds == [(1, 1, answer_bound), (1, 2, full)]
        packets = [(e.tick, e.src, e.kind, e.ack_id) for e in link.trace]
        assert packets == [
            (0, "A", "data", None),
            (1 + answer_bound, "B", "data", 1),
            (full, "A", "ack", 1),
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        reorder=st.floats(min_value=0.01, max_value=1.0),
        sizes=st.lists(st.integers(min_value=1, max_value=3 * 222), min_size=1, max_size=12),
    )
    @example(seed=0, reorder=1.0, sizes=[100] * 6)
    def test_no_worst_case_round_is_sent_again_on_a_loss_free_link(self, seed, reorder, sizes):
        """A opens, as a one-way send or a first HELLO does, and each side
        answers each message it receives with the next size: in the tick the
        message arrives when it is idle, else once it is. Nothing is lost, so a
        round goes out again only when its timer fired early, which the
        worst-case round trip never does."""
        link = make_link("lora", reorder=reorder, seed=seed)
        ends = {name: _Rounds(link, name) for name in link.endpoints}
        owed = {name: 0 for name in ends}
        pending = deque(sizes)
        ends["A"].send(bytes(pending.popleft()))
        for _ in range(100 * len(sizes)):
            if not pending and all(m.idle for m in ends.values()):
                break
            link.tick()
            for name, messenger in ends.items():
                owed[name] += len(drain(messenger))
                if owed[name] and messenger.idle and pending:
                    owed[name] -= 1
                    messenger.send(bytes(pending.popleft()))
        else:
            pytest.fail("the exchange did not end")
        assert ends["A"].rounds[0] == (1, 1, link.round_trip_ticks)  # the opening carries no ACK
        for messenger in ends.values():
            assert messenger.failure is None
            worst_case = {
                (m, r) for m, r, ticks in messenger.rounds if ticks == link.round_trip_ticks
            }
            sent_again = {(m, r - 1) for m, r, _ in messenger.rounds if r > 1}
            assert not worst_case & sent_again


def script_fates(link: SimLink, fate) -> None:
    """Decide each data frame's fate on `link` by `fate(src, frame)`: "lost",
    "late" (reordered) or "on time"; an ACK alone is always on time. The
    link's profile, and so its timers, stay as they are."""
    transmit, profile = link.transmit, link.profile

    def transmit_scripted(src, frame, ack=None):
        chosen = "on time" if frame.is_ack else fate(src, frame)
        link.profile = replace(
            profile, loss_probability=float(chosen == "lost"),
            reorder_probability=float(chosen == "late"),
        )
        try:
            transmit(src, frame, ack)
        finally:
            link.profile = profile

    link.transmit = transmit_scripted


class TestAnswerOnCopy:
    """A message sent in the tick a peer message was delivered answers it. A
    copy of that message, arriving while the answer is unacknowledged, sends
    the answer's unacknowledged fragments again in that tick, with the copy's
    ACK riding them, in a round that does not count toward RETRY_LIMIT."""

    @pytest.mark.parametrize("case", ["request-late", "two-answer-rounds-lost"])
    def test_lost_answer_goes_again_in_the_tick_the_copy_arrives(self, case):
        """request-late: the request is reordered and arrives at tick 3; its
        answer is lost, and the copy A's timer sends at 6 lands at 7, the tick
        the answer's 4-tick timer fires. two-answer-rounds-lost: the answer and
        its round at the timer are lost, the second arming the 6-tick timer of
        a round without an ACK due; the copy lands at 7, four ticks early. In
        both, the round the copy draws leaves `rounds` where it was, and A
        acknowledges the answer alone."""
        link = make_link("lora", reorder=0.1, seed=1)
        a, b = _Rounds(link, "A"), _Rounds(link, "B")
        answers_lost = 1 if case == "request-late" else 2
        sent = {"A": 0, "B": 0}

        def fate(src, frame):
            sent[src] += 1
            if src == "B":
                return "lost" if sent["B"] <= answers_lost else "on time"
            return "late" if case == "request-late" and sent["A"] == 1 else "on time"

        script_fates(link, fate)
        a.send(b"request")
        while (request := b.receive()) is None:
            link.tick()
        assert request == b"request"
        b.send(b"answer")
        ends = {}  # the tick each side's send ended in
        while not (a.idle and b.idle):
            link.tick()
            for name, messenger in (("A", a), ("B", b)):
                if messenger.idle:
                    ends.setdefault(name, link.now)
        assert a.failure is b.failure is None
        assert drain(a) == [b"answer"]
        answer_bound, full = link.answer_round_trip_ticks, link.round_trip_ticks
        packets = [(e.tick, e.src, e.kind, e.ack_id, e.dropped) for e in link.trace]
        if case == "request-late":
            assert b.rounds == [(1, 1, answer_bound), (1, 1, answer_bound)]
            assert packets == [
                (0, "A", "data", None, False),
                (3, "B", "data", 1, True),
                (6, "A", "data", None, False),
                (7, "B", "data", 1, False),
                (8, "A", "ack", 1, False),
            ]
        else:
            assert b.rounds == [(1, 1, answer_bound), (1, 2, full), (1, 2, answer_bound)]
            assert packets == [
                (0, "A", "data", None, False),
                (1, "B", "data", 1, True),
                (5, "B", "data", 1, True),
                (6, "A", "data", None, False),
                (7, "B", "data", 1, False),
                (8, "A", "ack", 1, False),
            ]
        # No ACK of the copy goes alone: it rides the answer sent again.
        assert [e.src for e in link.trace if e.kind == "ack"] == ["A"]
        assert a.rounds == [(1, 1, full), (1, 2, full)]
        assert ends == {"A": 8, "B": 9}

    @pytest.mark.parametrize("answers_lost", [3, 6, None], ids=["3", "6", "all"])
    def test_a_send_the_peer_keeps_copying_still_ends(self, answers_lost):
        """Every round of B's answer is lost, or its first `answers_lost`: A
        sends a copy of its request at each of its timers, and each draws a
        round of the answer. The answer ends delivered once a round gets
        through; with none, A gives up, its copies stop, and B gives up after
        RETRY_LIMIT rounds at its own timer."""
        link = make_link("lora", reorder=0.1, seed=1)
        a, b = _Rounds(link, "A"), _Rounds(link, "B")
        sent = []

        def fate(src, frame):
            if src == "A":
                return "on time"
            sent.append(link.now)
            return "lost" if answers_lost is None or len(sent) <= answers_lost else "on time"

        script_fates(link, fate)
        a.send(b"request")
        link.tick()
        assert drain(b) == [b"request"]
        b.send(b"answer")
        for _ in range(200):
            if a.idle and b.idle:
                break
            link.tick()
        assert a.idle and b.idle
        counted = [rounds for _, rounds, _ in b.rounds]
        # A round on a copy repeats the count of the round before it.
        on_copies = sum(x == y for x, y in zip(counted, counted[1:]))
        assert on_copies > 0
        if answers_lost is None:
            assert isinstance(a.failure, DeliveryError)
            assert isinstance(b.failure, DeliveryError)
            assert max(counted) == RETRY_LIMIT + 1
            assert len(b.rounds) == RETRY_LIMIT + 1 + on_copies
            assert drain(a) == []
        else:
            assert a.failure is b.failure is None
            assert drain(a) == [b"answer"]
            assert len(b.rounds) == answers_lost + 1
        assert max(counted) <= RETRY_LIMIT + 1


class _Truncated(Frame):
    """A frame cut short inside its 4-byte head."""

    def encode(self) -> bytes:
        return super().encode()[:3]


class TestMalformedPackets:
    """A packet with any part that does not decode or fit is dropped whole:
    its ACK acknowledges nothing and its data frame delivers nothing."""

    @staticmethod
    def _send_packet(trailer: Frame, prelude=()):
        """A's one-fragment message is lost; B's packet, a valid ACK claiming it
        followed by `trailer`, arrives in tick 1, after the `prelude` frames."""
        link = make_link("lora", seed=3)
        a = Messenger(link, "A")
        b = Messenger(link, "B")
        transmit, lost = link.transmit, []

        def lose_first_round(src, frame, ack=None):
            if src == "A" and not frame.is_ack and not lost:
                lost.append(frame)
                return
            transmit(src, frame, ack)

        link.transmit = lose_first_round
        message = Random(5).randbytes(100)
        a.send(message)
        for frame in prelude:
            transmit("B", frame)
        transmit("B", trailer, make_ack(lost[0].message_id, 1, 1))
        link.tick()
        assert link.malformed_frames == 1
        assert not a.idle  # the ACK in the dropped packet acknowledged nothing
        while not a.idle:
            link.tick()
        assert a.failure is None and b.receive() == message
        assert len(lost) == data_frames(link) == 1  # the lost round, then one more
        assert a.receive() is None
        return link

    def test_ack_then_a_truncated_data_frame(self):
        link = self._send_packet(_Truncated(0, 0x7777, 0, 1, b"x"))
        assert not any(e.src == "A" and e.ack_id == 0x7777 for e in link.trace)

    def test_ack_then_an_ack(self):
        # A whole ACK followed by a whole ACK.
        link = self._send_packet(make_ack(0x7777, 1, 1))
        assert not any(e.src == "A" and e.ack_id is not None for e in link.trace)

    def test_ack_then_a_hole_report(self):
        link = self._send_packet(make_ack(0x7777, 2, 1))
        assert not any(e.src == "A" and e.ack_id is not None for e in link.trace)

    def test_ack_then_a_second_spelling_of_a_whole_frame(self):
        link = self._send_packet(_Fragmented(0, 0x7777, 0, 1, b"x"))
        assert not any(e.src == "A" and e.ack_id == 0x7777 for e in link.trace)

    def test_ack_then_a_trailer_with_bad_magic(self):
        link = self._send_packet(_BadMagic(0, 0x7777, 0, 1, b"x"))
        assert not any(e.src == "A" and e.ack_id == 0x7777 for e in link.trace)

    def test_ack_then_data_with_an_inconsistent_frag_count(self):
        link = self._send_packet(
            Frame(0, 0x7777, 1, 3, b"y"), prelude=[Frame(0, 0x7777, 0, 2, b"x")]
        )
        acks = [e for e in link.trace if e.src == "A" and e.ack_id == 0x7777]
        # The prelude's, never the trailer's: alone in tick 1, then riding A's
        # retransmission as the newest message A holds.
        assert [(e.tick, e.kind, e.acked) for e in acks] == [(1, "ack", (0,)), (2, "data", (0,))]


def answered_last(link: SimLink, answer: bytes = b"answer") -> tuple[Messenger, Messenger]:
    """A sends message 1, b"request"; in the tick it arrives, B answers with
    `answer` and last=True. Returns A and B."""
    a, b = Messenger(link, "A"), Messenger(link, "B")
    a.send(b"request")
    while (request := b.receive()) is None:
        link.tick()
    assert request == b"request"
    b.send(answer, last=True)
    return a, b


def lose_next(link: SimLink, wanted) -> list[Frame]:
    """Drop, on the link's trace, the next data frame that `wanted(frame)` accepts;
    returns the list the dropped frame goes on."""
    transmit, profile, lost = link.transmit, link.profile, []

    def transmit_losing(src, frame, ack=None):
        if not lost and not frame.is_ack and wanted(frame):
            lost.append(frame)
            link.profile = replace(profile, loss_probability=1.0)
        transmit(src, frame, ack)
        link.profile = profile

    link.transmit = transmit_losing
    return lost


class TestLastMessage:
    """A message sent last ends its exchange: one whole frame that carries the
    whole ACK of a peer message delivered in the same tick. It arms no timer
    and draws no ACK; a copy of the message it answers shows it was lost."""

    def test_answer_sent_last_draws_no_ack(self):
        link = make_link("lora", seed=1)
        a, b = answered_last(link)
        assert b.idle  # no timer
        last = link.trace[-1]
        assert (last.src, last.message_id, last.ack_id, last.last) == ("B", 1, 1, True)
        assert last.line() == (
            "t=1 dir=B→A type=data id=1 idx=0/1 ack=1:all len=14 dropped=false last"
        )
        link.tick()
        assert a.idle and a.failure is None  # the ACK riding the last frame ended it
        assert a.receive() == b"answer"
        for _ in range(3 * link.round_trip_ticks):
            link.tick()
        assert [e.kind for e in link.trace] == ["data", "data"]  # no ACK, alone or riding
        # A's next message carries no ACK of the last one either.
        deliver(a, b"next")
        assert b.receive() == b"next"
        assert link.trace[2].ack_id is None

    def test_lost_last_frame_goes_again_as_an_ordinary_message(self):
        link = make_link("lora", seed=1)
        lost = lose_next(link, lambda frame: frame.flags & FLAG_LAST)
        a, b = answered_last(link)
        assert lost and b.idle
        while not (a.idle and b.idle):
            link.tick()
        assert a.failure is b.failure is None
        assert drain(a) == [b"answer"]
        # A sends its request again at its timer, tick 2; B answers the copy in
        # the tick it arrives, 3, without the flag and with the copy's ACK, and
        # A acknowledges that answer.
        lines = [(e.tick, e.src, e.kind, e.message_id, e.ack_id, e.last, e.dropped)
                 for e in link.trace]
        assert lines == [
            (0, "A", "data", 1, None, False, False),
            (1, "B", "data", 1, 1, True, True),
            (2, "A", "data", 1, None, False, False),
            (3, "B", "data", 1, 1, False, False),
            (4, "A", "ack", 1, 1, False, False),
        ]
        assert b._acked_id == 1

    @pytest.mark.parametrize("fate", ["duplicated", "reordered"])
    def test_last_frame_is_delivered_once_and_never_acknowledged(self, fate):
        link = make_link("lora", reorder=1.0 if fate == "reordered" else 0.0, seed=1)
        a, b = answered_last(link)
        if fate == "duplicated":  # a copy right behind it, and one long after
            link.transmit("B", Frame(FLAG_LAST, 1, 0, 1, b"answer"))
        for tick in range(4 * link.round_trip_ticks):
            link.tick()
            if tick == 2 * link.round_trip_ticks and fate == "duplicated":
                link.transmit("B", Frame(FLAG_LAST, 1, 0, 1, b"answer"))
        assert a.idle and b.idle
        assert drain(a) == [b"answer"]
        assert not [e for e in link.trace if e.src == "A" and e.kind == "ack"]
        assert [e.kind for e in link.trace if e.src == "A"] == ["data"]
        assert link.malformed_frames == 0

    @pytest.mark.parametrize(
        "shape", ["two-fragments", "no-ack-due", "ack-went-alone", "ack-of-a-copy"]
    )
    def test_last_send_that_cannot_go_last_is_an_ordinary_message(self, shape):
        """last=True on a message of two fragments, or with no ACK due, or whose
        ACK due answers a copy the peer may no longer wait for, goes through
        ordinary ARQ: the flag stays off, a timer runs, and a lost frame of it
        is sent again."""
        link = make_link("lora", seed=1)
        a, b = Messenger(link, "A"), Messenger(link, "B")
        answer = bytes(300) if shape == "two-fragments" else b"answer"
        if shape != "no-ack-due":
            a.send(b"request")
            link.tick()
            assert b.receive() == b"request"
        if shape in ("ack-went-alone", "ack-of-a-copy"):
            link.tick()  # the request's ACK goes alone
            assert a.idle
        if shape == "ack-of-a-copy":
            link.transmit("A", Frame(0, 1, 0, 1, b"request"))
            link.tick()
            assert b._ack_due == [1]
        lose_next(link, lambda frame: frame.frag_index == 0)
        assert b.send(answer, last=True) == math.ceil(len(answer) / (link.profile.mtu - 8))
        assert not b.idle
        while not b.idle:
            link.tick()
        assert b.failure is None
        assert drain(a) == [answer]
        assert not any(e.last for e in link.trace)
        assert any(e.dropped for e in link.trace)
        assert [e.src for e in link.trace if e.kind == "ack"][-1] == "A"

    def test_next_send_waits_for_a_newer_peer_message(self):
        """Were the last message lost, a new one would reach the peer first and
        the last one, sent again, would be dropped as stale."""
        link = make_link("lora", seed=1)
        a, b = answered_last(link)
        with pytest.raises(TransportError, match="message 1 went last"):
            b.send(b"more")
        assert b.idle and len(link.trace) == 2
        link.tick()
        deliver(a, b"newer")
        assert drain(b) == [b"newer"]
        deliver(b, b"more")
        assert drain(a) == [b"answer", b"more"]

    def test_send_after_a_last_message_near_the_wrap_is_refused(self):
        """A last message, which no ACK covers, is the peer's delivered mark:
        once the counter has come round to its id, the next send would read
        as a copy of it, so it is refused before anything is transmitted."""
        link = make_link("lora", seed=1)
        a, b = answered_last(link)
        link.tick()
        assert a._delivered == b._acked_id == 1
        deliver(a, b"newer")
        assert drain(b) == [b"newer"]
        b._sent_id = 0  # as if 65,535 sends after the last one gave up unheard
        before = len(link.trace)
        with pytest.raises(TransportError, match="copy of message 1"):
            b.send(b"next")
        assert len(link.trace) == before and b.idle


class TestMessageIds:
    """Each endpoint numbers its own messages from a 16-bit counter that wraps. A
    receiver keeps the id of the last message it delivered and at most one
    partial message, so its state stays bounded."""

    def test_message_after_id_wrap_is_delivered(self):
        link = make_link("lora", seed=1)
        sender = Messenger(link, "A")
        receiver = Messenger(link, "B")
        # The counter wraps between the deliveries below.
        sender._sent_id = sender._acked_id = 0xFFFE
        for message in (b"first", b"second", b"third"):
            before = data_frames(link)
            assert deliver(sender, message) == 1
            assert data_frames(link) - before == 1
            assert receiver.receive() == message
        assert [e.message_id for e in link.trace if e.kind == "data"] == [0xFFFF, 0, 1]
        assert receiver._delivered == 1

    @pytest.mark.parametrize("last", [10, 1], ids=["fresh-ids", "ids-across-the-wrap"])
    def test_copy_of_a_delivered_message_is_never_delivered_again(self, last):
        """A copy of the last message delivered draws a whole ACK; a copy 1 to
        STALE_IDS ids behind it is stale and draws none; the next id is new."""
        assert STALE_IDS == 2  # a 3-tick worst-case one-way trip over 2-tick sends
        link = make_link("lora", seed=1)
        sender = Messenger(link, "A")
        receiver = Messenger(link, "B")
        ids = [(last + k) % 0x10000 for k in range(-STALE_IDS, 2)]  # e.g. 8, 9, 10, 11
        sender._sent_id = sender._acked_id = (ids[0] - 1) % 0x10000
        for message_id in ids[:-1]:
            deliver(sender, message_id.to_bytes(2, "big"))
        assert drain(receiver) == [i.to_bytes(2, "big") for i in ids[:-1]]
        assert receiver._delivered == last
        before = len(link.trace)
        for message_id in ids:
            link.transmit("A", Frame(0, message_id, 0, 1, b"copy"))
            for _ in range(2):
                link.tick()
        assert drain(receiver) == [b"copy"]  # only the new message
        assert link.malformed_frames == 0
        replies = [(e.kind, e.message_id, e.acked) for e in link.trace[before:] if e.src == "B"]
        assert replies == [("ack", last, None), ("ack", ids[-1], None)]  # whole ACKs

    @pytest.mark.parametrize("gave_up", [65532, 65533, 65534, 65535])
    def test_send_the_peer_would_take_for_a_copy_is_refused(self, gave_up):
        """After `gave_up` sends in a row that the peer never acknowledged, the
        next id trails the last one it acknowledged by 65,535 - gave_up. Within
        STALE_IDS of it, the peer would acknowledge the message as a copy or
        drop it as stale, and never deliver it, so send refuses it before it
        transmits anything."""
        link = make_link("lora", seed=1)
        sender = Messenger(link, "A")
        receiver = Messenger(link, "B")
        deliver(sender, b"first")
        assert receiver.receive() == b"first"
        assert sender._acked_id == receiver._delivered == 1
        sender._sent_id = (1 + gave_up) % 0x10000  # as if those sends gave up unheard
        before = len(link.trace)
        if 0xFFFF - gave_up <= STALE_IDS:
            with pytest.raises(TransportError, match="copy of message 1"):
                sender.send(b"next")
            assert len(link.trace) == before and sender.idle
            assert sender._sent_id == (1 + gave_up) % 0x10000
        else:
            deliver(sender, b"next")
            assert receiver.receive() == b"next"

    def test_state_stays_bounded_over_many_messages(self):
        link = make_link("lora", loss=0.1, reorder=0.1, seed=6)
        a = Messenger(link, "A")
        b = Messenger(link, "B")
        for index in range(1000):
            sender, receiver = (a, b) if index % 2 == 0 else (b, a)
            message = index.to_bytes(2, "big") * 150  # 300 B: two LoRa fragments
            deliver(sender, message)
            assert receiver.receive() == message
        for messenger in (a, b):
            assert messenger._sending is None  # the ACK bitmap goes with it
            assert messenger._partial is None
        # Each endpoint holds one id of the peer's: the last message it delivered.
        assert b._delivered == a._sent_id == 500
        assert a._delivered == b._sent_id == 500

    def test_stray_frame_mid_message_does_not_stop_delivery(self):
        link = make_link("lora", seed=3)
        sender = Messenger(link, "A")
        receiver = Messenger(link, "B")
        transmit = link.transmit

        def transmit_with_stray(src, frame):
            transmit(src, frame)
            if src == "A" and frame.message_id != 0x7777 and frame.frag_index == 0:
                transmit("A", Frame(0, 0x7777, 0, 2, b"stray"))

        link.transmit = transmit_with_stray
        message = Random(8).randbytes(600)
        deliver(sender, message)
        assert receiver.receive() == message
        assert receiver._delivered == 1


class ExactlyOnce(RuleBasedStateMachine):
    """Two Messengers on one long-lived, lossy link, possibly reordering, with
    traffic both ways and ids that may start near the 16-bit wrap. Rules queue
    sends of one message each, answer as last between ticks, and run the
    link: each side starts its next queued send whenever it is idle, and
    send does not refuse it for a last message still held. After every step,
    each side has delivered a subsequence, in send order, of what its peer
    sent, none of it twice, and each send that ended without `failure` has
    been delivered. A message sent last is delivered once the send it answers
    ends without `failure`, or is being sent again, which ends as any send
    does."""

    @initialize(
        profile=st.sampled_from(["lora", "ble"]),
        loss=st.sampled_from([0.2, 0.5]),
        reorder=st.sampled_from([0.0, 0.1]),
        seed=st.integers(min_value=0, max_value=2**16),
        last_ids=st.tuples(*[st.just(0) | st.integers(0xFFF8, 0xFFFF)] * 2),
    )
    def open_link(self, profile, loss, reorder, seed, last_ids):
        self.link = make_link(profile, loss=loss, reorder=reorder, seed=seed)
        self.ends = {name: Messenger(self.link, name) for name in self.link.endpoints}
        for messenger, last_id in zip(self.ends.values(), last_ids):
            messenger._sent_id = messenger._acked_id = last_id
        self.sent = {name: {} for name in self.ends}  # message -> its place in send order
        self.queued = {name: deque() for name in self.ends}
        self.in_flight = {name: None for name in self.ends}
        self.delivered = {name: [] for name in self.ends}
        self.last_sent = {name: None for name in self.ends}  # each side's last message sent last
        # By side: the message its peer sent last to answer its send in flight.
        self.answered_by = {name: None for name in self.ends}

    @rule(side=st.sampled_from(["A", "B"]), sizes=st.lists(
        st.integers(5, 200) | st.integers(5, 5 * 222), min_size=1, max_size=8,
    ))
    def queue(self, side, sizes):
        """Queue sends of one message each, of the given sizes; every message
        is unique. Most messages of up to 200 B travel whole."""
        sent = self.sent[side]
        for size in sizes:
            place = len(sent)
            message = place.to_bytes(4, "big").ljust(size, b".")
            sent[message] = place
            self.queued[side].append(message)

    @rule(side=st.sampled_from(["A", "B"]), size=st.integers(5, 200))
    def answer(self, side, size):
        """Run the link until `side` delivers a message, for up to 20 ticks, and
        then, if it is idle with nothing queued, send one message with
        last=True. It goes last when it answers the message just delivered,
        with that message's ACK due; else it is an ordinary send."""
        messenger, peer = self.ends[side], self.link.other_end(side)
        for _ in range(20):
            delivered = len(self.delivered[side])
            self.tick()
            if len(self.delivered[side]) > delivered:
                break
        else:
            return
        if self.queued[side] or not messenger.idle:
            return
        place = len(self.sent[side])
        message = place.to_bytes(4, "big").ljust(size, b".")
        if not self.started(side, message, last=True):
            return
        self.sent[side][message] = place
        if not messenger.idle:
            self.in_flight[side] = message
            return
        self.last_sent[side] = message
        answered = self.in_flight[peer]
        if answered is not None and self.delivered[side][-1:] == [answered]:
            self.answered_by[peer] = message

    @rule(ticks=st.integers(min_value=1, max_value=20))
    def run(self, ticks):
        for _ in range(ticks):
            self.tick()

    def started(self, side, message, last=False):
        """Whether `side` started sending `message`: it refuses while the peer
        has sent nothing newer than what its last message answered."""
        try:
            self.ends[side].send(message, last=last)
        except TransportError as refusal:
            assert "went last" in str(refusal) and self.last_sent[side] is not None
            return False
        return True

    def tick(self):
        """Tick the link; before the tick, each idle side starts its next queued
        send if it can. A send that ends without `failure` ends on the peer's
        delivery."""
        for name, messenger in self.ends.items():
            if messenger.idle and self.queued[name] and self.started(name, self.queued[name][0]):
                self.in_flight[name] = self.queued[name].popleft()
        self.link.tick()
        for name, messenger in self.ends.items():
            self.delivered[name].extend(drain(messenger))
            if not messenger.idle and self.in_flight[name] is None:
                # Nothing was started: a lost last message goes again.
                assert self.last_sent[name] is not None
                self.in_flight[name] = self.last_sent[name]
        for name, messenger in self.ends.items():
            if messenger.idle and self.in_flight[name] is not None:
                peer = self.link.other_end(name)
                if messenger.failure is None:
                    assert self.delivered[peer][-1:] == [self.in_flight[name]]
                    answer = self.answered_by[name]  # delivered, or being sent again
                    assert answer is None or answer in self.delivered[name] or (
                        self.in_flight[peer] == answer
                    )
                self.in_flight[name], self.answered_by[name] = None, None

    @invariant()
    def delivered_once_in_send_order(self):
        for name, delivered in self.delivered.items():
            sent = self.sent[self.link.other_end(name)]
            places = [sent[message] for message in delivered]
            assert places == sorted(set(places))


TestExactlyOnce = ExactlyOnce.TestCase
TestExactlyOnce.settings = settings(max_examples=40, stateful_step_count=40, deadline=None)


class TestExactlyOnceExamples:
    @pytest.mark.parametrize("profile, loss, seed", [
        ("lora", 0.2, 558), ("lora", 0.5, 1253), ("ble", 0.2, 1554), ("ble", 0.2, 1617),
    ])
    def test_both_sides_send_whenever_idle(self, profile, loss, seed):
        """ExactlyOnce, seeded, on a link that reorders: each side queues 400
        single messages of 5 B to 5 MTUs, and the link runs 400 ticks. Each
        seed lands a stale copy of a one-fragment message after the
        receiver's next delivery, which must not deliver it again."""
        machine = ExactlyOnce()
        machine.open_link(profile=profile, loss=loss, reorder=0.1, seed=seed, last_ids=(0, 0))
        rng = Random(seed)
        mtu = machine.link.profile.mtu
        for side in machine.ends:
            machine.queue(side, [rng.randint(5, 5 * mtu) for _ in range(400)])
        machine.run(400)
        machine.delivered_once_in_send_order()


class _BadMagic(Frame):
    def encode(self) -> bytes:
        return b"\x55" + super().encode()[1:]


class TestMalformedFrames:
    """A frame the receiver cannot use is dropped and counted, never raised."""

    def _inject_then_deliver(self, src, bad, prelude=()):
        link = make_link("lora", seed=3)
        sender = Messenger(link, "A")
        receiver = Messenger(link, "B")
        for frame in (*prelude, bad):
            link.transmit(src, frame)
            for _ in range(2):
                link.tick()
        assert link.malformed_frames == 1
        message = Random(4).randbytes(500)
        deliver(sender, message)
        assert receiver.receive() == message
        return link

    def test_bad_magic_dropped(self):
        self._inject_then_deliver("A", _BadMagic(0, 0x7777, 0, 1, b"x"))

    def test_index_beyond_count_dropped(self):
        link = self._inject_then_deliver("A", Frame(0, 0x7777, 5, 2, b"x"))
        assert not any(e.kind == "ack" and e.message_id == 0x7777 for e in link.trace)

    @pytest.mark.parametrize(
        "src, frame",
        [
            ("A", _Fragmented(0, 0x7777, 0, 1, b"x")),  # a one-fragment message with fragment fields
            ("B", _Fragmented(FLAG_ACK, 0x7777, 0, 3, b"\x07")),  # a bitmap that sets every bit
        ],
        ids=["one-fragment-data", "every-bit-ack"],
    )
    def test_second_spelling_of_a_whole_frame_dropped(self, src, frame):
        link = self._inject_then_deliver(src, frame)
        assert not any(e.dst == src and e.ack_id == 0x7777 for e in link.trace)

    def test_data_frame_without_payload_dropped(self):
        # Counted once and never delivered: the next receive() is the message
        # sent after it.
        link = self._inject_then_deliver("A", Frame(0, 9, 0, 1, b""))
        assert link.trace[0].length == 4
        assert not any(e.dst == "A" and e.ack_id == 9 for e in link.trace)

    def test_ack_with_wrong_payload_length_dropped(self):
        self._inject_then_deliver("B", Frame(FLAG_ACK, 0x7777, 0, 1, b"\x00\x00\x00"))

    def test_inconsistent_frag_count_dropped(self):
        first = Frame(0, 0x7777, 0, 2, b"x")
        link = self._inject_then_deliver("A", Frame(0, 0x7777, 1, 3, b"y"), prelude=[first])
        acks = [e for e in link.trace if e.kind == "ack" and e.message_id == 0x7777]
        assert [e.acked for e in acks] == [(0,)]


class TestAckDefects:
    """An ACK that does not fit the message being sent acknowledges nothing."""

    DEFECTS = [
        # Hole reports, claiming every fragment but the last:
        "bitmap-length", "bit-beyond-count", "frag-index", "frag-count", "other-id",
        # and whole ACKs:
        "whole-other-id", "whole-truncated-head",
    ]

    @staticmethod
    def _defective_ack(defect: str, message_id: int, count: int, n: int) -> Frame:
        """An ACK for `message_id` (of `count` fragments) with one defect: a hole
        report claiming every fragment but the last, or a whole ACK."""
        every = (1 << count) - 1
        hole = every >> 1
        bitmap = hole.to_bytes((count + 7) // 8, "little")
        if defect == "bitmap-length":
            length = len(bitmap) + (n if n <= 4 else 4 - n)  # 1..4 bytes long or short
            return _Fragmented(FLAG_ACK, message_id, 0, count, (bitmap + b"\xff" * 4)[:max(length, 0)])
        if defect == "bit-beyond-count":
            stray = hole | 1 << (count + n % (8 - count % 8))
            return Frame(FLAG_ACK, message_id, 0, count, stray.to_bytes(len(bitmap), "little"))
        if defect == "frag-index":
            return Frame(FLAG_ACK, message_id, n, count, bitmap)
        if defect == "frag-count":
            other = count + n
            return make_ack(message_id, other, (1 << other) - 1 >> 1)
        if defect == "whole-truncated-head":
            return _Truncated(FLAG_ACK, message_id, 0, 1, b"")
        other_id = (message_id + n) % 0x10000  # an id not being sent
        return make_ack(other_id, count, every if defect == "whole-other-id" else hole)

    @settings(max_examples=150, deadline=None)
    @given(
        defect=st.sampled_from(DEFECTS),
        count=st.integers(min_value=1, max_value=20),
        n=st.integers(min_value=1, max_value=8),
    )
    def test_defective_ack_marks_nothing_acknowledged(self, defect, count, n):
        if defect == "bit-beyond-count":
            assume(count % 8)  # a bitmap of whole bytes has no spare bit
        link = make_link("lora", seed=1)
        sender = Messenger(link, "A")
        receiver = Messenger(link, "B")
        transmit, first_round = link.transmit, []

        def lose_first_round_and_inject(src, frame):
            if src == "A" and not frame.is_ack and len(first_round) < count:
                # The receiver holds nothing when the defective ACK arrives.
                first_round.append(frame)
                if frame.frag_index == frame.frag_count - 1:
                    transmit("B", self._defective_ack(defect, frame.message_id, count, n))
                return
            transmit(src, frame)

        link.transmit = lose_first_round_and_inject
        message = Random(count).randbytes(count * (link.profile.mtu - HEADER_LEN))
        deliver(sender, message)  # nothing raises out of tick()
        assert receiver.receive() == message
        assert len(first_round) == data_frames(link) == count  # every fragment went out again
        assert link.malformed_frames == (0 if defect.endswith("other-id") else 1)

    @settings(max_examples=150, deadline=None)
    @given(
        defect=st.sampled_from(DEFECTS),
        count=st.integers(min_value=1, max_value=20),
        n=st.integers(min_value=1, max_value=8),
    )
    def test_defective_ack_riding_a_data_frame_drops_the_packet(self, defect, count, n):
        if defect == "bit-beyond-count":
            assume(count % 8)
        link = make_link("lora", seed=1)
        sender = Messenger(link, "A")
        receiver = Messenger(link, "B")
        transmit, first_round = link.transmit, []

        def lose_first_round(src, frame, ack=None):
            if src == "A" and not frame.is_ack and len(first_round) < count:
                first_round.append(frame)
                return
            transmit(src, frame, ack)

        link.transmit = lose_first_round
        message = Random(count).randbytes(count * (link.profile.mtu - HEADER_LEN))
        sender.send(message)
        defective = self._defective_ack(defect, first_round[0].message_id, count, n)
        transmit("B", Frame(0, 0x7777, 0, 1, b"rider"), defective)
        while not sender.idle:
            link.tick()
        assert sender.failure is None and receiver.receive() == message
        # The ACK acknowledged nothing: every fragment went out again.
        assert len(first_round) == data_frames(link) == count
        dropped = not defect.endswith("other-id")  # an ACK for another id is ignored, its packet kept
        assert link.malformed_frames == int(dropped)
        assert sender.receive() == (None if dropped else b"rider")
        # The rider's ACK, due in the tick it arrived, goes alone; it may ride
        # A's retransmission too, whose whole frame of 214 B has room for 4 more.
        acks = [e for e in link.trace if e.src == "A" and e.ack_id == 0x7777 and e.kind == "ack"]
        assert len(acks) == int(not dropped)


if __name__ == "__main__":
    sys.stdout.buffer.write("".join(f"{line}\n" for line in lossy_reordering_trace()).encode())
