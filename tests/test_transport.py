"""Frame codec, fragmentation arithmetic, ARQ behavior, simulator determinism.

`tests/fixtures/lora-loss0.2-reorder0.1-seed12.trace` holds the frame trace,
ticks included, of one 3,000-byte send over a lossy, reordering LoRa link. It
pins the ARQ's frame order and timing, so it changes only with them.
Regenerate it only on purpose, from the repository root:

    PYTHONPATH=src python tests/test_transport.py > tests/fixtures/lora-loss0.2-reorder0.1-seed12.trace
"""

import math
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tinyssi.transport import (
    DeliveryError,
    FLAG_ACK,
    FLAG_BATCH,
    Frame,
    FrameError,
    HEADER_LEN,
    LinkProfile,
    Messenger,
    PROFILES,
    RETRY_LIMIT,
    TransportError,
    ack_bitmap,
    decode_packet,
    fragment,
    make_ack,
    make_link,
    reassemble,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"
LOSSY_TRACE = FIXTURES / "lora-loss0.2-reorder0.1-seed12.trace"


def batch_payload(*entries: bytes) -> bytes:
    """Each entry preceded by its 2-byte big-endian length."""
    return b"".join(len(e).to_bytes(2, "big") + e for e in entries)


def deliver(sender: Messenger, *messages: bytes) -> int:
    """Send, then tick the link until the send ends; raise its DeliveryError if it gave up.
    Returns the message's fragment count, as send() does."""
    fragments = sender.send(*messages)
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


class TestFrameCodec:
    def test_header_layout_is_bit_exact(self):
        frame = Frame(flags=0x02, message_id=0x1234, frag_index=2, frag_count=3,
                      payload=b"xyz")
        raw = frame.encode()
        assert raw[0] == 0xD1
        assert raw[1] == 0x02
        assert raw[2:4] == b"\x12\x34"
        assert raw[4:6] == b"\x00\x02"
        assert raw[6:8] == b"\x00\x03"
        assert raw[8:] == b"xyz"
        assert Frame.decode(raw) == frame

    def test_bad_magic_rejected(self):
        raw = bytearray(Frame(0, 1, 0, 1, b"").encode())
        raw[0] = 0x55
        with pytest.raises(FrameError):
            Frame.decode(bytes(raw))

    def test_short_frame_rejected(self):
        with pytest.raises(FrameError):
            Frame.decode(b"\xd1\x00\x00")

    def test_ack_frame_carries_acknowledged_index(self):
        """One ACK per message: frag_index 0, the message's frag_count, and a
        bitmap of ceil(frag_count / 8) bytes, bit i (LSB first) for fragment i."""
        held = 1 << 0 | 1 << 2 | 1 << 9  # fragments 0, 2 and 9 of 10
        ack = make_ack(message_id=7, frag_count=10, held=held)
        assert ack.is_ack
        raw = ack.encode()
        assert raw[:8] == b"\xd1\x01\x00\x07\x00\x00\x00\x0a"
        assert raw[8:] == bytes([0b0000_0101, 0b0000_0010])
        decoded = Frame.decode(raw)
        assert decoded.is_ack
        assert ack_bitmap(decoded) == held
        # Up to 8 fragments are acknowledged in 9 bytes.
        assert [len(make_ack(1, n, (1 << n) - 1).encode()) for n in (1, 8, 9)] == [9, 9, 10]

    @pytest.mark.parametrize(
        "frame",
        [
            Frame(FLAG_ACK, 1, 0, 10, b"\xff"),  # bitmap one byte short
            Frame(FLAG_ACK, 1, 0, 3, b"\x07\x00"),  # bitmap one byte long
            Frame(FLAG_ACK, 1, 0, 3, b"\x08"),  # bit 3 of a 3-fragment message
            Frame(FLAG_ACK, 1, 1, 3, b"\x07"),  # frag_index not 0
        ],
        ids=["short", "long", "bit-beyond-count", "nonzero-index"],
    )
    def test_malformed_ack_bitmap_rejected(self, frame):
        with pytest.raises(FrameError):
            ack_bitmap(frame)


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
        fragments = sender.send(bytes(300), b"x")  # one batch, two LoRa fragments
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
        assert link._next_message_id == 1  # refused before an id was taken

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
        kinds = [(e.tick, e.src, e.kind, e.message_id) for e in link.trace]
        assert kinds == [
            (0, "A", "data", 1), (0, "A", "data", 1), (0, "B", "data", 2),
            (1, "A", "ack", 2), (1, "B", "ack", 1),
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
    """send(*messages): one transport message per call, batched when there are several."""

    def _sent_frames(self, *messages):
        link = make_link("lora", seed=1)
        sender = Messenger(link, "A")
        receiver = Messenger(link, "B")
        frames, transmit = [], link.transmit

        def recording_transmit(src, frame):
            if src == "A":
                frames.append(frame)
            transmit(src, frame)

        link.transmit = recording_transmit
        fragments = deliver(sender, *messages)
        return frames, fragments, drain(receiver), link

    def test_one_message_travels_unbatched(self):
        frames, _, received, _ = self._sent_frames(b"abc")
        assert [(f.flags, f.payload) for f in frames] == [(0, b"abc")]
        assert received == [b"abc"]

    def test_batch_payload_is_length_prefixed_messages(self):
        frames, _, received, _ = self._sent_frames(b"abc", b"de")
        assert [(f.flags, f.payload) for f in frames] == [
            (FLAG_BATCH, b"\x00\x03abc\x00\x02de")
        ]
        assert received == [b"abc", b"de"]

    def test_batch_is_one_message_with_one_timer(self):
        messages = [Random(i).randbytes(size) for i, size in enumerate((37, 376, 300))]
        frames, fragments, received, link = self._sent_frames(*messages)
        assert received == messages
        assert {f.message_id for f in frames} == {1}
        assert all(f.flags & FLAG_BATCH for f in frames)
        # 3 * 2 B of lengths + 713 B of messages: 4 LoRa fragments, one round trip.
        assert fragments == len(frames) == math.ceil(719 / 214) == 4
        assert link.now == link.round_trip_ticks

    @pytest.mark.parametrize(
        "messages",
        [(), (b"",), (b"a", b""), (bytes(0x10000), b"a")],
        ids=["none", "empty", "empty-in-batch", "too-long-to-batch"],
    )
    def test_unsendable_messages_rejected_before_transmitting(self, messages):
        link = make_link("lora", seed=1)
        sender = Messenger(link, "A")
        Messenger(link, "B")
        with pytest.raises(TransportError):
            deliver(sender, *messages)
        assert link.trace == []
        assert sender._sending is None


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
        assert link.trace_lines()[2] == "t=1 dir=lock→cam type=ack id=1 acked=0,1 len=9 dropped=false"

    def test_ack_riding_a_reply_is_on_the_reply_trace_line(self):
        link = make_link("lora", a="cam", b="lock", seed=1)
        cam = Messenger(link, "cam")
        lock = Messenger(link, "lock")
        cam.send(bytes(300))
        link.tick()
        lock.send(b"reply")  # answers in the tick the message arrived
        assert link.trace_lines()[2] == (
            "t=1 dir=lock→cam type=data id=2 idx=0/1 ack=1:0,1 len=22 dropped=false"
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
    """One timer, the link's worst-case round trip, covers every unacknowledged fragment."""

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
            # Every ACK sent within a round reaches the sender by its end, unless dropped.
            acked = {
                index for a in acks if start <= a.tick < end and not a.dropped
                for index in a.acked
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
            assert [(a.acked, a.length) for a in acks] == [(tuple(range(fragments)), 9)]

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
        assert (entry.ack_id, entry.acked) == (2, (0,))
        link.tick()
        link.tick()
        assert a.idle and b.idle
        assert drain(a) == [b"from B"] and drain(b) == [b"from A"]
        # A has nothing to send in tick 3, so B's message's ACK goes alone.
        assert [(e.tick, e.src, e.ack_id) for e in link.trace if e.kind == "ack"] == [
            (3, "A", 1)
        ]

    @pytest.mark.parametrize("profile", ["lora", "ble"])
    @pytest.mark.parametrize("acked_fragments", [1, 9], ids=["9-byte-ack", "10-byte-ack"])
    def test_a_packet_never_exceeds_the_mtu(self, profile, acked_fragments):
        """Near capacity, the ACK rides the reply's last fragment only if the packet fits."""
        capacity = PROFILES[profile].mtu - HEADER_LEN
        ack_len = HEADER_LEN + (acked_fragments + 7) // 8
        for last in range(capacity - ack_len - 3, capacity + 1):
            link = make_link(profile, seed=1)
            a = Messenger(link, "A")
            b = Messenger(link, "B")
            request = bytes(acked_fragments * capacity)
            reply = Random(last).randbytes(capacity + last)  # two fragments
            a.send(request)
            link.tick()
            b.send(reply)
            link.tick()
            link.tick()
            assert drain(b) == [request] and drain(a) == [reply]
            assert a.idle and b.idle
            assert all(e.length <= link.profile.mtu for e in link.trace)
            replies = [e for e in link.trace if e.src == "B"]
            fits = HEADER_LEN + last + ack_len <= link.profile.mtu
            assert [(e.tick, e.kind, e.frag_index, e.ack_id) for e in replies] == (
                [(1, "data", 0, None), (1, "data", 1, 1)] if fits
                else [(1, "data", 0, None), (1, "data", 1, None), (1, "ack", 0, 1)]
            )
            assert replies[1].length == HEADER_LEN + last + (ack_len if fits else 0)

    def test_packet_layout_is_the_ack_then_the_data_frame(self):
        ack = make_ack(7, 10, 0b11_1111_1111)
        data = Frame(FLAG_BATCH, 8, 1, 2, b"payload")
        raw = ack.encode() + data.encode()
        assert len(raw) == 10 + 15
        assert decode_packet(raw) == (ack, data)
        assert decode_packet(ack.encode()) == (ack, None)
        assert decode_packet(data.encode()) == (None, data)


class _Truncated(Frame):
    def encode(self) -> bytes:
        return super().encode()[:5]


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
        link = self._send_packet(make_ack(0x7777, 1, 1))
        assert not any(e.src == "A" and e.ack_id is not None for e in link.trace)

    def test_ack_then_a_trailer_with_bad_magic(self):
        link = self._send_packet(_BadMagic(0, 0x7777, 0, 1, b"x"))
        assert not any(e.src == "A" and e.ack_id == 0x7777 for e in link.trace)

    def test_ack_then_data_with_an_inconsistent_frag_count(self):
        link = self._send_packet(
            Frame(0, 0x7777, 1, 3, b"y"), prelude=[Frame(0, 0x7777, 0, 2, b"x")]
        )
        acks = [e for e in link.trace if e.src == "A" and e.ack_id == 0x7777]
        assert [e.acked for e in acks] == [(0,)]  # the prelude's, not the trailer's


class TestMessageIds:
    """16-bit message ids wrap; a reused id is a new message, and state stays bounded."""

    def test_message_after_id_wrap_is_delivered(self):
        link = make_link("lora", seed=1)
        sender = Messenger(link, "A")
        receiver = Messenger(link, "B")
        for message in (b"first", b"second"):
            deliver(sender, message)
            assert receiver.receive() == message
        link._next_message_id = 0  # the next send reuses the first message's id
        before = data_frames(link)
        assert deliver(sender, b"third") == 1
        assert data_frames(link) - before == 1
        assert receiver.receive() == b"third"

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
            assert all(s.delivered for s in messenger._receiving.values())
        assert list(b._receiving) == [link._next_message_id - 1]
        assert list(a._receiving) == [link._next_message_id]

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        batches=st.lists(
            st.lists(st.integers(min_value=1, max_value=600), min_size=1, max_size=3),
            min_size=1, max_size=4,
        ),
    )
    def test_batches_delivered_once_in_order_under_loss(self, seed, batches):
        link = make_link("lora", loss=0.3, reorder=0.1, seed=seed)
        sender = Messenger(link, "A")
        receiver = Messenger(link, "B")
        rng = Random(seed)
        for sizes in batches:
            messages = [rng.randbytes(size) for size in sizes]
            try:
                deliver(sender, *messages)
            except DeliveryError:
                # The last ACK may be what was lost: all of the batch or none of it.
                assert drain(receiver) in ([], messages)
                assert sender._sending is None
                return
            assert drain(receiver) == messages
            assert sender._sending is None
            assert list(receiver._receiving) == [link._next_message_id]
        for _ in range(4 * link.round_trip_ticks):
            link.tick()  # late duplicates are re-acknowledged, never re-delivered
        assert drain(receiver) == []

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
        assert list(receiver._receiving) == [1]


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

    def test_ack_with_wrong_payload_length_dropped(self):
        self._inject_then_deliver("B", Frame(FLAG_ACK, 0x7777, 0, 1, b"\x00\x00\x00"))

    @pytest.mark.parametrize(
        "payload",
        [
            batch_payload(b"ab", b"cd")[:-1],  # the last entry overruns the payload
            batch_payload(b"ab", b"cd") + b"\x00",  # a 1-byte tail
            batch_payload(b"ab", b""),  # a zero-length entry
            batch_payload(b"ab"),  # one message is never batched
        ],
        ids=["overrun", "one-byte-tail", "zero-length-entry", "single-entry"],
    )
    def test_batch_that_does_not_split_dropped(self, payload):
        bad = Frame(FLAG_BATCH, 0x7777, 0, 1, payload)
        # Sent twice: the duplicate is re-acknowledged, not split or counted again.
        link = self._inject_then_deliver("A", bad, prelude=[bad])
        assert [e.kind for e in link.trace if e.message_id == 0x7777] == ["data", "ack"] * 2

    def test_batch_split_across_frames_that_does_not_split_dropped(self):
        payload = batch_payload(b"ab", b"cd") + b"\x00"
        first = Frame(FLAG_BATCH, 0x7777, 0, 2, payload[:4])
        self._inject_then_deliver("A", Frame(FLAG_BATCH, 0x7777, 1, 2, payload[4:]),
                                  prelude=[first])

    def test_inconsistent_batch_flag_dropped(self):
        first = Frame(FLAG_BATCH, 0x7777, 0, 2, b"\x00\x01")
        link = self._inject_then_deliver("A", Frame(0, 0x7777, 1, 2, b"a"), prelude=[first])
        acks = [e for e in link.trace if e.kind == "ack" and e.message_id == 0x7777]
        assert [e.acked for e in acks] == [(0,)]

    def test_inconsistent_frag_count_dropped(self):
        first = Frame(0, 0x7777, 0, 2, b"x")
        link = self._inject_then_deliver("A", Frame(0, 0x7777, 1, 3, b"y"), prelude=[first])
        acks = [e for e in link.trace if e.kind == "ack" and e.message_id == 0x7777]
        assert [e.acked for e in acks] == [(0,)]


class TestAckDefects:
    """An ACK that does not fit the message being sent acknowledges nothing."""

    @staticmethod
    def _defective_ack(defect: str, message_id: int, count: int, n: int) -> Frame:
        """An ACK for `message_id` (of `count` fragments) claiming every fragment, with one defect."""
        every = (1 << count) - 1
        if defect == "bitmap-length":
            length = (count + 7) // 8 + (n if n <= 4 else 4 - n)  # 1..4 bytes long or short
            return Frame(FLAG_ACK, message_id, 0, count, b"\xff" * max(length, 0))
        if defect == "bit-beyond-count":
            stray = every | 1 << (count + n % (8 - count % 8))
            return Frame(FLAG_ACK, message_id, 0, count, stray.to_bytes((count + 7) // 8, "little"))
        if defect == "frag-index":
            return Frame(FLAG_ACK, message_id, n, count, every.to_bytes((count + 7) // 8, "little"))
        if defect == "frag-count":
            other = count + n
            return make_ack(message_id, other, (1 << other) - 1)
        return make_ack((message_id + n) % 0x10000, count, every)  # an id not being sent

    @settings(max_examples=150, deadline=None)
    @given(
        defect=st.sampled_from(
            ["bitmap-length", "bit-beyond-count", "frag-index", "frag-count", "other-id"]
        ),
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
        assert link.malformed_frames == (0 if defect == "other-id" else 1)

    @settings(max_examples=150, deadline=None)
    @given(
        defect=st.sampled_from(
            ["bitmap-length", "bit-beyond-count", "frag-index", "frag-count", "other-id"]
        ),
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
        dropped = defect != "other-id"  # an ACK for another id is ignored, its packet kept
        assert link.malformed_frames == int(dropped)
        assert sender.receive() == (None if dropped else b"rider")
        acks = [e for e in link.trace if e.src == "A" and e.ack_id == 0x7777]
        assert len(acks) == int(not dropped)


if __name__ == "__main__":
    sys.stdout.buffer.write("".join(f"{line}\n" for line in lossy_reordering_trace()).encode())
