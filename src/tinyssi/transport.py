"""MTU-bounded framing with fragmentation, selective-repeat ARQ, and a
deterministic lossy-link simulator.

Every frame opens with a 4-byte head, big-endian:

  byte 0    magic 0xD1
  byte 1    flags: bit0 = ACK, bit1 = whole, bit3 = last; the other bits are sent as 0
  bytes 2-3 message_id

Each endpoint numbers its own messages, from a 16-bit counter that wraps, the
way each direction of a TCP connection has its own sequence numbers (RFC 9293
§3.4): a message id names a message within its sender's stream only.

A whole frame stands for a whole message, so the reader knows its fragment
fields and the frame sends none: the data frame of a message that fits one
fragment is the head and the payload, and the ACK of a delivered message is
the head alone. Every other frame is a fragment, with an 8-byte header:

  bytes 4-5 frag_index
  bytes 6-7 frag_count

That is SCHC's rule (RFC 8724 §8): a packet that fits the MTU goes with no
fragmentation header. Fragmentation itself does not change: a message
travels in ceil(size / (mtu - 8)) frames, whole when that is 1. A data
fragment is its message's last when frag_index == frag_count - 1.

An ACK acknowledges a whole message, in one of two forms. A whole ACK says
the message is delivered. An ACK that leaves a fragment unacknowledged is a
hole report: frag_index 0, the message's frag_count, and a bitmap of
ceil(frag_count / 8) bytes, bit i (least significant bit of byte 0 first)
set when the receiver holds fragment i. A hole report of up to 8 fragments
takes 9 bytes; a whole ACK takes 4, however many fragments it covers. Each
frame has one wire form: a data frame of a one-fragment message with
fragment fields, or a bitmap that sets every bit, does not decode, and
neither does a data frame without payload, which no message yields, a
frame that sets a bit other than the three flags, an ACK with the last
flag, or a fragment with the last flag. A message whose hole report would
not fit the MTU, more than 8 * (mtu - 8) fragments, is refused before it
is sent. Timeouts run on simulated ticks,
never wall clock, so a fixed seed reproduces a run frame for frame.

A link packet is one frame, or an ACK frame followed by a data frame. An ACK
states its own length, 4 bytes whole or 8 + ceil(frag_count / 8) as a hole
report, so the packet needs no length field or flag to say where the data
frame starts, and every frame keeps its bytes. The packet as a whole is
bounded by the MTU: an ACK rides a data frame only when the frame leaves room
for the ACK's encoded length. The receiver of a packet checks every frame in
it before it acts on any: one that does not decode or does not fit drops the
whole packet. An ACK riding a data frame costs its bytes but no frame of its
own, the way a CoAP response is piggybacked on its ACK (RFC 7252 §5.2.1) and
DTLS 1.3 packs several records into one datagram (RFC 9147 §4); on LoRa a
frame costs its preamble and header in airtime, whatever its length.

Messenger.send takes one message and sends it as it is: one message id,
one fragment stream, one ARQ timer. A caller with several messages to send
at once frames them into one, as harness.drive_handshake does with the
messages of a handshake leg.

The ARQ window is the whole message: every fragment goes out at once, and
one timer waits for all their ACKs. When it fires, only the fragments still
unacknowledged go out again. That is SCHC's ACK-on-Error mode (RFC 8724
§8.4.3): its retransmission pattern, and its ACK, one for the window, which
carries a bitmap only to report a hole.
An ACK states everything the receiver holds, so a later ACK also covers
fragments whose earlier ACK was lost. A frame takes TRANSIT_TICKS each way,
plus REORDER_DELAY_TICKS when the link reorders it, and the timer of a round
depends on what the round carries. A round that carries no ACK due arms the
link's worst-case round trip, 2 ticks on a link that never reorders and 6 on
one that may, so its timer never fires on a late ACK. A round that carries an
ACK due, the ACK of a peer message whose data arrived in the tick, answers a
peer that is waiting for it, and arms the round trip with at most one of its
two legs reordered: 2 * TRANSIT_TICKS + REORDER_DELAY_TICKS, 4 ticks on a
link that may reorder, 2 on one that never does. It fires early, and sends a
copy the peer already holds, only when the round and its ACK are both
reordered. In return a lost answer goes out again before the peer's own timer
fires: on a reordering link, a message sent at tick s and delivered at s + 1
is answered then and, the answer lost, again at s + 5, so the copy lands at
s + 6, the tick in which the message's timer fires. Delivery runs first in a
tick, so the ACK the copy carries ends the message, which is not sent again.
DTLS 1.3 (RFC 9147 §5.8) and SCHC ACK-on-Error (RFC 8724 §8.4.3) likewise tie
retransmission to what the peer is known to wait for.

Sending does not block. Messenger.send transmits every fragment, arms the
timer and returns; SimLink.tick() carries the message to its end. Each tick
runs in this order: the packets due are delivered; each sender finishes a
message that is fully acknowledged, or, if its timer has expired, sends the
unacknowledged fragments again, or gives up after RETRY_LIMIT
retransmissions, and an endpoint whose last message was lost sends it
again; then the endpoints send their new messages, which the caller starts
between ticks; last, before the clock advances, each endpoint sends alone
the ACKs that rode none of its data frames. A receiver owes each message
whose data arrived in a tick, in frames not sent last, one ACK, due in
that tick: the ACK rides the first data frame with room for it that the
receiver transmits in the tick, a retransmission or a new message. So a
receiver can answer in the tick a message arrives, and the answer carries
that message's ACK, the way DTLS 1.3 sends its next flight (RFC 9147 §7). A
data frame with room that carries no ACK due carries the ACK of the newest
message its sender holds, partial or delivered, unless it came last, the
way TCP states its ACK number in every segment (RFC 9293 §3.4) and QUIC
repeats ACK ranges in later packets (RFC 9000 §13.2). So when an answer's
first round is lost with the ACK it carried, its next round states that
ACK again. Such a re-ridden ACK never goes alone and never adds a packet.
Each endpoint has at most one message in flight, so a link carries at most
one per direction.

The message that ends an exchange goes unacknowledged. Messenger.send(...,
last=True) sends a message as last when it is one whole frame and the ACK
riding it is the whole ACK of a peer message delivered in the same tick,
which the peer still waits for: the frame sets the last flag and arms no
timer. Its receiver delivers it and owes it no ACK, alone or riding, and
drops a copy of it silently. The peer's timer makes it reliable: a copy of
the message it answered means the last frame was lost, and the endpoint
sends it again in that tick as an ordinary message, without the flag, with
the copy's ACK riding it and its own timer. A CoAP piggybacked response is
never acknowledged, and the server sends it again on a duplicate request
(RFC 7252 §4.5, §5.2.1); the DTLS peer that sends the final flight sends it
again only when the other side retransmits its own (RFC 6347 §4.2.4).
"""

from __future__ import annotations

import math
import struct
from collections import deque
from dataclasses import dataclass, field, replace
from random import Random
from typing import Iterable

MAGIC = 0xD1
HEADER_LEN = 8  # the header of a fragment: a data frame of a fragmented message, or a hole report
FLAG_ACK = 0x01
FLAG_WHOLE = 0x02
FLAG_LAST = 0x08

RETRY_LIMIT = 8          # retransmissions per fragment before giving up
TRANSIT_TICKS = 1        # one-way delay of every delivered frame
REORDER_DELAY_TICKS = 2  # extra one-way delay of a reordered frame
# How far behind a receiver's last delivery a stale copy's id can be. The copy
# lands within a worst-case one-way trip, and each send lasts at least a
# loss-free round trip, 2 * TRANSIT_TICKS: it ends on an ACK, which takes that
# long, or gives up after rounds whose timers are all at least that long. So its
# sender takes at most this many more ids before the copy lands.
STALE_IDS = math.ceil((TRANSIT_TICKS + REORDER_DELAY_TICKS) / (2 * TRANSIT_TICKS))

_HEAD = struct.Struct(">BBH")  # magic, flags, message_id: every frame's head
_FRAGMENT = struct.Struct(">HH")  # frag_index, frag_count: after the head, unless whole


class TransportError(Exception):
    pass


class FrameError(TransportError):
    """Frame bytes that do not decode or do not belong together."""


class DeliveryError(TransportError):
    """Retry budget exhausted on a lossy link."""


@dataclass(frozen=True)
class Frame:
    flags: int
    message_id: int
    frag_index: int
    frag_count: int
    payload: bytes

    @property
    def is_ack(self) -> bool:
        return bool(self.flags & FLAG_ACK)

    @property
    def whole(self) -> bool:
        """It stands for a whole message, so it travels without fragment fields:
        a data frame of a one-fragment message, or an ACK with no bitmap."""
        if self.is_ack:
            return not self.payload
        return (self.frag_index, self.frag_count) == (0, 1)

    @property
    def held(self) -> int:
        """A hole report's bitmap: bit i is set when the receiver holds fragment i."""
        return int.from_bytes(self.payload, "little")

    def encode(self) -> bytes:
        if self.whole:
            return _HEAD.pack(MAGIC, self.flags | FLAG_WHOLE, self.message_id) + self.payload
        return (
            _HEAD.pack(MAGIC, self.flags, self.message_id)
            + _FRAGMENT.pack(self.frag_index, self.frag_count)
            + self.payload
        )

    @classmethod
    def decode(cls, raw: bytes) -> "Frame":
        """The one frame `raw` holds; FrameError unless it holds exactly that."""
        frame, end = cls._read(raw)
        if end != len(raw):
            raise FrameError(f"{len(raw) - end} bytes follow the ACK")
        return frame

    @classmethod
    def _read(cls, raw: bytes) -> tuple["Frame", int]:
        """The frame at the front of `raw`, and the offset it ends at: an ACK
        ends at the length it states, a data frame at the end of `raw`.

        FrameError unless the frame decodes and is in its one wire form. It
        refuses a frame shorter than its head or without the magic byte; one
        that sets a flag bit other than FLAG_ACK, FLAG_WHOLE and FLAG_LAST, an
        ACK that sets FLAG_LAST, and a fragment that sets FLAG_LAST; a data
        frame without payload; a fragment shorter than its header, or whose
        frag_index is not below its frag_count; a hole report whose
        frag_index is not 0, whose bitmap is cut short of ceil(frag_count / 8)
        bytes, or that sets a bit at or beyond frag_count; and a whole
        message's frame spelled with fragment fields, a data frame of one
        fragment or a hole report that sets every bit.
        """
        if len(raw) < _HEAD.size:
            raise FrameError(f"frame shorter than its head: {len(raw)} bytes")
        magic, flags, message_id = _HEAD.unpack_from(raw)
        if magic != MAGIC:
            raise FrameError(f"bad magic 0x{magic:02x}")
        if flags & ~(FLAG_ACK | FLAG_WHOLE | FLAG_LAST):
            raise FrameError(f"reserved flag bits set: 0x{flags:02x}")
        is_ack = bool(flags & FLAG_ACK)
        if is_ack and flags & FLAG_LAST:
            raise FrameError(f"ACK of message {message_id} with data flags: 0x{flags:02x}")
        if flags & FLAG_LAST and not flags & FLAG_WHOLE:
            raise FrameError(f"fragment of message {message_id} sent as last")
        if not is_ack and len(raw) == (_HEAD.size if flags & FLAG_WHOLE else HEADER_LEN):
            raise FrameError(f"data frame of message {message_id} without payload")
        if flags & FLAG_WHOLE:
            end = _HEAD.size if is_ack else len(raw)
            return cls(flags & ~FLAG_WHOLE, message_id, 0, 1, raw[_HEAD.size : end]), end
        if len(raw) < HEADER_LEN:
            raise FrameError(f"frame shorter than header: {len(raw)} bytes")
        frag_index, frag_count = _FRAGMENT.unpack_from(raw, _HEAD.size)
        if frag_index >= frag_count:
            raise FrameError(f"frag_index {frag_index} >= frag_count {frag_count}")
        end = HEADER_LEN + _bitmap_len(frag_count) if is_ack else len(raw)
        if len(raw) < end:
            raise FrameError(f"ACK bitmap cut short at {len(raw) - HEADER_LEN} bytes")
        frame = cls(flags, message_id, frag_index, frag_count, raw[HEADER_LEN:end])
        if is_ack and frag_index != 0:
            raise FrameError(f"ACK with frag_index {frag_index}, want 0")
        if is_ack and frame.held >> frag_count:
            raise FrameError(f"ACK bitmap sets a bit at or beyond fragment {frag_count}")
        if frame.whole or (is_ack and frame.held == (1 << frag_count) - 1):
            raise FrameError(f"whole message {message_id} spelled with fragment fields")
        return frame, end


def _bitmap_len(frag_count: int) -> int:
    return (frag_count + 7) // 8


def _ackable_fragments(mtu: int) -> int:
    """The most fragments one hole report within `mtu` can acknowledge."""
    return 8 * (mtu - HEADER_LEN)


def make_ack(message_id: int, frag_count: int, held: int) -> Frame:
    """The ACK of a message of frag_count fragments; bit i of `held` is fragment i.

    Whole when `held` covers every fragment, else a hole report."""
    if held == (1 << frag_count) - 1:
        return Frame(FLAG_ACK, message_id, frag_index=0, frag_count=1, payload=b"")
    return Frame(
        flags=FLAG_ACK,
        message_id=message_id,
        frag_index=0,
        frag_count=frag_count,
        payload=held.to_bytes(_bitmap_len(frag_count), "little"),
    )


def fragment(message: bytes, mtu: int, message_id: int) -> list[Frame]:
    """Split a message into ceil(len / (mtu - 8)) frames."""
    if mtu <= HEADER_LEN:
        raise TransportError(f"mtu must exceed the {HEADER_LEN}-byte header")
    if not message:
        raise TransportError("cannot fragment an empty message")
    capacity = mtu - HEADER_LEN
    count = math.ceil(len(message) / capacity)
    if count > 0xFFFF:
        raise TransportError(
            f"message needs {count} fragments; the header field allows 65535"
        )
    return [
        Frame(0, message_id, index, count, message[index * capacity : (index + 1) * capacity])
        for index in range(count)
    ]


def decode_packet(raw: bytes) -> tuple[Frame | None, Frame | None]:
    """Split a link packet into its ACK and its data frame; either may be absent.

    A packet is one frame, or an ACK followed by a data frame: the ACK ends
    at the length it states. FrameError unless every part decodes and a
    second frame, if any, is a data frame.
    """
    first, end = Frame._read(raw)
    if end == len(raw):
        return (first, None) if first.is_ack else (None, first)
    data = Frame.decode(raw[end:])
    if data.is_ack:
        raise FrameError("a packet carries at most one ACK")
    return first, data


def reassemble(frames: Iterable[Frame]) -> bytes | None:
    """Rebuild one message; order-insensitive, duplicates ignored.

    Returns None while fragments are missing. Frames must agree on
    message_id and frag_count.
    """
    by_index: dict[int, bytes] = {}
    message_id: int | None = None
    frag_count: int | None = None
    for frame in frames:
        if frame.is_ack:
            raise FrameError("ACK frame in reassembly input")
        if message_id is None:
            message_id, frag_count = frame.message_id, frame.frag_count
        elif frame.message_id != message_id:
            raise FrameError(f"mixed message ids {message_id} and {frame.message_id}")
        elif frame.frag_count != frag_count:
            raise FrameError(f"inconsistent frag_count for message {message_id}")
        existing = by_index.get(frame.frag_index)
        if existing is not None and existing != frame.payload:
            raise FrameError(f"conflicting payloads for fragment {frame.frag_index}")
        by_index[frame.frag_index] = frame.payload
    if frag_count is None or len(by_index) < frag_count:
        return None
    return b"".join(by_index[i] for i in range(frag_count))


# ---------------------------------------------------------------------------
# Simulated links
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinkProfile:
    name: str
    mtu: int
    loss_probability: float = 0.0
    reorder_probability: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mtu <= HEADER_LEN:
            raise TransportError(f"mtu must exceed {HEADER_LEN}")


PROFILES = {
    "lora": LinkProfile(name="lora", mtu=222),
    "ble": LinkProfile(name="ble", mtu=244),
    "lossless": LinkProfile(name="lossless", mtu=65535),
}


@dataclass(frozen=True)
class TraceEntry:
    """One packet on the link: a data frame, with the ACK riding it if any, or an ACK alone."""

    tick: int
    src: str
    dst: str
    kind: str  # "data" | "ack": the packet's last frame
    message_id: int
    frag_index: int
    frag_count: int
    length: int  # of the whole packet
    dropped: bool
    ack_id: int | None = None  # the message id of the ACK the packet carries, alone or riding
    # That ACK's bitmap, as the fragment indexes it sets; None for a whole ACK,
    # which covers every fragment.
    acked: tuple[int, ...] | None = ()
    last: bool = False  # a data frame sent last, which no ACK answers

    def line(self) -> str:
        if self.kind == "ack":
            position = f"acked={_indexes(self.acked)}"
        else:
            position = f"idx={self.frag_index}/{self.frag_count}"
            if self.ack_id is not None:
                position += f" ack={self.ack_id}:{_indexes(self.acked)}"
        return (
            f"t={self.tick} dir={self.src}→{self.dst} type={self.kind} "
            f"id={self.message_id} {position} "
            f"len={self.length} dropped={str(self.dropped).lower()}"
            + (" last" if self.last else "")
        )


def _indexes(acked: tuple[int, ...] | None) -> str:
    if acked is None:
        return "all"
    return ",".join(map(str, acked)) or "none"


class SimLink:
    """Two endpoints joined by a lossy, possibly reordering pipe.

    Single-threaded: time advances only through tick(), which lets each
    attached endpoint handler send the ACKs of the tick that ends, then
    delivers due packets to the handlers and runs their retransmission
    timers. Every transmitted packet is bounds-checked against the MTU and
    logged to the trace, dropped or not. A delivered packet that fails to
    decode, or that its handler rejects with FrameError, is dropped whole and
    counted once in malformed_frames, which so counts frames only: what a
    delivered message holds is its reader's to judge.
    """

    def __init__(self, profile: LinkProfile, a: str = "A", b: str = "B"):
        if a == b:
            raise TransportError(f"a link joins two endpoints, not {a!r} to itself")
        self.profile = profile
        self.endpoints = (a, b)
        self.now = 0
        self.trace: list[TraceEntry] = []
        self.malformed_frames = 0
        self._rng = Random(profile.seed)
        # Packets in flight by arrival tick, in send order; each arrives after
        # the tick it was sent in, so tick() delivers just the new tick's key.
        self._pending: dict[int, list[tuple[str, bytes]]] = {}
        self._handlers: dict[str, "Messenger"] = {}

    def attach(self, endpoint: str, handler: "Messenger") -> None:
        if endpoint not in self.endpoints:
            raise TransportError(f"unknown endpoint {endpoint!r}")
        self._handlers[endpoint] = handler

    @property
    def round_trip_ticks(self) -> int:
        """Worst-case ticks from transmitting a frame to receiving its ACK."""
        one_way = TRANSIT_TICKS
        if self.profile.reorder_probability > 0:
            one_way += REORDER_DELAY_TICKS
        return 2 * one_way

    @property
    def answer_round_trip_ticks(self) -> int:
        """Ticks from transmitting a frame to receiving its ACK when at most one
        of the two is reordered: the timer of a round that carries an ACK due."""
        if self.profile.reorder_probability > 0:
            return 2 * TRANSIT_TICKS + REORDER_DELAY_TICKS
        return self.round_trip_ticks

    def other_end(self, endpoint: str) -> str:
        a, b = self.endpoints
        if endpoint == a:
            return b
        if endpoint == b:
            return a
        raise TransportError(f"unknown endpoint {endpoint!r}")

    def transmit(self, src: str, frame: Frame, ack: Frame | None = None) -> None:
        """Put one packet on the link: `frame`, with `ack`, if given, riding ahead of it."""
        raw = frame.encode() if ack is None else ack.encode() + frame.encode()
        if len(raw) > self.profile.mtu:
            raise TransportError(
                f"packet of {len(raw)} bytes exceeds mtu {self.profile.mtu}"
            )
        dst = self.other_end(src)
        dropped = self._rng.random() < self.profile.loss_probability
        delay = TRANSIT_TICKS
        if not dropped and self._rng.random() < self.profile.reorder_probability:
            delay += REORDER_DELAY_TICKS
        carried = frame if frame.is_ack else ack
        ack_id, acked = None, ()
        if carried is not None:
            ack_id, held = carried.message_id, carried.held
            acked = None if carried.whole else tuple(
                i for i in range(held.bit_length()) if held >> i & 1
            )
        self.trace.append(
            TraceEntry(
                tick=self.now,
                src=src,
                dst=dst,
                kind="ack" if frame.is_ack else "data",
                message_id=frame.message_id,
                frag_index=frame.frag_index,
                frag_count=frame.frag_count,
                length=len(raw),
                dropped=dropped,
                ack_id=ack_id,
                acked=acked,
                last=bool(frame.flags & FLAG_LAST),
            )
        )
        if dropped:
            return
        self._pending.setdefault(self.now + delay, []).append((dst, raw))

    def tick(self) -> None:
        """Advance one tick and hand due packets to their endpoint handlers.

        Before the clock advances, each handler sends alone the ACKs of the
        tick that ends that rode no data frame. Once every packet due in the
        new tick is delivered, each handler runs its timer.
        """
        for handler in self._handlers.values():
            handler.send_acks()
        self.now += 1
        for dst, raw in self._pending.pop(self.now, ()):
            handler = self._handlers.get(dst)
            if handler is None:
                continue
            try:
                handler.handle_packet(*decode_packet(raw))
            except FrameError:
                self.malformed_frames += 1
        for handler in self._handlers.values():
            handler.check_timer()

    def bytes_on_wire(self) -> int:
        return sum(entry.length for entry in self.trace)

    def trace_lines(self) -> list[str]:
        return [entry.line() for entry in self.trace]


def make_link(
    profile: str | LinkProfile,
    a: str = "A",
    b: str = "B",
    loss: float | None = None,
    reorder: float | None = None,
    seed: int | None = None,
) -> SimLink:
    if isinstance(profile, str):
        try:
            profile = PROFILES[profile]
        except KeyError:
            raise TransportError(
                f"unknown link profile {profile!r}; have {sorted(PROFILES)}"
            ) from None
    overrides = {}
    if loss is not None:
        overrides["loss_probability"] = loss
    if reorder is not None:
        overrides["reorder_probability"] = reorder
    if seed is not None:
        overrides["seed"] = seed
    if overrides:
        profile = replace(profile, **overrides)
    return SimLink(profile, a=a, b=b)


@dataclass
class _ReceiveState:
    """The message a Messenger holds part of."""

    message_id: int
    frag_count: int
    fragments: dict[int, Frame] = field(default_factory=dict)


@dataclass
class _Outbound:
    """The message a Messenger has in flight."""

    message_id: int
    frames: list[Frame]  # the fragments its last round sent
    fragments: int  # the message's fragment count
    deadline: int = 0  # the tick its timer fires
    rounds: int = 0
    acked: int = 0  # bit i: fragment i
    answers: int | None = None  # sent last: the id of the peer message it answers


class Messenger:
    """Reliable message endpoint over a SimLink: selective repeat over the whole message.

    send(message) transmits every fragment of its one message, arms the
    round's timer, and returns the message's fragment count; the link's trace
    logs every frame it sends. It raises TransportError while an earlier
    message is still in flight: `idle` says when there is none. From then on
    SimLink.tick() drives the message: the tick in which the ACKs cover every
    fragment ends it. When the timer fires first, check_timer() sends only the
    fragments still unacknowledged and arms it again. A round arms
    SimLink.answer_round_trip_ticks when an ACK due rides one of its frames,
    else SimLink.round_trip_ticks, for the reasons the module docstring gives.
    When a fragment is still unacknowledged after RETRY_LIMIT retransmissions,
    the send gives up and `failure` holds a DeliveryError.
    The peer's Messenger, attached to the same link, acknowledges each message
    whose data arrived in a tick, unless sent last, with one ACK in that
    tick, whole or a hole report; completed messages queue up, in send
    order, behind receive().

    ACKs ride data frames as the module docstring sets out. A full fragment
    has no room for one, so an ACK goes with a message's last fragment or a
    short retransmission; a full whole frame, 4 bytes shorter, has room for a
    whole ACK. A reply that answers a message carries that message's ACK, and
    the two are lost or delivered together. Because each later round of a
    reply re-rides the ACK its lost first round carried, the peer's message
    ends in the tick that round arrives, not only once a duplicate of it,
    sent again, draws an ACK due. A lossless handshake carries no re-ridden
    ACK, since each of its replies leaves in the tick of the delivery it
    answers, with that delivery's ACK due.

    The simulator charges transit, not airtime: frames sent in the same tick
    all arrive one transit later. So a k-fragment message costs one round trip
    here where a round trip per fragment would cost k; the saving is the k - 1
    idle ACK turnarounds, with the same data frames and airtime. Its fragments
    arrive in the same tick on a lossless link, so they draw one ACK, not k. A
    reply sent in the tick its request is delivered saves the rest of that
    request's round trip: a chain of n messages that each answer the one
    before, every one delivered at its first try and the last sent last, costs
    n ticks on a link that never reorders, not 2n. It costs no ACK frame when
    each reply's last fragment has room for the ACK of the message it answers:
    the first n - 1 ACKs ride the replies, and the last message draws none.

    An endpoint keeps its one message in flight with its bitmap and timer,
    and ignores ACKs for any other id. It keeps the id of its last message
    the peer acknowledged whole, or sent as last, which no ACK covers, and
    send refuses, with TransportError, a message whose id trails that one by
    0 to STALE_IDS, which the peer would take for a copy: after 65,533 sends
    in a row that gave up, as TCP and DTLS stop before their sequence space
    wraps. It keeps a message sent as last until a newer peer message
    arrives, which the peer sends only once the answered one has ended, and
    until then send refuses a new message with TransportError: were the
    last one lost, the new one would reach the peer first, and the last one,
    sent again, would be dropped as stale. So a last message is delivered
    unless the send it answers gives up. A receiver keeps the id of the
    last message it delivered and at most one partial message. One rule,
    in _receive_state, sorts every data frame that arrives: a copy of the
    delivered message is acknowledged again, whole; a frame whose id trails
    that one by 1 to STALE_IDS is a stale copy of an earlier message, dropped
    with no ACK; any other frame goes into the partial message, which a frame
    of another message replaces. A frame that would open a partial message in
    the tick a message was delivered is refused with FrameError: it would
    take that message's place as the one to acknowledge, yet an honest peer
    sends its next message only once the delivered one's whole ACK has
    reached it, or right after a give-up, whose frame its timer sends again.
    So state stays bounded on a long-lived link, and each message is
    delivered exactly once, in send order: tests/test_transport.py's
    ExactlyOnce state machine checks that on long-lived lossy, reordering
    links, with traffic both ways and ids across the 16-bit wrap.
    """

    def __init__(self, link: SimLink, endpoint: str):
        self.link = link
        self.endpoint = endpoint
        self.failure: DeliveryError | None = None  # set when the last send gave up
        self._sent_id = 0  # the id of the last message this endpoint sent
        self._acked_id = 0  # the id of the last one the peer acknowledged whole
        self._delivered: int | None = None  # the id of the last message it delivered
        self._delivered_at = -1  # the tick it was delivered in
        self._delivered_last = False  # it came in a last frame, whose ACK never travels
        self._last: _Outbound | None = None  # sent last; kept until a newer peer message
        self._partial: _ReceiveState | None = None
        self._ack_due: list[int] = []
        self._sending: _Outbound | None = None
        self._received: deque[bytes] = deque()
        link.attach(endpoint, self)

    @property
    def idle(self) -> bool:
        """No message in flight: the last one sent was acknowledged, gave up, or went last."""
        return self._sending is None

    def send(self, message: bytes, last: bool = False) -> int:
        """Start sending `message`; SimLink.tick() finishes it.

        `last` says the exchange ends with it: it goes as a last message
        when it can, as the class docstring sets out."""
        if self._sending is not None:
            raise TransportError(f"message {self._sending.message_id} is still in flight")
        if self._last is not None:
            raise TransportError(
                f"message {self._last.message_id} went last, and the peer has sent nothing newer"
            )
        message_id = (self._sent_id + 1) % 0x10000
        if (self._acked_id - message_id) % 0x10000 <= STALE_IDS:
            raise TransportError(
                f"message id {message_id} would read as a copy of message {self._acked_id},"
                " the last the peer acknowledged"
            )
        frames = fragment(message, self.link.profile.mtu, message_id)
        count = len(frames)
        if count > _ackable_fragments(self.link.profile.mtu):
            raise TransportError(f"message needs {count} fragments; its ACK would exceed the mtu")
        self._sent_id = message_id
        self.failure = None
        answered = self._answered(frames[0]) if last and count == 1 else None
        out = _Outbound(message_id, frames, count, answers=answered)
        if answered is None:
            self._sending = out
            self._transmit_round()
        else:
            # No ACK will cover it, so it counts as the peer's mark from now on.
            self._last, self._acked_id = out, message_id
            self._transmit(replace(frames[0], flags=FLAG_LAST))
        return count

    def _answered(self, frame: Frame) -> int | None:
        """The peer message that `frame`, a whole frame, answers as last: the
        one whose ACK due would ride it, when it was delivered in this tick, so
        that no ACK of it has gone and the peer waits for this one. None if
        the ACK that would ride is any other, or there is none."""
        if self._delivered_at != self.link.now:
            return None
        ack, due = self._riding_ack(frame)
        return ack.message_id if due and ack.message_id == self._delivered else None

    def _transmit_round(self) -> None:
        out = self._sending
        carried_due = False
        for frame in out.frames:
            carried_due |= self._transmit(frame)
        out.rounds += 1
        out.deadline = self.link.now + (
            self.link.answer_round_trip_ticks if carried_due else self.link.round_trip_ticks
        )

    def _transmit(self, frame: Frame) -> bool:
        """Transmit a data frame with the ACK _riding_ack picks riding ahead of it.

        True when an ACK due rode it."""
        ack, due = self._riding_ack(frame)
        if ack is None:
            self.link.transmit(self.endpoint, frame)
            return False
        if due:
            self._ack_due.remove(ack.message_id)
        self.link.transmit(self.endpoint, frame, ack)
        return due

    def _riding_ack(self, frame: Frame) -> tuple[Frame | None, bool]:
        """The ACK to ride ahead of `frame`, and whether it is due: the first ACK
        due that fits, or else, if it fits, the ACK of the newest message held,
        unless that message came last. None when no ACK fits."""
        room = self.link.profile.mtu - len(frame.encode())
        if self._partial is not None:
            newest = self._partial.message_id
        else:
            newest = None if self._delivered_last else self._delivered
        for message_id in (*self._ack_due, newest):
            ack = self._ack(message_id)
            if ack is not None and len(ack.encode()) <= room:
                return ack, message_id in self._ack_due
        return None, False

    def check_timer(self) -> None:
        """End the message in flight once every fragment is acknowledged; at its
        timer, send the unacknowledged fragments again, or give up after RETRY_LIMIT.
        With none in flight, send a lost last message again, as ordinary.

        SimLink.tick() calls it once a tick, after the tick's packets are delivered.
        """
        out = self._sending
        if out is None:
            if self._last is not None and self._last.answers in self._ack_due:
                # A copy of the message my last one answered: the last one was lost.
                self._sending, self._last = self._last, None
                self._transmit_round()
            return
        if out.acked == (1 << out.fragments) - 1:
            self._sending, self._acked_id = None, out.message_id
            return
        if self.link.now < out.deadline:
            return
        out.frames = [f for f in out.frames if not out.acked >> f.frag_index & 1]
        if out.rounds > RETRY_LIMIT:
            self._sending = None
            self.failure = DeliveryError(
                f"fragments {[f.frag_index for f in out.frames]} of message {out.message_id} "
                f"unacknowledged after {RETRY_LIMIT} retries"
            )
            return
        self._transmit_round()

    def handle_packet(self, ack: Frame | None, data: Frame | None) -> None:
        """Take one packet off the link: an ACK, a data frame, or both, ACK first.

        Both are checked before either is acted on. FrameError means nothing
        in the packet was acted on.
        """
        held = 0 if ack is None else self._acknowledged(ack)
        state = None if data is None else self._receive_state(data)
        if held:
            self._sending.acked |= held
        if data is not None:
            self._take(data, state)

    def _acknowledged(self, ack: Frame) -> int:
        """The fragments of the message in flight that `ack` acknowledges: all of
        them for a whole ACK, none for another id. Frame._read has checked its
        bitmap; only the message in flight tells whether its count is right."""
        out = self._sending
        if out is None or ack.message_id != out.message_id:
            return 0
        if ack.whole:
            return (1 << out.fragments) - 1
        if ack.frag_count != out.fragments:
            raise FrameError(
                f"ACK for {ack.frag_count} fragments of message {ack.message_id}, "
                f"which has {out.fragments}"
            )
        return ack.held

    def _receive_state(self, frame: Frame) -> _ReceiveState | None:
        """The partial message `frame` adds to, new unless it is the one held;
        None for a copy of a delivered message. FrameError if the frame does not
        fit its message."""
        if frame.frag_count > _ackable_fragments(self.link.profile.mtu):
            raise FrameError(f"{frame.frag_count} fragments: their ACK would exceed the mtu")
        delivered = self._delivered
        if delivered is not None and (delivered - frame.message_id) % 0x10000 <= STALE_IDS:
            return None
        state = self._partial
        if state is None or state.message_id != frame.message_id:
            if self._delivered_at == self.link.now:
                raise FrameError(
                    f"message {frame.message_id} opens in the tick message {delivered} ended"
                )
            return _ReceiveState(frame.message_id, frame.frag_count)
        if frame.frag_count != state.frag_count:
            raise FrameError(f"inconsistent frag_count for message {frame.message_id}")
        return state

    def _take(self, frame: Frame, state: _ReceiveState | None) -> None:
        if state is None and frame.message_id != self._delivered:
            return  # a stale copy of an earlier message: no ACK
        last = bool(frame.flags & FLAG_LAST)
        if not last and frame.message_id not in self._ack_due:
            self._ack_due.append(frame.message_id)
        if state is None:
            # A copy of the delivered message: acknowledged again, unless it
            # came last, and never delivered again.
            return
        # The peer sends a newer message only once the one my last answered has ended.
        self._last = None
        self._partial = state
        state.fragments.setdefault(frame.frag_index, frame)
        if len(state.fragments) == state.frag_count:
            self._partial, self._delivered = None, state.message_id
            self._delivered_at, self._delivered_last = self.link.now, last
            self._received.append(reassemble(state.fragments.values()))

    def _ack(self, message_id: int | None) -> Frame | None:
        """The ACK of a message this endpoint holds, whole once delivered; None
        for any other, such as one whose partial state a frame of the next replaced."""
        state = self._partial
        if state is not None and message_id == state.message_id:
            return make_ack(message_id, state.frag_count, sum(1 << i for i in state.fragments))
        if message_id is None or message_id != self._delivered:
            return None
        return make_ack(message_id, frag_count=1, held=1)

    def send_acks(self) -> None:
        """Send alone, once each, the ACKs due this tick that rode no data frame."""
        for message_id in self._ack_due:
            ack = self._ack(message_id)
            if ack is not None:
                self.link.transmit(self.endpoint, ack)
        self._ack_due.clear()

    def receive(self) -> bytes | None:
        if self._received:
            return self._received.popleft()
        return None
