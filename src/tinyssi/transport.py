"""MTU-bounded framing with fragmentation, selective-repeat ARQ, and a
deterministic lossy-link simulator.

Frame header, 8 bytes, big-endian:

  byte 0    magic 0xD1
  byte 1    flags: bit0 = ACK, bit2 = batch; the other bits are sent as 0
  bytes 2-3 message_id
  bytes 4-5 frag_index
  bytes 6-7 frag_count

Data payload capacity is mtu - 8. A data frame is its message's last
fragment when frag_index == frag_count - 1. An ACK frame acknowledges a whole
message: its header carries frag_index 0 and the message's frag_count, and
its payload is a bitmap of ceil(frag_count / 8) bytes, bit i (least
significant bit of byte 0 first) set when the receiver holds fragment i.
Once the message is delivered, every bit is set. So a message of up to 8
fragments is acknowledged in 9 bytes. A message whose ACK would not fit the
MTU, more than 8 * (mtu - 8) fragments, is refused before it is sent.
Timeouts run on simulated ticks, never wall clock, so a fixed seed
reproduces a run frame for frame.

A link packet is one frame, or an ACK frame followed by a data frame. An ACK
states its own length, 8 + ceil(frag_count / 8) bytes, so the packet needs
no length field or flag to say where the data frame starts, and every frame
keeps its bytes. The packet as a whole is bounded by the MTU. The receiver of a
packet checks every frame in it before it acts on any: one that does not
decode or does not fit drops the whole packet. An ACK riding a data frame
costs its bytes but no frame of its own, the way a CoAP response is
piggybacked on its ACK (RFC 7252 §5.2.1) and DTLS 1.3 packs several records
into one datagram (RFC 9147 §4); on LoRa a frame costs its preamble and
header in airtime, whatever its length.

Messenger.send takes one or more protocol messages and sends them as one
transport message: one message id, one fragment stream, one ARQ timer. One
message travels as it is. Two or more travel as a batch: each is preceded by
its 2-byte big-endian length, and every fragment sets the batch flag. The
receiver queues a completed batch's messages in send order, and drops a batch
whose length prefixes do not tile its payload exactly. So a handshake leg of
several messages costs one round trip, not one per message.

The ARQ window is the whole message: every fragment goes out at once, and
one timer waits for all their ACKs. When it fires, only the fragments still
unacknowledged go out again. That is SCHC's ACK-on-Error mode (RFC 8724
§8.4.3): its retransmission pattern, and its ACK, one bitmap for the window.
An ACK states everything the receiver holds, so a later ACK also covers
fragments whose earlier ACK was lost. The timer is the link's worst-case
round trip: a frame takes TRANSIT_TICKS each way, plus REORDER_DELAY_TICKS
when the link reorders it. That is 2 ticks on a link that never reorders and
6 on one that may. A timer that fires then finds nothing in flight, so it
never fires on a late ACK.

Sending does not block. Messenger.send transmits every fragment, arms the
timer and returns; SimLink.tick() carries the message to its end. Each tick
runs in this order: the packets due are delivered; each sender finishes a
message that is fully acknowledged, or, if its timer has expired, sends the
unacknowledged fragments again, or gives up after RETRY_LIMIT
retransmissions; then the endpoints send their new messages, which the
caller starts between ticks; last, before the clock advances, each endpoint
sends alone the ACKs that rode none of its data frames. A receiver
acknowledges each message whose data arrived in a tick once, in that tick:
the ACK rides the first data frame with room for it that the receiver
transmits in the tick, a retransmission or a new message. So a receiver can
answer in the tick a message arrives, and the answer carries that message's
ACK, the way DTLS 1.3 sends its next flight (RFC 9147 §7). Each endpoint has
at most one message in flight, so a link carries at most one per direction.
"""

from __future__ import annotations

import math
import struct
from collections import deque
from dataclasses import dataclass, field, replace
from random import Random
from typing import Iterable

MAGIC = 0xD1
HEADER_LEN = 8
FLAG_ACK = 0x01
FLAG_BATCH = 0x04

RETRY_LIMIT = 8          # retransmissions per fragment before giving up
TRANSIT_TICKS = 1        # one-way delay of every delivered frame
REORDER_DELAY_TICKS = 2  # extra one-way delay of a reordered frame

_HEADER = struct.Struct(">BBHHH")
_LENGTH = struct.Struct(">H")


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

    def encode(self) -> bytes:
        return _HEADER.pack(
            MAGIC, self.flags, self.message_id, self.frag_index, self.frag_count
        ) + self.payload

    @classmethod
    def decode(cls, raw: bytes) -> "Frame":
        if len(raw) < HEADER_LEN:
            raise FrameError(f"frame shorter than header: {len(raw)} bytes")
        magic, flags, message_id, frag_index, frag_count = _HEADER.unpack_from(raw)
        if magic != MAGIC:
            raise FrameError(f"bad magic 0x{magic:02x}")
        if frag_index >= frag_count:
            raise FrameError(f"frag_index {frag_index} >= frag_count {frag_count}")
        return cls(
            flags=flags,
            message_id=message_id,
            frag_index=frag_index,
            frag_count=frag_count,
            payload=raw[HEADER_LEN:],
        )


def _bitmap_len(frag_count: int) -> int:
    return (frag_count + 7) // 8


def _ackable_fragments(mtu: int) -> int:
    """The most fragments one ACK frame within `mtu` can acknowledge."""
    return 8 * (mtu - HEADER_LEN)


def make_ack(message_id: int, frag_count: int, held: int) -> Frame:
    """The ACK of a message of frag_count fragments; bit i of `held` is fragment i."""
    return Frame(
        flags=FLAG_ACK,
        message_id=message_id,
        frag_index=0,
        frag_count=frag_count,
        payload=held.to_bytes(_bitmap_len(frag_count), "little"),
    )


def ack_bitmap(frame: Frame) -> int:
    """The fragments an ACK frame acknowledges, bit i for fragment i.

    FrameError unless frag_index is 0, the bitmap is ceil(frag_count / 8)
    bytes long, and no bit at or beyond frag_count is set.
    """
    if frame.frag_index != 0:
        raise FrameError(f"ACK with frag_index {frame.frag_index}, want 0")
    if len(frame.payload) != _bitmap_len(frame.frag_count):
        raise FrameError(
            f"ACK bitmap of {len(frame.payload)} bytes for {frame.frag_count} fragments"
        )
    held = int.from_bytes(frame.payload, "little")
    if held >> frame.frag_count:
        raise FrameError(f"ACK bitmap sets a bit at or beyond fragment {frame.frag_count}")
    return held


def fragment(message: bytes, mtu: int, message_id: int, flags: int = 0) -> list[Frame]:
    """Split a message into ceil(len / (mtu - 8)) frames, each carrying `flags`."""
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
    frames = []
    for index in range(count):
        chunk = message[index * capacity : (index + 1) * capacity]
        frames.append(
            Frame(
                flags=flags,
                message_id=message_id,
                frag_index=index,
                frag_count=count,
                payload=chunk,
            )
        )
    return frames


def decode_packet(raw: bytes) -> tuple[Frame | None, Frame | None]:
    """Split a link packet into its ACK and its data frame; either may be absent.

    A packet is one frame, or an ACK followed by a data frame: the ACK ends
    after its ceil(frag_count / 8)-byte bitmap. FrameError unless every part
    decodes and a second frame, if any, is a data frame.
    """
    first = Frame.decode(raw)
    if not first.is_ack:
        return None, first
    end = HEADER_LEN + _bitmap_len(first.frag_count)
    if len(raw) <= end:
        return first, None
    data = Frame.decode(raw[end:])
    if data.is_ack:
        raise FrameError("a packet carries at most one ACK")
    return replace(first, payload=raw[HEADER_LEN:end]), data


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


def _payload(messages: tuple[bytes, ...]) -> tuple[bytes, int]:
    """The payload and flags of the transport message that carries `messages`."""
    if not messages:
        raise TransportError("send needs at least one message")
    if not all(messages):
        raise TransportError("cannot send an empty message")
    if len(messages) == 1:
        return messages[0], 0
    if any(len(m) > 0xFFFF for m in messages):
        raise TransportError("a batched message is limited to 65535 bytes")
    return b"".join(_LENGTH.pack(len(m)) + m for m in messages), FLAG_BATCH


def _unbatch(payload: bytes) -> list[bytes]:
    """Split a batch payload; FrameError unless its length prefixes tile it exactly."""
    messages, offset = [], 0
    while offset < len(payload):
        if offset + _LENGTH.size > len(payload):
            raise FrameError("batch ends inside a length prefix")
        (length,) = _LENGTH.unpack_from(payload, offset)
        offset += _LENGTH.size
        if length == 0:
            raise FrameError("batch holds an empty message")
        if offset + length > len(payload):
            raise FrameError(f"batch entry of {length} bytes overruns the payload")
        messages.append(payload[offset : offset + length])
        offset += length
    if len(messages) < 2:
        raise FrameError("batch of fewer than two messages")
    return messages


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
    acked: tuple[int, ...] = ()  # that ACK's bitmap, as the fragment indexes it sets

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
        )


def _indexes(acked: tuple[int, ...]) -> str:
    return ",".join(map(str, acked)) or "none"


class SimLink:
    """Two endpoints joined by a lossy, possibly reordering pipe.

    Single-threaded: time advances only through tick(), which lets each
    attached endpoint handler send the ACKs of the tick that ends, then
    delivers due packets to the handlers and runs their retransmission
    timers. Every transmitted packet is bounds-checked against the MTU and
    logged to the trace, dropped or not. A delivered packet that fails to
    decode, or that its handler rejects with FrameError, is dropped whole and
    counted once in malformed_frames.
    """

    def __init__(self, profile: LinkProfile, a: str = "A", b: str = "B"):
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
        self._next_message_id = 0

    def attach(self, endpoint: str, handler: "Messenger") -> None:
        if endpoint not in self.endpoints:
            raise TransportError(f"unknown endpoint {endpoint!r}")
        self._handlers[endpoint] = handler

    def allocate_message_id(self) -> int:
        self._next_message_id = (self._next_message_id + 1) % 0x10000
        return self._next_message_id

    @property
    def round_trip_ticks(self) -> int:
        """Worst-case ticks from transmitting a frame to receiving its ACK."""
        one_way = TRANSIT_TICKS
        if self.profile.reorder_probability > 0:
            one_way += REORDER_DELAY_TICKS
        return 2 * one_way

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
            bits = int.from_bytes(carried.payload, "little")
            ack_id = carried.message_id
            acked = tuple(i for i in range(bits.bit_length()) if bits >> i & 1)
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
    frag_count: int
    batch: bool
    fragments: dict[int, Frame] = field(default_factory=dict)
    delivered: bool = False


@dataclass
class _Outbound:
    """The message a Messenger has in flight."""

    message_id: int
    frames: list[Frame]  # the fragments its last round sent
    fragments: int  # the message's fragment count
    deadline: int = 0  # the tick its timer fires
    rounds: int = 0
    acked: int = 0  # bit i: fragment i


class Messenger:
    """Reliable message endpoint over a SimLink: selective repeat over the whole message.

    send(*messages) carries its messages as one transport message, batched
    when there are two or more (see the module docstring). It transmits every
    fragment, arms a timer of one round trip, and returns the message's
    fragment count; the link's trace logs every frame it sends. It raises
    TransportError while an earlier message is still in flight: `idle` says
    when there is none. From then on SimLink.tick() drives the message: the
    tick in which the ACKs cover every fragment ends it. When the timer fires
    first, check_timer() sends only the fragments still unacknowledged and
    arms it again; when a fragment is still unacknowledged after RETRY_LIMIT
    retransmissions, the send gives up and `failure` holds a DeliveryError.
    The peer's Messenger, attached to the same link, acknowledges each message
    whose data arrived in a tick with one bitmap ACK in that tick; the
    messages of a completed transport message queue up, in send order, behind
    receive().

    An ACK rides the first data frame this endpoint transmits in the tick
    that has room for it: the packet, ACK and data frame, stays within the
    MTU. A full fragment has no room, so the ACK goes with a message's last
    fragment or a short retransmission. When no data frame leaves in the tick,
    or none has room, send_acks() sends the ACK alone at the tick's end,
    before the clock advances. Either way the ACK leaves in the tick its data
    arrived, so the ARQ timer and the tick count are what they would be with
    every ACK alone; only the frame count falls. A reply that answers a
    message carries that message's ACK, and the two are lost or delivered
    together.

    The simulator charges transit, not airtime: frames sent in the same tick
    all arrive one transit later. So a k-fragment message costs one round
    trip here where a round trip per fragment would cost k; the saving is the
    k - 1 idle ACK turnarounds, with the same data frames and airtime. Its
    fragments arrive in the same tick on a lossless link, so they draw one
    ACK, not k. A batch of m messages saves m - 1 round trips the same way. It
    costs 2 bytes of length prefix per message, and may need fewer fragments
    than m sends would: only its last fragment is partly filled. A reply sent
    in the tick its request is delivered saves the rest of that request's
    round trip: a chain of n messages that each answer the one before, every
    one delivered at its first try, costs n + 1 ticks on a link that never
    reorders, not 2n. It costs one ACK frame, not n, when each reply's last
    fragment has room for the ACK of the message it answers: the first n - 1
    ACKs ride the replies, and only the last goes alone.

    State stays bounded on a long-lived link, whose 16-bit message ids wrap.
    The sender keeps one message, the one in flight, with its bitmap and
    timer, and ignores ACKs for any other id. Each endpoint has at most one
    message in flight, so a link carries at most two at once, one each way.
    The receiver keeps the ids whose data arrived in the current tick. Each
    leaves the list when its ACK rides a data frame, and send_acks() sends
    the rest and empties it, so the list is empty whenever the clock
    advances. An id whose receive state a delivery in the same tick has
    forgotten gets no ACK. Each delivery leaves the receiver with just the
    delivered message's receive state: other partial messages, abandoned or
    stray, are forgotten then. A receiver's messages all come from the one
    peer, which starts its next message only once this one is acknowledged,
    so that state is still there for as long as the peer may send the
    message again.

    A duplicate can belong only to the message whose id it carries. A round
    sends at most one copy of each unacknowledged fragment, and its timer is
    the worst-case round trip, so a round that ends on the timer has none of
    its frames in flight. A round can also end early, on an ACK that covers
    every fragment, while one of its copies is still on the way: a fragment
    the receiver already held, whose earlier ACK was lost. That copy left at
    the round's start, so it lands within a worst-case one-way trip, at most
    3 ticks. A send lasts at least a round trip, 2 ticks, so until it lands
    each endpoint starts at most two more sends: at most four more message
    ids are allocated on the link, far from the 65,536 a wrap needs. It is
    re-acknowledged if its message's receive state is still there, and
    otherwise opens a partial state that the next delivery forgets; the
    sender ignores that ACK, whose id is not the one in flight. An ACK that
    rides a data frame changes none of this: it leaves in the same tick, with
    the same bitmap, as it would alone. A batch changes none of it either: it
    is one message id, sent and delivered once, and its messages wait in the
    receive() queue only until the caller takes them.
    """

    def __init__(self, link: SimLink, endpoint: str):
        self.link = link
        self.endpoint = endpoint
        self.failure: DeliveryError | None = None  # set when the last send gave up
        self._receiving: dict[int, _ReceiveState] = {}
        self._ack_due: list[int] = []
        self._sending: _Outbound | None = None
        self._received: deque[bytes] = deque()
        link.attach(endpoint, self)

    @property
    def idle(self) -> bool:
        """No message in flight: the last one sent was acknowledged, or gave up."""
        return self._sending is None

    def send(self, *messages: bytes) -> int:
        """Start sending `messages` as one transport message; SimLink.tick() finishes it."""
        if self._sending is not None:
            raise TransportError(f"message {self._sending.message_id} is still in flight")
        payload, flags = _payload(messages)
        message_id = self.link.allocate_message_id()
        frames = fragment(payload, self.link.profile.mtu, message_id, flags)
        count = len(frames)
        if count > _ackable_fragments(self.link.profile.mtu):
            raise TransportError(f"message needs {count} fragments; its ACK would exceed the mtu")
        self.failure = None
        self._sending = _Outbound(message_id, frames, count)
        self._transmit_round()
        return count

    def _transmit_round(self) -> None:
        out = self._sending
        for frame in out.frames:
            self._transmit(frame)
        out.rounds += 1
        out.deadline = self.link.now + self.link.round_trip_ticks

    def _transmit(self, frame: Frame) -> None:
        """Transmit a data frame with the first ACK due that fits riding ahead of it."""
        room = self.link.profile.mtu - HEADER_LEN - len(frame.payload)
        for message_id in self._ack_due:
            ack = self._ack(message_id)
            if ack is not None and HEADER_LEN + len(ack.payload) <= room:
                self._ack_due.remove(message_id)
                self.link.transmit(self.endpoint, frame, ack)
                return
        self.link.transmit(self.endpoint, frame)

    def check_timer(self) -> None:
        """End the message in flight once every fragment is acknowledged; at its
        timer, send the unacknowledged fragments again, or give up after RETRY_LIMIT.

        SimLink.tick() calls it once a tick, after the tick's packets are delivered.
        """
        out = self._sending
        if out is None:
            return
        if out.acked == (1 << out.fragments) - 1:
            self._sending = None
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
        in the packet was acted on, or that the batch its data frame completed
        did not split and was dropped.
        """
        held = 0 if ack is None else self._acknowledged(ack)
        state = None if data is None else self._receive_state(data)
        if held:
            self._sending.acked |= held
        if data is not None:
            self._take(data, state)

    def _acknowledged(self, ack: Frame) -> int:
        """The fragments of the message in flight that `ack` acknowledges: none for another id."""
        held = ack_bitmap(ack)
        out = self._sending
        if out is None or ack.message_id != out.message_id:
            return 0
        if ack.frag_count != out.fragments:
            raise FrameError(
                f"ACK for {ack.frag_count} fragments of message {ack.message_id}, "
                f"which has {out.fragments}"
            )
        return held

    def _receive_state(self, frame: Frame) -> _ReceiveState:
        """The receive state `frame` belongs to, new if its message has none; FrameError
        if the frame does not fit it."""
        if frame.frag_count > _ackable_fragments(self.link.profile.mtu):
            raise FrameError(f"{frame.frag_count} fragments: their ACK would exceed the mtu")
        batch = bool(frame.flags & FLAG_BATCH)
        state = self._receiving.get(frame.message_id)
        if state is None:
            return _ReceiveState(frag_count=frame.frag_count, batch=batch)
        if frame.frag_count != state.frag_count:
            raise FrameError(f"inconsistent frag_count for message {frame.message_id}")
        if batch != state.batch:
            raise FrameError(f"inconsistent batch flag for message {frame.message_id}")
        return state

    def _take(self, frame: Frame, state: _ReceiveState) -> None:
        self._receiving[frame.message_id] = state
        # Duplicate data (a lost ACK) is re-acknowledged, never re-delivered.
        if frame.message_id not in self._ack_due:
            self._ack_due.append(frame.message_id)
        if state.delivered:
            return
        state.fragments.setdefault(frame.frag_index, frame)
        if len(state.fragments) == state.frag_count:
            payload = reassemble(state.fragments.values())
            # Delivered before the split: a batch that does not split is dropped once.
            state.delivered = True
            state.fragments.clear()
            self._receiving = {frame.message_id: state}
            self._received.extend(_unbatch(payload) if state.batch else [payload])

    def _ack(self, message_id: int) -> Frame | None:
        """The ACK of a message whose data arrived this tick; None if its state is forgotten."""
        state = self._receiving.get(message_id)
        if state is None:
            return None  # forgotten by a delivery in the same tick
        if state.delivered:
            held = (1 << state.frag_count) - 1
        else:
            held = sum(1 << index for index in state.fragments)
        return make_ack(message_id, state.frag_count, held)

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
