"""Per-layer metrics of the traced run, and the checks that reconcile them.

Per-handshake values (`*_per_hs`) are means over the handshake attempts of
the traced pass. `us_p50`/`ms_p50` are medians of a span's inclusive duration;
`self_ms` sums its self time (callees that are themselves traced excluded).
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from tinyssi import handshake, identity, transport

from spans import LAYERS, Tracer
from workloads import Booted, PassOutcome, is_verdict, percentile

SETUP = -2  # span tag for the traced set-up; handshakes are tagged 0, 1, ...

MESSAGE_TAGS = {
    getattr(handshake, f"MSG_{name}"): name
    for name in (
        "HELLO", "HELLO_ACK", "AUTH", "AUTH_ACK",
        "CRED_REQUEST", "CRED_PRESENT", "TRUST_RESULT",
    )
}

CRYPTO_FUNCTIONS = ("sign", "verify", "agree", "derive_session", "seal", "unseal", "keygen", "digest")
ENCODING_FUNCTIONS = ("canonical_bytes", "from_canonical", "from_hex")

# (name, unit, better): the per-layer metrics every traced run reports.
PER_LAYER: list[tuple[str, str, str]] = [
    ("handshake.step.calls_per_hs", "calls", "lower"),
    ("handshake.step.self_ms_per_hs", "ms", "lower"),
    *[(f"handshake.bytes.{name}", "B", "lower") for name in MESSAGE_TAGS.values()],
    ("handshake.self_ms_per_hs", "ms", "lower"),
    ("transport.send.self_ms_per_hs", "ms", "lower"),
    ("transport.fragments_per_msg", "fragments", "lower"),
    ("transport.data_frames_per_hs", "frames", "lower"),
    ("transport.ack_frames_per_hs", "frames", "lower"),
    ("transport.ack_bytes_per_hs", "B", "lower"),
    ("transport.retransmissions_per_hs", "frames", "lower"),
    ("transport.dropped_frames_per_hs", "frames", "lower"),
    ("transport.first_try_ratio", "ratio", "higher"),
    ("transport.delivery_errors", "count", "lower"),
    ("transport.self_ms_per_hs", "ms", "lower"),
    *[
        metric
        for fn in CRYPTO_FUNCTIONS
        for metric in (
            (f"crypto.{fn}.calls_per_hs", "calls", "lower"),
            (f"crypto.{fn}.us_p50", "us", "lower"),
        )
    ],
    ("crypto.self_ms_per_hs", "ms", "lower"),
    *[
        metric
        for fn in ENCODING_FUNCTIONS
        for metric in (
            (f"encoding.{fn}.calls_per_hs", "calls", "lower"),
            (f"encoding.{fn}.self_ms_per_hs", "ms", "lower"),
        )
    ],
    ("encoding.self_ms_per_hs", "ms", "lower"),
    ("identity.verify_peer_document.calls_per_hs", "calls", "lower"),
    ("identity.verify_peer_document.us_p50", "us", "lower"),
    ("identity.DidDocument.from_mapping.calls_per_hs", "calls", "lower"),
    ("identity.DidDocument.from_mapping.us_p50", "us", "lower"),
    ("identity.parse_did.calls_per_hs", "calls", "lower"),
    ("identity.parse_did.self_ms_per_hs", "ms", "lower"),
    ("identity.self_ms_per_hs", "ms", "lower"),
    ("credentials.present.calls_per_hs", "calls", "lower"),
    ("credentials.present.us_p50", "us", "lower"),
    ("credentials.verify_presentation.calls_per_hs", "calls", "lower"),
    ("credentials.verify_presentation.us_p50", "us", "lower"),
    ("credentials.accept_ratio", "ratio", "higher"),
    ("credentials.issue.calls", "calls", "lower"),
    ("credentials.issue.us_p50", "us", "lower"),
    ("credentials.self_ms_per_hs", "ms", "lower"),
    ("resolver.resolve.calls_per_hs", "calls", "lower"),
    ("resolver.resolve.us_p50", "us", "lower"),
    ("resolver.cache_hit_ratio", "ratio", "higher"),
    ("resolver.registry_reads_per_hs", "reads", "lower"),
    ("resolver.registry_writes", "writes", "lower"),
    ("resolver.peer_resolves_per_hs", "calls", "lower"),
    ("resolver.self_ms_per_hs", "ms", "lower"),
    ("wallet.save.ms_p50", "ms", "lower"),
    ("wallet.unlock.ms_p50", "ms", "lower"),
    ("wallet.file_bytes", "B", "lower"),
    ("harness.failed_attempts", "count", "lower"),
    ("harness.drive_handshake.self_ms_per_hs", "ms", "lower"),
    ("harness.self_ms_per_hs", "ms", "lower"),
    ("trace.overhead_ms_p50", "ms", "lower"),
    ("trace.spans_per_hs", "spans", "lower"),
    ("untraced.handshakes_per_s", "1/s", "higher"),
    ("untraced.handshake_ms_p50", "ms", "lower"),
    ("untraced.handshake_ms_p99", "ms", "lower"),
]


class ReconciliationError(Exception):
    """Two independent counts of the same thing disagree."""


class Counters:
    """Probe callbacks: counts read from arguments and results of traced calls."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.counts: Counter[str] = Counter()
        self.message_bytes: dict[int, list[int]] = defaultdict(list)

    def probes(self) -> dict:
        return {
            "transport.Messenger.send": self._on_send,
            "transport.fragment": self._on_fragment,
            "transport.SimLink.transmit": self._on_transmit,
            "credentials.verify_presentation": self._on_verify_presentation,
            "resolver.Resolver.resolve": self._on_resolve,
        }

    def _in_handshake(self) -> bool:
        return self.tracer.current_hs >= 0

    def _on_send(self, args, report) -> None:
        if self._in_handshake():
            message = args[1]
            self.message_bytes[message[0]].append(len(message))

    def _on_fragment(self, args, frames) -> None:
        if self._in_handshake():
            self.counts["fragments"] += len(frames)

    def _on_transmit(self, args, _) -> None:
        if self._in_handshake():
            frame = args[2]
            if frame.is_ack:
                self.counts["ack_frames"] += 1
                self.counts["ack_bytes"] += transport.HEADER_LEN + len(frame.payload)
            else:
                self.counts["data_frames"] += 1

    def _on_verify_presentation(self, args, verdict) -> None:
        if self._in_handshake():
            self.counts["presentations"] += 1
            self.counts["accepted"] += bool(verdict)

    def _on_resolve(self, args, _) -> None:
        if self._in_handshake() and args[1].method == identity.METHOD_PEER:
            self.counts["peer_resolves"] += 1


def per_layer_metrics(
    tracer: Tracer,
    counters: Counters,
    booted: Booted,
    traced: PassOutcome,
    untraced_wall: dict[str, float],
) -> dict[str, float]:
    """`untraced_wall` holds the wall-time metrics of the untraced passes."""
    loop = tracer.spans_by_name(lambda hs: hs >= 0)
    setup = tracer.spans_by_name(lambda hs: hs == SETUP)
    empty = {"dur": (), "self": ()}
    n = len(traced.results)
    c = counters.counts

    def count(span: str) -> int:
        return len(loop.get(span, empty)["dur"])

    def calls(span: str) -> float:
        return count(span) / n

    def self_ms(span: str) -> float:
        return sum(loop.get(span, empty)["self"]) / n / 1e6

    def us_p50(span: str, spans=loop) -> float:
        durations = spans.get(span, empty)["dur"]
        return percentile(sorted(durations), 0.5) / 1e3 if durations else 0.0

    def layer_self_ms(layer: str) -> float:
        return sum(
            sum(entry["self"]) for name, entry in loop.items()
            if name.startswith(layer + ".")
        ) / n / 1e6

    hits, misses = traced.cache_hits, traced.cache_misses
    m: dict[str, float] = {
        "handshake.step.calls_per_hs": calls("handshake.HandshakeSession.step"),
        "handshake.step.self_ms_per_hs": self_ms("handshake.HandshakeSession.step"),
        "transport.send.self_ms_per_hs": self_ms("transport.Messenger.send"),
        "transport.fragments_per_msg": c["fragments"] / count("transport.fragment"),
        "transport.data_frames_per_hs": c["data_frames"] / n,
        "transport.ack_frames_per_hs": c["ack_frames"] / n,
        "transport.ack_bytes_per_hs": c["ack_bytes"] / n,
        "transport.retransmissions_per_hs": (c["data_frames"] - c["fragments"]) / n,
        "transport.dropped_frames_per_hs": sum(r.dropped_frames for r in traced.results) / n,
        "transport.first_try_ratio": c["fragments"] / c["data_frames"],
        "transport.delivery_errors": tracer.raised["transport.Messenger.send"],
        "identity.verify_peer_document.calls_per_hs": calls("identity.verify_peer_document"),
        "identity.verify_peer_document.us_p50": us_p50("identity.verify_peer_document"),
        "identity.DidDocument.from_mapping.calls_per_hs": calls("identity.DidDocument.from_mapping"),
        "identity.DidDocument.from_mapping.us_p50": us_p50("identity.DidDocument.from_mapping"),
        "identity.parse_did.calls_per_hs": calls("identity.parse_did"),
        "identity.parse_did.self_ms_per_hs": self_ms("identity.parse_did"),
        "credentials.present.calls_per_hs": calls("credentials.present"),
        "credentials.present.us_p50": us_p50("credentials.present"),
        "credentials.verify_presentation.calls_per_hs": calls("credentials.verify_presentation"),
        "credentials.verify_presentation.us_p50": us_p50("credentials.verify_presentation"),
        "credentials.accept_ratio": c["accepted"] / c["presentations"] if c["presentations"] else 0.0,
        "credentials.issue.calls": float(len(setup.get("credentials.issue", empty)["dur"])),
        "credentials.issue.us_p50": us_p50("credentials.issue", setup),
        "resolver.resolve.calls_per_hs": calls("resolver.Resolver.resolve"),
        "resolver.resolve.us_p50": us_p50("resolver.Resolver.resolve"),
        "resolver.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "resolver.registry_reads_per_hs": traced.registry_reads / n,
        "resolver.registry_writes": traced.registry_writes,
        "resolver.peer_resolves_per_hs": c["peer_resolves"] / n,
        "wallet.save.ms_p50": us_p50("wallet.Wallet.save", setup) / 1e3,
        "wallet.unlock.ms_p50": us_p50("wallet.Wallet.unlock", setup) / 1e3,
        "wallet.file_bytes": statistics.mean(booted.wallet_bytes.values()),
        "harness.failed_attempts": float(
            sum(1 for r in traced.results if not is_verdict(r.outcome))
        ),
        "harness.drive_handshake.self_ms_per_hs": self_ms("harness.drive_handshake"),
        "trace.overhead_ms_p50": (
            percentile(sorted(r.wall_ns for r in traced.results), 0.5) / 1e6
            - untraced_wall["handshake_ms_p50"]
        ),
        "trace.spans_per_hs": sum(len(e["dur"]) for e in loop.values()) / n,
    }
    for tag, name in MESSAGE_TAGS.items():
        sizes = counters.message_bytes.get(tag, [])
        m[f"handshake.bytes.{name}"] = statistics.mean(sizes) if sizes else 0.0
    for fn in CRYPTO_FUNCTIONS:
        m[f"crypto.{fn}.calls_per_hs"] = calls(f"crypto.{fn}")
        m[f"crypto.{fn}.us_p50"] = us_p50(f"crypto.{fn}")
    for fn in ENCODING_FUNCTIONS:
        m[f"encoding.{fn}.calls_per_hs"] = calls(f"encoding.{fn}")
        m[f"encoding.{fn}.self_ms_per_hs"] = self_ms(f"encoding.{fn}")
    for layer in LAYERS:
        if layer != "wallet":
            m[f"{layer}.self_ms_per_hs"] = layer_self_ms(layer)
    for name, value in untraced_wall.items():
        m[f"untraced.{name}"] = value
    return m


def reconcile(
    workload: str,
    metrics: dict[str, float],
    untraced: PassOutcome,
    traced: PassOutcome,
) -> list[str]:
    """Raise ReconciliationError on the first disagreement; returns what held."""
    n = len(traced.results)
    frames = sum(r.frames for r in traced.results)
    counted = (metrics["transport.data_frames_per_hs"] + metrics["transport.ack_frames_per_hs"]) * n
    if round(counted) != frames:
        raise ReconciliationError(f"traced frames {counted} != link trace frames {frames}")
    held = [f"data + ack frames == link trace frames ({frames})"]
    for name, p in (("traced", traced), ("untraced", untraced)):
        if p.cache_misses != p.registry_reads:
            raise ReconciliationError(
                f"{name}: resolver misses {p.cache_misses} != registry reads {p.registry_reads}"
            )
    held.append(f"resolver misses == registry reads ({traced.registry_reads})")
    if workload == "pair-lora":
        for name, want in (("crypto.verify.calls_per_hs", 4), ("handshake.step.calls_per_hs", 9)):
            if metrics[name] != want:
                raise ReconciliationError(f"{name} is {metrics[name]}, expected {want}")
        held.append("pair-lora: 4 verifies and 9 steps per handshake")
    if [r.simulated() for r in traced.results] != [r.simulated() for r in untraced.results] \
            or traced.writes != untraced.writes:
        raise ReconciliationError("traced and untraced passes differ in simulated results")
    held.append("traced and untraced passes agree on every simulated result")
    return held
