"""Seeded handshake workloads, driven only through tinyssi's public API.

A workload is a fixed schedule of steps: pairings and, on `fleet-ble`,
registry writes. The schedule is a function of the workload seed. Runs
replay it in passes, each from the same booted state, so every simulated
number (ticks, bytes, frames, outcomes) is an exact function of the seed,
however many passes fit in the measured time.

A pairing is one or more handshake attempts. An attempt that reaches no
verdict (the link gave up, or authentication failed on a stale cached
document) is retried the way a device would: after waiting out the resolver
cache window, on a fresh link with fresh randomness, up to MAX_ATTEMPTS
times. Each attempt is one handshake sample; the failed ones stay counted.

Calls into the package go through module attributes (`handshake.initiate`,
not a name imported from it), so the traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from random import Random
from typing import Callable

from tinyssi import (
    credentials, crypto, handshake, harness, identity, resolver, transport, wallet,
)

PASSPHRASE = "bench-passphrase"
SCENARIO_FILE = Path("scenarios") / "owner-two-devices.scn"

# fleet-ble shape: owners x devices each, all registry-method identities.
FLEET_OWNERS = 3
FLEET_DEVICES_PER_OWNER = 4
# Simulated seconds between steps: the 300 s resolver TTL lapses every
# 150 steps, several times in each pass.
FLEET_STEP_SECONDS = 2
FLEET_CROSS_OWNER_SHARE = 0.2
# Every FLEET_WRITE_EVERY-th step is a write, cycling through these (kind,
# actor role) pairs, so each pass holds the same writes; the seed picks actors.
FLEET_WRITE_EVERY = 125
FLEET_WRITE_CYCLE = (
    ("rotate", "device"), ("rotate", "owner"), ("revoke", "device"), ("rotate", "device"),
)

LOSSY_LOSS_CYCLE = (0.1, 0.2, 0.3)
LOSSY_REORDER = 0.1

# Handshake attempts per pairing. An attempt fails with about 5% odds at
# loss 0.3, so a pairing that fails all of them is not expected to occur.
MAX_ATTEMPTS = 8
# Simulated seconds a device waits before it retries: one resolver cache
# window, so a stale cached document has lapsed by the next attempt.
RETRY_WAIT = resolver.DEFAULT_TTL


class WrongVerdict(Exception):
    """A handshake reached a verdict the oracle did not expect."""


def derive_bytes(seed: int, *parts: object) -> bytes:
    """32 bytes derived from the workload seed and a label."""
    text = ":".join(str(p) for p in (seed, *parts)).encode("utf-8")
    return hashlib.sha256(text).digest()


def derive(seed: int, *parts: object) -> int:
    return int.from_bytes(derive_bytes(seed, *parts)[:8], "big")


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile: unchanged when the sample is replayed k times."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def is_verdict(outcome: str) -> bool:
    """True for `trusted` and `untrusted(...)`; False when no verdict was reached."""
    return outcome == "trusted" or outcome.startswith("untrusted")


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Handshake:
    index: int
    initiator: str
    responder: str
    now: int
    loss: float | None = None
    reorder: float | None = None


@dataclass(frozen=True)
class Write:
    index: int
    kind: str  # "rotate" (actor's sign key) | "revoke" (device's credential)
    actor: str
    now: int


@dataclass(frozen=True)
class HandshakeResult:
    """What one handshake attempt cost; everything but `wall_ns` is simulated."""

    wall_ns: int
    attempt: int
    outcome: str
    ticks: int
    air_bytes: int
    frames: int
    ack_frames: int
    ack_bytes: int
    dropped_frames: int
    retransmissions: int
    fragments: tuple[int, ...]

    def simulated(self) -> tuple:
        return (
            self.attempt, self.outcome, self.ticks, self.air_bytes, self.frames, self.ack_frames,
            self.ack_bytes, self.dropped_frames, self.retransmissions, self.fragments,
        )


# ---------------------------------------------------------------------------
# Set-up: deployment, issuance, and every actor booted from its wallet file
# ---------------------------------------------------------------------------

@dataclass
class Booted:
    scenario: harness.Scenario
    configs: dict[str, handshake.SessionConfig]
    wallet_bytes: dict[str, int]


def boot(scenario: harness.Scenario, workdir: Path) -> Booted:
    """Provision every actor, save its wallet, and boot it from the file."""
    deployment = harness.Deployment(scenario)
    configs: dict[str, handshake.SessionConfig] = {}
    sizes: dict[str, int] = {}
    for name, actor in deployment.actors.items():
        path = workdir / f"{name}.wallet"
        actor.wallet.save(path, PASSPHRASE)
        sizes[name] = path.stat().st_size
        unlocked = wallet.Wallet.unlock(path, PASSPHRASE)
        owner = actor.spec.owner
        configs[name] = handshake.SessionConfig.from_wallet(
            unlocked,
            actor.resolver,
            policy=(
                deployment.policy_for(actor, "owner-match")
                if owner else handshake.AlwaysTrust()
            ),
            revocation=deployment.actors[owner].revocation if owner else None,
        )
    return Booted(scenario=scenario, configs=configs, wallet_bytes=sizes)


class PassState:
    """Registry, resolvers and revocation lists as they stand after set-up.

    A fresh deployment of the same scenario rebuilds them; the identities,
    keys and credentials come from the booted wallets.
    """

    def __init__(self, booted: Booted):
        deployment = harness.Deployment(booted.scenario)
        self.registry = deployment.registry
        self.resolvers = {n: a.resolver for n, a in deployment.actors.items()}
        self.revocations = {n: a.revocation for n, a in deployment.actors.items()}
        self.owner_of = {n: a.spec.owner for n, a in deployment.actors.items()}
        self.configs: dict[str, handshake.SessionConfig] = {}
        for name, config in booted.configs.items():
            if deployment.actors[name].did != config.did:
                raise RuntimeError(f"{name}: wallet identity differs from deployment")
            owner = self.owner_of[name]
            self.configs[name] = replace(
                config,
                resolver=self.resolvers[name],
                revocation=self.revocations[owner] if owner else None,
            )
        self.revoked: set[str] = set()

    def expected_verdict(self, a: str, b: str) -> str:
        """The oracle: trusted iff same owner and neither credential revoked."""
        same_owner = self.owner_of[a] == self.owner_of[b]
        if same_owner and a not in self.revoked and b not in self.revoked:
            return "trusted"
        return "untrusted"

    def resolver_counts(self) -> tuple[int, int]:
        hits = sum(r.hit_count for r in self.resolvers.values())
        misses = sum(r.miss_count for r in self.resolvers.values())
        return hits, misses


# ---------------------------------------------------------------------------
# Executing steps
# ---------------------------------------------------------------------------

def run_handshake(
    state: PassState, step: Handshake, profile: str, seed: int, attempt: int = 0
) -> HandshakeResult:
    """One handshake attempt of a pairing, on its own link."""
    link = transport.make_link(
        profile,
        a=step.initiator,
        b=step.responder,
        loss=step.loss,
        reorder=step.reorder,
        seed=derive(seed, "link", step.index, attempt),
    )
    init_cfg = replace(
        state.configs[step.initiator],
        rng=Random(derive(seed, "hs", step.index, attempt, "i")),
    )
    resp_cfg = replace(
        state.configs[step.responder],
        rng=Random(derive(seed, "hs", step.index, attempt, "r")),
    )
    now = step.now + attempt * RETRY_WAIT
    started = time.perf_counter_ns()
    session, hello = handshake.initiate(init_cfg, peer_hint=resp_cfg.did, now=now)
    responder = handshake.respond(resp_cfg, now=now)
    run = harness.drive_handshake(link, session, hello, responder, now)
    wall_ns = time.perf_counter_ns() - started
    outcome = run.outcome()
    if is_verdict(outcome):
        expected = state.expected_verdict(step.initiator, step.responder)
        if not outcome.startswith(expected):
            raise WrongVerdict(
                f"step {step.index} {step.initiator}->{step.responder}: "
                f"got {outcome}, expected {expected}"
            )
    acks = [e for e in link.trace if e.kind == "ack"]
    return HandshakeResult(
        wall_ns=wall_ns,
        attempt=attempt,
        outcome=outcome,
        ticks=link.now,
        air_bytes=link.bytes_on_wire(),
        frames=len(link.trace),
        ack_frames=len(acks),
        ack_bytes=sum(e.length for e in acks),
        dropped_frames=sum(1 for e in link.trace if e.dropped),
        retransmissions=run.retransmissions,
        fragments=tuple(run.fragments_per_message),
    )


def run_write(state: PassState, step: Write, seed: int) -> str:
    """Apply one registry write; returns its outcome."""
    if step.kind == "rotate":
        config = state.configs[step.actor]
        new_key = crypto.keygen(
            crypto.PURPOSE_SIGN, seed=derive_bytes(seed, "rotate", step.index)
        )
        rotated = identity.rotate_key(
            config.document,
            config.sign_key.key_id,
            identity.PublicKeyEntry(new_key.key_id, crypto.PURPOSE_SIGN, new_key.public),
            now=step.now,
        )
        # The outgoing key authorizes the update that retires it.
        state.registry.register(rotated, config.sign_key)
        state.configs[step.actor] = replace(config, document=rotated, sign_key=new_key)
        return "rotated"
    owner = state.owner_of[step.actor]
    credentials.revoke(
        state.revocations[owner],
        state.configs[owner].sign_key,
        state.configs[step.actor].credentials[0].credential.vc_id,
        state.resolvers[owner],
        step.now,
    )
    state.revoked.add(step.actor)
    return "revoked"


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

Step = Handshake | Write


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str
    pass_length: int
    scenario: Callable[[Path, int], harness.Scenario]
    schedule: Callable[[harness.Scenario, int, int], list[Step]]


def _shipped_scenario(root: Path, seed: int) -> harness.Scenario:
    # Identities stay those of the shipped scenario, so the wire numbers are
    # the ROADMAP baseline's; the seed drives session randomness and loss.
    return harness.Scenario.load(str(root / SCENARIO_FILE))


def _pair_schedule(scenario: harness.Scenario, seed: int, length: int) -> list[Step]:
    return [
        Handshake(i, "camera", "lock", harness.EPOCH + i) for i in range(length)
    ]


def _lossy_schedule(scenario: harness.Scenario, seed: int, length: int) -> list[Step]:
    return [
        Handshake(
            i, "camera", "lock", harness.EPOCH + i,
            loss=LOSSY_LOSS_CYCLE[i % len(LOSSY_LOSS_CYCLE)], reorder=LOSSY_REORDER,
        )
        for i in range(length)
    ]


def fleet_scenario(root: Path, seed: int) -> harness.Scenario:
    actors = []
    credentials_ = []
    for o in range(FLEET_OWNERS):
        owner = f"owner{o}"
        actors.append(harness.ScenarioActor(owner, "owner", identity.METHOD_REG))
        for d in range(FLEET_DEVICES_PER_OWNER):
            device = f"dev{o}-{d}"
            actors.append(
                harness.ScenarioActor(device, "device", identity.METHOD_REG, owner=owner)
            )
            credentials_.append(
                harness.ScenarioCredential(
                    issuer=owner,
                    subject=device,
                    claims={"owner": f"@{owner}", "type": "Sensor"},
                    validity=30 * 24 * 3600,
                )
            )
    return harness.Scenario(
        actors=actors, credentials=credentials_, seed=derive(seed, "fleet"),
        name="fleet-ble",
    )


def _fleet_schedule(scenario: harness.Scenario, seed: int, length: int) -> list[Step]:
    rng = Random(derive(seed, "fleet-schedule"))
    by_role = {
        role: [a.name for a in scenario.actors if a.role == role]
        for role in ("owner", "device")
    }
    owners = by_role["owner"]
    devices_of = {o: [a.name for a in scenario.actors if a.owner == o] for o in owners}
    steps: list[Step] = []
    for i in range(length):
        now = harness.EPOCH + i * FLEET_STEP_SECONDS
        if i % FLEET_WRITE_EVERY == FLEET_WRITE_EVERY - 1:
            kind, role = FLEET_WRITE_CYCLE[i // FLEET_WRITE_EVERY % len(FLEET_WRITE_CYCLE)]
            steps.append(Write(i, kind, rng.choice(by_role[role]), now))
        else:
            owner = rng.choice(owners)
            a = rng.choice(devices_of[owner])
            if rng.random() < FLEET_CROSS_OWNER_SHARE:
                other = rng.choice([o for o in owners if o != owner])
                b = rng.choice(devices_of[other])
            else:
                b = rng.choice([d for d in devices_of[owner] if d != a])
            steps.append(Handshake(i, a, b, now))
    return steps


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pair-lora", "lora", 1000, _shipped_scenario, _pair_schedule),
        # 4000 so that ticks_p99 rests on 40 samples beyond it.
        Workload("lossy-lora", "lora", 4000, _shipped_scenario, _lossy_schedule),
        Workload("fleet-ble", "ble", 1100, fleet_scenario, _fleet_schedule),
    )
}


@dataclass
class PassOutcome:
    results: list[HandshakeResult]  # every handshake attempt
    pairings: int
    unpaired: int  # pairings whose every attempt reached no verdict
    writes: list[str]
    loop_ns: int
    cache_hits: int
    cache_misses: int
    registry_reads: int
    registry_writes: int


def run_pass(
    booted: Booted, workload: Workload, steps: list[Step], seed: int,
    on_step: Callable[[int], None] = lambda index: None,
    deadline: float | None = None,
) -> PassOutcome:
    """Replay the schedule once from the booted state.

    With a `deadline` (a time.perf_counter() value) the pass stops before
    the first step that would start after it, so it may cover a prefix only.

    `on_step(k)` is called before the k-th handshake attempt of the pass, and with -1
    before each write and after the last step; the traced run uses it to tag
    spans with their handshake.
    """
    state = PassState(booted)
    reads0, writes0 = state.registry.read_count, state.registry.write_count
    results: list[HandshakeResult] = []
    writes: list[str] = []
    pairings = unpaired = 0
    started = time.perf_counter_ns()
    for step in steps:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if isinstance(step, Handshake):
            pairings += 1
            for attempt in range(MAX_ATTEMPTS):
                on_step(len(results))
                results.append(run_handshake(state, step, workload.profile, seed, attempt))
                if is_verdict(results[-1].outcome):
                    break
            else:
                unpaired += 1
        else:
            on_step(-1)
            writes.append(run_write(state, step, seed))
    loop_ns = time.perf_counter_ns() - started
    on_step(-1)
    hits, misses = state.resolver_counts()
    return PassOutcome(
        results=results,
        pairings=pairings,
        unpaired=unpaired,
        writes=writes,
        loop_ns=loop_ns,
        cache_hits=hits,
        cache_misses=misses,
        registry_reads=state.registry.read_count - reads0,
        registry_writes=state.registry.write_count - writes0,
    )
