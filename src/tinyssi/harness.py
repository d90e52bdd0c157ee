"""Scenario runner: provisions owners and devices, drives handshakes over
simulated links, and reports sizes, frames, and outcomes.

Scenario files are structured text. Every step carries an `expect` field, so
scenarios double as self-checking fixtures; expectations match outcomes by
prefix ("untrusted" matches "untrusted(owner mismatch)"). Runs are
deterministic under the scenario seed: keys, salts, nonces, and link noise
all derive from it.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from random import Random
from typing import Any

from . import crypto
from .credentials import Claim, CredentialError, RevocationRegistry, check_claims, issue, revoke
from .encoding import EncodingError, decode, from_canonical
from .handshake import (
    _CHANNEL_STATES,
    AlwaysTrust,
    HandshakeSession,
    OwnerMatch,
    RequireClaim,
    SessionConfig,
    State,
    TrustPolicy,
    initiate,
    respond,
    split_leg,
)
from .identity import (
    Did, DidError, METHOD_PEER, METHOD_REG, ServiceEndpoint, format_did, parse_did,
)
from .resolver import Registry, ResolutionError, Resolver
from .transport import Messenger, PROFILES, make_link
from .wallet import Wallet

EPOCH = 1_700_000_000
MAX_LEGS = 64


class ScenarioError(Exception):
    """Scenario failed validation before execution."""


# ---------------------------------------------------------------------------
# Scenario model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioActor:
    name: str
    role: str                         # "owner" | "device"
    did_method: str = METHOD_PEER     # "peer" | "reg"
    owner: str | None = None          # actor reference


@dataclass(frozen=True)
class ScenarioCredential:
    issuer: str
    subject: str
    claims: dict[str, str]
    validity: int = 30 * 24 * 3600


@dataclass(frozen=True)
class ScenarioLink:
    a: str
    b: str
    profile: str = "lossless"
    loss: float | None = None
    reorder: float | None = None


@dataclass(frozen=True)
class HandshakeStep:
    initiator: str
    responder: str
    link: int = 0
    policy: str | RequireClaim = "owner-match"   # or "always-trust"


@dataclass(frozen=True)
class ResolveStep:
    actor: str
    target: str                       # a DID, or "@actor"


@dataclass(frozen=True)
class RevokeStep:
    issuer: str
    credential: int                   # index into Scenario.credentials


@dataclass(frozen=True)
class RotateStep:
    actor: str


_STEP_PARAMS = {
    "handshake": HandshakeStep, "resolve": ResolveStep, "revoke": RevokeStep,
    "rotate": RotateStep,
}


@dataclass(frozen=True)
class ScenarioStep:
    action: str
    params: HandshakeStep | ResolveStep | RevokeStep | RotateStep | None  # None: unknown action
    expect: str | None = None


def _filled(cls: type, raw: Any) -> Any:
    """A scenario record's mapping, with the dataclass defaults of the fields it omits."""
    if not isinstance(raw, dict):
        return raw
    return {**{f.name: f.default for f in fields(cls) if f.default is not MISSING}, **raw}


def _read_step(raw: Any) -> ScenarioStep:
    """A step is one flat mapping: action, optional expect, and the action's fields."""
    raw = decode(dict[str, Any], raw)
    action = decode(str, raw.get("action"))
    kind = _STEP_PARAMS.get(action)
    params = {k: v for k, v in raw.items() if k not in ("action", "expect")}
    return ScenarioStep(
        action, decode(kind, _filled(kind, params)) if kind else None,
        decode(str | None, raw.get("expect")),
    )


@dataclass
class Scenario:
    actors: list[ScenarioActor]
    credentials: list[ScenarioCredential] = field(default_factory=list)
    links: list[ScenarioLink] = field(default_factory=list)
    steps: list[ScenarioStep] = field(default_factory=list)
    seed: int = 0
    name: str = "scenario"

    @classmethod
    def from_mapping(cls, mapping: Any) -> "Scenario":
        """Read a scenario; every field that has a default may be left out."""
        try:
            mapping = _filled(cls, decode(dict[str, Any], mapping))
            for name, part in (
                ("actors", ScenarioActor), ("credentials", ScenarioCredential),
                ("links", ScenarioLink),
            ):
                mapping[name] = [_filled(part, x) for x in decode(list[Any], mapping.get(name, []))]
            steps = decode(list[Any], mapping.pop("steps", []))
            scenario = decode(cls, dict(mapping, steps=[]))
            scenario.steps = [_read_step(step) for step in steps]
        except EncodingError as exc:
            raise ScenarioError(f"malformed scenario: {exc}") from exc
        return scenario

    @classmethod
    def load(cls, path: str) -> "Scenario":
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            return cls.from_mapping(from_canonical(raw))
        except EncodingError as exc:
            raise ScenarioError(f"cannot parse scenario file: {exc}") from exc

    def validate(self) -> list[str]:
        problems: list[str] = []
        names = [a.name for a in self.actors]
        if len(names) != len(set(names)):
            problems.append("duplicate actor names")
        known = set(names)
        for actor in self.actors:
            if actor.role not in ("owner", "device"):
                problems.append(f"actor {actor.name!r}: unknown role {actor.role!r}")
            if actor.did_method not in (METHOD_PEER, METHOD_REG):
                problems.append(
                    f"actor {actor.name!r}: unknown did method {actor.did_method!r}"
                )
            if actor.owner is not None and actor.owner not in known:
                problems.append(f"actor {actor.name!r}: unknown owner {actor.owner!r}")
        for i, cred in enumerate(self.credentials):
            for ref in (cred.issuer, cred.subject):
                if ref not in known:
                    problems.append(f"credential {i}: unknown actor {ref!r}")
            if cred.validity <= 0:
                problems.append(f"credential {i}: validity must be positive")
            try:
                check_claims([Claim(name, value) for name, value in cred.claims.items()])
            except CredentialError as exc:
                problems.append(f"credential {i}: {exc}")
            for value in cred.claims.values():
                if _dangling(value, known):
                    problems.append(f"credential {i}: unknown actor reference {value!r}")
        for i, link in enumerate(self.links):
            for ref in (link.a, link.b):
                if ref not in known:
                    problems.append(f"link {i}: unknown actor {ref!r}")
            if link.a == link.b:
                problems.append(f"link {i} joins {link.a!r} to itself")
            if link.profile not in PROFILES:
                problems.append(f"link {i}: unknown profile {link.profile!r}")
            for name, value in (("loss", link.loss), ("reorder", link.reorder)):
                if value is not None and not 0 <= value <= 1:
                    problems.append(f"link {i}: {name} {value} is not in [0, 1]")
        for i, step in enumerate(self.steps):
            problems.extend(self._validate_step(i, step.action, step.params, known))
        return problems

    def _validate_step(self, i: int, action: str, p: Any, known: set[str]) -> list[str]:
        actors = {a.name: a for a in self.actors}
        refs = [getattr(p, key) for key in ("initiator", "responder", "actor", "issuer")
                if hasattr(p, key)]
        problems = [f"step {i}: unknown actor {ref!r}" for ref in refs if ref not in known]
        if isinstance(p, HandshakeStep):
            if not 0 <= p.link < len(self.links):
                problems.append(f"step {i}: link index {p.link} out of range")
            elif {p.initiator, p.responder} != {self.links[p.link].a, self.links[p.link].b}:
                problems.append(
                    f"step {i}: link {p.link} does not join "
                    f"{p.initiator!r} and {p.responder!r}"
                )
            if isinstance(p.policy, RequireClaim):
                if _dangling(p.policy.value, known):
                    problems.append(f"step {i}: unknown actor reference {p.policy.value!r}")
            elif p.policy == "owner-match":
                for ref in refs:
                    if ref in actors and actors[ref].owner is None:
                        problems.append(f"step {i}: {ref!r} has no owner for owner-match")
            elif p.policy != "always-trust":
                problems.append(f"step {i}: unknown policy {p.policy!r}")
        elif isinstance(p, ResolveStep):
            if _dangling(p.target, known):
                problems.append(f"step {i}: unknown target {p.target!r}")
            elif not p.target.startswith("@"):
                try:
                    parse_did(p.target)
                except DidError as exc:
                    problems.append(f"step {i}: target is not a DID: {exc}")
        elif isinstance(p, RevokeStep):
            if not 0 <= p.credential < len(self.credentials):
                problems.append(f"step {i}: credential index {p.credential} out of range")
            elif self.credentials[p.credential].issuer != p.issuer:
                problems.append(
                    f"step {i}: credential {p.credential} was not issued by {p.issuer!r}"
                )
        elif isinstance(p, RotateStep):
            if p.actor in actors and actors[p.actor].did_method == METHOD_PEER:
                problems.append(f"step {i}: {p.actor!r} is a peer identity, which cannot rotate")
        else:
            problems.append(f"step {i}: unknown action {action!r}")
        return problems


def _dangling(value: str, known: set[str]) -> bool:
    """`value` refers to an actor ("@name") that the scenario does not have."""
    return value.startswith("@") and value[1:] not in known


# ---------------------------------------------------------------------------
# Provisioning
# ---------------------------------------------------------------------------

def _seed_bytes(*parts: Any) -> bytes:
    return crypto.digest(":".join(str(p) for p in parts).encode("utf-8"))


def _seed_int(*parts: Any) -> int:
    return int.from_bytes(_seed_bytes(*parts)[:8], "big")


@dataclass
class ProvisionedActor:
    spec: ScenarioActor
    wallet: Wallet
    resolver: Resolver
    revocation: RevocationRegistry

    @property
    def did(self) -> Did:
        """The DID of the identity the wallet was provisioned with."""
        return self.wallet.owner_did


class Deployment:
    """All actors provisioned and able to reach each other's documents."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.registry = Registry()
        self.actors: dict[str, ProvisionedActor] = {}
        self.issued_ids: list[str] = []
        self.now = EPOCH
        for actor in scenario.actors:
            self.actors[actor.name] = self._provision(actor)
        self._distribute_documents()
        for cred in scenario.credentials:
            self._issue(cred)

    def _provision(self, actor: ScenarioActor) -> ProvisionedActor:
        seed = self.scenario.seed
        wallet = Wallet()
        document = wallet.create_identity(
            crypto.keygen(crypto.PURPOSE_SIGN, seed=_seed_bytes(seed, actor.name, "sign")),
            crypto.keygen(crypto.PURPOSE_AGREE, seed=_seed_bytes(seed, actor.name, "agree")),
            actor.did_method,
            (ServiceEndpoint("ep-1", "sim-link", f"sim-link://{actor.name}"),),
            self.registry,
        )
        return ProvisionedActor(
            spec=actor,
            wallet=wallet,
            resolver=Resolver(self.registry),
            revocation=RevocationRegistry(document.id),
        )

    def _distribute_documents(self) -> None:
        # Desk-scale bootstrap: peer documents are handed around directly.
        for holder in self.actors.values():
            for other in self.actors.values():
                if other.did.method == METHOD_PEER:
                    holder.resolver.store_peer(other.did, other.wallet.current_document)

    def _expand(self, value: str) -> str:
        if value.startswith("@"):
            return format_did(self.actors[value[1:]].did)
        return value

    def _issue(self, cred: ScenarioCredential) -> None:
        issuer = self.actors[cred.issuer]
        subject = self.actors[cred.subject]
        claims = [Claim(name, self._expand(value)) for name, value in cred.claims.items()]
        rng = Random(_seed_int(self.scenario.seed, "issue", len(self.issued_ids)))
        vc, openings = issue(
            issuer.wallet.current_sign_key(), issuer.did, subject.did, claims, cred.validity,
            now=self.now, rng=rng,
        )
        subject.wallet.put_credential(vc, openings)
        self.issued_ids.append(vc.vc_id)

    def policy_for(self, actor: ProvisionedActor, policy_spec: str | RequireClaim) -> TrustPolicy:
        if isinstance(policy_spec, RequireClaim):
            return replace(policy_spec, value=self._expand(policy_spec.value))
        if policy_spec == "always-trust":
            return AlwaysTrust()
        if policy_spec == "owner-match":
            assert actor.spec.owner is not None
            return OwnerMatch(my_owner=self.actors[actor.spec.owner].did)
        raise ScenarioError(f"unknown policy {policy_spec!r}")

    def session_config(
        self, actor: ProvisionedActor, policy: TrustPolicy, rng: Random
    ) -> SessionConfig:
        revocation = None
        if isinstance(policy, OwnerMatch):
            owner = next(
                (a for a in self.actors.values() if a.did == policy.my_owner), None
            )
            revocation = owner.revocation if owner else None
        return SessionConfig.from_wallet(
            actor.wallet, actor.resolver, policy=policy, revocation=revocation, rng=rng
        )


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass
class StepMetrics:
    action: str
    outcome: str
    expect: str | None = None
    matched: bool = True
    bytes_sent: int = 0
    frames: int = 0
    fragments_per_message: list[int] = field(default_factory=list)
    round_trips: int = 0
    retransmissions: int = 0
    ticks: int = 0  # simulated time the step's link ran, in ticks
    trace: list[str] = field(default_factory=list)  # the link's frame trace; not in the report


@dataclass
class MetricsReport:
    scenario: str
    seed: int
    ddo_bytes: dict[str, int]
    vc_bytes: list[int]
    steps: list[StepMetrics] = field(default_factory=list)

    def all_matched(self) -> bool:
        return all(s.matched for s in self.steps)

    def to_mapping(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "document_sizes": {"ddo_bytes": self.ddo_bytes, "vc_bytes": self.vc_bytes},
            "steps": [
                {k: v for k, v in asdict(s).items() if k != "trace"} for s in self.steps
            ],
        }

    def to_json_bytes(self) -> bytes:
        return (json.dumps(self.to_mapping(), sort_keys=True, indent=2) + "\n").encode()

    def summary_lines(self) -> list[str]:
        lines = [f"scenario {self.scenario} (seed {self.seed})"]
        for name, size in sorted(self.ddo_bytes.items()):
            lines.append(f"  ddo {name}: {size} bytes")
        for i, size in enumerate(self.vc_bytes):
            lines.append(f"  vc {i}: {size} bytes")
        header = (
            f"  {'step':<12} {'outcome':<28} {'bytes':>7} {'frames':>7} "
            f"{'rts':>4} {'retx':>5} {'ticks':>5} match"
        )
        lines.append(header)
        for s in self.steps:
            lines.append(
                f"  {s.action:<12} {s.outcome:<28} {s.bytes_sent:>7} {s.frames:>7} "
                f"{s.round_trips:>4} {s.retransmissions:>5} {s.ticks:>5} "
                f"{'yes' if s.matched else 'NO'}"
            )
        return lines

    def trace_lines(self) -> list[str]:
        """Each handshake step's frame trace, one line per frame, under a `# step i` line."""
        lines = []
        for index, step in enumerate(self.steps):
            if step.action == "handshake":
                lines.append(f"# step {index}")
                lines.extend(step.trace)
        return lines


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

@dataclass
class HandshakeRun:
    """Everything observable from driving one handshake over one link."""

    initiator: HandshakeSession
    responder: HandshakeSession
    legs_to_secure: int | None = None
    legs_to_terminal: int | None = None
    fragments_per_message: list[int] = field(default_factory=list)  # one per leg
    retransmissions: int = 0
    delivery_failed: bool = False

    def outcome(self) -> str:
        """The pairing's verdict once both sessions are complete, even when a
        send gave up after that, such as an unflagged last leg whose ACK never
        came; else delivery-failed if a send gave up."""
        if self.delivery_failed and not (self.initiator.complete and self.responder.complete):
            return "delivery-failed"
        for session in (self.initiator, self.responder):
            if session.state == State.FAILED:
                reason = session.failure_reason or "unknown"
                if reason.startswith("peer"):
                    continue
                return f"failed({reason})"
        if self.initiator.state == State.FAILED or self.responder.state == State.FAILED:
            return "failed(peer)"
        if self.initiator.state == self.responder.state == State.TRUSTED:
            return "trusted"
        for session in (self.initiator, self.responder):
            if session.state == State.UNTRUSTED:
                return f"untrusted({session.my_verdict.reason or 'policy'})"
        return f"stalled({self.initiator.state.value}/{self.responder.state.value})"

    @property
    def legs(self) -> int:
        return len(self.fragments_per_message)

    def round_trips_to_secure(self) -> int | None:
        return _round_trips(self.legs_to_secure)

    def round_trips_to_terminal(self) -> int | None:
        return _round_trips(self.legs_to_terminal)


def _round_trips(legs: int | None) -> int | None:
    """The round trips `legs` one-way legs take, a last lone leg counting as one."""
    return None if legs is None else (legs + 1) // 2


_TERMINAL = frozenset({State.TRUSTED, State.UNTRUSTED, State.FAILED})


def drive_handshake(
    link, initiator: HandshakeSession, first_message: bytes,
    responder: HandshakeSession, now: int, intercept=None,
) -> HandshakeRun:
    """Run the handshake over the link, each session answering a leg in the tick it arrives.

    A leg is the messages one session's step()s just produced. It travels as
    one transport message, those messages back to back, sent once its
    endpoint has nothing in flight, and sent last when the session is
    complete, so the leg that ends a pairing draws no ACK. So a leg of m
    messages costs one round trip, not m; it may need fewer fragments than m
    sends would, since only its last fragment is partly filled. Then the link
    ticks, and each session steps, in order, the messages of each leg
    delivered to it (handshake.split_leg); their replies form its next leg,
    which carries the ACK of what it answers. A leg that does not split is
    acknowledged, as every delivered message is, and dropped whole: no
    message of it is stepped. The run ends when nothing is in flight and no
    leg waits to be sent, or when a send gives up; the ACKs its last tick
    made due still go out, alone.
    `intercept(receiver_role, message) -> message` models an on-path attacker:
    it may rewrite any message after reassembly, before the receiver steps it.
    """
    a, b = link.endpoints
    messengers = {a: Messenger(link, a), b: Messenger(link, b)}
    sessions = {a: initiator, b: responder}
    outboxes: dict[str, list[bytes]] = {a: [first_message], b: []}
    run = HandshakeRun(initiator=initiator, responder=responder)
    first_entry = len(link.trace)
    while True:
        for name, messenger in messengers.items():
            if outboxes[name] and messenger.idle and run.legs < MAX_LEGS:
                run.fragments_per_message.append(
                    messenger.send(b"".join(outboxes[name]), last=sessions[name].complete)
                )
                outboxes[name] = []
        if all(m.idle for m in messengers.values()):
            break
        link.tick()
        if any(m.failure for m in messengers.values()):
            run.delivery_failed = True
            break
        for name, messenger in messengers.items():
            while (leg := messenger.receive()) is not None:
                for received in split_leg(leg) or []:
                    if intercept is not None:
                        received = intercept(sessions[name].role, received)
                    outboxes[name].extend(sessions[name].step(received, now))
        if run.legs_to_secure is None and all(
            s.state in _CHANNEL_STATES for s in sessions.values()
        ):
            run.legs_to_secure = run.legs
        if run.legs_to_terminal is None and all(
            s.state in _TERMINAL for s in sessions.values()
        ):
            run.legs_to_terminal = run.legs
    for messenger in messengers.values():
        messenger.send_acks()
    # Every data frame on the trace beyond each leg's first copy of its fragments.
    data_frames = sum(e.kind == "data" for e in link.trace[first_entry:])
    run.retransmissions = data_frames - sum(run.fragments_per_message)
    return run


class ScenarioRunner:
    def __init__(self, scenario: Scenario):
        problems = scenario.validate()
        if problems:
            raise ScenarioError("; ".join(problems))
        self.scenario = scenario
        self.deployment = Deployment(scenario)

    def run(self) -> MetricsReport:
        deployment = self.deployment
        report = MetricsReport(
            scenario=self.scenario.name,
            seed=self.scenario.seed,
            ddo_bytes={
                name: len(actor.wallet.current_document.to_bytes())
                for name, actor in deployment.actors.items()
            },
            vc_bytes=[
                len(deployment.actors[c.subject].wallet
                    .get_credential(vc_id).credential.to_bytes())
                for c, vc_id in zip(self.scenario.credentials, deployment.issued_ids)
            ],
        )
        for index, step in enumerate(self.scenario.steps):
            report.steps.append(self._run_step(index, step))
        return report

    def _run_step(self, index: int, step: ScenarioStep) -> StepMetrics:
        runner = {
            HandshakeStep: self._run_handshake, ResolveStep: self._run_resolve,
            RevokeStep: self._run_revoke, RotateStep: self._run_rotate,
        }[type(step.params)]
        metrics = runner(index, step.params)
        metrics.expect = step.expect
        metrics.matched = step.expect is None or metrics.outcome.startswith(step.expect)
        return metrics

    def _run_handshake(self, index: int, p: HandshakeStep) -> StepMetrics:
        deployment = self.deployment
        init_actor = deployment.actors[p.initiator]
        resp_actor = deployment.actors[p.responder]
        link_spec = self.scenario.links[p.link]
        link = make_link(
            link_spec.profile,
            a=init_actor.spec.name,
            b=resp_actor.spec.name,
            loss=link_spec.loss,
            reorder=link_spec.reorder,
            seed=_seed_int(self.scenario.seed, "link", index),
        )
        init_cfg = deployment.session_config(
            init_actor,
            deployment.policy_for(init_actor, p.policy),
            Random(_seed_int(self.scenario.seed, "hs", index, "i")),
        )
        resp_cfg = deployment.session_config(
            resp_actor,
            deployment.policy_for(resp_actor, p.policy),
            Random(_seed_int(self.scenario.seed, "hs", index, "r")),
        )
        now = deployment.now + index
        session, hello = initiate(init_cfg, peer_hint=resp_actor.did, now=now)
        responder = respond(resp_cfg, now=now)
        run = drive_handshake(link, session, hello, responder, now)
        rts = run.round_trips_to_terminal() or run.round_trips_to_secure() or 0
        return StepMetrics(
            action="handshake",
            outcome=run.outcome(),
            bytes_sent=link.bytes_on_wire(),
            frames=len(link.trace),
            fragments_per_message=run.fragments_per_message,
            round_trips=rts,
            retransmissions=run.retransmissions,
            ticks=link.now,
            trace=link.trace_lines(),
        )

    def _run_resolve(self, index: int, p: ResolveStep) -> StepMetrics:
        deployment = self.deployment
        actor = deployment.actors[p.actor]
        if p.target.startswith("@"):
            did = deployment.actors[p.target[1:]].did
        else:
            did = parse_did(p.target)
        try:
            actor.resolver.resolve(did, deployment.now + index)
            outcome = "resolved"
        except ResolutionError as exc:
            outcome = f"unresolved({type(exc).__name__})"
        return StepMetrics("resolve", outcome)

    def _run_revoke(self, index: int, p: RevokeStep) -> StepMetrics:
        deployment = self.deployment
        issuer = deployment.actors[p.issuer]
        revoke(
            issuer.revocation, issuer.wallet.current_sign_key(),
            deployment.issued_ids[p.credential], issuer.resolver, deployment.now + index,
        )
        return StepMetrics("revoke", "revoked")

    def _run_rotate(self, index: int, p: RotateStep) -> StepMetrics:
        deployment = self.deployment
        actor = deployment.actors[p.actor]
        new_key = crypto.keygen(
            crypto.PURPOSE_SIGN,
            seed=_seed_bytes(self.scenario.seed, actor.spec.name, "rotate", index),
        )
        actor.wallet.rotate_sign_key(new_key, deployment.now + index, deployment.registry)
        return StepMetrics("rotate", "rotated")


def run_scenario(scenario: Scenario) -> MetricsReport:
    return ScenarioRunner(scenario).run()
