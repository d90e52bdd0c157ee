"""Command-line interface.

Exit codes: 0 ok, 2 validation problem, 3 verification failure, 4 transport
failure, 5 stdout closed before the output was written. Failures print a
machine-readable error object to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import crypto, wallet as wallet_mod
from .credentials import (
    Claim,
    ClaimOpening,
    CredentialError,
    Presentation,
    RevocationRegistry,
    VerifiableCredential,
    issue,
    present,
    revoke,
    verify_credential,
    verify_presentation,
)
from .encoding import EncodingError, canonical_bytes, decode, encode, from_canonical, from_hex
from .harness import Scenario, ScenarioError, run_scenario
from .identity import (
    Did,
    DidDocument,
    DidError,
    METHOD_PEER,
    METHOD_REG,
    ServiceEndpoint,
    _scheme,
    format_did,
    parse_did,
)
from .resolver import Registry, RegistryError, ResolutionError, Resolver
from .transport import PROFILES, TransportError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERIFICATION = 3
EXIT_TRANSPORT = 4
EXIT_OUTPUT_CLOSED = 5


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _fail(code: int, reason: str) -> int:
    _emit({"error": {"code": code, "reason": reason}})
    return code


def _now() -> int:
    return int(time.time())


def _build_resolver(args) -> Resolver:
    """A resolver over the --registry file, if one is named; a missing file raises
    OSError (only `did create` may start a registry)."""
    path = getattr(args, "registry", None)
    resolver = Resolver(Registry.load(path) if path else Registry())
    for doc_path in getattr(args, "peer_doc", None) or []:
        doc = DidDocument.from_bytes(Path(doc_path).read_bytes())
        resolver.store_peer(doc.id, doc)
    return resolver


@dataclass(frozen=True)
class OpeningsFile:
    """An openings file: a credential's id and the holder's openings of its claims."""

    vc_id: str
    openings: tuple[ClaimOpening, ...]


def _issuer_revocations(path: str | None, issuer: Did) -> RevocationRegistry | None:
    """The --revoked list for a credential of `issuer`, if one is named.

    A list revokes only what its owner issued, so a list kept by anyone else
    could never revoke this credential: it is refused, like a missing file
    (which raises OSError, never reads as empty).
    """
    if not path:
        return None
    registry = RevocationRegistry.from_bytes(Path(path).read_bytes())
    if registry.owner != issuer:
        raise CredentialError(
            f"revocation list {path} is kept by {registry.owner}, not by the issuer {issuer}"
        )
    return registry


def _unlock(args) -> wallet_mod.Wallet:
    return wallet_mod.Wallet.unlock(args.wallet, args.passphrase)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_keygen(args) -> int:
    seed = from_hex(args.seed) if args.seed else None
    _emit(encode(crypto.keygen(args.purpose, seed=seed)))
    return EXIT_OK


def cmd_did_create(args) -> int:
    endpoints = ()
    if args.endpoint:
        scheme = _scheme(args.endpoint)
        if not scheme:
            reason = f"endpoint {args.endpoint!r} has no URI scheme to be its type"
            return _fail(EXIT_VALIDATION, reason)
        endpoints = (ServiceEndpoint("ep-1", scheme, args.endpoint),)
    w = _unlock(args)
    registry = None
    if args.method == METHOD_REG:
        if not args.registry:
            return _fail(EXIT_VALIDATION, "reg method needs --registry")
        registry = Registry.load(args.registry) if Path(args.registry).exists() else Registry()
    try:
        doc = w.create_identity(
            crypto.keygen(crypto.PURPOSE_SIGN), crypto.keygen(crypto.PURPOSE_AGREE),
            args.method, endpoints, registry,
        )
    except (RegistryError, wallet_mod.WalletError) as exc:
        return _fail(EXIT_VALIDATION, str(exc))
    if registry is not None:
        registry.save(args.registry)
    w.save(args.wallet, args.passphrase)
    _emit({"did": format_did(doc.id), "document_bytes": len(doc.to_bytes())})
    return EXIT_OK


def cmd_did_resolve(args) -> int:
    did = parse_did(args.did)
    resolver = _build_resolver(args)
    try:
        doc = resolver.resolve(did, _now())
    except ResolutionError as exc:
        return _fail(EXIT_VERIFICATION, str(exc))
    print(doc.to_bytes().decode("utf-8"))
    return EXIT_OK


def cmd_ddoc_show(args) -> int:
    w = _unlock(args)
    doc = w.current_document
    if doc is None:
        return _fail(EXIT_VALIDATION, "wallet holds no document")
    print(doc.to_bytes().decode("utf-8"))
    return EXIT_OK


def cmd_ddoc_rotate_key(args) -> int:
    w = _unlock(args)
    if w.owner_did is None:
        return _fail(EXIT_VALIDATION, "wallet holds no document")
    registry = None
    if w.owner_did.method == METHOD_REG:
        if not args.registry:
            return _fail(EXIT_VALIDATION, "reg method needs --registry")
        registry = Registry.load(args.registry)
    try:
        rotated = w.rotate_sign_key(crypto.keygen(crypto.PURPOSE_SIGN), _now(), registry)
    except (RegistryError, wallet_mod.WalletError) as exc:
        return _fail(EXIT_VALIDATION, str(exc))
    if registry is not None:
        registry.save(args.registry)
    w.save(args.wallet, args.passphrase)
    print(rotated.to_bytes().decode("utf-8"))
    return EXIT_OK


def _parse_claims(pairs: list[str]) -> list[Claim]:
    claims = []
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise CredentialError(f"claims look like name=value, got {pair!r}")
        claims.append(Claim(name=name, value=value))
    return claims


def cmd_vc_issue(args) -> int:
    w = _unlock(args)
    sign_key = w.current_sign_key()
    if sign_key is None:
        return _fail(EXIT_VALIDATION, "issuer wallet holds no identity with a current signing key")
    vc, openings = issue(
        sign_key,
        w.owner_did,
        parse_did(args.subject),
        _parse_claims(args.claim),
        validity=args.validity_days * 24 * 3600,
        now=_now(),
    )
    Path(args.out).write_bytes(vc.to_bytes())
    Path(args.openings_out).write_bytes(canonical_bytes(encode(OpeningsFile(vc.vc_id, openings))))
    _emit({"vc_id": vc.vc_id, "credential_bytes": len(vc.to_bytes())})
    return EXIT_OK


def cmd_vc_verify(args) -> int:
    try:
        vc = VerifiableCredential.from_bytes(Path(args.vc).read_bytes())
    except CredentialError as exc:
        return _fail(EXIT_VERIFICATION, f"signature: {exc}")
    revocations = _issuer_revocations(args.revoked, vc.issuer)
    verdict = verify_credential(vc, _build_resolver(args), revocations, _now())
    if not verdict:
        return _fail(EXIT_VERIFICATION, verdict.reason or "invalid")
    _emit({"verdict": "valid", "vc_id": vc.vc_id})
    return EXIT_OK


def cmd_vc_present(args) -> int:
    try:
        stored = decode(OpeningsFile, from_canonical(Path(args.openings).read_bytes()))
    except EncodingError as exc:
        return _fail(
            EXIT_VALIDATION, f'openings file must hold a "vc_id" and an "openings" list: {exc}'
        )
    vc = VerifiableCredential.from_bytes(Path(args.vc).read_bytes())
    if stored.vc_id != vc.vc_id:
        return _fail(EXIT_VALIDATION, f"openings file is for {stored.vc_id}, not {vc.vc_id}")
    presentation = present(vc, stored.openings, args.disclose.split(","))
    Path(args.out).write_bytes(presentation.to_bytes())
    _emit(
        {
            "vc_id": vc.vc_id,
            "disclosed": [o.name for o in presentation.disclosed],
            "presentation_bytes": len(presentation.to_bytes()),
        }
    )
    return EXIT_OK


def cmd_vc_verify_presentation(args) -> int:
    try:
        presentation = Presentation.from_bytes(Path(args.presentation).read_bytes())
    except CredentialError as exc:
        return _fail(EXIT_VERIFICATION, f"signature: {exc}")
    revocations = _issuer_revocations(args.revoked, presentation.credential.issuer)
    verdict = verify_presentation(presentation, _build_resolver(args), revocations, _now())
    if not verdict:
        return _fail(EXIT_VERIFICATION, verdict.reason or "invalid")
    _emit(
        {
            "verdict": "valid",
            "disclosed": {o.name: o.value for o in presentation.disclosed},
        }
    )
    return EXIT_OK


def cmd_vc_revoke(args) -> int:
    w = _unlock(args)
    sign_key = w.current_sign_key()
    if sign_key is None:
        return _fail(EXIT_VALIDATION, "issuer wallet holds no identity with a current signing key")
    if Path(args.revoked).exists():
        registry = RevocationRegistry.from_bytes(Path(args.revoked).read_bytes())
    else:
        registry = RevocationRegistry(w.owner_did)
    resolver = _build_resolver(args)
    if w.owner_did.method == METHOD_PEER:
        resolver.store_peer(w.owner_did, w.current_document)
    try:
        revoke(registry, sign_key, args.vc_id, resolver, _now())
    except CredentialError as exc:
        return _fail(EXIT_VERIFICATION, str(exc))
    Path(args.revoked).write_bytes(registry.to_bytes())
    _emit({"revoked": args.vc_id})
    return EXIT_OK


def cmd_wallet_create(args) -> int:
    if Path(args.wallet).exists():
        return _fail(EXIT_VALIDATION, f"{args.wallet} already exists")
    wallet_mod.create(args.wallet, args.passphrase)
    _emit({"wallet": args.wallet})
    return EXIT_OK


def cmd_wallet_unlock(args) -> int:
    w = _unlock(args)
    _emit(
        {
            "owner_did": format_did(w.owner_did) if w.owner_did else None,
            "keys": len(w.keys),
            "documents": len(w.documents),
            "credentials": len(w.credentials),
        }
    )
    return EXIT_OK


def cmd_wallet_list(args) -> int:
    w = _unlock(args)
    _emit(
        {
            "keys": sorted(w.keys),
            "credentials": w.list_credentials(),
        }
    )
    return EXIT_OK


def cmd_sim_run(args) -> int:
    scenario = Scenario.load(args.scenario)
    if args.seed is not None:
        scenario.seed = args.seed
    report = run_scenario(scenario)
    for line in report.summary_lines():
        print(line)
    if args.report:
        Path(args.report).write_bytes(report.to_json_bytes())
    if args.trace:
        Path(args.trace).write_bytes("".join(f"{line}\n" for line in report.trace_lines()).encode())
    if args.strict and not report.all_matched():
        mismatched = [s for s in report.steps if not s.matched]
        if any(s.outcome == "delivery-failed" for s in mismatched):
            return _fail(EXIT_TRANSPORT, "delivery failed")
        return _fail(
            EXIT_VERIFICATION,
            "; ".join(f"{s.action}: {s.outcome} != {s.expect}" for s in mismatched),
        )
    return EXIT_OK


def cmd_sim_profiles(args) -> int:
    _emit(
        {
            name: {
                "mtu": profile.mtu,
                "loss_probability": profile.loss_probability,
                "reorder_probability": profile.reorder_probability,
            }
            for name, profile in sorted(PROFILES.items())
        }
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_wallet_args(parser) -> None:
    parser.add_argument("--wallet", required=True, help="wallet file path")
    parser.add_argument("--passphrase", required=True)


def _add_resolver_args(parser) -> None:
    parser.add_argument("--registry", help="registry snapshot (.reg)")
    parser.add_argument(
        "--peer-doc", action="append", help="peer document file (.ddoc); repeatable"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tinyssi")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a keypair")
    p.add_argument("--purpose", choices=crypto.PURPOSES,
                   default=crypto.PURPOSE_SIGN)
    p.add_argument("--seed", help="32-byte hex seed for deterministic output")
    p.set_defaults(func=cmd_keygen)

    did = sub.add_parser("did", help="identifier operations").add_subparsers(
        dest="subcommand", required=True
    )
    p = did.add_parser("create")
    p.add_argument("--method", choices=[METHOD_PEER, METHOD_REG], default=METHOD_PEER)
    p.add_argument("--endpoint", help="service endpoint address, typed by its URI scheme")
    p.add_argument("--registry", help="registry snapshot for reg method; created if missing")
    _add_wallet_args(p)
    p.set_defaults(func=cmd_did_create)
    p = did.add_parser("resolve")
    p.add_argument("did")
    _add_resolver_args(p)
    p.set_defaults(func=cmd_did_resolve)

    ddoc = sub.add_parser("ddoc", help="document operations").add_subparsers(
        dest="subcommand", required=True
    )
    p = ddoc.add_parser("show")
    _add_wallet_args(p)
    p.set_defaults(func=cmd_ddoc_show)
    p = ddoc.add_parser("rotate-key")
    _add_wallet_args(p)
    p.add_argument("--registry")
    p.set_defaults(func=cmd_ddoc_rotate_key)

    vc = sub.add_parser("vc", help="credential operations").add_subparsers(
        dest="subcommand", required=True
    )
    p = vc.add_parser("issue")
    _add_wallet_args(p)
    p.add_argument("--subject", required=True)
    p.add_argument("--claim", action="append", required=True, help="name=value")
    p.add_argument("--validity-days", type=int, default=30)
    p.add_argument("--out", required=True)
    p.add_argument("--openings-out", required=True)
    p.set_defaults(func=cmd_vc_issue)
    p = vc.add_parser("verify")
    p.add_argument("vc")
    p.add_argument("--revoked")
    _add_resolver_args(p)
    p.set_defaults(func=cmd_vc_verify)
    p = vc.add_parser("present")
    p.add_argument("--vc", required=True)
    p.add_argument("--openings", required=True)
    p.add_argument("--disclose", required=True, help="comma-separated claim names")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_vc_present)
    p = vc.add_parser("verify-presentation")
    p.add_argument("presentation")
    p.add_argument("--revoked")
    _add_resolver_args(p)
    p.set_defaults(func=cmd_vc_verify_presentation)
    p = vc.add_parser("revoke")
    _add_wallet_args(p)
    p.add_argument("--vc-id", required=True)
    p.add_argument("--revoked", required=True, help="revocation list file")
    _add_resolver_args(p)
    p.set_defaults(func=cmd_vc_revoke)

    w = sub.add_parser("wallet", help="wallet operations").add_subparsers(
        dest="subcommand", required=True
    )
    p = w.add_parser("create")
    _add_wallet_args(p)
    p.set_defaults(func=cmd_wallet_create)
    p = w.add_parser("unlock")
    _add_wallet_args(p)
    p.set_defaults(func=cmd_wallet_unlock)
    p = w.add_parser("list")
    _add_wallet_args(p)
    p.set_defaults(func=cmd_wallet_list)

    sim = sub.add_parser("sim", help="scenario simulation").add_subparsers(
        dest="subcommand", required=True
    )
    p = sim.add_parser("run")
    p.add_argument("scenario")
    p.add_argument("--seed", type=int)
    p.add_argument("--report", help="write the metrics report here")
    p.add_argument("--trace", help="write every handshake step's frame trace here")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero unless every step matched its expectation")
    p.set_defaults(func=cmd_sim_run)
    p = sim.add_parser("profiles")
    p.set_defaults(func=cmd_sim_profiles)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (`| head`). Point it at devnull, so that the
        # flush at exit finds nothing to write to the closed pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OUTPUT_CLOSED


def _run(args) -> int:
    """Run a command; each failure it may meet becomes its exit code."""
    try:
        return args.func(args)
    except BrokenPipeError:
        raise  # an OSError, but of stdout rather than of a file: main's to handle
    except wallet_mod.WalletError as exc:  # a wrong passphrase too
        return _fail(EXIT_VERIFICATION, str(exc))
    except TransportError as exc:  # a message the transport cannot carry
        return _fail(EXIT_TRANSPORT, str(exc))
    except (OSError, DidError, CredentialError, ResolutionError, RegistryError, EncodingError,
            ScenarioError, crypto.CryptoError) as exc:
        return _fail(EXIT_VALIDATION, str(exc))


if __name__ == "__main__":
    sys.exit(main())
