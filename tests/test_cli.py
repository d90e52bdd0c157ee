"""End-to-end command-line flows through the public entry point."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import TAMPERINGS, tampered_snapshot
from tinyssi.cli import EXIT_OUTPUT_CLOSED, main
from tinyssi.encoding import canonical_bytes
from tinyssi.resolver import Registry

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "owner-two-devices.scn"
LIFECYCLE = Path(__file__).resolve().parent.parent / "scenarios" / "household-lifecycle.scn"
GOLDEN = Path(__file__).resolve().parent / "golden"
PASS = "pw"


def run(capsys, *argv) -> tuple[int, dict | str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    try:
        return code, json.loads(out)
    except json.JSONDecodeError:
        return code, out


@pytest.fixture
def issuer(tmp_path, capsys):
    """A wallet holding a peer identity, plus its exported document."""
    wallet = tmp_path / "issuer.wallet"
    code, _ = run(capsys, "wallet", "create", "--wallet", str(wallet), "--passphrase", PASS)
    assert code == 0
    code, out = run(
        capsys, "did", "create", "--method", "peer",
        "--endpoint", "sim-link://issuer",
        "--wallet", str(wallet), "--passphrase", PASS,
    )
    assert code == 0
    did = out["did"]
    code, doc = run(capsys, "ddoc", "show", "--wallet", str(wallet), "--passphrase", PASS)
    assert code == 0
    doc_path = tmp_path / "issuer.ddoc"
    doc_path.write_text(json.dumps(doc))
    return wallet, did, doc_path


class TestKeygen:
    def test_seeded_keygen_deterministic(self, capsys):
        code, a = run(capsys, "keygen", "--purpose", "sign", "--seed", "00" * 32)
        assert code == 0
        _, b = run(capsys, "keygen", "--purpose", "sign", "--seed", "00" * 32)
        assert a["public"] == b["public"]

    def test_bad_seed_is_validation_error(self, capsys):
        code, out = run(capsys, "keygen", "--seed", "abcd")
        assert code == 2
        assert out["error"]["code"] == 2


class TestWalletCommands:
    def test_create_unlock_list(self, tmp_path, capsys):
        wallet = tmp_path / "w.wallet"
        code, _ = run(capsys, "wallet", "create", "--wallet", str(wallet), "--passphrase", PASS)
        assert code == 0
        code, out = run(capsys, "wallet", "unlock", "--wallet", str(wallet), "--passphrase", PASS)
        assert code == 0
        assert out["owner_did"] is None
        code, out = run(capsys, "wallet", "list", "--wallet", str(wallet), "--passphrase", PASS)
        assert code == 0
        assert out["credentials"] == []

    def test_wrong_passphrase_exit_code(self, tmp_path, capsys):
        wallet = tmp_path / "w.wallet"
        run(capsys, "wallet", "create", "--wallet", str(wallet), "--passphrase", PASS)
        code, out = run(capsys, "wallet", "unlock", "--wallet", str(wallet), "--passphrase", "no")
        assert code == 3

    def test_existing_wallet_not_overwritten(self, tmp_path, capsys):
        wallet = tmp_path / "w.wallet"
        run(capsys, "wallet", "create", "--wallet", str(wallet), "--passphrase", PASS)
        code, _ = run(capsys, "wallet", "create", "--wallet", str(wallet), "--passphrase", PASS)
        assert code == 2


class TestDidCommands:
    def test_did_create_peer_and_resolve_via_doc(self, issuer, capsys):
        wallet, did, doc_path = issuer
        assert did.startswith("did:peer:")
        code, out = run(capsys, "did", "resolve", did, "--peer-doc", str(doc_path))
        assert code == 0
        assert out["id"] == did

    def test_did_create_reg_and_resolve_via_registry(self, tmp_path, capsys):
        wallet = tmp_path / "w.wallet"
        registry = tmp_path / "net.reg"
        run(capsys, "wallet", "create", "--wallet", str(wallet), "--passphrase", PASS)
        code, out = run(
            capsys, "did", "create", "--method", "reg", "--registry", str(registry),
            "--wallet", str(wallet), "--passphrase", PASS,
        )
        assert code == 0
        did = out["did"]
        code, out = run(capsys, "did", "resolve", did, "--registry", str(registry))
        assert code == 0

    @pytest.mark.parametrize("address, scheme", [
        ("sim-link://issuer", "sim-link"), ("coap://lock.local", "coap"),
    ])
    def test_did_create_types_an_endpoint_by_its_scheme(self, tmp_path, capsys, address, scheme):
        wallet = tmp_path / "w.wallet"
        run(capsys, "wallet", "create", "--wallet", str(wallet), "--passphrase", PASS)
        code, _ = run(
            capsys, "did", "create", "--method", "peer", "--endpoint", address,
            "--wallet", str(wallet), "--passphrase", PASS,
        )
        assert code == 0
        code, doc = run(capsys, "ddoc", "show", "--wallet", str(wallet), "--passphrase", PASS)
        assert code == 0
        assert doc["service_endpoints"] == [
            {"address": address, "endpoint_id": "ep-1", "type": scheme}
        ]

    @pytest.mark.parametrize("address", ["lock.local", ":lock.local"])
    def test_did_create_endpoint_without_a_scheme_is_validation_error(
        self, tmp_path, capsys, address
    ):
        wallet = tmp_path / "w.wallet"
        run(capsys, "wallet", "create", "--wallet", str(wallet), "--passphrase", PASS)
        code, out = run(
            capsys, "did", "create", "--method", "peer", "--endpoint", address,
            "--wallet", str(wallet), "--passphrase", PASS,
        )
        assert code == 2
        assert out["error"]["reason"] == (
            f"endpoint {address!r} has no URI scheme to be its type"
        )
        code, out = run(capsys, "wallet", "unlock", "--wallet", str(wallet), "--passphrase", PASS)
        assert (out["owner_did"], out["documents"]) == (None, 0)

    def test_second_did_create_is_validation_error(self, issuer, capsys):
        wallet, did, _ = issuer
        code, out = run(
            capsys, "did", "create", "--wallet", str(wallet), "--passphrase", PASS,
        )
        assert code == 2
        assert out["error"]["reason"] == "wallet already holds an identity"
        code, out = run(capsys, "wallet", "unlock", "--wallet", str(wallet), "--passphrase", PASS)
        assert (out["owner_did"], out["keys"], out["documents"]) == (did, 2, 1)

    def test_resolve_unknown_is_verification_failure(self, tmp_path, capsys):
        registry = tmp_path / "net.reg"
        Registry().save(str(registry))
        code, out = run(
            capsys, "did", "resolve", "did:reg:3UnknownUnknownUnknown",
            "--registry", str(registry),
        )
        assert code == 3

    def test_rotate_key_bumps_version(self, tmp_path, capsys):
        wallet, registry = str(tmp_path / "w.wallet"), str(tmp_path / "net.reg")
        run(capsys, "wallet", "create", "--wallet", wallet, "--passphrase", PASS)
        run(capsys, "did", "create", "--method", "reg", "--registry", registry,
            "--wallet", wallet, "--passphrase", PASS)
        code, out = run(capsys, "ddoc", "rotate-key", "--registry", registry,
                        "--wallet", wallet, "--passphrase", PASS)
        assert code == 0
        assert out["version"] == 2

    def test_rotate_key_on_peer_identity_is_validation_error(self, issuer, capsys):
        wallet, did, _ = issuer
        code, out = run(capsys, "ddoc", "rotate-key", "--wallet", str(wallet), "--passphrase", PASS)
        assert code == 2
        assert out["error"]["reason"] == "a peer identity cannot rotate its keys"
        code, out = run(capsys, "ddoc", "show", "--wallet", str(wallet), "--passphrase", PASS)
        assert (out["id"], out["version"]) == (did, 1)

    # Only reg identities rotate: a peer rotation is refused (test above).
    @pytest.mark.parametrize("method", ["reg"])
    def test_repeated_rotation_then_issue(self, method, tmp_path, capsys):
        # Each rotation must retire the current key, not one retired earlier.
        # Key ids are random and the wallet lists its keys sorted by id, so a
        # lookup that also matches retired keys picks the current one by luck:
        # four rotations leave it a 1-in-24 chance.
        wallet, registry = tmp_path / "w.wallet", tmp_path / "net.reg"
        wallet_args = ["--wallet", str(wallet), "--passphrase", PASS]
        registry_args = ["--registry", str(registry)]
        run(capsys, "wallet", "create", *wallet_args)
        code, out = run(capsys, "did", "create", "--method", method, *registry_args, *wallet_args)
        assert code == 0
        did = out["did"]
        for version in (2, 3, 4, 5):
            code, out = run(capsys, "ddoc", "rotate-key", *registry_args, *wallet_args)
            assert code == 0, out
            assert out["version"] == version
            assert len(out["previous_keys"]) == version - 1
        code, out = run(
            capsys, "vc", "issue", *wallet_args, "--subject", did, "--claim", "type=Camera",
            "--out", str(tmp_path / "c.vc"), "--openings-out", str(tmp_path / "c.openings"),
        )
        assert code == 0, out
        code, out = run(capsys, "vc", "verify", str(tmp_path / "c.vc"), *registry_args)
        assert code == 0, out


class TestVcCommands:
    def _issue(self, issuer, tmp_path, capsys, claims=("owner=Alice", "type=Camera")):
        wallet, did, doc_path = issuer
        vc_path = tmp_path / "cred.vc"
        openings_path = tmp_path / "cred.openings"
        argv = [
            "vc", "issue", "--wallet", str(wallet), "--passphrase", PASS,
            "--subject", did, "--validity-days", "30",
            "--out", str(vc_path), "--openings-out", str(openings_path),
        ]
        for claim in claims:
            argv += ["--claim", claim]
        code, out = run(capsys, *argv)
        assert code == 0
        return vc_path, openings_path, out["vc_id"]

    def test_issue_and_verify(self, issuer, tmp_path, capsys):
        wallet, did, doc_path = issuer
        vc_path, _, _ = self._issue(issuer, tmp_path, capsys)
        code, out = run(capsys, "vc", "verify", str(vc_path), "--peer-doc", str(doc_path))
        assert code == 0
        assert out["verdict"] == "valid"

    def test_tampered_credential_fails_with_signature_reason(self, issuer, tmp_path, capsys):
        wallet, did, doc_path = issuer
        vc_path, _, _ = self._issue(issuer, tmp_path, capsys)
        blob = bytearray(vc_path.read_bytes())
        marker = blob.find(b'"issued_at":') + len(b'"issued_at":')
        blob[marker] = ord("9")
        tampered = tmp_path / "tampered.vc"
        tampered.write_bytes(bytes(blob))
        code, out = run(capsys, "vc", "verify", str(tampered), "--peer-doc", str(doc_path))
        assert code == 3
        assert "signature" in out["error"]["reason"]

    def test_present_and_verify_presentation(self, issuer, tmp_path, capsys):
        wallet, did, doc_path = issuer
        vc_path, openings_path, _ = self._issue(issuer, tmp_path, capsys)
        vp_path = tmp_path / "subset.vp"
        code, out = run(
            capsys, "vc", "present", "--vc", str(vc_path),
            "--openings", str(openings_path), "--disclose", "type",
            "--out", str(vp_path),
        )
        assert code == 0
        assert out["disclosed"] == ["type"]
        raw = vp_path.read_bytes()
        assert b"Camera" in raw and b"Alice" not in raw
        code, out = run(
            capsys, "vc", "verify-presentation", str(vp_path), "--peer-doc", str(doc_path)
        )
        assert code == 0
        assert out["disclosed"] == {"type": "Camera"}

    @pytest.mark.parametrize("stored", [[], {"vc_id": "x"}, {"openings": {"name": "type"}}],
                             ids=["list", "no-openings", "openings-not-a-list"])
    def test_present_with_malformed_openings_file(self, stored, issuer, tmp_path, capsys):
        vc_path, _, _ = self._issue(issuer, tmp_path, capsys)
        openings_path = tmp_path / "bad.openings"
        openings_path.write_bytes(canonical_bytes(stored))
        code, out = run(
            capsys, "vc", "present", "--vc", str(vc_path),
            "--openings", str(openings_path), "--disclose", "type",
            "--out", str(tmp_path / "subset.vp"),
        )
        assert code == 2
        assert '"openings" list' in out["error"]["reason"]

    def test_present_with_another_credentials_openings(self, issuer, tmp_path, capsys):
        vc_path, _, vc_id = self._issue(issuer, tmp_path, capsys)
        other = tmp_path / "other"
        other.mkdir()
        _, other_openings, other_id = self._issue(issuer, other, capsys)
        code, out = run(
            capsys, "vc", "present", "--vc", str(vc_path),
            "--openings", str(other_openings), "--disclose", "type",
            "--out", str(tmp_path / "subset.vp"),
        )
        assert code == 2, out
        assert out["error"]["reason"] == f"openings file is for {other_id}, not {vc_id}"

    def test_revoke_then_verify_fails(self, issuer, tmp_path, capsys):
        wallet, did, doc_path = issuer
        vc_path, _, vc_id = self._issue(issuer, tmp_path, capsys)
        revoked = tmp_path / "revoked.json"
        code, _ = run(
            capsys, "vc", "revoke", "--wallet", str(wallet), "--passphrase", PASS,
            "--vc-id", vc_id, "--revoked", str(revoked),
        )
        assert code == 0
        code, out = run(
            capsys, "vc", "verify", str(vc_path), "--peer-doc", str(doc_path),
            "--revoked", str(revoked),
        )
        assert code == 3
        assert out["error"]["reason"] == "revoked"

    def test_revocation_file_is_the_owner_and_sorted_ids(self, issuer, tmp_path, capsys):
        wallet, did, doc_path = issuer
        vc_path, _, vc_id = self._issue(issuer, tmp_path, capsys)
        later = "vc:zz"  # sorts after every hex id
        revoked = tmp_path / "revoked.json"
        for revoked_id in (later, vc_id):
            code, _ = run(
                capsys, "vc", "revoke", "--wallet", str(wallet), "--passphrase", PASS,
                "--vc-id", revoked_id, "--revoked", str(revoked),
            )
            assert code == 0
        assert revoked.read_bytes() == canonical_bytes({"owner": did, "revoked": [vc_id, later]})
        # A hand-written list need not be sorted or unique to revoke.
        revoked.write_bytes(canonical_bytes({"owner": did, "revoked": [later, vc_id, later]}))
        code, out = run(
            capsys, "vc", "verify", str(vc_path), "--peer-doc", str(doc_path),
            "--revoked", str(revoked),
        )
        assert code == 3
        assert out["error"]["reason"] == "revoked"

    def test_revocation_list_of_another_identity_is_refused(self, issuer, tmp_path, capsys):
        wallet, did, doc_path = issuer
        vc_path, openings_path, vc_id = self._issue(issuer, tmp_path, capsys)
        other = tmp_path / "other.wallet"
        assert run(capsys, "wallet", "create", "--wallet", str(other), "--passphrase", PASS)[0] == 0
        code, _ = run(
            capsys, "did", "create", "--method", "peer",
            "--wallet", str(other), "--passphrase", PASS,
        )
        assert code == 0
        foreign = tmp_path / "other-rev.json"
        code, _ = run(
            capsys, "vc", "revoke", "--wallet", str(other), "--passphrase", PASS,
            "--vc-id", vc_id, "--revoked", str(foreign),
        )
        assert code == 0
        code, out = run(
            capsys, "vc", "verify", str(vc_path), "--peer-doc", str(doc_path),
            "--revoked", str(foreign),
        )
        assert code == 2, out
        assert "not by the issuer" in out["error"]["reason"]
        vp_path = tmp_path / "subset.vp"
        code, _ = run(
            capsys, "vc", "present", "--vc", str(vc_path),
            "--openings", str(openings_path), "--disclose", "type", "--out", str(vp_path),
        )
        assert code == 0
        code, out = run(
            capsys, "vc", "verify-presentation", str(vp_path), "--peer-doc", str(doc_path),
            "--revoked", str(foreign),
        )
        assert code == 2, out
        assert "not by the issuer" in out["error"]["reason"]

    def test_presentation_of_revoked_credential_with_misspelt_list_fails_closed(
        self, issuer, tmp_path, capsys
    ):
        wallet, did, doc_path = issuer
        vc_path, openings_path, vc_id = self._issue(issuer, tmp_path, capsys)
        code, _ = run(
            capsys, "vc", "revoke", "--wallet", str(wallet), "--passphrase", PASS,
            "--vc-id", vc_id, "--revoked", str(tmp_path / "rev.json"),
        )
        assert code == 0
        vp_path = tmp_path / "subset.vp"
        code, _ = run(
            capsys, "vc", "present", "--vc", str(vc_path),
            "--openings", str(openings_path), "--disclose", "type", "--out", str(vp_path),
        )
        assert code == 0
        code, out = run(
            capsys, "vc", "verify-presentation", str(vp_path), "--peer-doc", str(doc_path),
            "--revoked", str(tmp_path / "typo.json"),
        )
        assert code == 2, out
        assert "typo.json" in out["error"]["reason"]


class TestSimCommands:
    def test_profiles(self, capsys):
        code, out = run(capsys, "sim", "profiles")
        assert code == 0
        assert out["lora"]["mtu"] == 222
        assert out["ble"]["mtu"] == 244

    def test_run_owner_scenario_strict(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, out = run(
            capsys, "sim", "run", str(SCENARIO), "--report", str(report_path), "--strict"
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["steps"][0]["outcome"] == "trusted"

    def test_same_seed_byte_identical_reports(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, "sim", "run", str(SCENARIO), "--seed", "3", "--report", str(a))[0] == 0
        assert run(capsys, "sim", "run", str(SCENARIO), "--seed", "3", "--report", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("scenario", [SCENARIO, LIFECYCLE], ids=lambda p: p.stem)
    def test_report_and_summary_match_golden(self, scenario, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main(["sim", "run", str(scenario), "--report", str(report_path)]) == 0
        summary = capsys.readouterr().out
        assert report_path.read_bytes() == (GOLDEN / f"{scenario.stem}.report.json").read_bytes()
        assert summary.encode("utf-8") == (GOLDEN / f"{scenario.stem}.summary.txt").read_bytes()

    def test_trace_file_holds_each_handshake_steps_frames(self, tmp_path, capsys):
        report_path, trace_path = tmp_path / "report.json", tmp_path / "frames.trace"
        assert main([
            "sim", "run", str(LIFECYCLE), "--report", str(report_path), "--trace", str(trace_path),
        ]) == 0
        steps = json.loads(report_path.read_text())["steps"]
        # The trace travels only in its own file: the report is the golden one.
        assert report_path.read_bytes() == (GOLDEN / "household-lifecycle.report.json").read_bytes()
        text = trace_path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        sections = text.split("# step ")[1:]
        handshakes = [i for i, s in enumerate(steps) if s["action"] == "handshake"]
        assert [int(section.split("\n")[0]) for section in sections] == handshakes
        for index, section in zip(handshakes, sections):
            frames = section.splitlines()[1:]
            assert len(frames) == steps[index]["frames"]
            lengths = [int(line.split(" len=")[1].split()[0]) for line in frames]
            assert sum(lengths) == steps[index]["bytes_sent"]
            # Each pairing ends with its last leg's data frame, sent last, and
            # no ACK goes alone: 7 frames in 6 ticks.
            assert len(frames) == 7 and frames[-1].startswith("t=5 ")
            assert frames[-1].endswith(" last") and " type=ack " not in text
            # The HELLO's 4-byte whole ACK rides the 76-byte whole HELLO_ACK frame,
            # the lock's first message: one 80-byte packet.
            assert frames[1] == (
                "t=1 dir=lock→camera type=data id=1 idx=0/1 ack=1:all len=80 dropped=false"
            )

    def test_unwritable_trace_path_is_validation_error(self, tmp_path, capsys):
        code = main(["sim", "run", str(SCENARIO), "--trace", str(tmp_path / "no-dir" / "t")])
        out = capsys.readouterr().out
        assert code == 2
        assert json.loads(out[out.index("{"):])["error"]["code"] == 2

    def test_lifecycle_scenario_strict(self, capsys):
        code, _ = run(capsys, "sim", "run", str(LIFECYCLE), "--strict")
        assert code == 0

    def test_strict_mismatch_is_verification_failure(self, tmp_path, capsys):
        mapping = json.loads(SCENARIO.read_text())
        mapping["steps"][0]["expect"] = "untrusted"
        bad = tmp_path / "bad.scn"
        bad.write_text(json.dumps(mapping))
        code, out = run(capsys, "sim", "run", str(bad), "--strict")
        assert code == 3

    def test_without_strict_mismatch_still_exits_zero(self, tmp_path, capsys):
        mapping = json.loads(SCENARIO.read_text())
        mapping["steps"][0]["expect"] = "untrusted"
        bad = tmp_path / "bad.scn"
        bad.write_text(json.dumps(mapping))
        code, _ = run(capsys, "sim", "run", str(bad))
        assert code == 0

    def test_strict_expected_untrusted_exits_zero(self, tmp_path, capsys):
        # Strict mode checks expectations, not raw verdicts: an expected
        # untrusted outcome is a passing self-checking fixture.
        mapping = json.loads(SCENARIO.read_text())
        mapping["actors"].append({"name": "bob", "role": "owner", "did_method": "peer"})
        mapping["credentials"][1]["issuer"] = "bob"
        mapping["steps"][0]["expect"] = "untrusted(issuer)"
        scn = tmp_path / "expected-untrusted.scn"
        scn.write_text(json.dumps(mapping))
        code, _ = run(capsys, "sim", "run", str(scn), "--strict")
        assert code == 0

    def test_delivery_failure_is_transport_exit_code(self, tmp_path, capsys):
        mapping = json.loads(SCENARIO.read_text())
        mapping["links"][0]["loss"] = 1.0
        scn = tmp_path / "dead-link.scn"
        scn.write_text(json.dumps(mapping))
        code, out = run(capsys, "sim", "run", str(scn), "--strict")
        assert code == 4
        assert "delivery-failed" in out

    def test_message_longer_than_65535_bytes_completes(self, tmp_path, capsys):
        """A leg is its messages back to back, with no length prefix to bound
        one: a CRED_PRESENT over 65,535 B pairs like any other."""
        mapping = json.loads(SCENARIO.read_text())
        mapping["links"][0]["profile"] = "lossless"
        for credential in mapping["credentials"]:
            # Each claim adds a commitment: 2,000 make CRED_PRESENT longer than 65,535 B.
            credential["claims"].update({f"c{i}": "v" for i in range(2000)})
        scn, report = tmp_path / "huge-presentation.scn", tmp_path / "report.json"
        scn.write_text(json.dumps(mapping))
        assert main(["sim", "run", str(scn), "--report", str(report)]) == 0
        (step,) = json.loads(report.read_text())["steps"]
        assert (step["outcome"], step["bytes_sent"]) == ("trusted", 162_731)

    def test_invalid_scenario_is_validation_error(self, tmp_path, capsys):
        mapping = json.loads(SCENARIO.read_text())
        mapping["steps"][0]["initiator"] = "ghost"
        bad = tmp_path / "bad.scn"
        bad.write_text(json.dumps(mapping))
        code, out = run(capsys, "sim", "run", str(bad))
        assert code == 2
        assert "ghost" in out["error"]["reason"]

    def test_missing_scenario_file(self, capsys):
        code, _ = run(capsys, "sim", "run", "no-such-file.scn")
        assert code == 2


def _edit(path: str, value):
    """A mutation of the shipped scenario that sets one field (a dotted path)."""
    def apply(mapping):
        *parents, leaf = [int(p) if p.isdigit() else p for p in path.split(".")]
        target = mapping
        for part in parents:
            target = target[part]
        target[leaf] = value
        return mapping
    return apply


class TestMalformedFiles:
    """Every file the CLI reads either works or exits 2 with a reason."""

    @pytest.mark.parametrize("edit", [
        _edit("credentials.0.validity", "x"),
        _edit("credentials.0.claims.type", 3),
        _edit("links.0.loss", "high"),
        _edit("links.0.loss", 2.0),
        _edit("links.0.reorder", -0.5),
        _edit("steps.0.link", "0"),
        _edit("steps.0.expect", 3),
        _edit("actors.1.name", ["camera"]),
        _edit("seed", True),
        _edit("steps", {}),
        lambda m: m["steps"].append({"action": "rotate", "actor": "camera"}) or m,
        lambda m: m["steps"].append({"action": "resolve", "actor": "camera"}) or m,
        lambda m: m["steps"].append(
            {"action": "resolve", "actor": "camera", "target": "did:reg:0OIl"}
        ) or m,
        _edit("steps.0.policy", {"name": "owner", "value": "@ghost"}),
    ], ids=[
        "validity-text", "claim-integer", "loss-text", "loss-above-one", "reorder-negative",
        "link-text", "expect-integer", "actor-name-list", "seed-bool", "steps-mapping",
        "rotate-peer-actor", "resolve-no-target", "resolve-not-a-did", "policy-unknown-actor",
    ])
    def test_scenario(self, edit, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text(json.dumps(edit(json.loads(SCENARIO.read_text()))))
        code, out = run(capsys, "sim", "run", str(bad))
        assert code == 2, out
        assert out["error"]["reason"]

    def test_scenario_link_of_an_actor_to_itself(self, tmp_path, capsys):
        # A handshake over it would stall at once: both sides are one endpoint.
        scenario = json.loads(SCENARIO.read_text())
        scenario["links"][0]["b"] = scenario["steps"][0]["responder"] = "camera"
        bad = tmp_path / "self.scn"
        bad.write_text(json.dumps(scenario))
        code, out = run(capsys, "sim", "run", str(bad))
        assert code == 2, out
        assert "link 0 joins 'camera' to itself" in out["error"]["reason"]

    @pytest.mark.parametrize("content", [
        b"[]",
        b'{"format":"tinyssi-registry/2","records":{}}',
        b'{"format":"tinyssi-registry/2","records":[{"document":"00"}]}',
        b"not json",
        b'{"entries":{},"format":"tinyssi-registry/1"}',
    ], ids=["list", "records-mapping", "record-missing-fields", "not-json", "format-1"])
    def test_registry_snapshot(self, content, tmp_path, capsys):
        registry = tmp_path / "net.reg"
        registry.write_bytes(content)
        code, out = run(capsys, "did", "resolve", "did:reg:3Unknown", "--registry", str(registry))
        assert code == 2, out
        assert "bad registry snapshot" in out["error"]["reason"]

    @pytest.mark.parametrize("how", TAMPERINGS)
    def test_tampered_registry_snapshot(self, how, tmp_path, capsys):
        raw, did = tampered_snapshot(how)
        registry = tmp_path / "net.reg"
        registry.write_bytes(raw)
        code, out = run(capsys, "did", "resolve", str(did), "--registry", str(registry))
        assert code == 2, out
        assert "bad registry snapshot" in out["error"]["reason"]

    @pytest.mark.parametrize("command", ["did-resolve", "ddoc-rotate-key", "vc-verify"])
    def test_missing_registry(self, command, tmp_path, capsys):
        # Only `did create` starts a registry file; a named one that is not there is
        # an error of its own, never an empty registry.
        wallet, registry = str(tmp_path / "w.wallet"), str(tmp_path / "net.reg")
        wallet_args = ["--wallet", wallet, "--passphrase", PASS]
        run(capsys, "wallet", "create", *wallet_args)
        code, out = run(capsys, "did", "create", "--method", "reg", "--registry", registry,
                        *wallet_args)
        assert code == 0, out
        did, vc = out["did"], str(tmp_path / "c.vc")
        code, out = run(capsys, "vc", "issue", *wallet_args, "--subject", did, "--claim",
                        "type=Camera", "--out", vc, "--openings-out", str(tmp_path / "c.op"))
        assert code == 0, out
        typo = str(tmp_path / "typo.reg")
        argv = {
            "did-resolve": ["did", "resolve", did, "--registry", typo],
            "ddoc-rotate-key": ["ddoc", "rotate-key", "--registry", typo, *wallet_args],
            "vc-verify": ["vc", "verify", vc, "--registry", typo],
        }[command]
        code, out = run(capsys, *argv)
        assert code == 2, out
        assert "typo.reg" in out["error"]["reason"]
        assert not Path(typo).exists()
        code, out = run(capsys, "ddoc", "show", *wallet_args)
        assert out["version"] == 1

    def test_scenario_link_of_an_actor_to_itself(self, tmp_path, capsys):
        # A handshake over it would stall at once: both sides are one endpoint.
        scenario = json.loads(SCENARIO.read_text())
        scenario["links"][0]["b"] = scenario["steps"][0]["responder"] = "camera"
        bad = tmp_path / "self.scn"
        bad.write_text(json.dumps(scenario))
        code, out = run(capsys, "sim", "run", str(bad))
        assert code == 2, out
        assert "link 0 joins 'camera' to itself" in out["error"]["reason"]

    @pytest.mark.parametrize("content", [
        b"[]", b"not json", b'{"owner":"did:peer:1","revoked":[7]}', None,
    ], ids=["list", "not-json", "revoked-integer", "missing"])
    def test_revocation_list(self, content, issuer, tmp_path, capsys):
        vc_path, _, _ = TestVcCommands()._issue(issuer, tmp_path, capsys)
        revoked = tmp_path / "revoked.json"
        if content is not None:
            revoked.write_bytes(content)
        code, out = run(
            capsys, "vc", "verify", str(vc_path), "--peer-doc", str(issuer[2]),
            "--revoked", str(revoked),
        )
        assert code == 2, out

    @pytest.mark.parametrize("seed", ["zz", "AB" * 32])
    def test_keygen_seed(self, seed, capsys):
        code, out = run(capsys, "keygen", "--seed", seed)
        assert code == 2, out
        assert out["error"]["code"] == 2


class TestClosedOutput:
    """A reader that closes stdout early (`| head`) ends the command with exit 5."""

    @pytest.mark.parametrize("argv", [
        ["sim", "profiles"],
        ["did", "resolve", "did:bad"],  # a validation failure, whose error object cannot go out
    ], ids=["output", "error-object"])
    def test_closed_stdout_exits_with_its_code_and_no_traceback(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        try:
            done = subprocess.run(
                [sys.executable, "-m", "tinyssi.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (EXIT_OUTPUT_CLOSED, b"")
