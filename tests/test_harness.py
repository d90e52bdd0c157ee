"""Scenario validation, execution, metrics conservation, and determinism."""

import copy
import json
from pathlib import Path

import pytest

from tinyssi.harness import (
    Deployment,
    Scenario,
    ScenarioError,
    run_scenario,
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
            "untrusted(no valid credentials)",
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
        # The HELLO carries a full peer document of 500+ bytes: >= 3 frames.
        assert report.steps[0].fragments_per_message[0] >= 3

    def test_round_trips_to_trusted(self):
        report = run_scenario(scenario())
        assert report.steps[0].round_trips == 3

    def test_differing_owner_value_is_owner_mismatch(self):
        mapping = copy.deepcopy(BASE)
        mapping["actors"].append(
            {"name": "bob", "role": "owner", "did_method": "peer"}
        )
        mapping["credentials"][1]["claims"]["owner"] = "@bob"
        report = run_scenario(Scenario.from_mapping(mapping))
        assert report.steps[0].outcome == "untrusted(owner mismatch)"

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
            "fragments_per_message", "round_trips", "retransmissions",
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
