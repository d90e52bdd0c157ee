"""Self-test of the handshake benchmark.

  PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from tinyssi import handshake, harness  # noqa: E402

# ROADMAP baseline: owner-two-devices, camera -> lock on lora, no loss.
BASELINE_FRAGMENTS = (3, 3, 1, 1, 1, 4, 4, 1, 1)
BASELINE_AIR_BYTES = 3773
BASELINE_FRAMES = 38
BASELINE_TICKS = 38


def _booted(name: str, seed: int, workdir: Path) -> tuple:
    workload = workloads.WORKLOADS[name]
    scenario = workload.scenario(ROOT, seed)
    return workload, scenario, workloads.boot(scenario, workdir)


@pytest.mark.parametrize("seed", [1, 2])
def test_pair_lora_reproduces_roadmap_baseline(seed, tmp_path):
    workload, scenario, booted = _booted("pair-lora", seed, tmp_path)
    steps = workload.schedule(scenario, seed, 2)
    outcome = workloads.run_pass(booted, workload, steps, seed)
    for result in outcome.results:
        assert result.outcome == "trusted"
        assert result.fragments == BASELINE_FRAGMENTS
        assert result.air_bytes == BASELINE_AIR_BYTES
        assert result.frames == BASELINE_FRAMES
        assert result.ticks == BASELINE_TICKS
        assert result.retransmissions == 0


def test_wrong_verdict_aborts(tmp_path):
    workload, scenario, booted = _booted("pair-lora", 1, tmp_path)
    state = workloads.PassState(booted)
    state.revoked.add("camera")  # the oracle now expects untrusted
    step = workload.schedule(scenario, 1, 1)[0]
    with pytest.raises(workloads.WrongVerdict):
        workloads.run_handshake(state, step, workload.profile, 1)


def test_fleet_reads_registry_and_checks_every_verdict(tmp_path):
    workload, scenario, booted = _booted("fleet-ble", 3, tmp_path)
    steps = workload.schedule(scenario, 3, 200)
    outcome = workloads.run_pass(booted, workload, steps, 3)
    assert outcome.registry_reads > 0
    assert outcome.cache_hits > 0
    assert outcome.registry_reads == outcome.cache_misses
    assert any(r.outcome.startswith("untrusted") for r in outcome.results)


def test_fleet_retries_stale_documents_until_a_verdict(tmp_path):
    workload, scenario, booted = _booted("fleet-ble", 2, tmp_path)
    steps = workload.schedule(scenario, 2, workload.pass_length)
    outcome = workloads.run_pass(booted, workload, steps, 2)
    failed = [r for r in outcome.results if not workloads.is_verdict(r.outcome)]
    # Peers still caching a rotated device's old document fail authentication.
    assert failed and {r.outcome for r in failed} == {"failed(auth)"}
    assert outcome.unpaired == 0
    assert len(outcome.results) == outcome.pairings + len(failed)
    for before, after in zip(outcome.results, outcome.results[1:]):
        if before in failed:
            assert after.attempt == before.attempt + 1


def test_lossy_link_failures_are_retried(tmp_path):
    workload, scenario, booted = _booted("lossy-lora", 1, tmp_path)
    steps = workload.schedule(scenario, 1, 300)
    outcome = workloads.run_pass(booted, workload, steps, 1)
    failed = [r for r in outcome.results if not workloads.is_verdict(r.outcome)]
    assert failed and {r.outcome for r in failed} == {"delivery-failed"}
    assert outcome.unpaired == 0
    assert outcome.pairings == 300
    assert sum(r.retransmissions for r in outcome.results) > 0


def test_traced_pass_reconciles_and_restores(tmp_path):
    workload, scenario, _ = _booted("pair-lora", 1, tmp_path)
    steps = workload.schedule(scenario, 1, 3)
    originals = (handshake.initiate, harness.drive_handshake, harness.initiate)
    tracer = spans.Tracer()
    counters = layers.Counters(tracer)
    tracer.probes = counters.probes()
    tracer.current_hs = layers.SETUP
    tracer.install()
    try:
        assert harness.initiate is handshake.initiate is not originals[0]
        booted = workloads.boot(scenario, tmp_path)
        tracer.current_hs = -1
        traced = workloads.run_pass(
            booted, workload, steps, 1, lambda i: setattr(tracer, "current_hs", i)
        )
    finally:
        tracer.uninstall()
    assert (handshake.initiate, harness.drive_handshake, harness.initiate) == originals
    untraced = workloads.run_pass(booted, workload, steps, 1)
    metrics = layers.per_layer_metrics(tracer, counters, booted, traced, run.wall_time([untraced]))
    assert set(metrics) == {name for name, _, _ in layers.PER_LAYER}
    layers.reconcile("pair-lora", metrics, untraced, traced)
    assert metrics["encoding.from_hex.calls_per_hs"] > 0
    assert metrics["handshake.bytes.HELLO"] == 642
    assert metrics["transport.retransmissions_per_hs"] == 0
    assert metrics["resolver.registry_reads_per_hs"] == 0
    assert metrics["credentials.issue.calls"] == 2
    assert metrics["harness.failed_attempts"] == 0
    assert metrics["wallet.unlock.ms_p50"] > 0
    assert metrics["untraced.handshake_ms_p50"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [tuple(m[k] for k in ("name", "unit", "better")) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [tuple(m[k] for k in ("name", "unit", "better")) for m in spec["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER
    ]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for source in BENCH.glob("*.py"):
        shutil.copy(source, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pair-lora", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
