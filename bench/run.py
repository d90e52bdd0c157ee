"""Handshake benchmark for tinyssi: wire, ticks and wall time end to end.

  python3 bench/run.py --workload pair-lora --seed 1 --seconds 20 --trace 0
  python3 bench/run.py --workload all --seconds 20     # every workload, one table

An untraced run sets up its workload five times (provisioning, issuance, and
every actor's wallet save + unlock + SessionConfig.from_wallet), then replays
the workload's seeded schedule in closed-loop passes, one handshake at a time
in this one process, until --seconds have passed. A traced run sets up once
and traces that set-up and one pass. Every verdict is checked
against the workload's oracle; a wrong verdict exits 1 without a result.

The last line of stdout is one JSON object: `correct`, `attempted`
(pairings), `failed` (pairings none of whose handshake attempts reached a
verdict) and `metrics`,
the end-to-end metrics with --trace 0 and the per-layer metrics of the
traced run with --trace 1. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("pair-lora", "lossy-lora", "fleet-ble")
SETUP_REPEATS = 5

# (name, unit, better): handshake wall time. Every untraced run prints these,
# and the traced run reports them, from its untraced passes, as `untraced.*`.
# They are not in END_TO_END because on a shared host they swing by up to 2x
# between runs, wider than any bound a regression gate can use.
WALL_TIME = [
    ("handshakes_per_s", "1/s", "higher"),
    ("handshake_ms_p50", "ms", "lower"),
    ("handshake_ms_p99", "ms", "lower"),
]

# (name, unit, better): the end-to-end metrics in every untraced run's result.
END_TO_END = [
    ("ticks_p50", "ticks", "lower"),
    ("ticks_p99", "ticks", "lower"),
    ("air_bytes_per_hs", "B", "lower"),
    ("frames_per_hs", "frames", "lower"),
    ("attempts_per_pairing", "attempts", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]


class BenchFailure(Exception):
    """No trustworthy result: sources missing or output wrong. Exits 1."""


def _import_package() -> None:
    """Put the checkout's own src/ first on the path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "tinyssi" / "__init__.py").is_file():
        raise BenchFailure(f"no tinyssi sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(BENCH))
    import tinyssi

    if Path(tinyssi.__file__).resolve().parent != (src / "tinyssi").resolve():
        raise BenchFailure(f"imported tinyssi from {tinyssi.__file__}, not {src}")


def run_passes(booted, workload, steps, seed, seconds):
    """Replay passes until `seconds` have passed.

    The first pass is always whole; the last may stop at the deadline.
    """
    import workloads

    deadline = time.perf_counter() + seconds
    passes = [workloads.run_pass(booted, workload, steps, seed)]
    first = [r.simulated() for r in passes[0].results]
    while time.perf_counter() < deadline:
        outcome = workloads.run_pass(booted, workload, steps, seed, deadline=deadline)
        replayed = [r.simulated() for r in outcome.results]
        writes = outcome.writes
        if replayed != first[:len(replayed)] or writes != passes[0].writes[:len(writes)]:
            raise BenchFailure("a replayed pass differs from the first: not deterministic")
        passes.append(outcome)
    return passes


def make_scenario(workload, seed: int):
    scenario = workload.scenario(ROOT, seed)
    problems = scenario.validate()
    if problems:
        raise BenchFailure(f"scenario is invalid: {problems}")
    return scenario


def setup(scenario, workdir: Path):
    """Set up SETUP_REPEATS times; returns the last deployment and every time."""
    import workloads

    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        booted = workloads.boot(scenario, workdir)
        times.append(time.perf_counter() - started)
    return booted, times


def wall_time(passes) -> dict[str, float]:
    from workloads import is_verdict, percentile

    wall_ms = sorted(r.wall_ns / 1e6 for p in passes for r in p.results)
    verdicts = sum(1 for p in passes for r in p.results if is_verdict(r.outcome))
    return {
        "handshakes_per_s": verdicts / (sum(p.loop_ns for p in passes) / 1e9),
        "handshake_ms_p50": percentile(wall_ms, 0.50),
        "handshake_ms_p99": percentile(wall_ms, 0.99),
    }


def end_to_end(passes, setup_times) -> dict[str, float]:
    from workloads import percentile

    first = passes[0].results
    ticks = sorted(r.ticks for r in first)
    return {
        "ticks_p50": percentile(ticks, 0.50),
        "ticks_p99": percentile(ticks, 0.99),
        "air_bytes_per_hs": statistics.mean(r.air_bytes for r in first),
        "frames_per_hs": statistics.mean(r.frames for r in first),
        "attempts_per_pairing": len(first) / passes[0].pairings,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(scenario, workload, steps, seed, seconds, workdir: Path):
    """One traced pass, then untraced reference passes for the rest of the time.

    Returns the per-layer metrics and the traced pass.
    """
    import layers
    import spans
    import workloads

    started = time.perf_counter()
    tracer = spans.Tracer()
    counters = layers.Counters(tracer)
    tracer.probes = counters.probes()
    tracer.current_hs = layers.SETUP
    tracer.install()
    try:
        booted = workloads.boot(scenario, workdir)
        tracer.current_hs = -1
        traced = workloads.run_pass(
            booted, workload, steps, seed,
            lambda index: setattr(tracer, "current_hs", index),
        )
    finally:
        tracer.uninstall()
    remaining = seconds - (time.perf_counter() - started)
    reference = run_passes(booted, workload, steps, seed, remaining)
    metrics = layers.per_layer_metrics(tracer, counters, booted, traced, wall_time(reference))
    try:
        held = layers.reconcile(workload.name, metrics, reference[0], traced)
    except layers.ReconciliationError as exc:
        raise BenchFailure(f"reconciliation failed: {exc}") from exc
    out = BENCH / "out" / f"spans-{workload.name}.csv.gz"
    tracer.write(out)
    print(f"spans: {tracer.span_count()} written to {out.relative_to(ROOT)}")
    for line in held:
        print(f"reconciled: {line}")
    return metrics, [traced]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import layers
    import workloads

    workload = workloads.WORKLOADS[name]
    (BENCH / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=BENCH / ".work"))
    try:
        scenario = make_scenario(workload, seed)
        steps = workload.schedule(scenario, seed, workload.pass_length)
        if trace:
            metrics, passes = traced_run(scenario, workload, steps, seed, seconds, workdir)
            specs = layers.PER_LAYER
        else:
            booted, setup_times = setup(scenario, workdir)
            gc.collect()
            passes = run_passes(booted, workload, steps, seed, seconds)
            metrics = end_to_end(passes, setup_times)
            metrics.update(wall_time(passes))
            specs = END_TO_END
    except workloads.WrongVerdict as exc:
        raise BenchFailure(f"wrong verdict: {exc}") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    first = passes[0]
    samples = sum(len(p.results) for p in passes)
    attempted = sum(p.pairings for p in passes)
    failed = sum(p.unpaired for p in passes)
    failed_attempts = sum(1 for r in first.results if not workloads.is_verdict(r.outcome))
    outcomes = Counter(r.outcome for r in first.results)
    writes = Counter(first.writes)
    print(f"workload {name} seed {seed}: {len(passes)} passes x {first.pairings} pairings "
          f"= {attempted} pairings, {samples} handshake samples")
    print("attempt outcomes per pass: "
          + ", ".join(f"{k}={v}" for k, v in sorted(outcomes.items())))
    if writes:
        print("writes per pass: " + ", ".join(f"{k}={v}" for k, v in sorted(writes.items())))
    print(f"failed attempts (retried): {failed_attempts / len(first.results):.6f} "
          f"({failed_attempts} of {len(first.results)} per pass)")
    print(f"failed_fraction (pairings): {failed / attempted:.6f} ({failed} of {attempted})")
    for metric, unit, _ in (specs if trace else WALL_TIME + specs):
        print(f"  {metric:<48} {metrics[metric]:>14.6g} {unit}")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": metrics[metric], "unit": unit} for metric, unit, _ in specs
        },
    }


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS is its own), one table."""
    table = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} failed with exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        table[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print()
    print(f"{'metric':<48} {'unit':<8}" + "".join(f"{n:>14}" for n in WORKLOAD_NAMES))
    print(f"{'pairings (attempted)':<48} {'':<8}"
          + "".join(f"{table[n]['attempted']:>14}" for n in WORKLOAD_NAMES))
    for metric, entry in table[WORKLOAD_NAMES[0]]["metrics"].items():
        print(f"{metric:<48} {entry['unit']:<8}" + "".join(
            f"{table[n]['metrics'][metric]['value']:>14.6g}" for n in WORKLOAD_NAMES
        ))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        _import_package()
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchFailure as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
