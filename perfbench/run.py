"""The repository benchmark: four seeded workloads through the public API.

Usage (from the repository root)::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with ``repro.obs``
disabled.  ``--trace 1`` runs the workload's fixed operation list twice,
untraced and then traced, and reports the per-layer breakdown: layer
calls, total and self time from ``repro.obs`` spans, the program's own
counters, set-up split, and the tracing overhead (traced over untraced
operation time).  The last line of standard output is the result
object; the line before it is the full record (environment, operation
counts, problems found).

Inputs come from ``--seed`` alone.  ``HELD_OUT_SEED`` was never run
while the benchmark was written; check later claims on it too.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve()
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import hostspeed  # noqa: E402  (needs the path above)

WORKLOADS = {
    "corpus": "CorpusWorkload",
    "search": "SearchWorkload",
    "serve": "ServeWorkload",
    "simulate": "SimulateWorkload",
}
HELD_OUT_SEED = 424242
#: Fresh interpreters whose set-up time is measured per run (median).
SETUP_PROBES = 3
#: Host-speed reference samples a set-up probe takes at each end.
REFERENCE_SAMPLES = 5

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
    "alt_ms": "ms",
}
#: Layer spans, opened by the workloads around calls into each layer
#: (``wfms.run`` and ``wfms.drain`` are the program's own spans).
LAYERS = (
    "scenarios.spec_to_chart",
    "spec.translate_chart",
    "core.performance_model",
    "core.goals.assess",
    "core.search.branch_and_bound",
    "core.search.frontier_search",
    "core.search.exhaustive",
    "service.post_events",
    "service.publish_wait",
    "monitor.parse_record_line",
    "monitor.drift.observe",
    "monitor.stream.export_state",
    "monitor.stream.restore_state",
    "service.recommend_from_calibration",
    "service.render_document",
    "wfms.SimulatedWFMS",
    "wfms.run",
    "wfms.drain",
)
#: Program counters read after the traced run.
COUNTERS = (
    "linalg.direct.solves",
    "linalg.gauss_seidel.sweeps",
    "ctmc.uniformization.steps",
    "availability.steady_state_solves",
    "configuration.candidates_evaluated",
    "search.frontier.evaluated",
    "search.frontier.dominated",
    "search.frontier.inserted",
    "performance.waiting_time_points",
    "performability.evaluations",
    "evaluation_cache.waiting_curve.hits",
    "evaluation_cache.waiting_curve.misses",
    "service.events.ingested",
    "service.http.errors",
    "service.searches.started",
    "service.searches.completed",
    "service.searches.superseded",
    "monitor.drift.confirmed",
    "evaluation_cache.rebinds",
    "sim.events_executed",
    "sim.fastdraw.blocks_drawn",
    "sim.fastdraw.variates_served",
    "wfms.server_failures",
)
#: Set-up split, measured in the same fresh interpreters as ``setup_s``.
SETUP_SPLIT = {"setup.import_s": "s", "setup.inputs_s": "s"}
#: Per-layer figures that are not a layer span or a plain counter.
DERIVED = {
    "trace.overhead_pct": "%",
    "evaluation_cache.hit_ratio": "ratio",
    "evaluation_cache.lookups": "count",
    "search.frontier.useful_ratio": "ratio",
    "sim.logical_events": "count",
    "wfms.audit_records_per_op": "count",
    "simulator.max_pending_events": "count",
    "env.peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = dict(SETUP_SPLIT)
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.total_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units.update({name: "count" for name in COUNTERS})
    units.update(DERIVED)
    return units


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="only set up, then print the set-up timings (used by the "
        "benchmark itself to time set-up in fresh interpreters)",
    )
    return parser.parse_args(argv)


def set_up(workload: str, seed: int):
    """Import the program and build the workload's inputs."""
    started = time.perf_counter()
    import repro  # noqa: F401  (the program's import cost is measured)

    module = importlib.import_module(f"perfbench.{workload}")
    imported = time.perf_counter()
    instance = getattr(module, WORKLOADS[workload])(seed)
    built = time.perf_counter()
    return instance, imported - started, built - imported


def probe_setup(args: argparse.Namespace) -> dict[str, float]:
    """Set up in a fresh interpreter; wall time from its launch.

    The probe samples the host-speed reference as it starts and once
    set up, and its times are scaled to the reference speed."""
    launched = time.time()
    completed = subprocess.run(
        [sys.executable, str(HERE), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "1", "--trace", "0",
         "--setup-probe"],
        capture_output=True, text=True, timeout=170, check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"set-up probe failed: {completed.stderr.strip()[-500:]}"
        )
    probe = json.loads(completed.stdout.strip().splitlines()[-1])
    probe["setup_s"] = probe.pop("done_at") - launched
    factor = hostspeed.scale([probe.pop("reference_s")])
    for name in ("setup_s", "import_s", "inputs_s"):
        probe[name] *= factor
    return probe


def environment() -> dict[str, object]:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure(workload, seconds: float) -> tuple[dict, list]:
    """End-to-end run: the workload for ``--seconds`` with obs off."""
    from perfbench import harness

    workload.warm()
    harness.settle()
    log = workload.run(seconds)
    harness.settle()
    return workload.end_to_end(log), [log]


def trace(workload) -> tuple[dict, list]:
    """Traced run: the fixed operations untraced, then traced."""
    from repro import obs

    from perfbench import harness

    workload.warm()
    harness.settle()
    untraced = workload.run_fixed()
    harness.settle()
    obs.reset()
    obs.enable()
    layers = harness.LayerTimes(LAYERS)
    try:
        traced = workload.run_fixed(layers)
        layers.fold()
        values = {name: harness.counter(name) for name in COUNTERS}
        ratio, lookups = harness.cache_hit_ratio()
        values["evaluation_cache.hit_ratio"] = ratio
        values["evaluation_cache.lookups"] = lookups
        values.update(workload.counters(traced))
    finally:
        obs.disable()
        obs.reset()
    values.update(layers.metrics())
    kinds = getattr(workload, "overhead_kinds", ())
    values["trace.overhead_pct"] = (
        traced.busy(*kinds) / untraced.busy(*kinds) - 1.0
    ) * 100.0
    return values, [untraced, traced]


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"error: the program's sources ({ROOT / 'src' / 'repro'}) are "
            f"missing; run from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    references = [hostspeed.reference_time() for _ in range(REFERENCE_SAMPLES)]
    workload, import_s, inputs_s = set_up(args.workload, args.seed)
    try:
        if args.setup_probe:
            done_at = time.time()
            references += [
                hostspeed.reference_time() for _ in range(REFERENCE_SAMPLES)
            ]
            print(json.dumps({
                "import_s": import_s, "inputs_s": inputs_s,
                "done_at": done_at,
                "reference_s": statistics.fmean(references),
            }))
            return 0
        return report(args, workload)
    finally:
        # The serve workload owns a running service.
        close = getattr(workload, "close", None)
        if close is not None:
            close()


def report(args: argparse.Namespace, workload) -> int:
    """Run the workload and print the record and the result line."""
    probes = [probe_setup(args) for _ in range(SETUP_PROBES)]
    measured: dict[str, float] = {}
    if args.trace:
        values, logs = trace(workload)
        for name in SETUP_SPLIT:
            values[name] = statistics.median(
                probe[name.removeprefix("setup.")] for probe in probes
            )
        resident = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values["env.peak_rss_mb"] = resident / 1024.0
        units = per_layer_units()
    else:
        values, logs = measure(workload, args.seconds)
        values["setup_s"] = statistics.median(
            probe["setup_s"] for probe in probes
        )
        units = END_TO_END
        measured = workload.end_to_end(logs[0].as_measured())
    problems = workload.check()
    metrics = {}
    for name, unit in units.items():
        value = float(values.get(name, 0.0))
        if not math.isfinite(value):
            problems.append(f"metric {name} could not be measured")
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    attempted = sum(log.attempted for log in logs)
    failed = sum(log.failed for log in logs)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "operations": [
            {kind: len(samples) for kind, samples in log.durations.items()}
            for log in logs
        ],
        "setup_probes": probes,
        "host_reference_ms": [
            statistics.median(log.references) * 1e3 for log in logs
        ],
        "unscaled_metrics": measured,
        "problems": problems,
        "first_error": getattr(workload, "first_error", ""),
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
