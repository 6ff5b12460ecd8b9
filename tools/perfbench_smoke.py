"""Smoke run of the repository benchmark: every workload, briefly.

Runs ``perfbench/run.py`` once per workload listed in ``BENCHMARK.json``
(``--seconds 4 --trace 0`` by default), each in its own interpreter from
the repository root, and reads the result line each run prints last.
A workload passes when its run exits 0, reports ``correct: true`` (the
workload's own output checks held) and ``failed == 0`` (no operation
raised).  Wall-clock figures are printed but never gated: this is a
correctness smoke, not a performance check.

Exits non-zero after all workloads ran if any of them failed, with a
one-line diagnosis per failure.

Usage::

    python tools/perfbench_smoke.py [--seconds 4] [--seed 1]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Generous per-workload wall-clock limit: set-up probes start three
#: fresh interpreters before the timed run.
RUN_TIMEOUT_S = 600


def workloads() -> list[str]:
    """Workload names, in the order ``BENCHMARK.json`` lists them."""
    declaration = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    return [entry["name"] for entry in declaration["workloads"]]


def run_workload(name: str, seconds: float, seed: int) -> str | None:
    """Run one workload; ``None`` when it passed, else a diagnosis."""
    command = [
        sys.executable, "perfbench/run.py",
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    try:
        completed = subprocess.run(
            command, cwd=REPO_ROOT, capture_output=True, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return f"did not finish within {RUN_TIMEOUT_S} s"
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        tail = completed.stderr.strip().splitlines()[-1:] or ["no output"]
        return f"exit status {completed.returncode}: {tail[0]}"
    result = json.loads(lines[-1])
    record = json.loads(lines[-2]) if len(lines) > 1 else {}
    metrics = ", ".join(
        f"{metric}={entry['value']:.4g}"
        for metric, entry in result.get("metrics", {}).items()
    )
    print(
        f"{name}: attempted={result.get('attempted')} "
        f"failed={result.get('failed')} correct={result.get('correct')} "
        f"{metrics}"
    )
    if not result.get("correct"):
        return f"incorrect output: {record.get('problems')}"
    if result.get("failed") != 0:
        return (
            f"{result.get('failed')} of {result.get('attempted')} "
            f"operations failed; first error: {record.get('first_error')}"
        )
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    failures = []
    for name in workloads():
        diagnosis = run_workload(name, args.seconds, args.seed)
        if diagnosis is not None:
            failures.append(f"{name}: {diagnosis}")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
