"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_small|frontier_mix|edit_chain \\
        --seed N --seconds S --trace 0|1

Inputs are generated from ``--seed``; the program under test is imported
from this checkout's ``src``.  The output is a human-readable report, a
``report {...}`` JSON line with every metric, its sample count and the
run's provenance, and last a JSON result line with the declared
end-to-end (``--trace 0``) or per-layer (``--trace 1``) metrics.  Exit 0
means every verdict was checked and right; 1 means a wrong verdict; 2 a
usage error or a missing program; 3 an invalid run.  Spans of a traced
run are written to ``.perfbench/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve_small", "frontier_mix", "edit_chain")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _provenance(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _raise_interrupt(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    signal.signal(signal.SIGTERM, _raise_interrupt)

    from perfbench import metrics, spans, workloads
    from perfbench.server import BenchError, refuse_if_live

    run_dir = ROOT / ".perfbench"
    run_dir.mkdir(exist_ok=True)
    recorder = spans.Recorder(enabled=args.trace == 1)
    stop = threading.Event()
    try:
        refuse_if_live(run_dir)
        outcome = getattr(workloads, args.workload)(
            ROOT, run_dir, args.seed, args.seconds, recorder, stop
        )
    except BenchError as exc:
        print(f"perfbench: invalid run: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        stop.set()
        print("perfbench: interrupted", file=sys.stderr)
        return 130
    if recorder.enabled:
        recorder.write(run_dir / f"spans-{args.workload}-{args.seed}.jsonl")

    declared = metrics.PER_LAYER if recorder.enabled else metrics.END_TO_END
    units = {**metrics.END_TO_END, **metrics.REPORT_ONLY, **metrics.PER_LAYER}
    for name in declared:
        # A layer this workload never calls reports 0 from 0 samples.
        outcome.metrics.setdefault(name, (0.0, 0))
    wrong = int(outcome.metrics["wrong_verdicts"][0])
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": _provenance(args.seed),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name, ""), "samples": samples}
            for name, (value, samples) in sorted(outcome.metrics.items())
        },
        "notes": outcome.notes,
    }
    for name, (value, samples) in sorted(outcome.metrics.items()):
        print(f"{name:<40} {value:>14.6g} {units.get(name, ''):<14} n={samples}")
    for problem in outcome.notes.get("problems", []):
        print(f"PROBLEM: {problem}")
    print("report " + json.dumps(report, sort_keys=True, default=str))
    result = {
        "correct": wrong == 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name][0], "unit": unit}
            for name, unit in declared.items()
        },
    }
    print(json.dumps(result))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
