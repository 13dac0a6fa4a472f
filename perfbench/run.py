"""The repository benchmark: one workload, one seed, every metric.

Usage, from the repository root::

    python3 perfbench/run.py --workload replay_week_200node --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (``run_s``, ``setup_s``,
``peak_rss_mb``), ``--trace 1`` the per-layer split of host time.  The
workload runs in a child process of its own, so its peak RSS is its own.
The last line of standard output is one JSON object::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("replay_week_200node", "tuning_storm", "chaos_replay", "sweep_grid")

#: The seed no tuning of this benchmark or of a change it judges has used.
#: Check a claimed gain on it last.
HELD_OUT_SEED = 7919

#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 170.0

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

MODEL_NOTE = (
    "the simulator's model is not validated against real hardware, so no "
    "accuracy figure is given; correctness here means identical result "
    "digests"
)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def child_main(args: argparse.Namespace) -> int:
    """Measure in this process and print the raw record as JSON."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    record = workloads.run_child(
        args.workload, args.seed, float(args.seconds), bool(args.trace)
    )
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # ru_maxrss is in KiB on Linux.  The sweep's workers are separate
    # processes that ran beside this one, so their peak adds to it.
    record["peak_rss_mb"] = (own + workers) / 1024.0
    print(json.dumps(record))
    return 0


def child_env() -> Dict[str, str]:
    """The child's environment: no ``REPRO_*`` switches, fixed hash seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    return env


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return completed.stdout.strip() or "unknown"


def fingerprint() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def run_child(args: argparse.Namespace) -> Dict[str, Any]:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--child",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    completed = subprocess.run(
        command,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"workload process exited with {completed.returncode}")
    lines = completed.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("workload process printed no record")
    return json.loads(lines[-1])


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    try:
        record = run_child(args)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as error:
        print(f"error: {args.workload}: {error}", file=sys.stderr)
        return 1

    attempted = int(record["attempted"])
    failed = int(record["failed"])
    if args.trace:
        measured = dict(record["metrics"])
        measured["failed_run_share"] = failed / attempted if attempted else 1.0
        metrics, units = per_layer(measured)
    else:
        if record["run_s"] is None:
            print(f"error: {args.workload}: every run failed", file=sys.stderr)
            for problem in record["problems"]:
                print(f"  {problem}", file=sys.stderr)
            return 1
        metrics = {name: record[name] for name in END_TO_END_UNITS}
        units = END_TO_END_UNITS

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "inputs": record["inputs"],
        "host": fingerprint(),
        "digests": record["digests"],
        "problems": record["problems"],
        "note": MODEL_NOTE,
    }
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{record['inputs']} input(s), trace {args.trace}")
    print(f"note: {MODEL_NOTE}")
    for problem in record["problems"]:
        print(f"FAILED: {problem}")
    for name in sorted(metrics):
        print(f"  {name:<40} {metrics[name]:>16.6g} {units[name]}")
    print("report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def per_layer(measured: Dict[str, float]) -> Tuple[Dict[str, float], Dict[str, str]]:
    """The per-layer metrics BENCHMARK.json names, in its order, with units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
    missing = sorted(set(units) - set(measured))
    if missing:
        raise SystemExit(f"error: the traced run did not report {missing}")
    return {name: measured[name] for name in units}, units


if __name__ == "__main__":
    sys.exit(main())
