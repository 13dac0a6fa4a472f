"""CI gate: perfbench's exact work counts, result digests and host time.

For every perfbench workload this runs ``perfbench/run.py --seed 1
--seconds 1`` twice: traced (one input), for the per-layer work counts, and
untraced (two inputs plus the twin re-run), for the result digests and
``run_s``.  It compares them with the committed ``BENCH_counts.json`` and
fails when, for any workload:

* a work count differs.  A rise is a regression; a drop means the file is
  stale, so a change that lowers a count rewrites it with ``--write`` and
  says so;
* a result digest differs: fixed seeds must give the same bytes on every
  commit and every supported Python;
* ``run_s`` exceeds 1.20x the value committed for the running Python
  (3.10 is markedly slower than 3.11) three times in a row: the first
  reading plus two re-measures, since a single sample is noisy.

A workload missing from the file is skipped with a notice, and so is the
host-time check on a Python with no committed ``run_s``.  ``--write``
replaces the counts and digests, and the running Python's ``run_s``; it
keeps the other Pythons' ``run_s``, so a change that moves host time on
purpose rewrites the file under each of them.  Counts and digests repeat
exactly for a fixed seed on every supported Python; only the host-time
check reads the clock, and only through perfbench.

Usage, from the repository root::

    python tools/check_bench.py            # check against BENCH_counts.json
    python tools/check_bench.py --write    # regenerate BENCH_counts.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from perfbench.run import WORKLOADS  # noqa: E402

COUNTS_FILE = REPO_ROOT / "BENCH_counts.json"
PERFBENCH = REPO_ROOT / "perfbench" / "run.py"
SEED = 1
SECONDS = 1
#: The key committed ``run_s`` values are filed under.
PYTHON = "{}.{}".format(*sys.version_info[:2])

#: The per-layer work counts that must match exactly.
COUNTS = (
    "sim.events",
    "sim.stale_fires",
    "schedulers.pass_calls",
    "schedulers.freestate_calls",
    "schedulers.place_calls",
    "schedulers.decisions",
    "perfmodel.iteration_time_calls",
    "core.eliminator_nodes_scanned",
)

#: Fresh ``run_s`` may be at most this share above the committed value.
TOLERANCE = 0.20
#: Re-measures of a too-slow ``run_s`` before the check fails.
RETRIES = 2

#: One workload's measurement: ``counts``, ``digests``, ``run_s`` and, for
#: the pooled sweep, the fan-out ``speedup`` (recorded, never gated).  In
#: the committed file ``run_s`` maps each Python to its own value.
Record = Dict[str, Any]


def perfbench(workload: str, trace: int) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Run perfbench once; return its metrics and its ``report`` line."""
    completed = subprocess.run(
        [
            sys.executable, str(PERFBENCH),
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", str(SECONDS),
            "--trace", str(trace),
        ],
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        text=True,
        check=False,
    )
    lines = completed.stdout.splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload}: perfbench --trace {trace} exited with "
            f"{completed.returncode}"
        )
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(
            f"{workload}: perfbench --trace {trace} failed "
            f"{result['failed']} of {result['attempted']} runs"
        )
    report = json.loads(
        next(line for line in lines if line.startswith("report ")).partition(" ")[2]
    )
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    return metrics, report


def run_s(workload: str) -> float:
    """A fresh untraced ``run_s`` reading."""
    return perfbench(workload, 0)[0]["run_s"]


def measure(workload: str) -> Tuple[Record, Dict[str, Any]]:
    """One workload's record, and the host the untraced run reported."""
    traced, _ = perfbench(workload, 1)
    untraced, report = perfbench(workload, 0)
    record: Record = {
        "counts": {name: traced[name] for name in COUNTS},
        "digests": report["digests"],
        "run_s": untraced["run_s"],
    }
    if workload == "sweep_grid":
        record["speedup"] = traced["parallel.speedup"]
    return record, report["host"]


def compare(fresh: Record, pinned: Record) -> List[str]:
    """The exact checks: every work count and every result digest."""
    problems = []
    for name in COUNTS:
        new, old = fresh["counts"][name], pinned["counts"][name]
        if new > old:
            problems.append(f"{name} rose {old:g} -> {new:g}")
        elif new < old:
            problems.append(
                f"{name} dropped {old:g} -> {new:g}; if intended, rewrite "
                f"{COUNTS_FILE.name} with --write"
            )
    if fresh["digests"] != pinned["digests"]:
        problems.append("result digests differ from the committed ones")
    return problems


def host_time_ok(
    name: str,
    fresh_s: float,
    pinned_s: float,
    rerun: Optional[Callable[[str], float]] = None,
    retries: int = RETRIES,
) -> bool:
    """Whether ``run_s`` stays within the tolerance, re-measuring through
    ``rerun`` up to ``retries`` times before giving up."""
    limit = pinned_s * (1.0 + TOLERANCE)
    attempts = 0
    while fresh_s > limit and rerun is not None and attempts < retries:
        attempts += 1
        print(
            f"[check] {name}: run_s {fresh_s:.3f} s over limit {limit:.3f} s, "
            f"re-measuring (attempt {attempts + 1})"
        )
        fresh_s = rerun(name)
    ok = fresh_s <= limit
    print(
        f"[check] {name}: run_s {fresh_s:.3f} s vs committed {pinned_s:.3f} s "
        f"(limit {limit:.3f} s) -> {'OK' if ok else 'SLOWER'}"
    )
    return ok


def check(
    fresh: Dict[str, Record],
    committed: Dict[str, Record],
    *,
    rerun: Optional[Callable[[str], float]] = None,
    retries: int = RETRIES,
) -> int:
    """The number of workloads that fail the gate; prints every verdict."""
    failures = 0
    for name, record in fresh.items():
        pinned = committed.get(name)
        if pinned is None:
            print(f"[check] {name}: not in {COUNTS_FILE.name}, skipped")
            continue
        problems = compare(record, pinned)
        for problem in problems:
            print(f"[check] {name}: FAIL {problem}")
        if not problems:
            print(f"[check] {name}: counts and digests match")
        pinned_s = pinned["run_s"].get(PYTHON)
        if pinned_s is None:
            print(f"[check] {name}: no run_s committed for Python {PYTHON}, "
                  "host time not checked")
        elif not host_time_ok(name, record["run_s"], pinned_s, rerun, retries):
            problems.append("run_s")
        failures += bool(problems)
    return failures


def write(
    fresh: Dict[str, Record], old: Dict[str, Any], host: Dict[str, Any]
) -> None:
    """Commit ``fresh``, keeping other Pythons' ``run_s`` and hosts."""
    workloads = {}
    for name, record in fresh.items():
        times = dict(old.get("workloads", {}).get(name, {}).get("run_s", {}))
        times[PYTHON] = record["run_s"]
        workloads[name] = dict(record, run_s=times)
    hosts = dict(old.get("hosts", {}), **{PYTHON: host})
    data = {"seed": SEED, "seconds": SECONDS, "hosts": hosts, "workloads": workloads}
    COUNTS_FILE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"[bench] wrote {COUNTS_FILE}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true",
        help=f"regenerate {COUNTS_FILE.name} from this tree instead of "
        "checking against it",
    )
    args = parser.parse_args(argv)
    if COUNTS_FILE.exists():
        committed = json.loads(COUNTS_FILE.read_text())
    elif args.write:
        committed = {}
    else:
        print(f"[bench] FAIL: no {COUNTS_FILE.name}; create it with --write",
              file=sys.stderr)
        return 1

    fresh: Dict[str, Record] = {}
    host: Dict[str, Any] = {}
    try:
        for name in WORKLOADS:
            print(f"[bench] {name} ...", flush=True)
            fresh[name], host = measure(name)
            if "speedup" in fresh[name]:
                print(f"[bench] {name}: fan-out speedup {fresh[name]['speedup']:.2f}x")
        if args.write:
            write(fresh, committed, host)
            return 0
        failures = check(fresh, committed["workloads"], rerun=run_s)
    except RuntimeError as error:
        print(f"[bench] FAIL: {error}", file=sys.stderr)
        return 1
    if failures:
        print(f"[bench] FAIL: {failures} workload(s) failed the gate")
        return 1
    print("[bench] gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
