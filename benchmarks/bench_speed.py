"""End-to-end simulator speed benchmark.

Runs four canonical scenarios under fixed seeds and records, per scenario:

* ``events_per_sec`` — fired simulation events over wall time (the headline
  throughput number; higher is better);
* ``peak_rss_kb`` — the process peak resident set size after the scenario
  (a high-water mark: it only grows across scenarios in one invocation);
* ``time_shares`` — per-subsystem wall-time shares from a second, profiled
  run of the same scenario (events/sec always comes from the unprofiled
  run).

The scenarios:

* ``replay_1day`` — the paper-scale (80 nodes / 400 GPUs) 1-day CODA
  replay; the acceptance scenario for speedup claims.
* ``chaos_replay`` — a faulted replay: node crashes, GPU failures, and
  telemetry dropouts with health tracking and restart budgets armed.
* ``tuning_storm`` — a small cluster flooded with GPU jobs so the adaptive
  allocator's tuning/slimming machinery dominates.
* ``replay_1week_200node`` — a week on a 200-node / 1,000-GPU cluster at
  2.5x the paper load: the scale-stress scenario where per-event monitor
  and reschedule costs dominate.

Results land in ``BENCH_speed.json`` at the repo root.  The committed file
holds a ``baseline`` section (captured on the pre-optimization code) and a
``current`` section; CI reruns ``--quick`` and fails when a scenario's
events/sec regresses more than ``--tolerance`` (default 20 %) against the
committed ``current`` numbers.

``--matrix`` switches to the scenario-matrix fan-out benchmark: the
3-policy × 4-seed replica matrix timed at ``--jobs 1`` vs ``--jobs N``
(uncached, byte-identity asserted), recorded under the separate
``matrix`` section of ``BENCH_speed.json`` — informational, never gated
by ``--check-against``, since its speedup depends on the host's core
count.

Usage::

    PYTHONPATH=src python benchmarks/bench_speed.py              # full
    PYTHONPATH=src python benchmarks/bench_speed.py --quick      # CI smoke
    PYTHONPATH=src python benchmarks/bench_speed.py --quick \\
        --check-against BENCH_speed.json                         # gate
    PYTHONPATH=src python benchmarks/bench_speed.py --baseline   # re-pin
    PYTHONPATH=src python benchmarks/bench_speed.py --quick --matrix --jobs 4
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from bench_util import fanout_timed, peak_rss_kb, timed  # noqa: E402

from repro import profiling  # noqa: E402
from repro.config import small_cluster  # noqa: E402
from repro.core.coda import CodaConfig, CodaScheduler  # noqa: E402
from repro.core.eliminator import (  # noqa: E402
    CHAOS_FLAP_COOLDOWN_S,
    EliminatorConfig,
)
from repro.experiments.scenarios import (  # noqa: E402
    Scenario,
    grid_specs,
    paper_scale_scenario,
    run_scenario,
    small_scenario,
    week_scale_scenario,
)
from repro.faults import FaultConfig  # noqa: E402
from repro.health import HealthConfig, RestartPolicy  # noqa: E402
from repro.metrics.report import render_table  # noqa: E402
from repro.metrics.serialize import run_result_to_dict  # noqa: E402
from repro.parallel import SCHEDULER_NAMES  # noqa: E402
from repro.schedulers.base import Scheduler  # noqa: E402
from repro.workload.tracegen import TraceConfig  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_speed.json"
SCHEMA_VERSION = 1

#: A scenario setup: (scenario, scheduler factory, health config).
Setup = Tuple[Scenario, Callable[[], Scheduler], Optional[HealthConfig]]


def _coda() -> Scheduler:
    return CodaScheduler(CodaConfig())


def _chaos_coda() -> Scheduler:
    # Mirror the CLI's chaos construction: flap cooldown armed, restart
    # budget enforced.
    config = CodaConfig(
        eliminator=EliminatorConfig(flap_cooldown_s=CHAOS_FLAP_COOLDOWN_S)
    )
    return CodaScheduler(config, restart_policy=RestartPolicy(max_restarts=3))


def replay_1day(quick: bool) -> Setup:
    """The acceptance scenario: paper-scale 1-day CODA replay."""
    days = 0.1 if quick else 1.0
    return paper_scale_scenario(duration_days=days, seed=0), _coda, None


def chaos_replay(quick: bool) -> Setup:
    """Faulted replay with health tracking and restart budgets armed."""
    if quick:
        scenario = small_scenario(duration_days=0.2, seed=5).with_faults(
            FaultConfig(seed=7, node_mtbf_s=2 * 3600.0)
        )
    else:
        scenario = paper_scale_scenario(duration_days=0.5, seed=0).with_faults(
            FaultConfig(seed=7, node_mtbf_s=6 * 3600.0)
        )
    return scenario, _chaos_coda, HealthConfig(quarantine_threshold=1.0)


def tuning_storm(quick: bool) -> Setup:
    """A small cluster flooded with GPU jobs: the adaptive allocator's
    tuning loop and the placement slimming ladder dominate."""
    scenario = Scenario(
        cluster_config=small_cluster(nodes=8),
        trace_config=TraceConfig(
            duration_days=0.05 if quick else 0.25,
            gpu_jobs_per_day=1600.0,
            cpu_jobs_per_day=400.0,
            seed=0,
        ),
        drain_s=2 * 3600.0,
    )
    return scenario, _coda, None


def replay_1week_200node(quick: bool) -> Setup:
    """Week-long 200-node / 1,000-GPU replay (2.5x paper scale)."""
    days = 0.05 if quick else 7.0
    return week_scale_scenario(duration_days=days, seed=0), _coda, None


SCENARIOS: Dict[str, Callable[[bool], Setup]] = {
    "replay_1day": replay_1day,
    "chaos_replay": chaos_replay,
    "tuning_storm": tuning_storm,
    "replay_1week_200node": replay_1week_200node,
}


def run_one(name: str, *, quick: bool) -> Dict[str, object]:
    """Benchmark one scenario: a timed unprofiled run, then a profiled one."""
    build = SCENARIOS[name]

    scenario, make_scheduler, health = build(quick)
    result, wall_s = timed(
        lambda: run_scenario(scenario, make_scheduler(), health_config=health)
    )
    entry: Dict[str, object] = {
        "events_fired": result.events_fired,
        "wall_s": round(wall_s, 3),
        "events_per_sec": round(result.events_fired / wall_s, 1),
        "peak_rss_kb": peak_rss_kb(),
    }

    scenario, make_scheduler, health = build(quick)
    profiler = profiling.enable()
    try:
        _, profiled_wall_s = timed(
            lambda: run_scenario(
                scenario, make_scheduler(), health_config=health
            )
        )
    finally:
        profiling.disable()
    entry["time_shares"] = {
        section: {"seconds": round(seconds, 3), "share": round(share, 4)}
        for section, seconds, share in profiler.time_shares(profiled_wall_s)
    }
    return entry


#: Trace seeds of the matrix mode's replica fan-out.
MATRIX_SEEDS = (0, 1, 2, 3)


def matrix_specs(quick: bool) -> list:
    """The scenario matrix: every policy × every replica seed.

    This is the multi-seed fan-out shape every sweep in the evaluation
    reduces to — independent runs differing only in policy and trace seed.
    """
    days = 0.05 if quick else 0.25
    base = paper_scale_scenario(duration_days=days, seed=0)
    return grid_specs(base, schedulers=SCHEDULER_NAMES, seeds=MATRIX_SEEDS)


def run_matrix(*, quick: bool, jobs: int) -> Dict[str, object]:
    """Aggregate wall-clock of the matrix at jobs=1 vs ``jobs`` workers.

    Both passes run uncached (pure compute); the parallel pass must
    reproduce the serial results byte-for-byte or the benchmark aborts.
    The parallel pass runs under the sweep supervisor — the only
    multi-process path — so the timing includes one spawn and import
    per persistent worker plus the crash/retry machinery's overhead.
    """
    from repro.sweep import SupervisorConfig

    specs = matrix_specs(quick)
    print(f"[bench] matrix: {len(specs)} runs serial ...", flush=True)
    serial_results, serial_wall = fanout_timed(specs, jobs=1)
    print(f"[bench] matrix: {len(specs)} runs at --jobs {jobs} ...", flush=True)
    parallel_results, parallel_wall = fanout_timed(
        specs, jobs=jobs, supervisor=SupervisorConfig()
    )
    for spec, serial, parallel in zip(specs, serial_results, parallel_results):
        if json.dumps(run_result_to_dict(serial), sort_keys=True) != json.dumps(
            run_result_to_dict(parallel), sort_keys=True
        ):
            raise RuntimeError(
                f"parallel result diverged from serial for {spec.scheduler} "
                f"seed {spec.seed}"
            )
    return {
        "runs": len(specs),
        "jobs": jobs,
        # Context for the speedup: fan-out cannot beat physical cores, so
        # a 1-core host legitimately records < 1x (spawn overhead, no
        # parallelism) while the byte-identity assertion still bites.
        "host_cpus": os.cpu_count() or 1,
        "serial_wall_s": round(serial_wall, 3),
        "parallel_wall_s": round(parallel_wall, 3),
        "speedup": round(serial_wall / parallel_wall, 2),
        "byte_identical": True,
    }


def load_json(path: Path) -> Dict[str, object]:
    if path.exists():
        with path.open() as handle:
            return json.load(handle)
    return {"schema": SCHEMA_VERSION}


def check_regressions(
    fresh: Dict[str, Dict[str, object]],
    committed: Dict[str, object],
    *,
    mode: str,
    tolerance: float,
    rerun: Optional[Callable[[str], Dict[str, object]]] = None,
    retries: int = 2,
) -> int:
    """Compare fresh events/sec against the committed ``current`` numbers.

    Returns the number of regressed scenarios (0 = gate passes).  Missing
    committed entries are skipped with a notice, so adding a scenario does
    not break the gate before its numbers are committed.

    The quick variants finish in tens of milliseconds, where one unlucky
    host-scheduling blip can shave 25 % off a single reading.  When
    ``rerun`` is given, a below-floor scenario is therefore re-measured up
    to ``retries`` more times and only counted as regressed if *every*
    attempt lands below the floor — a genuine regression fails all of
    them, while a noise outlier clears the bar on a repeat.
    """
    reference = committed.get("current", {}).get(mode, {})
    regressions = 0
    for name, entry in fresh.items():
        pinned = reference.get(name)
        if pinned is None:
            print(f"[check] {name}: no committed {mode} number, skipping")
            continue
        pinned_eps = float(pinned["events_per_sec"])
        fresh_eps = float(entry["events_per_sec"])
        floor = pinned_eps * (1.0 - tolerance)
        attempts = 0
        while fresh_eps < floor and rerun is not None and attempts < retries:
            attempts += 1
            print(
                f"[check] {name}: {fresh_eps:.0f} ev/s below floor "
                f"{floor:.0f}, re-measuring (attempt {attempts + 1})"
            )
            fresh_eps = float(rerun(name)["events_per_sec"])
        verdict = "OK" if fresh_eps >= floor else "REGRESSED"
        print(
            f"[check] {name}: {fresh_eps:.0f} ev/s vs committed "
            f"{pinned_eps:.0f} (floor {floor:.0f}) -> {verdict}"
        )
        if fresh_eps < floor:
            regressions += 1
    return regressions


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="run the shortened scenario variants (the CI smoke set)",
    )
    parser.add_argument(
        "--baseline", action="store_true",
        help="record results under the 'baseline' section instead of "
        "'current' (re-pinning the pre-optimization reference)",
    )
    parser.add_argument(
        "--scenario", choices=sorted(SCENARIOS), action="append",
        help="run only the named scenario(s); default: all",
    )
    parser.add_argument(
        "--matrix", action="store_true",
        help="instead of the per-scenario throughput set, time the "
        "policy×seed scenario matrix at --jobs 1 vs --jobs N and record "
        "the aggregate fan-out speedup under the 'matrix' section",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the --matrix parallel pass "
        "(default: the machine's CPU count)",
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT,
        help=f"result JSON path (default: {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--check-against", type=Path, metavar="PATH",
        help="after running, fail if any scenario's events/sec is more "
        "than --tolerance below this file's 'current' numbers",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.2,
        help="allowed fractional events/sec regression (default: 0.2)",
    )
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"

    if args.matrix:
        jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
        entry = run_matrix(quick=args.quick, jobs=jobs)
        print(
            render_table(
                ["runs", "jobs", "serial_s", "parallel_s", "speedup"],
                [
                    (
                        entry["runs"],
                        entry["jobs"],
                        entry["serial_wall_s"],
                        entry["parallel_wall_s"],
                        f"{entry['speedup']:.2f}x",
                    )
                ],
                title=f"\nbench_speed matrix ({mode}):",
            )
        )
        data = load_json(args.output)
        data["schema"] = SCHEMA_VERSION
        data.setdefault("matrix", {})[mode] = entry
        args.output.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"\n[bench] wrote matrix/{mode} results to {args.output}")
        return 0

    names = args.scenario or sorted(SCENARIOS)
    fresh: Dict[str, Dict[str, object]] = {}
    for name in names:
        print(f"[bench] {name} ({mode}) ...", flush=True)
        fresh[name] = run_one(name, quick=args.quick)

    rows = [
        (
            name,
            entry["events_fired"],
            entry["wall_s"],
            entry["events_per_sec"],
            entry["peak_rss_kb"],
        )
        for name, entry in fresh.items()
    ]
    print()
    print(
        render_table(
            ["scenario", "events", "wall_s", "events/sec", "peak_rss_kb"],
            rows,
            title=f"bench_speed ({mode}):",
        )
    )

    # Read the committed reference for gating BEFORE overwriting the file
    # (the default output path is also the committed baseline path).
    committed: Optional[Dict[str, object]] = None
    if args.check_against is not None:
        committed = load_json(args.check_against)

    data = load_json(args.output)
    data["schema"] = SCHEMA_VERSION
    section = "baseline" if args.baseline else "current"
    data.setdefault(section, {}).setdefault(mode, {}).update(fresh)
    args.output.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"\n[bench] wrote {section}/{mode} results to {args.output}")

    if committed is not None:
        regressions = check_regressions(
            fresh,
            committed,
            mode=mode,
            tolerance=args.tolerance,
            rerun=lambda name: run_one(name, quick=args.quick),
        )
        if regressions:
            print(f"[bench] FAIL: {regressions} scenario(s) regressed")
            return 1
        print("[bench] regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
