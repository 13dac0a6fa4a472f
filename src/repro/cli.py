"""Command-line interface.

Subcommands mirroring how a downstream user would drive the library:

* ``repro-sim run`` — simulate a scenario under a policy and print the
  evaluation summary;
* ``repro-sim compare`` — FIFO vs DRF vs CODA on the same trace;
* ``repro-sim sweep`` — a fault-tolerant, resumable policy x seed grid
  with supervised workers and a crash-safe progress ledger;
* ``repro-sim trace`` — generate a synthetic trace and write it to JSONL;
* ``repro-sim characterize`` — print a model's Sec.-IV characterization.

All output is plain text; exit code 0 on success (``sweep`` exits 1 when
any grid cell was quarantined, and 130 when a SIGINT/SIGTERM stopped it
— after journalling ``interrupted`` cells and flushing partial results
and the report).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.invariants import DEFAULT_AUDIT_INTERVAL_S, InvariantAuditor
from repro.core.coda import CodaConfig
from repro.core.eliminator import CHAOS_FLAP_COOLDOWN_S, EliminatorConfig
from repro.experiments.scenarios import (
    Scenario,
    grid_specs,
    paper_scale_scenario,
    run_comparison,
    run_scenario,
    small_scenario,
)
from repro.faults import FaultConfig
from repro.health import HealthConfig, RestartPolicy
from repro.metrics.report import render_table
from repro.metrics.stats import fraction_at_most, fraction_exceeding
from repro.parallel import (
    SCHEDULER_NAMES,
    ResultCache,
    RunSpec,
    SimPool,
    build_scheduler,
    default_cache,
    clamp_jobs,
    default_jobs,
)
from repro.perfmodel.bandwidth import memory_bandwidth_demand
from repro.perfmodel.catalog import ALL_MODEL_NAMES, get_model
from repro.perfmodel.stages import TrainSetup
from repro.perfmodel.utilization import optimal_cores, utilization_curve
from repro.profiling import Profiler
from repro.workload.job import JobKind
from repro.workload.tracegen import TraceConfig, generate_trace
from repro.workload.traceio import save_trace


def _chaos_coda_config(chaos: bool) -> CodaConfig:
    """CODA's config with resilience knobs threaded through.

    Under active fault injection (``chaos``) CODA additionally arms the
    eliminator's flap cooldown; failure-free runs keep the 0-cooldown
    default so their output stays byte-identical to earlier versions.
    """
    return CodaConfig(
        eliminator=EliminatorConfig(
            flap_cooldown_s=CHAOS_FLAP_COOLDOWN_S if chaos else 0.0
        )
    )


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed result cache directory (default: "
        "$REPRO_CACHE_DIR or .repro-cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="always simulate; neither read nor write the result cache",
    )
    parser.add_argument(
        "--cache-stats", action="store_true",
        help="print cache hit/miss/store counters after the run",
    )


def _cache_from_args(args: argparse.Namespace) -> Optional[ResultCache]:
    """The cache the flags select: --no-cache wins, --cache-dir pins the
    directory, otherwise the environment defaults decide."""
    if args.no_cache:
        return None
    return default_cache(args.cache_dir)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="CODA (ICDCS 2020) reproduction — cluster simulator CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a scenario under a policy")
    run.add_argument(
        "--policy", choices=sorted(SCHEDULER_NAMES), default="coda",
        help="scheduling policy (default: coda)",
    )
    run.add_argument(
        "--scale", choices=("small", "paper"), default="small",
        help="cluster scale (default: small = 6 nodes)",
    )
    run.add_argument("--days", type=float, default=0.25, help="trace length")
    run.add_argument("--seed", type=int, default=0, help="trace seed")
    run.add_argument(
        "--mtbf", type=float, default=0.0, metavar="HOURS",
        help="per-node crash MTBF in hours; 0 disables fault injection "
        "(default: 0)",
    )
    run.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed of the fault injector's RNG streams (default: 0)",
    )
    run.add_argument(
        "--max-restarts", type=int, default=5, metavar="N",
        help="failure restarts a job may consume before it is retired to "
        "the dead-job ledger; 0 means unlimited (default: 5)",
    )
    run.add_argument(
        "--quarantine-threshold", type=float, default=3.0, metavar="SCORE",
        help="windowed failure score at which a node is quarantined "
        "(crash/GPU strikes weigh 1.0, telemetry dropouts 0.25; "
        "default: 3.0)",
    )
    run.add_argument(
        "--audit", action="store_true",
        help="run the invariant auditor alongside the simulation and "
        "print its violation report (the run itself is unchanged)",
    )
    run.add_argument(
        "--audit-interval", type=float, default=DEFAULT_AUDIT_INTERVAL_S,
        metavar="SECONDS",
        help="audit sweep cadence in simulated seconds (default: "
        f"{DEFAULT_AUDIT_INTERVAL_S:g})",
    )
    run.add_argument(
        "--profile", action="store_true",
        help="book host time and event counts per event category during "
        "the run and print them after the summary (the run's outputs are "
        "unchanged)",
    )
    run.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="write crash-safe, integrity-checked checkpoints of the run "
        "into DIR (requires --checkpoint-interval)",
    )
    run.add_argument(
        "--checkpoint-interval", type=int, default=None, metavar="EVENTS",
        help="fired-event cadence of the checkpoint writer "
        "(requires --checkpoint-dir)",
    )
    run.add_argument(
        "--restore", default=None, metavar="CKPT",
        help="resume from this checkpoint file; the finished run is "
        "byte-identical to an uninterrupted one",
    )
    _add_cache_flags(run)

    compare = sub.add_parser(
        "compare", help="run FIFO, DRF, and CODA on the same trace"
    )
    compare.add_argument(
        "--scale", choices=("small", "paper"), default="small"
    )
    compare.add_argument("--days", type=float, default=0.25)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the three policy runs (default: "
        "$REPRO_JOBS or 1 = serial)",
    )
    _add_cache_flags(compare)

    sweep = sub.add_parser(
        "sweep",
        help="run a resumable policy x seed grid with supervised workers",
    )
    where = sweep.add_mutually_exclusive_group(required=True)
    where.add_argument(
        "--out", metavar="DIR",
        help="start a fresh sweep in DIR (must not already hold one)",
    )
    where.add_argument(
        "--resume", metavar="DIR",
        help="resume the sweep in DIR: completed cells are skipped via "
        "the progress ledger and result cache",
    )
    sweep.add_argument(
        "--scale", choices=("small", "paper"), default="small"
    )
    sweep.add_argument("--days", type=float, default=0.05)
    sweep.add_argument(
        "--policies", default="fifo,drf,coda", metavar="CSV",
        help="comma-separated policies forming the grid's first axis "
        "(default: fifo,drf,coda)",
    )
    sweep.add_argument(
        "--seeds", default="0", metavar="CSV",
        help="comma-separated trace seeds forming the second axis "
        "(default: 0)",
    )
    sweep.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="supervised worker processes (default: $REPRO_JOBS or 1; "
        "a single-CPU host always degrades to in-process serial)",
    )
    sweep.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="retries per failing cell before it is quarantined "
        "(default: 2)",
    )
    sweep.add_argument(
        "--run-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock ceiling per attempt; the worker is killed past "
        "it (default: none)",
    )
    sweep.add_argument(
        "--heartbeat-timeout", type=float, default=None, metavar="SECONDS",
        help="worker heartbeat silence after which it is presumed hung "
        "and killed (default: none)",
    )
    sweep.add_argument(
        "--backoff-base", type=float, default=0.5, metavar="SECONDS",
        help="first retry delay; doubles per failure, with seeded jitter "
        "(default: 0.5)",
    )
    sweep.add_argument(
        "--checkpoint-interval", type=int, default=None, metavar="EVENTS",
        help="checkpoint each cell every N simulation events under "
        "DIR/checkpoints/ and resume retries from the newest snapshot "
        "(default: off)",
    )
    _add_cache_flags(sweep)

    trace = sub.add_parser("trace", help="generate a synthetic trace (JSONL)")
    trace.add_argument("output", help="output path, e.g. trace.jsonl")
    trace.add_argument("--days", type=float, default=1.0)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--gpu-jobs-per-day", type=float, default=25000.0 / 30.0)
    trace.add_argument("--cpu-jobs-per-day", type=float, default=75000.0 / 30.0)

    character = sub.add_parser(
        "characterize", help="print a model's CPU-demand characterization"
    )
    character.add_argument(
        "model", nargs="?", default="resnet50",
        help=f"one of: {', '.join(ALL_MODEL_NAMES)}",
    )
    character.add_argument("--max-cores", type=int, default=12)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    if args.scale == "paper":
        scenario: Scenario = paper_scale_scenario(
            duration_days=args.days, seed=args.seed
        )
    else:
        scenario = small_scenario(duration_days=args.days, seed=args.seed)
    faults_on = args.mtbf > 0
    if faults_on:
        scenario = scenario.with_faults(
            FaultConfig(seed=args.fault_seed, node_mtbf_s=args.mtbf * 3600.0)
        )
    print(
        f"Simulating {scenario.trace_config.duration_days:g} day(s) on "
        f"{scenario.cluster_config.num_nodes} nodes / "
        f"{scenario.cluster_config.total_gpus} GPUs under "
        f"{args.policy.upper()} (seed {args.seed}"
        + (f", node MTBF {args.mtbf:g} h, fault seed {args.fault_seed}"
           if faults_on else "")
        + ") ..."
    )
    auditor = (
        InvariantAuditor(args.audit_interval) if args.audit else None
    )
    if args.max_restarts < 0:
        print(f"--max-restarts must be >= 0: {args.max_restarts}", file=sys.stderr)
        return 2
    if args.quarantine_threshold <= 0:
        print(
            f"--quarantine-threshold must be positive: "
            f"{args.quarantine_threshold}",
            file=sys.stderr,
        )
        return 2
    if args.checkpoint_interval is not None and args.checkpoint_interval < 1:
        print(
            f"--checkpoint-interval must be >= 1: {args.checkpoint_interval}",
            file=sys.stderr,
        )
        return 2
    if (args.checkpoint_dir is None) != (args.checkpoint_interval is None):
        print(
            "--checkpoint-dir and --checkpoint-interval go together",
            file=sys.stderr,
        )
        return 2
    checkpointing = args.checkpoint_dir is not None or args.restore is not None
    if checkpointing and (args.audit or args.profile):
        print(
            "--checkpoint-dir/--restore cannot be combined with "
            "--audit/--profile",
            file=sys.stderr,
        )
        return 2
    restart_policy = RestartPolicy(
        max_restarts=args.max_restarts if args.max_restarts > 0 else None
    )
    coda_config = (
        _chaos_coda_config(True)
        if args.policy == "coda" and faults_on
        else None
    )
    health_config = (
        HealthConfig(quarantine_threshold=args.quarantine_threshold)
        if faults_on
        else None
    )
    # The auditor and the profiler observe the simulation as it executes,
    # so those runs bypass the result cache — a cached result has nothing
    # left to observe.  Checkpointed (or restored) runs bypass it too:
    # the point is to execute, snapshotting along the way.
    observed = args.audit or args.profile
    pool = SimPool(
        cache=None if observed or checkpointing else _cache_from_args(args)
    )
    profiler = Profiler() if args.profile else None
    if observed:
        scheduler = build_scheduler(
            args.policy,
            coda_config=coda_config,
            restart_policy=restart_policy,
        )
        result = run_scenario(
            scenario,
            scheduler,
            auditor=auditor,
            health_config=health_config,
            profiler=profiler,
        )
    elif checkpointing:
        from repro.checkpoint import CheckpointError, execute_with_checkpoints

        spec = RunSpec(
            scenario=scenario,
            scheduler=args.policy,
            coda_config=coda_config,
            restart_policy=restart_policy,
            health_config=health_config,
        )
        try:
            result = execute_with_checkpoints(
                spec,
                checkpoint_dir=args.checkpoint_dir,
                checkpoint_every_events=args.checkpoint_interval,
                restore_from=args.restore,
            )
        except CheckpointError as error:
            print(f"checkpoint error: {error}", file=sys.stderr)
            return 1
    else:
        spec = RunSpec(
            scenario=scenario,
            scheduler=args.policy,
            coda_config=coda_config,
            restart_policy=restart_policy,
            health_config=health_config,
        )
        result = pool.map([spec])[0]
    collector = result.collector
    gpu_queue = collector.queueing_times(
        JobKind.GPU, include_unstarted_until=result.horizon_s
    )
    cpu_queue = collector.queueing_times(
        JobKind.CPU, include_unstarted_until=result.horizon_s
    )
    tracker = collector.fragmentation
    print(
        render_table(
            ["metric", "value"],
            [
                ("finished GPU jobs", result.finished_gpu_jobs),
                ("finished CPU jobs", result.finished_cpu_jobs),
                ("GPU utilization", f"{collector.gpu_utilization.mean():.3f}"),
                ("GPU active rate", f"{collector.gpu_active_rate.mean():.3f}"),
                (
                    "avg fragmentation",
                    f"{tracker.fragmentation_rate() * tracker.contended_fraction():.3f}",
                ),
                (
                    "GPU jobs queued >10 min",
                    f"{fraction_exceeding(gpu_queue, 600.0):.3f}",
                ),
                (
                    "CPU jobs started <=3 min",
                    f"{fraction_at_most(cpu_queue, 180.0):.3f}",
                ),
                ("preemptions", result.preemptions),
                ("simulation events", result.events_fired),
            ]
            + (
                [
                    ("node failures", collector.faults.node_failures),
                    ("job restarts", result.restarts),
                    (
                        "node downtime",
                        f"{result.node_downtime_s / 3600.0:.2f} h",
                    ),
                    (
                        "lost GPU iterations",
                        f"{collector.faults.lost_gpu_iterations:.0f}",
                    ),
                    (
                        "lost CPU seconds",
                        f"{collector.faults.lost_cpu_seconds:.0f}",
                    ),
                    ("quarantines", result.quarantines),
                    (
                        "quarantine time",
                        f"{result.quarantine_s / 3600.0:.2f} node-h",
                    ),
                    ("dead jobs", result.dead_jobs),
                ]
                + (
                    [("flap suppressions", result.flap_suppressions)]
                    if args.policy == "coda"
                    else []
                )
                if faults_on
                else []
            ),
            title=f"\n{args.policy.upper()} summary:",
        )
    )
    if args.cache_stats:
        print(f"\ncache: {pool.stats.render()}" if pool.cache is not None
              else "\ncache: disabled")
    if profiler is not None:
        print(
            render_table(
                ["category", "events", "seconds", "share"],
                [
                    (name, profiler.counters[name], f"{seconds:.3f}",
                     f"{share:6.1%}")
                    for name, seconds, share in profiler.time_shares()
                ],
                title="\nTime shares (host time per event category):",
            )
        )
    if auditor is not None:
        print()
        print(auditor.report())
        return 0 if auditor.stats.ok else 1
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.scale == "paper":
        scenario: Scenario = paper_scale_scenario(
            duration_days=args.days, seed=args.seed
        )
    else:
        scenario = small_scenario(duration_days=args.days, seed=args.seed)
    if args.jobs is not None:
        if args.jobs < 1:
            print(f"--jobs must be >= 1: {args.jobs}", file=sys.stderr)
            return 2
        # Same single-CPU degradation rule as the sweep service, so the
        # two entry points cannot disagree on one-core hosts
        # (REPRO_SWEEP_FORCE_SPAWN escapes it on both).
        jobs = clamp_jobs(args.jobs)
        if jobs < args.jobs:
            print(
                f"--jobs {args.jobs} clamped to {jobs} on a single-CPU "
                "host (set REPRO_SWEEP_FORCE_SPAWN=1 to force workers)",
                file=sys.stderr,
            )
    else:
        jobs = default_jobs()
    pool = SimPool(jobs=jobs, cache=_cache_from_args(args))
    results = run_comparison(scenario, executor=pool.map)
    rows = []
    for name in ("fifo", "drf", "coda"):
        result = results[name]
        collector = result.collector
        gpu_queue = collector.queueing_times(
            JobKind.GPU, include_unstarted_until=result.horizon_s
        )
        tracker = collector.fragmentation
        rows.append(
            (
                name,
                f"{collector.gpu_utilization.mean():.3f}",
                f"{collector.gpu_active_rate.mean():.3f}",
                f"{tracker.fragmentation_rate() * tracker.contended_fraction():.3f}",
                f"{fraction_at_most(gpu_queue, 1.0):.3f}",
                result.finished_gpu_jobs,
            )
        )
    print(
        render_table(
            [
                "policy",
                "gpu util",
                "active rate",
                "avg frag",
                "gpu no-queue",
                "gpu done",
            ],
            rows,
            title="FIFO vs DRF vs CODA:",
        )
    )
    if args.cache_stats:
        print(f"\ncache: {pool.stats.render()}" if pool.cache is not None
              else "\ncache: disabled")
    return 0


def _csv_list(text: str) -> List[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep import (
        MANIFEST_NAME,
        SupervisorConfig,
        SweepInterrupted,
        run_sweep,
    )

    resuming = args.resume is not None
    out = Path(args.resume if resuming else args.out)
    manifest_path = out / MANIFEST_NAME

    if args.retries < 0:
        print(f"--retries must be >= 0: {args.retries}", file=sys.stderr)
        return 2
    if args.checkpoint_interval is not None and args.checkpoint_interval < 1:
        print(
            f"--checkpoint-interval must be >= 1: {args.checkpoint_interval}",
            file=sys.stderr,
        )
        return 2
    jobs = args.jobs if args.jobs is not None else default_jobs()
    if jobs < 1:
        print(f"--jobs must be >= 1: {jobs}", file=sys.stderr)
        return 2

    if resuming:
        # The manifest pins the grid: a resume re-derives the identical
        # specs, so flag drift cannot silently fork the sweep.
        if not manifest_path.is_file():
            print(
                f"{out} holds no sweep to resume ({MANIFEST_NAME} missing)",
                file=sys.stderr,
            )
            return 2
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        scale = manifest["scale"]
        days = manifest["days"]
        policies = list(manifest["policies"])
        seeds = [int(seed) for seed in manifest["seeds"]]
    else:
        if manifest_path.exists():
            print(
                f"{out} already holds a sweep; use --resume {out} to "
                "continue it",
                file=sys.stderr,
            )
            return 2
        scale = args.scale
        days = args.days
        policies = _csv_list(args.policies)
        seeds = [int(seed) for seed in _csv_list(args.seeds)]
        if not policies or not seeds:
            print("--policies and --seeds must be non-empty", file=sys.stderr)
            return 2

    unknown = [name for name in policies if name not in SCHEDULER_NAMES]
    if unknown:
        print(
            f"unknown policy(ies) {unknown}; expected {SCHEDULER_NAMES}",
            file=sys.stderr,
        )
        return 2

    if scale == "paper":
        scenario: Scenario = paper_scale_scenario(duration_days=days)
    else:
        scenario = small_scenario(duration_days=days)
    specs = grid_specs(scenario, schedulers=policies, seeds=seeds)

    if not resuming:
        out.mkdir(parents=True, exist_ok=True)
        manifest_path.write_text(
            json.dumps(
                {
                    "scale": scale,
                    "days": days,
                    "policies": policies,
                    "seeds": seeds,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )

    config = SupervisorConfig(
        max_retries=args.retries,
        run_timeout_s=args.run_timeout,
        heartbeat_timeout_s=args.heartbeat_timeout,
        backoff_base_s=args.backoff_base,
        checkpoint_every_events=args.checkpoint_interval,
    )
    cache = _cache_from_args(args)
    if cache is None:
        print(
            "warning: caching disabled — a resume cannot skip completed "
            "cells",
            file=sys.stderr,
        )
    print(
        f"{'Resuming' if resuming else 'Starting'} sweep in {out}: "
        f"{len(policies)} policy(ies) x {len(seeds)} seed(s) = "
        f"{len(specs)} cell(s), jobs={jobs}"
    )
    # A SIGTERM (e.g. a batch scheduler's shutdown) gets the same
    # graceful flush as Ctrl-C: both surface as KeyboardInterrupt inside
    # the sweep, which journals interrupted cells, keeps every settled
    # result, and still writes the report before raising.
    def _on_sigterm(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    previous_sigterm = signal.signal(signal.SIGTERM, _on_sigterm)
    interrupted = False
    try:
        result = run_sweep(
            specs,
            out_dir=out,
            jobs=jobs,
            supervisor=config,
            cache=cache,
            resume=resuming,
            title=f"Sweep report — {scale}, {days:g} day(s)",
            log=print,
        )
    except SweepInterrupted as stop:
        interrupted = True
        result = stop.result
    except KeyboardInterrupt:
        # The signal landed outside the supervised batch (during the
        # cache scan or while writing the report); the ledger is still
        # consistent, so a --resume simply continues.
        print("\ninterrupted before the batch settled; resume with "
              f"--resume {out}", file=sys.stderr)
        return 130
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)
    print(
        f"\nexecuted {result.executed} new simulation run(s), reused "
        f"{result.reused}, quarantined {result.quarantined} "
        f"(retries spent: {result.retries})"
    )
    if result.degraded_reason:
        print(f"degraded mode: {result.degraded_reason}")
    print(f"report: {result.report_path}")
    if args.cache_stats:
        print(f"cache: {cache.stats.render()}" if cache is not None
              else "cache: disabled")
    if interrupted:
        print(
            f"interrupted: {result.interrupted} cell(s) unfinished — "
            f"resume with --resume {out}",
            file=sys.stderr,
        )
        return 130
    return 0 if result.ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    config = TraceConfig(
        duration_days=args.days,
        gpu_jobs_per_day=args.gpu_jobs_per_day,
        cpu_jobs_per_day=args.cpu_jobs_per_day,
        seed=args.seed,
    )
    trace = generate_trace(config)
    save_trace(trace, args.output)
    print(
        f"Wrote {len(trace.jobs)} jobs ({len(trace.gpu_jobs)} GPU, "
        f"{len(trace.cpu_jobs)} CPU) to {args.output}"
    )
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    profile = get_model(args.model)
    setup = TrainSetup(1, 1)
    best = optimal_cores(profile, setup)
    print(
        f"{profile.name} ({profile.domain.value}/{profile.arch}, "
        f"{profile.dataset}) — 1N1G optimum: {best} cores, bandwidth "
        f"{memory_bandwidth_demand(profile, setup, best):.1f} GB/s"
    )
    print(
        render_table(
            ["cores", "GPU utilization"],
            [
                (cores, f"{util:.3f}")
                for cores, util in utilization_curve(
                    profile, setup, args.max_cores
                )
            ],
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "characterize":
        return _cmd_characterize(args)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
