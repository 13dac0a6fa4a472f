"""One entry point per paper figure/table.

Each function returns plain data (lists/dicts of rows) and the benchmark
suite renders them with :mod:`repro.metrics.report`.  Functions that need
the expensive three-policy cluster runs share them through
:func:`run_cached_comparison`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.cluster.node import Node
from repro.config import NodeConfig
from repro.core.coda import CodaConfig, CodaScheduler
from repro.core.eliminator import EliminatorConfig
from repro.core.tuning import TuningSession
from repro.experiments.runner import RunResult, SimulationRunner
from repro.experiments.scenarios import (
    Scenario,
    paper_scale_scenario,
    run_comparison,
)
from repro.metrics.stats import (
    cdf_points,
    fraction_at_most,
    fraction_exceeding,
    mean,
    percentile,
)
from repro.perfmodel.bandwidth import memory_bandwidth_demand
from repro.perfmodel.catalog import ALL_MODEL_NAMES, get_model
from repro.perfmodel.contention import ContentionState
from repro.perfmodel.pcie import pcie_grant_ratio, pcie_peak_demand
from repro.perfmodel.speed import iteration_time, training_speed
from repro.perfmodel.stages import TrainSetup
from repro.perfmodel.utilization import optimal_cores, utilization_curve
from repro.workload.heat import HEAT_GBPS_PER_THREAD, HEAT_LLC_MB_PER_THREAD
from repro.workload.job import JobKind
from repro.workload.tracegen import TraceConfig, generate_trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel import SimPool

#: The configurations Figs. 3/5/6 sweep.
CHARACTERIZATION_SETUPS = ("1N1G", "1N2G", "1N4G", "2N4G")


# ---------------------------------------------------------------------- #
# Shared cluster runs (Figs. 1, 2, 10-14, fragmentation, ablation)


def _figure_pool() -> "SimPool":
    """The executor the expensive cluster figures share.

    Honours ``REPRO_JOBS`` / ``REPRO_CACHE_DIR`` / ``REPRO_NO_CACHE``, so
    a figure regeneration sweep fans out and re-uses prior runs without
    any figure function knowing.  Built per call — the disk cache, not
    the pool object, carries state worth keeping.
    """
    from repro.parallel import SimPool, default_cache, default_jobs

    return SimPool(jobs=default_jobs(), cache=default_cache())


@lru_cache(maxsize=4)
def run_cached_comparison(
    duration_days: float = 1.0, seed: int = 3
) -> Dict[str, RunResult]:
    """FIFO/DRF/CODA on the identical paper-scale trace, memoized."""
    scenario = paper_scale_scenario(duration_days=duration_days, seed=seed)
    return run_comparison(scenario, executor=_figure_pool().map)


# ---------------------------------------------------------------------- #
# Fig. 1 — weekly CPU/GPU active & utilization trend


def fig1_cluster_trend(
    duration_days: float = 2.0, seed: int = 3
) -> Dict[str, List[Tuple[float, float]]]:
    """The Fig. 1 series under the status-quo FIFO policy."""
    from repro.parallel import RunSpec

    scenario = paper_scale_scenario(duration_days=duration_days, seed=seed)
    spec = RunSpec(scenario=scenario, scheduler="fifo")
    result = _figure_pool().map([spec])[0]
    collector = result.collector
    return {
        "gpu_active_rate": collector.gpu_active_rate.points,
        "gpu_utilization": collector.gpu_utilization.points,
        "cpu_active_rate": collector.cpu_active_rate.points,
    }


# ---------------------------------------------------------------------- #
# Fig. 2 — trace characteristics


def fig2_job_characteristics(
    duration_days: float = 2.0, seed: int = 3
) -> Dict[str, object]:
    """Job-type breakdown, queueing CDF under FIFO, requested-core split."""
    results = run_cached_comparison(seed=seed)
    fifo = results["fifo"]
    trace = generate_trace(
        paper_scale_scenario(duration_days=duration_days, seed=seed).trace_config
    )
    gpu_jobs = trace.gpu_jobs
    per_gpu_requests = [
        job.requested_cpus / job.setup.gpus_per_node for job in gpu_jobs
    ]
    # Fig. 2a: job-type breakdown per tenant group.
    from repro.workload.tenants import paper_tenants

    kind_of = {t.tenant_id: t.kind for t in paper_tenants()}
    group_counts: Dict[str, Dict[str, int]] = {}
    for job in trace.jobs:
        group = kind_of[job.tenant_id].value
        bucket = group_counts.setdefault(group, {"gpu": 0, "cpu": 0})
        bucket[job.kind.value] += 1
    gq = fifo.collector.queueing_times(
        JobKind.GPU, include_unstarted_until=fifo.horizon_s
    )
    cq = fifo.collector.queueing_times(
        JobKind.CPU, include_unstarted_until=fifo.horizon_s
    )
    return {
        "group_breakdown": group_counts,
        "gpu_job_fraction": len(gpu_jobs) / len(trace.jobs),
        "cpu_job_fraction": len(trace.cpu_jobs) / len(trace.jobs),
        "requested_1_2": mean([1.0 if r <= 2 else 0.0 for r in per_gpu_requests]),
        "requested_over_10": mean(
            [1.0 if r > 10 else 0.0 for r in per_gpu_requests]
        ),
        "gpu_wait_over_3min": fraction_exceeding(gq, 180.0),
        "gpu_wait_over_10min": fraction_exceeding(gq, 600.0),
        "cpu_within_10s": fraction_at_most(cq, 10.0),
        "gpu_queue_cdf": cdf_points(gq),
        "cpu_queue_cdf": cdf_points(cq),
    }


# ---------------------------------------------------------------------- #
# Fig. 3 — utilization/speed vs core count


def fig3_core_sweep(
    setups: Sequence[str] = ("1N1G", "1N4G"), max_cores: int = 16
) -> Dict[str, Dict[str, List[Tuple[int, float, float]]]]:
    """(cores, speed, utilization) series per model per configuration."""
    sweep: Dict[str, Dict[str, List[Tuple[int, float, float]]]] = {}
    for name in ALL_MODEL_NAMES:
        profile = get_model(name)
        sweep[name] = {}
        for label in setups:
            setup = TrainSetup.parse(label)
            rows = [
                (cores, training_speed(profile, setup, cores), util)
                for cores, util in utilization_curve(
                    profile, setup, max_cores=max_cores
                )
            ]
            sweep[name][label] = rows
    return sweep


# ---------------------------------------------------------------------- #
# Fig. 5 — optimal core count per model / config / batch size


def fig5_optimal_cores() -> List[Tuple[str, str, str, int]]:
    """(model, config, batch-kind, optimal cores) rows."""
    rows: List[Tuple[str, str, str, int]] = []
    for name in ALL_MODEL_NAMES:
        profile = get_model(name)
        for label in CHARACTERIZATION_SETUPS:
            for batch_kind, batch in (
                ("default", profile.default_batch),
                ("max", profile.max_batch),
            ):
                setup = TrainSetup.parse(label, batch=batch)
                rows.append(
                    (name, label, batch_kind, optimal_cores(profile, setup))
                )
    return rows


# ---------------------------------------------------------------------- #
# Fig. 6 — memory-bandwidth demand


def fig6_bandwidth_demand() -> List[Tuple[str, str, str, float]]:
    """(model, config, batch-kind, GB/s at the optimal allocation) rows."""
    rows: List[Tuple[str, str, str, float]] = []
    for name in ALL_MODEL_NAMES:
        profile = get_model(name)
        for label in CHARACTERIZATION_SETUPS:
            for batch_kind, batch in (
                ("default", profile.default_batch),
                ("max", profile.max_batch),
            ):
                setup = TrainSetup.parse(label, batch=batch)
                best = optimal_cores(profile, setup)
                rows.append(
                    (
                        name,
                        label,
                        batch_kind,
                        memory_bandwidth_demand(profile, setup, best),
                    )
                )
    return rows


# ---------------------------------------------------------------------- #
# Fig. 7 — normalized 1N1G performance under HEAT pressure


def fig7_contention(
    heat_threads: Sequence[int] = (0, 4, 8, 12, 16),
    node_config: Optional[NodeConfig] = None,
) -> List[Tuple[str, int, float, float]]:
    """(model, heat threads, node pressure, normalized performance) rows.

    Reproduces the Sec. IV-C2 experiment: one 1N1G training job at its
    optimal allocation co-located with a HEAT instance of growing thread
    count; performance normalized to the quiet node.
    """
    node_config = node_config or NodeConfig()
    rows: List[Tuple[str, int, float, float]] = []
    for name in ALL_MODEL_NAMES:
        profile = get_model(name)
        setup = TrainSetup(1, 1)
        best = optimal_cores(profile, setup)
        quiet_speed = training_speed(profile, setup, best)
        for threads in heat_threads:
            node = Node(node_id=0, config=node_config)
            node.allocate("trainer", best, 1)
            node.register_memory_traffic(
                "trainer",
                memory_bandwidth_demand(profile, setup, best),
                is_cpu_job=False,
            )
            if threads > 0:
                node.allocate("heat", min(threads, node.free_cpus), 0)
                node.register_memory_traffic(
                    "heat",
                    HEAT_GBPS_PER_THREAD * threads,
                    is_cpu_job=True,
                    llc_mb=HEAT_LLC_MB_PER_THREAD * threads,
                )
            state = ContentionState(
                bw_grant_ratio=max(node.bandwidth.grant_ratio("trainer"), 1e-6),
                node_bw_pressure=node.bandwidth.pressure,
                llc_pressure=node.llc_pressure,
            )
            speed = training_speed(profile, setup, best, state)
            rows.append(
                (name, threads, node.bandwidth.pressure, speed / quiet_speed)
            )
    return rows


# ---------------------------------------------------------------------- #
# Sec. IV-C3 — PCIe co-location


def pcie_colocation(
    node_config: Optional[NodeConfig] = None,
) -> List[Tuple[str, str, str, float, float]]:
    """(model A, model B, configs, PCIe grant ratio, A's normalized perf)."""
    node_config = node_config or NodeConfig()
    pairs = [
        ("alexnet", "resnet50", "1N2G"),
        ("alexnet", "alexnet", "1N1G"),
        ("resnet50", "transformer", "1N2G"),
        ("transformer", "deepspeech", "1N2G"),
        ("vgg16", "wavenet", "1N2G"),
    ]
    rows: List[Tuple[str, str, str, float, float]] = []
    for left_name, right_name, label in pairs:
        left, right = get_model(left_name), get_model(right_name)
        setup = TrainSetup.parse(label)
        demands = [
            pcie_peak_demand(left, setup),
            pcie_peak_demand(right, setup),
        ]
        ratio = pcie_grant_ratio(demands, node_config.pcie_gbps)
        best = optimal_cores(left, setup)
        quiet = training_speed(left, setup, best)
        contended = training_speed(
            left, setup, best, ContentionState(pcie_grant_ratio=ratio)
        )
        rows.append((left_name, right_name, label, ratio, contended / quiet))
    return rows


# ---------------------------------------------------------------------- #
# Table II — profiling overhead of the adaptive allocator


@dataclass(frozen=True)
class ProfilingOverheadRow:
    model: str
    n_start: int
    optimal: int
    profiling_steps: int
    training_iterations: int


#: Tenant history entries the Table-II experiment assumes: the owner ran
#: each model before, so N_start is at (or one below) the optimum — that is
#: the regime in which the paper reports 3-4 profiling steps.
TABLE2_HISTORY_OFFSET = {
    "alexnet": -1,
    "vgg16": -1,
    "inception3": 0,
    "resnet50": 0,
    "bat": -1,
    "transformer": 0,
    "wavenet": 0,
    "deepspeech": 0,
}


def table2_profiling_overhead(
    profiling_step_s: float = 90.0,
) -> List[ProfilingOverheadRow]:
    """Drive the tuning state machine against the performance model."""
    rows: List[ProfilingOverheadRow] = []
    for name in ALL_MODEL_NAMES:
        profile = get_model(name)
        setup = TrainSetup(1, 1)
        best = optimal_cores(profile, setup)
        n_start = max(1, best + TABLE2_HISTORY_OFFSET[name])
        session = TuningSession(n_start=n_start, min_cores=1, max_cores=28)
        iterations = 0.0
        cores = session.next_cores
        while cores is not None:
            breakdown = iteration_time(profile, setup, cores)
            iterations += profiling_step_s / breakdown.total_s
            cores = session.record(cores, breakdown.utilization)
        rows.append(
            ProfilingOverheadRow(
                model=name,
                n_start=n_start,
                optimal=best,
                profiling_steps=session.steps_taken,
                training_iterations=round(iterations),
            )
        )
    return rows


# ---------------------------------------------------------------------- #
# Fig. 10 — active rate & utilization per policy


def fig10_utilization(
    seed: int = 3,
) -> List[Tuple[str, float, float, Optional[float]]]:
    """(policy, gpu utilization, mean active rate, busy-period active rate).

    The busy-period rate conditions on samples with a non-empty GPU queue
    (Fig. 10 reports active rates "when the jobs queue up").  A policy
    that never queued a GPU job — CODA routinely, on lighter seeds — has
    no such samples; ``None`` marks that (strongest possible) outcome.
    """
    results = run_cached_comparison(seed=seed)
    rows: List[Tuple[str, float, float, Optional[float]]] = []
    for name in ("fifo", "drf", "coda"):
        collector = results[name].collector
        paired = zip(
            collector.gpu_active_rate.points, collector.gpu_queue_depth.points
        )
        busy = [rate for (_, rate), (_, depth) in paired if depth > 0]
        rows.append(
            (
                name,
                collector.gpu_utilization.mean(),
                collector.gpu_active_rate.mean(),
                mean(busy) if busy else None,
            )
        )
    return rows


# ---------------------------------------------------------------------- #
# Fig. 11 — queueing-time CDFs


def fig11_queueing(seed: int = 3) -> Dict[str, Dict[str, object]]:
    results = run_cached_comparison(seed=seed)
    summary: Dict[str, Dict[str, object]] = {}
    for name, result in results.items():
        collector = result.collector
        gq = collector.queueing_times(
            JobKind.GPU, include_unstarted_until=result.horizon_s
        )
        cq = collector.queueing_times(
            JobKind.CPU, include_unstarted_until=result.horizon_s
        )
        summary[name] = {
            "gpu_cdf": cdf_points(gq),
            "cpu_cdf": cdf_points(cq),
            "gpu_over_10min": fraction_exceeding(gq, 600.0),
            "gpu_over_1h": fraction_exceeding(gq, 3600.0),
            "gpu_no_queue": fraction_at_most(gq, 1.0),
            "cpu_within_10s": fraction_at_most(cq, 10.0),
            "cpu_within_3min": fraction_at_most(cq, 180.0),
        }
    return summary


# ---------------------------------------------------------------------- #
# Fig. 12 — per-user 99 %-ile queueing time


def fig12_per_user_tail(seed: int = 3) -> List[Tuple[int, float, float, float]]:
    """(user id, FIFO p99, DRF p99, CODA p99) in seconds."""
    results = run_cached_comparison(seed=seed)
    by_policy = {
        name: result.collector.queueing_times_by_tenant(
            include_unstarted_until=result.horizon_s
        )
        for name, result in results.items()
    }
    users = sorted(
        set().union(*[set(tails) for tails in by_policy.values()])
    )
    rows: List[Tuple[int, float, float, float]] = []
    for user in users:
        tail = []
        for policy in ("fifo", "drf", "coda"):
            delays = by_policy[policy].get(user, [])
            tail.append(percentile(delays, 99.0) if delays else 0.0)
        rows.append((user, tail[0], tail[1], tail[2]))
    return rows


# ---------------------------------------------------------------------- #
# Fig. 13 — end-to-end latency of representative GPU jobs


def fig13_end_to_end(
    seed: int = 3, max_jobs: int = 12
) -> List[Tuple[str, float, float, float, float]]:
    """(job, FIFO queue, FIFO processing, CODA queue, CODA processing)."""
    results = run_cached_comparison(seed=seed)
    fifo = results["fifo"].collector
    coda = results["coda"].collector
    coda_finished = {r.job_id for r in coda.finished_records(JobKind.GPU)}
    common = sorted(
        r.job_id
        for r in fifo.finished_records(JobKind.GPU)
        if r.job_id in coda_finished
    )
    step = max(1, len(common) // max_jobs)
    rows: List[Tuple[str, float, float, float, float]] = []
    for job_id in common[::step][:max_jobs]:
        fifo_rec, coda_rec = fifo.records[job_id], coda.records[job_id]
        label = job_id
        if fifo_rec.model is not None:
            label = f"{fifo_rec.model}/{fifo_rec.setup_label}"
        rows.append(
            (
                label,
                fifo_rec.queueing_time or 0.0,
                fifo_rec.processing_time or 0.0,
                coda_rec.queueing_time or 0.0,
                coda_rec.processing_time or 0.0,
            )
        )
    return rows


# ---------------------------------------------------------------------- #
# Fig. 14 — core-count adjustment histogram


def fig14_tuning_histogram(seed: int = 3) -> Dict[str, float]:
    """Fractions of GPU jobs by (tuned - requested) core adjustment."""
    results = run_cached_comparison(seed=seed)
    coda = results["coda"].collector
    adjustments = [
        record.core_adjustment
        for record in coda.started_records(JobKind.GPU)
        if record.core_adjustment is not None
    ]
    total = len(adjustments)
    if total == 0:
        raise RuntimeError("no tuned GPU jobs recorded")
    return {
        "more_1_5": sum(1 for a in adjustments if 1 <= a <= 5) / total,
        "more_over_5": sum(1 for a in adjustments if a > 5) / total,
        "fewer_1_20": sum(1 for a in adjustments if -20 <= a <= -1) / total,
        "unchanged": sum(1 for a in adjustments if a == 0) / total,
        "count": float(total),
    }


# ---------------------------------------------------------------------- #
# Sec. VI-C — fragmentation


def fragmentation_summary(seed: int = 3) -> List[Tuple[str, float, float, float]]:
    """(policy, contended-period frag, average frag, contended fraction)."""
    results = run_cached_comparison(seed=seed)
    rows: List[Tuple[str, float, float, float]] = []
    for name in ("fifo", "drf", "coda"):
        tracker = results[name].collector.fragmentation
        contended = tracker.fragmentation_rate()
        share = tracker.contended_fraction()
        rows.append((name, contended, contended * share, share))
    return rows


# ---------------------------------------------------------------------- #
# Design-choice ablations (DESIGN.md Sec. 6)


def reservation_sweep(
    reservations: Sequence[int] = (8, 12, 16, 20),
    *,
    duration_days: float = 0.5,
    seed: int = 3,
) -> List[Tuple[int, float, float, float]]:
    """Sweep the GPU array's per-node CPU reservation.

    Returns (reserved cores, gpu utilization, gpu no-queue fraction,
    cpu within-3-min fraction) — the trade the reservation buys: more
    reserved cores protect training starts, fewer serve CPU jobs faster.
    """
    from repro.metrics.stats import fraction_at_most
    from repro.parallel import RunSpec

    scenario = paper_scale_scenario(duration_days=duration_days, seed=seed)
    specs = [
        RunSpec(
            scenario=scenario,
            scheduler="coda",
            coda_config=CodaConfig(reserved_cores=reserved),
        )
        for reserved in reservations
    ]
    results = _figure_pool().map(specs)
    rows: List[Tuple[int, float, float, float]] = []
    for reserved, result in zip(reservations, results):
        collector = result.collector
        gpu_queue = collector.queueing_times(
            JobKind.GPU, include_unstarted_until=result.horizon_s
        )
        cpu_queue = collector.queueing_times(
            JobKind.CPU, include_unstarted_until=result.horizon_s
        )
        rows.append(
            (
                reserved,
                collector.gpu_utilization.mean(),
                fraction_at_most(gpu_queue, 1.0),
                fraction_at_most(cpu_queue, 180.0),
            )
        )
    return rows


def epsilon_sweep(
    epsilons: Sequence[float] = (0.002, 0.01, 0.05, 0.15),
) -> List[Tuple[float, str, int, int, float]]:
    """Sweep the tuning-improvement threshold against the perf model.

    Returns (epsilon, model, settled cores, profiling steps, settled
    utilization / peak utilization).  Small epsilons chase sub-noise
    gains (more steps); large ones settle early and under-allocate.
    """
    from repro.perfmodel.utilization import gpu_utilization

    rows: List[Tuple[float, str, int, int, float]] = []
    for epsilon in epsilons:
        for name in ALL_MODEL_NAMES:
            profile = get_model(name)
            setup = TrainSetup(1, 1)
            best = optimal_cores(profile, setup)
            session = TuningSession(
                n_start=max(1, best - 1), min_cores=1, max_cores=28,
                epsilon=epsilon,
            )
            cores = session.next_cores
            while cores is not None:
                cores = session.record(
                    cores, gpu_utilization(profile, setup, cores)
                )
            peak = gpu_utilization(profile, setup, best)
            settled = gpu_utilization(profile, setup, session.best_cores)
            rows.append(
                (
                    epsilon,
                    name,
                    session.best_cores,
                    session.steps_taken,
                    settled / peak,
                )
            )
    return rows


def _trainer_beside_heat(
    eliminator: EliminatorConfig,
    *,
    model_name: str,
    total_iterations: int,
    heat_threads: int,
) -> SimulationRunner:
    """A CODA runner on one 4-GPU, 110 GB/s node: a ``model_name``
    trainer at its optimal cores submitted at t=0 and a HEAT instance
    at t=1 — the controlled Sec. VI-E setup."""
    from repro.cluster.cluster import Cluster
    from repro.config import ClusterConfig
    from repro.workload.heat import heat_job
    from repro.workload.job import GpuJob

    setup = TrainSetup(1, 1)
    cluster = Cluster(
        ClusterConfig(
            node_groups=((1, NodeConfig(gpus=4, mem_bandwidth_gbps=110.0)),)
        )
    )
    scheduler = CodaScheduler(CodaConfig(eliminator=eliminator))
    runner = SimulationRunner(cluster, scheduler, sample_interval_s=600.0)
    runner.submit_at(
        0.0,
        GpuJob(
            job_id="trainer",
            tenant_id=1,
            submit_time=0.0,
            model_name=model_name,
            setup=setup,
            requested_cpus=optimal_cores(get_model(model_name), setup),
            total_iterations=total_iterations,
        ),
    )
    runner.submit_at(
        1.0,
        heat_job("heat", 1.0, threads=heat_threads, duration_s=1e6, tenant_id=18),
    )
    return runner


def threshold_sweep(
    thresholds: Sequence[float] = (0.55, 0.75, 0.95),
) -> List[Tuple[float, float, float]]:
    """Sweep the eliminator's bandwidth threshold on the microbenchmark.

    Returns (threshold, trainer slowdown vs quiet with eliminator, HEAT
    throttle cost = heat level chosen).  Lower thresholds protect
    trainers harder but throttle CPU jobs that were not hurting anyone.
    """
    profile = get_model("bat")
    setup = TrainSetup(1, 1)
    best = optimal_cores(profile, setup)
    iterations = 300
    quiet = iterations * iteration_time(profile, setup, best).total_s
    rows: List[Tuple[float, float, float]] = []
    for threshold in thresholds:
        runner = _trainer_beside_heat(
            EliminatorConfig(bandwidth_threshold=threshold),
            model_name="bat",
            total_iterations=iterations,
            heat_threads=12,
        )
        # Sample the throttle mid-flight: once the trainer finishes, the
        # eliminator's relax phase lifts it again.
        runner.engine.run(until=600.0)
        node = runner.cluster.nodes[0]
        level = node.mba.throttle_level("heat") if node.holds("heat") else 1.0
        runner.engine.run(until=48 * 3600.0)
        record = runner.collector.records["trainer"]
        rows.append(
            (threshold, (record.processing_time or 0.0) / quiet, level)
        )
    return rows


# ---------------------------------------------------------------------- #
# Sec. VI-E — eliminator ablation


def eliminator_microbenchmark(
    *, model_name: str = "bat", heat_threads: int = 12
) -> Dict[str, float]:
    """The controlled Sec. VI-E experiment: one contention-sensitive
    trainer co-located with a HEAT instance, with and without the
    eliminator.  Deterministic — no trace, no scheduling noise."""
    outcomes: Dict[str, float] = {}
    profile = get_model(model_name)
    setup = TrainSetup(1, 1)
    best = optimal_cores(profile, setup)
    iterations = 400
    for label, enabled in (("with_eliminator", True), ("without_eliminator", False)):
        runner = _trainer_beside_heat(
            EliminatorConfig(enabled=enabled),
            model_name=model_name,
            total_iterations=iterations,
            heat_threads=heat_threads,
        )
        runner.engine.run(until=48 * 3600.0)
        record = runner.collector.records["trainer"]
        if record.processing_time is None:
            raise RuntimeError(f"trainer did not finish ({label})")
        outcomes[label] = record.processing_time
    quiet = iterations * iteration_time(profile, setup, best).total_s
    outcomes["quiet_node"] = quiet
    return outcomes


def eliminator_ablation(
    *,
    heat_fraction: float = 0.03,
    duration_days: float = 1.0,
    seed: int = 11,
) -> Dict[str, Dict[str, float]]:
    """CODA with vs without the contention eliminator under elevated
    bandwidth-heavy CPU-job incidence (the paper reports 0.5 % and notes
    the gap widens with more).

    The robust cluster-level indicator is *hot-node exposure*: how many
    node-samples sit past the bandwidth threshold with trainers aboard.
    Aggregate utilization moves little here because the adaptive allocator
    partially compensates contention with extra cores (see EXPERIMENTS.md).
    """
    trace_config = TraceConfig(
        duration_days=duration_days,
        gpu_jobs_per_day=1250.0,
        cpu_jobs_per_day=3750.0,
        heat_fraction=heat_fraction,
        seed=seed,
    )
    from repro.parallel import RunSpec

    base = paper_scale_scenario(duration_days=duration_days, seed=seed)
    scenario = Scenario(
        cluster_config=base.cluster_config,
        trace_config=trace_config,
        drain_s=base.drain_s,
    )
    variants = (("with_eliminator", True), ("without_eliminator", False))
    specs = [
        RunSpec(
            scenario=scenario,
            scheduler="coda",
            coda_config=CodaConfig(eliminator=EliminatorConfig(enabled=enabled)),
        )
        for _, enabled in variants
    ]
    results = _figure_pool().map(specs)
    outcomes: Dict[str, Dict[str, float]] = {}
    for (label, _), result in zip(variants, results):
        collector = result.collector
        depths = collector.gpu_queue_depth.values()
        cpu_depths = collector.cpu_queue_depth.values()
        outcomes[label] = {
            "gpu_utilization": collector.gpu_utilization.mean(),
            "mean_gpu_queue_depth": mean(depths),
            "mean_cpu_queue_depth": mean(cpu_depths),
            "hot_node_samples": float(sum(collector.hot_nodes.values())),
            "throttle_actions": float(collector.throttle_events),
            "core_halvings": float(collector.core_halving_events),
            "finished_gpu_jobs": float(result.finished_gpu_jobs),
        }
    return outcomes
