"""Synthetic trace generation.

Reproduces the published marginal distributions of the paper's one-month
trace (Sec. VI-A and Sec. III):

* 75,000 CPU jobs and 25,000 DNN training jobs over 30 days (2,500 and
  ~833 per day respectively) — both rates scale with the configured
  duration;
* requested CPU cores of GPU jobs (Fig. 2d): 76.1 % ask for 1-2 cores,
  15.3 % for more than 10, the rest in between;
* training-job runtimes (Sec. VI-F): 68.5 % run longer than one hour,
  39.6 % longer than two — a lognormal with median ~1.57 h, sigma 0.93;
* diurnal CPU arrivals (Fig. 1), flatter GPU arrivals;
* tenant mix per Fig. 2a / Fig. 12 (research lab GPU-heavy, companies
  CPU-heavy, users 15-20 CPU-only);
* a small fraction of CPU jobs are HEAT-like bandwidth hogs — the
  eliminator evaluation reports "0.5 % of CPU tasks have high memory
  bandwidth requirements" (Sec. VI-E).

All draws flow through named streams of a :class:`repro.sim.rng.RngRegistry`
so the trace is a pure function of its config.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import Any, Generic, List, Optional, Sequence, Tuple, TypeVar

from repro.perfmodel.catalog import Domain, ModelProfile, models_in_domain
from repro.perfmodel.speed import iteration_time
from repro.perfmodel.stages import TrainSetup
from repro.perfmodel.utilization import optimal_cores
from repro.sim.clock import DAY, HOUR, MINUTE
from repro.sim.rng import RngRegistry
from repro.workload.arrivals import DiurnalRate, poisson_arrivals
from repro.workload.job import CpuJob, GpuJob, Job, JobHints
from repro.workload.tenants import TenantProfile, paper_tenants

#: Fig. 2d requested-core buckets: (low, high, probability), **per GPU** —
#: "many DNN training jobs apply for one or two cores for each GPU"
#: (Sec. VI-D); the per-node request scales with the local GPU count.
REQUESTED_CPU_BUCKETS: Tuple[Tuple[int, int, float], ...] = (
    (1, 2, 0.761),
    (3, 10, 0.086),
    (11, 24, 0.153),
)

#: Per-node core requests are capped just below a whole node so that a
#: greedy request can still be placed (the paper's 28-core nodes) while
#: stranding that node's remaining GPUs — the Sec. III "insufficient CPU
#: cores" fragmentation mechanism.
MAX_REQUESTED_CPUS_PER_NODE = 26

#: Training configurations and their trace shares.  Jobs demanding four or
#: more GPUs are the multi-array scheduler's 4-GPU sub-array clientele.
#: The testbed's servers are mostly 4-GPU (Sec. III-A), so jobs beyond
#: four GPUs run multi-node, as in Sec. IV-B2.
SETUP_MIX: Tuple[Tuple[int, int, float], ...] = (
    # (num_nodes, gpus_per_node, probability)
    (1, 1, 0.45),
    (1, 2, 0.27),
    (1, 4, 0.18),
    (2, 2, 0.05),
    (2, 4, 0.05),
)

#: GPU-job runtime lognormal, calibrated to Sec. VI-F's tail fractions
#: (P[>1h] = 68.5 %, P[>2h] = 39.6 %).
GPU_RUNTIME_MEDIAN_S = 5645.0
GPU_RUNTIME_SIGMA = 0.93

#: CPU-job shape: inference/auxiliary tasks are small and short — most of
#: the cluster's core pressure comes from the training jobs themselves
#: (Sec. III: the >10-core GPU requests are what exhausts node CPUs).
CPU_CORE_CHOICES: Tuple[int, ...] = (1, 2, 4, 6, 8)
CPU_CORE_WEIGHTS: Tuple[float, ...] = (0.20, 0.25, 0.25, 0.15, 0.15)
CPU_RUNTIME_MEDIAN_S = 1800.0
CPU_RUNTIME_SIGMA = 1.0


@dataclass(frozen=True)
class TraceConfig:
    """Knobs of the synthetic trace."""

    duration_days: float = 30.0
    gpu_jobs_per_day: float = 25000.0 / 30.0
    cpu_jobs_per_day: float = 75000.0 / 30.0
    heat_fraction: float = 0.005
    #: Fraction of CPU jobs that are user-facing inference — the AI
    #: companies "choose to run the model inference job on the CPU"
    #: (Sec. I); these are short, small, and outrank training (Sec. V-A).
    inference_fraction: float = 0.3
    hint_probability: float = 0.5
    default_batch_probability: float = 0.8
    #: Weekend scaling of the CPU-job (user-facing) arrival rate; 1.0
    #: disables weekly structure.  Fig. 1 spans a week of production
    #: traffic, which carries a visible weekend dip.
    weekend_factor: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.duration_days <= 0:
            raise ValueError(f"non-positive duration: {self.duration_days}")
        if self.gpu_jobs_per_day < 0 or self.cpu_jobs_per_day < 0:
            raise ValueError("job rates must be non-negative")
        if not 0.0 <= self.heat_fraction <= 1.0:
            raise ValueError(f"heat_fraction out of [0, 1]: {self.heat_fraction}")
        if not 0.0 <= self.inference_fraction <= 1.0:
            raise ValueError(
                f"inference_fraction out of [0, 1]: {self.inference_fraction}"
            )
        if self.heat_fraction + self.inference_fraction > 1.0:
            raise ValueError("heat and inference fractions exceed 1.0")
        if not 0.0 <= self.hint_probability <= 1.0:
            raise ValueError(f"hint_probability out of [0, 1]")
        if not 0.0 <= self.default_batch_probability <= 1.0:
            raise ValueError(f"default_batch_probability out of [0, 1]")

    @property
    def duration_s(self) -> float:
        return self.duration_days * DAY


@dataclass
class Trace:
    """A generated (or loaded) job trace, sorted by submit time."""

    config: TraceConfig
    tenants: List[TenantProfile]
    jobs: List[Job] = field(default_factory=list)

    @property
    def gpu_jobs(self) -> List[GpuJob]:
        return [job for job in self.jobs if isinstance(job, GpuJob)]

    @property
    def cpu_jobs(self) -> List[CpuJob]:
        return [job for job in self.jobs if isinstance(job, CpuJob)]

    def __len__(self) -> int:
        return len(self.jobs)


_T = TypeVar("_T")


class _Weighted(Generic[_T]):
    """A weighted choice over ``items``, drawn with one uniform: the first
    item whose running weight total reaches ``uniform * total``.  The
    running totals are summed once, left to right from 0.0, so each is the
    float a running sum at draw time would reach.  The weights must be
    non-negative, so the totals are sorted for the bisection
    (:class:`~repro.workload.tenants.TenantProfile` refuses a negative
    job or domain weight)."""

    def __init__(self, items: Sequence[_T], weights: Sequence[float]) -> None:
        self.total = sum(weights)
        if self.total <= 0:
            raise ValueError("weights must sum to a positive value")
        self.items = tuple(items)
        self.bounds = list(accumulate(weights, initial=0.0))[1:]

    def draw(self, rng: Any) -> _T:
        at = bisect_left(self.bounds, rng.random() * self.total)
        return self.items[min(at, len(self.items) - 1)]


_REQUESTED_CPUS = _Weighted(
    REQUESTED_CPU_BUCKETS, [p for _, _, p in REQUESTED_CPU_BUCKETS]
)
_SETUPS = _Weighted(SETUP_MIX, [p for _, _, p in SETUP_MIX])
_CPU_CORES = _Weighted(CPU_CORE_CHOICES, CPU_CORE_WEIGHTS)


def sample_requested_cpus(rng, gpus_per_node: int = 1) -> int:
    """Draw an owner-requested per-node core count per the Fig. 2d buckets.

    The bucket draw is per GPU; the node request multiplies it by the
    local GPU count, capped at :data:`MAX_REQUESTED_CPUS_PER_NODE`.
    """
    if gpus_per_node < 1:
        raise ValueError(f"gpus_per_node must be >= 1: {gpus_per_node}")
    low, high, _ = _REQUESTED_CPUS.draw(rng)
    per_gpu = rng.randint(low, high)
    return min(per_gpu * gpus_per_node, MAX_REQUESTED_CPUS_PER_NODE)


def sample_gpu_runtime_s(rng) -> float:
    """Training wall time *at the optimal allocation*, Sec. VI-F shape."""
    draw = rng.lognormvariate(math.log(GPU_RUNTIME_MEDIAN_S), GPU_RUNTIME_SIGMA)
    return min(max(draw, 10 * MINUTE), 24 * HOUR)


def sample_cpu_runtime_s(rng) -> float:
    draw = rng.lognormvariate(math.log(CPU_RUNTIME_MEDIAN_S), CPU_RUNTIME_SIGMA)
    return min(max(draw, 30.0), 12 * HOUR)


@lru_cache(maxsize=None)
def _optimal_iter_time(profile: ModelProfile, setup: TrainSetup) -> float:
    """Iteration time at the optimal allocation, memoized process-wide on
    the frozen (profile, setup) values."""
    return iteration_time(profile, setup, optimal_cores(profile, setup)).total_s


def _gpu_job(
    job_id: str,
    tenant: TenantProfile,
    domains: _Weighted[Domain],
    submit_time: float,
    rng,
    config: TraceConfig,
) -> GpuJob:
    domain = domains.draw(rng)
    profile = rng.choice(models_in_domain(domain))
    num_nodes, gpus_per_node, _ = _SETUPS.draw(rng)
    if rng.random() < config.default_batch_probability:
        batch = profile.default_batch
    else:
        batch = profile.max_batch
    setup = TrainSetup(
        num_nodes=num_nodes, gpus_per_node=gpus_per_node, batch=batch
    )
    runtime_s = sample_gpu_runtime_s(rng)
    iterations = max(1, round(runtime_s / _optimal_iter_time(profile, setup)))
    give_hints = rng.random() < config.hint_probability
    hints = JobHints(
        category_provided=True,
        uses_pipeline=profile.pipelined if give_hints else None,
        many_weights=(profile.weight_mb > 200) if give_hints else None,
        complex_inter_iteration=(
            (profile.domain is Domain.NLP) if give_hints else None
        ),
    )
    return GpuJob(
        job_id=job_id,
        tenant_id=tenant.tenant_id,
        submit_time=submit_time,
        model_name=profile.name,
        setup=setup,
        requested_cpus=sample_requested_cpus(rng, gpus_per_node),
        total_iterations=iterations,
        hints=hints,
    )


def _cpu_job(
    job_id: str,
    tenant: TenantProfile,
    submit_time: float,
    rng,
    config: TraceConfig,
) -> CpuJob:
    kind_draw = rng.random()
    if kind_draw < config.heat_fraction:
        threads = rng.randint(8, 12)
        return CpuJob(
            job_id=job_id,
            tenant_id=tenant.tenant_id,
            submit_time=submit_time,
            cores=threads,
            duration_s=sample_cpu_runtime_s(rng),
            bw_demand_gbps=8.0 * threads,
            llc_mb=1.8 * threads,
            is_heat=True,
        )
    if kind_draw < config.heat_fraction + config.inference_fraction:
        # User-facing inference: short, narrow, latency-critical.
        duration = min(
            max(rng.lognormvariate(math.log(60.0), 0.8), 5.0), 30 * MINUTE
        )
        return CpuJob(
            job_id=job_id,
            tenant_id=tenant.tenant_id,
            submit_time=submit_time,
            cores=rng.randint(1, 2),
            duration_s=duration,
            bw_demand_gbps=rng.uniform(0.2, 1.0),
            llc_mb=rng.uniform(0.5, 2.0),
            is_inference=True,
        )
    cores = _CPU_CORES.draw(rng)
    return CpuJob(
        job_id=job_id,
        tenant_id=tenant.tenant_id,
        submit_time=submit_time,
        cores=cores,
        duration_s=sample_cpu_runtime_s(rng),
        bw_demand_gbps=rng.uniform(0.2, 2.0),
        llc_mb=rng.uniform(0.5, 4.0),
        is_heat=False,
    )


def generate_trace(
    config: Optional[TraceConfig] = None,
    tenants: Optional[List[TenantProfile]] = None,
) -> Trace:
    """Generate the synthetic multi-tenant trace.

    Arrival times come from per-kind non-homogeneous Poisson processes (CPU
    arrivals diurnal, GPU arrivals mildly so); each arrival is then
    attributed to a tenant by the Fig. 2a weights and fleshed out into a
    job spec.
    """
    config = config or TraceConfig()
    tenants = tenants if tenants is not None else paper_tenants()
    registry = RngRegistry(config.seed)

    gpu_tenants = [t for t in tenants if t.gpu_job_weight > 0]
    cpu_tenants = [t for t in tenants if t.cpu_job_weight > 0]
    jobs: List[Job] = []

    if config.gpu_jobs_per_day > 0 and gpu_tenants:
        rate = DiurnalRate(
            base_per_s=config.gpu_jobs_per_day / DAY,
            amplitude=0.25,
            phase_s=-6 * HOUR,
        )
        arrivals_rng = registry.stream("gpu-arrivals")
        body_rng = registry.stream("gpu-jobs")
        # Each tenant comes with its own domain mix, unzipped into a choice.
        gpu_choice = _Weighted(
            [(t, _Weighted(*zip(*t.domain_mix))) for t in gpu_tenants],
            [t.gpu_job_weight for t in gpu_tenants],
        )
        for index, when in enumerate(
            poisson_arrivals(rate, rate.max_rate, config.duration_s, arrivals_rng)
        ):
            tenant, domains = gpu_choice.draw(body_rng)
            jobs.append(
                _gpu_job(f"gpu-{index:06d}", tenant, domains, when, body_rng, config)
            )

    if config.cpu_jobs_per_day > 0 and cpu_tenants:
        rate = DiurnalRate(
            base_per_s=config.cpu_jobs_per_day / DAY,
            amplitude=0.85,
            phase_s=-6 * HOUR,
            weekend_factor=config.weekend_factor,
        )
        arrivals_rng = registry.stream("cpu-arrivals")
        body_rng = registry.stream("cpu-jobs")
        cpu_choice = _Weighted(cpu_tenants, [t.cpu_job_weight for t in cpu_tenants])
        for index, when in enumerate(
            poisson_arrivals(rate, rate.max_rate, config.duration_s, arrivals_rng)
        ):
            tenant = cpu_choice.draw(body_rng)
            jobs.append(
                _cpu_job(f"cpu-{index:06d}", tenant, when, body_rng, config)
            )

    jobs.sort(key=lambda job: (job.submit_time, job.job_id))
    return Trace(config=config, tenants=tenants, jobs=jobs)
