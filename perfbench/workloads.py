"""The benchmark's four workloads and the code that measures them.

Every function here runs inside the workload's own child process (see
``run.py``), with ``src`` on ``sys.path``.  A measured run simulates a
fixed number of *inputs*: input ``i`` replays a trace whose seeds derive
from ``(workload, --seed, i)``, so the same seed always gives the same
inputs, and one run's median covers several independent traces.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import small_cluster
from repro.core.coda import CodaConfig, CodaScheduler
from repro.core.eliminator import CHAOS_FLAP_COOLDOWN_S, EliminatorConfig
from repro.experiments.runner import RunResult, SimulationRunner
from repro.experiments.scenarios import (
    Scenario,
    grid_specs,
    paper_scale_scenario,
    small_scenario,
    week_scale_scenario,
)
from repro.faults import FaultConfig
from repro.health import HealthConfig, RestartPolicy
from repro.metrics import serialize
from repro.parallel import SimPool
from repro.parallel.spec import RunSpec, build_scheduler
from repro.schedulers.base import Scheduler
from repro.sweep import SupervisorConfig
from repro.workload.tracegen import TraceConfig

import tracing

_clock = time.perf_counter


def derive_seed(workload: str, seed: int, index: int, stream: str) -> int:
    """A 31-bit seed for one stream (trace or faults) of one input."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}/{stream}".encode())
    return int.from_bytes(digest.digest()[:4], "big") >> 1


def result_digest(result: RunResult) -> str:
    """sha256 of the run's canonical serialized result."""
    document = serialize.run_result_to_dict(result)
    return hashlib.sha256(
        json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


# ---------------------------------------------------------------------- #
# Simulation workloads


@dataclass(frozen=True)
class Case:
    """One simulation: a scenario, how to build its policy, its health
    tracker settings and its sampling cadence."""

    scenario: Scenario
    make_scheduler: Callable[[], Scheduler]
    health: Optional[HealthConfig] = None
    sample_interval_s: float = 300.0


def _coda() -> Scheduler:
    return CodaScheduler(CodaConfig())


def _chaos_coda() -> Scheduler:
    config = CodaConfig(
        eliminator=EliminatorConfig(flap_cooldown_s=CHAOS_FLAP_COOLDOWN_S)
    )
    return CodaScheduler(config, restart_policy=RestartPolicy(max_restarts=3))


def replay_week_200node(seed: int, index: int) -> Case:
    """150 4-GPU + 50 8-GPU nodes at 2.5x the calibrated paper load."""
    trace_seed = derive_seed("replay_week_200node", seed, index, "trace")
    return Case(week_scale_scenario(duration_days=0.25, seed=trace_seed), _coda)


def tuning_storm(seed: int, index: int) -> Case:
    """8 nodes flooded with GPU jobs: the queue never drains."""
    scenario = Scenario(
        cluster_config=small_cluster(nodes=8),
        trace_config=TraceConfig(
            duration_days=1.0,
            gpu_jobs_per_day=1600.0,
            cpu_jobs_per_day=400.0,
            seed=derive_seed("tuning_storm", seed, index, "trace"),
        ),
        drain_s=2 * 3600.0,
    )
    return Case(scenario, _coda)


def chaos_replay(seed: int, index: int) -> Case:
    """The 80-node paper replay with all four fault channels armed.

    It runs at the paper's raw Sec. VI-A rates, not the calibrated ones:
    at calibrated load the faulted cluster tips into a reclaim-heavy
    backlog on some traces and not others, and host time then swings by
    a third from seed to seed.
    """
    scenario = paper_scale_scenario(
        duration_days=1.0,
        seed=derive_seed("chaos_replay", seed, index, "trace"),
        calibrated_load=False,
    ).with_faults(
        FaultConfig(
            seed=derive_seed("chaos_replay", seed, index, "fault"),
            node_mtbf_s=6 * 3600.0,
            gpu_mtbf_s=48 * 3600.0,
            telemetry_mtbf_s=12 * 3600.0,
            straggler_interval_s=1800.0,
        )
    )
    return Case(scenario, _chaos_coda, HealthConfig(quarantine_threshold=1.0))


@dataclass(frozen=True)
class Sim:
    result: RunResult
    setup_s: float
    run_s: float
    jobs: int
    #: Filled by :func:`with_digest`, outside any timed or traced region.
    digest: str = ""


def build_runner(
    case: Case, tracer: Optional[tracing.Tracer] = None
) -> Tuple[SimulationRunner, int]:
    """Generate the trace and build the cluster, scheduler and runner.

    With a ``tracer`` (whose wrappers must be installed), the cluster
    build and runner construction are spans of their own.  Returns the
    runner and the trace's job count.
    """

    def step(layer: str, fn: Callable[..., Any], *args: Any) -> Any:
        return fn(*args) if tracer is None else tracer.call(layer, fn, *args)

    scenario = case.scenario
    trace = scenario.build_trace()
    cluster = step("cluster.build", scenario.build_cluster)
    runner = step(
        "experiments.runner_init",
        lambda: SimulationRunner(
            cluster,
            case.make_scheduler(),
            trace,
            sample_interval_s=case.sample_interval_s,
            fault_injector=scenario.build_fault_injector(),
            health_config=case.health,
        ),
    )
    return runner, len(trace.jobs)


def simulate(case: Case, tracer: Optional[tracing.Tracer] = None) -> Sim:
    """Build and run one case, timing set-up and the run separately."""
    t0 = _clock()
    runner, jobs = build_runner(case, tracer)
    t1 = _clock()
    result = runner.run(until=case.scenario.horizon_s)
    return Sim(result, t1 - t0, _clock() - t1, jobs)


def with_digest(sim: Sim) -> Sim:
    return replace(sim, digest=result_digest(sim.result))


def warm_up() -> None:
    """Import lazily loaded modules and fill first-call caches off the
    clock: a tiny CODA replay under faults."""
    scenario = small_scenario(duration_days=0.02, nodes=4).with_faults(
        FaultConfig(seed=1, node_mtbf_s=3600.0)
    )
    simulate(Case(scenario, _chaos_coda, HealthConfig()))


@dataclass
class Tally:
    """Runs attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, reason: str, runs: int = 1) -> None:
        self.failed += runs
        self.problems.append(reason)


def _attempt(tally: Tally, label: str, fn: Callable[[], Any]) -> Optional[Any]:
    """Count one run; a run that raises counts as failed."""
    tally.attempted += 1
    try:
        return fn()
    except Exception as error:  # a failed run is a result, not a crash
        tally.fail(f"{label}: {type(error).__name__}: {error}")
        return None


SIM_WORKLOADS: Dict[str, Callable[[int, int], Case]] = {
    "replay_week_200node": replay_week_200node,
    "tuning_storm": tuning_storm,
    "chaos_replay": chaos_replay,
}

#: Host seconds one input (set-up + run) takes on the reference host
#: (2 vCPU, Python 3.11).  Only sizes the input count from ``--seconds``;
#: never a measured value.
NOMINAL_S: Dict[str, float] = {
    "replay_week_200node": 2.6,
    "tuning_storm": 1.5,
    "chaos_replay": 3.0,
    "sweep_grid": 3.5,
}

#: A traced input costs its untraced twin plus the traced run itself.
TRACED_COST = 2.3


def inputs(workload: str, seconds: float, traced: bool) -> int:
    """How many inputs (or, for ``sweep_grid``, grid hand-offs) one run
    of ``seconds`` simulates."""
    nominal = NOMINAL_S[workload] * (TRACED_COST if traced else 1.0)
    return max(1 if traced else 2, int(seconds // nominal))


def measure_simulation(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """Untraced run: each input once, then input 0 again, which must
    reproduce its digest."""
    build = SIM_WORKLOADS[workload]
    tally = Tally()
    count = inputs(workload, seconds, traced=False)
    warm_up()
    sims: List[Sim] = []
    for index in range(count):
        sim = _attempt(
            tally, f"input {index}", lambda: with_digest(simulate(build(seed, index)))
        )
        if sim is not None:
            sims.append(sim)
    repeat = _attempt(
        tally, "repeat of input 0", lambda: with_digest(simulate(build(seed, 0)))
    )
    if repeat is not None and sims and repeat.digest != sims[0].digest:
        tally.fail("repeat of input 0 changed its digest")
    return {
        "inputs": count,
        "digests": [sim.digest for sim in sims],
        "run_s": statistics.median(sim.run_s for sim in sims) if sims else None,
        "setup_s": statistics.median(sim.setup_s for sim in sims) if sims else None,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
    }


@dataclass
class TracedTwins:
    """Each case simulated untraced and then traced, accumulated.

    The untraced twin gives the digest the traced run must reproduce and
    the denominator of ``trace.overhead_ratio``.
    """

    tracer: tracing.Tracer = field(default_factory=tracing.Tracer)
    results: List[RunResult] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    jobs: int = 0
    untraced_run_s: float = 0.0
    traced_run_s: float = 0.0
    traced_wall_s: float = 0.0

    def add(self, tally: Tally, label: str, case: Case) -> Optional[Sim]:
        """Simulate ``case`` both ways; returns the untraced twin."""
        plain = _attempt(tally, label, lambda: with_digest(simulate(case)))
        traced = _attempt(tally, f"{label} traced", lambda: self._traced(case))
        if plain is None or traced is None:
            return None
        if with_digest(traced).digest != plain.digest:
            tally.fail(f"tracing changed the digest of {label}")
        self.results.append(traced.result)
        self.digests.append(plain.digest)
        self.jobs += traced.jobs
        self.untraced_run_s += plain.run_s
        self.traced_run_s += traced.run_s
        self.traced_wall_s += traced.setup_s + traced.run_s
        return plain

    def _traced(self, case: Case) -> Sim:
        with tracing.installed(self.tracer):
            return simulate(case, self.tracer)

    def metrics(self) -> Dict[str, float]:
        runs = len(self.results)
        unattributed = self.traced_wall_s - self.tracer.total_self_s()
        metrics = tracing.layer_metrics(self.tracer, runs)
        metrics.update(_result_metrics(self.results, self.untraced_run_s))
        metrics.update(
            {
                "workload.jobs": self.jobs / runs if runs else 0.0,
                "trace.overhead_ratio": tracing.ratio(
                    self.traced_run_s, self.untraced_run_s
                ),
                "trace.unattributed_s": unattributed / runs if runs else 0.0,
                "trace.unattributed_share": tracing.ratio(
                    unattributed, self.traced_wall_s
                ),
            }
        )
        return metrics


def trace_simulation(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """Traced run: each input untraced, then traced; digests must agree."""
    build = SIM_WORKLOADS[workload]
    tally = Tally()
    count = inputs(workload, seconds, traced=True)
    warm_up()
    twins = TracedTwins()
    for index in range(count):
        twins.add(tally, f"input {index}", build(seed, index))
    metrics = twins.metrics()
    metrics.update(
        {
            "parallel.serial_compute_s": 0.0,
            "parallel.speedup": 0.0,
            "parallel.overhead_s": 0.0,
            "parallel.result_bytes": 0.0,
            "parallel.serialize_s": 0.0,
            "sweep.attempts": 0.0,
            "sweep.retries": 0.0,
        }
    )
    return {
        "inputs": count,
        "digests": twins.digests,
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
    }


def _result_metrics(
    results: Sequence[RunResult], untraced_run_s: float
) -> Dict[str, float]:
    """Per-layer metrics read from run results (means per run)."""
    runs = len(results)
    if not runs:
        return {}
    events = sum(r.events_fired for r in results)
    stale = sum(r.stale_timer_fires for r in results)
    injected = sum(
        r.collector.faults.node_failures
        + r.collector.faults.gpu_failures
        + r.collector.faults.telemetry_dropouts
        + r.collector.faults.stragglers
        for r in results
    )
    return {
        "sim.events": events / runs,
        "sim.events_per_s": events / untraced_run_s if untraced_run_s else 0.0,
        "sim.stale_fires": stale / runs,
        "sim.useful_event_ratio": 1.0 - stale / events if events else 0.0,
        "faults.injected": injected / runs,
        "faults.restarts": sum(r.restarts for r in results) / runs,
        "faults.dead_jobs": sum(r.dead_jobs for r in results) / runs,
    }


# ---------------------------------------------------------------------- #
# sweep_grid

SWEEP_POLICIES = ("fifo", "drf", "coda")
SWEEP_SEEDS = 4
SWEEP_DAYS = 0.05
#: Building a grid takes about 0.1 ms, so each hand-off's set-up time is
#: the median of this many builds, timed just before it.
SWEEP_SETUP_REPEATS = 50


def sweep_jobs() -> int:
    return os.cpu_count() or 1


def build_grid(seed: int) -> Tuple[List[RunSpec], SimPool]:
    seeds = [derive_seed("sweep_grid", seed, i, "trace") for i in range(SWEEP_SEEDS)]
    specs = grid_specs(
        paper_scale_scenario(duration_days=SWEEP_DAYS, seed=0),
        schedulers=SWEEP_POLICIES,
        seeds=seeds,
    )
    pool = SimPool(jobs=sweep_jobs(), cache=None, supervisor=SupervisorConfig())
    return specs, pool


def spec_case(spec: RunSpec) -> Case:
    """The in-process twin of a pooled spec."""
    return Case(
        spec.resolved_scenario(),
        lambda: build_scheduler(spec.scheduler, spec.coda_config, spec.restart_policy),
        spec.health_config,
        spec.sample_interval_s,
    )


def _timed_setup(seed: int) -> Tuple[List[RunSpec], SimPool, float]:
    times = []
    for _ in range(SWEEP_SETUP_REPEATS):
        t0 = _clock()
        specs, pool = build_grid(seed)
        times.append(_clock() - t0)
    return specs, pool, statistics.median(times)


def _pooled(
    tally: Tally, specs: List[RunSpec], pool: SimPool, label: str
) -> Tuple[Optional[List[RunResult]], float]:
    """Hand the grid to the pool; a quarantine fails every run of it."""
    tally.attempted += len(specs)
    t0 = _clock()
    try:
        results = pool.map(specs)
    except Exception as error:  # a quarantined grid is a result, not a crash
        tally.fail(f"{label}: {type(error).__name__}: {error}", len(specs))
        return None, _clock() - t0
    return results, _clock() - t0


def measure_sweep(seed: int, seconds: float) -> Dict[str, Any]:
    """Untraced run: one grid handed to the pool several times.  Every
    hand-off must give the same digests, and each re-runs one cell in
    process, which must match too."""
    tally = Tally()
    count = inputs("sweep_grid", seconds, traced=False)
    warm_up()
    setups: List[float] = []
    walls: List[float] = []
    digests: List[str] = []
    for rep in range(count):
        specs, pool, setup_s = _timed_setup(seed)
        setups.append(setup_s)
        results, wall = _pooled(tally, specs, pool, f"hand-off {rep}")
        if results is None:
            continue
        walls.append(wall)
        rep_digests = [result_digest(result) for result in results]
        if digests and rep_digests != digests:
            tally.fail(f"hand-off {rep}: pooled digests changed")
        digests = rep_digests
        check = rep % len(specs)
        twin = _attempt(
            tally,
            f"hand-off {rep} cell {check} in process",
            lambda: with_digest(simulate(spec_case(specs[check]))),
        )
        if twin is not None and twin.digest != rep_digests[check]:
            tally.fail(f"cell {check}: pooled and in-process digests differ")
    return {
        "inputs": count,
        "digests": digests,
        "run_s": statistics.median(walls) if walls else None,
        "setup_s": statistics.median(setups),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
    }


def trace_sweep(seed: int, seconds: float) -> Dict[str, Any]:
    """Traced run of one grid: pooled (counting attempts and timing the
    parent's deserialization), then every cell in process untraced and
    traced.  All three digests of each cell must agree."""
    tally = Tally()
    warm_up()
    specs, pool, _ = _timed_setup(seed)
    pool_tracer = tracing.Tracer()
    with tracing.installed(pool_tracer):
        results, wall = _pooled(tally, specs, pool, "grid 0")
        pooled_digests = [result_digest(r) for r in results or ()]
    result_bytes = sum(
        len(json.dumps(serialize.run_result_to_dict(r), sort_keys=True).encode())
        for r in results or ()
    )
    twins = TracedTwins()
    serial_s = 0.0
    for index, spec in enumerate(specs):
        plain = twins.add(tally, f"cell {index}", spec_case(spec))
        if plain is None:
            continue
        serial_s += plain.setup_s + plain.run_s
        if pooled_digests and pooled_digests[index] != plain.digest:
            tally.fail(f"cell {index}: pooled digest differs from in-process")
    jobs = sweep_jobs()
    metrics = twins.metrics()
    metrics.update(
        {
            "parallel.serial_compute_s": serial_s,
            "parallel.speedup": tracing.ratio(serial_s, wall) if results else 0.0,
            "parallel.overhead_s": wall - serial_s / jobs if results else 0.0,
            "parallel.result_bytes": float(result_bytes),
            "parallel.serialize_s": pool_tracer.self_s["parallel.serialize"],
            "sweep.attempts": pool_tracer.values["sweep_attempts"],
            "sweep.retries": pool_tracer.values["sweep_retries"],
        }
    )
    return {
        "inputs": 1,
        "digests": twins.digests,
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
    }


def run_child(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Everything one child process measures for one workload."""
    if workload == "sweep_grid":
        return trace_sweep(seed, seconds) if trace else measure_sweep(seed, seconds)
    if trace:
        return trace_simulation(workload, seed, seconds)
    return measure_simulation(workload, seed, seconds)
