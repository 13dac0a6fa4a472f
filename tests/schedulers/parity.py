"""Shared harness of the reference-mode parity suites.

Each (policy, seed, fault setting) scenario runs twice — once with every
incremental and lazy layer active (pass skipping, share heaps, partial
snapshot refresh, validate-on-pop completion timers, the reprice memo,
the activity-indexed monitor tick) and once under ``REPRO_REFERENCE=1``,
which rescans every queue on every pass, re-prices every touched job
from scratch, cancel+reschedules its completion on every touch and ticks
every node on every monitor pass.  :func:`assert_parity` requires the
two runs to agree on:

* the **decision stream** — every pass that produced decisions, as
  ``(time, serialized decisions)`` in order.  Passes producing zero
  decisions are excluded: skipping them outright is exactly what the
  incremental run is allowed (and supposed) to do;
* every scalar outcome, plus the collector's MBA throttle count.
  ``events_fired`` is compared modulo stale timer
  fires: a lazy run fires extra ``completion-stale`` events (old timers
  surfacing after their completion moved later), each of which only
  re-arms and returns, so
  ``opt.events_fired - opt.stale_timer_fires == ref.events_fired``.  A
  skipped pass still fires its event, so it does not enter this count.

Two suites use it.  ``test_incremental_parity.py`` faults with node
crashes and GPU failures (:data:`CRASH_FAULTS`), the inputs the
dirty-set gates and snapshot caches key on.  ``test_lazy_reprice_parity.py``
adds telemetry dropouts and CPU stragglers (:data:`FAULTS`): stragglers
are the main source of later-moving completions (stale fires), and
dropouts exercise the activity-index back-fill of MBM sample timestamps.
Its knee leg (:func:`knee_scenario`) floods the nodes with
bandwidth-streaming CPU jobs, so pressure crosses the eliminator's 75 %
threshold both ways: nodes leave the monitor's active set and the
pressure watch brings them back, and GPU reprices see grant ratios
below 1 and a bandwidth excess above the knee.
See docs/scheduler-internals.md for the argument of *why* the runs must
be equal; the suites are the empirical check over the full simulator,
faults and health tracking included.
"""

import dataclasses

from repro.config import ClusterConfig, NodeConfig, small_cluster
from repro.experiments.scenarios import (
    Scenario,
    run_scenario,
    small_scenario,
)
from repro.faults import FaultConfig
from repro.parallel.spec import build_scheduler
from repro.workload.tracegen import TraceConfig

POLICIES = ("fifo", "drf", "coda")
SEEDS = (0, 1, 2)

#: Aggressive enough that a 0.2-day / 6-node run sees node crashes, GPU
#: failures, quarantines, telemetry blackouts and straggler episodes.
FAULTS = FaultConfig(
    seed=5,
    node_mtbf_s=4 * 3600.0,
    node_mttr_s=900.0,
    gpu_mtbf_s=8 * 3600.0,
    telemetry_mtbf_s=2 * 3600.0,
    telemetry_outage_s=600.0,
    straggler_interval_s=1800.0,
    straggler_duration_s=900.0,
)

#: :data:`FAULTS` without the telemetry and straggler channels: node
#: crashes, GPU failures and (via repeated strikes) quarantines only.
CRASH_FAULTS = dataclasses.replace(
    FAULTS, telemetry_mtbf_s=None, straggler_interval_s=None
)

SCALARS = (
    "finished_gpu_jobs",
    "finished_cpu_jobs",
    "preemptions",
    "restarts",
    "node_downtime_s",
    "quarantines",
    "quarantine_s",
    "dead_jobs",
    "flap_suppressions",
)


def serialize(decision):
    if hasattr(decision, "placements"):
        return ("start", decision.job.job_id, tuple(decision.placements))
    return (
        "preempt",
        decision.job_id,
        decision.reason,
        decision.preserve_progress,
    )


def storm_scenario(seed):
    """A flooded 4-node cluster: queues stay deep and co-location dense,
    so most passes are skippable, the share heaps and placement memos do
    real work, and throttles and repricing fan-out never stop — the
    regime where an incremental or lazy bug would actually show."""
    return Scenario(
        cluster_config=small_cluster(nodes=4),
        trace_config=TraceConfig(
            duration_days=0.05,
            gpu_jobs_per_day=1200.0,
            cpu_jobs_per_day=300.0,
            seed=seed,
        ),
        drain_s=3600.0,
    )


def knee_scenario(seed):
    """Half the CPU jobs are HEAT-like bandwidth streamers, on six nodes:
    four at the default 128 GB/s, where CPU jobs push pressure past the
    75 % knee and back (the eliminator throttles and releases, the
    monitor drops nodes and the pressure watch wakes them), and two
    starved at 24 GB/s, where trainers' grant ratios fall below 1."""
    return Scenario(
        cluster_config=ClusterConfig(
            node_groups=(
                (4, NodeConfig()),
                (2, NodeConfig(mem_bandwidth_gbps=24.0)),
            )
        ),
        trace_config=TraceConfig(
            duration_days=0.1,
            gpu_jobs_per_day=400.0,
            cpu_jobs_per_day=2000.0,
            heat_fraction=0.5,
            inference_fraction=0.1,
            seed=seed,
        ),
        drain_s=3600.0,
    )


LEGS = {
    "calm": lambda seed: small_scenario(duration_days=0.2, seed=seed, nodes=6),
    "storm": storm_scenario,
    "knee": knee_scenario,
}


def run(monkeypatch, policy, seed, faults, reference, *, leg="calm"):
    """One complete run of ``leg``'s scenario under ``faults`` (``None``
    for a clean run); returns (non-empty decision stream, scalars,
    events_fired, stale_timer_fires, passes skipped)."""
    scenario = LEGS[leg](seed)
    if faults is not None:
        scenario = scenario.with_faults(faults)
    # The env var must be decided *before* the scheduler and runner are
    # built: gates, heaps and the lazy machinery read it at construction.
    if reference:
        monkeypatch.setenv("REPRO_REFERENCE", "1")
    else:
        monkeypatch.delenv("REPRO_REFERENCE", raising=False)
    scheduler = build_scheduler(policy)
    decisions = []
    skips = []
    inner_schedule = scheduler.schedule
    inner_can_skip = scheduler.can_skip_pass

    def recording_schedule(cluster, now):
        batch = inner_schedule(cluster, now)
        if batch:
            decisions.append((now, tuple(serialize(d) for d in batch)))
        return batch

    def counting_can_skip(cluster):
        skip = inner_can_skip(cluster)
        if skip:
            skips.append(1)
        return skip

    scheduler.schedule = recording_schedule  # type: ignore[method-assign]
    scheduler.can_skip_pass = counting_can_skip  # type: ignore[method-assign]
    result = run_scenario(scenario, scheduler, sample_interval_s=1800.0)
    scalars = {name: getattr(result, name) for name in SCALARS}
    # MBA throttles are the first thing a monitor skip that hides a
    # crossing would change.
    scalars["throttle_events"] = result.collector.throttle_events
    return (
        decisions,
        scalars,
        result.events_fired,
        result.stale_timer_fires,
        len(skips),
    )


def assert_parity(opt_run, ref_run):
    opt, opt_scalars, opt_events, opt_stale, _ = opt_run
    ref, ref_scalars, ref_events, ref_stale, ref_skips = ref_run

    assert ref_stale == 0, "reference timers must never fire stale"
    assert ref_skips == 0, "reference mode must never skip a pass"
    assert opt_events - opt_stale == ref_events
    assert opt_scalars == ref_scalars
    assert len(opt) == len(ref)
    for opt_entry, ref_entry in zip(opt, ref):
        assert opt_entry == ref_entry
    # The runs above did real work; an empty stream would mean the
    # recorder never saw a decision and the test proved nothing.
    assert opt, "scenario produced no scheduling decisions"


def check_congested(monkeypatch, policy, faults):
    """Parity on the storm scenario, plus proof that the optimized run
    really skipped passes the reference ran — without that the parity
    is vacuous for the dirty-set side."""
    opt_run = run(monkeypatch, policy, 0, faults, reference=False, leg="storm")
    assert_parity(
        opt_run,
        run(monkeypatch, policy, 0, faults, reference=True, leg="storm"),
    )
    assert opt_run[4] > 0, "congested run never skipped a pass"
