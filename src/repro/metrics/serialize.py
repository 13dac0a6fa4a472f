"""Exact JSON serialization of :class:`~repro.experiments.runner.RunResult`.

The parallel experiment harness (:mod:`repro.parallel`) moves results
across process boundaries and in and out of the on-disk result cache, so
the round trip must be *exact*: deserializing a serialized result yields a
result whose re-serialization is byte-identical.  JSON gives that for free
— Python emits floats via ``repr``, the shortest string that parses back
to the same IEEE-754 value — as long as every container is restored to
its original shape (tuples back to tuples, enum members back from their
values, insertion order preserved).

Only plain data crosses this boundary.  Callables, engines, and scheduler
state never enter a :class:`RunResult`, which is what makes the cache
sound: a result is a pure function of its :class:`~repro.parallel.RunSpec`.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from repro.metrics.audit import AuditStats, InvariantViolation
from repro.metrics.collector import JobRecord, JobTable, MetricsCollector
from repro.metrics.faults import FaultStats
from repro.workload.job import JobKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.runner import RunResult

#: Bumped whenever the serialized shape changes; part of the result
#: cache's code fingerprint, so stale cache entries never deserialize.
#: v2: RunResult gained ``stale_timer_fires`` (lazy completion timers).
RESULT_SCHEMA_VERSION = 2

#: JobRecord fields, in its (and the serialized records') key order; the
#: kind is serialized by its value.
_RECORD_FIELDS = tuple(field.name for field in dataclasses.fields(JobRecord))

#: The collector's sampled series, in declaration order.
_SERIES_NAMES = (
    "gpu_active_rate",
    "gpu_utilization",
    "gpu_utilization_overall",
    "cpu_active_rate",
    "gpu_queue_depth",
    "cpu_queue_depth",
    "hot_nodes",
)

#: FaultStats scalar counters (the open-outage map is handled separately).
_FAULT_FIELDS = (
    "node_failures",
    "gpu_failures",
    "telemetry_dropouts",
    "stragglers",
    "restarts",
    "quarantines",
    "lost_gpu_iterations",
    "lost_cpu_seconds",
    "node_downtime_s",
)

#: RunResult scalar fields besides the collector.
_RESULT_FIELDS = (
    "scheduler_name",
    "horizon_s",
    "finished_gpu_jobs",
    "finished_cpu_jobs",
    "preemptions",
    "events_fired",
    "restarts",
    "node_downtime_s",
    "quarantines",
    "quarantine_s",
    "dead_jobs",
    "flap_suppressions",
    "stale_timer_fires",
)


def _record_dict(values: Tuple) -> Dict[str, Any]:
    data = dict(zip(_RECORD_FIELDS, values))
    data["kind"] = data["kind"].value
    return data


def _load_records(table: JobTable, records: List[Dict[str, Any]]) -> None:
    for record in records:
        fields = {name: record[name] for name in _RECORD_FIELDS}
        fields["kind"] = JobKind(fields["kind"])
        table.append(**fields)


def _load_series(collector: MetricsCollector, series: Dict[str, Any]) -> None:
    """Fill the shared time column and each series' values; every series
    must carry the same times."""
    clock = collector.sample_times
    clock.extend(t for t, _ in series[_SERIES_NAMES[0]])
    for name in _SERIES_NAMES:
        points = series[name]
        if len(points) != len(clock) or any(
            t != c for (t, _), c in zip(points, clock)
        ):
            raise ValueError(f"series {name}: its times differ from gpu_active_rate's")
        getattr(collector, name).value_column.extend(value for _, value in points)


def collector_to_dict(collector: MetricsCollector) -> Dict[str, Any]:
    """Plain-data snapshot of a collector; see :func:`collector_from_dict`."""
    faults = collector.faults
    audit = collector.audit
    return {
        # A list, not a mapping: JSON objects would survive, but a list
        # keeps insertion order explicit and independent of key sorting.
        "records": [_record_dict(values) for values in collector.records.decoded()],
        "series": {
            name: [list(point) for point in getattr(collector, name).points]
            for name in _SERIES_NAMES
        },
        "fragmentation": [list(sample) for sample in collector.fragmentation.samples],
        "faults": {
            **{name: getattr(faults, name) for name in _FAULT_FIELDS},
            "down_since": sorted(faults._down_since.items()),
        },
        "audit": {
            "checks_run": audit.checks_run,
            "assertions_evaluated": audit.assertions_evaluated,
            "violations": [
                [v.time, v.code, v.message] for v in audit.violations
            ],
        },
        "throttle_events": collector.throttle_events,
        "core_halving_events": collector.core_halving_events,
    }


def collector_from_dict(data: Dict[str, Any]) -> MetricsCollector:
    collector = MetricsCollector()
    _load_records(collector.records, data["records"])
    _load_series(collector, data["series"])
    for t, free, depth in data["fragmentation"]:
        collector.fragmentation.record(t, free, depth)
    faults = FaultStats(
        **{name: data["faults"][name] for name in _FAULT_FIELDS}
    )
    faults._down_since = {
        node_id: since for node_id, since in data["faults"]["down_since"]
    }
    collector.faults = faults
    audit_data = data["audit"]
    collector.audit = AuditStats(
        checks_run=audit_data["checks_run"],
        assertions_evaluated=audit_data["assertions_evaluated"],
        violations=[
            InvariantViolation(time=time, code=code, message=message)
            for time, code, message in audit_data["violations"]
        ],
    )
    collector.throttle_events = data["throttle_events"]
    collector.core_halving_events = data["core_halving_events"]
    return collector


def run_result_to_dict(result: "RunResult") -> Dict[str, Any]:
    """Serialize a run result to plain JSON-safe data."""
    data: Dict[str, Any] = {name: getattr(result, name) for name in _RESULT_FIELDS}
    data["schema"] = RESULT_SCHEMA_VERSION
    data["collector"] = collector_to_dict(result.collector)
    return data


def run_result_from_dict(data: Dict[str, Any]) -> "RunResult":
    """Rebuild a run result from :func:`run_result_to_dict` output."""
    from repro.experiments.runner import RunResult

    schema = data.get("schema")
    if schema != RESULT_SCHEMA_VERSION:
        raise ValueError(
            f"serialized result schema {schema!r} != {RESULT_SCHEMA_VERSION}"
        )
    fields = {name: data[name] for name in _RESULT_FIELDS}
    return RunResult(collector=collector_from_dict(data["collector"]), **fields)
