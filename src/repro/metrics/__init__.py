"""Measurement and reporting.

Everything the paper's evaluation plots — active rates, utilization,
queueing-time CDFs, per-user tails, fragmentation — is computed here from
the simulation's sampled series and per-job records.
"""

from repro.metrics.series import SampledSeries, TimeWeightedValue
from repro.metrics.audit import AuditStats, InvariantViolation
from repro.metrics.collector import JobRecord, JobTable, MetricsCollector
from repro.metrics.faults import FaultStats
from repro.metrics.stats import cdf_points, fraction_exceeding, percentile
from repro.metrics.fragmentation import FragmentationTracker
from repro.metrics.report import render_cdf, render_series, render_table

__all__ = [
    "AuditStats",
    "FaultStats",
    "InvariantViolation",
    "FragmentationTracker",
    "JobRecord",
    "JobTable",
    "MetricsCollector",
    "SampledSeries",
    "TimeWeightedValue",
    "cdf_points",
    "fraction_exceeding",
    "percentile",
    "render_cdf",
    "render_series",
    "render_table",
]
