"""Jobs, tenants, and trace generation.

This package substitutes for the paper's one-month production trace from
the AISpeech multi-tenant cluster (Sec. VI-A): 100,000 jobs — 75,000 CPU
jobs and 25,000 DNN training jobs — from 20 tenants, with the published
marginal distributions (requested-core breakdown of Fig. 2d, runtimes of
Sec. VI-F, diurnal CPU arrivals of Fig. 1, tenant mix of Fig. 2a).
"""

from repro.workload.job import CpuJob, GpuJob, Job, JobHints, JobKind
from repro.workload.tenants import TenantKind, TenantProfile, paper_tenants
from repro.workload.arrivals import DiurnalRate, poisson_arrivals
from repro.workload.tracegen import Trace, TraceConfig, generate_trace
from repro.workload.heat import heat_job
from repro.workload.traceio import TraceFormatError, load_trace, save_trace

__all__ = [
    "CpuJob",
    "DiurnalRate",
    "GpuJob",
    "Job",
    "JobHints",
    "JobKind",
    "TenantKind",
    "TenantProfile",
    "Trace",
    "TraceConfig",
    "TraceFormatError",
    "generate_trace",
    "heat_job",
    "load_trace",
    "paper_tenants",
    "poisson_arrivals",
    "save_trace",
]
