"""Job records.

Jobs are immutable *specifications* — what the tenant submitted.  Runtime
state (queueing, placement, progress, retuned cores) lives in the
simulation runner's execution records, so a trace can be replayed under
any scheduler without cross-contamination.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.resources import ResourceVector
from repro.perfmodel.catalog import get_model
from repro.perfmodel.stages import TrainSetup


#: The largest tenant id, core count or GPU count a job may carry: the
#: run's job table keeps them in C ``int`` columns.
MAX_C_INT = 2 ** (8 * array("i").itemsize - 1) - 1


def _check_c_int(job_id: str, what: str, value: int) -> None:
    if value > MAX_C_INT:
        raise ValueError(f"{job_id}: {what} {value} exceeds {MAX_C_INT}")


class JobKind(enum.Enum):
    CPU = "cpu"
    GPU = "gpu"


@dataclass(frozen=True)
class JobHints:
    """Optional tenant-provided model information (Sec. V-B1).

    Tenants "provided at least the categories of their models, and may
    provide" three extras; each field is ``None`` when not provided.
    """

    category_provided: bool = True
    uses_pipeline: Optional[bool] = None
    many_weights: Optional[bool] = None
    complex_inter_iteration: Optional[bool] = None


@dataclass(frozen=True)
class Job:
    """Fields common to both job kinds."""

    job_id: str
    tenant_id: int
    submit_time: float

    def __post_init__(self) -> None:
        if self.submit_time < 0:
            raise ValueError(f"{self.job_id}: negative submit time")
        if self.tenant_id < 0:
            raise ValueError(f"{self.job_id}: negative tenant id")
        _check_c_int(self.job_id, "tenant id", self.tenant_id)

    @property
    def kind(self) -> JobKind:
        raise NotImplementedError


@dataclass(frozen=True)
class CpuJob(Job):
    """A traditional CPU job (inference, ETL, auxiliary tasks).

    Attributes:
        cores: requested core count, all on one node.
        duration_s: execution time at full speed (no throttling).
        bw_demand_gbps: memory-bandwidth demand while running.
        llc_mb: LLC footprint.
        is_heat: True for HEAT-like bandwidth-intensive jobs (Sec. IV-C2);
            only these meaningfully slow when the eliminator throttles
            their bandwidth.
        is_inference: True for user-facing inference jobs, which outrank
            even DNN training ("DNN training jobs have higher priority
            than all CPU jobs on GPU clusters except the user-facing
            inference jobs", Sec. V-A): the eliminator never throttles
            them and the multi-array scheduler never aborts them.
    """

    cores: int = 1
    duration_s: float = 60.0
    bw_demand_gbps: float = 0.5
    llc_mb: float = 1.0
    is_heat: bool = False
    is_inference: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.cores < 1:
            raise ValueError(f"{self.job_id}: CPU job needs at least one core")
        _check_c_int(self.job_id, "cores", self.cores)
        if self.duration_s <= 0:
            raise ValueError(f"{self.job_id}: non-positive duration")
        if self.bw_demand_gbps < 0 or self.llc_mb < 0:
            raise ValueError(f"{self.job_id}: negative resource demand")
        if self.is_heat and self.is_inference:
            raise ValueError(
                f"{self.job_id}: a job cannot be both HEAT and inference"
            )

    @property
    def kind(self) -> JobKind:
        return JobKind.CPU

    @property
    def requested(self) -> ResourceVector:
        return ResourceVector(cpus=self.cores, gpus=0)


@dataclass(frozen=True)
class GpuJob(Job):
    """A DNN training job.

    Attributes:
        model_name: a Table-I model (see :mod:`repro.perfmodel.catalog`).
        setup: the aNbG configuration and batch size.
        requested_cpus: cores the owner asked for **per node** — this is
            what FIFO/DRF grant; CODA's allocator overrides it.
        total_iterations: training length; wall time follows from the
            performance model at whatever allocation the job runs with.
        hints: optional model information for N_start (Sec. V-B1).
        checkpoint_interval_iters: the job writes a checkpoint every this
            many iterations; after an infrastructure failure it restarts
            from the last completed checkpoint boundary (work past it is
            lost).  0 means no checkpointing — a failed job restarts from
            scratch.  Irrelevant while nothing fails, so the default does
            not perturb failure-free runs.
    """

    model_name: str = "resnet50"
    setup: TrainSetup = field(default_factory=TrainSetup)
    requested_cpus: int = 2
    total_iterations: int = 1000
    hints: JobHints = field(default_factory=JobHints)
    checkpoint_interval_iters: int = 100

    def __post_init__(self) -> None:
        super().__post_init__()
        get_model(self.model_name)  # validates the name
        if self.requested_cpus < 1:
            raise ValueError(f"{self.job_id}: need at least one core per node")
        _check_c_int(self.job_id, "cores per node", self.requested_cpus)
        _check_c_int(self.job_id, "GPUs", self.setup.total_gpus)
        if self.total_iterations < 1:
            raise ValueError(f"{self.job_id}: need at least one iteration")
        if self.checkpoint_interval_iters < 0:
            raise ValueError(
                f"{self.job_id}: negative checkpoint interval"
            )

    def checkpointed_iterations(self, work_done: float) -> float:
        """Progress that survives a failure at ``work_done`` iterations."""
        interval = self.checkpoint_interval_iters
        if interval <= 0:
            return 0.0
        return float(int(work_done // interval) * interval)

    @property
    def kind(self) -> JobKind:
        return JobKind.GPU

    @property
    def requested(self) -> ResourceVector:
        """Total requested resources across all nodes."""
        return ResourceVector(
            cpus=self.requested_cpus * self.setup.num_nodes,
            gpus=self.setup.total_gpus,
        )

    @property
    def category(self) -> str:
        """The model category string the tenant reports (Speech/CV/NLP)."""
        return get_model(self.model_name).domain.value
