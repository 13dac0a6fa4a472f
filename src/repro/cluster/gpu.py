"""GPU device state.

A GPU in this model is a single-tenant device: it is either free or owned by
exactly one DNN training job (the paper never space-shares a GPU between
jobs).  Its *utilization* is the fraction of wall time the owning job keeps
it computing, which the performance model prices from the job's CPU
allocation and the node's contention state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.sim.state import BOOL, FLOAT, JOB_ID, Nullable, Stateful, Struct


@dataclass
class Gpu(Stateful):
    """One physical GPU (the paper's testbed is mostly GTX 1080Ti).

    Attributes:
        gpu_id: index of the GPU within its node.
        model_name: device model, informational only.
        owner: id of the job currently owning the device, or ``None``.
        utilization: current time-fraction busy, in [0, 1]; meaningful only
            while owned.  Kept on the device so monitors (and the contention
            eliminator, which watches for utilization drops) can read it
            without reaching into the job.
        failed: True while the device is broken (fault injection); a failed
            GPU is neither free nor assignable until repaired.
    """

    gpu_id: int
    model_name: str = "GTX-1080Ti"
    owner: Optional[str] = field(default=None)
    utilization: float = field(default=0.0)
    failed: bool = field(default=False)

    STATE = Struct(
        ("owner", Nullable(JOB_ID)), ("utilization", FLOAT), ("failed", BOOL), row=True
    )

    @property
    def is_free(self) -> bool:
        return self.owner is None and not self.failed

    def mark_failed(self) -> None:
        """Take the device out of service.

        Raises:
            RuntimeError: if still owned — the owner must be evicted first
                so the job's restart bookkeeping happens exactly once.
        """
        if self.owner is not None:
            raise RuntimeError(
                f"GPU {self.gpu_id} still owned by {self.owner}; evict the "
                "owner before failing the device"
            )
        self.failed = True
        self.utilization = 0.0

    def repair(self) -> None:
        """Return the device to service. Idempotent."""
        self.failed = False

    def assign(self, job_id: str) -> None:
        """Give the device to ``job_id``.

        Raises:
            RuntimeError: if the device is already owned.  Double assignment
                means the cluster bookkeeping diverged from reality, which
                must fail loudly.
        """
        if self.owner is not None:
            raise RuntimeError(
                f"GPU {self.gpu_id} already owned by {self.owner}, "
                f"cannot assign to {job_id}"
            )
        if self.failed:
            raise RuntimeError(
                f"GPU {self.gpu_id} is failed, cannot assign to {job_id}"
            )
        self.owner = job_id

    def release(self, job_id: str) -> None:
        """Return the device; only the current owner may release it."""
        if self.owner != job_id:
            raise RuntimeError(
                f"GPU {self.gpu_id} owned by {self.owner}, "
                f"release requested by {job_id}"
            )
        self.owner = None
        self.utilization = 0.0
