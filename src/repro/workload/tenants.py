"""Tenant profiles.

The cluster is shared by one AI research institution and several AI
companies (Sec. III-A).  Fig. 2a: the research lab contributes most of the
GPU (training) jobs; the companies contribute most of the CPU jobs
(user-facing inference, bursty and diurnal).  Fig. 12 plots 20 users, of
which users 15-20 submit only CPU jobs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

from repro.perfmodel.catalog import Domain


class TenantKind(enum.Enum):
    RESEARCH_LAB = "research_lab"
    AI_COMPANY = "ai_company"
    CPU_ONLY = "cpu_only"


@dataclass(frozen=True)
class TenantProfile:
    """One user of the cluster.

    Attributes:
        tenant_id: 1-based user id, matching the x-axis of Fig. 12.
        kind: which party this user belongs to.
        gpu_job_weight: relative share of the cluster's GPU jobs this user
            submits (zero for CPU-only users).
        cpu_job_weight: relative share of CPU jobs.
        domain_mix: probability over model categories for this user's
            training jobs.  "Most of the GPU jobs are training NLP and
            SPEECH models" (Sec. VI-A); the research lab also trains CV.
        diurnal_amplitude: how bursty/daytime-shaped this user's CPU-job
            arrivals are (companies are user-facing, hence diurnal).
    """

    tenant_id: int
    kind: TenantKind
    gpu_job_weight: float
    cpu_job_weight: float
    domain_mix: Tuple[Tuple[Domain, float], ...]
    diurnal_amplitude: float

    def __post_init__(self) -> None:
        if self.tenant_id < 1:
            raise ValueError(f"tenant ids are 1-based: {self.tenant_id}")
        if self.gpu_job_weight < 0 or self.cpu_job_weight < 0:
            raise ValueError(f"negative job weight for tenant {self.tenant_id}")
        if self.kind is TenantKind.CPU_ONLY and self.gpu_job_weight > 0:
            raise ValueError(
                f"CPU-only tenant {self.tenant_id} cannot submit GPU jobs"
            )
        if self.gpu_job_weight > 0:
            if any(weight < 0 for _, weight in self.domain_mix):
                raise ValueError(
                    f"tenant {self.tenant_id}: negative weight in domain mix"
                )
            total = sum(weight for _, weight in self.domain_mix)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(
                    f"tenant {self.tenant_id}: domain mix sums to {total}"
                )
        if not 0.0 <= self.diurnal_amplitude <= 1.0:
            raise ValueError(
                f"tenant {self.tenant_id}: diurnal amplitude out of [0, 1]"
            )


#: Research-lab training mix: all three categories, CV-leaning.
_LAB_MIX = ((Domain.CV, 0.40), (Domain.NLP, 0.30), (Domain.SPEECH, 0.30))
#: Company training mix: the cluster owner works in ASR/NLP/CV startups and
#: mostly trains NLP and Speech models (Sec. VI-A).
_COMPANY_MIX = ((Domain.CV, 0.15), (Domain.NLP, 0.40), (Domain.SPEECH, 0.45))


def paper_tenants() -> List[TenantProfile]:
    """The 20 users of Fig. 12.

    Users 1-4: research-lab members (GPU-heavy, little CPU work).
    Users 5-14: AI-company users (some training, most of the CPU jobs).
    Users 15-20: CPU-only users (Fig. 12's note on ids 15-20).
    """
    tenants: List[TenantProfile] = []
    for tenant_id in range(1, 5):
        tenants.append(
            TenantProfile(
                tenant_id=tenant_id,
                kind=TenantKind.RESEARCH_LAB,
                gpu_job_weight=1.6,
                cpu_job_weight=0.2,
                domain_mix=_LAB_MIX,
                diurnal_amplitude=0.2,
            )
        )
    for tenant_id in range(5, 15):
        tenants.append(
            TenantProfile(
                tenant_id=tenant_id,
                kind=TenantKind.AI_COMPANY,
                gpu_job_weight=0.36,
                cpu_job_weight=0.8,
                domain_mix=_COMPANY_MIX,
                diurnal_amplitude=0.6,
            )
        )
    for tenant_id in range(15, 21):
        tenants.append(
            TenantProfile(
                tenant_id=tenant_id,
                kind=TenantKind.CPU_ONLY,
                gpu_job_weight=0.0,
                cpu_job_weight=1.0,
                domain_mix=(),
                diurnal_amplitude=0.7,
            )
        )
    return tenants
