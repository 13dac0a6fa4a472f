"""Picklable run specifications.

A :class:`RunSpec` is everything one simulation run depends on — scenario,
scheduling policy, configuration, and seeds — expressed as plain frozen
dataclasses, so it can

* cross a ``spawn`` process boundary (the :class:`~repro.parallel.SimPool`
  worker rebuilds the scheduler from the spec and executes it), and
* be hashed canonically (the :class:`~repro.parallel.ResultCache` keys an
  on-disk result by the spec plus a code fingerprint).

Schedulers are named, not carried: a live scheduler object is stateful
and unsuitable for hashing, so the spec stores the policy *name* plus its
frozen config and :func:`build_scheduler` constructs a fresh instance at
execution time — exactly what the serial drivers always did.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from repro.core.coda import CodaConfig, CodaScheduler
from repro.experiments.runner import RunResult, SimulationRunner
from repro.experiments.scenarios import Scenario
from repro.health.config import HealthConfig
from repro.health.restarts import RestartPolicy
from repro.schedulers.base import Scheduler
from repro.schedulers.drf import DrfScheduler
from repro.schedulers.fifo import FifoScheduler
from repro.workload.tracegen import Trace

#: The policies a spec may name, in canonical comparison order.
SCHEDULER_NAMES: Tuple[str, ...] = ("fifo", "drf", "coda")


def build_scheduler(
    name: str,
    coda_config: Optional[CodaConfig] = None,
    restart_policy: Optional[RestartPolicy] = None,
) -> Scheduler:
    """Construct a fresh scheduler for the named policy.

    ``coda_config`` only applies to CODA; the baselines have no tunables
    beyond the restart policy.
    """
    if name == "fifo":
        return FifoScheduler(restart_policy=restart_policy)
    if name == "drf":
        return DrfScheduler(restart_policy=restart_policy)
    if name == "coda":
        return CodaScheduler(coda_config, restart_policy=restart_policy)
    raise ValueError(f"unknown scheduler: {name!r}")


@dataclass(frozen=True)
class RunSpec:
    """One independent (scenario, policy, seed) simulation run."""

    scenario: Scenario
    scheduler: str = "coda"
    #: Optional trace-seed override.  ``None`` keeps the scenario's own
    #: seed; setting it derives a sibling scenario that differs *only* in
    #: the trace seed — the replica fan-out pattern of multi-seed sweeps.
    seed: Optional[int] = None
    coda_config: Optional[CodaConfig] = None
    restart_policy: Optional[RestartPolicy] = None
    health_config: Optional[HealthConfig] = None
    sample_interval_s: float = 300.0

    def __post_init__(self) -> None:
        if self.scheduler not in SCHEDULER_NAMES:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; "
                f"expected one of {SCHEDULER_NAMES}"
            )
        if self.sample_interval_s <= 0:
            raise ValueError(
                f"non-positive sample interval: {self.sample_interval_s}"
            )

    def with_seed(self, seed: int) -> "RunSpec":
        """The same run on the same cluster, under trace seed ``seed``."""
        return replace(self, seed=seed)

    def label(self) -> str:
        """Short human-readable cell name, e.g. ``coda:s7``.

        Used by the sweep ledger and reports; unique within a policy x
        seed grid over one scenario (the content-addressed cache key is
        the collision-proof identity).
        """
        seed = (
            self.seed
            if self.seed is not None
            else self.scenario.trace_config.seed
        )
        return f"{self.scheduler}:s{seed}"

    def resolved_scenario(self) -> Scenario:
        """The scenario with any seed override applied."""
        if self.seed is None:
            return self.scenario
        return replace(
            self.scenario,
            trace_config=replace(self.scenario.trace_config, seed=self.seed),
        )

    def build_runner(self, trace: Optional[Trace] = None) -> SimulationRunner:
        """A fresh runner for this spec (``trace``: its resolved
        scenario's trace, if already generated)."""
        return self.resolved_scenario().build_runner(
            build_scheduler(
                self.scheduler, self.coda_config, self.restart_policy
            ),
            trace=trace,
            sample_interval_s=self.sample_interval_s,
            health_config=self.health_config,
        )

    def execute(self) -> RunResult:
        """Run this spec to completion (in the calling process)."""
        return self.build_runner().run(
            until=self.resolved_scenario().horizon_s
        )

    def fingerprint(self) -> Dict[str, Any]:
        """Plain-data identity of this spec, seed override resolved.

        Two specs that execute the identical simulation produce the same
        fingerprint: the seed override is folded into the scenario, so
        ``RunSpec(s, seed=7)`` and ``RunSpec(s_with_seed_7)`` coincide.
        """
        resolved = replace(self, scenario=self.resolved_scenario(), seed=None)
        return dataclasses.asdict(resolved)

    def canonical_json(self) -> str:
        """Deterministic JSON encoding of :meth:`fingerprint`."""
        return json.dumps(
            self.fingerprint(), sort_keys=True, separators=(",", ":")
        )
