"""Discrete-event simulation substrate.

This package provides the minimal but complete machinery the rest of the
library runs on: simulation time units, an event queue with stable
ordering and cancellation, and named seeded random-number streams.

The design goal is determinism: two runs with the same configuration and
seed produce byte-identical schedules, which is what makes the experiment
harness reproducible.
"""

from repro.sim.engine import Engine
from repro.sim.events import Event, EventHandle
from repro.sim.rng import RngRegistry, derive_seed

__all__ = [
    "Engine",
    "Event",
    "EventHandle",
    "RngRegistry",
    "derive_seed",
]
