"""Crash-safe simulation checkpoint/restore with byte-identical resume.

See :mod:`repro.checkpoint.store` for the on-disk format and
:mod:`repro.checkpoint.state` for the snapshot/re-arm protocol; the
user-facing story is in docs/resilience.md.
"""

from repro.sim.state import CheckpointError
from repro.checkpoint.state import (
    CheckpointWriter,
    checkpointed_runner,
    restore_run,
    snapshot_run,
    spec_digest,
)
from repro.checkpoint.store import (
    CHECKPOINT_SCHEMA_VERSION,
    checkpoint_path,
    latest_checkpoint,
    read_checkpoint,
    write_checkpoint,
)

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointError",
    "CheckpointWriter",
    "checkpoint_path",
    "checkpointed_runner",
    "latest_checkpoint",
    "read_checkpoint",
    "restore_run",
    "snapshot_run",
    "spec_digest",
    "write_checkpoint",
]
