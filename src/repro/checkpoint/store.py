"""On-disk checkpoint files: versioned, integrity-checked, atomic.

A checkpoint is a single JSON document::

    {"version": 6, "sha256": "<hex digest>", "state": {...}}

where the digest covers the *canonical* encoding of the state subtree
(sorted keys, no whitespace), so any torn write, truncation, or bit flip
fails :func:`read_checkpoint` loudly instead of resuming a simulation
from silently-corrupted state.

Writes are crash-safe: the document lands in a temp file that is fsynced,
atomically renamed over the target, and the directory entry fsynced — a
reader never observes a half-written checkpoint, and a crash mid-write
leaves the previous checkpoint intact.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from typing import Any, Dict, Optional

from repro.sim.state import CheckpointError

#: Bumped whenever the snapshot state shape changes; a mismatch refuses
#: the restore rather than mis-reading old state into new code.
#: v2: runner records carry ``completion_time`` (lazy timers) and the
#: activity-indexed monitor state (active set, last tick, observability).
#: v3: the multi-array scheduler stores ``tracked``, ``borrowed`` and
#: ``pending_borrow`` in place of its twin GPU/CPU borrow keys.
#: v4: running jobs are one ``running`` family (shared fields, then the
#: kind's own) in place of ``running_gpu``/``running_cpu``.
#: v5: the collector's job table and series are packed columns.
#: v6: the fault injector keeps no ``injected`` log.
CHECKPOINT_SCHEMA_VERSION = 6

#: Checkpoint files are named by the event count at which they were taken,
#: zero-padded so lexicographic order is numeric order.
_CHECKPOINT_FILE_RE = re.compile(r"^ckpt-(\d{12})\.json$")


def checkpoint_path(directory: str, events_fired: int) -> str:
    """The canonical file path for a checkpoint taken at ``events_fired``."""
    return os.path.join(directory, f"ckpt-{events_fired:012d}.json")


def _canonical_state_json(state: Dict[str, Any]) -> str:
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


def write_checkpoint(path: str, state: Dict[str, Any]) -> None:
    """Atomically write ``state`` (with version and integrity digest)."""
    canonical = _canonical_state_json(state)
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    document = (
        f'{{"version": {CHECKPOINT_SCHEMA_VERSION}, '
        f'"sha256": "{digest}", "state": {canonical}}}'
    )
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        handle.write(document)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def read_checkpoint(path: str) -> Dict[str, Any]:
    """Load and verify a checkpoint; returns its state subtree.

    Raises:
        CheckpointError: unreadable file, malformed JSON, missing fields,
            schema-version mismatch, or integrity-digest mismatch.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(document, dict):
        raise CheckpointError(
            f"checkpoint {path} is not a JSON object "
            f"(got {type(document).__name__})"
        )
    version = document.get("version")
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has schema version {version!r}; "
            f"this build reads version {CHECKPOINT_SCHEMA_VERSION}"
        )
    if "sha256" not in document or "state" not in document:
        raise CheckpointError(
            f"checkpoint {path} is missing its sha256 or state field"
        )
    state = document["state"]
    if not isinstance(state, dict):
        raise CheckpointError(
            f"checkpoint {path} state is not a JSON object"
        )
    digest = hashlib.sha256(
        _canonical_state_json(state).encode("utf-8")
    ).hexdigest()
    if digest != document["sha256"]:
        raise CheckpointError(
            f"checkpoint {path} failed its integrity check "
            f"(expected sha256 {document['sha256']}, computed {digest})"
        )
    return state


def latest_checkpoint(directory: str) -> Optional[str]:
    """The newest (highest event count) checkpoint in ``directory``.

    Returns None for a missing or empty directory; non-checkpoint files
    (including leftover ``.tmp`` files) are ignored.
    """
    try:
        names = os.listdir(directory)
    except OSError:
        return None
    best: Optional[str] = None
    for name in names:
        if _CHECKPOINT_FILE_RE.match(name) and (best is None or name > best):
            best = name
    if best is None:
        return None
    return os.path.join(directory, best)
