"""The crash-safe sweep progress ledger.

An append-only JSONL journal: one line per state transition of one grid
cell, identified by its content-addressed cache key.  Appends are
flushed and fsynced line-by-line, so the only damage a crash (or a
concurrent reader) can observe is a **truncated final line** — and
:meth:`SweepLedger.replay` tolerates exactly that, dropping unparseable
trailing lines while refusing garbage in the middle of the file (which
would mean real corruption, not a crash).

The journal is *monotonic per key*: later lines supersede earlier ones
(``replay`` keeps the last entry per key), so re-running a sweep simply
appends the new transitions after the old — no rewrite, no lock, and a
reader at any instant sees a consistent prefix.

Entries carry a sequence number instead of a wall-clock timestamp:
ledgers replay byte-identically across hosts, and simulation-adjacent
code never reads the host clock (codalint CL001).
"""

from __future__ import annotations

import json
import os
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Dict, List, Optional, TextIO, Union

from repro.sim.state import INT, STR, CheckpointError, Fields, decode

#: Cell statuses journalled by the sweep service, in lifecycle order.
STATUS_PENDING = "pending"
STATUS_RUNNING = "running"
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_QUARANTINED = "quarantined"
STATUS_CACHED = "cached"
#: A SIGINT/SIGTERM stopped the sweep while this cell was unfinished;
#: deliberately *not* a complete status, so a resume re-runs the cell.
STATUS_INTERRUPTED = "interrupted"

ALL_STATUSES = (
    STATUS_PENDING,
    STATUS_RUNNING,
    STATUS_OK,
    STATUS_FAILED,
    STATUS_QUARANTINED,
    STATUS_CACHED,
    STATUS_INTERRUPTED,
)

#: Failure details are excerpted to keep the journal line-sized.
_DETAIL_LIMIT = 500

#: A journal line: a :class:`LedgerEntry`'s fields as one JSON object.
_LINE = Fields(seq=INT, key=STR, label=STR, status=STR, attempt=INT, detail=STR)


class LedgerError(ValueError):
    """The ledger file is damaged beyond the tolerated truncated tail."""


@dataclass(frozen=True)
class LedgerEntry:
    """One journalled transition of one grid cell."""

    seq: int
    key: str
    label: str
    status: str
    attempt: int = 0
    detail: str = ""

    def __post_init__(self) -> None:
        if self.status not in ALL_STATUSES:
            raise ValueError(f"unknown ledger status: {self.status!r}")

    def to_json(self) -> str:
        return json.dumps(
            _LINE.dump(astuple(self)), sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def from_line(cls, line: str) -> "LedgerEntry":
        """Parse one journal line: a missing, undeclared or retyped field
        raises :class:`CheckpointError`, an unknown status ``ValueError``."""
        return cls(*decode(_LINE, json.loads(line), "line"))


@dataclass
class LedgerState:
    """What a replayed journal says about the sweep so far."""

    entries: List[LedgerEntry]
    #: Last entry per key — the cell's current state.
    last: Dict[str, LedgerEntry]
    #: Unparseable trailing lines dropped (crash-truncated tail).
    dropped_tail: int = 0

    @property
    def next_seq(self) -> int:
        """The sequence number the next appended line takes."""
        return self.entries[-1].seq + 1 if self.entries else 0


class SweepLedger:
    """Append-side handle on one sweep's journal file."""

    def __init__(self, path: Union[str, Path], *, next_seq: int = 0) -> None:
        self.path = Path(path)
        self._next_seq = next_seq
        self._handle: Optional[TextIO] = None

    # ------------------------------------------------------------------ #
    # Writing

    def append(
        self,
        key: str,
        label: str,
        status: str,
        *,
        attempt: int = 0,
        detail: str = "",
    ) -> LedgerEntry:
        """Journal one transition; the line is durable on return."""
        entry = LedgerEntry(
            seq=self._next_seq,
            key=key,
            label=label,
            status=status,
            attempt=attempt,
            detail=detail[:_DETAIL_LIMIT],
        )
        self._next_seq += 1
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a", encoding="utf-8")
        self._handle.write(entry.to_json() + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        return entry

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SweepLedger":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Reading

    @staticmethod
    def replay(path: Union[str, Path]) -> LedgerState:
        """Reconstruct the sweep state, tolerating a truncated tail.

        A line that fails to parse is accepted only if every following
        non-blank line also fails — the signature of a crash mid-append.
        A parseable line *after* garbage means the file was edited or
        corrupted, and resuming from it would silently skip work:
        :class:`LedgerError` is raised instead.
        """
        file_path = Path(path)
        entries: List[LedgerEntry] = []
        dropped = 0
        if file_path.exists():
            lines = file_path.read_text(encoding="utf-8").splitlines()
            bad_at: Optional[int] = None
            for lineno, line in enumerate(lines):
                if not line.strip():
                    continue
                try:
                    parsed = LedgerEntry.from_line(line)
                except (ValueError, CheckpointError):
                    if bad_at is None:
                        bad_at = lineno
                    dropped += 1
                    continue
                if bad_at is not None:
                    raise LedgerError(
                        f"{file_path}: line {bad_at + 1} is corrupt but "
                        f"line {lineno + 1} still parses; refusing to "
                        "resume from a damaged ledger"
                    )
                entries.append(parsed)
        last: Dict[str, LedgerEntry] = {}
        for entry in entries:
            last[entry.key] = entry
        return LedgerState(entries=entries, last=last, dropped_tail=dropped)
