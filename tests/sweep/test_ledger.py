"""The crash-safe ledger: durability, replay, and tail tolerance."""

import json

import pytest

from repro.sim.state import CheckpointError
from repro.sweep import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_PENDING,
    STATUS_RUNNING,
    LedgerEntry,
    LedgerError,
    SweepLedger,
)


class TestAppendReplayRoundTrip:
    def test_entries_survive_byte_identically(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with SweepLedger(path) as ledger:
            ledger.append("k1", "fifo:s0", STATUS_PENDING)
            ledger.append("k1", "fifo:s0", STATUS_RUNNING, attempt=1)
            ledger.append("k1", "fifo:s0", STATUS_OK, attempt=1)
        state = SweepLedger.replay(path)
        assert [e.status for e in state.entries] == [
            STATUS_PENDING, STATUS_RUNNING, STATUS_OK,
        ]
        assert [e.seq for e in state.entries] == [0, 1, 2]
        assert state.dropped_tail == 0

    def test_last_entry_per_key_wins(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with SweepLedger(path) as ledger:
            ledger.append("k1", "a", STATUS_RUNNING, attempt=1)
            ledger.append("k2", "b", STATUS_OK, attempt=1)
            ledger.append("k1", "a", STATUS_FAILED, attempt=1, detail="boom")
        state = SweepLedger.replay(path)
        assert state.last["k1"].status == STATUS_FAILED
        assert state.last["k1"].detail == "boom"
        assert state.last["k2"].status == STATUS_OK

    def test_missing_file_replays_empty(self, tmp_path):
        state = SweepLedger.replay(tmp_path / "absent.jsonl")
        assert state.entries == [] and state.last == {}

    def test_detail_is_truncated(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with SweepLedger(path) as ledger:
            entry = ledger.append(
                "k", "a", STATUS_FAILED, detail="x" * 10_000
            )
        assert len(entry.detail) == 500
        assert len(SweepLedger.replay(path).entries[0].detail) == 500


class TestCrashTolerance:
    def test_truncated_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with SweepLedger(path) as ledger:
            ledger.append("k1", "a", STATUS_OK, attempt=1)
            ledger.append("k2", "b", STATUS_RUNNING, attempt=1)
        whole = path.read_text()
        path.write_text(whole[: len(whole) - 20])  # crash mid-append
        state = SweepLedger.replay(path)
        assert [e.key for e in state.entries] == ["k1"]
        assert state.dropped_tail == 1

    def test_garbage_mid_file_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        good = LedgerEntry(seq=0, key="k", label="a", status=STATUS_OK)
        path.write_text("not json at all\n" + good.to_json() + "\n")
        with pytest.raises(LedgerError, match="corrupt"):
            SweepLedger.replay(path)

    def test_unknown_status_line_counts_as_damage(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        bogus = json.dumps(
            {"seq": 0, "key": "k", "label": "a", "status": "exploded",
             "attempt": 0, "detail": ""}
        )
        with pytest.raises(ValueError, match="status"):
            LedgerEntry.from_line(bogus)
        path.write_text(bogus + "\n")
        state = SweepLedger.replay(path)
        assert state.entries == [] and state.dropped_tail == 1

    @pytest.mark.parametrize("field", ["attempt", "detail"])
    def test_line_missing_a_field_counts_as_damage(self, tmp_path, field):
        path = tmp_path / "ledger.jsonl"
        line = json.loads(
            LedgerEntry(seq=0, key="k", label="a", status=STATUS_OK).to_json()
        )
        del line[field]
        with pytest.raises(CheckpointError, match=rf"^line\.{field}: missing"):
            LedgerEntry.from_line(json.dumps(line))
        path.write_text(json.dumps(line) + "\n")
        state = SweepLedger.replay(path)
        assert state.entries == [] and state.dropped_tail == 1

    def test_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        good = LedgerEntry(seq=0, key="k", label="a", status=STATUS_OK)
        path.write_text("\n" + good.to_json() + "\n\n")
        assert len(SweepLedger.replay(path).entries) == 1


#: A field retyped the way a bare ``int()``/``str()`` would coerce back.
RETYPED = [("seq", "3"), ("seq", 3.0), ("attempt", True), ("key", 5), ("detail", None)]


class TestStrictLines:
    def _retyped(self, field, value):
        line = json.loads(
            LedgerEntry(seq=0, key="k", label="a", status=STATUS_OK).to_json()
        )
        line[field] = value
        return json.dumps(line)

    @pytest.mark.parametrize("field, value", RETYPED)
    def test_retyped_line_mid_file_raises(self, tmp_path, field, value):
        path = tmp_path / "ledger.jsonl"
        good = LedgerEntry(seq=1, key="k", label="a", status=STATUS_OK)
        path.write_text(self._retyped(field, value) + "\n" + good.to_json() + "\n")
        with pytest.raises(LedgerError, match="line 1 is corrupt"):
            SweepLedger.replay(path)

    @pytest.mark.parametrize("field, value", RETYPED)
    def test_retyped_tail_line_is_dropped(self, tmp_path, field, value):
        path = tmp_path / "ledger.jsonl"
        good = LedgerEntry(seq=0, key="k", label="a", status=STATUS_OK)
        path.write_text(good.to_json() + "\n" + self._retyped(field, value) + "\n")
        state = SweepLedger.replay(path)
        assert state.entries == [good] and state.dropped_tail == 1

    @pytest.mark.parametrize("field, value", RETYPED)
    def test_from_line_rejects_a_retyped_field(self, field, value):
        with pytest.raises(CheckpointError, match=rf"^line\.{field}: expected "):
            LedgerEntry.from_line(self._retyped(field, value))

    def test_a_line_that_is_not_an_object_is_damage(self):
        with pytest.raises(CheckpointError, match=r"^line: expected "):
            LedgerEntry.from_line("[0]")


class TestResume:
    def test_resume_continues_sequence(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with SweepLedger(path) as ledger:
            ledger.append("k1", "a", STATUS_OK, attempt=1)
        with SweepLedger(path, next_seq=SweepLedger.replay(path).next_seq) as ledger:
            entry = ledger.append("k2", "b", STATUS_PENDING)
        assert entry.seq == 1
        assert [e.seq for e in SweepLedger.replay(path).entries] == [0, 1]

    def test_resume_of_missing_file_starts_at_zero(self, tmp_path):
        path = tmp_path / "new.jsonl"
        with SweepLedger(path, next_seq=SweepLedger.replay(path).next_seq) as ledger:
            assert ledger.append("k", "a", STATUS_PENDING).seq == 0


class TestEntryValidation:
    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError, match="status"):
            LedgerEntry(seq=0, key="k", label="a", status="nope")

    def test_json_round_trip(self):
        entry = LedgerEntry(
            seq=7, key="k", label="coda:s1", status=STATUS_FAILED,
            attempt=2, detail="worker crashed",
        )
        assert LedgerEntry.from_line(entry.to_json()) == entry
