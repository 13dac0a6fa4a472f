"""The on-disk checkpoint format: versioned, integrity-checked, atomic.

Every way a checkpoint file can be damaged — bit flips, truncation,
garbage, schema drift, missing fields — must surface as a loud
:class:`CheckpointError`, never as a silently-wrong restore.
"""

import hashlib
import json
import os

import pytest

from repro.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointError,
    checkpoint_path,
    latest_checkpoint,
    read_checkpoint,
    write_checkpoint,
)

STATE = {"engine": {"now": 120.0, "seq": 7}, "collector": {"x": [1, 2, 3]}}


class TestRoundTrip:
    def test_write_then_read_returns_the_state(self, tmp_path):
        path = checkpoint_path(str(tmp_path), 400)
        write_checkpoint(path, STATE)
        assert read_checkpoint(path) == STATE

    def test_document_carries_version_and_digest(self, tmp_path):
        path = checkpoint_path(str(tmp_path), 400)
        write_checkpoint(path, STATE)
        document = json.loads(open(path, encoding="utf-8").read())
        assert document["version"] == CHECKPOINT_SCHEMA_VERSION
        assert len(document["sha256"]) == 64
        assert document["state"] == STATE

    def test_write_leaves_no_temp_file_behind(self, tmp_path):
        write_checkpoint(checkpoint_path(str(tmp_path), 1), STATE)
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt-000000000001.json"]

    def test_path_is_zero_padded_for_lexicographic_order(self, tmp_path):
        assert checkpoint_path(str(tmp_path), 12).endswith(
            "ckpt-000000000012.json"
        )


class TestDamage:
    def _write(self, tmp_path):
        path = checkpoint_path(str(tmp_path), 400)
        write_checkpoint(path, STATE)
        return path

    def test_flipped_state_bit_fails_integrity_check(self, tmp_path):
        path = self._write(tmp_path)
        text = open(path, encoding="utf-8").read()
        open(path, "w", encoding="utf-8").write(text.replace("120.0", "121.0"))
        with pytest.raises(CheckpointError, match="integrity"):
            read_checkpoint(path)

    def test_tampered_digest_fails_integrity_check(self, tmp_path):
        path = self._write(tmp_path)
        document = json.loads(open(path, encoding="utf-8").read())
        document["sha256"] = "0" * 64
        open(path, "w", encoding="utf-8").write(json.dumps(document))
        with pytest.raises(CheckpointError, match="integrity"):
            read_checkpoint(path)

    def test_truncated_file_is_rejected(self, tmp_path):
        path = self._write(tmp_path)
        text = open(path, encoding="utf-8").read()
        open(path, "w", encoding="utf-8").write(text[: len(text) // 2])
        with pytest.raises(CheckpointError, match="unreadable"):
            read_checkpoint(path)

    def test_garbage_json_is_rejected(self, tmp_path):
        path = self._write(tmp_path)
        open(path, "w", encoding="utf-8").write("not json {{{")
        with pytest.raises(CheckpointError, match="unreadable"):
            read_checkpoint(path)

    def test_missing_file_is_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="unreadable"):
            read_checkpoint(str(tmp_path / "nope.json"))

    def test_schema_version_mismatch_is_rejected(self, tmp_path):
        path = self._write(tmp_path)
        document = json.loads(open(path, encoding="utf-8").read())
        document["version"] = CHECKPOINT_SCHEMA_VERSION + 1
        open(path, "w", encoding="utf-8").write(json.dumps(document))
        with pytest.raises(CheckpointError, match="schema version"):
            read_checkpoint(path)

    def test_schema_3_checkpoint_is_rejected(self, tmp_path):
        # Schema 3 kept running jobs in twin running_gpu/running_cpu
        # families; this build reads only the one running family.
        path = self._write(tmp_path)
        document = json.loads(open(path, encoding="utf-8").read())
        document["version"] = 3
        open(path, "w", encoding="utf-8").write(json.dumps(document))
        with pytest.raises(CheckpointError, match="schema version 3"):
            read_checkpoint(path)

    def test_schema_4_checkpoint_is_rejected(self, tmp_path):
        # Schema 4 wrote the collector's job table one object per job and
        # each series as [time, value] points; this build reads packed
        # columns.  The document is whole (its digest holds), so only
        # its version refuses it.
        state = {"collector": {"records": [{"job_id": "cpu-000001"}]}}
        canonical = json.dumps(state, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        path = str(tmp_path / "ckpt-000000000001.json")
        document = {"version": 4, "sha256": digest, "state": state}
        open(path, "w", encoding="utf-8").write(json.dumps(document))
        with pytest.raises(CheckpointError, match="schema version 4; "):
            read_checkpoint(path)

    def test_schema_5_checkpoint_is_rejected(self, tmp_path):
        # Schema 5 carried the fault injector's log of every injected
        # fault; this build keeps only the injector's RNG positions.  The
        # document is whole, so its version alone refuses it, and the
        # error names the file.
        state = {"faults": {"rng": {}, "injected": [[1.0, "node-crash", {}]]}}
        canonical = json.dumps(state, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        path = str(tmp_path / "ckpt-000000000001.json")
        document = {"version": 5, "sha256": digest, "state": state}
        open(path, "w", encoding="utf-8").write(json.dumps(document))
        with pytest.raises(CheckpointError) as raised:
            read_checkpoint(path)
        assert str(raised.value) == (
            f"checkpoint {path} has schema version 5; this build reads version 6"
        )

    def test_missing_fields_are_rejected(self, tmp_path):
        path = self._write(tmp_path)
        open(path, "w", encoding="utf-8").write(
            json.dumps({"version": CHECKPOINT_SCHEMA_VERSION})
        )
        with pytest.raises(CheckpointError, match="missing"):
            read_checkpoint(path)

    def test_non_object_document_is_rejected(self, tmp_path):
        path = self._write(tmp_path)
        open(path, "w", encoding="utf-8").write("[1, 2, 3]")
        with pytest.raises(CheckpointError, match="not a JSON object"):
            read_checkpoint(path)

    def test_non_object_state_is_rejected(self, tmp_path):
        path = self._write(tmp_path)
        open(path, "w", encoding="utf-8").write(
            json.dumps(
                {
                    "version": CHECKPOINT_SCHEMA_VERSION,
                    "sha256": "0" * 64,
                    "state": [1],
                }
            )
        )
        with pytest.raises(CheckpointError, match="state is not"):
            read_checkpoint(path)


class TestLatest:
    def test_picks_the_highest_event_count(self, tmp_path):
        for fired in (100, 700, 350):
            write_checkpoint(checkpoint_path(str(tmp_path), fired), STATE)
        assert latest_checkpoint(str(tmp_path)) == checkpoint_path(
            str(tmp_path), 700
        )

    def test_ignores_foreign_and_temp_files(self, tmp_path):
        write_checkpoint(checkpoint_path(str(tmp_path), 5), STATE)
        (tmp_path / "ckpt-000000000009.json.tmp").write_text("{}")
        (tmp_path / "notes.txt").write_text("hi")
        assert latest_checkpoint(str(tmp_path)) == checkpoint_path(
            str(tmp_path), 5
        )

    def test_missing_or_empty_directory_yields_none(self, tmp_path):
        assert latest_checkpoint(str(tmp_path / "absent")) is None
        os.makedirs(tmp_path / "empty")
        assert latest_checkpoint(str(tmp_path / "empty")) is None
