"""Trace persistence round trips."""

import json

import pytest

from repro.workload.tracegen import TraceConfig, generate_trace
from repro.workload.traceio import TraceFormatError, load_trace, save_trace


@pytest.fixture
def small_trace():
    return generate_trace(TraceConfig(duration_days=0.1, seed=21))


class TestRoundTrip:
    def test_jobs_survive_round_trip(self, small_trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_trace(small_trace, path)
        loaded = load_trace(path)
        assert len(loaded.jobs) == len(small_trace.jobs)
        for original, restored in zip(small_trace.jobs, loaded.jobs):
            assert original == restored

    def test_config_survives_round_trip(self, small_trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_trace(small_trace, path)
        assert load_trace(path).config == small_trace.config

    def test_file_is_jsonl(self, small_trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_trace(small_trace, path)
        with path.open() as handle:
            for line in handle:
                json.loads(line)

    def test_header_carries_format_version(self, small_trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_trace(small_trace, path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format_version"] == 1


class TestErrors:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"format_version": 99, "config": {}}) + "\n")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_unknown_kind_rejected(self, small_trace, tmp_path):
        path = tmp_path / "bad.jsonl"
        save_trace(small_trace, path)
        lines = path.read_text().splitlines()
        corrupted = json.loads(lines[1])
        corrupted["kind"] = "quantum"
        lines[1] = json.dumps(corrupted)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            load_trace(path)


def _drop_tenant(lines):
    record = json.loads(lines[1])
    del record["tenant_id"]
    lines[1] = json.dumps(record)
    return 2, "missing field 'tenant_id'"


def _truncate_json(lines):
    lines[1] = lines[1][:-5]
    return 2, "invalid JSON"


def _null_hints(lines):
    index = next(i for i, line in enumerate(lines) if '"kind": "gpu"' in line)
    record = json.loads(lines[index])
    record["hints"] = None
    lines[index] = json.dumps(record)
    return index + 1, "mapping"


def _huge_tenant(lines):
    record = json.loads(lines[1])
    record["tenant_id"] = 2**40
    lines[1] = json.dumps(record)
    return 2, f"tenant id {2**40} exceeds"


def _huge_cores(lines):
    index = next(i for i, line in enumerate(lines) if '"kind": "cpu"' in line)
    record = json.loads(lines[index])
    record["cores"] = 2**31
    lines[index] = json.dumps(record)
    return index + 1, f"cores {2**31} exceeds"


def _empty(lines):
    lines.clear()
    return 1, "empty trace file"


def _bad_version(lines):
    lines[0] = json.dumps({"format_version": 99, "config": {}})
    return 1, "format version 99"


@pytest.mark.parametrize(
    "corrupt",
    [
        _drop_tenant,
        _truncate_json,
        _null_hints,
        _huge_tenant,
        _huge_cores,
        _empty,
        _bad_version,
    ],
    ids=[
        "missing-field",
        "bad-json",
        "null-hints",
        "huge-tenant",
        "huge-cores",
        "empty",
        "bad-version",
    ],
)
def test_malformed_trace_names_file_and_line(corrupt, small_trace, tmp_path):
    path = tmp_path / "trace.jsonl"
    save_trace(small_trace, path)
    lines = path.read_text().splitlines()
    line, fragment = corrupt(lines)
    path.write_text("".join(text + "\n" for text in lines))
    with pytest.raises(TraceFormatError) as caught:
        load_trace(path)
    assert caught.value.path == path
    assert caught.value.line == line
    assert str(caught.value).startswith(f"{path}:{line}: ")
    assert fragment in str(caught.value)
