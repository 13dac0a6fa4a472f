"""run_sweep: cache-aware resume, journalling, reports, degradation."""

import json

import pytest

from repro.experiments.scenarios import grid_specs, small_scenario
from repro.metrics.serialize import run_result_to_dict
from repro.parallel import ResultCache, serial_map
from repro.sweep import (
    CHECKPOINTS_DIR_NAME,
    LEDGER_NAME,
    REPORT_NAME,
    STATUS_CACHED,
    STATUS_OK,
    SupervisorConfig,
    SweepInterrupted,
    SweepLedger,
    run_sweep,
)
from repro.sweep import service as service_module
from repro.sweep import supervisor as supervisor_module


def _dumps(result):
    return json.dumps(run_result_to_dict(result), sort_keys=True)


def _by_label(sweep):
    """Each settled cell's result, by its spec label."""
    return {
        outcome.label: outcome.result
        for outcome in sweep.outcomes
        if outcome.result is not None
    }


@pytest.fixture
def specs():
    scenario = small_scenario(duration_days=0.01, nodes=4, seed=1)
    return grid_specs(scenario, schedulers=("fifo", "coda"), seeds=(1, 2))


#: No real backoff sleeps in tests.
_FAST = SupervisorConfig(backoff_base_s=0.01)


class TestFreshSweep:
    def test_executes_all_and_matches_serial(self, tmp_path, specs):
        cache = ResultCache(tmp_path / "cache")
        result = run_sweep(
            specs, out_dir=tmp_path / "s", cache=cache, supervisor=_FAST
        )
        assert result.ok
        assert result.executed == 4 and result.reused == 0
        by_label = _by_label(result)
        for spec, expected in zip(specs, serial_map(specs)):
            assert _dumps(by_label[spec.label()]) == _dumps(expected)

    def test_ledger_and_report_are_written(self, tmp_path, specs):
        out = tmp_path / "s"
        run_sweep(
            specs,
            out_dir=out,
            cache=ResultCache(tmp_path / "cache"),
            supervisor=_FAST,
        )
        state = SweepLedger.replay(out / LEDGER_NAME)
        assert [entry.status for entry in state.last.values()] == [STATUS_OK] * 4
        report = (out / REPORT_NAME).read_text()
        for spec in specs:
            assert spec.label() in report

    def test_duplicate_specs_rejected(self, tmp_path, specs):
        with pytest.raises(ValueError, match="duplicate"):
            run_sweep(
                specs + specs[:1],
                out_dir=tmp_path / "s",
                cache=ResultCache(tmp_path / "cache"),
            )

    def test_rejects_non_positive_jobs(self, tmp_path, specs):
        with pytest.raises(ValueError, match="jobs"):
            run_sweep(specs, out_dir=tmp_path / "s", jobs=0)


class TestResume:
    def test_completed_sweep_resumes_to_noop(self, tmp_path, specs):
        cache = ResultCache(tmp_path / "cache")
        out = tmp_path / "s"
        first = run_sweep(specs, out_dir=out, cache=cache, supervisor=_FAST)
        again = run_sweep(
            specs, out_dir=out, cache=cache, resume=True, supervisor=_FAST
        )
        assert again.executed == 0
        assert again.reused == 4
        assert [c.status for c in again.outcomes] == [STATUS_CACHED] * 4
        for label, result in _by_label(first).items():
            assert _dumps(_by_label(again)[label]) == _dumps(result)

    def test_resume_reads_the_ledger_once(self, tmp_path, specs, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        out = tmp_path / "s"
        run_sweep(specs, out_dir=out, cache=cache, supervisor=_FAST)
        replays = []
        replay = SweepLedger.replay
        monkeypatch.setattr(
            SweepLedger,
            "replay",
            staticmethod(lambda path: replays.append(path) or replay(path)),
        )
        again = run_sweep(
            specs, out_dir=out, cache=cache, resume=True, supervisor=_FAST
        )
        assert replays == [out / LEDGER_NAME]
        seqs = [entry.seq for entry in replay(out / LEDGER_NAME).entries]
        assert seqs == list(range(len(seqs)))
        assert again.executed == 0

    def test_partial_sweep_runs_only_the_remainder(self, tmp_path, specs):
        cache = ResultCache(tmp_path / "cache")
        out = tmp_path / "s"
        run_sweep(specs[:2], out_dir=out, cache=cache, supervisor=_FAST)
        result = run_sweep(
            specs, out_dir=out, cache=cache, resume=True, supervisor=_FAST
        )
        assert result.reused == 2 and result.executed == 2
        statuses = {c.label: c.status for c in result.outcomes}
        assert statuses[specs[0].label()] == STATUS_CACHED
        assert statuses[specs[3].label()] == STATUS_OK

    def test_resume_tolerates_truncated_ledger_tail(self, tmp_path, specs):
        cache = ResultCache(tmp_path / "cache")
        out = tmp_path / "s"
        run_sweep(specs, out_dir=out, cache=cache, supervisor=_FAST)
        ledger_path = out / LEDGER_NAME
        whole = ledger_path.read_text()
        ledger_path.write_text(whole[: len(whole) - 15])  # crash mid-append
        messages = []
        result = run_sweep(
            specs,
            out_dir=out,
            cache=cache,
            resume=True,
            supervisor=_FAST,
            log=messages.append,
        )
        assert any("truncated" in m for m in messages)
        # The damaged line belonged to an already-cached cell, so the
        # resume still executes nothing and results stay byte-identical.
        assert result.executed == 0 and result.reused == 4
        for spec, expected in zip(specs, serial_map(specs)):
            assert _dumps(_by_label(result)[spec.label()]) == _dumps(
                expected
            )

    def test_crash_mid_batch_keeps_completed_cells(
        self, tmp_path, specs, monkeypatch
    ):
        # Die between cell 1 and cell 2 (the first cell's result is
        # already journalled ``ok``): the resume must serve cell 1 from
        # the cache instead of re-running the whole batch.
        cache = ResultCache(tmp_path / "cache")
        out = tmp_path / "s"
        real_append = SweepLedger.append
        running = []

        def crashing_append(self, key, label, status, **kwargs):
            if status == "running":
                running.append(label)
                if len(running) == 2:
                    raise RuntimeError("simulated crash mid-batch")
            return real_append(self, key, label, status, **kwargs)

        monkeypatch.setattr(SweepLedger, "append", crashing_append)
        with pytest.raises(RuntimeError, match="simulated crash"):
            run_sweep(specs, out_dir=out, cache=cache, supervisor=_FAST)
        monkeypatch.undo()

        result = run_sweep(
            specs, out_dir=out, cache=cache, resume=True, supervisor=_FAST
        )
        assert result.reused == 1 and result.executed == 3
        for spec, expected in zip(specs, serial_map(specs)):
            assert _dumps(_by_label(result)[spec.label()]) == _dumps(
                expected
            )

    def test_no_cache_resume_reruns_and_says_so(self, tmp_path, specs):
        out = tmp_path / "s"
        run_sweep(specs[:2], out_dir=out, cache=None, supervisor=_FAST)
        messages = []
        result = run_sweep(
            specs[:2],
            out_dir=out,
            cache=None,
            resume=True,
            supervisor=_FAST,
            log=messages.append,
        )
        assert result.executed == 2  # nothing to reload from
        assert any("caching is disabled" in m for m in messages)


class TestQuarantinePartialResults:
    def test_poison_cell_reported_and_rest_completes(
        self, tmp_path, specs, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TEST_RAISE_SPEC", "fifo:s1")
        cache = ResultCache(tmp_path / "cache")
        out = tmp_path / "s"
        config = SupervisorConfig(max_retries=1, backoff_base_s=0.01)
        result = run_sweep(
            specs, out_dir=out, cache=cache, supervisor=config
        )
        assert not result.ok
        assert result.quarantined == 1 and result.executed == 3
        report = (out / REPORT_NAME).read_text()
        assert "Quarantined cells" in report
        assert "injected failure" in report
        # The poison cell re-runs on resume; the rest is served cached.
        monkeypatch.delenv("REPRO_TEST_RAISE_SPEC")
        healed = run_sweep(
            specs, out_dir=out, cache=cache, resume=True, supervisor=config
        )
        assert healed.ok
        assert healed.executed == 1 and healed.reused == 3


class TestDegradation:
    def test_single_cpu_host_runs_serial_with_reason(
        self, tmp_path, specs, monkeypatch
    ):
        monkeypatch.setattr(service_module.os, "cpu_count", lambda: 1)
        monkeypatch.delenv("REPRO_SWEEP_FORCE_SPAWN", raising=False)
        messages = []
        result = run_sweep(
            specs,
            out_dir=tmp_path / "s",
            jobs=4,
            cache=ResultCache(tmp_path / "cache"),
            supervisor=_FAST,
            log=messages.append,
        )
        assert result.ok
        assert result.degraded_reason is not None
        assert "1 CPU" in result.degraded_reason
        assert any("degraded" in m for m in messages)
        assert "degraded mode" in (tmp_path / "s" / REPORT_NAME).read_text()

    def test_force_spawn_overrides_single_cpu(
        self, tmp_path, specs, monkeypatch
    ):
        monkeypatch.setattr(service_module.os, "cpu_count", lambda: 1)
        monkeypatch.setenv("REPRO_SWEEP_FORCE_SPAWN", "1")
        messages = []
        result = run_sweep(
            specs,
            out_dir=tmp_path / "s",
            jobs=2,
            supervisor=_FAST,
            log=messages.append,
        )
        assert result.ok
        assert result.degraded_reason is None
        assert any("jobs=2" in m for m in messages)


class TestCheckpointing:
    def test_interval_derives_dir_and_writes_checkpoints(
        self, tmp_path, specs
    ):
        out = tmp_path / "s"
        supervisor = SupervisorConfig(
            backoff_base_s=0.01, checkpoint_every_events=50
        )
        result = run_sweep(
            specs,
            out_dir=out,
            cache=ResultCache(tmp_path / "cache"),
            supervisor=supervisor,
        )
        assert result.ok
        # Short cells (fifo fires ~31 events) never reach the 50-event
        # interval; the long coda cells must have durable snapshots.
        cells = {p.name for p in (out / CHECKPOINTS_DIR_NAME).iterdir()}
        assert cells <= {s.label().replace(":", "_") for s in specs}
        for label in ("coda_s1", "coda_s2"):
            assert label in cells
            written = [
                p.name for p in (out / CHECKPOINTS_DIR_NAME / label).iterdir()
            ]
            assert written and all(n.startswith("ckpt-") for n in written)

    def test_checkpointing_does_not_perturb_results(self, tmp_path, specs):
        supervisor = SupervisorConfig(
            backoff_base_s=0.01, checkpoint_every_events=50
        )
        result = run_sweep(
            specs,
            out_dir=tmp_path / "s",
            cache=ResultCache(tmp_path / "cache"),
            supervisor=supervisor,
        )
        by_label = _by_label(result)
        for spec, expected in zip(specs, serial_map(specs)):
            assert _dumps(by_label[spec.label()]) == _dumps(expected)

    def test_midrun_kill_journals_the_restore(
        self, tmp_path, specs, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TEST_CRASH_SPEC", "coda:s1")
        monkeypatch.setenv("REPRO_TEST_CRASH_MODE", "midrun")
        monkeypatch.setenv("REPRO_TEST_CRASH_EVENT", "120")
        monkeypatch.setenv("REPRO_TEST_CRASH_ONCE_DIR", str(tmp_path / "once"))
        # The SIGKILL must land in a worker process, not the test run:
        # don't let a single-CPU host degrade the batch to in-process.
        monkeypatch.setenv("REPRO_SWEEP_FORCE_SPAWN", "1")
        out = tmp_path / "s"
        supervisor = SupervisorConfig(
            backoff_base_s=0.01,
            max_retries=2,
            checkpoint_every_events=40,
        )
        result = run_sweep(
            specs,
            out_dir=out,
            jobs=2,
            cache=ResultCache(tmp_path / "cache"),
            supervisor=supervisor,
        )
        assert result.ok
        ledger_text = (out / LEDGER_NAME).read_text()
        assert "restored_from=" in ledger_text
        by_label = _by_label(result)
        for spec, expected in zip(specs, serial_map(specs)):
            assert _dumps(by_label[spec.label()]) == _dumps(expected)

    def test_report_carries_cache_stats_line(self, tmp_path, specs):
        out = tmp_path / "s"
        run_sweep(
            specs,
            out_dir=out,
            cache=ResultCache(tmp_path / "cache"),
            supervisor=_FAST,
        )
        report = (out / REPORT_NAME).read_text()
        assert "- cache:" in report
        assert "store retry" in report and "store failure" in report


class TestInterruptedSweep:
    def _interrupt_on(self, monkeypatch, label):
        real = supervisor_module._execute_attempt

        def fake(spec, config, notify=None):
            if spec.label() == label:
                raise KeyboardInterrupt
            return real(spec, config, notify)

        monkeypatch.setattr(supervisor_module, "_execute_attempt", fake)

    def test_interrupt_journals_flushes_and_raises(
        self, tmp_path, specs, monkeypatch
    ):
        self._interrupt_on(monkeypatch, "coda:s1")
        out = tmp_path / "s"
        with pytest.raises(SweepInterrupted) as info:
            run_sweep(
                specs,
                out_dir=out,
                cache=ResultCache(tmp_path / "cache"),
                supervisor=_FAST,
            )
        result = info.value.result
        assert not result.ok
        assert result.interrupted == 2  # coda:s1 and the never-started coda:s2
        assert result.executed == 2
        ledger_text = (out / LEDGER_NAME).read_text()
        assert '"interrupted"' in ledger_text
        # Partial results and the report were still flushed.
        assert (out / REPORT_NAME).exists()
        assert "interrupted" in (out / REPORT_NAME).read_text()

    def test_interrupted_sweep_resumes_to_completion(
        self, tmp_path, specs, monkeypatch
    ):
        self._interrupt_on(monkeypatch, "coda:s1")
        out = tmp_path / "s"
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(SweepInterrupted):
            run_sweep(specs, out_dir=out, cache=cache, supervisor=_FAST)
        monkeypatch.undo()
        result = run_sweep(specs, out_dir=out, cache=cache, supervisor=_FAST)
        assert result.ok
        assert result.reused == 2  # the two cells settled before the signal
        assert result.executed == 2  # the interrupted remainder re-ran
        by_label = _by_label(result)
        for spec, expected in zip(specs, serial_map(specs)):
            assert _dumps(by_label[spec.label()]) == _dumps(expected)
