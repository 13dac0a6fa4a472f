"""CLI smoke tests."""

import pytest

from repro.cli import main
from repro.workload.traceio import load_trace


class TestRun:
    def test_run_small_coda(self, capsys):
        assert main(["run", "--days", "0.05", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "CODA summary" in out
        assert "GPU utilization" in out

    def test_run_fifo(self, capsys):
        assert main(["run", "--policy", "fifo", "--days", "0.05"]) == 0
        assert "FIFO summary" in capsys.readouterr().out

    def test_profiled_run_prints_the_same_summary_and_its_time_shares(
        self, capsys
    ):
        argv = ["run", "--days", "0.02", "--no-cache"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--profile"]) == 0
        summary, title, shares = capsys.readouterr().out.partition(
            "\nTime shares (host time per event category):"
        )
        assert title and summary == plain
        rows = [line.split() for line in shares.strip().splitlines()[2:]]
        categories = {row[0] for row in rows}
        assert {"arrival", "schedule-pass", "sample", "eliminator-tick"} <= categories
        events = int(summary.split("simulation events")[1].split()[0])
        assert sum(int(row[1]) for row in rows) == events

    def test_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            main(["run", "--policy", "magic"])


class TestCompare:
    def test_compare_small(self, capsys):
        assert main(["compare", "--days", "0.05", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "fifo" in out and "drf" in out and "coda" in out


class TestCacheFlags:
    def test_run_warm_cache_hit(self, tmp_path, capsys):
        argv = [
            "run", "--days", "0.02", "--seed", "1",
            "--cache-dir", str(tmp_path / "c"), "--cache-stats",
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "1 miss(es)" in cold and "1 store(s)" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "1 hit(s)" in warm and "0 miss(es)" in warm
        # The cached replay renders the identical summary table.
        strip = lambda text: [  # noqa: E731
            line for line in text.splitlines() if "cache:" not in line
        ]
        assert strip(cold) == strip(warm)

    def test_no_cache_disables(self, tmp_path, capsys):
        assert main(
            [
                "run", "--days", "0.02", "--no-cache",
                "--cache-dir", str(tmp_path / "c"), "--cache-stats",
            ]
        ) == 0
        assert "cache: disabled" in capsys.readouterr().out
        assert not (tmp_path / "c").exists()

    def test_audit_run_bypasses_cache(self, tmp_path, capsys):
        assert main(
            [
                "run", "--days", "0.02", "--audit",
                "--cache-dir", str(tmp_path / "c"), "--cache-stats",
            ]
        ) == 0
        assert "cache: disabled" in capsys.readouterr().out
        assert not (tmp_path / "c").exists()

    def test_compare_jobs_and_cache(self, tmp_path, capsys):
        argv = [
            "compare", "--days", "0.02", "--seed", "1", "--jobs", "1",
            "--cache-dir", str(tmp_path / "c"), "--cache-stats",
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "3 miss(es)" in cold and "3 store(s)" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "3 hit(s)" in warm and "0 miss(es)" in warm

    def test_compare_rejects_bad_jobs(self, capsys):
        assert main(["compare", "--days", "0.02", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_compare_jobs_clamped_on_single_cpu(
        self, tmp_path, capsys, monkeypatch
    ):
        # Same rule as the sweep service: an explicit --jobs request
        # degrades to serial on a one-core host unless
        # REPRO_SWEEP_FORCE_SPAWN overrides (results are identical
        # either way; only worker count changes).
        import repro.parallel.pool as pool_module

        monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 1)
        monkeypatch.delenv("REPRO_SWEEP_FORCE_SPAWN", raising=False)
        assert main(
            [
                "compare", "--days", "0.02", "--seed", "1", "--jobs", "3",
                "--cache-dir", str(tmp_path / "c"),
            ]
        ) == 0
        assert "clamped to 1" in capsys.readouterr().err


class TestTrace:
    def test_trace_round_trip(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(
            [
                "trace",
                str(path),
                "--days",
                "0.05",
                "--gpu-jobs-per-day",
                "100",
                "--cpu-jobs-per-day",
                "300",
            ]
        ) == 0
        trace = load_trace(path)
        assert len(trace.jobs) > 0
        assert "Wrote" in capsys.readouterr().out


class TestCharacterize:
    def test_characterize_default(self, capsys):
        assert main(["characterize"]) == 0
        out = capsys.readouterr().out
        assert "resnet50" in out
        assert "optimum: 3 cores" in out

    def test_characterize_alias(self, capsys):
        assert main(["characterize", "Bi-Att-Flow"]) == 0
        assert "bat" in capsys.readouterr().out

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            main(["characterize", "gpt5"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestFaultFlags:
    def test_run_with_mtbf_prints_fault_summary(self, capsys):
        assert main(
            ["run", "--days", "0.05", "--mtbf", "1.5", "--fault-seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "node MTBF 1.5 h" in out
        assert "node failures" in out
        assert "job restarts" in out
        assert "node downtime" in out

    def test_run_without_mtbf_hides_fault_rows(self, capsys):
        assert main(["run", "--days", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "node failures" not in out


class TestResilienceFlags:
    def test_fault_run_prints_resilience_rows(self, capsys):
        assert main(
            ["run", "--days", "0.05", "--mtbf", "1.5", "--fault-seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "quarantines" in out
        assert "quarantine time" in out
        assert "dead jobs" in out
        assert "flap suppressions" in out  # coda is the default policy

    def test_fifo_fault_run_has_no_flap_row(self, capsys):
        assert main(
            ["run", "--policy", "fifo", "--days", "0.05", "--mtbf", "1.5"]
        ) == 0
        out = capsys.readouterr().out
        assert "quarantines" in out
        assert "flap suppressions" not in out

    def test_failure_free_run_hides_resilience_rows(self, capsys):
        assert main(["run", "--days", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "quarantines" not in out
        assert "dead jobs" not in out

    def test_quarantine_threshold_flag_accepted(self, capsys):
        assert main(
            [
                "run", "--days", "0.05", "--mtbf", "0.5",
                "--quarantine-threshold", "1.0", "--max-restarts", "2",
            ]
        ) == 0
        assert "quarantines" in capsys.readouterr().out

    def test_zero_max_restarts_means_unlimited(self, capsys):
        assert main(
            ["run", "--days", "0.05", "--mtbf", "1.0", "--max-restarts", "0"]
        ) == 0
        # Unlimited budget: the ledger row renders and stays empty.
        assert "dead jobs" in capsys.readouterr().out

    def test_negative_max_restarts_rejected(self, capsys):
        assert main(["run", "--days", "0.05", "--max-restarts", "-1"]) == 2
        assert "max-restarts" in capsys.readouterr().err

    def test_non_positive_quarantine_threshold_rejected(self, capsys):
        assert (
            main(["run", "--days", "0.05", "--quarantine-threshold", "0"]) == 2
        )
        assert "quarantine-threshold" in capsys.readouterr().err

    def test_audited_fault_run_passes_iv007(self, capsys):
        assert main(
            [
                "run", "--days", "0.05", "--mtbf", "0.5",
                "--fault-seed", "7", "--audit",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out


class TestCheckpointFlags:
    def test_checkpoint_run_then_restore(self, tmp_path, capsys):
        ckpts = tmp_path / "ckpts"
        argv = [
            "run", "--days", "0.02", "--seed", "1",
            "--checkpoint-dir", str(ckpts), "--checkpoint-interval", "50",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "CODA summary" in first
        written = sorted(p.name for p in ckpts.iterdir())
        assert written and all(n.startswith("ckpt-") for n in written)

        assert main(argv + ["--restore", str(ckpts / written[-1])]) == 0
        resumed = capsys.readouterr().out
        # Resuming from the newest snapshot replays the identical summary.
        assert resumed == first

    def test_damaged_checkpoint_fails_loudly(self, tmp_path, capsys):
        bad = tmp_path / "ckpt-000000000050.json"
        bad.write_text("garbage")
        argv = [
            "run", "--days", "0.02",
            "--checkpoint-dir", str(tmp_path), "--checkpoint-interval", "50",
            "--restore", str(bad),
        ]
        assert main(argv) == 1
        assert "checkpoint" in capsys.readouterr().err

    def test_interval_without_dir_rejected(self, capsys):
        assert main(["run", "--checkpoint-interval", "50"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_dir_without_interval_rejected(self, tmp_path, capsys):
        assert main(["run", "--checkpoint-dir", str(tmp_path)]) == 2
        assert "--checkpoint-interval" in capsys.readouterr().err

    def test_non_positive_interval_rejected(self, tmp_path, capsys):
        argv = [
            "run", "--checkpoint-dir", str(tmp_path),
            "--checkpoint-interval", "0",
        ]
        assert main(argv) == 2
        assert "--checkpoint-interval" in capsys.readouterr().err

    def test_checkpointing_incompatible_with_audit(self, tmp_path, capsys):
        argv = [
            "run", "--audit",
            "--checkpoint-dir", str(tmp_path),
            "--checkpoint-interval", "50",
        ]
        assert main(argv) == 2
        assert "--audit" in capsys.readouterr().err
