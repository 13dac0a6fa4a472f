"""The ``repro-sim sweep`` subcommand end to end."""

import json

import pytest

from repro.cli import main
from repro.sweep import LEDGER_NAME, MANIFEST_NAME, REPORT_NAME


def _sweep_argv(base, mode_flag, mode_dir):
    return [
        "sweep", mode_flag, str(mode_dir),
        "--days", "0.02", "--policies", "fifo,coda", "--seeds", "1",
        "--jobs", "1", "--backoff-base", "0.01",
        "--cache-dir", str(base / "cache"),
    ]


class TestFreshAndResume:
    def test_fresh_then_resume_is_noop(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(_sweep_argv(tmp_path, "--out", out)) == 0
        fresh = capsys.readouterr().out
        assert "Starting sweep" in fresh
        assert "2 cell(s)" in fresh
        assert "executed 2 new simulation run(s), reused 0" in fresh
        for name in (MANIFEST_NAME, LEDGER_NAME, REPORT_NAME):
            assert (out / name).is_file()

        assert main(_sweep_argv(tmp_path, "--resume", out)) == 0
        resumed = capsys.readouterr().out
        assert "Resuming sweep" in resumed
        assert "executed 0 new simulation run(s), reused 2" in resumed

    def test_resume_ignores_drifted_flags(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(_sweep_argv(tmp_path, "--out", out)) == 0
        capsys.readouterr()
        # The manifest pins the grid; the drifted --policies is ignored.
        argv = _sweep_argv(tmp_path, "--resume", out)
        argv[argv.index("--policies") + 1] = "drf"
        assert main(argv) == 0
        resumed = capsys.readouterr().out
        assert "executed 0 new simulation run(s), reused 2" in resumed


class TestFlagErrors:
    def test_fresh_into_existing_sweep_dir_refused(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(_sweep_argv(tmp_path, "--out", out)) == 0
        capsys.readouterr()
        assert main(_sweep_argv(tmp_path, "--out", out)) == 2
        assert "--resume" in capsys.readouterr().err

    def test_resume_without_manifest_refused(self, tmp_path, capsys):
        assert main(_sweep_argv(tmp_path, "--resume", tmp_path / "nope")) == 2
        assert MANIFEST_NAME in capsys.readouterr().err

    def test_unknown_policy_refused(self, tmp_path, capsys):
        argv = _sweep_argv(tmp_path, "--out", tmp_path / "sweep")
        argv[argv.index("--policies") + 1] = "fifo,magic"
        assert main(argv) == 2
        assert "magic" in capsys.readouterr().err

    def test_negative_retries_refused(self, tmp_path, capsys):
        argv = _sweep_argv(tmp_path, "--out", tmp_path / "sweep")
        argv += ["--retries", "-1"]
        assert main(argv) == 2
        assert "--retries" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, field",
        [
            ("{not json", "unreadable"),
            ('["small"]', "not a JSON object"),
            ('{"days": 0.02, "policies": ["fifo"], "seeds": [1]}', "'scale'"),
            ('{"scale": "huge", "days": 0.02, "policies": ["fifo"], '
             '"seeds": [1]}', "'scale'"),
            ('{"scale": "small", "days": "long", "policies": ["fifo"], '
             '"seeds": [1]}', "'days'"),
            ('{"scale": "small", "days": 0.02, "policies": "fifo", '
             '"seeds": [1]}', "'policies'"),
            ('{"scale": "small", "days": 0.02, "policies": [], '
             '"seeds": [1]}', "'policies'"),
            ('{"scale": "small", "days": 0.02, "policies": ["fifo"], '
             '"seeds": []}', "'seeds'"),
            ('{"scale": "small", "days": 0.02, "policies": ["fifo"], '
             '"seeds": ["1"]}', "'seeds'"),
        ],
        ids=[
            "unreadable",
            "not-an-object",
            "missing-scale",
            "unknown-scale",
            "mistyped-days",
            "mistyped-policies",
            "empty-policies",
            "empty-seeds",
            "mistyped-seeds",
        ],
    )
    def test_malformed_manifest_refused(self, tmp_path, capsys, text, field):
        out = tmp_path / "sweep"
        out.mkdir()
        (out / MANIFEST_NAME).write_text(text, encoding="utf-8")
        assert main(_sweep_argv(tmp_path, "--resume", out)) == 2
        err = capsys.readouterr().err
        assert str(out / MANIFEST_NAME) in err
        assert field in err
        assert not (out / LEDGER_NAME).exists()


class TestQuarantineExitCode:
    def test_poison_cell_exits_nonzero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_RAISE_SPEC", "fifo:s1")
        argv = _sweep_argv(tmp_path, "--out", tmp_path / "sweep")
        argv += ["--retries", "0"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "quarantined 1" in out
        assert "report:" in out


class TestInterruptExitCode:
    def test_sigint_mid_sweep_exits_130(self, tmp_path, capsys, monkeypatch):
        from repro.sweep import supervisor as supervisor_module

        real = supervisor_module._execute_attempt

        def fake(spec, config, notify=None):
            if spec.label() == "coda:s1":
                raise KeyboardInterrupt
            return real(spec, config, notify)

        monkeypatch.setattr(supervisor_module, "_execute_attempt", fake)
        out = tmp_path / "sweep"
        assert main(_sweep_argv(tmp_path, "--out", out)) == 130
        captured = capsys.readouterr()
        assert "interrupted" in captured.err
        assert "--resume" in captured.err
        assert (out / REPORT_NAME).is_file()

    def test_non_positive_checkpoint_interval_refused(self, tmp_path, capsys):
        argv = _sweep_argv(tmp_path, "--out", tmp_path / "sweep")
        argv += ["--checkpoint-interval", "0"]
        assert main(argv) == 2
        assert "--checkpoint-interval" in capsys.readouterr().err
