"""The benchmark gate's comparisons and its retry-on-noise rule.

Work counts and result digests repeat exactly for a fixed seed, so any
difference fails at once.  Host time is noisy: ``check`` re-measures a
too-slow ``run_s`` (when given a ``rerun`` hook) and fails only when
every attempt is over the limit.  Every record here is fake; nothing is
simulated.
"""

import copy

from tools.check_bench import COUNTS, PYTHON, check

PINNED = {
    "counts": {name: 100.0 for name in COUNTS},
    "digests": ["aa", "bb"],
    "run_s": {PYTHON: 1.0},
}
COMMITTED = {"s": PINNED}


def fresh(run_s=1.0, **counts):
    record = copy.deepcopy(PINNED)
    record["run_s"] = run_s
    record["counts"].update(counts)
    return record


def test_noise_blip_clears_on_retry():
    calls = []

    def rerun(name):
        calls.append(name)
        return 1.1

    failures = check({"s": fresh(run_s=1.5)}, COMMITTED, rerun=rerun)
    assert failures == 0
    assert calls == ["s"]


def test_real_regression_fails_every_attempt():
    calls = []

    def rerun(name):
        calls.append(name)
        return 1.5

    failures = check({"s": fresh(run_s=1.5)}, COMMITTED, rerun=rerun, retries=2)
    assert failures == 1
    assert calls == ["s", "s"]


def test_single_shot_without_rerun_hook():
    assert check({"s": fresh(run_s=1.5)}, COMMITTED) == 1
    assert check({"s": fresh(run_s=1.2)}, COMMITTED) == 0


def test_missing_committed_entry_is_skipped():
    assert check({"new_workload": fresh(run_s=99.0)}, COMMITTED) == 0


def test_count_rise_fails(capsys):
    record = fresh(**{"schedulers.pass_calls": 101.0})
    assert check({"s": record}, COMMITTED) == 1
    assert "schedulers.pass_calls rose 100 -> 101" in capsys.readouterr().out


def test_count_drop_fails_until_the_file_is_rewritten(capsys):
    record = fresh(**{"perfmodel.iteration_time_calls": 99.0})
    assert check({"s": record}, COMMITTED) == 1
    out = capsys.readouterr().out
    assert "perfmodel.iteration_time_calls dropped 100 -> 99" in out
    assert "--write" in out
    assert check({"s": record}, {"s": dict(record, run_s={PYTHON: 1.0})}) == 0


def test_digest_mismatch_fails(capsys):
    record = fresh()
    record["digests"] = ["aa", "cc"]
    assert check({"s": record}, COMMITTED) == 1
    assert "result digests differ" in capsys.readouterr().out


def test_exact_failure_is_not_retried():
    calls = []
    record = fresh(**{"sim.events": 101.0})
    assert check({"s": record}, COMMITTED, rerun=calls.append) == 1
    assert calls == []


def test_host_time_unchecked_without_a_committed_run_s_for_this_python(capsys):
    committed = {"s": dict(PINNED, run_s={"2.7": 1.0})}
    assert check({"s": fresh(run_s=99.0)}, committed) == 0
    assert "host time not checked" in capsys.readouterr().out
