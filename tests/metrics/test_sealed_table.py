"""Sealed job tables: what a finished run keeps of its per-job data.

:meth:`~repro.metrics.collector.JobTable.seal` packs a finished table's
ids into one string and narrows its int columns.  These tests hold a
sealed table to its open twin, read for read; check that it refuses
every write; and check where tables are sealed: every finished or
decoded result, never a collector restored from a checkpoint.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import restore_run, snapshot_run
from repro.experiments.runner import RunResult
from repro.metrics.collector import JobTable, MetricsCollector, SealedJobTable
from repro.metrics.serialize import run_result_from_dict, run_result_to_dict
from repro.parallel import ResultCache, SimPool
from repro.perfmodel.stages import TrainSetup
from repro.workload.job import MAX_C_INT, CpuJob, GpuJob, JobKind
from tests.checkpoint.test_restore import _faulted_spec

#: One job's history: ``(kind, tenant, count, start, resize, preempts,
#: failures, finish)``; ``count`` is its cores (CPU) or cores per node
#: (GPU), ``start`` a ``(time, cores)`` pair or None.
_INT = st.one_of(st.integers(1, 200), st.integers(1, MAX_C_INT))
_TIME = st.floats(0.0, 1e6, allow_nan=False)
_HISTORY = st.tuples(
    st.sampled_from(JobKind),
    st.one_of(st.integers(0, 100), st.integers(0, MAX_C_INT)),
    _INT,
    st.none() | st.tuples(_TIME, st.integers(0, MAX_C_INT)),
    st.none() | st.integers(0, 40000),
    st.integers(0, 3),
    st.integers(0, 300),
    st.none() | _TIME,
)


def _job(job_id, kind, tenant, count):
    if kind is JobKind.CPU:
        return CpuJob(job_id=job_id, tenant_id=tenant, submit_time=0.0, cores=count)
    return GpuJob(
        job_id=job_id,
        tenant_id=tenant,
        submit_time=0.0,
        model_name="vgg16" if tenant % 2 else "transformer",
        setup=TrainSetup(1 + tenant % 2, 2),
        requested_cpus=count,
    )


def _collector(jobs):
    """A collector that saw ``jobs``: ``{job id: history}``, in order."""
    collector = MetricsCollector()
    for job_id, (kind, tenant, count, *_) in jobs.items():
        collector.job_submitted(_job(job_id, kind, tenant, count), 1.0)
    for job_id, (*_, start, resize, preempts, failures, finish) in jobs.items():
        if start is not None:
            collector.job_started(job_id, *start)
        if resize is not None:
            collector.job_resized(job_id, resize)
        for _ in range(preempts):
            collector.job_preempted(job_id, 2.0)
        for _ in range(failures):
            collector.job_failed(job_id, 2.0)
        if finish is not None:
            collector.job_finished(job_id, finish)
    return collector


def _sealed(jobs):
    collector = _collector(jobs)
    collector.records.seal()
    return collector


@settings(max_examples=60, deadline=None)
@given(
    jobs=st.dictionaries(st.text(max_size=8), _HISTORY, max_size=25),
    absent=st.lists(st.one_of(st.text(max_size=8), st.integers()), max_size=5),
    cut=st.tuples(st.integers(-30, 30), st.none() | st.integers(-30, 30)),
)
def test_a_sealed_table_reads_like_its_open_twin(jobs, absent, cut):
    open_, sealed = _collector(jobs), _sealed(jobs)
    table, packed = open_.records, sealed.records
    assert type(table) is JobTable and type(packed) is SealedJobTable
    assert len(packed) == len(table) == len(jobs)
    assert list(packed) == list(table) == list(jobs)
    for job_id in jobs:
        assert job_id in packed
        assert packed[job_id] == table[job_id]
        assert packed.get(job_id) == table.get(job_id)
    for missing in absent:
        if missing in jobs:
            continue
        assert missing not in packed
        assert packed.get(missing, "none") == "none"
        with pytest.raises(KeyError):
            packed[missing]
    for kind in (None, *JobKind):
        assert list(packed.rows_of(kind)) == list(table.rows_of(kind))
        assert sealed.finished_records(kind) == open_.finished_records(kind)
        assert sealed.started_records(kind) == open_.started_records(kind)
    assert list(packed.decoded()) == list(table.decoded())
    assert list(packed.decoded(*cut)) == list(table.decoded(*cut))
    assert dict(packed) == dict(table)
    assert json.dumps(sealed.snapshot()) == json.dumps(open_.snapshot())


@settings(max_examples=40, deadline=None)
@given(jobs=st.dictionaries(st.text(max_size=8), _HISTORY, max_size=25))
def test_an_open_table_and_its_sealed_twin_write_the_same_result(jobs):
    """Each int column's width on the wire is what its values need, so a
    result writes the same bytes before and after its table is sealed,
    and reads back to them."""

    def written(collector):
        result = RunResult(scheduler_name="drf", collector=collector, horizon_s=1.0)
        return json.dumps(run_result_to_dict(result))

    text = written(_collector(jobs))
    assert written(_sealed(jobs)) == text
    decoded = run_result_from_dict(json.loads(text))
    assert dict(decoded.collector.records) == dict(_collector(jobs).records)
    assert json.dumps(run_result_to_dict(decoded)) == text


def test_sealing_narrows_int_columns_to_what_their_values_need():
    jobs = {
        "a": (JobKind.CPU, 3, 4, (1.0, 4), None, 0, 0, None),
        "b": (JobKind.CPU, 300, MAX_C_INT, None, None, 0, 0, None),
    }
    packed = _sealed(jobs).records
    assert packed.id_text == "ab"
    assert packed.start_count.typecode == "b"
    assert packed.tenant_id.typecode == "h"
    assert packed.requested_cpus.typecode == "i"
    assert packed.final_cpus.typecode == "b"  # -1 marks unset cores
    assert packed["b"].requested_cpus == MAX_C_INT


class TestSealedTableIsReadOnly:
    def _sealed(self):
        jobs = {"c1": (JobKind.CPU, 1, 4, (1.0, 4), None, 0, 0, None)}
        return _sealed(jobs)

    @pytest.mark.parametrize(
        "write",
        [
            lambda c: c.job_submitted(_job("c2", JobKind.CPU, 1, 1), 3.0),
            lambda c: c.job_started("c1", 3.0, 2),
            lambda c: c.job_resized("c1", 2),
            lambda c: c.job_preempted("c1", 3.0),
            lambda c: c.job_failed("c1", 3.0),
            lambda c: c.job_finished("c1", 3.0),
            lambda c: c.records.append(*next(c.records.decoded())),
        ],
        ids=["submit", "start", "resize", "preempt", "fail", "finish", "append"],
    )
    def test_every_write_raises(self, write):
        collector = self._sealed()
        before = json.dumps(collector.snapshot())
        with pytest.raises(RuntimeError, match="sealed"):
            write(collector)
        assert json.dumps(collector.snapshot()) == before

    def test_a_sealed_table_does_not_load(self):
        collector = self._sealed()
        with pytest.raises(RuntimeError, match="sealed"):
            collector.restore(collector.snapshot())


class TestWhereTablesAreSealed:
    def test_a_finished_run(self):
        result = _faulted_spec("drf").execute()
        assert type(result.collector.records) is SealedJobTable

    def test_a_decoded_result(self):
        result = _faulted_spec("fifo").execute()
        data = json.loads(json.dumps(run_result_to_dict(result)))
        decoded = run_result_from_dict(data)
        assert type(decoded.collector.records) is SealedJobTable
        assert run_result_to_dict(decoded) == data

    def test_pooled_and_cached_results(self, tmp_path):
        spec = _faulted_spec("coda")
        cold = SimPool(jobs=1, cache=ResultCache(tmp_path)).map([spec])[0]
        cache = ResultCache(tmp_path)
        warm = SimPool(jobs=1, cache=cache).map([spec])[0]
        assert cache.stats.hits == 1
        for result in (cold, warm):
            assert type(result.collector.records) is SealedJobTable
        assert run_result_to_dict(warm) == run_result_to_dict(cold)

    def test_a_restored_collector_stays_open_and_resumes(self):
        spec = _faulted_spec("coda")
        runner = spec.build_runner()
        runner.enable_sampling()
        runner.engine.run(max_events=150)
        runner = restore_run(spec, json.loads(json.dumps(snapshot_run(runner, spec))))
        assert type(runner.collector.records) is JobTable
        resumed = runner.run(until=spec.resolved_scenario().horizon_s)
        assert type(resumed.collector.records) is SealedJobTable
        assert json.dumps(run_result_to_dict(resumed)) == json.dumps(
            run_result_to_dict(spec.execute())
        )
