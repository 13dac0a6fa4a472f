"""The collector's columnar job table and array-backed series.

Every result keeps its collector, so per-job data lives in one
:class:`~repro.metrics.collector.JobTable` (an ``array`` per field) and
records are built only when read.  These tests hold the table to the
dict of records it replaced: the same records read back from its packed
columns, the same ``Mapping`` behaviour, and the same unset values at
the edges its sentinels encode (NaN times, -1 cores, label 0).
"""

import dataclasses
import gc
import json
import math
import types
from array import array

import pytest

from repro.experiments.scenarios import small_scenario
from repro.faults import FaultConfig
from repro.health import HealthConfig
from repro.metrics.collector import JobRecord, JobTable, MetricsCollector
from repro.metrics.serialize import run_result_to_dict
from repro.metrics.series import SampledSeries
from repro.parallel.spec import RunSpec
from repro.perfmodel.stages import TrainSetup
from repro.sim.state import CheckpointError, Packed, Refs, decode, load
from repro.workload.job import CpuJob, GpuJob, JobKind

FAULTS = FaultConfig(
    seed=3,
    node_mtbf_s=1800.0,
    node_mttr_s=600.0,
    gpu_mtbf_s=3600.0,
    telemetry_mtbf_s=1200.0,
    straggler_interval_s=900.0,
)


def _spec(policy, faulted):
    scenario = small_scenario(duration_days=0.05, seed=2, nodes=4)
    if not faulted:
        return RunSpec(scenario=scenario, scheduler=policy)
    return RunSpec(
        scenario=scenario.with_faults(FAULTS),
        scheduler=policy,
        health_config=HealthConfig(),
    )


def _gpu(job_id="g1", tenant=1, nodes=1, cpus=2, model="resnet50"):
    return GpuJob(
        job_id=job_id,
        tenant_id=tenant,
        submit_time=0.0,
        model_name=model,
        setup=TrainSetup(nodes, 1),
        requested_cpus=cpus,
        total_iterations=10,
    )


def _cpu(job_id="c1", tenant=2):
    return CpuJob(job_id=job_id, tenant_id=tenant, submit_time=0.0, cores=4)


def _loaded(data):
    """A fresh collector loaded from its declared state ``data``."""
    collector = MetricsCollector()
    load(collector, data, "collector", Refs())
    return collector


def _unpack(text):
    """The values of a packed column."""
    return decode(Packed("bhid", nan=True), text, "column").tolist()


def _pack(values, typecode):
    return Packed(typecode).dump(array(typecode, values))


def _reachable(root):
    """Every object reachable from ``root``, not through classes or
    modules (which would reach the whole interpreter)."""
    seen = {id(root): root}
    stack = [root]
    while stack:
        for child in gc.get_referents(stack.pop()):
            if isinstance(child, (type, types.ModuleType)) or id(child) in seen:
                continue
            seen[id(child)] = child
            stack.append(child)
    return list(seen.values())


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
@pytest.mark.parametrize("policy", ["coda", "drf"])
def test_serialized_collector_round_trips(policy, faulted):
    result = _spec(policy, faulted).execute()
    data = json.loads(json.dumps(result.collector.snapshot()))
    assert data["records"] and data["series"]["gpu_active_rate"]
    rebuilt = _loaded(data)
    assert rebuilt.snapshot() == data
    # Byte-identical too: a count series stays ints, a time stays a float.
    assert json.dumps(rebuilt.snapshot()) == json.dumps(data)
    assert dict(rebuilt.records) == dict(result.collector.records)


def test_a_finished_result_holds_no_job_record():
    result = _spec("coda", faulted=True).execute()
    assert result.collector.records
    assert not [o for o in _reachable(result) if isinstance(o, JobRecord)]


class TestSentinels:
    def test_start_at_time_zero_is_a_start(self):
        collector = MetricsCollector()
        collector.job_submitted(_cpu(), 0.0)
        collector.job_started("c1", 0.0, 4)
        collector.job_started("c1", 9.0, 4)
        record = collector.records["c1"]
        assert record.first_start == 0.0 and record.queueing_time == 0.0
        assert collector.queueing_times() == [0.0]
        assert len(collector.started_records()) == 1

    def test_zero_final_cores_is_not_unset(self):
        collector = MetricsCollector()
        collector.job_submitted(_gpu("zero", cpus=3), 0.0)
        collector.job_submitted(_gpu("unset", cpus=3), 0.0)
        collector.job_started("zero", 1.0, 0)
        assert collector.records["zero"].final_cpus == 0
        assert collector.records["zero"].core_adjustment == -3
        assert collector.records["unset"].final_cpus is None
        assert collector.records["unset"].core_adjustment is None
        rebuilt = _loaded(collector.snapshot())
        assert rebuilt.records["zero"].final_cpus == 0
        assert rebuilt.records["unset"].final_cpus is None

    def test_negative_cores_rejected(self):
        collector = MetricsCollector()
        collector.job_submitted(_gpu(), 0.0)
        with pytest.raises(ValueError):
            collector.job_started("g1", 1.0, -1)
        with pytest.raises(ValueError):
            collector.job_resized("g1", -1)

    def test_unfinished_job(self):
        collector = MetricsCollector()
        collector.job_submitted(_gpu(), 5.0)
        collector.job_started("g1", 7.0, 2)
        record = collector.records["g1"]
        assert record.finish_time is None
        assert record.finish_time is None and record.processing_time is None
        assert collector.finished_records() == []
        assert collector.finished_count() == 0
        data = collector.snapshot()
        assert math.isnan(_unpack(data["records"]["finish_time"])[0])

    def test_nan_time_rejected_at_record_time(self):
        collector = MetricsCollector()
        with pytest.raises(ValueError):
            collector.job_submitted(_cpu(), math.nan)
        assert "c1" not in collector.records and len(collector.records) == 0
        collector.job_submitted(_cpu(), 0.0)
        with pytest.raises(ValueError):
            collector.job_started("c1", math.nan, 4)
        with pytest.raises(ValueError):
            collector.job_finished("c1", math.nan)
        record = collector.records["c1"]
        assert record.first_start is None and record.finish_time is None

    def test_nan_time_rejected_at_load(self):
        collector = MetricsCollector()
        collector.job_submitted(_cpu(), 0.0)
        data = collector.snapshot()
        data["records"]["submit_time"] = _pack([math.nan], "d")
        with pytest.raises(
            CheckpointError, match=r"^collector\.records\.submit_time\[0\]: NaN$"
        ):
            _loaded(data)

    def test_cpu_job_has_no_model_or_setup(self):
        collector = MetricsCollector()
        collector.job_submitted(_cpu(), 0.0)
        record = collector.records["c1"]
        assert record.model is None and record.setup_label is None
        assert record.kind is JobKind.CPU


class TestMappingParity:
    def _collector(self):
        collector = MetricsCollector()
        for job in (_gpu("g2"), _cpu("c1"), _gpu("g1", tenant=3), _cpu("c0")):
            collector.job_submitted(job, 1.0)
        collector.job_started("g1", 2.0, 3)
        collector.job_finished("g1", 9.0)
        return collector

    def test_behaves_like_the_dict_it_replaced(self):
        table = self._collector().records
        as_dict = dict(table.items())
        assert len(table) == len(as_dict) == 4
        assert list(table) == list(as_dict) == ["g2", "c1", "g1", "c0"]
        assert list(table.keys()) == list(as_dict.keys())
        assert list(table.values()) == list(as_dict.values())
        assert "g1" in table and "nope" not in table
        assert table.get("nope") is None
        assert table.get("nope", 7) == 7
        assert table.get("g1") == as_dict["g1"]
        assert table == as_dict
        with pytest.raises(KeyError):
            table["nope"]

    def test_records_are_read_only_copies(self):
        collector = self._collector()
        record = collector.records["g2"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.final_cpus = 9
        with pytest.raises(TypeError):
            collector.records["x"] = record
        collector.job_started("g2", 4.0, 5)
        assert record.first_start is None
        assert collector.records["g2"].first_start == 4.0

    def test_labels_are_interned(self):
        table = self._collector().records
        assert table["g1"].model == table["g2"].model == "resnet50"
        assert table["g1"].setup_label == table["g2"].setup_label
        assert table.labels == [None, "resnet50", table["g1"].setup_label]


class TestDoubleEvents:
    def test_double_submit_raises(self):
        collector = MetricsCollector()
        collector.job_submitted(_gpu(), 0.0)
        with pytest.raises(RuntimeError):
            collector.job_submitted(_gpu(), 1.0)
        assert len(collector.records) == 1

    def test_double_finish_raises(self):
        collector = MetricsCollector()
        collector.job_submitted(_gpu(), 0.0)
        collector.job_started("g1", 1.0, 2)
        collector.job_finished("g1", 2.0)
        with pytest.raises(RuntimeError):
            collector.job_finished("g1", 3.0)
        assert collector.records["g1"].finish_time == 2.0

    def test_duplicate_row_rejected_at_load(self):
        collector = MetricsCollector()
        collector.job_submitted(_gpu(), 0.0)
        data = collector.snapshot()
        records = data["records"]
        for key, column in records.items():
            if key not in ("ids", "id_ends", "labels"):
                typecode = column[0]
                records[key] = _pack(_unpack(column) * 2, typecode)
        records["ids"] *= 2
        records["id_ends"] = _pack([2, 4], "b")
        with pytest.raises(CheckpointError) as raised:
            _loaded(data)
        assert str(raised.value) == "collector.records.ids[1]: job 'g1' twice"


class TestSharedSampleClock:
    def _sample(self, collector, now):
        collector.sample_cluster(
            now,
            gpu_active_rate=0.5,
            gpu_utilization=0.25,
            gpu_utilization_overall=0.125,
            cpu_active_rate=0.75,
            gpu_queue_depth=2,
            cpu_queue_depth=0,
            free_gpu_fraction=0.5,
            hot_nodes=1,
        )

    def test_series_share_one_time_column(self):
        collector = MetricsCollector()
        self._sample(collector, 0.0)
        self._sample(collector, 30.0)
        assert collector.gpu_active_rate.time_column is collector.sample_times
        assert collector.hot_nodes.time_column is collector.sample_times
        assert collector.fragmentation.times is collector.sample_times
        assert collector.fragmentation.depth is collector.gpu_queue_depth.value_column
        assert collector.gpu_queue_depth.points == [(0.0, 2), (30.0, 2)]
        assert collector.fragmentation.samples == [(0.0, 0.5, 2), (30.0, 0.5, 2)]

    def test_a_shared_series_is_written_by_its_owner_only(self):
        collector = MetricsCollector()
        with pytest.raises(RuntimeError):
            collector.gpu_active_rate.record(0.0, 0.5)
        assert len(collector.sample_times) == 0

    def test_series_times_must_agree_at_load(self):
        # One time column is written for every series: a series agrees
        # with it when it holds one value per time.
        collector = MetricsCollector()
        self._sample(collector, 0.0)
        self._sample(collector, 30.0)
        data = collector.snapshot()
        data["series"]["hot_nodes"] = _pack([1], "b")
        with pytest.raises(CheckpointError) as raised:
            _loaded(data)
        assert str(raised.value) == "collector.series.hot_nodes[1]: missing"

    def test_count_series_keep_int_values(self):
        series = SampledSeries("depth", "i")
        series.record(0.0, 3)
        assert series.points == [(0.0, 3)]
        assert type(series.values()[0]) is int
        with pytest.raises(TypeError):
            series.record(1.0, 0.5)


def test_result_serialization_reads_no_record_view(monkeypatch):
    """Serializing reads the columns; it never builds a JobRecord."""
    result = _spec("drf", faulted=False).execute()
    monkeypatch.setattr(JobTable, "record", None)
    assert run_result_to_dict(result)["collector"]["records"]
