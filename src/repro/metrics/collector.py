"""The simulation's metrics collector.

One collector per run.  The runner pushes job lifecycle events and periodic
cluster samples into it; the experiment harness reads figures out of it.

Every result keeps its collector, so the per-job data lives in columns (a
:class:`JobTable`, one ``array`` per field) and the sampled series share
one time column: a finished result holds a few dozen arrays, not one
object per job or per sample.  When the run ends its table is sealed
(:meth:`JobTable.seal`), which packs the job ids into one string.  A
result or checkpoint writes the columns as they are held, one packed
string each (:class:`~repro.sim.state.Columns`), and a decoded result's
table is built sealed from them.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from operator import gt
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.metrics.audit import AuditStats
from repro.metrics.faults import FaultStats
from repro.metrics.fragmentation import FragmentationTracker
from repro.metrics.series import SampledSeries
from repro.sim.state import INT, NESTED, STR, CheckpointError, Columns, ListOf
from repro.sim.state import Packed, Refs, Stateful, Struct, first_row, narrowest
from repro.sim.state import within
from repro.workload.job import Job, JobKind

#: Kind column codes: a kind is stored as its index here.
_KINDS = tuple(JobKind)
_KIND_CODE = {kind: code for code, kind in enumerate(_KINDS)}


@dataclass(frozen=True, slots=True)
class JobRecord:
    """Lifecycle of one job through a run: a copy of its :class:`JobTable`
    row, built when read (writes go through the collector)."""

    job_id: str
    tenant_id: int
    submit_time: float
    first_start: Optional[float]
    finish_time: Optional[float]
    start_count: int
    preempt_count: int
    failure_count: int
    requested_cpus: int
    final_cpus: Optional[int]
    gpus: int
    model: Optional[str]
    setup_label: Optional[str]
    kind: JobKind

    @property
    def queueing_time(self) -> Optional[float]:
        """Submit-to-first-start delay; None while still queued."""
        if self.first_start is None:
            return None
        return self.first_start - self.submit_time

    @property
    def processing_time(self) -> Optional[float]:
        if self.finish_time is None or self.first_start is None:
            return None
        return self.finish_time - self.first_start

    @property
    def core_adjustment(self) -> Optional[int]:
        """Final minus requested per-node cores (the Fig. 14 histogram)."""
        if self.final_cpus is None:
            return None
        return self.final_cpus - self.requested_cpus


def _time(value: float) -> Optional[float]:
    return None if math.isnan(value) else value


def _cores(value: int) -> Optional[int]:
    return None if value < 0 else value


#: A column of counts, of floats, of times (NaN: unset), and of ints that
#: are never negative (codes, offsets, a queue depth).
_INTS, _FLOATS, _TIMES = Packed("bhi"), Packed("d"), Packed("d", nan=True)
_NONNEG = Packed("bhi", low=0)

#: The table as written: its ids back to back and where each ends, the
#: labels (code 0, no label, is not written), then one packed column per
#: :class:`JobRecord` field.
_WIRE = dict(
    ids=STR, id_ends=_NONNEG, labels=ListOf(STR),
    tenant_id=_INTS, submit_time=_FLOATS, first_start=_TIMES,
    finish_time=_TIMES, start_count=_INTS, preempt_count=_INTS,
    failure_count=_INTS, requested_cpus=_INTS, final_cpus=Packed("bhi", low=-1),
    gpus=_INTS, model=_NONNEG, setup_label=_NONNEG,
    kind=Packed("bhi", low=0, high=len(_KINDS) - 1),
)

#: The table's data columns, in :class:`JobRecord` field order.
_DATA = tuple(_WIRE)[3:]


def _checked_ids(loaded: Dict[str, Any], path: str, refs: Refs) -> List[str]:
    """The job ids of a loaded table, once what spans its columns holds:
    the id ends do not go back and end the text, no id repeats, and in a
    run each names a job of its trace; the label codes index ``labels``
    and are set exactly on GPU rows.  A failure names its row."""
    text, ends = loaded["ids"], loaded["id_ends"]
    starts = array("I", [0]) + array("I", ends[:-1])
    if any(map(gt, starts, ends)):
        row = first_row(range(len(ends)), lambda r: starts[r] > ends[r])
        raise CheckpointError(f"{path}.id_ends[{row}]: {ends[row]} is before its start")
    end = ends[-1] if ends else 0
    if end != len(text):
        raise CheckpointError(
            f"{path}.ids: {len(text)} characters, but its ids end at {end}"
        )
    ids = [text[a:b] for a, b in zip(starts, ends)]
    jobs = refs.jobs
    if len(set(ids)) != len(ids):
        first: Dict[str, int] = {}
        row = first_row(range(len(ids)), lambda r: first.setdefault(ids[r], r) != r)
        raise CheckpointError(f"{path}.ids[{row}]: job {ids[row]!r} twice")
    if jobs is not None and not jobs.keys() >= set(ids):
        row = first_row(ids, lambda job_id: job_id not in jobs)
        raise CheckpointError(
            f"{path}.ids[{row}]: no job {ids[row]!r} in this run's trace"
        )
    gpu_rows = [code == _KIND_CODE[JobKind.GPU] for code in loaded["kind"]]
    for name in ("model", "setup_label"):
        codes = loaded[name]
        within(codes, f"{path}.{name}", None, len(loaded["labels"]))
        if list(map(bool, codes)) != gpu_rows:
            row = first_row(range(len(codes)), lambda r: bool(codes[r]) != gpu_rows[r])
            raise CheckpointError(
                f"{path}.{name}[{row}]: "
                "a GPU job has a model and a setup, a CPU job neither"
            )
    return ids


class JobTable(Mapping[str, JobRecord], Stateful):
    """Every job's lifecycle, one column per :class:`JobRecord` field, in
    submit order.

    Reads as a ``Mapping[str, JobRecord]`` whose records are built on
    demand; :class:`MetricsCollector` writes the columns by row.  Unset
    values are sentinels: NaN in a time column, -1 in ``final_cpus``, and
    label 0 (``None``) for a CPU job's model and setup.  Model and setup
    strings are interned in :attr:`labels`, and the two label columns hold
    indices into it.  An open table finds a job's row through the
    ``job_id → row`` dict :attr:`rows`; :meth:`seal` turns a finished one
    into a :class:`SealedJobTable`.
    """

    def __init__(self) -> None:
        self.job_ids: List[str] = []
        self.rows: Dict[str, int] = {}
        self.tenant_id = array("i")
        self.submit_time = array("d")
        self.first_start = array("d")
        self.finish_time = array("d")
        self.start_count = array("i")
        self.preempt_count = array("i")
        self.failure_count = array("i")
        self.requested_cpus = array("i")
        self.final_cpus = array("i")
        self.gpus = array("i")
        self.model = array("i")
        self.setup_label = array("i")
        self.kind = array("b")
        self.labels: List[Optional[str]] = [None]
        self._label_codes: Dict[Optional[str], int] = {None: 0}

    def row(self, job_id: str) -> int:
        """The row of ``job_id``; ``KeyError`` if there is none."""
        return self.rows[job_id]

    #: The row a collector update writes to (a sealed table refuses).
    writable_row = row

    def append(self, job: Job, now: float) -> None:
        """Add the row of ``job``, submitted at ``now``."""
        if job.job_id in self.rows:
            raise RuntimeError(f"job {job.job_id} submitted twice")
        if now != now:
            raise ValueError(f"job {job.job_id}: a time is NaN")
        requested, gpu = job.requested, job.kind is JobKind.GPU
        self.tenant_id.append(job.tenant_id)
        self.submit_time.append(now)
        self.first_start.append(math.nan)
        self.finish_time.append(math.nan)
        self.start_count.append(0)
        self.preempt_count.append(0)
        self.failure_count.append(0)
        self.requested_cpus.append(
            requested.cpus // max(1, getattr(job, "setup", None).num_nodes)
            if gpu
            else requested.cpus
        )
        self.final_cpus.append(-1)
        self.gpus.append(requested.gpus)
        self.model.append(self._intern(getattr(job, "model_name", None)))
        self.setup_label.append(self._intern(job.setup.label if gpu else None))
        self.kind.append(_KIND_CODE[job.kind])
        # Last, so a row that failed to append is never indexed.
        self.rows[job.job_id] = len(self.job_ids)
        self.job_ids.append(job.job_id)

    def _intern(self, label: Optional[str]) -> int:
        code = self._label_codes.get(label)
        if code is None:
            code = self._label_codes[label] = len(self.labels)
            self.labels.append(label)
        return code

    def ids(self, start: int = 0, stop: Optional[int] = None) -> List[str]:
        """The job ids of rows ``start`` to ``stop``."""
        return self.job_ids[start:stop]

    def decoded(self, start: int = 0, stop: Optional[int] = None) -> Iterator[Tuple]:
        """Rows ``start`` to ``stop`` in :class:`JobRecord` field order,
        sentinels decoded."""
        part = slice(start, stop)
        labels = self.labels
        return zip(
            self.ids(start, stop),
            self.tenant_id[part],
            self.submit_time[part],
            map(_time, self.first_start[part]),
            map(_time, self.finish_time[part]),
            self.start_count[part],
            self.preempt_count[part],
            self.failure_count[part],
            self.requested_cpus[part],
            map(_cores, self.final_cpus[part]),
            self.gpus[part],
            (labels[code] for code in self.model[part]),
            (labels[code] for code in self.setup_label[part]),
            (_KINDS[code] for code in self.kind[part]),
        )

    def record(self, row: int) -> JobRecord:
        return JobRecord(*next(self.decoded(row, row + 1)))

    def _packed_ids(self) -> Tuple[str, array[int]]:
        """The ids back to back, and where each ends."""
        ids = self.job_ids
        return "".join(ids), array("I", accumulate(map(len, ids)))

    def _columns(self) -> Dict[str, Any]:
        text, ends = self._packed_ids()
        columns = {name: getattr(self, name) for name in _DATA}
        return dict(ids=text, id_ends=ends, labels=self.labels[1:], **columns)

    def _load(self, loaded: Dict[str, Any], path: str, refs: Refs) -> None:
        self._fill(loaded, _checked_ids(loaded, path, refs))

    def _fill(self, loaded: Dict[str, Any], ids: List[str]) -> None:
        """Take the checked columns of a load, in this table's typecodes."""
        self.job_ids = ids
        self.rows = dict(zip(ids, range(len(ids))))
        self.labels = [None, *loaded["labels"]]
        self._label_codes = dict(zip(self.labels, range(len(self.labels))))
        for name in _DATA:
            setattr(self, name, array(getattr(self, name).typecode, loaded[name]))

    #: Packed columns (:data:`_WIRE`); an open table and its sealed twin
    #: write the same bytes.
    STATE = Struct((None, None, Columns(_columns, _load, **_WIRE)))

    def rows_of(self, kind: Optional[JobKind]) -> Iterator[int]:
        """Row numbers, of ``kind`` only unless it is None."""
        if kind is None:
            return iter(range(len(self)))
        code = _KIND_CODE[kind]
        return (row for row, k in enumerate(self.kind) if k == code)

    def __getitem__(self, job_id: str) -> JobRecord:
        return self.record(self.row(job_id))

    def __contains__(self, job_id: object) -> bool:
        return job_id in self.rows

    def __iter__(self) -> Iterator[str]:
        return iter(self.job_ids)

    def __len__(self) -> int:
        return len(self.job_ids)

    def seal(self) -> None:
        """Make this finished table a read-only :class:`SealedJobTable`.

        The ids move into one string, and each int column narrows to the
        smallest typecode that holds its values; every read gives what it
        gave before, and every write raises ``RuntimeError``.
        """
        ids, columns = self.job_ids, self._columns()
        del self.job_ids, self.rows, self._label_codes
        self.__class__ = SealedJobTable
        self._fill(columns, ids)


class SealedJobTable(JobTable):
    """A finished run's :class:`JobTable`, read-only (see
    :meth:`JobTable.seal`).

    Job ``r``'s id is ``id_text[id_ends[r]:id_ends[r + 1]]``; ``by_id``
    holds the row numbers sorted by id, so a lookup by id is a bisection.
    """

    id_text: str
    id_ends: array[int]
    by_id: array[int]

    def _sealed(self, *args: Any, **kwargs: Any) -> Any:
        raise RuntimeError("a sealed job table is read-only")

    append = writable_row = seal = _sealed

    def _before_load(self) -> None:
        if len(self):
            self._sealed()

    def _packed_ids(self) -> Tuple[str, array[int]]:
        return self.id_text, self.id_ends[1:]

    def _fill(self, loaded: Dict[str, Any], ids: List[str]) -> None:
        """Build the sealed table from ``loaded`` columns as
        :meth:`_columns` gives them: a table's being sealed, or the checked
        columns of a load (a decoded result's table, which
        :meth:`RunResult._before_load` seals while it is empty)."""
        self.id_text = loaded["ids"]
        self.id_ends = array("I", [0]) + array("I", loaded["id_ends"])
        self.labels = [None, *loaded["labels"]]
        for name in _DATA:
            setattr(self, name, narrowest(loaded[name]))
        self.by_id = array("I", sorted(range(len(ids)), key=ids.__getitem__))

    def job_id(self, row: int) -> str:
        ends = self.id_ends
        return self.id_text[ends[row]:ends[row + 1]]

    def row(self, job_id: object) -> int:
        by_id = self.by_id
        if isinstance(job_id, str):
            at = bisect_left(by_id, job_id, key=self.job_id)
            if at < len(by_id) and self.job_id(by_id[at]) == job_id:
                return by_id[at]
        raise KeyError(job_id)

    def ids(self, start: int = 0, stop: Optional[int] = None) -> List[str]:
        text, ends = self.id_text, self.id_ends
        start, stop, _ = slice(start, stop).indices(len(self))
        return [text[a:b] for a, b in zip(ends[start:stop], ends[start + 1 : stop + 1])]

    def __contains__(self, job_id: object) -> bool:
        try:
            self.row(job_id)
        except KeyError:
            return False
        return True

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids())

    def __len__(self) -> int:
        return len(self.id_ends) - 1


class MetricsCollector(Stateful):
    """Aggregates everything the evaluation figures need."""

    def __init__(self) -> None:
        self.records = JobTable()
        #: The one time column :meth:`sample_cluster` writes for all seven
        #: series below.
        self.sample_times = array("d")
        clock = self.sample_times
        self.gpu_active_rate = SampledSeries("gpu_active_rate", times=clock)
        self.gpu_utilization = SampledSeries("gpu_utilization", times=clock)
        self.gpu_utilization_overall = SampledSeries(
            "gpu_utilization_overall", times=clock
        )
        self.cpu_active_rate = SampledSeries("cpu_active_rate", times=clock)
        self.gpu_queue_depth = SampledSeries("gpu_queue_depth", "i", times=clock)
        self.cpu_queue_depth = SampledSeries("cpu_queue_depth", "i", times=clock)
        self.hot_nodes = SampledSeries("hot_nodes", "i", times=clock)
        self.fragmentation = FragmentationTracker(
            clock, self.gpu_queue_depth.value_column
        )
        self.faults = FaultStats()
        self.audit = AuditStats()
        self.throttle_events = 0
        self.core_halving_events = 0

    def _sampled(self) -> Dict[str, array[Any]]:
        """The columns :meth:`sample_cluster` writes: the clock, then the
        values of the seven series and the fragmentation tracker's free GPU
        fraction (its depth is ``gpu_queue_depth``'s)."""
        series = (
            self.gpu_active_rate, self.gpu_utilization,
            self.gpu_utilization_overall, self.cpu_active_rate,
            self.gpu_queue_depth, self.cpu_queue_depth, self.hot_nodes,
        )
        columns: Dict[str, array[Any]] = {"times": self.sample_times}
        columns.update((s.name, s.value_column) for s in series)
        columns["free_gpu_fraction"] = self.fragmentation.free
        return columns

    STATE = Struct(
        ("records", NESTED),
        ("series", None, Columns(
            lambda c: c._sampled(), times=_FLOATS,
            gpu_active_rate=_FLOATS, gpu_utilization=_FLOATS,
            gpu_utilization_overall=_FLOATS, cpu_active_rate=_FLOATS,
            gpu_queue_depth=_NONNEG, cpu_queue_depth=_INTS, hot_nodes=_INTS,
            free_gpu_fraction=Packed("d", low=0.0, high=1.0),
        )),
        ("faults", NESTED), ("audit", NESTED),
        ("throttle_events", INT), ("core_halving_events", INT),
    )

    # ------------------------------------------------------------------ #
    # Job lifecycle

    def job_submitted(self, job: Job, now: float) -> None:
        self.records.append(job, now)

    def job_started(self, job_id: str, now: float, cpus_per_node: int) -> None:
        table = self.records
        row = table.writable_row(job_id)
        if now != now or cpus_per_node < 0:
            raise ValueError(f"job {job_id}: start at {now} on {cpus_per_node} cores")
        if math.isnan(table.first_start[row]):
            table.first_start[row] = now
        table.start_count[row] += 1
        table.final_cpus[row] = cpus_per_node

    def job_resized(self, job_id: str, cpus_per_node: int) -> None:
        if cpus_per_node < 0:
            raise ValueError(f"job {job_id}: negative cores {cpus_per_node}")
        table = self.records
        table.final_cpus[table.writable_row(job_id)] = cpus_per_node

    def job_preempted(self, job_id: str, now: float) -> None:
        table = self.records
        table.preempt_count[table.writable_row(job_id)] += 1

    def job_failed(self, job_id: str, now: float) -> None:
        """The job was killed by an infrastructure failure (not policy)."""
        table = self.records
        table.failure_count[table.writable_row(job_id)] += 1

    def job_finished(self, job_id: str, now: float) -> None:
        table = self.records
        row = table.writable_row(job_id)
        if now != now:
            raise ValueError(f"job {job_id}: finish time is NaN")
        if not math.isnan(table.finish_time[row]):
            raise RuntimeError(f"job {job_id} finished twice")
        table.finish_time[row] = now

    # ------------------------------------------------------------------ #
    # Periodic sampling

    def sample_cluster(
        self,
        now: float,
        *,
        gpu_active_rate: float,
        gpu_utilization: float,
        gpu_utilization_overall: float,
        cpu_active_rate: float,
        gpu_queue_depth: int,
        cpu_queue_depth: int,
        free_gpu_fraction: float,
        hot_nodes: int = 0,
    ) -> None:
        # This method is the only writer of the seven series below, so they
        # share one time column: one monotonicity check covers the whole
        # batch (this runs on every monitor tick).
        clock = self.sample_times
        if clock and now < clock[-1]:
            raise ValueError(
                f"series gpu_active_rate: sample at {now} before last "
                f"{clock[-1]}"
            )
        # The tracker's depth column is gpu_queue_depth's: it appends both.
        self.fragmentation.record(free_gpu_fraction, gpu_queue_depth)
        self.gpu_active_rate.value_column.append(gpu_active_rate)
        self.gpu_utilization.value_column.append(gpu_utilization)
        self.gpu_utilization_overall.value_column.append(gpu_utilization_overall)
        self.cpu_active_rate.value_column.append(cpu_active_rate)
        self.cpu_queue_depth.value_column.append(cpu_queue_depth)
        self.hot_nodes.value_column.append(hot_nodes)
        clock.append(now)

    # ------------------------------------------------------------------ #
    # Views

    def finished_count(self, kind: Optional[JobKind] = None) -> int:
        finish = self.records.finish_time
        return sum(
            1 for row in self.records.rows_of(kind) if finish[row] == finish[row]
        )

    def finished_records(self, kind: Optional[JobKind] = None) -> List[JobRecord]:
        table = self.records
        finish = table.finish_time
        return [
            table.record(row)
            for row in table.rows_of(kind)
            if finish[row] == finish[row]
        ]

    def started_records(self, kind: Optional[JobKind] = None) -> List[JobRecord]:
        table = self.records
        first = table.first_start
        return [
            table.record(row)
            for row in table.rows_of(kind)
            if first[row] == first[row]
        ]

    def queueing_times(
        self, kind: Optional[JobKind] = None, *, include_unstarted_until: Optional[float] = None
    ) -> List[float]:
        """Queueing delays of started jobs; optionally count still-queued
        jobs as censored at the horizon (keeps saturated baselines honest —
        dropping never-started jobs would *flatter* a bad scheduler)."""
        table = self.records
        submit, first = table.submit_time, table.first_start
        delays: List[float] = []
        for row in table.rows_of(kind):
            start = first[row]
            if start == start:
                delays.append(start - submit[row])
            elif include_unstarted_until is not None:
                delays.append(include_unstarted_until - submit[row])
        return delays

    def queueing_times_by_tenant(
        self, *, include_unstarted_until: Optional[float] = None
    ) -> Dict[int, List[float]]:
        table = self.records
        by_tenant: Dict[int, List[float]] = {}
        for tenant_id, submit, start in zip(
            table.tenant_id, table.submit_time, table.first_start
        ):
            if start == start:
                queueing = start - submit
            elif include_unstarted_until is None:
                continue
            else:
                queueing = include_unstarted_until - submit
            by_tenant.setdefault(tenant_id, []).append(queueing)
        return by_tenant
