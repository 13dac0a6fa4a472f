"""Trace persistence as JSON Lines.

The first line is a header with the trace config; every following line is
one job.  The format is line-oriented so multi-gigabyte traces can be
streamed, diffed, and sampled with standard tools.  A malformed file
fails with a :class:`TraceFormatError` naming the file and line.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Union

from repro.perfmodel.stages import TrainSetup
from repro.workload.job import CpuJob, GpuJob, Job, JobHints
from repro.workload.tenants import paper_tenants
from repro.workload.tracegen import Trace, TraceConfig

_FORMAT_VERSION = 1


class TraceFormatError(ValueError):
    """A trace file :func:`load_trace` cannot read, located by file and
    1-based line."""

    def __init__(self, path: Path, line: int, reason: str) -> None:
        super().__init__(f"{path}:{line}: {reason}")
        self.path = path
        self.line = line


def _job_to_dict(job: Job) -> dict:
    if isinstance(job, GpuJob):
        return {
            "kind": "gpu",
            "job_id": job.job_id,
            "tenant_id": job.tenant_id,
            "submit_time": job.submit_time,
            "model_name": job.model_name,
            "num_nodes": job.setup.num_nodes,
            "gpus_per_node": job.setup.gpus_per_node,
            "batch": job.setup.batch,
            "requested_cpus": job.requested_cpus,
            "total_iterations": job.total_iterations,
            "checkpoint_interval_iters": job.checkpoint_interval_iters,
            "hints": {
                "category_provided": job.hints.category_provided,
                "uses_pipeline": job.hints.uses_pipeline,
                "many_weights": job.hints.many_weights,
                "complex_inter_iteration": job.hints.complex_inter_iteration,
            },
        }
    if isinstance(job, CpuJob):
        return {
            "kind": "cpu",
            "job_id": job.job_id,
            "tenant_id": job.tenant_id,
            "submit_time": job.submit_time,
            "cores": job.cores,
            "duration_s": job.duration_s,
            "bw_demand_gbps": job.bw_demand_gbps,
            "llc_mb": job.llc_mb,
            "is_heat": job.is_heat,
            "is_inference": job.is_inference,
        }
    raise TypeError(f"unknown job type: {type(job).__name__}")


def _job_from_dict(record: dict) -> Job:
    kind = record.get("kind")
    if kind == "gpu":
        return GpuJob(
            job_id=record["job_id"],
            tenant_id=record["tenant_id"],
            submit_time=record["submit_time"],
            model_name=record["model_name"],
            setup=TrainSetup(
                num_nodes=record["num_nodes"],
                gpus_per_node=record["gpus_per_node"],
                batch=record["batch"],
            ),
            requested_cpus=record["requested_cpus"],
            total_iterations=record["total_iterations"],
            hints=JobHints(**record["hints"]),
            checkpoint_interval_iters=record.get(
                "checkpoint_interval_iters", 100
            ),
        )
    if kind == "cpu":
        return CpuJob(
            job_id=record["job_id"],
            tenant_id=record["tenant_id"],
            submit_time=record["submit_time"],
            cores=record["cores"],
            duration_s=record["duration_s"],
            bw_demand_gbps=record["bw_demand_gbps"],
            llc_mb=record["llc_mb"],
            is_heat=record["is_heat"],
            is_inference=record.get("is_inference", False),
        )
    raise ValueError(f"unknown job kind in trace file: {kind!r}")


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write a trace to ``path`` as JSONL (header line + one job per line)."""
    path = Path(path)
    header = {
        "format_version": _FORMAT_VERSION,
        "config": {
            "duration_days": trace.config.duration_days,
            "gpu_jobs_per_day": trace.config.gpu_jobs_per_day,
            "cpu_jobs_per_day": trace.config.cpu_jobs_per_day,
            "heat_fraction": trace.config.heat_fraction,
            "hint_probability": trace.config.hint_probability,
            "default_batch_probability": trace.config.default_batch_probability,
            "weekend_factor": trace.config.weekend_factor,
            "seed": trace.config.seed,
        },
    }
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(header) + "\n")
        for job in trace.jobs:
            handle.write(json.dumps(_job_to_dict(job)) + "\n")


@contextmanager
def _located(path: Path, line: int) -> Iterator[None]:
    """Re-raise a malformed line's error as a :class:`TraceFormatError`."""
    try:
        yield
    except json.JSONDecodeError as error:
        reason = f"invalid JSON: {error.msg} (column {error.colno})"
        raise TraceFormatError(path, line, reason) from error
    except KeyError as error:
        raise TraceFormatError(
            path, line, f"missing field {error.args[0]!r}"
        ) from error
    except (TypeError, ValueError) as error:
        raise TraceFormatError(path, line, str(error)) from error


def _object(text: str) -> Dict[str, Any]:
    record = json.loads(text)
    if not isinstance(record, dict):
        raise TypeError(f"expected a JSON object, got {type(record).__name__}")
    return record


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace written by :func:`save_trace`.

    Raises:
        TraceFormatError: when a line is not the JSON object its position
            calls for (an empty file fails on line 1).
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        header_line = handle.readline()
        if not header_line:
            raise TraceFormatError(path, 1, "empty trace file")
        with _located(path, 1):
            header = _object(header_line)
        version = header.get("format_version")
        if version != _FORMAT_VERSION:
            raise TraceFormatError(
                path, 1, f"unsupported trace format version {version!r}"
            )
        with _located(path, 1):
            config = TraceConfig(**header["config"])
        jobs: List[Job] = []
        for number, line in enumerate(handle, start=2):
            if line.strip():
                with _located(path, number):
                    jobs.append(_job_from_dict(_object(line)))
    jobs.sort(key=lambda job: (job.submit_time, job.job_id))
    return Trace(config=config, tenants=paper_tenants(), jobs=jobs)
