"""Exact JSON serialization of :class:`~repro.experiments.runner.RunResult`.

The sweep pipe and the result cache (:mod:`repro.parallel`) move results
as JSON, and the round trip is exact: floats print as ``repr``, and every
value loads back to its type.  The shape is ``RunResult.STATE``, the
declared codec (:mod:`repro.sim.state`) checkpoints use; a value that
does not fit raises :class:`~repro.sim.state.CheckpointError` naming its
path under ``result`` (there is no trace to check job ids against).  A
result holds plain data only, so it is a pure function of its
:class:`~repro.parallel.RunSpec`: what makes the cache sound.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.experiments.runner import RESULT_SCHEMA_VERSION, RunResult
from repro.metrics.collector import MetricsCollector
from repro.sim.state import Refs, load

__all__ = ["RESULT_SCHEMA_VERSION", "run_result_from_dict", "run_result_to_dict"]


def run_result_to_dict(result: RunResult) -> Dict[str, Any]:
    """Serialize a run result to plain JSON-safe data."""
    data: Dict[str, Any] = result.snapshot()
    return data


def run_result_from_dict(data: Any) -> RunResult:
    """Rebuild a run result from :func:`run_result_to_dict` output."""
    result = RunResult(scheduler_name="", collector=MetricsCollector(), horizon_s=0.0)
    load(result, data, "result", Refs())
    return result
