"""Bytes a kept run result retains, measured with tracemalloc.

perfbench's untraced loop, the sweep pool and the figure scripts keep
every finished ``RunResult`` in memory, so what one result retains sets
their peak RSS.  This runs perfbench's own ``simulate`` on the first
inputs of a workload, keeps each result and drops its runner, and after
each input runs a full collection and reads the bytes tracemalloc still
traces.  The table is cumulative, so its slope is the bytes per kept
result (the first row also holds anything the first run leaves in a
process-wide memo).  A warm-up run goes first, off the books, as in
perfbench.

It measures ``WORKLOAD`` on seed ``SEED``, inputs ``0 .. INPUTS - 1``,
the case docs/performance.md reports.  Usage, from the repository root::

    python tools/retained_bytes.py
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from pathlib import Path
from typing import Callable, List, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
for _path in (REPO_ROOT / "src", REPO_ROOT / "perfbench"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from workloads import SIM_WORKLOADS, Case, simulate, warm_up  # noqa: E402

MB = 1e6
WORKLOAD = "chaos_replay"
SEED = 1
INPUTS = 3


def retained(cases: Sequence[Callable[[], Case]]) -> List[int]:
    """Bytes traced after each case's result is kept and collected:
    entry ``i`` covers the first ``i + 1`` results."""
    kept = []
    readings = []
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for build in cases:
            kept.append(simulate(build()).result)
            gc.collect()
            readings.append(tracemalloc.get_traced_memory()[0] - base)
    finally:
        tracemalloc.stop()
    return readings


def main() -> int:
    build = SIM_WORKLOADS[WORKLOAD]
    warm_up()
    readings = retained(
        [lambda index=index: build(SEED, index) for index in range(INPUTS)]
    )
    print(f"{WORKLOAD}, seed {SEED}: bytes retained after a full collection")
    print("| Inputs kept | Retained | Per result |")
    print("|---|---|---|")
    for kept, total in enumerate(readings, start=1):
        print(f"| {kept} | {total / MB:.3f} MB | {total / kept / MB:.3f} MB |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
