"""GPU fragmentation accounting (Sec. VI-C).

The paper's definition: GPUs sit unused *while GPU jobs are queued* —
either because the node hosting free GPUs has no CPU cores left for the
training job, or because a >=4-GPU job cannot find enough co-resident free
GPUs.  The fragmentation *rate* is the fraction of all GPUs idle at
moments when at least one GPU job is waiting, averaged over those moments.
"""

from __future__ import annotations

from array import array
from typing import List, Tuple


class FragmentationTracker:
    """Samples of (time, free GPU fraction, GPU-queue depth), one
    ``array`` column each.

    The time and depth columns are given: the metrics collector's sample
    clock and its ``gpu_queue_depth`` series' values.  :meth:`record`
    appends a free fraction and a depth; the clock's owner appends the
    time.
    """

    __slots__ = ("times", "free", "depth")

    def __init__(self, times: array[float], depth: array[int]) -> None:
        self.times, self.depth = times, depth
        self.free = array("d")

    def record(self, free_gpu_fraction: float, gpu_queue_depth: int) -> None:
        if not 0.0 <= free_gpu_fraction <= 1.0:
            raise ValueError(f"free fraction out of [0, 1]: {free_gpu_fraction}")
        if gpu_queue_depth < 0:
            raise ValueError(f"negative queue depth: {gpu_queue_depth}")
        self.depth.append(gpu_queue_depth)
        self.free.append(free_gpu_fraction)

    @property
    def samples(self) -> List[Tuple[float, float, int]]:
        return list(zip(self.times, self.free, self.depth))

    def fragmentation_rate(self) -> float:
        """Mean free-GPU fraction over samples with a non-empty GPU queue.

        Returns 0.0 when the queue was never non-empty: with nobody
        waiting, idle GPUs are spare capacity, not fragmentation.
        """
        contended = [frac for frac, depth in zip(self.free, self.depth) if depth > 0]
        if not contended:
            return 0.0
        return sum(contended) / len(contended)

    def contended_fraction(self) -> float:
        """Fraction of samples at which at least one GPU job was queued."""
        if not self.depth:
            return 0.0
        return sum(1 for depth in self.depth if depth > 0) / len(self.depth)
