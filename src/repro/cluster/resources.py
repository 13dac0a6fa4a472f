"""Resource vectors.

The two schedulable resource types in the paper's cluster are CPU cores and
GPUs (jobs "request a certain number of CPU and GPU separately", Sec. III-A).
:class:`ResourceVector` carries both and supports the arithmetic the
schedulers need: addition/subtraction for bookkeeping, ``fits`` for
admission, and ``dominant_share`` for DRF.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ResourceVector:
    """An amount of (cpus, gpus).

    CPU cores are integral in this system; GPUs always are.  The vector is
    immutable so it can be used as a dict key and shared safely.
    """

    cpus: int = 0
    gpus: int = 0

    def __post_init__(self) -> None:
        if self.cpus < 0 or self.gpus < 0:
            raise ValueError(f"resource amounts must be non-negative: {self}")

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.cpus + other.cpus, self.gpus + other.gpus)

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.cpus - other.cpus, self.gpus - other.gpus)

    def fits(self, capacity: "ResourceVector") -> bool:
        """True if this demand fits inside ``capacity`` on every dimension."""
        return self.cpus <= capacity.cpus and self.gpus <= capacity.gpus

    def dominant_share(self, total: "ResourceVector") -> float:
        """The DRF dominant share of this usage against cluster ``total``.

        Dimensions with zero total capacity are ignored (a CPU-only cluster
        has no GPU share).  Returns 0.0 for a zero vector.
        """
        shares = []
        if total.cpus > 0:
            shares.append(self.cpus / total.cpus)
        if total.gpus > 0:
            shares.append(self.gpus / total.gpus)
        if not shares:
            raise ValueError("total capacity is zero on every dimension")
        return max(shares)

    def scaled(self, factor: int) -> "ResourceVector":
        """This vector multiplied by a non-negative integer factor."""
        if factor < 0:
            raise ValueError(f"negative scale factor: {factor}")
        return ResourceVector(self.cpus * factor, self.gpus * factor)

    def __str__(self) -> str:
        return f"<{self.cpus}c,{self.gpus}g>"
