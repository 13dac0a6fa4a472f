"""Named, seeded random-number streams.

Every source of randomness in the library (arrival processes, job sizing,
duration sampling, measurement noise) draws from its own named stream,
derived deterministically from a single root seed.  This keeps experiments
reproducible *and* decoupled: adding draws to one stream does not perturb
any other stream, so, e.g., enabling measurement noise does not change the
generated trace.

Example — streams are cached per name, and child seeds are stable across
processes (BLAKE2b, not the salted built-in ``hash``)::

    >>> registry = RngRegistry(root_seed=7)
    >>> registry.stream("arrivals") is registry.stream("arrivals")
    True
    >>> derive_seed(7, "arrivals") == derive_seed(7, "arrivals")
    True
    >>> derive_seed(7, "arrivals") != derive_seed(7, "durations")
    True
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Dict

from repro.sim.state import INT, STR, CheckpointError, Codec, DictOf, Pinned, Stateful
from repro.sim.state import Struct


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a stream name.

    Uses BLAKE2b rather than ``hash()`` because the latter is salted per
    process and would destroy reproducibility.
    """
    digest = hashlib.blake2b(
        f"{root_seed}:{name}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class _Stream(Codec):
    """One stream's ``random.Random.getstate()``, tuples written as lists.

    Re-seating the state reproduces the stream's next draws exactly;
    a stream created after the snapshot is absent, and re-creating it
    from the root seed reproduces its draws as well."""

    name = "a random.Random state [int, [int, ...], float or null]"

    def dump(self, rng: random.Random) -> Any:
        version, internal, gauss = rng.getstate()
        return [version, list(internal), gauss]

    def load(self, raw: Any, path: str, ctx: Any, key: Any = None) -> Any:
        if not (
            type(raw) is list
            and len(raw) == 3
            and type(raw[0]) is int
            and type(raw[1]) is list
            and all(type(word) is int for word in raw[1])
            and (raw[2] is None or type(raw[2]) is float)
        ):
            raise self.expected(raw, path)
        rng = random.Random(0)
        try:
            rng.setstate((raw[0], tuple(raw[1]), raw[2]))
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: {exc}") from None
        return rng


class RngRegistry(Stateful):
    """A factory of independent named :class:`random.Random` streams."""

    STATE = Struct(
        ("root_seed", Pinned(INT)), ("streams", "_streams", DictOf(STR, _Stream()))
    )

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        The same name always maps to the same stream object, so sequential
        draws across call sites interleave deterministically in program
        order.
        """
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        rng = random.Random(derive_seed(self.root_seed, name))
        self._streams[name] = rng
        return rng

    def fork(self, name: str) -> "RngRegistry":
        """Derive a child registry (e.g., one per tenant) from this one."""
        return RngRegistry(derive_seed(self.root_seed, f"fork:{name}"))

    def __repr__(self) -> str:
        return (
            f"RngRegistry(root_seed={self.root_seed}, "
            f"streams={sorted(self._streams)})"
        )
