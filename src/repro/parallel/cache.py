"""The content-addressed result cache.

Every completed run is stored as metrics JSON under a key derived from

* the :class:`~repro.parallel.RunSpec`'s canonical encoding (scenario,
  policy, configs, resolved seeds), and
* a *code fingerprint* — package version plus result-schema version.

Re-running a figure script or sweep with unchanged inputs then skips the
simulation entirely; changing any config knob, the trace seed, or the
installed package version changes the key and forces a fresh run.

The fingerprint is derived from **version metadata only** — never from
file mtimes or wall-clock reads, which would silently poison keys with
non-determinism (codalint CL001 polices exactly this class of bug).

Layout: ``<root>/<key[:2]>/<key>.json`` — one JSON document per run,
sharded by key prefix so huge sweeps do not produce one enormous
directory.  Writes are atomic (temp file + ``os.replace``), so a crashed
or concurrent run never leaves a half-written entry; unreadable entries
are treated as misses and overwritten.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.experiments.runner import RunResult
from repro.metrics.serialize import RESULT_SCHEMA_VERSION, run_result_from_dict
from repro.parallel.spec import RunSpec
from repro.sim.state import CheckpointError

#: Default cache directory, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Environment overrides honoured by :func:`default_cache`.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
NO_CACHE_ENV = "REPRO_NO_CACHE"


def code_fingerprint() -> Dict[str, Any]:
    """Version metadata that keys must vary with.

    Reads ``repro.__version__`` at call time (not import time) so tests
    can exercise version-based invalidation, and bundles the result-schema
    version so serialization changes retire old entries.
    """
    import repro

    return {
        "package": "repro",
        "version": repro.__version__,
        "result_schema": RESULT_SCHEMA_VERSION,
    }


def spec_key(spec: RunSpec) -> str:
    """Stable content hash of (spec, code fingerprint).

    Module-level so code that has no cache instance (the sweep ledger,
    report tooling) can still name a run by the same key a cache would
    file it under.
    """
    payload = json.dumps(
        {"spec": spec.fingerprint(), "code": code_fingerprint()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting of one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Stores that succeeded only on the second try (transient OSError —
    #: e.g. a concurrent cleanup removed the temp directory mid-write).
    store_retries: int = 0
    #: Stores abandoned after the retry also failed.  A failed store is
    #: a lost memoization, not a lost result, so it is counted rather
    #: than raised.
    store_failures: int = 0

    def render(self) -> str:
        # Retry/failure counters render even at zero: "no line" and
        # "no losses" must not look the same to whoever reads the
        # --cache-stats output or the sweep report.
        return (
            f"{self.hits} hit(s), {self.misses} miss(es), "
            f"{self.stores} store(s), "
            f"{self.store_retries} store retry(ies), "
            f"{self.store_failures} store failure(s)"
        )


class ResultCache:
    """Content-addressed, on-disk store of serialized run results."""

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.stats = CacheStats()

    # ------------------------------------------------------------------ #
    # Keys

    def key_for(self, spec: RunSpec) -> str:
        """Stable content hash of (spec, code fingerprint)."""
        return spec_key(spec)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------ #
    # Lookup / store

    def load(self, key: str) -> Optional[RunResult]:
        """The cached result under ``key``, or None on a miss.

        Unreadable, malformed or stale-schema entries count as misses:
        the caller re-runs and overwrites them.
        """
        path = self.path_for(key)
        try:
            with path.open(encoding="utf-8") as handle:
                data = json.load(handle)
            result = run_result_from_dict(data)
        except (OSError, ValueError, CheckpointError):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def store(self, key: str, payload: Dict[str, Any]) -> Optional[Path]:
        """Atomically persist a serialized result under ``key``.

        A transient filesystem failure (concurrent cache cleanup racing
        the write, a vanished temp file) is retried once; a second
        failure is recorded in :attr:`CacheStats.store_failures` and
        swallowed — losing a memoization must never lose the run that
        produced it.  Returns the stored path, or None when abandoned.
        """
        try:
            path = self._write(key, payload)
        except OSError:
            self.stats.store_retries += 1
            try:
                path = self._write(key, payload)
            except OSError:
                self.stats.store_failures += 1
                return None
        self.stats.stores += 1
        return path

    def _write(self, key: str, payload: Dict[str, Any]) -> Path:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(
            json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8"
        )
        os.replace(tmp, path)
        return path

    # ------------------------------------------------------------------ #
    # Introspection


def default_cache(
    root: Optional[Union[str, Path]] = None,
) -> Optional[ResultCache]:
    """The environment-configured cache, or None when caching is off.

    ``REPRO_NO_CACHE`` (any non-empty value) disables caching entirely;
    ``REPRO_CACHE_DIR`` relocates it.  An explicit ``root`` argument wins
    over both — a caller that names a directory wants a cache there.
    """
    if root is not None:
        return ResultCache(root)
    if os.environ.get(NO_CACHE_ENV):
        return None
    return ResultCache(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)
