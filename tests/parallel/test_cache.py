"""The content-addressed result cache: hits, invalidation, robustness."""

import json
from array import array
from base64 import b64encode

import pytest

from repro.core.coda import CodaConfig
from repro.experiments.scenarios import small_scenario
from repro.metrics.serialize import run_result_to_dict
from repro.parallel import (
    CACHE_DIR_ENV,
    NO_CACHE_ENV,
    ResultCache,
    RunSpec,
    SimPool,
    default_cache,
)
from tests.metrics.test_serialize import schema_2_document


@pytest.fixture
def spec():
    return RunSpec(
        scenario=small_scenario(duration_days=0.02, nodes=4, seed=1),
        scheduler="coda",
    )


def _dumps(result):
    return json.dumps(run_result_to_dict(result), sort_keys=True)


def _entries(cache):
    """Result files stored under the cache root."""
    return sum(1 for _ in cache.root.glob("*/*.json"))


class TestCacheRoundTrip:
    def test_warm_hit_returns_identical_result(self, tmp_path, spec):
        cache = ResultCache(tmp_path / "cache")
        cold = SimPool(cache=cache).map([spec])[0]
        assert cache.stats.hits == 0
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

        warm_cache = ResultCache(tmp_path / "cache")
        warm = SimPool(cache=warm_cache).map([spec])[0]
        assert warm_cache.stats.hits == 1
        assert warm_cache.stats.misses == 0
        assert warm_cache.stats.stores == 0
        assert _dumps(warm) == _dumps(cold)

    def test_entry_count_tracks_stores(self, tmp_path, spec):
        cache = ResultCache(tmp_path / "cache")
        assert _entries(cache) == 0
        SimPool(cache=cache).map([spec])
        assert _entries(cache) == 1
        SimPool(cache=cache).map([spec])  # hit: no second entry
        assert _entries(cache) == 1

    def test_store_is_atomic_no_temp_residue(self, tmp_path, spec):
        cache = ResultCache(tmp_path / "cache")
        SimPool(cache=cache).map([spec])
        leftovers = [
            p for p in (tmp_path / "cache").rglob("*") if p.suffix != ".json"
        ]
        assert [p for p in leftovers if p.is_file()] == []


class TestInvalidation:
    def test_config_change_changes_key(self, tmp_path, spec):
        cache = ResultCache(tmp_path / "cache")
        tuned = RunSpec(
            scenario=spec.scenario,
            scheduler="coda",
            coda_config=CodaConfig(reserved_cores=20),
        )
        assert cache.key_for(spec) != cache.key_for(tuned)

    def test_seed_change_changes_key(self, tmp_path, spec):
        cache = ResultCache(tmp_path / "cache")
        assert cache.key_for(spec) != cache.key_for(spec.with_seed(9))

    def test_package_version_change_changes_key(
        self, tmp_path, spec, monkeypatch
    ):
        import repro

        cache = ResultCache(tmp_path / "cache")
        before = cache.key_for(spec)
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert cache.key_for(spec) != before

    def test_version_change_forces_rerun_not_stale_hit(
        self, tmp_path, spec, monkeypatch
    ):
        import repro

        cache = ResultCache(tmp_path / "cache")
        SimPool(cache=cache).map([spec])
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        SimPool(cache=cache).map([spec])
        assert cache.stats.hits == 0
        assert cache.stats.stores == 2
        assert _entries(cache) == 2


class TestRobustness:
    def test_corrupted_entry_is_a_miss_and_overwritten(self, tmp_path, spec):
        cache = ResultCache(tmp_path / "cache")
        SimPool(cache=cache).map([spec])
        path = cache.path_for(cache.key_for(spec))
        path.write_text("{ not json", encoding="utf-8")

        fresh_cache = ResultCache(tmp_path / "cache")
        result = SimPool(cache=fresh_cache).map([spec])[0]
        assert fresh_cache.stats.misses == 1
        assert fresh_cache.stats.stores == 1
        # The overwritten entry is readable again.
        assert _dumps(fresh_cache.load(fresh_cache.key_for(spec))) == _dumps(
            result
        )

    @pytest.mark.parametrize(
        "damage",
        [
            "oversized int",
            "string for int",
            "bool for int",
            "undeclared key",
            "missing key",
        ],
    )
    def test_malformed_entry_is_a_miss_and_overwritten(self, tmp_path, spec, damage):
        cache = ResultCache(tmp_path / "cache")
        expected = _dumps(SimPool(cache=cache).map([spec])[0])
        key = cache.key_for(spec)
        path = cache.path_for(key)
        data = json.loads(path.read_text(encoding="utf-8"))
        if damage == "oversized int":
            # Only as an 8-byte column, which no int column may be.
            wide = array("q", [2**40]).tobytes()
            data["collector"]["records"]["tenant_id"] = "q:" + b64encode(wide).decode()
        elif damage == "string for int":
            data["finished_gpu_jobs"] = str(data["finished_gpu_jobs"])
        elif damage == "bool for int":
            data["preemptions"] = True
        elif damage == "undeclared key":
            data["collector"]["faults"]["bogus"] = 0
        else:
            del data["collector"]["audit"]["checks_run"]
        path.write_text(json.dumps(data), encoding="utf-8")

        fresh_cache = ResultCache(tmp_path / "cache")
        assert fresh_cache.load(key) is None
        assert (fresh_cache.stats.hits, fresh_cache.stats.misses) == (0, 1)
        result = SimPool(cache=fresh_cache).map([spec])[0]
        assert fresh_cache.stats.stores == 1
        assert _dumps(result) == expected
        assert _dumps(fresh_cache.load(key)) == expected

    def test_schema_2_entry_is_a_miss(self, tmp_path, spec):
        # An entry as the record-per-job schema 2 wrote it, at this
        # build's key: the schema refuses it, and the run is redone.
        cache = ResultCache(tmp_path / "cache")
        expected = SimPool(cache=cache).map([spec])[0]
        path = cache.path_for(cache.key_for(spec))
        old = json.dumps(schema_2_document(expected))
        path.write_text(old, encoding="utf-8")

        fresh_cache = ResultCache(tmp_path / "cache")
        result = SimPool(cache=fresh_cache).map([spec])[0]
        assert (fresh_cache.stats.hits, fresh_cache.stats.misses) == (0, 1)
        assert _dumps(result) == _dumps(expected)
        assert path.read_text(encoding="utf-8") != old

    def test_stale_schema_entry_is_a_miss(self, tmp_path, spec):
        cache = ResultCache(tmp_path / "cache")
        SimPool(cache=cache).map([spec])
        path = cache.path_for(cache.key_for(spec))
        data = json.loads(path.read_text(encoding="utf-8"))
        data["schema"] = -1
        path.write_text(json.dumps(data), encoding="utf-8")
        assert ResultCache(tmp_path / "cache").load(cache.key_for(spec)) is None


class TestDefaultCache:
    def test_no_cache_env_disables(self, monkeypatch):
        monkeypatch.setenv(NO_CACHE_ENV, "1")
        assert default_cache() is None

    def test_explicit_root_wins_over_kill_switch(self, tmp_path, monkeypatch):
        monkeypatch.setenv(NO_CACHE_ENV, "1")
        cache = default_cache(tmp_path / "explicit")
        assert cache is not None
        assert cache.root == tmp_path / "explicit"

    def test_cache_dir_env_relocates(self, tmp_path, monkeypatch):
        monkeypatch.delenv(NO_CACHE_ENV, raising=False)
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "elsewhere"))
        cache = default_cache()
        assert cache is not None
        assert str(cache.root) == str(tmp_path / "elsewhere")


class TestStoreRetry:
    def test_transient_os_error_retried_once(self, tmp_path, spec, monkeypatch):
        import repro.parallel.cache as cache_module

        cache = ResultCache(tmp_path / "cache")
        real_replace = cache_module.os.replace
        blown = []

        def flaky_replace(src, dst):
            if not blown:
                blown.append(True)
                raise FileNotFoundError(src)
            return real_replace(src, dst)

        monkeypatch.setattr(cache_module.os, "replace", flaky_replace)
        result = SimPool(cache=cache).map([spec])[0]
        assert cache.stats.store_retries == 1
        assert cache.stats.store_failures == 0
        assert cache.stats.stores == 1
        assert "store retry(ies)" in cache.stats.render()
        # The retried entry is intact and serves a warm hit.
        warm = ResultCache(tmp_path / "cache")
        assert _dumps(warm.load(warm.key_for(spec))) == _dumps(result)

    def test_persistent_os_error_is_swallowed(self, tmp_path, spec, monkeypatch):
        import repro.parallel.cache as cache_module

        cache = ResultCache(tmp_path / "cache")

        def broken_replace(src, dst):
            raise PermissionError(dst)

        monkeypatch.setattr(cache_module.os, "replace", broken_replace)
        result = SimPool(cache=cache).map([spec])[0]  # must not raise
        assert result is not None
        assert cache.stats.store_retries == 1
        assert cache.stats.store_failures == 1
        assert cache.stats.stores == 0
        assert "1 store failure(s)" in cache.stats.render()
