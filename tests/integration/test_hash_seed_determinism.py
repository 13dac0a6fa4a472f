"""One faulted CODA spec gives the same bytes in every process.

Each case runs in a fresh interpreter under its own ``PYTHONHASHSEED``, so
set and dict iteration orders that hash strings differ between cases.  In
every process the spec runs three ways: directly, resumed from a mid-run
checkpoint, and served from a ``ResultCache`` written by an earlier run.
All three, under every hash seed, must serialize to the same
``run_result_to_dict`` bytes: the benchmark gate's committed result
digests rely on it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import hashlib, json, sys
from repro.checkpoint import checkpointed_runner, latest_checkpoint
from repro.experiments.scenarios import small_scenario
from repro.faults import FaultConfig
from repro.health import HealthConfig
from repro.metrics.serialize import run_result_to_dict
from repro.parallel import ResultCache, SimPool
from repro.parallel.spec import RunSpec

root = sys.argv[1]
scenario = small_scenario(duration_days=0.05, seed=2, nodes=4).with_faults(
    FaultConfig(
        seed=3,
        node_mtbf_s=1800.0,
        node_mttr_s=600.0,
        gpu_mtbf_s=3600.0,
        telemetry_mtbf_s=1200.0,
        straggler_interval_s=900.0,
    )
)
spec = RunSpec(scenario=scenario, scheduler="coda", health_config=HealthConfig())


def digest(result):
    text = json.dumps(run_result_to_dict(result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


horizon = spec.resolved_scenario().horizon_s
direct = digest(spec.execute())
checkpointed_runner(
    spec, checkpoint_dir=root + "/ckpt", checkpoint_every_events=150
).run(until=horizon)
checkpoint = latest_checkpoint(root + "/ckpt")
assert checkpoint is not None
restored = digest(
    checkpointed_runner(spec, restore_from=checkpoint).run(until=horizon)
)
SimPool(cache=ResultCache(root + "/cache")).map([spec])
warm = SimPool(cache=ResultCache(root + "/cache"))
cached = digest(warm.map([spec])[0])
print(json.dumps({
    "direct": direct,
    "restored": restored,
    "cached": cached,
    "hits": warm.stats.hits,
}))
"""


def _run(hash_seed, root):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(root)],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        check=True,
        timeout=300,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def test_same_bytes_across_hash_seeds_restore_and_cache(tmp_path):
    digests = set()
    for hash_seed in (0, 1, 12345):
        root = tmp_path / f"hash{hash_seed}"
        root.mkdir()
        record = _run(hash_seed, root)
        assert record["hits"] == 1, hash_seed
        assert record["direct"] == record["restored"] == record["cached"], hash_seed
        digests.add(record["direct"])
    assert len(digests) == 1
