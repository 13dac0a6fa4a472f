"""The acceptance gate for the effect analysis.

Mutation check: deleting any single ``generation.bump()`` /
``generation.bump_node(...)`` call from ``src/repro/cluster/node.py``
(on a copied tree) must make the analysis report **exactly** the
function that lost its bump — one EF001 finding, nothing else.  And the
committed tree must analyze clean.
"""

import dataclasses
import re
import shutil
import time
from pathlib import Path

import pytest

from tools.codalint.analysis_rules import analyze_paths
from tools.codalint.contracts import load_contracts

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"
NODE_PY = SRC / "cluster" / "node.py"
MANIFEST = REPO_ROOT / "contracts.toml"

#: Bump call site -> the function EF001 must blame when it disappears.
EXPECTED_BLAME = {
    "mark_down": "Node.mark_down",
    "mark_up": "Node.mark_up",
    "allocate": "Node.allocate",
    "release": "Node.release",
    "resize_cpus": "Node.resize_cpus",
    "fail_gpu": "Node.fail_gpu",
    "repair_gpu": "Node.repair_gpu",
    "_after_load": "Node._after_load",
}


def _bump_sites():
    """(line_number, enclosing_function_name) for every bump call —
    the plain (coarse) ``bump()`` and the node-attributed ``bump_node``."""
    sites = []
    current = None
    for lineno, line in enumerate(NODE_PY.read_text().splitlines(), 1):
        match = re.match(r"    def (\w+)", line)
        if match:
            current = match.group(1)
        if "generation.bump()" in line or "generation.bump_node(" in line:
            sites.append((lineno, current))
    return sites


BUMP_SITES = _bump_sites()


def test_node_has_the_expected_bump_sites():
    assert sorted(name for _, name in BUMP_SITES) == sorted(EXPECTED_BLAME)


def test_committed_tree_analyzes_clean():
    contracts = load_contracts(MANIFEST)
    violations, _ = analyze_paths([SRC], contracts)
    assert violations == [], [v.render() for v in violations]


@pytest.mark.parametrize(
    "lineno,func_name", BUMP_SITES, ids=[name for _, name in BUMP_SITES]
)
def test_deleting_one_bump_blames_exactly_that_function(
    tmp_path, lineno, func_name
):
    mutated = tmp_path / "repro"
    shutil.copytree(SRC, mutated)
    lines = NODE_PY.read_text().splitlines(True)
    assert "generation.bump" in lines[lineno - 1]
    lines[lineno - 1] = re.sub(
        r"\S.*", "pass", lines[lineno - 1], count=1
    )
    (mutated / "cluster" / "node.py").write_text("".join(lines))

    contracts = load_contracts(MANIFEST)
    violations, _ = analyze_paths([mutated], contracts)

    assert violations, f"deleting bump in {func_name} went undetected"
    assert all(v.code == "EF001" for v in violations)
    blamed = {v.symbol.split(":")[-1] for v in violations}
    assert blamed == {EXPECTED_BLAME[func_name]}


#: The progress layer's reprice memos.  EF002 must keep *detecting*
#: them: dropping a [[cache]] declaration from the manifest has to
#: surface as findings against progress.py, or the clean-tree test above
#: proves nothing about the attribute.
PROGRESS_MEMOS = (
    ("Progress", "_speed_memo"),
    ("Progress", "_node_key_memo"),
)


@pytest.mark.parametrize(
    "owner,attr", PROGRESS_MEMOS, ids=[f"{o}.{a}" for o, a in PROGRESS_MEMOS]
)
def test_undeclaring_a_progress_memo_fails_ef002(owner, attr):
    contracts = load_contracts(MANIFEST)
    assert contracts.cache_declared(owner, attr)
    stripped = dataclasses.replace(
        contracts,
        caches=tuple(
            c
            for c in contracts.caches
            if not (c.owner == owner and c.attr == attr)
        ),
    )
    violations, _ = analyze_paths([SRC], stripped)
    assert violations, f"undeclared {owner}.{attr} went undetected"
    assert all(v.code == "EF002" for v in violations)
    assert all(f"{owner}.{attr}" in v.message for v in violations)
    assert all(v.path.endswith("progress.py") for v in violations)


#: IV014 asks each record kind to re-check its own price; a write to the
#: record on that path must trip the [[readonly]] entries on the record
#: classes.
@pytest.mark.parametrize("record_class", ["_RunningGpu", "_RunningCpu"])
def test_observer_write_to_a_running_record_fails_ef003(tmp_path, record_class):
    mutated = tmp_path / "repro"
    shutil.copytree(SRC, mutated)
    progress_py = mutated / "experiments" / "progress.py"
    source, hits = re.subn(
        rf"(class {record_class}\(.*?\n    def recheck\(.*?\) -> .*?:\n)",
        r"\1        self.speed = 0.0\n",
        progress_py.read_text(),
        count=1,
        flags=re.S,
    )
    assert hits == 1
    progress_py.write_text(source)

    violations, _ = analyze_paths([mutated], load_contracts(MANIFEST))

    assert violations, f"a record write in {record_class}.recheck went undetected"
    assert all(v.code == "EF003" for v in violations)
    assert {v.symbol.split(":")[-1] for v in violations} == {
        f"{record_class}.recheck"
    }


#: IV010 reads the multi-array scheduler's tracked-job table; clearing it
#: from the auditor would change the census the next pass serves.
def test_observer_write_to_the_tracked_table_fails_ef003(tmp_path):
    mutated = tmp_path / "repro"
    shutil.copytree(SRC, mutated)
    invariants_py = mutated / "analysis" / "invariants.py"
    source, hits = re.subn(
        r"(def _check_cpu_census\(.*?\n        maintained = .*?\n)",
        r"\1        scheduler._tracked.clear()\n",
        invariants_py.read_text(),
        count=1,
        flags=re.S,
    )
    assert hits == 1
    invariants_py.write_text(source)

    violations, _ = analyze_paths([mutated], load_contracts(MANIFEST))

    assert violations, "clearing _tracked in IV010 went undetected"
    assert all(v.code == "EF003" for v in violations)
    assert {v.symbol.split(":")[-1] for v in violations} == {
        "InvariantAuditor._check_cpu_census"
    }


def test_full_analysis_is_fast_enough_for_ci():
    contracts = load_contracts(MANIFEST)
    start = time.monotonic()
    analyze_paths([SRC], contracts)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"analysis took {elapsed:.1f}s (CI budget: 30s)"
