"""EF001–EF004 rule tests on small fixture packages."""

import textwrap

import pytest

from tools.codalint.contracts import (
    CacheContract,
    Contracts,
    ReadonlyState,
    SharedState,
    TrackedState,
)
from tools.codalint.analysis_rules import analyze_paths


def _write_pkg(tmp_path, files):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    for name, source in files.items():
        (pkg / name).write_text(textwrap.dedent(source))
    return pkg


GENERATION_FIXTURE = """
class Generation:
    def __init__(self):
        self.value = 0

    def bump(self):
        self.value += 1

class Node:
    def __init__(self):
        self.used = 0
        self.generation = Generation()

    def allocate(self, n):
        self.used += n
        self.generation.bump()

    def leak(self, n):  # deliberately missing bump()
        self.used += n
"""


def _contracts(**overrides):
    base = dict(
        hooks=("pkg.m:Generation.bump",),
        tracked=(TrackedState("Node", ("used",), "writer"),),
    )
    base.update(overrides)
    return Contracts(**base)


class TestEF001:
    def test_missing_bump_is_caught_exactly_once(self, tmp_path):
        pkg = _write_pkg(tmp_path, {"m.py": GENERATION_FIXTURE})
        violations, _ = analyze_paths([pkg], _contracts())
        assert [v.code for v in violations] == ["EF001"]
        assert violations[0].symbol.endswith(":Node.leak")
        assert "Node.used" in violations[0].message

    def test_constructor_is_exempt(self, tmp_path):
        # Node.__init__ writes `used` without bumping: building the
        # object that owns the counter cannot invalidate stale readers.
        pkg = _write_pkg(tmp_path, {"m.py": GENERATION_FIXTURE})
        violations, _ = analyze_paths([pkg], _contracts())
        assert not any(
            v.symbol.endswith("__init__") for v in violations
        )

    def test_caller_blame_lands_on_the_caller(self, tmp_path):
        pkg = _write_pkg(
            tmp_path,
            {
                "m.py": GENERATION_FIXTURE
                + textwrap.dedent(
                    """
                    class Gpu:
                        def __init__(self):
                            self.owner = None

                        def assign(self, job):
                            self.owner = job

                    def good(gpu: "Gpu", node: "Node", job):
                        gpu.assign(job)
                        node.generation.bump()

                    def bad(gpu: "Gpu", job):
                        gpu.assign(job)
                    """
                )
            },
        )
        contracts = _contracts(
            tracked=(
                TrackedState("Node", ("used",), "writer"),
                TrackedState("Gpu", ("owner",), "caller"),
            )
        )
        violations, _ = analyze_paths([pkg], contracts)
        symbols = {v.symbol.split(":")[-1] for v in violations}
        assert "bad" in symbols
        assert "good" not in symbols
        assert "Gpu.assign" not in symbols  # the class itself is exempt

    def test_root_cause_only_blames_the_callee(self, tmp_path):
        pkg = _write_pkg(
            tmp_path,
            {
                "m.py": GENERATION_FIXTURE
                + textwrap.dedent(
                    """
                    class Cluster:
                        def __init__(self):
                            self.allocations = {}

                    def orchestrate(cluster: "Cluster", node: "Node", job):
                        cluster.allocations[job] = 1
                        node.leak(1)
                    """
                )
            },
        )
        contracts = _contracts(
            tracked=(
                TrackedState("Node", ("used",), "writer"),
                TrackedState("Cluster", ("allocations",), "writer"),
            )
        )
        violations, _ = analyze_paths([pkg], contracts)
        # orchestrate's missing invalidation is entirely explained by
        # Node.leak; only the root cause is reported.
        symbols = {v.symbol.split(":")[-1] for v in violations}
        assert symbols == {"Node.leak"}

    def test_suppression_comment_is_honored(self, tmp_path):
        source = GENERATION_FIXTURE.replace(
            "    def leak(self, n):  # deliberately missing bump()",
            "    def leak(self, n):  # codalint: disable=EF001",
        )
        pkg = _write_pkg(tmp_path, {"m.py": source})
        violations, _ = analyze_paths([pkg], _contracts())
        assert violations == []

    def test_unresolvable_hook_is_reported(self, tmp_path):
        pkg = _write_pkg(tmp_path, {"m.py": GENERATION_FIXTURE})
        contracts = _contracts(hooks=("pkg.m:NoSuch.hook",))
        violations, _ = analyze_paths([pkg], contracts)
        assert any("not found" in v.message for v in violations)


class TestEF002:
    FIXTURE = """
    from functools import lru_cache

    class Table:
        def __init__(self):
            self._row_cache = {}

        def lookup(self, key):
            if key not in self._row_cache:
                self._row_cache[key] = key * 2
            return self._row_cache[key]

    @lru_cache(maxsize=8)
    def expensive(n):
        return n ** 2
    """

    def test_undeclared_caches_fail(self, tmp_path):
        pkg = _write_pkg(tmp_path, {"m.py": self.FIXTURE})
        violations, _ = analyze_paths([pkg], Contracts())
        found = {v.message.split(" has ")[0] for v in violations}
        assert any("Table._row_cache" in f for f in found)
        assert any("expensive" in f for f in found)

    def test_declared_caches_pass(self, tmp_path):
        pkg = _write_pkg(tmp_path, {"m.py": self.FIXTURE})
        contracts = Contracts(
            caches=(
                CacheContract(
                    owner="Table", attr="_row_cache",
                    invalidation="content-keyed",
                ),
                CacheContract(
                    function="pkg.m:expensive", invalidation="arg-keyed"
                ),
            )
        )
        violations, _ = analyze_paths([pkg], contracts)
        assert violations == []


class TestEF003:
    FIXTURE = """
    class Cluster:
        def __init__(self):
            self.used = 0

    class Auditor:
        def __init__(self, cluster: "Cluster"):
            self.cluster = cluster
            self.checks = 0

        def on_event(self, event):
            self.checks += 1
            self._verify()

        def _verify(self):
            self.cluster.used = 0  # observer mutating sim state
    """

    def test_observer_write_to_readonly_state_fails(self, tmp_path):
        pkg = _write_pkg(tmp_path, {"m.py": self.FIXTURE})
        contracts = Contracts(
            observer_roots=("pkg.m:Auditor.on_event",),
            readonly=(ReadonlyState("Cluster", ("used",)),),
        )
        violations, _ = analyze_paths([pkg], contracts)
        assert [v.code for v in violations] == ["EF003"]
        assert violations[0].symbol.endswith(":Auditor._verify")

    def test_observer_own_state_is_fine(self, tmp_path):
        source = self.FIXTURE.replace(
            "self.cluster.used = 0  # observer mutating sim state", "pass"
        )
        pkg = _write_pkg(tmp_path, {"m.py": source})
        contracts = Contracts(
            observer_roots=("pkg.m:Auditor.on_event",),
            readonly=(ReadonlyState("Cluster", ("used",)),),
        )
        violations, _ = analyze_paths([pkg], contracts)
        assert violations == []

    @pytest.mark.parametrize(
        "declared_on,receiver",
        [("Cluster", "BigCluster"), ("BigCluster", "Cluster")],
    )
    def test_readonly_entry_covers_the_class_hierarchy(
        self, tmp_path, declared_on, receiver
    ):
        source = self.FIXTURE.replace('"Cluster"', f'"{receiver}"')
        source += "\n    class BigCluster(Cluster):\n        pass\n"
        pkg = _write_pkg(tmp_path, {"m.py": source})
        contracts = Contracts(
            observer_roots=("pkg.m:Auditor.on_event",),
            readonly=(ReadonlyState(declared_on, ("used",)),),
        )
        violations, _ = analyze_paths([pkg], contracts)
        assert [v.code for v in violations] == ["EF003"]
        assert f"writes {receiver}.used" in violations[0].message


class TestEF004:
    FIXTURE = """
    import threading

    class Shared:
        def __init__(self):
            self.beats = 0

    def heartbeat(shared: "Shared"):
        shared.beats += 1

    def supervise(shared: "Shared"):
        thread = threading.Thread(target=heartbeat, args=(shared,))
        thread.start()

    def report(shared: "Shared"):
        return shared.beats
    """

    def test_undeclared_shared_attr_fails(self, tmp_path):
        pkg = _write_pkg(tmp_path, {"m.py": self.FIXTURE})
        violations, _ = analyze_paths([pkg], Contracts())
        assert [v.code for v in violations] == ["EF004"]
        assert violations[0].symbol.endswith(":supervise")
        assert "Shared.beats" in violations[0].message

    def test_declared_shared_attr_passes(self, tmp_path):
        pkg = _write_pkg(tmp_path, {"m.py": self.FIXTURE})
        contracts = Contracts(
            shared=(SharedState("Shared", ("beats",), guard="beats_lock"),)
        )
        violations, _ = analyze_paths([pkg], contracts)
        assert violations == []


class TestSelection:
    def test_select_limits_rule_set(self, tmp_path):
        pkg = _write_pkg(
            tmp_path, {"m.py": GENERATION_FIXTURE + TestEF002.FIXTURE}
        )
        violations, _ = analyze_paths([pkg], _contracts(), select=["EF002"])
        assert violations and all(v.code == "EF002" for v in violations)
        violations, _ = analyze_paths([pkg], _contracts(), ignore=["EF002"])
        assert violations and all(v.code != "EF002" for v in violations)
