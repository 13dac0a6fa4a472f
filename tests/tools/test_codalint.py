"""codalint: every rule must fire on a minimal fixture and stay quiet on
the idiomatic alternative, and the suppression/CLI plumbing must behave.

Fixtures are deliberately tiny — one construct per assertion — so a rule
regression points at exactly one behaviour.
"""

import json
from pathlib import Path

import pytest

from tools.codalint import check_file, check_paths, check_source
from tools.codalint.cli import main
from tools.codalint.rules import ALL_RULES, RULES_BY_CODE


def codes(source: str) -> list:
    return [v.code for v in check_source(source)]


class TestRuleCatalogue:
    def test_all_rules_have_codes_and_prose(self):
        assert [r.code for r in ALL_RULES] == [
            "CL001", "CL002", "CL003", "CL004", "CL005", "CL006", "CL007",
        ]
        for rule in ALL_RULES:
            assert rule.summary and rule.rationale
            assert RULES_BY_CODE[rule.code] is rule


class TestCL001WallClock:
    def test_time_time(self):
        assert codes("import time\nnow = time.time()\n") == ["CL001"]

    def test_time_monotonic_via_alias(self):
        assert codes("import time as t\nnow = t.monotonic()\n") == ["CL001"]

    def test_from_import(self):
        assert codes(
            "from time import perf_counter\nnow = perf_counter()\n"
        ) == ["CL001"]

    def test_datetime_now(self):
        assert codes(
            "from datetime import datetime\nstamp = datetime.now()\n"
        ) == ["CL001"]

    def test_engine_clock_is_fine(self):
        assert codes("now = engine.now\nlater = clock.advance(5.0)\n") == []

    def test_time_sleep_is_not_a_clock_read(self):
        assert codes("import time\ntime.sleep(1)\n") == []


class TestCL002UnseededRandom:
    def test_module_level_draw(self):
        assert codes("import random\nx = random.random()\n") == ["CL002"]

    def test_module_level_choice(self):
        assert codes("import random\nx = random.choice([1, 2])\n") == ["CL002"]

    def test_unseeded_random_instance(self):
        assert codes("import random\nrng = random.Random()\n") == ["CL002"]

    def test_seeded_random_instance_is_fine(self):
        assert codes("import random\nrng = random.Random(42)\n") == []

    def test_stream_draws_are_fine(self):
        assert codes("rng = registry.stream('arrivals')\nx = rng.random()\n") == []


class TestCL003SetIteration:
    def test_for_over_set_literal(self):
        assert codes("for x in {1, 2, 3}:\n    pass\n") == ["CL003"]

    def test_for_over_annotated_set_symbol(self):
        source = (
            "from typing import Set\n"
            "node_ids: Set[int] = set()\n"
            "for node_id in node_ids:\n"
            "    pass\n"
        )
        assert codes(source) == ["CL003"]

    def test_for_over_set_typed_attribute(self):
        source = (
            "class Tracker:\n"
            "    def drain(self):\n"
            "        self._seen = set()\n"
            "        for item in self._seen:\n"
            "            pass\n"
        )
        assert codes(source) == ["CL003"]

    def test_comprehension_over_set(self):
        assert codes("ids = set()\nout = [x for x in ids]\n") == ["CL003"]

    def test_list_freezes_set_order(self):
        assert codes("ids = set()\nfrozen = list(ids)\n") == ["CL003"]

    def test_join_over_set(self):
        assert codes("names = set()\nlabel = ','.join(names)\n") == ["CL003"]

    def test_set_union_still_a_set(self):
        assert codes("a = set()\nfor x in a | {1}:\n    pass\n") == ["CL003"]

    def test_sorted_set_is_fine(self):
        assert codes("ids = set()\nfor x in sorted(ids):\n    pass\n") == []

    def test_order_insensitive_consumers_are_fine(self):
        source = (
            "ids = set()\n"
            "n = len(ids)\n"
            "total = sum(x for x in ids)\n"
            "top = max(ids)\n"
        )
        assert codes(source) == []

    def test_dict_iteration_is_fine(self):
        # dicts are insertion-ordered; only sets are nondeterministic.
        assert codes("d = {}\nfor k in d:\n    pass\n") == []


class TestCL004BroadExcept:
    def test_bare_except(self):
        assert codes("try:\n    pass\nexcept:\n    pass\n") == ["CL004"]

    def test_except_exception(self):
        assert codes("try:\n    pass\nexcept Exception:\n    pass\n") == [
            "CL004"
        ]

    def test_exception_inside_tuple(self):
        source = "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n"
        assert codes(source) == ["CL004"]

    def test_narrow_except_is_fine(self):
        source = "try:\n    pass\nexcept (ValueError, KeyError):\n    pass\n"
        assert codes(source) == []


class TestCL005MutableDefault:
    def test_list_default(self):
        assert codes("def f(xs=[]):\n    pass\n") == ["CL005"]

    def test_dict_factory_default(self):
        assert codes("def f(xs=dict()):\n    pass\n") == ["CL005"]

    def test_kwonly_default(self):
        assert codes("def f(*, xs={}):\n    pass\n") == ["CL005"]

    def test_lambda_default(self):
        assert codes("f = lambda xs=[]: xs\n") == ["CL005"]

    def test_none_default_is_fine(self):
        assert codes("def f(xs=None):\n    pass\n") == []

    def test_frozen_default_is_fine(self):
        assert codes("def f(xs=()):\n    pass\n") == []


class TestCL006FloatIntoIntCounter:
    def test_float_literal_accumulation(self):
        source = "used: int = 0\nused += 0.5\n"
        assert codes(source) == ["CL006"]

    def test_division_accumulation(self):
        source = "used: int = 0\nused += cores / 2\n"
        assert codes(source) == ["CL006"]

    def test_attribute_counter(self):
        source = (
            "class Node:\n"
            "    def __init__(self):\n"
            "        self.used: int = 0\n"
            "    def grab(self, n):\n"
            "        self.used += float(n)\n"
        )
        assert codes(source) == ["CL006"]

    def test_int_accumulation_is_fine(self):
        assert codes("used: int = 0\nused += 4\nused -= 2\n") == []

    def test_float_counter_is_fine(self):
        assert codes("work: float = 0.0\nwork += 0.5\n") == []

    def test_int_name_is_local_to_its_function(self):
        source = (
            "def helper(iterations: int):\n"
            "    return iterations\n"
            "def overhead():\n"
            "    iterations = 0.0\n"
            "    iterations += 0.5\n"
        )
        assert codes(source) == []

    def test_int_name_in_the_same_function_is_flagged(self):
        source = (
            "def helper(iterations: int):\n"
            "    iterations += 0.5\n"
            "    return iterations\n"
        )
        assert codes(source) == ["CL006"]


class TestCL007UnboundedJoin:
    def test_process_join_without_timeout(self):
        source = (
            "import multiprocessing\n"
            "p = multiprocessing.Process(target=work)\n"
            "p.start()\n"
            "p.join()\n"
        )
        assert codes(source) == ["CL007"]

    def test_context_process_join(self):
        source = (
            "import multiprocessing\n"
            'ctx = multiprocessing.get_context("spawn")\n'
            "worker = ctx.Process(target=work)\n"
            "worker.join()\n"
        )
        assert codes(source) == ["CL007"]

    def test_pool_join(self):
        source = (
            "from multiprocessing import Pool\n"
            "pool = Pool(4)\n"
            "pool.join()\n"
        )
        assert codes(source) == ["CL007"]

    def test_join_with_timeout_kw_is_fine(self):
        source = (
            "import multiprocessing\n"
            "p = multiprocessing.Process(target=work)\n"
            "p.join(timeout=5.0)\n"
        )
        assert codes(source) == []

    def test_join_with_positional_timeout_is_fine(self):
        source = (
            "import multiprocessing\n"
            "p = multiprocessing.Process(target=work)\n"
            "p.join(5.0)\n"
        )
        assert codes(source) == []

    def test_string_and_thread_joins_are_ignored(self):
        source = (
            "import threading\n"
            'text = ", ".join(["a", "b"])\n'
            "t = threading.Thread(target=work)\n"
            "t.join()\n"
        )
        assert codes(source) == []


class TestCL000SyntaxError:
    def test_unparsable_source(self):
        violations = check_source("def broken(:\n")
        assert [v.code for v in violations] == ["CL000"]
        assert "syntax error" in violations[0].message


class TestSuppressions:
    def test_line_disable(self):
        source = "import time\nnow = time.time()  # codalint: disable=CL001\n"
        assert codes(source) == []

    def test_line_disable_only_that_line(self):
        source = (
            "import time\n"
            "a = time.time()  # codalint: disable=CL001\n"
            "b = time.time()\n"
        )
        assert codes(source) == ["CL001"]

    def test_line_disable_all(self):
        source = "import random\nx = random.random()  # codalint: disable=all\n"
        assert codes(source) == []

    def test_line_disable_other_code_keeps_violation(self):
        source = "import time\nnow = time.time()  # codalint: disable=CL003\n"
        assert codes(source) == ["CL001"]

    def test_file_disable(self):
        source = (
            "# codalint: disable-file=CL003\n"
            "ids = set()\n"
            "for x in ids:\n"
            "    pass\n"
            "import time\n"
            "now = time.time()\n"
        )
        assert codes(source) == ["CL001"]


class TestCheckPaths:
    def test_directory_walk_and_filters(self, tmp_path: Path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text(
            "import time\nnow = time.time()\n"
        )
        (tmp_path / "pkg" / "b.py").write_text(
            "ids = set()\nfor x in ids:\n    pass\n"
        )
        all_codes = sorted(v.code for v in check_paths([tmp_path]))
        assert all_codes == ["CL001", "CL003"]
        only = check_paths([tmp_path], select=["CL001"])
        assert [v.code for v in only] == ["CL001"]
        rest = check_paths([tmp_path], ignore=["CL001"])
        assert [v.code for v in rest] == ["CL003"]

    def test_unknown_code_raises(self, tmp_path: Path):
        with pytest.raises(ValueError):
            check_paths([tmp_path], select=["CL999"])

    def test_syntax_error_bypasses_filters(self, tmp_path: Path):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        violations = check_paths([tmp_path], select=["CL001"])
        assert [v.code for v in violations] == ["CL000"]

    def test_check_file(self, tmp_path: Path):
        target = tmp_path / "bad.py"
        target.write_text("import random\nx = random.random()\n")
        violations = check_file(target)
        assert [v.code for v in violations] == ["CL002"]
        assert violations[0].path == str(target)


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path: Path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main([str(tmp_path)]) == 0

    def test_violations_exit_one_text(self, tmp_path: Path, capsys):
        (tmp_path / "bad.py").write_text("import time\nnow = time.time()\n")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "CL001" in out and "1 violation(s)" in out

    def test_json_output(self, tmp_path: Path, capsys):
        (tmp_path / "bad.py").write_text("import time\nnow = time.time()\n")
        assert main(["--format", "json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["violations"][0]["code"] == "CL001"
        assert payload["violations"][0]["line"] == 2

    def test_missing_path_exits_two(self, tmp_path: Path):
        assert main([str(tmp_path / "nope")]) == 2

    def test_bad_code_exits_two(self, tmp_path: Path):
        assert main(["--select", "CL999", str(tmp_path)]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.code in out


class TestRepoIsClean:
    def test_src_passes_codalint(self):
        repo_root = Path(__file__).resolve().parents[2]
        assert check_paths([repo_root / "src"]) == []

    def test_tools_pass_codalint(self):
        repo_root = Path(__file__).resolve().parents[2]
        assert check_paths([repo_root / "tools"]) == []
