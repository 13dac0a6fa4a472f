"""Call-graph builder tests on the constructs that break naive resolvers:
properties, ``functools.partial``, registry dispatch through a dict of
constructors, ``super()``, parameters and locals named like a method, and
comprehension scopes."""

import textwrap

from tools.codalint.callgraph import build_program
from tools.codalint.effects import EffectAnalysis


def _write_pkg(tmp_path, files):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    for name, source in files.items():
        target = pkg / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return pkg


def _analyze(tmp_path, files):
    pkg = _write_pkg(tmp_path, files)
    program = build_program([pkg])
    return program, EffectAnalysis(program).run()


def _only(effects, suffix):
    matches = [f for f in effects if f.endswith(suffix)]
    assert len(matches) == 1, f"{suffix}: {matches}"
    return matches[0]


class TestProperties:
    def test_property_read_is_a_call_to_the_getter(self, tmp_path):
        program, analysis = _analyze(
            tmp_path,
            {
                "m.py": """
                class Counter:
                    def __init__(self):
                        self._n = 0

                    @property
                    def value(self):
                        return self._n

                def peek(counter: "Counter"):
                    return counter.value
                """
            },
        )
        peek = _only(analysis.effects, ":peek")
        getter = _only(program.functions, ":Counter.value")
        assert getter in analysis.effects[peek].calls
        # The getter's read flows transitively into the caller.
        assert ("Counter", "_n") in analysis.effects[peek].transitive_reads


class TestPartial:
    def test_functools_partial_creates_a_call_edge(self, tmp_path):
        program, analysis = _analyze(
            tmp_path,
            {
                "m.py": """
                import functools

                class Box:
                    def __init__(self):
                        self.items = 0

                def fill(box: "Box", n):
                    box.items = n

                def make_filler(box: "Box"):
                    return functools.partial(fill, box, 3)
                """
            },
        )
        maker = _only(analysis.effects, ":make_filler")
        fill = _only(program.functions, ":fill")
        assert fill in analysis.effects[maker].calls
        assert ("Box", "items") in analysis.effects[maker].transitive_writes


class TestRegistryDispatch:
    def test_constructor_registry_resolves_all_branches(self, tmp_path):
        program, analysis = _analyze(
            tmp_path,
            {
                "policies.py": """
                class Base:
                    def __init__(self):
                        self.kind = "base"

                class Fast(Base):
                    def __init__(self):
                        self.kind = "fast"

                class Safe(Base):
                    def __init__(self):
                        self.kind = "safe"

                def build(name):
                    if name == "fast":
                        return Fast()
                    return Safe()
                """
            },
        )
        build = _only(analysis.effects, ":build")
        calls = analysis.effects[build].calls
        assert _only(program.functions, ":Fast.__init__") in calls
        assert _only(program.functions, ":Safe.__init__") in calls

    def test_cha_dispatch_includes_overrides(self, tmp_path):
        program, analysis = _analyze(
            tmp_path,
            {
                "m.py": """
                class Scheduler:
                    def tick(self):
                        return 0

                class Coda(Scheduler):
                    def tick(self):
                        return 1

                def drive(sched: "Scheduler"):
                    return sched.tick()
                """
            },
        )
        drive = _only(analysis.effects, ":drive")
        calls = analysis.effects[drive].calls
        assert _only(program.functions, ":Scheduler.tick") in calls
        assert _only(program.functions, ":Coda.tick") in calls


class TestSuper:
    def test_super_resolves_to_nearest_ancestor_def(self, tmp_path):
        program, analysis = _analyze(
            tmp_path,
            {
                "m.py": """
                class Base:
                    def setup(self):
                        self.ready = True

                class Child(Base):
                    def setup(self):
                        super().setup()
                        self.extra = 1
                """
            },
        )
        child = _only(analysis.effects, ":Child.setup")
        base = _only(program.functions, ":Base.setup")
        assert base in analysis.effects[child].calls
        assert ("Base", "ready") in analysis.effects[child].transitive_writes


class TestShadowedMethodNames:
    SOURCE = """
        from typing import Callable

        class Record:
            def __init__(self):
                self.speed = 0.0

            def price(self, contention):
                self.speed = contention
                return self.speed

            def quote(self, price: Callable[..., float], contention):
                return price(contention)

            def requote(self, contention):
                model = contention.model
                return model(contention)

            def reprice(self, contention):
                price = contention.model
                return price(contention)
        """

    def test_parameter_named_like_a_method_is_not_that_method(self, tmp_path):
        program, analysis = _analyze(tmp_path, {"m.py": self.SOURCE})
        method = _only(program.functions, ":Record.price")
        for caller in (":Record.quote", ":Record.reprice"):
            effects = analysis.effects[_only(analysis.effects, caller)]
            assert method not in effects.calls
            assert ("Record", "speed") not in effects.transitive_writes

    def test_unshadowed_bare_name_still_resolves(self, tmp_path):
        source = self.SOURCE.replace(
            "return model(contention)", "return price(contention)"
        )
        program, analysis = _analyze(tmp_path, {"m.py": source})
        method = _only(program.functions, ":Record.price")
        requote = _only(analysis.effects, ":Record.requote")
        assert method in analysis.effects[requote].calls


class TestComprehensionScopes:
    def test_comprehension_target_gets_element_type(self, tmp_path):
        program, analysis = _analyze(
            tmp_path,
            {
                "m.py": """
                from typing import List

                class Gpu:
                    def __init__(self):
                        self.busy = False

                class Node:
                    def __init__(self):
                        self.gpus: List[Gpu] = []

                    def busy_count(self):
                        return len([g for g in self.gpus if g.busy])
                """
            },
        )
        method = _only(analysis.effects, ":Node.busy_count")
        assert ("Gpu", "busy") in analysis.effects[method].reads


class TestCrossModuleImports:
    def test_imported_function_and_class_resolve(self, tmp_path):
        program, analysis = _analyze(
            tmp_path,
            {
                "a.py": """
                class Widget:
                    def __init__(self):
                        self.spin = 0

                def poke(widget: "Widget"):
                    widget.spin += 1
                """,
                "b.py": """
                from pkg.a import Widget, poke

                def run():
                    widget = Widget()
                    poke(widget)
                """,
            },
        )
        run = _only(analysis.effects, ":run")
        calls = analysis.effects[run].calls
        assert _only(program.functions, ":poke") in calls
        assert _only(program.functions, ":Widget.__init__") in calls
        assert ("Widget", "spin") in analysis.effects[run].transitive_writes


class TestRealTree:
    def test_scheduler_registry_dispatch(self):
        program = build_program(["src/repro/parallel", "src/repro/schedulers",
                                 "src/repro/core", "src/repro/cluster",
                                 "src/repro/sim", "src/repro/config.py"])
        analysis = EffectAnalysis(program).run()
        build = _only(analysis.effects, ":build_scheduler")
        names = {
            program.functions[f].short_qualname
            for f in analysis.effects[build].calls
        }
        assert {"FifoScheduler.__init__", "DrfScheduler.__init__",
                "CodaScheduler.__init__"} <= names
