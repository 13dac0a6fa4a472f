"""Per-function effect inference and transitive (fixpoint) propagation.

For every function indexed by :mod:`tools.codalint.callgraph` this module
computes an *effect set*:

* ``reads``  — ``(ClassName, attr)`` pairs the function reads directly;
* ``writes`` — pairs it writes directly, including subscript stores
  (``self._shares[k] = v``), ``del``, augmented assignment, and
  collection-mutator calls (``self._shares.pop(k)``,
  ``self._records.setdefault(...)``);
* ``calls``  — resolved callee function ids, with class-hierarchy
  dispatch for method calls, ``super()``, properties (reading ``obj.p``
  where ``p`` is a property is a call to the getter), constructor calls,
  and ``functools.partial`` references;
* ``thread_targets`` — functions handed to ``threading.Thread(target=…)``
  (these are *not* call edges: the body runs concurrently, which is
  exactly the distinction rule EF004 needs).

``propagate()`` then closes reads/writes transitively over the call graph
with a worklist fixpoint, so ``transitive_writes("Cluster.allocate")``
includes everything ``Node.allocate`` and ``Gpu.assign`` touch.

Unresolvable receivers (untyped locals, values from unindexed libraries)
contribute *nothing* to effect sets — the analysis only reasons about
attributes whose owning class it can name.  The per-function
``unresolved_calls`` counter is surfaced in ``--effects-dump`` so a
reviewer can see where the model is blind.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from tools.codalint.callgraph import (
    COLLECTION_MUTATORS,
    ExprTyper,
    FunctionInfo,
    Program,
    _dotted_source,
)

Effect = Tuple[str, str]  # (class name, attribute)


@dataclass
class FunctionEffects:
    """Direct and transitive effects of one function."""

    func_id: str
    reads: Set[Effect] = field(default_factory=set)
    writes: Set[Effect] = field(default_factory=set)
    calls: Set[str] = field(default_factory=set)
    thread_targets: Set[str] = field(default_factory=set)
    unresolved_calls: int = 0
    transitive_reads: Set[Effect] = field(default_factory=set)
    transitive_writes: Set[Effect] = field(default_factory=set)

    def as_dict(self) -> Dict[str, object]:
        def pairs(effects: Set[Effect]) -> List[str]:
            return sorted(f"{cls}.{attr}" for cls, attr in effects)

        return {
            "reads": pairs(self.reads),
            "writes": pairs(self.writes),
            "calls": sorted(self.calls),
            "thread_targets": sorted(self.thread_targets),
            "unresolved_calls": self.unresolved_calls,
            "transitive_reads": pairs(self.transitive_reads),
            "transitive_writes": pairs(self.transitive_writes),
        }


class _FunctionScanner(ast.NodeVisitor):
    """Walks one function body (lambdas included, nested defs excluded)."""

    def __init__(
        self,
        program: Program,
        info: FunctionInfo,
        env_chain: Sequence[Dict[str, Set[str]]],
        effects: FunctionEffects,
    ) -> None:
        self.program = program
        self.info = info
        self.effects = effects
        self.typer = ExprTyper(
            program, info.module, info.class_id, env_chain, info.local_names
        )

    # -- helpers -------------------------------------------------------- #

    def _record_attr_effect(
        self, node: ast.Attribute, *, write: bool
    ) -> None:
        owner_classes = self.typer.classes_of(node.value)
        for class_name in sorted(owner_classes):
            for cls in self.program.classes_named(class_name):
                if write:
                    self.effects.writes.add((class_name, node.attr))
                    continue
                if self.program.is_property(cls.class_id, node.attr):
                    # Reading a property is calling its getter.
                    method = self.program.find_method(cls.class_id, node.attr)
                    if method is not None:
                        self.effects.calls.add(method)
                    self.effects.reads.add((class_name, node.attr))
                elif node.attr in cls.declared_attrs or self._declared_anywhere(
                    cls.class_id, node.attr
                ):
                    self.effects.reads.add((class_name, node.attr))

    def _declared_anywhere(self, class_id: str, attr: str) -> bool:
        for cid in [class_id] + self.program.ancestors.get(class_id, []):
            info = self.program.classes.get(cid)
            if info is not None and attr in info.declared_attrs:
                return True
        return False

    def _write_target(self, target: ast.expr) -> None:
        """Record the write effects of one assignment target."""
        if isinstance(target, ast.Attribute):
            self._record_attr_effect(target, write=True)
        elif isinstance(target, ast.Subscript):
            # x.attr[k] = v mutates x.attr
            if isinstance(target.value, ast.Attribute):
                self._record_attr_effect(target.value, write=True)
            self.visit(target.slice)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._write_target(element)
        elif isinstance(target, ast.Starred):
            self._write_target(target.value)

    def _callable_ref_targets(self, node: ast.expr) -> Set[str]:
        """Resolve a bare callable reference (not a call)."""
        if isinstance(node, ast.Name):
            return {
                t
                for t in self.typer._resolve_name_callee(node.id)
                if not t.startswith("@class:")
            }
        if isinstance(node, ast.Attribute):
            targets: Set[str] = set()
            for class_name in self.typer.classes_of(node.value):
                for cls in self.program.classes_named(class_name):
                    targets |= self.program.dispatch_targets(
                        cls.class_id, node.attr
                    )
            return targets
        return set()

    # -- statements ----------------------------------------------------- #

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return None  # nested defs are separate functions

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return None

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        return None

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._write_target(target)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._write_target(node.target)
        if node.value is not None:
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Attribute):
            self._record_attr_effect(node.target, write=True)
            self._record_attr_effect(node.target, write=False)
        else:
            self._write_target(node.target)
        self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._write_target(target)

    # -- expressions ---------------------------------------------------- #

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self._record_attr_effect(node, write=False)
        else:
            self._record_attr_effect(node, write=True)
        self.visit(node.value)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = (
            _dotted_source(node.func)
            if isinstance(node.func, (ast.Name, ast.Attribute))
            else None
        )
        origin = self._import_origin(dotted)

        # threading.Thread(target=...) — a concurrency edge, not a call.
        # Process spawns (multiprocessing) share no memory, so they are
        # deliberately NOT thread edges: EF004 is about shared-memory
        # races, and a child process cannot race the parent's attributes.
        if origin == "threading.Thread":
            for keyword in node.keywords:
                if keyword.arg == "target":
                    self.effects.thread_targets |= self._callable_ref_targets(
                        keyword.value
                    )
        # functools.partial(f, ...) freezes a future call to f.
        elif origin in ("functools.partial", "functools.partialmethod"):
            if node.args:
                self.effects.calls |= self._callable_ref_targets(node.args[0])

        targets = self.typer.resolve_call_targets(node)
        real_targets = {t for t in targets if not t.startswith("@class:")}
        if real_targets:
            self.effects.calls |= real_targets
        elif not targets:
            # Unresolved — maybe a collection mutator on an attribute.
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in COLLECTION_MUTATORS
                and isinstance(func.value, ast.Attribute)
            ):
                self._record_attr_effect(func.value, write=True)
            elif isinstance(func, (ast.Name, ast.Attribute)):
                self.effects.unresolved_calls += 1

        # Receiver and argument sub-expressions still carry reads.
        if isinstance(node.func, ast.Attribute):
            self.visit(node.func.value)
        for arg in node.args:
            self.visit(arg)
        for keyword in node.keywords:
            self.visit(keyword.value)

    def _import_origin(self, dotted: Optional[str]) -> Optional[str]:
        if dotted is None:
            return None
        root, _, rest = dotted.partition(".")
        imports = self.program.imports.get(self.info.module, {})
        origin = imports.get(root, root)
        return f"{origin}.{rest}" if rest else origin


def _local_env(
    program: Program, info: FunctionInfo, outer: Sequence[Dict[str, Set[str]]]
) -> Dict[str, Set[str]]:
    """Flow-insensitive local type environment for one function."""
    env: Dict[str, Set[str]] = {}
    for param, annotation in info.param_annotations.items():
        classes = program.annotation_classes(annotation.strip("'\""))
        if classes:
            env[param] = classes

    # Nested function definitions are callable bindings.
    body = info.node.body  # type: ignore[attr-defined]
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested = f"{info.module}:{info.qualname}.<locals>.{stmt.name}"
            if nested in program.functions:
                env[f"@func:{stmt.name}"] = {nested}

    # Collect simple (name, value-expression) bindings: assignments, loop
    # targets, and comprehension generators.  Resolved over a few rounds
    # so chains like ``node = self.nodes[i]; gpu = node.gpus[j]`` settle.
    bindings: List[Tuple[str, ast.expr]] = []

    class _Collector(ast.NodeVisitor):
        def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
            return None

        def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
            return None

        def visit_ClassDef(self, node: ast.ClassDef) -> None:
            return None

        def visit_Assign(self, node: ast.Assign) -> None:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bindings.append((target.id, node.value))
            self.generic_visit(node)

        def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
            if isinstance(node.target, ast.Name):
                classes = program.annotation_classes(
                    ast.unparse(node.annotation)
                )
                if classes:
                    env.setdefault(node.target.id, set()).update(classes)
                if node.value is not None:
                    bindings.append((node.target.id, node.value))
            self.generic_visit(node)

        def visit_For(self, node: ast.For) -> None:
            if isinstance(node.target, ast.Name):
                bindings.append((node.target.id, node.iter))
            self.generic_visit(node)

        def _comprehension(self, generators: List[ast.comprehension]) -> None:
            for gen in generators:
                if isinstance(gen.target, ast.Name):
                    bindings.append((gen.target.id, gen.iter))

        def visit_ListComp(self, node: ast.ListComp) -> None:
            self._comprehension(node.generators)
            self.generic_visit(node)

        def visit_SetComp(self, node: ast.SetComp) -> None:
            self._comprehension(node.generators)
            self.generic_visit(node)

        def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
            self._comprehension(node.generators)
            self.generic_visit(node)

        def visit_DictComp(self, node: ast.DictComp) -> None:
            self._comprehension(node.generators)
            self.generic_visit(node)

        def visit_With(self, node: ast.With) -> None:
            for item in node.items:
                if isinstance(item.optional_vars, ast.Name):
                    bindings.append(
                        (item.optional_vars.id, item.context_expr)
                    )
            self.generic_visit(node)

    for stmt in body:
        _Collector().visit(stmt)

    chain = [env] + list(outer)
    typer = ExprTyper(program, info.module, info.class_id, chain, info.local_names)
    for _ in range(3):
        changed = False
        for name, expr in bindings:
            classes = typer.classes_of(expr)
            if classes and not classes <= env.get(name, set()):
                env.setdefault(name, set()).update(classes)
                changed = True
        if not changed:
            break
    return env


class EffectAnalysis:
    """Direct effect scan plus transitive closure over the call graph."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.effects: Dict[str, FunctionEffects] = {}
        self.callers: Dict[str, Set[str]] = {}
        self._envs: Dict[str, Dict[str, Set[str]]] = {}

    # ------------------------------------------------------------------ #
    # Construction

    def run(self) -> "EffectAnalysis":
        for func_id in sorted(self.program.functions):
            self._scan(func_id)
        self._build_reverse_edges()
        self._propagate()
        return self

    def _env_chain(self, func_id: str) -> List[Dict[str, Set[str]]]:
        """This function's env plus every enclosing function's (closures)."""
        info = self.program.functions[func_id]
        chain: List[Dict[str, Set[str]]] = []
        parts = info.qualname.split(".<locals>.")
        # Enclosing qualnames, nearest first: a.b.<locals>.c -> [a.b]
        enclosing = [
            f"{info.module}:" + ".<locals>.".join(parts[:i])
            for i in range(len(parts) - 1, 0, -1)
        ]
        outer: List[Dict[str, Set[str]]] = []
        for parent_id in enclosing:
            parent_env = self._envs.get(parent_id)
            if parent_env is None and parent_id in self.program.functions:
                parent_env = _local_env(
                    self.program, self.program.functions[parent_id], []
                )
                self._envs[parent_id] = parent_env
            if parent_env is not None:
                outer.append(parent_env)
        if func_id not in self._envs:
            self._envs[func_id] = _local_env(
                self.program, info, outer
            )
        chain = [self._envs[func_id]] + outer
        return chain

    def _scan(self, func_id: str) -> None:
        info = self.program.functions[func_id]
        effects = FunctionEffects(func_id=func_id)
        scanner = _FunctionScanner(
            self.program, info, self._env_chain(func_id), effects
        )
        for stmt in info.node.body:  # type: ignore[attr-defined]
            scanner.visit(stmt)
        effects.calls.discard(func_id)
        self.effects[func_id] = effects

    def _build_reverse_edges(self) -> None:
        for func_id in self.effects:
            self.callers.setdefault(func_id, set())
        for func_id, effects in self.effects.items():
            for callee in effects.calls:
                if callee in self.effects:
                    self.callers.setdefault(callee, set()).add(func_id)

    def _propagate(self) -> None:
        """Worklist fixpoint: effects flow from callee to caller."""
        for effects in self.effects.values():
            effects.transitive_reads = set(effects.reads)
            effects.transitive_writes = set(effects.writes)
        worklist = list(self.effects)
        queued = set(worklist)
        while worklist:
            func_id = worklist.pop()
            queued.discard(func_id)
            effects = self.effects[func_id]
            grown = False
            for callee in effects.calls:
                callee_effects = self.effects.get(callee)
                if callee_effects is None:
                    continue
                if not callee_effects.transitive_reads <= effects.transitive_reads:
                    effects.transitive_reads |= callee_effects.transitive_reads
                    grown = True
                if not callee_effects.transitive_writes <= effects.transitive_writes:
                    effects.transitive_writes |= callee_effects.transitive_writes
                    grown = True
            if grown:
                for caller in self.callers.get(func_id, ()):  # codalint: disable=CL003
                    if caller not in queued:
                        worklist.append(caller)
                        queued.add(caller)

    # ------------------------------------------------------------------ #
    # Graph queries

    def reachable_from(
        self, roots: Iterable[str], *, follow_threads: bool = False
    ) -> Set[str]:
        """Forward closure over call (and optionally thread) edges."""
        seen: Set[str] = set()
        frontier = [root for root in roots if root in self.effects]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            effects = self.effects[current]
            nexts = set(effects.calls)
            if follow_threads:
                nexts |= effects.thread_targets
            for callee in sorted(nexts):
                if callee in self.effects and callee not in seen:
                    frontier.append(callee)
        return seen

    def functions_reaching(self, target_ids: Iterable[str]) -> Set[str]:
        """Every function from which any of ``target_ids`` is reachable."""
        seen: Set[str] = set()
        frontier = [t for t in target_ids if t in self.effects]
        seen.update(frontier)
        while frontier:
            current = frontier.pop()
            for caller in sorted(self.callers.get(current, ())):
                if caller not in seen:
                    seen.add(caller)
                    frontier.append(caller)
        return seen

    def effects_table(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready per-function effect table (``--effects-dump``)."""
        return {
            func_id: self.effects[func_id].as_dict()
            for func_id in sorted(self.effects)
        }
