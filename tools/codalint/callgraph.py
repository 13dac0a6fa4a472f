"""Whole-program indexing and call-graph construction for codalint v2.

This module builds the *static program model* the effect analysis
(:mod:`tools.codalint.effects`) and the contract rules
(:mod:`tools.codalint.analysis_rules`) run on:

* every module under the analyzed roots is parsed once;
* every class and function (methods, nested functions, properties) gets a
  stable id — ``"repro.cluster.node:Node.allocate"`` — plus a short
  *qualname* (``"Node.allocate"``) used by contract files;
* per-class attribute types are inferred from annotations
  (``self.gpus: List[Gpu]``) and constructor assignments
  (``self.generation = GenerationCounter()``);
* :class:`ExprTyper` resolves the class candidates of an expression —
  ``self``, annotated parameters, locals bound to constructor calls,
  container elements, property and call return annotations — which is how
  a call like ``self.gpus[gpu_id].assign(job_id)`` lands on
  ``Gpu.assign``.

Dispatch is class-hierarchy based (CHA): a call through a base-class
receiver (``Scheduler``) resolves to every override in the hierarchy,
which is what makes the ``repro.schedulers`` registry indirection
(``build_scheduler`` returning any policy) analyzable.  The model is
deliberately flow- and path-insensitive: it over-approximates calls and
effects, which is the right direction for an invalidation-contract
checker — a missed edge can hide a bug, an extra edge only widens an
effect set.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import AbstractSet, Dict, Iterable, List, Optional, Sequence, Set, Tuple

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Container/collection methods that mutate the receiver in place.  A call
#: ``self._shares.pop(job_id)`` is a *write* to the ``_shares`` attribute
#: unless the receiver resolves to a class that defines the method itself.
COLLECTION_MUTATORS = {
    "append",
    "add",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "setdefault",
    "sort",
    "update",
    "appendleft",
}


@dataclass
class FunctionInfo:
    """One indexed function, method, or nested function."""

    func_id: str
    module: str
    qualname: str  # e.g. "Node.allocate" or "outer.<locals>.inner"
    name: str
    path: str
    lineno: int
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_id: Optional[str] = None
    decorators: List[str] = field(default_factory=list)
    is_property: bool = False
    #: Classes named in the return annotation (resolved lazily).
    return_classes: Set[str] = field(default_factory=set)
    #: Parameter name -> annotation source string.
    param_annotations: Dict[str, str] = field(default_factory=dict)
    #: Every parameter and every name the body binds (nested scopes
    #: aside): a bare-name call to one of them is not a method call.
    local_names: Set[str] = field(default_factory=set)

    @property
    def short_qualname(self) -> str:
        """``Class.method`` / ``function`` — the contract-file spelling."""
        return self.qualname


@dataclass
class ClassInfo:
    """One indexed class."""

    class_id: str
    module: str
    name: str
    path: str
    lineno: int
    base_names: List[str] = field(default_factory=list)
    #: Method name -> func id (own definitions only).
    methods: Dict[str, str] = field(default_factory=dict)
    properties: Set[str] = field(default_factory=set)
    #: Attribute name -> candidate class names (from annotations and
    #: constructor assignments anywhere in the class body).
    attr_classes: Dict[str, Set[str]] = field(default_factory=dict)
    #: Every attribute the class ever assigns on ``self`` or annotates.
    declared_attrs: Set[str] = field(default_factory=set)


class Program:
    """The fully-indexed program: modules, classes, functions, hierarchy."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: Bare class name -> every class id using it.
        self.class_names: Dict[str, List[str]] = {}
        #: module -> {local name -> dotted origin} for imports.
        self.imports: Dict[str, Dict[str, str]] = {}
        #: module -> {function name -> func id} (top level only).
        self.module_functions: Dict[str, Dict[str, str]] = {}
        #: module -> {class name -> class id} (top level only).
        self.module_classes: Dict[str, Dict[str, str]] = {}
        #: module -> source path.
        self.module_paths: Dict[str, str] = {}
        #: class id -> direct base class ids.
        self.bases: Dict[str, List[str]] = {}
        #: class id -> transitive subclass ids.
        self.descendants: Dict[str, Set[str]] = {}
        #: class id -> linearized ancestor ids (nearest first).
        self.ancestors: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------ #
    # Lookups

    def classes_named(self, name: str) -> List[ClassInfo]:
        return [self.classes[cid] for cid in self.class_names.get(name, ())]

    def mro_attr_classes(self, class_id: str, attr: str) -> Set[str]:
        """Attribute type candidates through the class and its ancestors."""
        for cid in [class_id] + self.ancestors.get(class_id, []):
            info = self.classes.get(cid)
            if info is not None and attr in info.attr_classes:
                return info.attr_classes[attr]
        return set()

    def find_method(self, class_id: str, name: str) -> Optional[str]:
        """Own or inherited definition of ``name``, nearest first."""
        for cid in [class_id] + self.ancestors.get(class_id, []):
            info = self.classes.get(cid)
            if info is not None and name in info.methods:
                return info.methods[name]
        return None

    def dispatch_targets(self, class_id: str, name: str) -> Set[str]:
        """CHA resolution: the inherited def plus every override below."""
        targets: Set[str] = set()
        inherited = self.find_method(class_id, name)
        if inherited is not None:
            targets.add(inherited)
        for sub in self.descendants.get(class_id, ()):  # codalint: disable=CL003
            info = self.classes.get(sub)
            if info is not None and name in info.methods:
                targets.add(info.methods[name])
        return targets

    def is_property(self, class_id: str, name: str) -> bool:
        for cid in [class_id] + self.ancestors.get(class_id, []):
            info = self.classes.get(cid)
            if info is not None and name in info.properties:
                return True
        return False

    def annotation_classes(self, annotation: str) -> Set[str]:
        """Known class names mentioned in an annotation source string."""
        found: Set[str] = set()
        for token in _IDENTIFIER.findall(annotation):
            if token in self.class_names:
                found.add(token)
        return found

    def resolve_qualname(self, pattern: str) -> Set[str]:
        """Function ids whose qualname matches ``pattern``.

        A pattern is either ``module:qualname`` (exact module) or a bare
        qualname like ``GenerationCounter.bump`` matched in any module.
        """
        if ":" in pattern:
            return {pattern} if pattern in self.functions else set()
        return {
            func_id
            for func_id, info in self.functions.items()
            if info.qualname == pattern
        }


# ---------------------------------------------------------------------- #
# Indexing


def _module_name(path: Path) -> str:
    """Dotted module name, walking up while ``__init__.py`` exists."""
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts)) or path.stem


def iter_source_files(paths: Sequence[object]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)  # type: ignore[arg-type]
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files


def _decorator_names(node: ast.AST) -> List[str]:
    names = []
    for dec in getattr(node, "decorator_list", []):
        target = dec.func if isinstance(dec, ast.Call) else dec
        names.append(_dotted_source(target) or "")
    return names


def _dotted_source(node: ast.expr) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _bound_names(node: ast.AST) -> Set[str]:
    """Names a function body binds: assignment, loop and ``with``
    targets, and nested ``def``/``class`` names, but nothing inside a
    nested function, class or lambda (their own scopes)."""
    names: Set[str] = set()
    stack = list(node.body)  # type: ignore[attr-defined]
    while stack:
        sub = stack.pop()
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(sub.name)
            continue
        if isinstance(sub, ast.Lambda):
            continue
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        stack.extend(ast.iter_child_nodes(sub))
    return names


def _ann_source(node: Optional[ast.expr]) -> str:
    if node is None:
        return ""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover  # codalint: disable=CL004
        # ast.unparse is total on parser output; belt and braces only.
        return ""


class _ModuleIndexer(ast.NodeVisitor):
    """First pass over one module: names, classes, functions, imports."""

    def __init__(self, program: Program, module: str, path: str) -> None:
        self.program = program
        self.module = module
        self.path = path
        self._class_stack: List[ClassInfo] = []
        self._func_stack: List[str] = []
        program.imports.setdefault(module, {})
        program.module_functions.setdefault(module, {})
        program.module_classes.setdefault(module, {})
        program.module_paths[module] = path

    # -- imports -------------------------------------------------------- #

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            self.program.imports[self.module][local] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:
            # Relative import: anchor at this module's package.
            package_parts = self.module.split(".")[: -node.level]
            base = ".".join(package_parts + ([node.module] if node.module else []))
        for alias in node.names:
            local = alias.asname or alias.name
            self.program.imports[self.module][local] = f"{base}.{alias.name}"

    # -- definitions ---------------------------------------------------- #

    def _qualname(self, name: str) -> str:
        parts: List[str] = []
        if self._func_stack:
            parts.append(self._func_stack[-1] + ".<locals>")
        elif self._class_stack:
            parts.append(self._class_stack[-1].name)
        parts.append(name)
        return ".".join(parts)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qualname = self._qualname(node.name)
        class_id = f"{self.module}:{qualname}"
        info = ClassInfo(
            class_id=class_id,
            module=self.module,
            name=node.name,
            path=self.path,
            lineno=node.lineno,
            base_names=[
                source
                for base in node.bases
                if (source := _dotted_source(base)) is not None
            ],
        )
        self.program.classes[class_id] = info
        self.program.class_names.setdefault(node.name, []).append(class_id)
        if not self._class_stack and not self._func_stack:
            self.program.module_classes[self.module][node.name] = class_id
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                info.declared_attrs.add(stmt.target.id)
                classes = self.program_annotation_placeholder(
                    _ann_source(stmt.annotation)
                )
                if classes:
                    info.attr_classes.setdefault(stmt.target.id, set()).update(
                        classes
                    )
        self._class_stack.append(info)
        saved_funcs, self._func_stack = self._func_stack, []
        self.generic_visit(node)
        self._func_stack = saved_funcs
        self._class_stack.pop()

    def program_annotation_placeholder(self, annotation: str) -> Set[str]:
        """Annotation class names are resolved after all modules index;
        stash the raw string for the second sweep."""
        return {f"@ann:{annotation}"} if annotation else set()

    def _visit_function(self, node: ast.AST) -> None:
        name = node.name  # type: ignore[attr-defined]
        qualname = self._qualname(name)
        func_id = f"{self.module}:{qualname}"
        in_class = bool(self._class_stack) and not self._func_stack
        decorators = _decorator_names(node)
        info = FunctionInfo(
            func_id=func_id,
            module=self.module,
            qualname=qualname,
            name=name,
            path=self.path,
            lineno=node.lineno,  # type: ignore[attr-defined]
            node=node,
            class_id=self._class_stack[-1].class_id if in_class else None,
            decorators=decorators,
        )
        returns = _ann_source(getattr(node, "returns", None)).strip("'\"")
        if returns:
            info.return_classes = {f"@ann:{returns}"}
        args = node.args  # type: ignore[attr-defined]
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            info.local_names.add(arg.arg)
            if arg.annotation is not None:
                info.param_annotations[arg.arg] = _ann_source(arg.annotation)
        info.local_names |= _bound_names(node)
        self.program.functions[func_id] = info
        if in_class:
            owner = self._class_stack[-1]
            owner.methods[name] = func_id
            is_prop = any(
                dec in ("property", "functools.cached_property", "cached_property")
                or dec.endswith(".setter")
                or dec.endswith(".getter")
                for dec in decorators
            )
            if is_prop:
                owner.properties.add(name)
                info.is_property = True
        elif not self._func_stack:
            self.program.module_functions[self.module][name] = func_id
        self._func_stack.append(qualname)
        self.generic_visit(node)
        self._func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)


def _link_hierarchy(program: Program) -> None:
    """Resolve base-class names and compute ancestors/descendants."""
    for class_id, info in program.classes.items():
        resolved: List[str] = []
        imports = program.imports.get(info.module, {})
        for base in info.base_names:
            name = base.split(".")[-1]
            origin = imports.get(base)
            candidates = program.class_names.get(name, [])
            if origin is not None:
                # "from x import C" — prefer the class defined in x.
                preferred = [
                    cid for cid in candidates if cid.startswith(origin.rsplit(".", 1)[0])
                ]
                candidates = preferred or candidates
            local = program.module_classes.get(info.module, {}).get(name)
            if local is not None:
                candidates = [local]
            resolved.extend(candidates)
        program.bases[class_id] = resolved
    # Ancestors: BFS up the (possibly multi-) inheritance chain.
    for class_id in program.classes:
        seen: List[str] = []
        frontier = list(program.bases.get(class_id, []))
        while frontier:
            current = frontier.pop(0)
            if current in seen or current == class_id:
                continue
            seen.append(current)
            frontier.extend(program.bases.get(current, []))
        program.ancestors[class_id] = seen
    # Descendants: invert.
    for class_id in program.classes:
        program.descendants.setdefault(class_id, set())
    for class_id, ancestors in program.ancestors.items():
        for ancestor in ancestors:
            program.descendants.setdefault(ancestor, set()).add(class_id)


def _resolve_annotation_placeholders(program: Program) -> None:
    """Second sweep: turn ``@ann:...`` placeholders into class-name sets."""
    for info in program.classes.values():
        for attr, classes in list(info.attr_classes.items()):
            info.attr_classes[attr] = _expand(program, classes)
    for func in program.functions.values():
        func.return_classes = _expand(program, func.return_classes)


def _expand(program: Program, classes: Set[str]) -> Set[str]:
    expanded: Set[str] = set()
    for entry in sorted(classes):
        if entry.startswith("@ann:"):
            expanded |= program.annotation_classes(entry[len("@ann:"):])
        else:
            expanded.add(entry)
    return expanded


def _collect_attr_types(program: Program) -> None:
    """Harvest ``self.x = Cls(...)`` / ``self.x: T`` from method bodies."""
    for func in program.functions.values():
        if func.class_id is None:
            continue
        owner = program.classes[func.class_id]
        imports = program.imports.get(func.module, {})
        for stmt in ast.walk(func.node):
            assign_targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                assign_targets, value = list(stmt.targets), stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                assign_targets, value = [stmt.target], stmt.value
                annotation = _ann_source(stmt.annotation)
            else:
                continue
            for target in assign_targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in ("self", "cls")
                ):
                    continue
                owner.declared_attrs.add(target.attr)
                classes: Set[str] = set()
                if isinstance(stmt, ast.AnnAssign):
                    classes |= program.annotation_classes(annotation)
                if isinstance(value, ast.Call):
                    callee = _dotted_source(value.func)
                    if callee is not None:
                        name = callee.split(".")[-1]
                        origin = imports.get(callee, callee)
                        if name in program.class_names or origin.split(".")[
                            -1
                        ] in program.class_names:
                            classes.add(name)
                elif isinstance(value, ast.Name):
                    # self.x = param, where param carries an annotation
                    # (the common dependency-injection constructor shape).
                    annotated = func.param_annotations.get(value.id)
                    if annotated is not None:
                        classes |= program.annotation_classes(
                            annotated.strip("'\"")
                        )
                if classes:
                    owner.attr_classes.setdefault(target.attr, set()).update(
                        classes
                    )


def build_program(paths: Sequence[Path]) -> Program:
    """Parse and index every python file under ``paths``."""
    program = Program()
    for path in iter_source_files(paths):
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        except SyntaxError:
            continue  # reported by the lint pass as CL000
        module = _module_name(path)
        _ModuleIndexer(program, module, str(path)).visit(tree)
    _link_hierarchy(program)
    _resolve_annotation_placeholders(program)
    _collect_attr_types(program)
    return program


# ---------------------------------------------------------------------- #
# Expression typing


class ExprTyper:
    """Best-effort class-candidate resolution for expressions.

    One instance per analyzed function; ``env`` chains map local names to
    candidate class-name sets (parameters, constructor-assigned locals,
    loop and comprehension targets), with enclosing-function environments
    visible to nested functions (closures).
    """

    _MAX_DEPTH = 8

    def __init__(
        self,
        program: Program,
        module: str,
        class_id: Optional[str],
        env_chain: Sequence[Dict[str, Set[str]]],
        local_names: AbstractSet[str] = frozenset(),
    ) -> None:
        self.program = program
        self.module = module
        self.class_id = class_id
        self.env_chain = list(env_chain)
        #: The analyzed function's parameters and locals.
        self.local_names = local_names

    def classes_of(self, node: ast.expr, depth: int = 0) -> Set[str]:
        """Candidate class *names* for the value of ``node``."""
        if depth > self._MAX_DEPTH:
            return set()
        program = self.program
        if isinstance(node, ast.Name):
            if node.id in ("self", "cls") and self.class_id is not None:
                return {program.classes[self.class_id].name}
            for env in self.env_chain:
                if node.id in env:
                    return env[node.id]
            if node.id in program.class_names:
                return set()  # a class object, not an instance
            return set()
        if isinstance(node, ast.Attribute):
            value_classes = self.classes_of(node.value, depth + 1)
            found: Set[str] = set()
            for class_name in value_classes:
                for info in program.classes_named(class_name):
                    found |= program.mro_attr_classes(info.class_id, node.attr)
                    if program.is_property(info.class_id, node.attr):
                        method = program.find_method(info.class_id, node.attr)
                        if method is not None:
                            found |= program.functions[method].return_classes
            return found
        if isinstance(node, ast.Subscript):
            # Element access on a typed container: the annotation's class
            # candidates double as the element candidates.
            return self.classes_of(node.value, depth + 1)
        if isinstance(node, ast.Call):
            return self.call_result_classes(node, depth)
        if isinstance(node, (ast.IfExp,)):
            return self.classes_of(node.body, depth + 1) | self.classes_of(
                node.orelse, depth + 1
            )
        if isinstance(node, ast.Await):
            return self.classes_of(node.value, depth + 1)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            merged: Set[str] = set()
            for element in node.elts:
                merged |= self.classes_of(element, depth + 1)
            return merged
        if isinstance(node, ast.ListComp):
            return self.classes_of(node.elt, depth + 1)
        return set()

    def call_result_classes(self, node: ast.Call, depth: int = 0) -> Set[str]:
        """Classes a call expression may evaluate to."""
        results: Set[str] = set()
        for func_id in self.resolve_call_targets(node, depth):
            if func_id.startswith("@class:"):
                results.add(func_id[len("@class:"):])
            else:
                info = self.program.functions.get(func_id)
                if info is not None:
                    if info.name == "__init__" and info.class_id is not None:
                        results.add(self.program.classes[info.class_id].name)
                    else:
                        results |= info.return_classes
        return results

    def resolve_call_targets(
        self, node: ast.Call, depth: int = 0
    ) -> Set[str]:
        """Function ids (or ``@class:Name`` for constructors) of a call."""
        program = self.program
        func = node.func
        if isinstance(func, ast.Name):
            return self._resolve_name_callee(func.id)
        if isinstance(func, ast.Attribute):
            # super().m(...)
            if (
                isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super"
                and self.class_id is not None
            ):
                for ancestor in program.ancestors.get(self.class_id, []):
                    info = program.classes.get(ancestor)
                    if info is not None and func.attr in info.methods:
                        return {info.methods[func.attr]}
                return set()
            # module.func(...) through an import alias
            dotted = _dotted_source(func)
            if dotted is not None:
                root = dotted.split(".")[0]
                imports = program.imports.get(self.module, {})
                if root in imports and not self._name_is_value(root):
                    origin = imports[root] + dotted[len(root):]
                    resolved = self._resolve_dotted_origin(origin)
                    if resolved:
                        return resolved
            # obj.m(...) through receiver types (CHA dispatch)
            receiver_classes = self.classes_of(func.value, depth + 1)
            targets: Set[str] = set()
            for class_name in receiver_classes:
                for info in program.classes_named(class_name):
                    targets |= program.dispatch_targets(info.class_id, func.attr)
            return targets
        return set()

    def _name_is_value(self, name: str) -> bool:
        for env in self.env_chain:
            if name in env:
                return True
        return False

    def _resolve_name_callee(self, name: str) -> Set[str]:
        program = self.program
        # Nested function / local binding shadowing? env holds *instances*,
        # not callables, so check definitions first.
        for env in self.env_chain:
            callee = env.get(f"@func:{name}")
            if callee:
                return callee
        local_func = program.module_functions.get(self.module, {}).get(name)
        if local_func is not None:
            return {local_func}
        local_class = program.module_classes.get(self.module, {}).get(name)
        if local_class is not None:
            return self._constructor_targets(local_class)
        origin = program.imports.get(self.module, {}).get(name)
        if origin is not None:
            resolved = self._resolve_dotted_origin(origin)
            if resolved:
                return resolved
        if name in program.class_names:
            merged: Set[str] = set()
            for cid in program.class_names[name]:
                merged |= self._constructor_targets(cid)
            return merged
        if self.class_id is not None and name not in self.local_names:
            # Unqualified reference to a method (rare; e.g. a callback
            # table built inside the class body).  A parameter or local
            # of the same name shadows it.
            method = program.find_method(self.class_id, name)
            if method is not None:
                return {method}
        return set()

    def _constructor_targets(self, class_id: str) -> Set[str]:
        program = self.program
        targets = {f"@class:{program.classes[class_id].name}"}
        for method in ("__init__", "__post_init__", "__new__"):
            func_id = program.find_method(class_id, method)
            if func_id is not None:
                targets.add(func_id)
        return targets

    def _resolve_dotted_origin(self, origin: str) -> Set[str]:
        """Resolve ``pkg.module.name`` to a function or constructor."""
        program = self.program
        module, _, name = origin.rpartition(".")
        if not name:
            return set()
        func = program.module_functions.get(module, {}).get(name)
        if func is not None:
            return {func}
        class_id = program.module_classes.get(module, {}).get(name)
        if class_id is not None:
            return self._constructor_targets(class_id)
        # "from pkg import module" followed by module.func — origin is
        # then pkg.module.func with module indexed under pkg.module.
        return set()
