"""The AST walk behind codalint.

One :class:`_FileChecker` per file, two passes:

1. a symbol pass records import aliases plus every name/attribute the file
   annotates or assigns as a ``set`` (for CL003) or annotates as ``int``
   (for CL006);
2. a rule pass walks the tree and emits :class:`~tools.codalint.rules.Violation`
   records.

Set symbols are keyed by spelling file-wide (``node_ids``,
``self._seen``).  An int symbol spelled as a bare name is keyed by its
enclosing function too, since a bare name is local to it: a parameter
``iterations: int`` says nothing about another function's
``iterations``.  Attribute spellings (``self.used``) stay file-wide, as
every method of a class shares them.  Beyond that the keys are not
scope-aware: a closure's ``nonlocal`` write is keyed to the inner
function and goes unchecked, and a set spelling reused for a list in
another function is a false positive; ``# codalint: disable=...``
covers those.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from tools.codalint.rules import KNOWN_RULES_BY_CODE, Violation

#: time-module members that read the host clock.
_TIME_FNS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
    "localtime",
    "gmtime",
    "ctime",
    "asctime",
}

#: datetime members (on the class, not the module) that read the host clock.
_DATETIME_FNS = {
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
}

#: random.Random methods/functions that are fine *only* on a seeded stream;
#: called on the module they draw from the process-global generator.
_RANDOM_SAFE = {"Random", "SystemRandom"}

#: builtins whose result does not depend on iteration order, so a set
#: argument (or a generator over a set) is harmless.
_ORDER_INSENSITIVE = {
    "sorted",
    "len",
    "sum",
    "min",
    "max",
    "any",
    "all",
    "set",
    "frozenset",
}

#: builtins that freeze iteration order into a sequence.
_ORDER_FREEZING = {"list", "tuple"}

_SET_ANNOTATION = re.compile(
    r"^(typing\.)?(Set|FrozenSet|MutableSet|AbstractSet)\[|^(set|frozenset)(\[|$)"
)

_LINE_DISABLE = re.compile(r"#\s*codalint:\s*disable=([A-Za-z0-9_,\s]+)")
_FILE_DISABLE = re.compile(r"#\s*codalint:\s*disable-file=([A-Za-z0-9_,\s]+)")

_MUTABLE_FACTORIES = {"list", "dict", "set", "defaultdict", "OrderedDict", "Counter"}


def _parse_codes(raw: str) -> Set[str]:
    return {part.strip().upper() for part in raw.split(",") if part.strip()}


class _Suppressions:
    """Per-line and per-file ``# codalint: disable`` comments."""

    def __init__(self, source: str) -> None:
        self._by_line: Dict[int, Set[str]] = {}
        self._file_wide: Set[str] = set()
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _LINE_DISABLE.search(line)
            if match:
                self._by_line[lineno] = _parse_codes(match.group(1))
            match = _FILE_DISABLE.search(line)
            if match:
                self._file_wide |= _parse_codes(match.group(1))

    def active(self, line: int, code: str) -> bool:
        for codes in (self._file_wide, self._by_line.get(line, set())):
            if "ALL" in codes or code in codes:
                return True
        return False


#: An int symbol: (id of the enclosing function node, or 0 at module
#: level and for attribute spellings; the spelling).
_IntKey = Tuple[int, str]


class _ScopedVisitor(ast.NodeVisitor):
    """Tracks the innermost enclosing function, to key int symbols."""

    def __init__(self) -> None:
        self._function: Optional[ast.AST] = None

    def _visit_function(self, node: ast.AST) -> None:
        outer, self._function = self._function, node
        self.generic_visit(node)
        self._function = outer

    def _int_key(self, target: ast.expr, spelling: str) -> _IntKey:
        local = isinstance(target, ast.Name) and self._function is not None
        return (id(self._function) if local else 0), spelling


class _SymbolPass(_ScopedVisitor):
    """Collects import aliases and set-/int-typed symbol spellings."""

    def __init__(self) -> None:
        super().__init__()
        #: local name -> dotted module path, e.g. {"dt": "datetime"}.
        self.module_aliases: Dict[str, str] = {}
        #: local name -> dotted origin, e.g. {"choice": "random.choice"}.
        self.from_imports: Dict[str, str] = {}
        self.set_symbols: Set[str] = set()
        self.int_symbols: Set[_IntKey] = set()
        #: names bound to multiprocessing Process/Pool objects (CL007).
        self.process_symbols: Set[str] = set()

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                self.from_imports[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        self.generic_visit(node)

    # -- annotations --------------------------------------------------- #

    def _record_annotation(self, target: ast.expr, annotation: ast.expr) -> None:
        key = _symbol_key(target)
        if key is None:
            return
        try:
            ann = ast.unparse(annotation)
        except Exception:  # pragma: no cover  # codalint: disable=CL004
            # ast.unparse is total on parser output; this guard only keeps
            # a hypothetical malformed annotation from killing the lint run.
            return
        if _SET_ANNOTATION.match(ann):
            self.set_symbols.add(key)
        elif ann == "int":
            self.int_symbols.add(self._int_key(target, key))

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record_annotation(node.target, node.annotation)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_arg(self, node: ast.arg) -> None:
        if node.annotation is not None:
            self._record_annotation(ast.Name(id=node.arg), node.annotation)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_set_literalish(node.value):
            for target in node.targets:
                key = _symbol_key(target)
                if key is not None:
                    self.set_symbols.add(key)
        if self._is_process_factory(node.value):
            for target in node.targets:
                key = _symbol_key(target)
                if key is not None:
                    self.process_symbols.add(key)
        self.generic_visit(node)

    def _is_process_factory(self, node: ast.expr) -> bool:
        """Whether the expression constructs a multiprocessing worker.

        Matches ``Process(...)``/``Pool(...)`` by name (covering context
        objects like ``ctx.Process``) and anything whose resolved dotted
        origin mentions ``multiprocessing``.
        """
        if not isinstance(node, ast.Call):
            return False
        dotted = _dotted(node.func)
        if dotted is None:
            return False
        last = dotted.rsplit(".", 1)[-1]
        if last in {"Process", "Pool"}:
            return True
        root = dotted.split(".", 1)[0]
        origin = self.from_imports.get(root, self.module_aliases.get(root, ""))
        return "multiprocessing" in origin


def _symbol_key(node: ast.expr) -> Optional[str]:
    """Spelling key for a Name or a ``self.x``-style attribute."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return f"{node.value.id}.{node.attr}"
    return None


def _is_set_literalish(node: ast.expr) -> bool:
    """Syntactically-obvious set expressions (no symbol table needed)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    ):
        return True
    return False


def _dotted(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for an attribute chain rooted at a Name, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class _RulePass(_ScopedVisitor):
    def __init__(self, path: str, symbols: _SymbolPass) -> None:
        super().__init__()
        self.path = path
        self.symbols = symbols
        self.violations: List[Violation] = []
        #: comprehension nodes exempt from CL003 because they feed an
        #: order-insensitive consumer like sorted().
        self._exempt: Set[int] = set()

    def _violate(self, node: ast.AST, code: str, message: str) -> None:
        self.violations.append(
            Violation(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                code=code,
                message=message,
            )
        )

    # -- set-ness ------------------------------------------------------- #

    def _is_set_expr(self, node: ast.expr) -> bool:
        if _is_set_literalish(node):
            return True
        key = _symbol_key(node)
        if key is not None and key in self.symbols.set_symbols:
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in {
                "union",
                "intersection",
                "difference",
                "symmetric_difference",
            } and self._is_set_expr(node.func.value):
                return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    # -- CL001 / CL002 -------------------------------------------------- #

    def visit_Call(self, node: ast.Call) -> None:
        self._check_clock_and_random(node)
        self._check_order_sensitive_consumers(node)
        self._check_unbounded_join(node)
        self.generic_visit(node)

    def _resolve_call(self, node: ast.Call) -> Optional[str]:
        """Dotted origin of the callee, through import aliases."""
        if isinstance(node.func, ast.Name):
            return self.symbols.from_imports.get(node.func.id)
        dotted = _dotted(node.func)
        if dotted is None:
            return None
        root, _, rest = dotted.partition(".")
        origin = self.symbols.from_imports.get(
            root, self.symbols.module_aliases.get(root, root)
        )
        return f"{origin}.{rest}" if rest else origin

    def _check_clock_and_random(self, node: ast.Call) -> None:
        resolved = self._resolve_call(node)
        if resolved is None:
            return
        module, _, member = resolved.rpartition(".")
        if module == "time" and member in _TIME_FNS:
            self._violate(
                node,
                "CL001",
                f"call to wall-clock source time.{member}(); simulation "
                "code must read the engine's time",
            )
        if (
            resolved.startswith("datetime.")
            and resolved[len("datetime."):] in _DATETIME_FNS
        ):
            self._violate(
                node,
                "CL001",
                f"call to wall-clock source {resolved}(); simulation code "
                "must read the engine's time",
            )
        if module == "random" or module.endswith(".random"):
            if member in _RANDOM_SAFE:
                if not node.args and not node.keywords:
                    self._violate(
                        node,
                        "CL002",
                        f"{member}() without a seed falls back to OS "
                        "entropy; pass a seed derived from "
                        "repro.sim.rng.derive_seed",
                    )
            else:
                self._violate(
                    node,
                    "CL002",
                    f"process-global randomness random.{member}(); draw "
                    "from a named repro.sim.rng.RngRegistry stream",
                )

    # -- CL007 ---------------------------------------------------------- #

    def _check_unbounded_join(self, node: ast.Call) -> None:
        if not (
            isinstance(node.func, ast.Attribute) and node.func.attr == "join"
        ):
            return
        key = _symbol_key(node.func.value)
        if key is None or key not in self.symbols.process_symbols:
            return
        if node.args:
            return  # join(5.0) — positional timeout
        if any(kw.arg == "timeout" for kw in node.keywords):
            return
        self._violate(
            node,
            "CL007",
            f"{key}.join() without a timeout can block the supervisor "
            "forever on a hung or half-dead worker; pass timeout= and "
            "handle the still-alive case",
        )

    # -- CL003 ---------------------------------------------------------- #

    def _check_order_sensitive_consumers(self, node: ast.Call) -> None:
        func_name = node.func.id if isinstance(node.func, ast.Name) else None
        if func_name in _ORDER_INSENSITIVE:
            for arg in node.args:
                if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                    self._exempt.add(id(arg))
            return
        if func_name in _ORDER_FREEZING:
            for arg in node.args:
                if self._is_set_expr(arg):
                    self._violate(
                        arg,
                        "CL003",
                        f"{func_name}() over a set freezes salted hash "
                        "order; use sorted(...) instead",
                    )
        elif isinstance(node.func, ast.Attribute) and node.func.attr == "join":
            for arg in node.args:
                if self._is_set_expr(arg):
                    self._violate(
                        arg,
                        "CL003",
                        "join() over a set depends on salted hash order; "
                        "use sorted(...) instead",
                    )

    def visit_For(self, node: ast.For) -> None:
        if self._is_set_expr(node.iter):
            self._violate(
                node.iter,
                "CL003",
                "iteration over an unordered set; iterate sorted(...) so "
                "downstream scheduling and tie-breaking stay deterministic",
            )
        self.generic_visit(node)

    def _check_comprehension(self, node: ast.AST) -> None:
        if id(node) in self._exempt or isinstance(node, ast.SetComp):
            return
        for gen in node.generators:  # type: ignore[attr-defined]
            if self._is_set_expr(gen.iter):
                self._violate(
                    gen.iter,
                    "CL003",
                    "comprehension over an unordered set; iterate "
                    "sorted(...) instead",
                )

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comprehension(node)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehension(node)
        self.generic_visit(node)

    # -- CL004 ---------------------------------------------------------- #

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        broad = self._broad_exception_name(node.type)
        if node.type is None:
            self._violate(
                node, "CL004", "bare except: catches everything including "
                "the simulator's own bookkeeping guards; name the "
                "exception types you can actually handle"
            )
        elif broad is not None:
            self._violate(
                node,
                "CL004",
                f"overly-broad except {broad}:; catch the narrow exception "
                "types this block can actually handle",
            )
        self.generic_visit(node)

    @staticmethod
    def _broad_exception_name(node: Optional[ast.expr]) -> Optional[str]:
        if isinstance(node, ast.Name) and node.id in {"Exception", "BaseException"}:
            return node.id
        if isinstance(node, ast.Tuple):
            for element in node.elts:
                if isinstance(element, ast.Name) and element.id in {
                    "Exception",
                    "BaseException",
                }:
                    return element.id
        return None

    # -- CL005 ---------------------------------------------------------- #

    def _check_defaults(self, node: ast.AST) -> None:
        args = node.args  # type: ignore[attr-defined]
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            if self._is_mutable_default(default):
                self._violate(
                    default,
                    "CL005",
                    "mutable default argument is shared across calls; "
                    "default to None and build inside the function",
                )

    @staticmethod
    def _is_mutable_default(node: ast.expr) -> bool:
        if isinstance(
            node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
        ):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in _MUTABLE_FACTORIES:
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTABLE_FACTORIES
            ):
                return True
        return False

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self._visit_function(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # -- CL006 ---------------------------------------------------------- #

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.op, (ast.Add, ast.Sub)):
            key = _symbol_key(node.target)
            if (
                key is not None
                and self._int_key(node.target, key) in self.symbols.int_symbols
                and self._is_floatish(node.value)
            ):
                self._violate(
                    node,
                    "CL006",
                    f"float-valued accumulation into int counter {key!r}; "
                    "integer resource counters must stay exact",
                )
        self.generic_visit(node)

    @staticmethod
    def _is_floatish(node: ast.expr) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
                return True
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div):
                return True
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "float"
            ):
                return True
        return False


def check_source(source: str, path: str = "<string>") -> List[Violation]:
    """Lint one unit of python source, honouring suppression comments."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            Violation(
                path=path,
                line=error.lineno or 1,
                col=error.offset or 0,
                code="CL000",
                message=f"syntax error: {error.msg}",
            )
        ]
    symbols = _SymbolPass()
    symbols.visit(tree)
    rules = _RulePass(path, symbols)
    rules.visit(tree)
    suppressions = _Suppressions(source)
    kept = [
        violation
        for violation in rules.violations
        if not suppressions.active(violation.line, violation.code)
    ]
    kept.sort(key=lambda v: (v.line, v.col, v.code))
    return kept


def check_file(path: Path) -> List[Violation]:
    return check_source(path.read_text(encoding="utf-8"), str(path))


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    return files


def check_paths(
    paths: Sequence[Path],
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Lint every ``.py`` file under ``paths`` with optional code filters."""
    selected = {code.upper() for code in select} if select else None
    ignored = {code.upper() for code in ignore} if ignore else set()
    unknown = (selected or set()) | ignored
    unknown -= set(KNOWN_RULES_BY_CODE) | {"CL000"}
    if unknown:
        raise ValueError(f"unknown rule codes: {', '.join(sorted(unknown))}")
    violations: List[Violation] = []
    for file_path in iter_python_files(paths):
        for violation in check_file(file_path):
            if violation.code == "CL000":
                violations.append(violation)
                continue
            if selected is not None and violation.code not in selected:
                continue
            if violation.code in ignored:
                continue
            violations.append(violation)
    return violations
