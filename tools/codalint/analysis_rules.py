"""EF001–EF004: contract checks over the interprocedural effect analysis.

Each rule consumes the whole-program :class:`~tools.codalint.effects.
EffectAnalysis` plus the declared :class:`~tools.codalint.contracts.
Contracts` and emits :class:`~tools.codalint.rules.Violation` records
anchored at the blamed function's ``def`` line (so the existing
``# codalint: disable=EFxxx`` suppression comments work unchanged).

Blame placement is deliberate.  EF001 blames the *direct writer* of a
tracked attribute, not every transitive caller: when ``Node.allocate``
forgets its ``bump()``, the fix belongs in ``Node.allocate``, and a
mutation that deletes one bump call must light up exactly one function.
For classes that have no path to the counter at all (``blame =
"caller"``, e.g. ``Gpu``), the class's own mutators are exempt and each
*direct caller* of a mutating method carries the obligation instead.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from tools.codalint.callgraph import Program, build_program
from tools.codalint.checker import _Suppressions
from tools.codalint.contracts import Contracts
from tools.codalint.effects import EffectAnalysis
from tools.codalint.rules import Violation

#: Attribute names that look like memoized state (EF002 detection).
CACHE_NAME_RE = re.compile(r"(^|_)(cache[sd]?|memo(ized|s)?)($|_)", re.I)

#: Decorators that create function-level caches (EF002 detection).
CACHE_DECORATORS = {
    "lru_cache",
    "functools.lru_cache",
    "cache",
    "functools.cache",
    "cached_property",
    "functools.cached_property",
}

_CONSTRUCTORS = ("__init__", "__post_init__", "__new__")


def _is_constructor_of(
    program: Program, func_id: str, class_name: str
) -> bool:
    info = program.functions[func_id]
    if info.name not in _CONSTRUCTORS or info.class_id is None:
        return False
    cls = program.classes.get(info.class_id)
    return cls is not None and cls.name == class_name


def _is_method_of(program: Program, func_id: str, class_name: str) -> bool:
    info = program.functions[func_id]
    if info.class_id is None:
        return False
    cls = program.classes.get(info.class_id)
    return cls is not None and cls.name == class_name


def _violation(
    program: Program, func_id: str, code: str, message: str
) -> Violation:
    info = program.functions[func_id]
    return Violation(
        path=str(info.path),
        line=info.lineno,
        col=0,
        code=code,
        message=message,
        symbol=func_id,
    )


def _resolve_all(
    program: Program, names: Iterable[str]
) -> Tuple[Set[str], List[str]]:
    """Resolve contract function references; collect unresolvable ones."""
    resolved: Set[str] = set()
    missing: List[str] = []
    for name in names:
        found = program.resolve_qualname(name)
        if found:
            resolved |= found
        else:
            missing.append(name)
    return resolved, missing


# --------------------------------------------------------------------- #
# EF001 — tracked writes must reach the invalidation hook


def check_ef001(
    program: Program, analysis: EffectAnalysis, contracts: Contracts
) -> List[Violation]:
    violations: List[Violation] = []
    hooks, missing = _resolve_all(program, contracts.hooks)
    for name in missing:
        violations.append(
            Violation(
                path=contracts.path or "contracts.toml",
                line=1,
                col=0,
                code="EF001",
                message=f"declared hook {name!r} not found in program",
            )
        )
    if not hooks:
        return violations
    reaching = analysis.functions_reaching(hooks)
    tracked = contracts.tracked_attrs()

    # Pass 1: writer-blame, and collect caller-blame mutators.
    caller_blamed: Dict[str, Set[str]] = {}  # mutator func -> attrs touched
    for func_id, effects in sorted(analysis.effects.items()):
        for class_name, attr in sorted(effects.writes):
            entry = tracked.get((class_name, attr))
            if entry is None:
                continue
            if _is_constructor_of(program, func_id, class_name):
                continue  # constructing the object that owns the counter
            if entry.blame == "caller":
                if _is_method_of(program, func_id, class_name):
                    caller_blamed.setdefault(func_id, set()).add(
                        f"{class_name}.{attr}"
                    )
                    continue
                # Writes from outside the class are ordinary writer-blame.
            if func_id not in reaching:
                violations.append(
                    _violation(
                        program,
                        func_id,
                        "EF001",
                        f"writes tracked state {class_name}.{attr} but "
                        "never (transitively) calls the invalidation "
                        f"hook ({', '.join(sorted(contracts.hooks))})",
                    )
                )

    # Pass 2: each direct caller of a caller-blame mutator must reach
    # the hook (unless it is itself a method of the same class, in which
    # case its own callers inherit the obligation via pass 2 again —
    # handled by walking up through same-class frames).
    seen: Set[Tuple[str, str]] = set()
    for mutator, attrs in sorted(caller_blamed.items()):
        class_name = mutator and attrs and sorted(attrs)[0].split(".")[0]
        frontier = sorted(analysis.callers.get(mutator, ()))
        visited: Set[str] = {mutator}
        while frontier:
            caller = frontier.pop()
            if caller in visited:
                continue
            visited.add(caller)
            if _is_method_of(program, caller, class_name) or (
                _is_constructor_of(program, caller, class_name)
            ):
                frontier.extend(sorted(analysis.callers.get(caller, ())))
                continue
            if caller in reaching:
                continue
            key = (caller, ",".join(sorted(attrs)))
            if key in seen:
                continue
            seen.add(key)
            violations.append(
                _violation(
                    program,
                    caller,
                    "EF001",
                    f"calls {program.functions[mutator].short_qualname} "
                    f"which mutates tracked state "
                    f"({', '.join(sorted(attrs))}) but never "
                    "(transitively) calls the invalidation hook "
                    f"({', '.join(sorted(contracts.hooks))})",
                )
            )
    return _root_cause_only(analysis, violations)


def _root_cause_only(
    analysis: EffectAnalysis, violations: List[Violation]
) -> List[Violation]:
    """Keep only root-cause EF001 findings.

    When ``Node.release`` loses its bump, ``Cluster.release`` (which
    writes ``_allocations`` and relied on that bump transitively) also
    stops reaching the hook.  Both findings are true, but the fix lives
    in one place; reporting the callee alone keeps the signal at one
    finding per missing bump (fixing it re-exposes any caller that is
    independently broken).  A caller's finding is dropped iff another
    flagged function is forward-reachable from it; cycles keep their
    lexicographically-first member so a mutually-recursive pair cannot
    suppress itself into silence.
    """
    flagged = {v.symbol for v in violations if v.symbol}
    if len(flagged) <= 1:
        return violations
    keep: List[Violation] = []
    for violation in violations:
        func_id = violation.symbol
        if not func_id:
            keep.append(violation)
            continue
        downstream = analysis.reachable_from([func_id]) - {func_id}
        culprits = downstream & flagged
        suppress = False
        for other in culprits:
            back = analysis.reachable_from([other])
            if func_id not in back or other < func_id:
                suppress = True
                break
        if not suppress:
            keep.append(violation)
    return keep


# --------------------------------------------------------------------- #
# EF002 — every detected cache needs a contract


def check_ef002(
    program: Program, analysis: EffectAnalysis, contracts: Contracts
) -> List[Violation]:
    violations: List[Violation] = []

    # Attribute caches: cache-looking attrs that something writes.
    first_writer: Dict[Tuple[str, str], str] = {}
    for func_id in sorted(analysis.effects):
        for pair in sorted(analysis.effects[func_id].writes):
            if CACHE_NAME_RE.search(pair[1]):
                first_writer.setdefault(pair, func_id)
    for (class_name, attr), func_id in sorted(first_writer.items()):
        if contracts.cache_declared(class_name, attr):
            continue
        violations.append(
            _violation(
                program,
                func_id,
                "EF002",
                f"memo/cache attribute {class_name}.{attr} has no "
                "[[cache]] contract in contracts.toml (declare owner, "
                "attr, and what invalidates it)",
            )
        )

    # Decorator caches: lru_cache / cache / cached_property functions.
    for func_id in sorted(program.functions):
        info = program.functions[func_id]
        decorated = set(info.decorators) & CACHE_DECORATORS
        if not decorated:
            continue
        if contracts.cache_function_declared(func_id):
            continue
        violations.append(
            _violation(
                program,
                func_id,
                "EF002",
                f"function {info.short_qualname} is cached via "
                f"@{sorted(decorated)[0]} but has no [[cache]] contract "
                "in contracts.toml",
            )
        )
    return violations


# --------------------------------------------------------------------- #
# EF003 — observer closure must not write read-only state


def check_ef003(
    program: Program, analysis: EffectAnalysis, contracts: Contracts
) -> List[Violation]:
    violations: List[Violation] = []
    roots, missing = _resolve_all(program, contracts.observer_roots)
    for name in missing:
        violations.append(
            Violation(
                path=contracts.path or "contracts.toml",
                line=1,
                col=0,
                code="EF003",
                message=f"declared observer root {name!r} not found",
            )
        )
    readonly = _readonly_across_hierarchy(program, contracts)
    if not roots or not readonly:
        return violations
    root_names = sorted(
        program.functions[r].short_qualname for r in roots
    )
    for func_id in sorted(analysis.reachable_from(roots)):
        effects = analysis.effects[func_id]
        for class_name, attr in sorted(effects.writes):
            declared_on = readonly.get((class_name, attr))
            if declared_on is None:
                continue
            where = "" if declared_on == class_name else f" on {declared_on}"
            violations.append(
                _violation(
                    program,
                    func_id,
                    "EF003",
                    f"writes {class_name}.{attr} (declared read-only for "
                    f"observers{where}) while reachable from observer "
                    f"root(s) {', '.join(root_names)}",
                )
            )
    return violations


def _readonly_across_hierarchy(
    program: Program, contracts: Contracts
) -> Dict[Tuple[str, str], str]:
    """(class, attr) -> declaring class, for every write EF003 forbids.

    An entry on class C also covers writes through receivers typed as
    C's ancestors or descendants, since either may be the very object
    the entry protects: a write typed ``_RunningCpu.speed`` writes the
    field a ``_Running`` entry declares.
    """
    declared = sorted(contracts.readonly_attrs())
    table = {(class_name, attr): class_name for class_name, attr in declared}
    for class_name, attr in declared:
        for info in program.classes_named(class_name):
            kin = program.ancestors.get(info.class_id, []) + sorted(
                program.descendants.get(info.class_id, ())
            )
            for related in kin:
                table.setdefault((program.classes[related].name, attr), class_name)
    return table


# --------------------------------------------------------------------- #
# EF004 — cross-thread shared attrs need declared ownership


def check_ef004(
    program: Program, analysis: EffectAnalysis, contracts: Contracts
) -> List[Violation]:
    violations: List[Violation] = []
    declared = contracts.shared_attrs()
    for spawner_id in sorted(analysis.effects):
        spawner = analysis.effects[spawner_id]
        if not spawner.thread_targets:
            continue
        closure = analysis.reachable_from(spawner.thread_targets)
        thread_writes: Set[Tuple[str, str]] = set()
        for func_id in closure:
            thread_writes |= analysis.effects[func_id].writes
        if not thread_writes:
            continue
        # Attributes the rest of the program (outside the thread body)
        # also touches are shared mutable state.
        shared_hits: Dict[Tuple[str, str], str] = {}
        for func_id, effects in analysis.effects.items():
            if func_id in closure:
                continue
            touched = (effects.reads | effects.writes) & thread_writes
            for pair in touched:
                shared_hits.setdefault(pair, func_id)
        targets = sorted(
            program.functions[t].short_qualname
            for t in spawner.thread_targets
            if t in program.functions
        )
        for pair, other in sorted(shared_hits.items()):
            if pair in declared:
                continue
            class_name, attr = pair
            violations.append(
                _violation(
                    program,
                    spawner_id,
                    "EF004",
                    f"{class_name}.{attr} is written by thread target "
                    f"{', '.join(targets)} and touched by "
                    f"{program.functions[other].short_qualname} on "
                    "another thread, but has no [[shared]] ownership "
                    "entry in contracts.toml",
                )
            )
    return violations


# --------------------------------------------------------------------- #
# Driver

_CHECKS = {
    "EF001": check_ef001,
    "EF002": check_ef002,
    "EF003": check_ef003,
    "EF004": check_ef004,
}


def _apply_suppressions(
    violations: List[Violation],
) -> List[Violation]:
    """Honour ``# codalint: disable=EFxxx`` comments at the def line."""
    sources: Dict[str, Optional[_Suppressions]] = {}
    kept: List[Violation] = []
    for violation in violations:
        if violation.path not in sources:
            try:
                text = Path(violation.path).read_text(encoding="utf-8")
                sources[violation.path] = _Suppressions(text)
            except OSError:
                sources[violation.path] = None
        suppressions = sources[violation.path]
        if suppressions is not None and suppressions.active(
            violation.line, violation.code
        ):
            continue
        kept.append(violation)
    return kept


def analyze_paths(
    paths: Sequence[object],
    contracts: Contracts,
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> Tuple[List[Violation], EffectAnalysis]:
    """Run the effect analysis and all EF rules over ``paths``."""
    program = build_program(paths)
    analysis = EffectAnalysis(program).run()
    selected = {code.upper() for code in select} if select else None
    ignored = {code.upper() for code in ignore} if ignore else set()
    violations: List[Violation] = []
    for code, check in _CHECKS.items():
        if selected is not None and code not in selected:
            continue
        if code in ignored:
            continue
        violations.extend(check(program, analysis, contracts))
    violations = _apply_suppressions(violations)
    violations.sort(key=lambda v: (v.path, v.line, v.code, v.message))
    return violations, analysis


def effects_dump(analysis: EffectAnalysis) -> Dict[str, Dict[str, object]]:
    """Per-function effect table for ``--effects-dump`` (JSON-ready)."""
    return analysis.effects_table()


__all__ = [
    "analyze_paths",
    "check_ef001",
    "check_ef002",
    "check_ef003",
    "check_ef004",
    "effects_dump",
    "CACHE_DECORATORS",
    "CACHE_NAME_RE",
]
