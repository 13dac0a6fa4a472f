"""Rule registry and the violation record.

Every rule has a stable code (``CLxxx``), a one-line summary, and a longer
rationale rendered by ``--list-rules`` and mirrored in
``docs/static-analysis.md``.  The checker in :mod:`tools.codalint.checker`
emits :class:`Violation` records tagged with these codes; suppression
comments (``# codalint: disable=CL001`` or ``disable=all``) are matched
against them by code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class Rule:
    """One lint rule: a stable code plus human-readable documentation."""

    code: str
    summary: str
    rationale: str


@dataclass(frozen=True)
class Violation:
    """One finding: where, which rule, and what exactly was seen.

    ``symbol`` is filled by the effect analysis (EFxxx) with the blamed
    function's ``module:qualname`` so tooling can key findings to a
    function rather than a line; the CLxxx passes leave it empty.
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    symbol: str = ""

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def as_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }
        if self.symbol:
            record["symbol"] = self.symbol
        return record


ALL_RULES: Tuple[Rule, ...] = (
    Rule(
        code="CL001",
        summary="wall-clock time source",
        rationale=(
            "time.time()/datetime.now() and friends read the host clock; "
            "simulation code must read time from the engine (engine.now) so a "
            "replayed run is bit-identical regardless of the machine."
        ),
    ),
    Rule(
        code="CL002",
        summary="unseeded process-global randomness",
        rationale=(
            "random.random()/choice()/... draw from the interpreter-global "
            "generator whose state any import can perturb; all randomness "
            "must come from named repro.sim.rng.RngRegistry streams (or an "
            "explicitly seeded random.Random(seed))."
        ),
    ),
    Rule(
        code="CL003",
        summary="iteration over an unordered set",
        rationale=(
            "Set iteration order depends on per-process string-hash "
            "salting; feeding it into event scheduling or tie-breaking "
            "makes runs irreproducible.  Iterate sorted(the_set) instead "
            "(dicts are insertion-ordered and exempt)."
        ),
    ),
    Rule(
        code="CL004",
        summary="bare or overly-broad except clause",
        rationale=(
            "except:/except Exception: swallows the guarded resource "
            "errors (over-allocation, double release) this simulator "
            "raises on purpose; catch the narrow types you can handle."
        ),
    ),
    Rule(
        code="CL005",
        summary="mutable default argument",
        rationale=(
            "A list/dict/set default is evaluated once and shared across "
            "every call, silently coupling unrelated invocations; default "
            "to None (or a dataclass default_factory)."
        ),
    ),
    Rule(
        code="CL006",
        summary="float accumulation into an integer resource counter",
        rationale=(
            "Augmenting an int-annotated counter with a float-valued "
            "expression rebinds it to float; core/GPU counters must stay "
            "exact integers or conservation checks start failing on "
            "epsilon drift."
        ),
    ),
    Rule(
        code="CL007",
        summary="multiprocessing join without a timeout",
        rationale=(
            "Process.join()/Pool.join() with no timeout blocks forever "
            "when the child hangs or dies mid-handshake — precisely the "
            "failures the sweep supervisor exists to contain; pass an "
            "explicit timeout and handle the still-alive case."
        ),
    ),
)

#: Interprocedural effect-analysis rules (``--analyze``).  Kept separate
#: from :data:`ALL_RULES` because they are not per-file AST passes — they
#: need the whole-program call graph from :mod:`tools.codalint.effects`.
EFFECT_RULES: Tuple[Rule, ...] = (
    Rule(
        code="EF001",
        summary="generation-tracked state mutated without invalidation",
        rationale=(
            "Writing a tracked attribute (Node capacity fields, Cluster "
            "allocation maps, Gpu ownership) without transitively calling "
            "the declared generation.bump() hook leaves memoized snapshots "
            "(FreeState.of, best-fit orderings) stale, silently forking "
            "simulation results.  Declared in contracts.toml [[tracked]]."
        ),
    ),
    Rule(
        code="EF002",
        summary="memo/cache attribute without a registered contract",
        rationale=(
            "Every cache-looking attribute (*_cache, *memo*) or lru_cache "
            "function must carry a [[cache]] entry in contracts.toml "
            "documenting what invalidates it; an undeclared cache is an "
            "undeclared staleness bug waiting for the incremental-"
            "scheduler refactor."
        ),
    ),
    Rule(
        code="EF003",
        summary="observer writes sim state declared read-only",
        rationale=(
            "Functions reachable from Engine.run observer hooks (auditor, "
            "profiler, metrics) must stay effect-free on simulation state: "
            "an observer that mutates cluster state makes --audit runs "
            "diverge from unaudited ones.  Read-only attribute sets are "
            "declared in contracts.toml [[readonly]]."
        ),
    ),
    Rule(
        code="EF004",
        summary="cross-thread shared attribute without declared ownership",
        rationale=(
            "An attribute written inside a threading.Thread(target=...) "
            "body and touched by code outside it is shared mutable state; "
            "it must appear in contracts.toml [[shared]] with its lock or "
            "ownership story, or the heartbeat/main-thread split in the "
            "sweep supervisor rots into a data race."
        ),
    ),
)

RULES_BY_CODE: Dict[str, Rule] = {rule.code: rule for rule in ALL_RULES}

#: Every rule either front end can select/suppress, keyed by code.
ALL_KNOWN_RULES: Tuple[Rule, ...] = ALL_RULES + EFFECT_RULES
KNOWN_RULES_BY_CODE: Dict[str, Rule] = {
    rule.code: rule for rule in ALL_KNOWN_RULES
}
