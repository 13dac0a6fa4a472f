"""Surface guard: every public function, method and class in ``src/repro``
has a caller outside the tests.

A name counts as used when it appears, other than at its own definitions,
in the program (``src/``, ``tools/``, ``perfbench/``, ``examples/``,
``benchmarks/``) or in a user-facing document.  An import or an
``__all__`` entry re-exports a name without using it, so neither counts.
The change log and the roadmap narrate changes rather than show usage,
so they are not searched.

The scan is by name, not by binding: a method shares its name with every
other definition and use of that name.  It errs towards calling a name
used, so a failure here is a real orphan: delete it (with the tests that
only it kept alive), or put it on :data:`ALLOWED` with the reason it
stays.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
PROGRAM_DIRS = ("src", "tools", "perfbench", "examples", "benchmarks")
#: The documents a reader learns the API from.
DOCUMENTS = (
    "README.md",
    "DESIGN.md",
    "CONTRIBUTING.md",
    "EXPERIMENTS.md",
    "PAPER.md",
    "PAPERS.md",
    "SNIPPETS.md",
)

#: Names kept without a caller outside the tests, each with its reason.
ALLOWED: Dict[str, str] = {
    "peek_time": (
        "the one read of the next live event's time: checkpoint tests step "
        "a run to a kill point without firing past its horizon, and "
        "Engine.run(until=...) cannot stop there, since it moves the clock "
        "to the horizon"
    ),
}

WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _definitions(tree: ast.Module) -> Iterator[Tuple[str, str]]:
    """``(qualified, name)`` for each public module-level function or
    class and each public method or nested class of a class."""

    def walk(body: List[ast.stmt], prefix: str) -> Iterator[Tuple[str, str]]:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    yield f"{prefix}{node.name}", node.name
                if isinstance(node, ast.ClassDef):
                    yield from walk(node.body, f"{prefix}{node.name}.")

    yield from walk(tree.body, "")


def _exports(tree: ast.Module) -> Iterator[str]:
    """Names an import or an ``__all__`` entry mentions."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield from WORD.findall(alias.name)
                if alias.asname:
                    yield alias.asname
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            for element in ast.walk(node.value):
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    yield element.value


def _searched() -> Iterator[Path]:
    for name in PROGRAM_DIRS:
        directory = ROOT / name
        yield from sorted(directory.rglob("*.py"))
        yield from sorted(directory.rglob("*.md"))
    yield from sorted((ROOT / "docs").rglob("*.md"))
    for name in DOCUMENTS:
        yield ROOT / name


def orphans() -> List[str]:
    """Qualified names of public definitions nothing outside the tests
    mentions, sorted."""
    uses: Counter = Counter()
    defined: Dict[str, List[str]] = {}
    for path in _searched():
        text = path.read_text(encoding="utf-8")
        uses.update(WORD.findall(text))
        if path.suffix != ".py":
            continue
        tree = ast.parse(text, filename=str(path))
        uses.subtract(_exports(tree))
        if PACKAGE in path.parents:
            module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
            for qualified, name in _definitions(tree):
                uses[name] -= 1
                defined.setdefault(name, []).append(f"{module}.{qualified}")
    found: Set[str] = set()
    for name, sites in defined.items():
        if uses[name] <= 0:
            found.update(sites)
    return sorted(found)


@pytest.fixture(scope="module")
def found() -> List[str]:
    return orphans()


def test_every_public_definition_has_a_caller_outside_the_tests(found):
    unused = [site for site in found if site.rpartition(".")[2] not in ALLOWED]
    assert not unused, (
        "public definitions only tests reach (delete them, or add the name "
        "to ALLOWED with a reason):\n  " + "\n  ".join(unused)
    )


def test_every_allowed_name_is_still_defined_and_still_unused(found):
    still = {site.rpartition(".")[2] for site in found}
    stale = sorted(set(ALLOWED) - still)
    assert not stale, f"allowlist entries that no longer need it: {stale}"
