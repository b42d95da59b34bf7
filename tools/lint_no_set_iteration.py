#!/usr/bin/env python3
"""AST lint: forbid iterating sets in the decision-path modules.

The simulator's reproducibility contract (ROADMAP, PR 2) is that no
scheduling/placement/replication decision may depend on ``set`` iteration
order, which varies with PYTHONHASHSEED for strings.  Decision-path
collections are insertion-ordered dicts-as-sets; ``sorted(...)`` over a
set is fine.  This lint enforces the rule mechanically for every module
under ``src/repro/{sim,net,mapreduce,hdfs,storage,faults,grid,core}``.

Flagged: ``for``-statement and comprehension iterables that are
- set literals / set comprehensions / ``set()`` / ``frozenset()`` calls,
- ``list(...)``/``tuple(...)`` wrappers of the above (materialising a set
  into a list preserves its hash order — still nondeterministic),
- names or ``self.<attr>``s assigned or annotated as sets anywhere in the
  same module.

A line may carry a ``# set-order-ok`` comment to waive a finding whose
order-independence has been audited (say why in a nearby comment).

Usage: ``python tools/lint_no_set_iteration.py [src-root]`` — prints
findings, exits 1 if any.  The fast test tier runs this via
``tests/test_lint.py``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import List, Optional, Set, Tuple

CHECKED_PACKAGES = ("sim", "net", "mapreduce", "hdfs", "storage", "faults",
                    "grid", "core")
WAIVER = "set-order-ok"

#: Calls that pass their argument's iteration order through to a list.
_TRANSPARENT_WRAPPERS = {"list", "tuple", "iter", "reversed", "enumerate"}
#: Annotation heads that mean "this is a set".
_SET_ANNOTATIONS = {"set", "Set", "frozenset", "FrozenSet", "MutableSet"}


def _ann_is_set(node: Optional[ast.expr]) -> bool:
    """True if a type annotation denotes a set (``Set[str]``, ``set``...)."""
    if node is None:
        return False
    if isinstance(node, ast.Subscript):
        return _ann_is_set(node.value)
    if isinstance(node, ast.Name):
        return node.id in _SET_ANNOTATIONS
    if isinstance(node, ast.Attribute):
        return node.attr in _SET_ANNOTATIONS
    return False


def _key_of(node: ast.expr) -> Optional[str]:
    """A module-level key for names and ``self.<attr>`` targets."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and node.value.id == "self":
        return "self." + node.attr
    return None


def _collect_set_names(tree: ast.AST) -> Set[str]:
    """Names/attrs assigned or annotated as sets anywhere in the module."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            if _ann_is_set(node.annotation):
                key = _key_of(node.target)
                if key is not None:
                    names.add(key)
        elif isinstance(node, ast.Assign):
            if _value_is_set(node.value, names):
                for target in node.targets:
                    key = _key_of(target)
                    if key is not None:
                        names.add(key)
        elif isinstance(node, ast.arg):
            if _ann_is_set(node.annotation):
                names.add(node.arg)
    return names


def _value_is_set(node: ast.expr, set_names: Set[str]) -> bool:
    """True if an expression evaluates to a (frozen)set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset"):
        return True
    key = _key_of(node)
    if key is not None and key in set_names:
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr,
                                                            ast.BitAnd,
                                                            ast.Sub)):
        # Set algebra on sets yields sets.
        return (_value_is_set(node.left, set_names)
                or _value_is_set(node.right, set_names))
    return False


def _iterable_is_set(node: ast.expr, set_names: Set[str]) -> bool:
    """True if iterating ``node`` walks set order."""
    if _value_is_set(node, set_names):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in _TRANSPARENT_WRAPPERS and node.args:
        return _iterable_is_set(node.args[0], set_names)
    return False


def lint_file(path: Path) -> List[Tuple[int, str]]:
    """All set-iteration findings in one file as (line, message)."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    set_names = _collect_set_names(tree)
    lines = source.splitlines()
    findings: List[Tuple[int, str]] = []

    def waived(lineno: int) -> bool:
        return 0 < lineno <= len(lines) and WAIVER in lines[lineno - 1]

    def check(iter_node: ast.expr, lineno: int, kind: str) -> None:
        if _iterable_is_set(iter_node, set_names) and not waived(lineno):
            findings.append(
                (lineno, f"{kind} iterates a set "
                         f"({ast.unparse(iter_node)}) — use an "
                         f"insertion-ordered dict or sorted(...)"))

    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            check(node.iter, node.lineno, "for-loop")
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                check(gen.iter, node.lineno, "comprehension")
    return findings


def lint_tree(src_root: Path) -> List[str]:
    """Lint every checked package below ``src_root``; returns messages."""
    messages: List[str] = []
    for pkg in CHECKED_PACKAGES:
        pkg_dir = src_root / "repro" / pkg
        for path in sorted(pkg_dir.rglob("*.py")):
            for lineno, msg in lint_file(path):
                rel = path.relative_to(src_root)
                messages.append(f"{rel}:{lineno}: {msg}")
    return messages


def main(argv: List[str]) -> int:
    src_root = Path(argv[1]) if len(argv) > 1 else \
        Path(__file__).resolve().parent.parent / "src"
    messages = lint_tree(src_root)
    for msg in messages:
        print(msg)
    if messages:
        print(f"{len(messages)} set-iteration finding(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
