"""List the library's top-level functions and classes that nothing reaches.

Walks ``src/kimura_lab`` with ``ast``.  The roots are ``cli.main`` and every
name used in ``tests/test_acceptance.py``.  A reached definition reaches every
top-level function, class or module-level assignment (such as
``cli._HANDLERS``, which carries the command handlers) whose name its body
uses, as a bare name, an attribute or an import.  Names are matched across
the package without scoping, so the walk errs toward "reached": a local
variable that shares a definition's name keeps the definition.  Methods are
walked with their class and are not counted on their own.

Prints each top-level function or class that is never reached, with its
module and line count (from its ``def`` or ``class`` line to its last line),
then the total.  Takes no options.

    python3 scripts/unreached.py
"""

from __future__ import annotations

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "kimura_lab")
ROOTS_FILE = os.path.join(ROOT, "tests", "test_acceptance.py")


def _names(node: ast.AST) -> set[str]:
    """Every name ``node`` uses: bare names, attributes and imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.asname or sub.name)
    return out


def main() -> int:
    defs: dict[str, list[tuple[str, ast.AST]]] = {}
    bindings: dict[str, list[ast.AST]] = {}  # definitions and assignments by name
    for fname in sorted(os.listdir(PACKAGE)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, fname)) as fh:
            tree = ast.parse(fh.read(), fname)
        module = fname[:-3]
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((module, node))
                bindings.setdefault(node.name, []).append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and module != "__init__":
                # the package's __all__ and re-exports are not uses
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in set().union(*(_names(t) for t in targets)):
                    bindings.setdefault(name, []).append(node)

    with open(ROOTS_FILE) as fh:
        todo = ["main"] + sorted(_names(ast.parse(fh.read(), ROOTS_FILE)))
    seen: set[str] = set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            for node in bindings.get(name, ()):
                todo += _names(node) - seen

    rows = sorted(
        (module, name, node.end_lineno - node.lineno + 1)
        for name, found in defs.items() if name not in seen
        for module, node in found
    )
    for module, name, lines in rows:
        print(f"{module}.{name}  {lines} lines")
    print(f"{len(rows)} unreached definitions, {sum(r[2] for r in rows)} lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
