"""No dead imports in the package.

Every name a ``repro`` module imports must be used by that module: as an
identifier, inside a string annotation, or listed in ``__all__``.  A name
that is only re-exported counts as used when some other module of the
repository imports it from there.  ``from __future__`` imports are
exempt.  The scan is plain :mod:`ast`, so it needs no linter.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Dict, Iterator, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
#: every tree whose imports can keep a re-exported name alive.
IMPORTER_TREES = ("src", "tests", "benchmarks", "examples", "perfbench")


def _module_name(path: pathlib.Path, base: pathlib.Path) -> str:
    parts = list(path.relative_to(base).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _resolve(module: str, is_package: bool, node: ast.ImportFrom) -> str:
    """The absolute module a (possibly relative) ``from`` import names."""
    if not node.level:
        return node.module or ""
    parts = module.split(".")
    if not is_package:
        parts.pop()
    if node.level > 1:
        parts = parts[: len(parts) - (node.level - 1)]
    if node.module:
        parts.append(node.module)
    return ".".join(parts)


def _imports(tree: ast.AST) -> Iterator[Tuple[str, int]]:
    """(bound name, line) for every import binding in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotations(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.AST) -> Set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    used |= _used_names(ast.parse(node.value, mode="eval"))
                except SyntaxError:
                    pass
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used |= {
                element.value
                for element in ast.walk(node.value)
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            }
    return used


def _imported_from_elsewhere() -> Dict[str, Set[str]]:
    """Absolute module -> names some other repository module imports from it."""
    imported: Dict[str, Set[str]] = {}
    for tree_name in IMPORTER_TREES:
        base = ROOT / tree_name
        for path in sorted(base.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            module = _module_name(path, base)
            is_package = path.name == "__init__.py"
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    target = _resolve(module, is_package, node)
                    imported.setdefault(target, set()).update(
                        alias.name for alias in node.names
                    )
    return imported


def unused_imports() -> List[str]:
    """``path:line: name`` for every import its module never uses."""
    imported_elsewhere = _imported_from_elsewhere()
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used_names(tree)
        reexported = imported_elsewhere.get(_module_name(path, ROOT / "src"), set())
        for name, line in _imports(tree):
            if name not in used and name not in reexported:
                found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    return found


def test_scanner_sees_each_kind_of_use():
    tree = ast.parse(
        "import os\n"
        "from typing import Dict, List, Optional\n"
        "from .x import exported\n"
        "__all__ = ['exported']\n"
        "def f(a: 'Dict[str, int]') -> None:\n"
        "    return os.sep\n"
    )
    used = _used_names(tree)
    assert {"os", "Dict", "exported"} <= used
    assert "List" not in used and "Optional" not in used


def test_no_unused_imports_in_package():
    found = unused_imports()
    assert not found, "imported but never used:\n" + "\n".join(found)
