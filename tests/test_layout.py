"""The package's own layout: no private helper is left behind unused."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "blockframe"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def _private_definitions():
    """(module, name) of every private module-level function, class or constant."""
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    yield module, name


def _references():
    """Every name read, or attribute taken, anywhere in the package."""
    seen = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
    return seen


def test_every_private_helper_is_used():
    used = _references()
    unused = [f"{module}: {name}" for module, name in _private_definitions() if name not in used]
    assert not unused, f"private names that nothing in the package uses: {unused}"
