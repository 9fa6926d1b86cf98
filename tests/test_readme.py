"""README's Python examples import only names the package re-exports."""

import ast
import re
from pathlib import Path

import blockframe

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_imports():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    return [
        alias.name
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "blockframe"
        for alias in node.names
    ]


def test_readme_imports_resolve():
    names = _readme_imports()
    assert names, "README has no `from blockframe import` lines"
    missing = [name for name in names if not hasattr(blockframe, name)]
    assert not missing, f"README imports names blockframe does not re-export: {missing}"
