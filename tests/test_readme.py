"""README's Python examples run, and import only names the package re-exports."""

import ast
import re
from pathlib import Path

import pytest

import blockframe

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)


def test_readme_imports_resolve():
    names = [
        alias.name
        for block in BLOCKS
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "blockframe"
        for alias in node.names
    ]
    assert names, "README has no `from blockframe import` lines"
    missing = [name for name in names if not hasattr(blockframe, name)]
    assert not missing, f"README imports names blockframe does not re-export: {missing}"


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example_runs(index):
    # a signature change that leaves an example stale fails here
    exec(compile(BLOCKS[index], f"README.md python example {index}", "exec"), {})
