"""README's Python examples run, and import only names the package re-exports."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import blockframe

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
SUBMODULES = {info.name for info in pkgutil.iter_modules(blockframe.__path__)}


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


def test_readme_code_names_resolve():
    # `frame._tiles`, `blockframe.sampling`, ...: a deleted or renamed
    # helper cannot leave README pointing at nothing
    named = re.findall(r"`(\w+)\.(\w+)`", README.read_text())
    modules = [name for owner, name in named if owner == "blockframe"]
    members = [(owner, name) for owner, name in named if owner in SUBMODULES]
    assert members, "README names no blockframe submodule member"
    assert sorted(set(modules) - SUBMODULES) == []
    missing = [
        f"{owner}.{name}"
        for owner, name in members
        if not hasattr(importlib.import_module(f"blockframe.{owner}"), name)
    ]
    assert missing == []
