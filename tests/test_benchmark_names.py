"""The benchmark traces blockframe functions by name; every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, name) for module, name, _ in tracing.TARGETS]


@pytest.mark.parametrize("module, name", _traced_names())
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"blockframe.{module}"), name, None))
