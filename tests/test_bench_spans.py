"""The traced benchmark wraps ``hha`` functions by name; each must resolve."""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


@pytest.mark.parametrize("module, qualname", sorted(_spans()))
def test_span_target_resolves(module, qualname):
    owner = importlib.import_module(f"hha.{module}")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert callable(inspect.getattr_static(owner, attr))
