"""The traced benchmark wraps ``hha`` functions by name; each must resolve,
and its scalar counter must see every multiply the arithmetic does."""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _bench_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, qualname", sorted(_bench_spans().SPANS))
def test_span_target_resolves(module, qualname):
    owner = importlib.import_module(f"hha.{module}")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert callable(inspect.getattr_static(owner, attr))


def test_scalar_counter_sees_the_products_a_lane_keeps():
    from hha.scalars import ComplexScalar, rational

    counter = _bench_spans().ScalarCounter()
    z = ComplexScalar(rational(1, 2), rational(3))
    w = ComplexScalar(rational(-2), rational(1, 5))
    x, y = ComplexScalar(rational(2)), ComplexScalar(rational(3, 7))
    counter.install()
    try:
        non_real = z * w
        after_non_real = counter.counts["mul"]
        real = x * y
        after_real = counter.counts["mul"]
    finally:
        counter.uninstall()
    assert non_real == ComplexScalar(rational(-8, 5), rational(-59, 10))
    assert real == ComplexScalar(rational(6, 7))
    assert after_non_real == 4
    assert after_real - after_non_real == 1
    x * y
    assert counter.counts["mul"] == after_real
