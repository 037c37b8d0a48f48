"""The integer scalar kernel: canonical form, big numerators, and no
``Fraction`` arithmetic on the classification path.

A ``Scalar`` is ``(p + q*sqrt(d)) / r`` in ints with ``r > 0``,
``gcd(p, q, r) == 1`` and ``q == 0`` exactly when ``d == 0``.  The reference
values here are computed in ``Fraction`` from the parts ``a = p/r`` and
``b = q/r``.
"""
import importlib.util
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hha.classify import classify_metric
from hha.documents import load_document, parse_input
from hha.hypercomplex import SpherePoint
from hha.scalars import (ONE, ZERO, ComplexScalar, Scalar, ScalarField, floating,
                         quadratic, rational)

INPUTS_PATH = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"

_kernel = settings(max_examples=150, deadline=None, database=None)
# numerators and denominators well past 2**64
_big = st.integers(min_value=-(2 ** 90), max_value=2 ** 90)
_denominators = st.integers(min_value=1, max_value=2 ** 90)
_radicands = st.sampled_from((0, 2, 3, 5, 7))


def check_canonical(s):
    assert type(s.p) is int and type(s.q) is int and type(s.r) is int
    assert s.r > 0
    assert math.gcd(s.p, s.q, s.r) == 1
    assert (s.q == 0) == (s.d == 0)


def value(s):
    """(a, b, d) of ``a + b*sqrt(d)``, with b == 0 and d == 0 for a rational."""
    return s.a, s.b, s.d


def canonical_value(a, b, d):
    return (a, b, d) if b else (a, Fraction(0), 0)


@st.composite
def scalars(draw, d=None):
    d = draw(_radicands) if d is None else d
    a = Fraction(draw(_big), draw(_denominators))
    b = Fraction(draw(_big), draw(_denominators)) if d else Fraction(0)
    return Scalar(a, b, d)


@st.composite
def same_field_pairs(draw):
    d = draw(_radicands)
    return draw(scalars(d)), draw(scalars(d))


@_kernel
@given(same_field_pairs())
def test_results_are_canonical_and_exact(pair):
    x, y = pair
    (xa, xb, d), (ya, yb, _) = value(x), value(y)
    d = x.d or y.d
    for got, want in ((x + y, canonical_value(xa + ya, xb + yb, d)),
                      (x - y, canonical_value(xa - ya, xb - yb, d)),
                      (-x, canonical_value(-xa, -xb, x.d)),
                      (x * y, canonical_value(xa * ya + xb * yb * d,
                                              xa * yb + xb * ya, d))):
        check_canonical(got)
        assert value(got) == want
    for s in (x, y, x - x, x * (y - y)):
        check_canonical(s)
    assert (x == y) == ((x.p, x.q, x.r, x.d) == (y.p, y.q, y.r, y.d))
    norm = xa * xa - xb * xb * x.d
    if norm:
        inv = x.inverse()
        check_canonical(inv)
        assert value(inv) == canonical_value(xa / norm, -xb / norm, x.d)
        assert x * inv == ONE


@_kernel
@given(_big, _denominators)
def test_rationals_hash_as_fractions(p, q):
    s = rational(p, q)
    check_canonical(s)
    assert s.a == Fraction(p, q) and type(s.a) is Fraction
    assert hash(s) == hash(Fraction(p, q))
    assert hash(rational(p)) == hash(p)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_inverse_of_a_negative_norm_moves_the_sign_up(d):
    # (1 - sqrt d)(1 + sqrt d) = 1 - d < 0
    x = quadratic(1, -1, d)
    inv = x.inverse()
    check_canonical(inv)
    assert (inv.p, inv.q, inv.r) == (-1, -1, d - 1)
    assert value(inv) == (Fraction(-1, d - 1), Fraction(-1, d - 1), d)
    assert x * inv == ONE
    big = quadratic(2 ** 70 + 1, -(2 ** 70), 2)
    assert big.inverse() * big == ONE
    check_canonical(big.inverse())


def test_float_backend_keeps_the_float_in_p():
    x = floating(1.5)
    assert (x.p, x.q, x.r, x.d) == (1.5, 0, 1, -1)
    assert x.a == 1.5 and (x * rational(2, 3)).p == pytest.approx(1.0)


@pytest.mark.parametrize("obj, names", [
    (quadratic(1, 2, 5), ("p", "q", "r", "d")),
    (ComplexScalar(ONE, rational(1, 2)), ("re", "im")),
    (ScalarField("quadratic", 2), ("kind", "d")),
    (SpherePoint(ZERO, ZERO, ONE), ("a", "b", "c")),
])
def test_value_objects_are_read_only(obj, names):
    for name in names + ("extra",):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError):
            object.__setattr__(obj, name, 0)
    assert not hasattr(obj, "__dict__")


def general_product(x, y):
    """The fields of ``x * y`` by the product formula, reduced by one gcd."""
    if x.d == -1 or y.d == -1:
        return x.to_float() * y.to_float(), 0, 1, -1
    d = x.d or y.d
    p, q, r = x.p * y.p + x.q * y.q * d, x.p * y.q + x.q * y.p, x.r * y.r
    g = math.gcd(p, q, r)
    return p // g, q // g, r // g, d if q else 0


_floats = st.one_of(st.sampled_from((0.0, -0.0)),
                    st.floats(allow_nan=False, allow_infinity=False))
_units = st.sampled_from((1, -1, ONE, -ONE))


@_kernel
@given(st.one_of(scalars(0), scalars(2), scalars(5), _floats.map(floating)), _units)
def test_a_unit_factor_gives_the_general_product(x, u):
    want = general_product(x, Scalar._coerce(u))
    for got in (x * u, u * x):
        fields = (got.p, got.q, got.r, got.d)
        if x.is_float:
            assert fields == want
            assert math.copysign(1, got.p) == math.copysign(1, want[0])
        else:
            check_canonical(got)
            assert fields == want


def general_sum(x, y):
    """The fields of ``x + y`` by the sum formula over the common denominator."""
    if x.d == -1 or y.d == -1:
        return x.to_float() + y.to_float(), 0, 1, -1
    d = x.d or y.d
    p, q, r = x.p * y.r + y.p * x.r, x.q * y.r + y.q * x.r, x.r * y.r
    g = math.gcd(p, q, r)
    return p // g, q // g, r // g, d if q else 0


_zeros = st.sampled_from((0, ZERO, rational(0), quadratic(0, 0, 2)))


@_kernel
@given(st.one_of(scalars(0), scalars(2), scalars(5), _floats.map(floating)), _zeros)
def test_an_exact_zero_operand_gives_the_general_product_and_sum(x, z):
    zero = Scalar._coerce(z)
    for got, want in ((x * z, general_product(x, zero)), (z * x, general_product(zero, x)),
                      (x + z, general_sum(x, zero)), (z + x, general_sum(zero, x))):
        fields = (got.p, got.q, got.r, got.d)
        assert fields == want
        if x.is_float:
            assert math.copysign(1, got.p) == math.copysign(1, want[0])
        else:
            check_canonical(got)
    if not x.is_float:
        # no new object: the zero is the product, and the other operand the sum
        for got in (x * zero, zero * x):
            assert got is zero or x.is_zero() and got is x
        for got in (x + zero, zero + x):
            assert got is x or x.is_zero() and got is zero


def test_negating_an_exact_zero_gives_zero_and_a_float_zero_keeps_its_sign():
    for zero in (ZERO, rational(0), quadratic(0, 0, 2)):
        assert -zero == ZERO
        check_canonical(-zero)
    for x, sign in ((floating(0.0), -1), (floating(-0.0), 1)):
        assert math.copysign(1, (-x).p) == sign
        assert math.copysign(1, (x * -ONE).p) == sign


def _bench_inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs", INPUTS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__",
                       "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


def test_classification_makes_no_fraction_arithmetic(monkeypatch):
    """Loading and classifying the seeded dense and quadratic benchmark
    inputs (over Q, Q(sqrt 2), Q(sqrt 3) and Q(sqrt 5)) runs entirely on the
    integer kernel."""
    inputs = _bench_inputs()
    docs = [parse_input(json.dumps(doc))
            for doc in inputs.dense_documents(1) + inputs.quadratic_documents(1)]
    assert {doc.field.d for doc in docs} == {0, 2, 3, 5}
    calls = []
    for name in FRACTION_ARITHMETIC:
        original = getattr(Fraction, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(Fraction, name, counted)
    for doc in docs:
        _, metric = load_document(doc)
        classify_metric(metric)
    assert calls == []
