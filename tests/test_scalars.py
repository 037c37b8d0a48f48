import math
import random
import time
from fractions import Fraction

import pytest

from hha.scalars import (
    MAX_RADICAND,
    ComplexScalar,
    FieldMismatchError,
    Scalar,
    ScalarError,
    ScalarField,
    ZERO,
    ONE,
    complex_str,
    floating,
    parse_scalar,
    quadratic,
    rational,
    root,
    scalar_str,
    sign_of,
    _is_squarefree,
)


def test_sign_both_parts_positive():
    assert sign_of(quadratic(1, 2, 2)) == 1


def test_sign_integer_comparison_positive():
    # 3 - 2*sqrt(2): compare 9 against 8
    assert sign_of(quadratic(3, -2, 2)) == 1


def test_sign_integer_comparison_negative():
    # 1 - sqrt(2): compare 1 against 2
    assert sign_of(quadratic(1, -1, 2)) == -1


def test_sign_zero_cases():
    assert sign_of(ZERO) == 0
    assert sign_of(quadratic(2, -1, 4) if False else rational(0)) == 0
    # sqrt(2)*sqrt(2) - 2 == 0
    s = root(2) * root(2) - rational(2)
    assert sign_of(s) == 0


def test_rational_collapse():
    s = quadratic(1, 1, 2) - root(2)
    assert s.is_rational
    assert s == rational(1)


def test_arithmetic_in_quadratic_field():
    s = root(2)
    assert s * s == rational(2)
    assert (ONE + s) * (ONE - s) == rational(-1)
    inv = (rational(3) - 2 * s).inverse()
    assert (rational(3) - 2 * s) * inv == ONE
    assert (s / 2) * 2 == s


def test_power_and_galois_conjugate():
    s = quadratic(1, 1, 5)
    assert s ** 3 == s * s * s
    assert s ** 0 == ONE
    conjugate = rational(2) - s  # 1 - sqrt(5)
    assert conjugate == quadratic(1, -1, 5)
    assert (s * conjugate).is_rational


def test_field_mismatch_rejected():
    with pytest.raises(FieldMismatchError):
        root(2) + root(3)


def test_square_free_validation():
    with pytest.raises(Exception):
        quadratic(0, 1, 8)
    with pytest.raises(Exception):
        quadratic(0, 1, 1)


def test_ordering():
    assert rational(1, 3) < rational(1, 2)
    assert root(2) > rational(1)
    assert root(2) < rational(3, 2)
    assert quadratic(0, 1, 2) >= quadratic(0, 1, 2)


def test_random_signs_match_float(seed=7, trials=200):
    rng = random.Random(seed)
    for _ in range(trials):
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        b = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        s = Scalar(a, b, 7) if b else Scalar(a)
        approx = float(a) + float(b) * math.sqrt(7)
        if abs(approx) > 1e-9:
            assert s.sign() == (1 if approx > 0 else -1)


def test_scalar_str_round_trip():
    cases = [
        rational(3, 4),
        rational(-2),
        ZERO,
        root(2),
        -root(2),
        quadratic(1, 2, 2),
        quadratic(Fraction(1, 2), Fraction(-3, 4), 5),
    ]
    for s in cases:
        assert parse_scalar(scalar_str(s)) == s


@pytest.mark.parametrize("digits", [4299, 4300, 4301, 9001])
def test_scalar_str_prints_ints_past_the_interpreters_digit_limit(digits):
    big, text = 10 ** digits - 7, "9" * (digits - 1) + "3"
    for s, want in [(rational(big), text), (rational(-1, big), f"-1/{text}"),
                    (quadratic(Fraction(1, 7), Fraction(big, 7), 2), f"1/7+{text}/7*sqrt(2)")]:
        assert scalar_str(s) == want


def test_parse_rejects_garbage():
    for bad in ["", "1//2", "sqrt(2", "1 2", "x"]:
        with pytest.raises(Exception):
            parse_scalar(bad)


def test_float_backend_tolerance():
    x = floating(1.0)
    y = floating(1.0 + 1e-12)
    assert x == y
    assert sign_of(floating(1e-12)) == 0
    assert sign_of(floating(1e-6)) == 1
    z = x + rational(1, 2)
    assert z.is_float


def test_complex_conjugation_involution():
    z = ComplexScalar(quadratic(1, 1, 2), rational(-3, 7))
    assert z.conjugate().conjugate() == z


def test_complex_abs2_positive_definite():
    z = ComplexScalar(rational(3, 5), rational(-4, 5))
    assert z.abs2() == ONE
    assert sign_of(ComplexScalar(ZERO, ZERO).abs2()) == 0
    rng = random.Random(3)
    for _ in range(50):
        w = ComplexScalar(rational(rng.randint(-9, 9), 7), rational(rng.randint(-9, 9), 5))
        assert sign_of(w.abs2()) >= 0
        assert (sign_of(w.abs2()) == 0) == w.is_zero()


def test_complex_arithmetic():
    i = ComplexScalar(ZERO, ONE)
    assert i * i == ComplexScalar(rational(-1))
    z = ComplexScalar(rational(1), rational(2))
    assert z * z.inverse() == ComplexScalar(ONE)
    assert z.times_i() == i * z


def test_scalar_defers_to_a_complex_operand():
    # a sparse row may mix Scalar and ComplexScalar values
    for s, z in ((quadratic(1, 2, 2), ComplexScalar(rational(1, 3), rational(-2))),
                 (rational(1, 2), ComplexScalar(1, 2))):
        assert s * z == z * s == ComplexScalar(s * z.re, s * z.im)
        assert s + z == z + s == ComplexScalar(s + z.re, z.im)
        assert s - z == -(z - s) == ComplexScalar(s - z.re, -z.im)
        assert s / z == ComplexScalar(s) / z
        assert (s / z) * z == ComplexScalar(s)
    s = quadratic(1, 2, 2)
    for bad in (lambda: s * "x", lambda: s - "x", lambda: "x" - s, lambda: s / "x"):
        with pytest.raises(TypeError):
            bad()


def test_complex_str_canonical_forms():
    cases = [
        (ComplexScalar(rational(1)), "1"),
        (ComplexScalar(ZERO, rational(-1, 2)), "i*(-1/2)"),
        (ComplexScalar(quadratic(1, 1, 2), rational(3)), "(1+sqrt(2))+i*(3)"),
    ]
    for z, text in cases:
        assert complex_str(z) == text


def test_scalar_field_membership():
    q = ScalarField("quadratic", 2)
    assert q.contains(root(2))
    assert q.contains(rational(5))
    assert not q.contains(root(3))
    r = ScalarField("rational")
    assert not r.contains(root(2))
    f = ScalarField("float")
    assert f.coerce(root(2)).is_float


# -- the fast lanes against the full a + b*sqrt(d) and four-product formulas

from hypothesis import given, settings, strategies as st  # noqa: E402

_lanes = settings(max_examples=200, deadline=None, database=None)
_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=30)


def _scalars(d):
    """Scalars of Q(sqrt(d)) (Q for d == 0); b == 0 gives a rational."""
    if d == 0:
        return st.builds(Scalar, _fractions)
    return st.builds(lambda a, b: Scalar(a, b, d), _fractions,
                     st.one_of(st.just(Fraction(0)), _fractions))


@st.composite
def _pairs(draw):
    """Two scalars of one field: independent, cancelling in the sum to a
    rational, or conjugate up to a rational factor (a rational product)."""
    d = draw(st.sampled_from((0, 2, 5)))
    x = draw(_scalars(d))
    kind = draw(st.sampled_from(("free", "sum", "product")))
    if kind == "free":
        return x, draw(_scalars(d))
    r = draw(_fractions)
    if kind == "sum":
        return x, Scalar(r - x.a, -x.b, x.d)
    return x, Scalar(r * x.a, -r * x.b, x.d)


def _parts(s):
    return s.a, s.b, s.d


def _canonical(a, b, d):
    return (a, b, d) if b else (a, Fraction(0), 0)


def _full_sum(x, y):
    return _canonical(x.a + y.a, x.b + y.b, x.d or y.d)


def _full_product(x, y):
    d = x.d or y.d
    return _canonical(x.a * y.a + x.b * y.b * d, x.a * y.b + x.b * y.a, d)


def _check_canonical(s):
    assert type(s.a) is Fraction and type(s.b) is Fraction
    assert (s.b == 0) == (s.d == 0)


@_lanes
@given(_pairs())
def test_lanes_match_the_full_formula(pair):
    x, y = pair
    for got, want in ((x + y, _full_sum(x, y)),
                      (x - y, _full_sum(x, Scalar(-y.a, -y.b, y.d))),
                      (-x, _canonical(-x.a, -x.b, x.d)),
                      (x * y, _full_product(x, y))):
        _check_canonical(got)
        assert _parts(got) == want
    assert (x == y) == (_parts(x) == _parts(y))
    assert (x * y).is_zero() == (x.is_zero() or y.is_zero())
    norm = x.a * x.a - x.b * x.b * x.d
    if norm == 0:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        inv = x.inverse()
        _check_canonical(inv)
        assert _parts(inv) == _canonical(x.a / norm, -x.b / norm, x.d)


@_lanes
@given(_pairs())
def test_equal_values_hash_equal(pair):
    x, y = pair
    for u, v in (((x + y) - y, x), (x * y, y * x), (x - x, ZERO), (x + ZERO, x),
                 (x * ONE, x), (Scalar(x.a, x.b, x.d), x)):
        assert u == v
        assert hash(u) == hash(v)


def _complexes(d):
    parts = _scalars(d)
    return st.builds(ComplexScalar, parts, st.one_of(st.just(ZERO), parts))


@st.composite
def _complex_pairs(draw):
    d = draw(st.sampled_from((0, 2, 5)))
    return draw(_complexes(d)), draw(_complexes(d))


@_lanes
@given(_complex_pairs())
def test_complex_lanes_match_four_products(pair):
    z, w = pair
    prod = z * w
    assert prod.re == z.re * w.re - z.im * w.im
    assert prod.im == z.re * w.im + z.im * w.re
    assert z.abs2() == z.re * z.re + z.im * z.im
    if z.is_zero():
        with pytest.raises(ZeroDivisionError):
            z.inverse()
    else:
        n = z.re * z.re + z.im * z.im
        inv = z.inverse()
        assert inv.re == z.re / n and inv.im == -z.im / n
        assert z * inv == ComplexScalar(ONE)
    for part in (prod.re, prod.im, z.abs2(), z.conjugate().im, (-z).im, z.times_i().re):
        _check_canonical(part)


@_lanes
@given(_scalars(2), st.floats(min_value=-1e6, max_value=1e6))
def test_float_operands_still_promote(x, f):
    y = floating(f)
    for s in (x + y, y + x, x * y, y * x, x - y):
        assert s.is_float
    z = ComplexScalar(y)
    assert (ComplexScalar(x) * z).re.is_float
    assert (z * ComplexScalar(x, x)).im.is_float
    assert (z * z).im.is_float and z.abs2().is_float
    if abs(f) > 1e-3:
        assert z.inverse().im.is_float


@pytest.mark.parametrize("x, y", [
    (root(2), root(3)),
    (quadratic(1, 1, 2), quadratic(1, -1, 3)),
    (rational(1, 2) + root(2), rational(3) * root(3)),
])
def test_mixed_radicands_still_raise(x, y):
    for op in (lambda: x + y, lambda: x * y, lambda: y * x, lambda: x - y):
        with pytest.raises(FieldMismatchError):
            op()
    with pytest.raises(FieldMismatchError):
        ComplexScalar(x) * ComplexScalar(y)
    assert x != y


def test_zero_and_radicand_checks_remain_at_the_public_constructor():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()
    with pytest.raises(ZeroDivisionError):
        ComplexScalar(ZERO).inverse()
    with pytest.raises(ScalarError):
        Scalar(0, 1, 4)
    with pytest.raises(ScalarError):
        Scalar(0, 1)


# -- radicands ---------------------------------------------------------------------


def _squarefree_by_trial_division(d: int) -> bool:
    """The square-free test as it was: every k with k * k <= d."""
    if d < 2:
        return False
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


def test_squarefree_test_agrees_with_trial_division():
    assert all(_is_squarefree(d) == _squarefree_by_trial_division(d)
               for d in range(-2, 20000))


def test_a_square_of_a_large_prime_is_refused():
    d = 2 * 1000003 ** 2
    assert not _is_squarefree(d)
    assert _is_squarefree(2 * 1000003)
    with pytest.raises(ScalarError, match="square-free"):
        Scalar(0, 1, d)
    with pytest.raises(ScalarError, match="square-free"):
        ScalarField("quadratic", d)


def test_a_fifteen_digit_prime_is_decided_at_once():
    start = time.perf_counter()
    assert _is_squarefree(100000000000031)
    assert time.perf_counter() - start < 0.1


def test_radicands_above_the_bound_are_refused():
    assert MAX_RADICAND == 10**18
    for make in (lambda d: Scalar(0, 1, d), lambda d: ScalarField("quadratic", d),
                 lambda d: parse_scalar(f"1+sqrt({d})")):
        with pytest.raises(ScalarError, match="above the supported maximum"):
            make(MAX_RADICAND + 1)
