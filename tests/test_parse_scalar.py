"""``scalars.parse_scalar`` sums its terms as int numerators over one common
denominator.  The oracle is the term-by-term route it replaced: one
``Fraction`` and one ``Scalar`` per term, added with ``Scalar.__add__``.
Both must give the same scalar, or raise the same error with the same text,
on every string: canonical ``scalar_str`` output, sums of random terms
(mixed radicands, zero coefficients, zero denominators, sqrt(0), sqrt(1) and
non-square-free radicands among them) and text from the grammar's alphabet.
Only ASCII digits are read (``_TERM_RE`` is compiled with ``re.ASCII``, and
the float branch refuses other text), and a float scalar must be finite.
"""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hha.scalars import (
    Scalar,
    ScalarError,
    ZERO,
    _TERM_RE,
    floating,
    parse_scalar,
    scalar_str,
)

_checks = settings(max_examples=300, deadline=None, database=None)


def term_by_term(text: str) -> Scalar:
    """The parser before the int sum: one Fraction and one Scalar per term."""
    text = text.strip()
    if text.startswith("float:"):
        body = text[len("float:"):]
        try:
            if not body.isascii():
                raise ValueError
            x = float(body)
        except ValueError:
            raise ScalarError(f"cannot parse float scalar {text!r}") from None
        if not math.isfinite(x):
            raise ScalarError(f"float scalar {text!r} is not finite")
        return floating(x)
    if not text:
        raise ScalarError("empty scalar")
    pos = 0
    out = ZERO
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m:
            raise ScalarError(f"cannot parse scalar {text!r} at offset {pos}")
        if not first and m.group("sign") == "":
            raise ScalarError(f"missing sign between terms in {text!r}")
        sgn = -1 if m.group("sign") == "-" else 1
        num, _, den = (m.group("rat") or m.group("coef") or "1").partition("/")
        try:
            c = Fraction(sgn * int(num), int(den or 1))
        except ZeroDivisionError:
            raise ScalarError(f"zero denominator in scalar {text!r}") from None
        if m.group("rat") is not None:
            term = Scalar(c)
        else:
            term = Scalar(0, c, int(m.group("d1") or m.group("d2")))
        out = out + term
        pos = m.end()
        first = False
    return out


def outcome(parse, text):
    try:
        s = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return s.p, s.q, s.r, s.d


def assert_same(text):
    assert outcome(parse_scalar, text) == outcome(term_by_term, text), text


_fractions = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


@_checks
@given(st.sampled_from((0, 2, 5)), _fractions, _fractions)
def test_scalar_str_round_trips(d, a, b):
    s = Scalar(a, b if d else 0, d)
    text = scalar_str(s)
    assert parse_scalar(text) == s
    assert_same(text)


_terms = st.builds(
    lambda sign, num, den, radicand, shape, pad: pad + sign + pad + {
        "rat": f"{num}{den}",
        "coef": f"{num}{den}{pad}*{pad}sqrt({radicand})",
        "root": f"sqrt({radicand})",
    }[shape] + pad,
    st.sampled_from(("", "+", "-")),
    st.integers(0, 40),
    st.sampled_from(("", "/1", "/2", "/3", "/12", "/0", "/7")),
    st.sampled_from((0, 1, 2, 3, 4, 5, 8, 12)),
    st.sampled_from(("rat", "coef", "root")),
    st.sampled_from(("", " ")),
)


@_checks
@given(st.lists(_terms, min_size=1, max_size=6))
def test_sums_of_terms_parse_as_term_by_term(terms):
    assert_same("".join(terms))


@_checks
@given(st.text(alphabet="0123456789/+-* sqrt()float:.", max_size=24))
def test_any_text_of_the_alphabet_parses_or_fails_alike(text):
    assert_same(text)


def test_malformed_and_out_of_field_strings_fail_alike():
    for text in ["", "  ", "1//2", "sqrt(2", "1 2", "x", "1+", "+", "sqrt(2)sqrt(2)",
                 "1/0", "3/0*sqrt(2)", "sqrt(0)", "2*sqrt(1)", "sqrt(4)", "sqrt(12)",
                 "sqrt(2)+sqrt(3)", "sqrt(2)-sqrt(2)+sqrt(3)", "0*sqrt(4)", "1+0*sqrt(0)",
                 "1/2*sqrt(1000000000000000003)", "float:x", "float:1.5", "-0", "+3/6",
                 # past the int conversion limit, even under a zero coefficient
                 "0*sqrt(" + "9" * 5000 + ")",
                 # digits are ASCII only, and a float is finite
                 "\u0663/\u0664", "\uff11", "sqrt(\u0662)", "1/2+\u0663*sqrt(2)",
                 "float:\u0661.5", "float:nan", "float:inf", "float:-inf", "float:1e400"]:
        assert_same(text)


# int() and float() read every Unicode decimal digit, and float() reads nan
# and inf; the scalar grammar reads neither
@pytest.mark.parametrize("text", ["\u0663/\u0664", "\uff11", "sqrt(\u0662)", "1/2+\u0663*sqrt(2)",
                                  "\u0661\u0662*sqrt(2)", "float:\u0661.5", "float:nan",
                                  "float:-inf", "float:1e400"])
def test_non_ascii_digits_and_non_finite_floats_are_refused(text):
    with pytest.raises(ScalarError):
        parse_scalar(text)
