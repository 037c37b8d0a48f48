"""Exact scalar arithmetic over Q and real quadratic extensions Q(sqrt(D)).

Representation.  A :class:`Scalar` stores four fields ``(p, q, r, d)`` and
stands for ``(p + q*sqrt(d)) / r``, where ``p``, ``q`` and ``r`` are ints and
``d`` is 0 (a rational) or a square-free radicand >= 2.  Every exact scalar
is in canonical form:

* ``r > 0`` and ``gcd(p, q, r) == 1``;
* ``q == 0`` if and only if ``d == 0``.

The form is unique, so ``==`` compares four ints, and a rational hashes as
``Fraction(p, r)`` does.  Every exact scalar has a decidable sign under the
real embedding ``sqrt(d) > 0``: when ``p`` and ``q`` differ in sign it
compares the ints ``p*p`` and ``q*q*d``.  The rational parts of
``a + b*sqrt(d)`` are the read-only ``Fraction`` properties ``a == p/r`` and
``b == q/r``, for hashing and tests; no arithmetic or formatting goes through
``Fraction``.  A float backend (``d == -1``, the float in ``p``, ``q == 0``,
``r == 1``) exists purely as a cross-check; its comparisons go through a
tolerance.

Integer lanes.  ``+``, ``*`` and ``inverse`` form the result's numerators and
denominator in ints and divide out at most one gcd of the result:

* a sum over coprime denominators is already canonical, and over
  denominators with ``g = gcd(r1, r2) > 1`` only ``gcd(p, q, g)`` can divide
  out, as in ``Fraction``'s sum;
* a product is ``(p1*p2 + q1*q2*d) + (p1*q2 + q1*p2)*sqrt(d)`` over
  ``r1*r2``, reduced by one gcd;
* no gcd is taken when the unreduced denominator is 1;
* the inverse is ``r*(p - q*sqrt(d)) / (p*p - q*q*d)``, with the sign of the
  norm moved into the numerator.

Sums of many products run on ints outside this module without reading the
four fields: :func:`complex_ints` writes exact complex scalars as int
numerators over one common denominator (None for a float or two radicands),
:func:`mul_ints`, :func:`neg_ints` and :func:`sum_ints` do their arithmetic,
and :func:`complex_from_ints` builds a canonical complex scalar back, one
gcd per nonzero part.  ``forms`` holds the one boundary between the two: a
form made by an integer kernel keeps its numerators and builds its scalars
only when they are read.

Almost every scalar the classifier touches is rational, and most complex
scalars are real.  The real lane: a :class:`ComplexScalar` factor whose
imaginary part is an exact zero (``d == 0`` and ``p == 0``) skips the
products that vanish in ``*``, ``abs2`` and ``inverse``.  A lane only ever
skips an operation whose result is known to be zero; every ``Scalar`` sum,
product and inverse it does perform still goes through ``Scalar.__add__``,
``__mul__`` or ``inverse``.  Inside those, no new object is made where the
result already exists: ``*`` by an exact +-1 (``d == 0``, ``r == 1``,
``p == +-1``) returns the other operand or its negation, the same float
bits as the general path for a float operand; beside an exact operand, an
exact zero is the product and leaves the other operand as the sum; and
``-`` of an exact zero returns it (a float zero is still negated, so -0.0
keeps its sign).  Float
operands and mixed radicands take the general path: a float promotes the
result to float, and two different radicands raise
:class:`FieldMismatchError`.

A scalar is immutable.  Its fields live in the slots ``_p, _q, _r, _d``
(``_re, _im`` for a complex scalar), which only the constructors in this
module store, as plain attributes; code in this module reads the slots.
The public ``p, q, r, d`` and ``re, im`` are read-only properties, so
assigning to them raises ``AttributeError``, as does adding an attribute.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction

FLOAT_KIND = -1
FLOAT_TOLERANCE = 1e-9

_F0 = Fraction(0)
_F1 = Fraction(1)
_gcd = math.gcd


class ScalarError(ArithmeticError):
    pass


class FieldMismatchError(ScalarError):
    """Two scalars live in different quadratic extensions."""


# The largest radicand accepted, so that deciding square-freeness, which
# trial-divides up to the cube root, takes at most about 10**6 steps.
MAX_RADICAND = 10**18


def _is_squarefree(d: int) -> bool:
    """Whether ``d >= 2`` has no square factor.

    Trial division takes out every prime k with k**3 <= m, m the cofactor
    left so far.  Each prime of what remains is above its cube root, so it
    has at most two prime factors, and it has a square factor exactly when
    it is the square of a prime.
    """
    if d < 2:
        return False
    m, k = d, 2
    while k * k * k <= m:
        if m % k == 0:
            m //= k
            if m % k == 0:
                return False
        k += 1 if k == 2 else 2
    root = math.isqrt(m)
    return m == 1 or root * root != m


def _check_radicand(d: int) -> None:
    if d > MAX_RADICAND:
        raise ScalarError(f"radicand {d} is above the supported maximum of 10**18")
    if not _is_squarefree(d):
        raise ScalarError(f"radicand {d} must be square-free and >= 2")


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of an int, a Fraction or anything Fraction reads."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return x.numerator, x.denominator


class Scalar:
    """Immutable element of Q, Q(sqrt(d)), or the float cross-check backend."""

    __slots__ = ("_p", "_q", "_r", "_d")

    def __init__(self, a, b=0, d: int = 0):
        if d == FLOAT_KIND:
            self._p, self._q, self._r, self._d = float(a), 0, 1, FLOAT_KIND
            return
        an, ad = _ratio(a)
        bn, bd = _ratio(b)
        if not bn:
            self._p, self._q, self._r, self._d = an, 0, ad, 0
            return
        if d == 0:
            raise ScalarError("irrational part requires a radicand")
        _check_radicand(d)
        # over r = lcm(ad, bd) the fields are coprime, since a and b are in
        # lowest terms
        r = ad * bd // _gcd(ad, bd)
        self._p, self._q, self._r, self._d = an * (r // ad), bn * (r // bd), r, d

    @property
    def p(self):
        """The numerator of the rational part (the float itself in float mode)."""
        return self._p

    @property
    def q(self) -> int:
        """The numerator of the coefficient of sqrt(d)."""
        return self._q

    @property
    def r(self) -> int:
        """The common denominator, > 0."""
        return self._r

    @property
    def d(self) -> int:
        """The radicand: 0 for a rational, ``FLOAT_KIND`` for a float."""
        return self._d

    # -- predicates ------------------------------------------------------

    @property
    def a(self):
        """The rational part ``p/r`` (the float itself in float mode)."""
        return self._p if self._d == FLOAT_KIND else Fraction(self._p, self._r)

    @property
    def b(self) -> Fraction:
        """The coefficient ``q/r`` of ``sqrt(d)``."""
        return Fraction(self._q, self._r) if self._q else _F0

    @property
    def is_float(self) -> bool:
        return self._d == FLOAT_KIND

    @property
    def is_rational(self) -> bool:
        return self._d == 0

    def is_zero(self) -> bool:
        d = self._d
        if d == 0:
            return not self._p
        if d == FLOAT_KIND:
            return abs(self._p) <= FLOAT_TOLERANCE
        return False  # canonical form: d >= 2 carries q != 0

    def sign(self) -> int:
        """Exact sign under the embedding sqrt(d) > 0 (tolerance in float mode)."""
        p, q = self._p, self._q
        if self._d == FLOAT_KIND:
            if abs(p) <= FLOAT_TOLERANCE:
                return 0
            return 1 if p > 0 else -1
        sp = (p > 0) - (p < 0)
        sq = (q > 0) - (q < 0)
        if sp == sq or not sq:
            return sp
        if not sp:
            return sq
        # opposite signs: compare p^2 against q^2 d
        lhs = p * p
        rhs = q * q * self._d
        if lhs == rhs:
            return 0
        return sp if lhs > rhs else sq

    # -- arithmetic ------------------------------------------------------

    def _join(self, other: "Scalar") -> int:
        """Radicand of the common field, promoting to float if either is float."""
        if self._d == FLOAT_KIND or other._d == FLOAT_KIND:
            return FLOAT_KIND
        if self._d == 0:
            return other._d
        if other._d == 0 or other._d == self._d:
            return self._d
        raise FieldMismatchError(f"cannot mix sqrt({self._d}) with sqrt({other._d})")

    def to_float(self) -> float:
        if self._d == FLOAT_KIND:
            return self._p
        x = self._p / self._r
        if self._q:
            x += self._q / self._r * math.sqrt(self._d)
        return x

    @staticmethod
    def _coerce(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return _make(x.numerator, 0, x.denominator, 0)
        if isinstance(x, float):
            return _make(x, 0, 1, FLOAT_KIND)
        raise TypeError(f"cannot interpret {x!r} as a scalar")

    def __add__(self, other):
        if type(other) is not Scalar:
            try:
                other = self._coerce(other)
            except TypeError:
                return NotImplemented  # a ComplexScalar operand takes the mixed sum
        d1, d2 = self._d, other._d
        # an exact zero beside an exact operand: the sum is that operand
        if not d1 and not self._p and d2 != FLOAT_KIND:
            return other
        if not d2 and not other._p and d1 != FLOAT_KIND:
            return self
        d = d1 if d1 == d2 else self._join(other)
        if d == FLOAT_KIND:
            return _make(self.to_float() + other.to_float(), 0, 1, FLOAT_KIND)
        p1, q1, r1, p2, q2, r2 = self._p, self._q, self._r, other._p, other._q, other._r
        if r1 == r2:
            return _reduced(p1 + p2, q1 + q2, r1, d)
        g = 1 if r1 == 1 or r2 == 1 else _gcd(r1, r2)
        if g == 1:
            q = q1 * r2 + q2 * r1
            return _make(p1 * r2 + p2 * r1, q, r1 * r2, d if q else 0)
        s, t = r1 // g, r2 // g
        p, q = p1 * t + p2 * s, q1 * t + q2 * s
        g = _gcd(p, q, g)
        q //= g
        return _make(p // g, q, s * r2 // g, d if q else 0)

    __radd__ = __add__

    def __neg__(self):
        if not self._p and not self._d:
            return self  # an exact zero; a float zero is negated, so -0.0 keeps its sign
        return _make(-self._p, -self._q, self._r, self._d)

    def __sub__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented  # a ComplexScalar operand takes the mixed difference
        return self + (-other)

    def __rsub__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if type(other) is not Scalar:
            try:
                other = self._coerce(other)
            except TypeError:
                return NotImplemented  # a ComplexScalar operand takes the mixed product
        p1, r1, d1, p2, r2, d2 = self._p, self._r, self._d, other._p, other._r, other._d
        # an exact zero beside an exact operand is the product
        if not d1 and not p1 and d2 != FLOAT_KIND:
            return self
        if not d2 and not p2 and d1 != FLOAT_KIND:
            return other
        # an exact +-1 factor: the product is the other operand or its
        # negation, which is what the general path makes, a float included
        if r1 == 1 and not d1 and (p1 == 1 or p1 == -1):
            return other if p1 == 1 else -other
        if r2 == 1 and not d2 and (p2 == 1 or p2 == -1):
            return self if p2 == 1 else -self
        d = d1 if d1 == d2 else self._join(other)
        if d == FLOAT_KIND:
            return _make(self.to_float() * other.to_float(), 0, 1, FLOAT_KIND)
        q1, q2 = self._q, other._q
        return _reduced(p1 * p2 + q1 * q2 * d, p1 * q2 + q1 * p2, r1 * r2, d)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        p, r, d = self._p, self._r, self._d
        if d == 0:
            if not p:
                raise ZeroDivisionError("scalar division by zero")
            return _make(r, 0, p, 0) if p > 0 else _make(-r, 0, -p, 0)
        if d == FLOAT_KIND:
            return _make(1.0 / p, 0, 1, FLOAT_KIND)
        # r / (p + q sqrt(d)) = r (p - q sqrt(d)) / (p^2 - q^2 d), and the
        # norm is never 0 because sqrt(d) is irrational
        q = self._q
        norm = p * p - q * q * d
        if norm < 0:
            return _reduced(-r * p, r * q, -norm, d)
        return _reduced(r * p, -r * q, norm, d)

    def __truediv__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented  # a ComplexScalar operand takes the mixed quotient
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        if type(other) is not Scalar:
            try:
                other = self._coerce(other)
            except TypeError:
                return NotImplemented
        if self._d == FLOAT_KIND or other._d == FLOAT_KIND:
            return abs(self.to_float() - other.to_float()) <= FLOAT_TOLERANCE
        # canonical form: equal values have equal fields, and scalars of two
        # different quadratic fields are never equal
        return (self._p == other._p and self._q == other._q and self._r == other._r
                and self._d == other._d)

    def __lt__(self, other):
        return (self - self._coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - self._coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - self._coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - self._coerce(other)).sign() >= 0

    def __hash__(self):
        if self._d <= 0:
            return hash(self.a)
        return hash((self._p, self._q, self._r, self._d))

    def __bool__(self):
        return not self.is_zero()

    # -- formatting ------------------------------------------------------

    def __repr__(self):
        return scalar_str(self)

    def __str__(self):
        return scalar_str(self)


_new = object.__new__


def _make(p, q: int, r: int, d: int) -> Scalar:
    """A new scalar with these canonical fields.

    ``d`` is 0, ``FLOAT_KIND`` or a radicand an operand already carried, so
    coercion and the square-free check are skipped.
    """
    s = _new(Scalar)
    s._p = p
    s._q = q
    s._r = r
    s._d = d
    return s


def _reduced(p: int, q: int, r: int, d: int) -> Scalar:
    """``(p + q*sqrt(d)) / r`` for ints with ``r > 0``, in canonical form:
    one gcd unless ``r == 1``, and ``q == 0`` collapses to a rational."""
    if r != 1:
        g = _gcd(p, q, r)
        if g != 1:
            p, q, r = p // g, q // g, r // g
    return _make(p, q, r, d if q else 0)


ZERO = Scalar(0)
ONE = Scalar(1)
HALF = Scalar(Fraction(1, 2))
TWO = Scalar(2)


def rational(p, q=1) -> Scalar:
    return Scalar(Fraction(p, q))


def quadratic(a, b, d: int) -> Scalar:
    return Scalar(Fraction(a), Fraction(b), d)


def root(d: int) -> Scalar:
    """sqrt(d) for a square-free integer d >= 2."""
    return Scalar(_F0, _F1, d)


def floating(x: float) -> Scalar:
    return Scalar(x, d=FLOAT_KIND)


def _int_str(x: int) -> str:
    """``str(x)``, also past the interpreter's limit on the digits of an int
    it prints (``sys.get_int_max_str_digits``): an input under that limit can
    give a result over it, so such an int is printed as two halves in base
    10^k."""
    try:
        return str(x)
    except ValueError:
        pass
    if x < 0:
        return "-" + _int_str(-x)
    k = x.bit_length() * 3 // 20   # about half its decimal digits
    high, low = divmod(x, 10 ** k)
    return _int_str(high) + _int_str(low).zfill(k)


def _ratio_str(n: int, r: int) -> str:
    """``str(Fraction(n, r))`` for ``r > 0``, by one gcd."""
    g = _gcd(n, r)
    if g != r:
        return f"{_int_str(n // g)}/{_int_str(r // g)}"
    return _int_str(n // g)


def scalar_str(s: Scalar) -> str:
    """Canonical string form: "3/4", "sqrt(2)", "1/2-3/4*sqrt(5)", "float:1.5".

    Printed from the ints: the rational part ``p/r`` and the coefficient
    ``q/r`` of sqrt(d) are each put in lowest terms by one gcd.
    """
    p, q, r, d = s._p, s._q, s._r, s._d
    if d == FLOAT_KIND:
        return f"float:{p!r}"
    if not q:
        # canonical: gcd(p, r) == 1 already
        return f"{_int_str(p)}/{_int_str(r)}" if r != 1 else _int_str(p)
    if q == r:
        radical = f"sqrt({d})"
    elif q == -r:
        radical = f"-sqrt({d})"
    else:
        radical = f"{_ratio_str(q, r)}*sqrt({d})"
    if not p:
        return radical
    if q < 0:
        return f"{_ratio_str(p, r)}{radical}"
    return f"{_ratio_str(p, r)}+{radical}"


_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-]?)\s*(?:
        (?P<coef>\d+(?:/\d+)?)\s*\*\s*sqrt\((?P<d1>\d+)\)
        | sqrt\((?P<d2>\d+)\)
        | (?P<rat>\d+(?:/\d+)?)
    )\s*""",
    re.VERBOSE | re.ASCII,
)


def _parse_float(text: str) -> Scalar:
    """A "float:x" scalar: ASCII digits only, and finite."""
    body = text[len("float:"):]
    try:
        x = float(body)
    except ValueError:
        x = None
    if x is None or not body.isascii():
        raise ScalarError(f"cannot parse float scalar {text!r}")
    if not math.isfinite(x):
        raise ScalarError(f"float scalar {text!r} is not finite")
    return floating(x)


def parse_scalar(text: str) -> Scalar:
    """Parse the canonical scalar grammar, e.g. "1/2+3/4*sqrt(2)".

    The terms are summed as ints: the rational part and the sqrt(d) part as
    numerators over one common denominator, made canonical once at the end.
    As in a ``Scalar`` sum, a sqrt(d) term joins the sum only while the
    sqrt part so far is zero or has the same radicand.  Only ASCII digits
    are read, and a "float:" scalar must be finite.
    """
    text = text.strip()
    if text.startswith("float:"):
        return _parse_float(text)
    if not text:
        raise ScalarError("empty scalar")
    pos = 0
    p, q, r, d = 0, 0, 1, 0   # (p + q*sqrt(d)) / r so far
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m:
            raise ScalarError(f"cannot parse scalar {text!r} at offset {pos}")
        if pos and m.group("sign") == "":
            raise ScalarError(f"missing sign between terms in {text!r}")
        rat = m.group("rat")
        num, _, den = (rat or m.group("coef") or "1").partition("/")
        num, den = int(num), int(den or 1)
        if not den:
            raise ScalarError(f"zero denominator in scalar {text!r}")
        if rat is None:
            radicand = int(m.group("d1") or m.group("d2"))
        if m.group("sign") == "-":
            num = -num
        pos = m.end()
        if not num:
            continue
        if rat is None:
            if not radicand:
                raise ScalarError("irrational part requires a radicand")
            _check_radicand(radicand)
            if q and radicand != d:
                raise FieldMismatchError(f"cannot mix sqrt({d}) with sqrt({radicand})")
            d = radicand
        if r % den:
            g = den // _gcd(r, den)
            p, q, r = p * g, q * g, r * g
        num *= r // den
        if rat is None:
            q += num
        else:
            p += num
    return _reduced(p, q, r, d)


class ComplexScalar:
    """Complex number with exact real and imaginary parts."""

    __slots__ = ("_re", "_im")

    def __init__(self, re, im=ZERO):
        self._re = Scalar._coerce(re)
        self._im = Scalar._coerce(im)

    @property
    def re(self) -> Scalar:
        return self._re

    @property
    def im(self) -> Scalar:
        return self._im

    @staticmethod
    def _coerce(x) -> "ComplexScalar":
        if isinstance(x, ComplexScalar):
            return x
        return ComplexScalar(Scalar._coerce(x))

    def is_zero(self) -> bool:
        return self._re.is_zero() and self._im.is_zero()

    def is_real(self) -> bool:
        return self._im.is_zero()

    def conjugate(self) -> "ComplexScalar":
        return _complex(self._re, -self._im)

    def abs2(self) -> Scalar:
        """|z|^2, a non-negative exact scalar."""
        im = self._im
        if im._d == 0 and not im._p:
            return self._re * self._re
        return self._re * self._re + im * im

    def times_i(self) -> "ComplexScalar":
        return _complex(-self._im, self._re)

    def __add__(self, other):
        other = self._coerce(other)
        return _complex(self._re + other._re, self._im + other._im)

    __radd__ = __add__

    def __neg__(self):
        return _complex(-self._re, -self._im)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        re, im, ore, oim = self._re, self._im, other._re, other._im
        # the real lane; a float part keeps the four products, so that it
        # still promotes every part of the result to float
        if re._d != FLOAT_KIND and ore._d != FLOAT_KIND:
            if im._d == 0 and not im._p:
                if oim._d == 0 and not oim._p:
                    return _complex(re * ore, im)
                if oim._d != FLOAT_KIND:
                    return _complex(re * ore, re * oim)
            elif oim._d == 0 and not oim._p and im._d != FLOAT_KIND:
                return _complex(re * ore, im * ore)
        return _complex(re * ore - im * oim, re * oim + im * ore)

    __rmul__ = __mul__

    def inverse(self) -> "ComplexScalar":
        n = self.abs2()
        if n.is_zero():
            raise ZeroDivisionError("complex scalar division by zero")
        ninv = n.inverse()
        im = self._im
        if im._d == 0 and not im._p and ninv._d != FLOAT_KIND:
            return _complex(self._re * ninv, im)
        return _complex(self._re * ninv, -im * ninv)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self._re == other._re and self._im == other._im

    def __hash__(self):
        return hash((self._re, self._im))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return complex_str(self)


def _complex(re: Scalar, im: Scalar) -> ComplexScalar:
    """A complex scalar from two parts that are already ``Scalar``s."""
    z = _new(ComplexScalar)
    z._re = re
    z._im = im
    return z


C_ZERO = ComplexScalar(ZERO)
C_ONE = ComplexScalar(ONE)
C_I = ComplexScalar(ZERO, ONE)
C_TWO = ComplexScalar(TWO)


def is_negation(x: ComplexScalar, y: ComplexScalar) -> bool:
    """``x == -y``, decided without forming ``-y``: exact parts compare their
    fields with the signs of p and q flipped, a float part through the
    tolerance."""
    return _negates(x._re, y._re) and _negates(x._im, y._im)


def is_conjugate(x: ComplexScalar, y: ComplexScalar) -> bool:
    """``x == y.conjugate()``, decided as :func:`is_negation` is."""
    return x._re == y._re and _negates(x._im, y._im)


def _negates(x: Scalar, y: Scalar) -> bool:
    if x._d == FLOAT_KIND or y._d == FLOAT_KIND:
        return abs(x.to_float() + y.to_float()) <= FLOAT_TOLERANCE
    return x._p == -y._p and x._q == -y._q and x._r == y._r and x._d == y._d


def complex_ints(values):
    """Exact complex scalars as ints over one common denominator.

    Returns ``(d, den, ints)`` with ``ints[k] == (a, b, c, e)`` such that
    ``values[k] == ((a + b*sqrt(d)) + i*(c + e*sqrt(d))) / den``, where
    ``den`` is the lcm of the denominators and ``d`` the one radicand that
    occurs (0 if none does); None if a value is a float or two radicands
    occur.  ``values`` is read twice, so it is a sequence or a dict view.
    """
    d, den = 0, 1
    for z in values:
        for s in (z._re, z._im):
            if s._d and s._d != d:
                if s._d == FLOAT_KIND or d:
                    return None
                d = s._d
            if den % s._r:
                den = math.lcm(den, s._r)
    ints = []
    for z in values:
        re, im = z._re, z._im
        m, n = den // re._r, den // im._r
        ints.append((re._p * m, re._q * m, im._p * n, im._q * n))
    return d, den, ints


def real_ints(values):
    """:func:`complex_ints` of real ``Scalar``s, read off their fields: each
    value becomes ``(a, b, 0, 0)``; ``values`` is a sequence."""
    radicands = {s._d for s in values} - {0}
    if FLOAT_KIND in radicands or len(radicands) > 1:
        return None
    den = math.lcm(*(s._r for s in values))
    return max(radicands, default=0), den, [(s._p * (den // s._r), s._q * (den // s._r), 0, 0)
                                             for s in values]


def complex_from_ints(a: int, b: int, c: int, e: int, den: int, d: int) -> ComplexScalar:
    """``((a + b*sqrt(d)) + i*(c + e*sqrt(d))) / den`` for ``den > 0``, one
    gcd per nonzero part."""
    return _complex(_reduced(a, b, den, d) if a or b else ZERO,
                    _reduced(c, e, den, d) if c or e else ZERO)


def mul_ints(x, y, d: int) -> tuple:
    """(a + b r + i(c + e r)) (p + q r + i(s + u r)) on numerators, r = sqrt(d)."""
    a, b, c, e = x
    p, q, s, u = y
    if b or e or q or u:
        return (a * p - c * s + (b * q - e * u) * d, a * q + b * p - c * u - e * s,
                a * s + c * p + (b * u + e * q) * d, a * u + c * q + b * s + e * p)
    return a * p - c * s, 0, a * s + c * p, 0


def neg_ints(x) -> tuple:
    """The numerators of -x."""
    return -x[0], -x[1], -x[2], -x[3]


def sum_ints(xs) -> tuple:
    """The sum of numerators (a, b, c, e) over one denominator."""
    a = b = c = e = 0
    for x in xs:
        a += x[0]
        b += x[1]
        c += x[2]
        e += x[3]
    return a, b, c, e


def complex_str(z: ComplexScalar) -> str:
    """Canonical "re" / "i*(im)" / "(re)+i*(im)" string."""
    if z._im.is_zero():
        return scalar_str(z._re)
    if z._re.is_zero():
        return f"i*({scalar_str(z._im)})"
    return f"({scalar_str(z._re)})+i*({scalar_str(z._im)})"


class ScalarField:
    """Declared ground field of a data set: rational, quadratic, or float.

    The float field compares with the fixed ``FLOAT_TOLERANCE``.
    """

    __slots__ = ("_kind", "_d")

    def __init__(self, kind: str = "rational", d: int = 0):
        if kind not in ("rational", "quadratic", "float"):
            raise ScalarError(f"unknown scalar field kind {kind!r}")
        if kind == "quadratic":
            _check_radicand(d)
        self._kind = kind
        self._d = d if kind == "quadratic" else 0

    @property
    def kind(self) -> str:
        """One of "rational", "quadratic" and "float"."""
        return self._kind

    @property
    def d(self) -> int:
        """The radicand of a quadratic field, else 0."""
        return self._d

    def contains(self, s: Scalar) -> bool:
        if self._kind == "float":
            return True
        if s.is_float:
            return False
        if self._kind == "rational":
            return s._d == 0
        return s._d in (0, self._d)

    def coerce(self, s: Scalar) -> Scalar:
        if self._kind == "float" and not s.is_float:
            return floating(s.to_float())
        if not self.contains(s):
            raise FieldMismatchError(f"{s} does not live in {self}")
        return s

    def __eq__(self, other):
        return (
            isinstance(other, ScalarField)
            and self._kind == other._kind
            and self._d == other._d
        )

    def __hash__(self):
        return hash((self._kind, self._d))

    def __repr__(self):
        if self._kind == "quadratic":
            return f"ScalarField(quadratic, sqrt({self._d}))"
        if self._kind == "float":
            return f"ScalarField(float, tol={FLOAT_TOLERANCE})"
        return "ScalarField(rational)"


def sign_of(s: Scalar) -> int:
    """Sign of an exact scalar; float scalars route through the tolerance."""
    return s.sign()
