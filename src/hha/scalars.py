"""Exact scalar arithmetic over Q and real quadratic extensions Q(sqrt(D)).

A :class:`Scalar` is ``a + b*sqrt(d)`` with ``a, b`` rational and ``d`` a
square-free integer >= 2, stored in canonical form: ``b == 0`` if and only if
``d == 0``, a plain rational.  Every exact scalar has a decidable sign under
the real embedding ``sqrt(d) > 0``.  A float backend (``d == -1``) exists
purely as a cross-check; its comparisons go through a tolerance.

Fast lanes.  Almost every scalar the classifier touches is rational, and
most complex scalars are real, so the arithmetic takes shortcuts keyed only
on its operands:

* the rational lane: when both operands have ``d == 0``, ``+``, ``*`` and
  ``==`` (and ``inverse``, unary ``-`` and ``is_zero`` on one rational) do
  a single ``Fraction`` operation instead of the ``a + b*sqrt(d)`` formula;
* a rational times a quadratic scalar drops the two products with ``b == 0``;
* the real lane: a :class:`ComplexScalar` factor whose imaginary part is an
  exact zero skips the products that vanish in ``*``, ``abs2`` and
  ``inverse``.

A lane only ever skips an operation whose result is known to be zero; every
``Scalar`` sum, product and inverse it does perform still goes through
``Scalar.__add__``, ``__mul__`` or ``inverse``.  Results of closed arithmetic
are built by :func:`_exact`, which skips coercion and the radicand check and
keeps the canonical form, so ``b == 0`` if and only if ``d == 0`` holds for
every exact result.  Float operands and mixed radicands take the general
path: a float promotes the result to float, and two different radicands
raise :class:`FieldMismatchError`.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction

FLOAT_KIND = -1
FLOAT_TOLERANCE = 1e-9

_F0 = Fraction(0)
_F1 = Fraction(1)


class ScalarError(ArithmeticError):
    pass


class FieldMismatchError(ScalarError):
    """Two scalars live in different quadratic extensions."""


def _is_squarefree(d: int) -> bool:
    if d < 2:
        return False
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


class Scalar:
    """Immutable element of Q, Q(sqrt(d)), or the float cross-check backend."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=_F0, d: int = 0):
        if d == FLOAT_KIND:
            object.__setattr__(self, "a", float(a))
            object.__setattr__(self, "b", _F0)
            object.__setattr__(self, "d", FLOAT_KIND)
            return
        a = a if isinstance(a, Fraction) else Fraction(a)
        b = b if isinstance(b, Fraction) else Fraction(b)
        if b == 0:
            d = 0
        elif d == 0:
            raise ScalarError("irrational part requires a radicand")
        elif not _is_squarefree(d):
            raise ScalarError(f"radicand {d} must be square-free and >= 2")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *_):
        raise AttributeError("Scalar is immutable")

    # -- predicates ------------------------------------------------------

    @property
    def is_float(self) -> bool:
        return self.d == FLOAT_KIND

    @property
    def is_rational(self) -> bool:
        return self.d == 0

    def is_zero(self) -> bool:
        d = self.d
        if d == 0:
            return not self.a
        if d == FLOAT_KIND:
            return abs(self.a) <= FLOAT_TOLERANCE
        return False  # canonical form: d >= 2 carries b != 0

    def sign(self) -> int:
        """Exact sign under the embedding sqrt(d) > 0 (tolerance in float mode)."""
        if self.is_float:
            if abs(self.a) <= FLOAT_TOLERANCE:
                return 0
            return 1 if self.a > 0 else -1
        a, b = self.a, self.b
        if b == 0:
            return 0 if a == 0 else (1 if a > 0 else -1)
        if a == 0:
            return 1 if b > 0 else -1
        sa = 1 if a > 0 else -1
        sb = 1 if b > 0 else -1
        if sa == sb:
            return sa
        # opposite signs: compare a^2 against b^2 d by rational arithmetic
        lhs = a * a
        rhs = b * b * self.d
        if lhs == rhs:
            return 0
        return sa if lhs > rhs else sb

    # -- arithmetic ------------------------------------------------------

    def _join(self, other: "Scalar") -> int:
        """Radicand of the common field, promoting to float if either is float."""
        if self.d == FLOAT_KIND or other.d == FLOAT_KIND:
            return FLOAT_KIND
        if self.d == 0:
            return other.d
        if other.d == 0 or other.d == self.d:
            return self.d
        raise FieldMismatchError(f"cannot mix sqrt({self.d}) with sqrt({other.d})")

    def to_float(self) -> float:
        if self.is_float:
            return self.a
        x = float(self.a)
        if self.b:
            x += float(self.b) * math.sqrt(self.d)
        return x

    @staticmethod
    def _coerce(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return Scalar(x)
        if isinstance(x, float):
            return Scalar(x, d=FLOAT_KIND)
        raise TypeError(f"cannot interpret {x!r} as a scalar")

    def __add__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented  # a ComplexScalar operand takes the mixed sum
        if self.d == 0 and other.d == 0:
            return _exact(self.a + other.a)
        d = self._join(other)
        if d == FLOAT_KIND:
            return Scalar(self.to_float() + other.to_float(), d=FLOAT_KIND)
        return _exact(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self):
        if self.d == 0:
            return _exact(-self.a)
        if self.is_float:
            return Scalar(-self.a, d=FLOAT_KIND)
        return _exact(-self.a, -self.b, self.d)

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
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented  # a ComplexScalar operand takes the mixed product
        if self.d == 0:
            if other.d == 0:
                return _exact(self.a * other.a)
            if other.d != FLOAT_KIND:
                # rational * (a + b sqrt(d)): the products with b == 0 vanish
                return _exact(self.a * other.a, self.a * other.b, other.d)
        elif other.d == 0 and self.d != FLOAT_KIND:
            return _exact(self.a * other.a, self.b * other.a, self.d)
        d = self._join(other)
        if d == FLOAT_KIND:
            return Scalar(self.to_float() * other.to_float(), d=FLOAT_KIND)
        a = self.a * other.a + self.b * other.b * d
        b = self.a * other.b + self.b * other.a
        return _exact(a, b, d)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.d == 0:
            if not self.a:
                raise ZeroDivisionError("scalar division by zero")
            return _exact(_F1 / self.a)
        if self.is_float:
            return Scalar(1.0 / self.a, d=FLOAT_KIND)
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            raise ZeroDivisionError("scalar division by zero")
        return _exact(self.a / norm, -self.b / norm, self.d)

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
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        if self.d == 0 and other.d == 0:
            return self.a == other.a
        if self.is_float or other.is_float:
            return abs(self.to_float() - other.to_float()) <= FLOAT_TOLERANCE
        try:
            d = self._join(other)
        except FieldMismatchError:
            return False
        del d
        return self.a == other.a and self.b == other.b

    def __lt__(self, other):
        return (self - self._coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - self._coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - self._coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - self._coerce(other)).sign() >= 0

    def __hash__(self):
        if self.d <= 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return not self.is_zero()

    # -- formatting ------------------------------------------------------

    def __repr__(self):
        return scalar_str(self)

    def __str__(self):
        return scalar_str(self)


_new = object.__new__
_set = object.__setattr__


def _exact(a: Fraction, b: Fraction = _F0, d: int = 0) -> Scalar:
    """``a + b*sqrt(d)`` from closed arithmetic on valid exact operands.

    ``d`` is 0 or a radicand an operand already carried, so coercion and the
    square-free check are skipped; ``b == 0`` collapses to ``d == 0``.
    """
    s = _new(Scalar)
    _set(s, "a", a)
    if b is _F0 or not b:
        _set(s, "b", _F0)
        _set(s, "d", 0)
    else:
        _set(s, "b", b)
        _set(s, "d", d)
    return s


ZERO = Scalar(0)
ONE = Scalar(1)
HALF = Scalar(Fraction(1, 2))


def rational(p, q=1) -> Scalar:
    return Scalar(Fraction(p, q))


def quadratic(a, b, d: int) -> Scalar:
    return Scalar(Fraction(a), Fraction(b), d)


def root(d: int) -> Scalar:
    """sqrt(d) for a square-free integer d >= 2."""
    return Scalar(_F0, _F1, d)


def floating(x: float) -> Scalar:
    return Scalar(x, d=FLOAT_KIND)


def scalar_str(s: Scalar) -> str:
    """Canonical string form: "3/4", "sqrt(2)", "1/2-3/4*sqrt(5)", "float:1.5"."""
    if s.is_float:
        return f"float:{s.a!r}"
    if s.b == 0:
        return str(s.a)
    if s.b == 1:
        radical = f"sqrt({s.d})"
    elif s.b == -1:
        radical = f"-sqrt({s.d})"
    else:
        radical = f"{s.b}*sqrt({s.d})"
    if s.a == 0:
        return radical
    if radical.startswith("-"):
        return f"{s.a}{radical}"
    return f"{s.a}+{radical}"


_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-]?)\s*(?:
        (?P<coef>\d+(?:/\d+)?)\s*\*\s*sqrt\((?P<d1>\d+)\)
        | sqrt\((?P<d2>\d+)\)
        | (?P<rat>\d+(?:/\d+)?)
    )\s*""",
    re.VERBOSE,
)


def parse_scalar(text: str) -> Scalar:
    """Parse the canonical scalar grammar, e.g. "1/2+3/4*sqrt(2)"."""
    text = text.strip()
    if text.startswith("float:"):
        try:
            return floating(float(text[len("float:"):]))
        except ValueError:
            raise ScalarError(f"cannot parse float scalar {text!r}") from None
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
        try:
            if m.group("rat") is not None:
                term = Scalar(Fraction(m.group("rat")))
            elif m.group("d2") is not None:
                term = root(int(m.group("d2")))
            else:
                term = Scalar(_F0, Fraction(m.group("coef")), int(m.group("d1")))
        except ZeroDivisionError:
            raise ScalarError(f"zero denominator in scalar {text!r}") from None
        out = out + (term if sgn > 0 else -term)
        pos = m.end()
        first = False
    return out


class ComplexScalar:
    """Complex number with exact real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=ZERO):
        object.__setattr__(self, "re", Scalar._coerce(re))
        object.__setattr__(self, "im", Scalar._coerce(im))

    def __setattr__(self, *_):
        raise AttributeError("ComplexScalar is immutable")

    @staticmethod
    def _coerce(x) -> "ComplexScalar":
        if isinstance(x, ComplexScalar):
            return x
        return ComplexScalar(Scalar._coerce(x))

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def is_real(self) -> bool:
        return self.im.is_zero()

    def conjugate(self) -> "ComplexScalar":
        return _complex(self.re, -self.im)

    def abs2(self) -> Scalar:
        """|z|^2, a non-negative exact scalar."""
        im = self.im
        if im.d == 0 and not im.a:
            return self.re * self.re
        return self.re * self.re + im * im

    def times_i(self) -> "ComplexScalar":
        return _complex(-self.im, self.re)

    def __add__(self, other):
        other = self._coerce(other)
        return _complex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return _complex(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        re, im, ore, oim = self.re, self.im, other.re, other.im
        # the real lane; a float part keeps the four products, so that it
        # still promotes every part of the result to float
        if re.d != FLOAT_KIND and ore.d != FLOAT_KIND:
            if im.d == 0 and not im.a:
                if oim.d == 0 and not oim.a:
                    return _complex(re * ore, im)
                if oim.d != FLOAT_KIND:
                    return _complex(re * ore, re * oim)
            elif oim.d == 0 and not oim.a and im.d != FLOAT_KIND:
                return _complex(re * ore, im * ore)
        return _complex(re * ore - im * oim, re * oim + im * ore)

    __rmul__ = __mul__

    def inverse(self) -> "ComplexScalar":
        n = self.abs2()
        if n.is_zero():
            raise ZeroDivisionError("complex scalar division by zero")
        ninv = n.inverse()
        im = self.im
        if im.d == 0 and not im.a and ninv.d != FLOAT_KIND:
            return _complex(self.re * ninv, im)
        return _complex(self.re * ninv, -im * ninv)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return complex_str(self)


def _complex(re: Scalar, im: Scalar) -> ComplexScalar:
    """A complex scalar from two parts that are already ``Scalar``s."""
    z = _new(ComplexScalar)
    _set(z, "re", re)
    _set(z, "im", im)
    return z


C_ZERO = ComplexScalar(ZERO)
C_ONE = ComplexScalar(ONE)
C_I = ComplexScalar(ZERO, ONE)


def complex_str(z: ComplexScalar) -> str:
    """Canonical "re" / "i*(im)" / "(re)+i*(im)" string."""
    if z.im.is_zero():
        return scalar_str(z.re)
    if z.re.is_zero():
        return f"i*({scalar_str(z.im)})"
    return f"({scalar_str(z.re)})+i*({scalar_str(z.im)})"


class ScalarField:
    """Declared ground field of a data set: rational, quadratic, or float.

    The float field compares with the fixed ``FLOAT_TOLERANCE``.
    """

    __slots__ = ("kind", "d")

    def __init__(self, kind: str = "rational", d: int = 0):
        if kind not in ("rational", "quadratic", "float"):
            raise ScalarError(f"unknown scalar field kind {kind!r}")
        if kind == "quadratic" and not _is_squarefree(d):
            raise ScalarError(f"quadratic field needs square-free d >= 2, got {d}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "d", d if kind == "quadratic" else 0)

    def __setattr__(self, *_):
        raise AttributeError("ScalarField is immutable")

    def contains(self, s: Scalar) -> bool:
        if self.kind == "float":
            return True
        if s.is_float:
            return False
        if self.kind == "rational":
            return s.d == 0
        return s.d in (0, self.d)

    def coerce(self, s: Scalar) -> Scalar:
        if self.kind == "float" and not s.is_float:
            return floating(s.to_float())
        if not self.contains(s):
            raise FieldMismatchError(f"{s} does not live in {self}")
        return s

    def __eq__(self, other):
        return (
            isinstance(other, ScalarField)
            and self.kind == other.kind
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.kind, self.d))

    def __repr__(self):
        if self.kind == "quadratic":
            return f"ScalarField(quadratic, sqrt({self.d}))"
        if self.kind == "float":
            return f"ScalarField(float, tol={FLOAT_TOLERANCE})"
        return "ScalarField(rational)"


def sign_of(s: Scalar) -> int:
    """Sign of an exact scalar; float scalars route through the tolerance."""
    return s.sign()
