"""Sparse complex exterior algebra over a fixed frame of covectors.

A :class:`Form` of degree k over ``nsym`` frame covectors stores a map from
monomial keys to nonzero complex coefficients.  A key is an int whose bit i
stands for covector i: g^{i_1} ^ ... ^ g^{i_k} has the key
2^{i_1} + ... + 2^{i_k}.  Two monomials share a covector exactly when
``a & b`` is nonzero, they merge as ``a | b``, and dropping covector i is
``key ^ (1 << i)``.  This module alone knows the format: elsewhere keys are
made by :func:`mask` and read by :func:`indices`, and
:meth:`Form.monomial` and :meth:`Form.coefficient` take index sequences.

The evaluation convention carries no 1/k! factors:
``(a^1 ^ ... ^ a^k)(X_1, ..., X_k) = det(a^i(X_j))``, so a basis monomial
evaluates to 1 on its own dual frame vectors, and the coefficient on a key is
the value on those vectors.  The package reads values off coefficients that
way; the evaluator itself, with the frame vectors and the action of I, J, K
on them, lives with the tests (``tests/frame_evaluation.py``).

Integer numerators.  :func:`numerators` writes an exact form as int
numerators over one denominator, ``(d, den, {key: (a, b, c, e)})`` for the
coefficients ((a + b*sqrt(d)) + i*(c + e*sqrt(d))) / den, or gives None for
a float coefficient or two radicands.  It is the one boundary between
numerators and scalar objects: every integer kernel
(:func:`leibniz_differential`, which runs every differential, the metric's
reads of G^-1, the frame's maps) reads its operands with it and makes its
result with :meth:`Form.from_numerators`, a :class:`NumeratorForm`, which
builds its scalar objects (``scalars.complex_from_ints``) only when
``terms`` is read.  What is made from a numerator form keeps numerators too:
its parts (:meth:`Form.restrict`, so :func:`bidegree_project`), its
negation, :meth:`Form.scale` by an exact scalar of its field, and a sum or
difference with a form exact over the same field (over the lcm of the two
denominators), as do the frame's conjugation and J and I actions;
:func:`keep_numerators` makes an exact plain form one (the metric's Omega).
The loop over scalar objects stays for a float coefficient under
``--float``, whose sums must keep their rounding, and for a form whose
radicand differs from the table's, which still raises ``FieldMismatchError``.

A table can also be made from its numerators alone
(:meth:`DerivationTable.from_ints`).  A complex frame builds its tables that
way, with :func:`leibniz_ints` and :func:`substitute_ints`.  It reads a
table on all the monomials of corank two at once with
:func:`corank_two_images`, on the table's scalar objects, as that read runs
once per frame.  A metric's reads of G^-1 use
:func:`substitute_ints`, :func:`contract_ints` and :func:`cofactor_ints`,
``Form.substitute``, ``Form.contract`` and :func:`cofactor_power` on
numerators, so that no other module touches a key's bits.
"""
from __future__ import annotations

import math
from itertools import combinations

from .linalg import add_ints, add_term
from .scalars import (
    C_ONE,
    C_ZERO,
    ComplexScalar,
    complex_from_ints,
    complex_ints,
    mul_ints,
    neg_ints,
)


class DegreeOverflowError(ValueError):
    """Wedge product would exceed the top degree of the frame."""


def _as_coeff(c) -> ComplexScalar:
    return ComplexScalar._coerce(c)


def mask(idx) -> int:
    """The key of the monomial on the distinct indices ``idx``."""
    key = 0
    for i in idx:
        key |= 1 << i
    return key


def indices(key: int) -> tuple:
    """The increasing indices of the monomial with key ``key``."""
    out = []
    while key:
        low = key & -key
        out.append(low.bit_length() - 1)
        key ^= low
    return tuple(out)


def _odd_above(key: int) -> int:
    """The positions with an odd number of bits of ``key`` above them.

    Sorting the monomial ``a`` followed by a disjoint monomial ``b`` swaps
    each bit of ``a`` past every bit of ``b`` below it, so its sign is the
    parity of ``(b & _odd_above(a)).bit_count()``.
    """
    out = 0
    while key:
        low = key & -key
        out ^= low - 1
        key ^= low
    return out


class Form:
    """Invariant differential form with exact complex coefficients."""

    __slots__ = ("nsym", "degree", "terms")
    _num = None   # the numerators a NumeratorForm keeps

    def __init__(self, nsym: int, degree: int, terms: dict | None = None):
        if degree < 0 or degree > nsym:
            raise ValueError(f"degree {degree} out of range for {nsym} symbols")
        self.nsym = nsym
        self.degree = degree
        self.terms = terms or {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nsym: int, degree: int = 0) -> "Form":
        return cls(nsym, degree, {})

    @classmethod
    def monomial(cls, nsym: int, indices, coeff=C_ONE) -> "Form":
        idx = tuple(indices)
        if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
            raise ValueError(f"indices {idx} must be strictly increasing")
        if idx and (idx[0] < 0 or idx[-1] >= nsym):
            raise ValueError(f"indices {idx} out of range")
        c = _as_coeff(coeff)
        return cls(nsym, len(idx), {mask(idx): c} if not c.is_zero() else {})

    @classmethod
    def constant(cls, nsym: int, coeff) -> "Form":
        return cls.monomial(nsym, (), coeff)

    @staticmethod
    def from_numerators(nsym: int, degree: int, d: int, den: int, ints: dict) -> "Form":
        """The form whose :func:`numerators` are ``(d, den, ints)``; no value
        of ``ints`` is all zeros."""
        form = object.__new__(NumeratorForm)
        form.nsym, form.degree, form._num, form._terms = nsym, degree, (d, den, ints), None
        return form

    # -- linear structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def keys(self):
        return (self.terms if self._num is None else self._num[2]).keys()

    def restrict(self, keys) -> "Form":
        """The terms on ``keys``, keys of the form, in that order; a
        :class:`NumeratorForm` keeps its numerators, building no coefficient."""
        if self._num is not None:
            return self.remade({k: self._num[2][k] for k in keys})
        terms = self.terms
        return Form(self.nsym, self.degree, {k: terms[k] for k in keys})

    def coefficient(self, indices) -> ComplexScalar:
        """The coefficient on the monomial of ``indices``; zero unless they
        strictly increase, as no key stands for any other sequence."""
        idx = tuple(indices)
        if any(a >= b for a, b in zip(idx, idx[1:])):
            return C_ZERO
        return self.terms.get(mask(idx), C_ZERO)

    def _check_mate(self, other: "Form"):
        if self.nsym != other.nsym:
            raise ValueError("forms live over different frames")

    def __add__(self, other: "Form") -> "Form":
        return self._sum(other, False)

    def __neg__(self) -> "Form":
        return Form(self.nsym, self.degree, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self._sum(other, True)

    def _sum(self, other: "Form", negate: bool) -> "Form":
        """self + other, or self - other when ``negate``: the terms of self,
        then each term of other added in its order, a key whose sum is an
        exact zero dropped (``add_term``); on numerators over the lcm of the
        two denominators when :func:`_common_numerators` finds them."""
        self._check_mate(other)
        if self.is_zero():
            return -other if negate else other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        both = _common_numerators(self, other)
        if both is not None:
            d, den, mine, ints = both
            out = dict(mine)
            for k, x in ints.items():
                add_ints(out, k, neg_ints(x) if negate else x)
            return Form.from_numerators(self.nsym, self.degree, d, den, out)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            add_term(terms, k, -c if negate else c)
        return Form(self.nsym, self.degree, terms)

    def scale(self, c) -> "Form":
        c = _as_coeff(c)
        if c.is_zero():
            return Form.zero(self.nsym, self.degree)
        if self._num is not None:
            d, den, ints = self._num
            own = complex_ints((c,))
            if own is not None and (not d or not own[0] or d == own[0]):
                d, y = d or own[0], own[2][0]
                # a product of nonzeros of the field Q(sqrt d)(i) is not zero
                return Form.from_numerators(self.nsym, self.degree, d, den * own[1],
                                            {k: mul_ints(x, y, d) for k, x in ints.items()})
        return Form(self.nsym, self.degree, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if self.nsym != other.nsym:
            return False
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        # every zero form is equal to every other, whatever its degree
        terms = self.terms
        return hash((self.nsym, self.degree if terms else None, frozenset(terms.items())))

    # -- multiplicative structure --------------------------------------------

    def wedge(self, other: "Form") -> "Form":
        self._check_mate(other)
        deg = self.degree + other.degree
        if deg > self.nsym:
            raise DegreeOverflowError(
                f"wedge of degrees {self.degree} and {other.degree} "
                f"exceeds top degree {self.nsym}"
            )
        out: dict = {}
        for ka, ca in self.terms.items():
            odd = _odd_above(ka)
            for kb, cb in other.terms.items():
                if ka & kb:
                    continue
                c = ca * cb
                add_term(out, ka | kb, -c if (kb & odd).bit_count() & 1 else c)
        return Form(self.nsym, deg, out)

    def wedge_power(self, k: int) -> "Form":
        if k < 0:
            raise ValueError("negative wedge power")
        out = Form.constant(self.nsym, C_ONE)
        for _ in range(k):
            out = out.wedge(self)
        return out

    def contract(self, vector: dict) -> "Form":
        """Interior product with a vector given by dual-frame coefficients.

        ``vector`` maps frame indices to complex coefficients.  Only the
        indices a key shares with the vector are decoded, so a term whose key
        misses the vector costs one ``&``.
        """
        if self.degree == 0:
            return Form.zero(self.nsym, 0)
        vec: dict = {}
        for idx, v in vector.items():
            v = _as_coeff(v)
            if not v.is_zero():
                vec[idx] = v
        support = mask(vec)
        out: dict = {}
        for key, c in self.terms.items():
            for idx in indices(key & support):
                bit = 1 << idx
                term = vec[idx] * c
                # the sign is (-1)^(number of indices of the key below idx)
                add_term(out, key ^ bit, -term if (key & (bit - 1)).bit_count() & 1 else term)
        return Form(self.nsym, self.degree - 1, out)

    def substitute(self, images) -> "Form":
        """Apply an algebra endomorphism sending generator i to images[i]."""
        out: dict = {}
        for key, c in self.terms.items():
            prod = Form.constant(self.nsym, c)
            for idx in indices(key):
                prod = prod.wedge(images[idx])
                if prod.is_zero():
                    break
            for k, v in prod.terms.items():
                add_term(out, k, v)
        return Form(self.nsym, self.degree, out)

    def map_indices(self, mapping) -> "Form":
        """Signed generator permutation: ``mapping[i] = (new_index, sign)``."""
        out: dict = {}
        for key, c in self.terms.items():
            image = map_key(key, mapping)
            if image is not None:
                add_term(out, image[0], -c if image[1] else c)
        return Form(self.nsym, self.degree, out)

    def map_coefficients(self, fn) -> "Form":
        out = {}
        for k, c in self.terms.items():
            v = fn(c)
            if not v.is_zero():
                out[k] = v
        return Form(self.nsym, self.degree, out)

    # -- display ------------------------------------------------------------

    def format(self, names=None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = [f"g{i + 1}" for i in range(self.nsym)]
        parts = []
        for key in sorted(self.terms, key=indices):
            c = self.terms[key]
            mono = "^".join(names[i] for i in indices(key)) if key else "1"
            parts.append(f"({c})*{mono}" if key else f"({c})")
        return " + ".join(parts)

    def __repr__(self):
        return f"Form[deg {self.degree}: {self.format()}]"


class NumeratorForm(Form):
    """A form made by :meth:`Form.from_numerators`: its numerators are kept,
    and its ``terms`` are built from them on first read."""

    __slots__ = ("_num", "_terms")

    @property
    def terms(self) -> dict:
        if self._terms is None:
            d, den, ints = self._num
            self._terms = {k: complex_from_ints(*x, den, d) for k, x in ints.items()}
        return self._terms

    def is_zero(self) -> bool:
        return not self._num[2]

    def remade(self, ints: dict) -> Form:
        """This form's degree and denominator, with the numerators ``ints``."""
        return Form.from_numerators(self.nsym, self.degree, self._num[0], self._num[1], ints)

    def __neg__(self) -> Form:
        return self.remade({k: neg_ints(x) for k, x in self._num[2].items()})

    def map_indices(self, mapping) -> Form:
        out: dict = {}
        for key, x in self._num[2].items():
            image = map_key(key, mapping)
            if image is not None:
                add_ints(out, image[0], neg_ints(x) if image[1] else x)
        return self.remade(out)

    def __eq__(self, other):
        """Cross-multiplied numerators when ``other`` is a form of the same
        shape, exact over a field of this one; else as :class:`Form` compares."""
        if not isinstance(other, Form) or (self.nsym, self.degree) != (other.nsym, other.degree):
            return Form.__eq__(self, other)
        (d, m, xs), theirs = self._num, numerators(other)
        if theirs is None or (d and theirs[0] and d != theirs[0]):
            return Form.__eq__(self, other)
        _, n, ys = theirs
        return xs.keys() == ys.keys() and all(
            a * n == b * m for key, x in xs.items() for a, b in zip(x, ys[key]))

    __hash__ = Form.__hash__


def keep_numerators(form: Form) -> Form:
    """``form`` as a :class:`NumeratorForm` that keeps its :func:`numerators`
    and shares its terms; ``form`` itself when it keeps them already or is
    not exact over one field."""
    if form._num is not None:
        return form
    own = numerators(form)
    if own is None:
        return form
    kept = Form.from_numerators(form.nsym, form.degree, *own)
    kept._terms = form.terms
    return kept


def numerators(form: Form):
    """``(d, den, {key: (a, b, c, e)})`` of an exact form, in its order: the
    kept ones of a :class:`NumeratorForm` (read only), else ``complex_ints``
    of its terms; None for a float coefficient or two radicands."""
    if form._num is not None:
        return form._num
    terms = form.terms
    own = complex_ints(terms.values())
    return None if own is None else (own[0], own[1], dict(zip(terms, own[2])))


def _common_numerators(a: Form, b: Form):
    """``(d, den, a_ints, b_ints)``: the numerators of ``a`` and ``b`` over
    the lcm ``den`` of their denominators (read only), when one
    of them keeps numerators and both are exact over one field; else None,
    for the scalar objects to sum a float or raise ``FieldMismatchError``."""
    if a._num is None and b._num is None:
        return None
    x, y = numerators(a), numerators(b)
    if x is None or y is None or (x[0] and y[0] and x[0] != y[0]):
        return None
    den = math.lcm(x[1], y[1])
    return x[0] or y[0], den, _over(x, den), _over(y, den)


def _over(own, den: int) -> dict:
    """The numerators ``own[2]`` over ``den``, a multiple of ``own[1]``."""
    f = den // own[1]
    if f == 1:
        return own[2]
    return {k: (a * f, b * f, c * f, e * f) for k, (a, b, c, e) in own[2].items()}


def wedge(a: Form, b: Form) -> Form:
    return a.wedge(b)


def map_key(key: int, mapping):
    """The monomial ``key`` under the generator map ``mapping[i] = (j, sign)``:
    ``(image key, odd)``, the term's sign flipping when ``odd``, or None when
    two generators land on one."""
    image, flips = 0, 0
    while key:
        low = key & -key
        key ^= low
        j, s = mapping[low.bit_length() - 1]
        bit = 1 << j
        if image & bit:
            return None
        # a flip per image already placed above j, and one for a minus sign
        flips += (image >> j).bit_count() + (s < 0)
        image |= bit
    return image, flips & 1


class DerivationTable:
    """The generator 2-forms of one degree-one derivation, compiled once.

    ``forms[k]`` is the image of generator k.  When every coefficient is
    exact over one field, ``lane`` is ``(d, den, entries)``: ``entries[k]``
    lists a tuple ``(key, _odd_above(key), a, b, c, e)`` per term of
    ``forms[k]``, in its order, standing for the coefficient
    ((a + b*sqrt(d)) + i*(c + e*sqrt(d))) / den.  Otherwise ``lane`` is None.

    A table made by :meth:`from_ints` has only the lane at first; ``forms``
    is built from it on first read.
    """

    __slots__ = ("nsym", "lane", "_forms")

    def __init__(self, forms):
        self._forms = tuple(forms)
        self.nsym = self._forms[0].nsym if self._forms else 0
        self.lane = None
        compiled = complex_ints([c for f in self._forms for c in f.terms.values()])
        if compiled is not None:
            d, den, ints = compiled
            ints = iter(ints)
            self.lane = (d, den, [[(key, _odd_above(key), *next(ints)) for key in f.terms]
                                  for f in self._forms])

    @classmethod
    def from_ints(cls, nsym: int, d: int, den: int, rows) -> "DerivationTable":
        """The table whose generator k has the terms ``rows[k]``, a dict from
        keys to numerators (a, b, c, e) over ``den``, in order.  ``d`` is
        dropped when no sqrt(d) part occurs, as ``complex_ints`` finds it."""
        table = cls.__new__(cls)
        table.nsym, table._forms = nsym, None
        if d and not any(x[1] or x[3] for row in rows for x in row.values()):
            d = 0
        # _odd_above of a key of two bits lo < hi is hi - lo, the bits from lo up
        table.lane = (d, den, [[(key, key - ((key & -key) << 1), *x) for key, x in row.items()]
                               for row in rows])
        return table

    @property
    def forms(self) -> tuple:
        if self._forms is None:
            d, den, entries = self.lane
            self._forms = tuple(
                Form.from_numerators(self.nsym, 2, d, den, {key: tuple(x) for key, _, *x in row})
                for row in entries)
        return self._forms

    def __len__(self):
        return len(self.lane[2]) if self._forms is None else len(self._forms)

    def __getitem__(self, k):
        return self.forms[k]

    def __iter__(self):
        return iter(self.forms)


def leibniz_differential(form: Form, table: DerivationTable) -> Form:
    """Apply the degree-one graded derivation with generator 2-forms ``table``.

    A monomial g^{k_1} ^ ... ^ g^{k_m} maps to the sum over positions of
    (-1)^pos (prefix) ^ table[k_pos] ^ (suffix); an even-degree entry commutes
    with the prefix, so each term is (-1)^pos table[k_pos] ^ (the monomial
    without position pos).  A top-degree form maps to zero.

    The integer lane runs when the table is compiled and the form is exact
    over the table's field, and its result keeps its numerators; otherwise
    the scalar objects are multiplied.
    """
    nsym = form.nsym
    if form.degree >= nsym:
        return Form.zero(nsym, form.degree)
    if table.lane is not None:
        d, den, entries = table.lane
        own = numerators(form)
        if own is not None and (not own[0] or not d or own[0] == d):
            d = d or own[0]
            return Form.from_numerators(nsym, form.degree + 1, d, den * own[1],
                                        leibniz_ints(own[2], entries, d))
    return Form(nsym, form.degree + 1, _object_route(form, table.forms))


def _object_route(form: Form, table) -> dict:
    """The derivation's terms, multiplying the scalar objects."""
    out: dict = {}
    for key, c in form.terms.items():
        for pos, idx in enumerate(indices(key)):
            rest = key ^ (1 << idx)
            for tkey, tc in table[idx].terms.items():
                if tkey & rest:
                    continue
                term = tc * c
                flips = pos + (rest & _odd_above(tkey)).bit_count()
                add_term(out, tkey | rest, -term if flips & 1 else term)
    return out


def leibniz_ints(ints: dict, entries, d: int) -> dict:
    """The object route's loop on numerators: the form's ``ints`` by key and
    a table lane's ``entries`` give (a, b, c, e) per key, standing for
    (a + b*sqrt(d)) + i*(c + e*sqrt(d)) over the product of the two
    denominators.

    The sign is folded into the form's ints, and a key whose sum is an exact
    zero is dropped as ``add_term`` drops it, so the keys come out in the
    same order.  Over Q (d = 0) every b and e is zero.
    """
    acc: dict = {}
    for key, (p, q, s, u) in ints.items():
        even, odd = (p, q, s, u), (-p, -q, -s, -u)
        bits = key
        while bits:
            low = bits & -bits
            bits ^= low
            rest = key ^ low
            for tkey, todd, a, b, c, e in entries[low.bit_length() - 1]:
                if tkey & rest:
                    continue
                p, q, s, u = odd if (rest & todd).bit_count() & 1 else even
                # (a + b r + i(c + e r)) (p + q r + i(s + u r)), r = sqrt(d)
                rr, ri = a * p - c * s, a * q - c * u
                ir, ii = a * s + c * p, a * u + c * q
                if b or e:
                    rr += (b * q - e * u) * d
                    ri += b * p - e * s
                    ir += (b * u + e * q) * d
                    ii += b * s + e * p
                k = tkey | rest
                old = acc.get(k)
                if old is not None:
                    rr += old[0]
                    ri += old[1]
                    ir += old[2]
                    ii += old[3]
                    if not (rr or ri or ir or ii):
                        del acc[k]
                        continue
                acc[k] = (rr, ri, ir, ii)
            even, odd = odd, even   # (-1)^pos
    return acc


def corank_two_images(table: DerivationTable, half: int) -> dict:
    """The derivation ``table`` on each monomial z^{[half] minus {r, s}}, read
    off its generator 2-forms (on the first ``half`` generators for k < half,
    as del and del_J are): source key -> the terms of ``leibniz_differential``
    of the monomial, equal key by key and in order.

    A term c z^a ^ z^b of the image of z^k reaches the source S, k in S, only
    when {a, b} misses S minus {k}, that is when {a, b} lies in {k, r, s}.  So
    a term without k reaches the one source {r, s} = {a, b}, landing on
    z^{[half] minus {k}}, and a term {k, o} the half - 2 sources
    {r, s} = {o, t}, t outside {k, o}, landing on z^{[half] minus {t}}.  The
    sign is the kernel's: the position of k in S, plus
    ``(rest & _odd_above(key)).bit_count()`` for rest = S minus {k}.
    Generators and terms go in the kernel's order, each coefficient times the
    monomial's coefficient 1, as the object route multiplies, so each image
    is summed alike, float rounding included.  The images are built once per
    frame, so they are summed on scalar objects for exact and float tables
    alike: summing them on numerators was no faster.
    """
    full = (1 << half) - 1
    images = {mask(idx): {} for idx in combinations(range(half), half - 2)}
    for k in range(half):
        bit = 1 << k
        for key, c in table[k].terms.items():
            odd, other = _odd_above(key), key ^ bit
            term = c * C_ONE   # times the monomial's coefficient, as the kernel multiplies
            for source in ([full ^ other ^ (1 << t) for t in range(half)
                            if t != k and not other >> t & 1] if key & bit else [full ^ key]):
                rest = source ^ bit
                flip = ((source & (bit - 1)).bit_count() + (rest & odd).bit_count()) & 1
                add_term(images[source], key | rest, -term if flip else term)
    return images


def contract_ints(terms: dict, vector: dict, d: int) -> dict:
    """:meth:`Form.contract` on numerators: ``terms`` maps keys and ``vector``
    indices to nonzero (a, b, c, e), each over its own denominator; the
    result is over their product, with the keys in ``contract``'s order."""
    support = mask(vector)
    out: dict = {}
    for key, x in terms.items():
        for idx in indices(key & support):
            bit = 1 << idx
            y = mul_ints(vector[idx], x, d)
            add_ints(out, key ^ bit, neg_ints(y) if (key & (bit - 1)).bit_count() & 1 else y)
    return out


def substitute_ints(forms, images, d: int) -> list:
    """``Form.substitute`` on numerators, for forms of one degree k >= 1.

    ``forms`` lists dicts from keys to (a, b, c, e) over one denominator, in
    each form's order, and ``images[i]`` lists ``(key, a, b, c, e)`` of the
    image of generator i over another; each result is over the first
    denominator times the k-th power of the second.  ``substitute`` wedges a
    term's coefficient v with the images of the term's indices in turn, so
    its product is v times the wedge of those images, and as v is not zero a
    key of the product cancels exactly where it cancels in the wedge alone.
    So the wedge is made once per monomial, and v times it is added in
    ``substitute``'s order: the keys come out in the same order.
    """
    wedges: dict = {}
    out = []
    for form in forms:
        acc: dict = {}
        for key, v in form.items():
            terms = wedges.get(key)
            if terms is None:
                terms = wedges[key] = _wedge_images(key, images, d)
            for k, x in terms.items():
                add_ints(acc, k, mul_ints(v, x, d))
        out.append(acc)
    return out


def _wedge_images(key: int, images, d: int) -> dict:
    """The wedge of the images of the indices of ``key``, in ``Form.wedge``'s order."""
    first, *rest = indices(key)
    prod = {kb: tuple(x) for kb, *x in images[first]}
    for i in rest:
        nxt: dict = {}
        for ka, x in prod.items():
            odd = _odd_above(ka)
            for kb, *y in images[i]:
                if not ka & kb:
                    x_y = mul_ints(x, y, d)
                    add_ints(nxt, ka | kb, neg_ints(x_y) if (kb & odd).bit_count() & 1 else x_y)
        prod = nxt
        if not prod:
            break
    return prod


# -- bidegree bookkeeping with respect to a complex frame -------------------
#
# Frame layout: indices 0..N-1 are the holomorphic covectors z^1..z^N and
# indices N..2N-1 their conjugates, N = 2n.


def bidegree_of_key(key: int, half: int):
    p = (key & ((1 << half) - 1)).bit_count()
    return p, key.bit_count() - p


def bidegree_split(form: Form, half: int) -> dict:
    """Decompose into (p, q) components; the parts sum back to the form."""
    parts: dict = {}
    for key, c in form.terms.items():
        pq = bidegree_of_key(key, half)
        parts.setdefault(pq, {})[key] = c
    return {pq: Form(form.nsym, form.degree, terms) for pq, terms in parts.items()}


def bidegree_project(form: Form, half: int, p: int, q: int) -> Form:
    """The (p, q) part, on numerators when the form keeps them (``Form.restrict``)."""
    return form.restrict([key for key in form.keys() if bidegree_of_key(key, half) == (p, q)])


def pure_bidegree(form: Form, half: int):
    """The (p, q) type of a nonzero form of pure bidegree, else None."""
    pq = None
    for key in form.keys():
        cur = bidegree_of_key(key, half)
        if pq is None:
            pq = cur
        elif cur != pq:
            return None
    return pq


# -- powers of a (2,0)-form -----------------------------------------------


def cofactor_power(pf: ComplexScalar, inverse, nsym: int) -> Form:
    """Omega^{m-1} / (m-1)! of a nondegenerate Omega = sum_{r<s} A[r][s] z^r ^ z^s.

    ``pf`` is Pf(A) and ``inverse`` the full matrix A^-1, of size 2m.
    Expanding the (m-1)-fold wedge, a (2m-2)-subset S of indices collects one
    term per ordered perfect matching of S into pairs, each signed by the
    permutation that sorts it: (m-1)! Pf(A_S) in all.  So the coefficient on
    z^{[2m] minus {r, s}} is the complementary Pfaffian Pf(A_{rs}^c).
    Expanding Pf(A) along row r gives the coefficient of the variable
    A[r][s] (r < s) in Pf(A) as (-1)^{r+s-1} Pf(A_{rs}^c), 0-based;
    Jacobi's formula d Pf = (1/2) Pf tr(A^-1 dA), with dA[r][s] = -dA[s][r],
    gives it as -Pf(A) (A^-1)[r][s].  Hence Pf(A_{rs}^c) = (-1)^{r+s} Pf(A) (A^-1)[r][s]:
    minus where r + s is odd.
    """
    size = len(inverse)
    full = (1 << size) - 1
    terms = {}
    for r in range(size):
        row = inverse[r]
        for s in range(r + 1, size):
            c = row[s]
            if not c.is_zero():
                c = c * pf
                terms[full ^ (1 << r) ^ (1 << s)] = -c if (r + s) % 2 else c
    return Form(nsym, size - 2, terms)


def cofactor_ints(scale, inverse, d: int) -> dict:
    """:func:`cofactor_power` on numerators, times ``scale``: ``inverse[r]``
    maps s to the nonzero numerators of A^-1[r][s], and ``scale`` stands for
    Pf(A) times any factor, over another denominator.  Returns the
    coefficients by key, over the product, in ``cofactor_power``'s order."""
    size = len(inverse)
    full = (1 << size) - 1
    terms = {}
    for r in range(size):
        row = inverse[r]
        for s in range(r + 1, size):
            x = row.get(s)
            if x is not None:
                x = mul_ints(x, scale, d)
                terms[full ^ (1 << r) ^ (1 << s)] = neg_ints(x) if (r + s) % 2 else x
    return terms
