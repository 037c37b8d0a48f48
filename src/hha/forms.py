"""Sparse complex exterior algebra over a fixed frame of covectors.

A :class:`Form` of degree k over ``nsym`` frame covectors stores a map from
strictly increasing index tuples to nonzero complex coefficients.  The
evaluation convention carries no 1/k! factors:
``(a^1 ^ ... ^ a^k)(X_1, ..., X_k) = det(a^i(X_j))``, so a basis monomial
evaluates to 1 on its own dual frame vectors.
"""
from __future__ import annotations

from .scalars import C_ONE, C_ZERO, ComplexScalar

Key = tuple


class DegreeOverflowError(ValueError):
    """Wedge product would exceed the top degree of the frame."""


def _as_coeff(c) -> ComplexScalar:
    return ComplexScalar._coerce(c)


def _merge_keys(ka: Key, kb: Key):
    """Merge two sorted index tuples; returns (merged, sign) or (None, 0)."""
    if not ka:
        return kb, 1
    if not kb:
        return ka, 1
    out = []
    i = j = 0
    flips = 0
    la, lb = len(ka), len(kb)
    while i < la and j < lb:
        x, y = ka[i], kb[j]
        if x == y:
            return None, 0
        if x < y:
            out.append(x)
            i += 1
        else:
            out.append(y)
            j += 1
            flips += la - i
    out.extend(ka[i:])
    out.extend(kb[j:])
    return tuple(out), (-1 if flips & 1 else 1)


class Form:
    """Invariant differential form with exact complex coefficients."""

    __slots__ = ("nsym", "degree", "terms")

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
        return cls(nsym, len(idx), {idx: c} if not c.is_zero() else {})

    @classmethod
    def constant(cls, nsym: int, coeff) -> "Form":
        return cls.monomial(nsym, (), coeff)

    # -- linear structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, indices) -> ComplexScalar:
        return self.terms.get(tuple(indices), C_ZERO)

    def _check_mate(self, other: "Form"):
        if self.nsym != other.nsym:
            raise ValueError("forms live over different frames")

    def __add__(self, other: "Form") -> "Form":
        self._check_mate(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        terms = dict(self.terms)
        for k, c in other.terms.items():
            acc = terms.get(k)
            s = c if acc is None else acc + c
            if s.is_zero():
                terms.pop(k, None)
            else:
                terms[k] = s
        return Form(self.nsym, self.degree, terms)

    def __neg__(self) -> "Form":
        return Form(self.nsym, self.degree, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def scale(self, c) -> "Form":
        c = _as_coeff(c)
        if c.is_zero():
            return Form.zero(self.nsym, self.degree)
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
        return hash((self.nsym, self.degree, frozenset(self.terms.items())))

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
            for kb, cb in other.terms.items():
                merged, sign = _merge_keys(ka, kb)
                if merged is None:
                    continue
                c = ca * cb
                if sign < 0:
                    c = -c
                acc = out.get(merged)
                s = c if acc is None else acc + c
                if s.is_zero():
                    out.pop(merged, None)
                else:
                    out[merged] = s
        return Form(self.nsym, deg, out)

    def __xor__(self, other):
        return self.wedge(other)

    def wedge_power(self, k: int) -> "Form":
        if k < 0:
            raise ValueError("negative wedge power")
        out = Form.constant(self.nsym, C_ONE)
        for _ in range(k):
            out = out.wedge(self)
        return out

    def contract(self, vector) -> "Form":
        """Interior product with a vector given by dual-frame coefficients.

        ``vector`` maps frame indices to complex coefficients (dict or seq).
        """
        if self.degree == 0:
            return Form.zero(self.nsym, 0)
        get = vector.get if isinstance(vector, dict) else lambda i, _=None: _seq_get(vector, i)
        out: dict = {}
        for key, c in self.terms.items():
            for pos, idx in enumerate(key):
                v = get(idx, None) if isinstance(vector, dict) else get(idx)
                if v is None:
                    continue
                v = _as_coeff(v)
                if v.is_zero():
                    continue
                newkey = key[:pos] + key[pos + 1:]
                term = v * c
                if pos & 1:
                    term = -term
                acc = out.get(newkey)
                s = term if acc is None else acc + term
                if s.is_zero():
                    out.pop(newkey, None)
                else:
                    out[newkey] = s
        return Form(self.nsym, self.degree - 1, out)

    def evaluate(self, vectors) -> ComplexScalar:
        """Evaluate the form on a list of vectors (multilinear, alternating)."""
        if len(vectors) != self.degree:
            raise ValueError("number of vectors must equal the degree")
        cur = self
        for v in vectors:
            cur = cur.contract(v)
        return cur.coefficient(())

    def substitute(self, images) -> "Form":
        """Apply an algebra endomorphism sending generator i to images[i]."""
        out = Form.zero(self.nsym, self.degree)
        for key, c in self.terms.items():
            prod = Form.constant(self.nsym, c)
            for idx in key:
                prod = prod.wedge(images[idx])
                if prod.is_zero():
                    break
            if not prod.is_zero():
                out = out + prod
        return out

    def map_indices(self, mapping) -> "Form":
        """Signed generator permutation: ``mapping[i] = (new_index, sign)``."""
        out: dict = {}
        for key, c in self.terms.items():
            imgs = [mapping[i] for i in key]
            sign = 1
            for _, s in imgs:
                sign *= s
            idx = [i for i, _ in imgs]
            perm_sign, sorted_idx = _sort_sign(idx)
            if perm_sign == 0:
                continue
            sign *= perm_sign
            cc = c if sign > 0 else -c
            k = tuple(sorted_idx)
            acc = out.get(k)
            s = cc if acc is None else acc + cc
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
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
        for key in sorted(self.terms):
            c = self.terms[key]
            mono = "^".join(names[i] for i in key) if key else "1"
            parts.append(f"({c})*{mono}" if key else f"({c})")
        return " + ".join(parts)

    def __repr__(self):
        return f"Form[deg {self.degree}: {self.format()}]"


def _seq_get(seq, i):
    return seq[i] if 0 <= i < len(seq) else None


def _sort_sign(idx: list):
    """Parity sort of a small index list; sign 0 when indices repeat."""
    sign = 1
    a = list(idx)
    n = len(a)
    for i in range(1, n):
        j = i
        while j > 0 and a[j - 1] > a[j]:
            a[j - 1], a[j] = a[j], a[j - 1]
            sign = -sign
            j -= 1
    for i in range(n - 1):
        if a[i] == a[i + 1]:
            return 0, a
    return sign, a


def wedge(a: Form, b: Form) -> Form:
    return a.wedge(b)


def endo_action(matrix, form: Form) -> Form:
    """Pullback of a frame-coordinate form by an endomorphism.

    ``matrix`` acts on vectors (columns are images of the frame vectors);
    the induced action on a k-form evaluates the form on transformed
    arguments, i.e. each covector g^i maps to sum_j matrix[i][j] g^j.
    """
    images = []
    for i in range(form.nsym):
        terms = {}
        for j in range(form.nsym):
            c = _as_coeff(matrix[i][j])
            if not c.is_zero():
                terms[(j,)] = c
        images.append(Form(form.nsym, 1, terms))
    return form.substitute(images)


def leibniz_differential(form: Form, table) -> Form:
    """Apply the degree-one graded derivation with generator 2-forms ``table``.

    A monomial g^{k_1} ^ ... ^ g^{k_m} maps to the sum over positions of
    (-1)^pos (prefix) ^ table[k_pos] ^ (suffix); an even-degree entry commutes
    with the prefix, so each term is (-1)^pos table[k_pos] ^ (the monomial
    without position pos).  A top-degree form maps to zero.
    """
    nsym = form.nsym
    if form.degree >= nsym:
        return Form.zero(nsym, form.degree)
    out: dict = {}
    for key, c in form.terms.items():
        for pos, idx in enumerate(key):
            rest = key[:pos] + key[pos + 1:]
            for tkey, tc in table[idx].terms.items():
                merged, sign = _merge_keys(tkey, rest)
                if merged is None:
                    continue
                term = tc * c if (sign > 0) == (pos % 2 == 0) else -(tc * c)
                acc = out.get(merged)
                s = term if acc is None else acc + term
                if s.is_zero():
                    out.pop(merged, None)
                else:
                    out[merged] = s
    return Form(nsym, form.degree + 1, out)


# -- bidegree bookkeeping with respect to a complex frame -------------------
#
# Frame layout: indices 0..N-1 are the holomorphic covectors z^1..z^N and
# indices N..2N-1 their conjugates, N = 2n.


def bidegree_of_key(key: Key, half: int):
    p = 0
    for i in key:
        if i < half:
            p += 1
    return p, len(key) - p


def bidegree_split(form: Form, half: int) -> dict:
    """Decompose into (p, q) components; the parts sum back to the form."""
    parts: dict = {}
    for key, c in form.terms.items():
        pq = bidegree_of_key(key, half)
        parts.setdefault(pq, {})[key] = c
    return {pq: Form(form.nsym, form.degree, terms) for pq, terms in parts.items()}


def bidegree_project(form: Form, half: int, p: int, q: int) -> Form:
    terms = {
        key: c
        for key, c in form.terms.items()
        if bidegree_of_key(key, half) == (p, q)
    }
    return Form(form.nsym, form.degree, terms)


def pure_bidegree(form: Form, half: int):
    """The (p, q) type of a nonzero form of pure bidegree, else None."""
    pq = None
    for key in form.terms:
        cur = bidegree_of_key(key, half)
        if pq is None:
            pq = cur
        elif cur != pq:
            return None
    return pq


# -- skew matrices and Pfaffians --------------------------------------------


class SkewMatrix:
    """Strictly-upper-triangular storage of a skew 2k x 2k complex matrix.

    Encodes a (2,0)-form as ``sum_{i<j} A[i][j] z^i ^ z^j`` (0-based indices).
    """

    __slots__ = ("size", "entries")

    def __init__(self, size: int, entries: dict | None = None):
        self.size = size
        self.entries = {}
        if entries:
            for (i, j), c in entries.items():
                if not (0 <= i < j < size):
                    raise ValueError(f"entry ({i},{j}) not strictly upper triangular")
                c = _as_coeff(c)
                if not c.is_zero():
                    self.entries[(i, j)] = c

    def __getitem__(self, ij):
        i, j = ij
        if i == j:
            return C_ZERO
        if i < j:
            return self.entries.get((i, j), C_ZERO)
        c = self.entries.get((j, i))
        return C_ZERO if c is None else -c

    def full(self):
        return [[self[i, j] for j in range(self.size)] for i in range(self.size)]

    @classmethod
    def from_form(cls, form: Form, half: int | None = None) -> "SkewMatrix":
        """Read a (2,0)-form over the holomorphic half of a complex frame."""
        size = half if half is not None else form.nsym
        if form.degree != 2:
            raise ValueError("skew matrix needs a 2-form")
        entries = {}
        for (i, j), c in form.terms.items():
            if j >= size:
                raise ValueError("form has components outside the holomorphic block")
            entries[(i, j)] = c
        return cls(size, entries)

    def to_form(self, nsym: int) -> Form:
        terms = {key: c for key, c in self.entries.items()}
        return Form(nsym, 2, dict(terms))

    def pfaffian(self) -> ComplexScalar:
        return pfaffian(self.full())

    def __eq__(self, other):
        return (
            isinstance(other, SkewMatrix)
            and self.size == other.size
            and self.entries == other.entries
        )


def pfaffian(matrix) -> ComplexScalar:
    """Pfaffian of a full skew-symmetric matrix of complex scalars.

    Normalised so the direct sum of [[0, a_i], [-a_i, 0]] blocks gives
    ``prod a_i``.  Odd sizes raise.
    """
    m = len(matrix)
    if m % 2 != 0:
        raise ValueError("Pfaffian needs an even-dimensional matrix")
    if m == 0:
        return C_ONE
    work = [[_as_coeff(matrix[i][j]) for j in range(m)] for i in range(m)]
    sign = 1
    result = C_ONE
    while len(work) > 2:
        k = len(work)
        piv = None
        for j in range(1, k):
            if not work[0][j].is_zero():
                piv = j
                break
        if piv is None:
            return C_ZERO
        if piv != 1:
            for row in work:
                row[1], row[piv] = row[piv], row[1]
            work[1], work[piv] = work[piv], work[1]
            sign = -sign
        a = work[0][1]
        result = result * a
        v = work[0][2:]
        w = work[1][2:]
        ainv = a.inverse()
        # the Schur update of entry (r, s) vanishes unless row r and column s
        # meet the pivot pair: skip the indices where v and w are both zero
        live = [s for s in range(k - 2) if not (v[s].is_zero() and w[s].is_zero())]
        nxt = [row[2:] for row in work[2:]]
        for r in live:
            vr, wr, row = v[r], w[r], nxt[r]
            for s in live:
                row[s] = row[s] - (vr * w[s] - wr * v[s]) * ainv
        work = nxt
    result = result * work[0][1]
    return result if sign > 0 else -result
