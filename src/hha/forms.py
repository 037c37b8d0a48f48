"""Sparse complex exterior algebra over a fixed frame of covectors.

A :class:`Form` of degree k over ``nsym`` frame covectors stores a map from
strictly increasing index tuples to nonzero complex coefficients.  The
evaluation convention carries no 1/k! factors:
``(a^1 ^ ... ^ a^k)(X_1, ..., X_k) = det(a^i(X_j))``, so a basis monomial
evaluates to 1 on its own dual frame vectors, and the coefficient on a key is
the value on those vectors.  The package reads values off coefficients that
way; the evaluator itself, with the frame vectors and the action of I, J, K
on them, lives with the tests (``tests/frame_evaluation.py``).
"""
from __future__ import annotations

from .linalg import add_term
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
            add_term(terms, k, c)
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
                add_term(out, merged, c if sign > 0 else -c)
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

        ``vector`` maps frame indices to complex coefficients.
        """
        if self.degree == 0:
            return Form.zero(self.nsym, 0)
        out: dict = {}
        for key, c in self.terms.items():
            for pos, idx in enumerate(key):
                v = vector.get(idx)
                if v is None:
                    continue
                v = _as_coeff(v)
                if v.is_zero():
                    continue
                term = v * c
                add_term(out, key[:pos] + key[pos + 1:], -term if pos & 1 else term)
        return Form(self.nsym, self.degree - 1, out)

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
            add_term(out, tuple(sorted_idx), c if sign > 0 else -c)
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
                term = tc * c
                add_term(out, merged, term if (sign > 0) == (pos % 2 == 0) else -term)
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
    full = tuple(range(size))
    terms = {}
    for r in range(size):
        row = inverse[r]
        for s in range(r + 1, size):
            c = row[s]
            if not c.is_zero():
                c = c * pf
                terms[full[:r] + full[r + 1:s] + full[s + 1:]] = -c if (r + s) % 2 else c
    return Form(nsym, size - 2, terms)
