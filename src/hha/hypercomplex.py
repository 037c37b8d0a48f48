"""Hypercomplex structures, adapted complex frames, and split differentials.

A structure is a pair of anticommuting complex-structure endomorphisms
``(I, J)`` with ``K = IJ``, each held as its sparse columns over the
algebra's real basis; the action on a k-form is pullback,
``(L eta)(X_1, ..., X_k) = eta(L X_1, ..., L X_k)``.

Each structure has a deterministic adapted basis
``u_1, u_2, ... `` assembled in quadruples ``(v, Iv, Jv, Kv)`` greedily over
the original basis; the elimination that chooses it also gives its dual
coframe u^a, from which the adapted frame takes its holomorphic covectors
``z^r = u^{2r-1} + i u^{2r}``.  The standard structure's basis and coframe
are the identity, written without the elimination.
In this frame ``J z^{2i-1} = -conj(z^{2i})`` always holds, so the index
bookkeeping of the standard block convention applies verbatim.

d, del, delbar, del_J = J^{-1} delbar J and delbar_J = J^{-1} del J are
graded derivations of degree one, so each is fixed by one table of its values
on the 2N frame generators, applied by ``forms.leibniz_differential``.  As I
is integrable (``Geometry`` checks it), d z^k has no (0,2) part, so del and
delbar of a generator of type (p, q) are the (p+1, q) and (p, q+1) parts of
its d.  d is a real operator, so d conj(z^r) = conj(d z^r) and only the N
holomorphic generators are differentiated.  The pullback J* is a signed
permutation of the generators and an algebra automorphism, so J^{-1} D J is
a derivation when D is one.

Each of the five tables is compiled from the algebra's structure constants
on its first use, so classification never builds delbar_J's: d z^r is read
off the int lane of the algebra's d table and the numerators of the
frame's two image tables, read off its coframe and basis
(``ComplexFrame._image_ints``), and the other tables are splits and
signed permutations of its keys, so no ``Form`` arithmetic runs.  The
``Form`` route (``to_complex`` of the CE differential) remains only for
what the ints cannot stand for: float coefficients, and a
frame whose radicand differs from the algebra's, which raises
``FieldMismatchError``.  del and del_J of the (N-2, 0) monomials, the systems
of the q-strongly-Gauduchon test, are read once per frame off their tables.
"""
from __future__ import annotations

import itertools
from functools import cached_property

from .forms import (
    DerivationTable,
    Form,
    NumeratorForm,
    bidegree_of_key,
    corank_two_images,
    indices,
    leibniz_differential,
    leibniz_ints,
    map_key,
    mask,
    numerators,
    substitute_ints,
)
from .liealg import LieAlgebraData, wire_vector
from .linalg import _apply, _columns, add_ints, add_scaled, add_term, echelon_add
from .scalars import (
    C_ONE,
    ComplexScalar,
    HALF,
    ONE,
    Scalar,
    ZERO,
    mul_ints,
    neg_ints,
    real_ints,
)


class StructureError(ValueError):
    pass


class IntegrabilityError(StructureError):
    """Nijenhuis tensor fails to vanish; carries the violating pair."""

    def __init__(self, label: str, i: int, j: int, value):
        self.pair = (i + 1, j + 1)
        super().__init__(
            f"structure {label} is not integrable on (e{i + 1}, e{j + 1}): "
            f"Nijenhuis value {wire_vector(value)}"
        )


class SpherePoint:
    """Exact point (a, b, c) on the unit two-sphere."""

    __slots__ = ("_a", "_b", "_c")

    def __init__(self, a, b, c):
        a, b, c = (Scalar._coerce(x) for x in (a, b, c))
        if a * a + b * b + c * c != ONE:
            raise StructureError(f"({a}, {b}, {c}) is not a unit vector")
        self._a, self._b, self._c = a, b, c

    @property
    def a(self) -> Scalar:
        return self._a

    @property
    def b(self) -> Scalar:
        return self._b

    @property
    def c(self) -> Scalar:
        return self._c

    def dot(self, other: "SpherePoint") -> Scalar:
        return self.a * other.a + self.b * other.b + self.c * other.c

    def __repr__(self):
        return f"SpherePoint({self.a}, {self.b}, {self.c})"


class HypercomplexStructure:
    """Anticommuting pair (I, J) of complex structures with K = IJ.

    The state is ``columns``: for L in I, J and K, ``columns[L][j]`` is
    L e_j as a sparse dict (``linalg._columns``), read by every check on the
    structure, by the frame and by the constructions.  ``__init__`` takes
    the dense matrices I and J of the exchange format, and
    :meth:`from_columns` their columns; both check I^2 = J^2 = -1 and
    IJ = -JI on the columns, and eliminate for the :attr:`adapted_basis` on
    its first read.  :meth:`standard` writes its known columns and its
    adapted basis, the identity, directly, and marks the structure
    ``is_standard``, so that its frame writes its image tables too.
    """

    is_standard = False   # made by :meth:`standard`, not by the columns

    def __init__(self, I, J):
        self._set_columns(_columns(I), _columns(J))

    @classmethod
    def from_columns(cls, cols_i: list, cols_j: list) -> "HypercomplexStructure":
        """The structure whose I and J have the sparse columns given."""
        H = cls.__new__(cls)
        H._set_columns(cols_i, cols_j)
        return H

    def _set_columns(self, cols_i: list, cols_j: list) -> None:
        """Check the relations on the columns of I and J, and keep them with
        those of K = IJ."""
        self.dim = len(cols_i)
        if self.dim % 4 != 0:
            raise StructureError("dimension must be a multiple of 4")
        minus_one = -ONE
        minus_id = [{k: minus_one} for k in range(self.dim)]
        if [_apply(cols_i, c) for c in cols_i] != minus_id:
            raise StructureError("I^2 != -Id")
        if [_apply(cols_j, c) for c in cols_j] != minus_id:
            raise StructureError("J^2 != -Id")
        cols_k = [_apply(cols_i, c) for c in cols_j]
        if [_apply(cols_j, c) for c in cols_i] != [{k: -x for k, x in c.items()} for c in cols_k]:
            raise StructureError("I and J do not anticommute")
        self.columns = {"I": cols_i, "J": cols_j, "K": cols_k}

    @cached_property
    def adapted_basis(self) -> tuple:
        """``(basis, coframe)``: the real basis u_a in quadruples (v, Iv, Jv, Kv),
        v running greedily over the e_i outside the span so far, and its dual
        coframe, ``coframe[a][p] = u^a(e_p)``.  ``linalg.echelon_add`` reduces
        each [u_a | t_a], t_a a tag at column dim + a: e_i lies in the span
        when no key below dim is left of it, and at the end row p is
        [e_p | sum_a u^a(e_p) t_a], so the coframe is read off the tags."""
        dim, rows, basis = self.dim, {}, []
        for i in range(dim):
            if i in rows and all(k == i or k >= dim for k in rows[i]):
                continue   # e_i reduces to minus the rest of row i, all tags
            for vec in ({i: ONE}, *(self.columns[label][i] for label in ("I", "J", "K"))):
                if echelon_add(rows, {**vec, dim + len(basis): ONE}) >= dim:
                    raise StructureError("quaternionic block failed to extend the span")
                basis.append(dict(vec))
            if len(basis) == dim:
                break
        coframe: list = [{} for _ in range(dim)]
        for p in range(dim):
            for k, x in rows[p].items():
                if k >= dim:
                    coframe[k - dim][p] = x
        return basis, coframe

    @classmethod
    def standard(cls, n: int) -> "HypercomplexStructure":
        """The block convention: per quadruple (e1, e2, e3, e4),
        I: e1->e2, e2->-e1, e3->e4, e4->-e3 and J: e1->e3, e2->-e4, e3->-e1, e4->e2,
        so K = IJ: e1->e4, e2->e3, e3->-e2, e4->-e1.  The relations hold on
        these constants, so the columns are set without the check of
        :meth:`from_columns`.  Per block v = e1 has Iv = e2, Jv = e3 and
        Kv = e4, so the elimination of :attr:`adapted_basis` would keep every
        e_i: the basis and its coframe are both the identity, and are set
        without it.  The frame of this structure writes its image tables
        (:meth:`ComplexFrame._image_ints`); a structure made from the same
        columns by :meth:`from_columns` eliminates and reads them."""
        minus = -ONE
        cols_i, cols_j, cols_k = [], [], []
        for b in range(0, 4 * n, 4):
            cols_i += [{b + 1: ONE}, {b: minus}, {b + 3: ONE}, {b + 2: minus}]
            cols_j += [{b + 2: ONE}, {b + 3: minus}, {b: minus}, {b + 1: ONE}]
            cols_k += [{b + 3: ONE}, {b + 2: ONE}, {b + 1: minus}, {b: minus}]
        H = cls.__new__(cls)
        H.dim = 4 * n
        H.columns = {"I": cols_i, "J": cols_j, "K": cols_k}
        H.adapted_basis = ([{i: ONE} for i in range(H.dim)], [{i: ONE} for i in range(H.dim)])
        H.is_standard = True
        return H

    def combo(self, p: SpherePoint) -> list:
        """Sparse columns of aI + bJ + cK, each sorted by row."""
        out = []
        for j in range(self.dim):
            col: dict = {}
            for label, s in (("I", p.a), ("J", p.b), ("K", p.c)):
                add_scaled(col, s, self.columns[label][j])
            out.append(dict(sorted(col.items())))
        return out

    def rotate_pair(self, p: SpherePoint, q: SpherePoint) -> "HypercomplexStructure":
        """New anticommuting pair (p.(I,J,K), q.(I,J,K)); p and q must be orthogonal."""
        if not p.dot(q).is_zero():
            raise StructureError("sphere points must be orthogonal")
        return HypercomplexStructure.from_columns(self.combo(p), self.combo(q))


def _nijenhuis(d: LieAlgebraData, cols: list, i: int, j: int) -> dict:
    """N_L(e_i, e_j) = [Le_i, Le_j] - L[Le_i, e_j] - L[e_i, Le_j] - [e_i, e_j]."""
    out = d.bracket(cols[i], cols[j])
    for vec in (_apply(cols, d.bracket(cols[i], {j: ONE})),
                _apply(cols, d.bracket({i: ONE}, cols[j])), d.bracket_basis(i, j)):
        for k, c in vec.items():
            add_term(out, k, -c)
    return out


def _coframe_integrable(d: LieAlgebraData, columns: dict):
    """{label: whether N_L = 0} for the structures L of ``columns``, decided
    on the coframe; None unless the structure constants and L are exact over
    one field.

    With d theta(X, Y) = -theta([X, Y]), theta(N_L(X, Y)) = d theta(X, Y)
    - d theta(LX, LY) + d(L*theta)(LX, Y) + d(L*theta)(X, LY), where
    (L*theta)(X) = theta(LX): the 2-form d theta - L*(d theta) + D_L d(L*theta),
    D_L the derivation extending L* on 1-forms.  So N_L = 0 exactly when it
    vanishes for every theta = e^k (Salamon's d(Lambda^{1,0}) in
    Lambda^{2,0} + Lambda^{1,1}, J. Pure Appl. Algebra 157, 2001, in real
    form).  Each term w e^i ^ e^j of each d e^m (the algebra's int table) is
    pushed through the nonzeros of L, L* e^i = sum_a L[i][a] e^a and
    d(L* e^k) = sum_m L[k][m] d e^m, into ``acc[k, a, b]``, a coefficient of
    e^a (x) e^b in the k-th 2-form, on numerators over den(d e) den(L)^2.  As
    e^a ^ e^b = e^a (x) e^b - e^b (x) e^a, a term -x on e^a ^ e^b is kept as
    x on e^b (x) e^a, and the 2-form vanishes exactly when ``acc`` is
    symmetric.
    """
    lane = d._d_table.lane
    own = real_ints([x for cols in columns.values() for col in cols for x in col.values()])
    if lane is None or own is None or (lane[0] and own[0] and lane[0] != own[0]):
        return None
    rad, scale = lane[0] or own[0], (own[1] ** 2, 0, 0, 0)
    forms = [[(*indices(key), x) for key, _, *x in row] for row in lane[2]]
    ints, verdicts = iter(own[2]), {}
    for label, cols in columns.items():
        cols_ints = [[(k, next(ints)) for k in col] for col in cols]
        rows: list = [[] for _ in cols]            # rows[i]: (a, L[i][a])
        for a, col in enumerate(cols_ints):
            for i, x in col:
                rows[i].append((a, x))
        acc: dict = {}
        for m, terms in enumerate(forms):
            for i, j, w in terms:
                add_ints(acc, (m, i, j), mul_ints(w, scale, rad))      # d e^m
                for a, x in rows[i]:                                   # -L*(d e^m)
                    wx = mul_ints(w, x, rad)
                    for b, y in rows[j]:
                        add_ints(acc, (m, b, a), mul_ints(wx, y, rad))
                for k, x in cols_ints[m]:                              # D_L d(L* e^k)
                    wx = mul_ints(w, x, rad)
                    for a, y in rows[i]:
                        add_ints(acc, (k, a, j), mul_ints(wx, y, rad))
                    for b, y in rows[j]:
                        add_ints(acc, (k, i, b), mul_ints(wx, y, rad))
        verdicts[label] = all(acc.get((k, b, a)) == x for (k, a, b), x in acc.items())
    return verdicts


def validate_hypercomplex(d: LieAlgebraData, H: HypercomplexStructure) -> dict:
    """Check the algebraic relations and integrability of I, J (and K).

    Vanishing of the Nijenhuis tensor for two anticommuting structures
    suffices for the whole sphere; K is checked anyway as a third sample.
    Each N_L is decided on the coframe (:func:`_coframe_integrable`), for I,
    J and K in that order; only a label that fails there, or any label when
    it cannot run, scans the basis pairs in order, so that the
    ``IntegrabilityError`` names the first failing pair and its value.
    Returns a small certificate dict.
    """
    if H.dim != d.dim:
        raise StructureError("structure dimension does not match the algebra")
    verdicts = _coframe_integrable(d, H.columns) or {}
    for label, cols in H.columns.items():
        if not verdicts.get(label):
            for i, j in itertools.combinations(range(d.dim), 2):
                res = _nijenhuis(d, cols, i, j)
                if res:
                    raise IntegrabilityError(label, i, j, res)
    return {"relations": "ok", "nijenhuis": dict.fromkeys(H.columns, "integrable")}


def is_abelian(d: LieAlgebraData, H: HypercomplexStructure) -> bool:
    """:meth:`ComplexFrame.is_abelian` of the structure's frame."""
    return ComplexFrame(d, H).is_abelian()


def j_index(h: int) -> tuple:
    """(P(h), s(h)) with J z^h = s(h) conj(z^{P(h)}), h a 0-based holomorphic index.

    P swaps 2i and 2i+1, and s is -1 on even and +1 on odd indices.  The same
    signed permutation reads the skew matrix A of a (2,0)-form off its
    Hermitian matrix G: A[r][t] = s(t) G[r][P(t)].
    """
    return (h + 1, -1) if h % 2 == 0 else (h - 1, 1)


class ComplexFrame:
    """Adapted frame for a hypercomplex structure over a fixed algebra.

    Frame covector indices: 0..N-1 are holomorphic (z^1..z^N), N..2N-1 their
    conjugates, with N = dim/2; pairs (z^{2i-1}, z^{2i}) span a quaternionic
    block, J z^{2i-1} = -conj(z^{2i}).

    ``basis`` is the structure's ``adapted_basis``, the u_a as sparse
    columns, and no frame inverse is formed: the coframe u^a comes with it,
    read off the tag columns of the elimination that chose the u_a.  The
    two image tables, z^r in the real coframe and e^i in the complex one,
    are read off the nonzeros of the coframe rows and of the rows of P, the
    matrix with the columns u_a: as numerators by :meth:`_image_ints`, for
    the d table, and as ``Form``s (``_complex_images`` and
    ``_real_images``), built on first use by ``to_real``, ``to_complex``
    and the float route.

    Each differential is one ``leibniz_differential`` call on a generator
    table (``forms.DerivationTable``) built once per frame, on its first
    use (:meth:`_table`).
    When the algebra and both image tables are exact over one field, the
    tables are built on int numerators and made from their lanes, their
    ``Form``s only on first read; otherwise (floats, or two radicands, which
    raise ``FieldMismatchError``) on ``Form``s.  The CE differential and
    ``to_complex`` are real (they commute with conjugation), so the d table
    differentiates the N holomorphic generators and sets
    d conj(z^r) = conj(d z^r).  Sign convention: J^{-1} = (-1)^k J on
    k-forms, so for J g^k = s g^j the del_J table holds
    del_J g^k = s J(delbar g^j), delbar g^j being a 2-form (likewise
    delbar_J with del).  The tables raise ``StructureError`` if I is not
    integrable.
    """

    def __init__(self, d: LieAlgebraData, H: HypercomplexStructure):
        self.algebra = d
        self.structure = H
        self.dim = d.dim
        self.N = d.dim // 2
        self.basis, self._coframe = H.adapted_basis   # u_a and u^a as sparse dicts
        self._tables: dict = {}
        self._corank_two: dict = {}

    def _p_rows(self) -> list:
        """The rows of P, the matrix with the columns u_a, as sparse dicts."""
        P: list = [{} for _ in range(self.dim)]
        for a, u in enumerate(self.basis):
            for i, x in u.items():
                P[i][a] = x
        return P

    @cached_property
    def _complex_images(self) -> list:
        """z^r = u^{2r} + i u^{2r+1} (0-based), then the conj(z^r), in the real
        coframe."""
        coframe = self._coframe
        hol = [Form(self.dim, 1, {mask((i,)): ComplexScalar(re.get(i, ZERO), im.get(i, ZERO))
                                  for i in sorted(re.keys() | im.keys())})
               for re, im in zip(coframe[0::2], coframe[1::2])]
        return hol + [Form(self.dim, 1, {k: c.conjugate() for k, c in z.terms.items()})
                      for z in hol]

    @cached_property
    def _real_images(self) -> list:
        """e^i = sum_a P[i][a] u^a = sum_r h z^r + conj(h) conj(z^r) in the
        complex frame, h = P[i][2r]/2 - i P[i][2r+1]/2."""
        N, out = self.N, []
        for row in self._p_rows():
            terms: dict = {}
            for r in sorted({a // 2 for a in row}):
                h = ComplexScalar(HALF * row.get(2 * r, ZERO), -HALF * row.get(2 * r + 1, ZERO))
                terms[mask((r,))] = h
                terms[mask((N + r,))] = h.conjugate()
            out.append(Form(self.dim, 1, terms))
        return out

    def _image_ints(self):
        """``(z, e)``: the numerators of the N holomorphic
        :attr:`_complex_images` and of :attr:`_real_images`, each
        ``(d, den, rows)`` as ``scalars.complex_ints`` writes the images'
        coefficients, ``rows[k]`` a dict from key to numerators in the key
        order of image k; None when an entry is a float or two radicands
        occur.  They are read off the coframe and P, and no ``Form`` or
        complex scalar is built.  The coefficients of e^i are P[i][2r]/2 and
        -P[i][2r+1]/2, over 2 den(P): some column of P is a basis vector e_k,
        so the numerator den(P) of its 1 is not even.

        The standard structure's coframe and basis are the identity, so its
        tables are written, in the keys' order of this read:
        z^r = e^{2r} + i e^{2r+1} over 1, and e^{2r} = (z^r + conj(z^r))/2,
        e^{2r+1} = i (conj(z^r) - z^r)/2 over 2."""
        if self.structure.is_standard:
            N = self.N
            z = [{mask((2 * r,)): (1, 0, 0, 0), mask((2 * r + 1,)): (0, 0, 1, 0)}
                 for r in range(N)]
            e = []
            for r in range(N):
                e += [{mask((r,)): (1, 0, 0, 0), mask((N + r,)): (1, 0, 0, 0)},
                      {mask((r,)): (0, 0, -1, 0), mask((N + r,)): (0, 0, 1, 0)}]
            return (0, 1, z), (0, 2, e)
        coframe, P = self._coframe, self._p_rows()
        co = real_ints([x for row in coframe for x in row.values()])
        own = real_ints([x for row in P for x in row.values()])
        if co is None or own is None:
            return None
        ints = iter(co[2])
        co_rows = [{i: next(ints)[:2] for i in row} for row in coframe]
        z = [{mask((i,)): (*re.get(i, (0, 0)), *im.get(i, (0, 0)))
              for i in sorted(re.keys() | im.keys())}
             for re, im in zip(co_rows[0::2], co_rows[1::2])]
        ints, e = iter(own[2]), []
        for row in P:
            row = {a: next(ints) for a in row}
            terms = {}
            for r in sorted({a // 2 for a in row}):
                p, q, _, _ = row.get(2 * r, (0, 0, 0, 0))
                u, v, _, _ = row.get(2 * r + 1, (0, 0, 0, 0))
                terms[mask((r,))] = (p, q, -u, -v)
                terms[mask((self.N + r,))] = (p, q, u, v)
            e.append(terms)
        return (co[0], co[1], z), (own[0], 2 * own[1], e)

    # -- conversions ------------------------------------------------------------

    def to_complex(self, form: Form) -> Form:
        return form.substitute(self._real_images)

    def to_real(self, form: Form) -> Form:
        return form.substitute(self._complex_images)

    # -- index maps ---------------------------------------------------------------

    def conj_index(self, k: int) -> int:
        return k + self.N if k < self.N else k - self.N

    @cached_property
    def _conj_map(self) -> dict:
        return {k: (self.conj_index(k), 1) for k in range(self.dim)}

    def conjugate(self, form: Form) -> Form:
        """conj(form), on numerators when the form keeps them."""
        if isinstance(form, NumeratorForm):
            return form.remade(self._conjugate_ints(numerators(form)[2]))
        return form.map_coefficients(lambda c: c.conjugate()).map_indices(self._conj_map)

    def _conjugate_ints(self, ints: dict) -> dict:
        """:meth:`conjugate` of the numerators ``ints``: c and e negated, the
        keys mapped (the barred half of the d table)."""
        out = {}
        for key, (a, b, c, e) in ints.items():
            image, odd = map_key(key, self._conj_map)
            out[image] = (-a, -b, c, e) if odd else (a, b, -c, -e)
        return out

    @cached_property
    def _j_form_map(self) -> dict:
        N = self.N
        mapping = {}
        for h in range(N):
            p, s = j_index(h)
            mapping[h] = (N + p, s)               # J z^h = s conj(z^p)
            mapping[N + h] = (p, s)               # J conj(z^h) = s z^p
        return mapping

    def j_action(self, form: Form) -> Form:
        """Pullback action of J on a complex-frame form."""
        return form.map_indices(self._j_form_map)

    def i_action(self, form: Form) -> Form:
        """Pullback action of I: multiplies a (p, q) term by i^p (-i)^q, on
        scalar objects, as classification applies it only to eta and
        beta + conj(beta), which the division routes build as plain forms."""
        N = self.N
        out: dict = {}
        # i^(p-q): times i when p - q is odd, then minus when (p - q) % 4 >= 2
        for key, c in form.terms.items():
            p, q = bidegree_of_key(key, N)
            c = c.times_i() if (p - q) & 1 else c
            out[key] = -c if (p - q) & 2 else c
        return Form(form.nsym, form.degree, out)

    # -- differentials ---------------------------------------------------------------

    @cached_property
    def _d_table(self) -> DerivationTable:
        """d of each frame generator, from the algebra's structure constants.

        On ints when the algebra's table and both image tables are exact
        over one field; otherwise (a float, or two radicands, which raise
        ``FieldMismatchError``) as ``to_complex`` of the CE differential of
        the real image of z^r, with d conj(z^r) = conj(d z^r)."""
        rows = self._d_rows()
        if rows is not None:
            return DerivationTable.from_ints(self.dim, *rows)
        hol = [self.to_complex(self.algebra.ce_differential(real))
               for real in self._complex_images[:self.N]]
        return DerivationTable(hol + [self.conjugate(dz) for dz in hol])

    def _d_rows(self):
        """``(d, den, rows)`` of the d table on numerators, or None.

        z^r = sum_i W[r][i] e^i, so d z^r is first the real 2-form
        sum_i W[r][i] d e^i, summed as ``ce_differential`` sums it, and then
        each e^j is replaced by its image, as ``to_complex`` does; the keys
        come out in the order of that route.  d conj(z^r) = conj(d z^r)
        swaps the two halves of each key and negates the imaginary parts."""
        algebra = self.algebra._d_table.lane
        images = None if algebra is None else self._image_ints()
        if images is None:
            return None
        (zd, zden, z), (ed, eden, e) = images
        fields = {algebra[0], zd, ed} - {0}
        if len(fields) > 1:
            return None
        d = max(fields, default=0)
        real = [leibniz_ints(dz, algebra[2], d) for dz in z]
        rows = substitute_ints(real, [[(key, *x) for key, x in row.items()] for row in e], d)
        rows += [self._conjugate_ints(dz) for dz in rows]
        return d, algebra[1] * zden * eden ** 2, rows

    @cached_property
    def _split(self) -> dict:
        """The rows of the del and delbar tables: the d table's terms split by
        the holomorphic degree of the key, on its numerators when it has
        them, else on its scalar objects."""
        N, table = self.N, self._d_table
        rows = ([dg.terms for dg in table] if table.lane is None
                else [{t[0]: t[2:] for t in row} for row in table.lane[2]])
        split: dict = {"del": [], "delbar": []}
        for k, row in enumerate(rows):
            p = 1 if k < N else 0
            parts: dict = {p + 1: {}, p: {}}
            for key, x in row.items():
                part = parts.get(bidegree_of_key(key, N)[0])
                if part is None:
                    raise StructureError(f"I is not integrable: d z^{k % N + 1} has a (0,2) part")
                part[key] = x
            split["del"].append(parts[p + 1])
            split["delbar"].append(parts[p])
        return split

    def _table(self, name: str) -> DerivationTable:
        """The generator table of ``name`` (del, delbar, del_j or delbar_j),
        built on first request: a part of :attr:`_split`, or for the twisted
        ones the signed permutation J of the keys of delbar (del_j) or del
        (delbar_j)."""
        if name not in self._tables:
            lane, rows = self._d_table.lane, self._split.get(name)
            if rows is None:   # for J g^k = s g^j: s J(delbar g^j), or s J(del g^j)
                inner, jmap = self._split["delbar" if name == "del_j" else "del"], self._j_form_map
                neg = ComplexScalar.__neg__ if lane is None else neg_ints
                rows = [{image: neg(x) if odd ^ (s < 0) else x
                         for key, x in inner[j].items() for image, odd in (map_key(key, jmap),)}
                        for j, s in map(jmap.get, range(self.dim))]
            self._tables[name] = (
                DerivationTable(Form(self.dim, 2, row) for row in rows) if lane is None
                else DerivationTable.from_ints(self.dim, lane[0], lane[1], rows))
        return self._tables[name]

    def d(self, form: Form) -> Form:
        """Exterior differential in the complex frame."""
        return leibniz_differential(form, self._d_table)

    def del_(self, form: Form) -> Form:
        """(p, q) -> (p+1, q) component of d."""
        return leibniz_differential(form, self._table("del"))

    def delbar(self, form: Form) -> Form:
        """(p, q) -> (p, q+1) component of d."""
        return leibniz_differential(form, self._table("delbar"))

    def del_j(self, form: Form) -> Form:
        """Twisted differential J^{-1} delbar J, of type (p, q) -> (p+1, q)."""
        return leibniz_differential(form, self._table("del_j"))

    def delbar_j(self, form: Form) -> Form:
        """Twisted differential J^{-1} del J, of type (p, q) -> (p, q+1)."""
        return leibniz_differential(form, self._table("delbar_j"))

    def corank_two_images(self, name: str) -> dict:
        """del (``"del"``) or del_J (``"del_j"``) of every (N-2, 0) monomial,
        read once per frame off its table (``forms.corank_two_images``)."""
        if name not in self._corank_two:
            self._corank_two[name] = corank_two_images(self._table(name), self.N)
        return self._corank_two[name]

    def is_abelian(self) -> bool:
        """[LX, LY] = [X, Y] for L in {I, J}, that is, as d theta(X, Y) =
        -theta([X, Y]), I* and J* fix the d table; I* fixes a 2-form exactly
        when it has type (1,1), as it multiplies a (p, q) term by i^(p-q)."""
        N, table = self.N, self._d_table
        return (all(bidegree_of_key(key, N) == (1, 1) for dg in table for key in dg.keys())
                and all(self.j_action(dg) == dg for dg in table))

    def is_q_real(self, form: Form) -> bool:
        return self.j_action(self.conjugate(form)) == form

    # -- display ---------------------------------------------------------------------

    def names(self):
        N = self.N
        return [f"z{r + 1}" for r in range(N)] + [f"zb{r + 1}" for r in range(N)]

    def format(self, form: Form) -> str:
        return form.format(self.names())


class Geometry:
    """Validated bundle of a Lie algebra with a hypercomplex structure."""

    def __init__(self, algebra: LieAlgebraData, structure: HypercomplexStructure,
                 check_integrability: bool = True):
        if check_integrability:
            validate_hypercomplex(algebra, structure)
        self.algebra = algebra
        self.structure = structure
        self.frame = ComplexFrame(algebra, structure)
        self.n = algebra.dim // 4
        self.N = algebra.dim // 2

    @classmethod
    def standard(cls, algebra: LieAlgebraData, **kw) -> "Geometry":
        return cls(algebra, HypercomplexStructure.standard(algebra.dim // 4), **kw)

    def rotated(self, p: SpherePoint, q: SpherePoint) -> "Geometry":
        """Geometry for the rotated pair; integrability holds automatically."""
        return Geometry(self.algebra, self.structure.rotate_pair(p, q),
                        check_integrability=False)

    def is_abelian(self) -> bool:
        return self.frame.is_abelian()

    def zeta(self, r: int) -> Form:
        """Holomorphic frame covector z^r (1-based)."""
        return Form.monomial(self.algebra.dim, (r - 1,))

    def zeta_bar(self, r: int) -> Form:
        return Form.monomial(self.algebra.dim, (self.N + r - 1,))

    def monomial(self, hol=(), bar=(), coeff=C_ONE) -> Form:
        """Monomial from 1-based holomorphic and conjugate indices."""
        idx = sorted([h - 1 for h in hol] + [self.N + b - 1 for b in bar])
        return Form.monomial(self.algebra.dim, idx, coeff)

