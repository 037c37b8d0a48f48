"""Hypercomplex structures, adapted complex frames, and split differentials.

A structure is a pair of anticommuting complex-structure endomorphisms
``(I, J)`` with ``K = IJ``.  Matrices act on column vectors of the algebra's
real basis; the action on a k-form is pullback,
``(L eta)(X_1, ..., X_k) = eta(L X_1, ..., L X_k)``.

Each validated structure gets a deterministic adapted frame: a real basis
``u_1, u_2, ... `` assembled in quadruples ``(v, Iv, Jv, Kv)`` greedily over
the original basis, with holomorphic covectors ``z^r = u^{2r-1} + i u^{2r}``.
In this frame ``J z^{2i-1} = -conj(z^{2i})`` always holds, so the index
bookkeeping of the standard block convention applies verbatim.

d, del, delbar, del_J = J^{-1} delbar J and delbar_J = J^{-1} del J are
graded derivations of degree one, so each is fixed by one table of its values
on the 2N frame generators, applied by ``forms.leibniz_differential``.  As I
is integrable (``Geometry`` checks it), d z^k has no (0,2) part, so del and
delbar of a generator of type (p, q) are the (p+1, q) and (p, q+1) parts of
its d.  The pullback J* is a signed permutation of the generators and an
algebra automorphism, so J^{-1} D J is a derivation when D is one.
"""
from __future__ import annotations

from functools import cached_property

from . import linalg
from .forms import Form, bidegree_project, leibniz_differential
from .liealg import LieAlgebraData
from .scalars import (
    C_ONE,
    C_ZERO,
    ComplexScalar,
    HALF,
    ONE,
    Scalar,
    ZERO,
)


class StructureError(ValueError):
    pass


class IntegrabilityError(StructureError):
    """Nijenhuis tensor fails to vanish; carries the violating pair."""

    def __init__(self, label: str, i: int, j: int, value):
        self.pair = (i + 1, j + 1)
        super().__init__(
            f"structure {label} is not integrable on (e{i + 1}, e{j + 1}): "
            f"Nijenhuis value {value}"
        )


def _is_minus_identity(m) -> bool:
    n = len(m)
    for i in range(n):
        for j in range(n):
            want = Scalar._coerce(-1) if i == j else ZERO
            if m[i][j] != want:
                return False
    return True


class SpherePoint:
    """Exact point (a, b, c) on the unit two-sphere."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        a, b, c = (Scalar._coerce(x) for x in (a, b, c))
        if a * a + b * b + c * c != ONE:
            raise StructureError(f"({a}, {b}, {c}) is not a unit vector")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def __setattr__(self, *_):
        raise AttributeError("SpherePoint is immutable")

    def dot(self, other: "SpherePoint") -> Scalar:
        return self.a * other.a + self.b * other.b + self.c * other.c

    def __repr__(self):
        return f"SpherePoint({self.a}, {self.b}, {self.c})"


class HypercomplexStructure:
    """Anticommuting pair (I, J) of complex structures with K = IJ."""

    def __init__(self, I, J):
        self.I = [[Scalar._coerce(x) for x in row] for row in I]
        self.J = [[Scalar._coerce(x) for x in row] for row in J]
        self.dim = len(self.I)
        if self.dim % 4 != 0:
            raise StructureError("dimension must be a multiple of 4")
        if not _is_minus_identity(linalg.mat_mul(self.I, self.I)):
            raise StructureError("I^2 != -Id")
        if not _is_minus_identity(linalg.mat_mul(self.J, self.J)):
            raise StructureError("J^2 != -Id")
        anti = linalg.mat_add(linalg.mat_mul(self.I, self.J),
                              linalg.mat_mul(self.J, self.I))
        if any(not x.is_zero() for row in anti for x in row):
            raise StructureError("I and J do not anticommute")
        self.K = linalg.mat_mul(self.I, self.J)

    @classmethod
    def standard(cls, n: int) -> "HypercomplexStructure":
        """The block convention: per quadruple (e1, e2, e3, e4),
        I: e1->e2, e2->-e1, e3->e4, e4->-e3 and J: e1->e3, e2->-e4, e3->-e1, e4->e2.
        """
        dim = 4 * n
        I = [[ZERO] * dim for _ in range(dim)]
        J = [[ZERO] * dim for _ in range(dim)]
        for k in range(n):
            b = 4 * k
            I[b + 1][b] = ONE
            I[b][b + 1] = -ONE
            I[b + 3][b + 2] = ONE
            I[b + 2][b + 3] = -ONE
            J[b + 2][b] = ONE
            J[b + 3][b + 1] = -ONE
            J[b][b + 2] = -ONE
            J[b + 1][b + 3] = ONE
        return cls(I, J)

    def combo(self, p: SpherePoint):
        """Matrix of aI + bJ + cK."""
        return linalg.mat_add(
            linalg.mat_scale(p.a, self.I),
            linalg.mat_scale(p.b, self.J),
            linalg.mat_scale(p.c, self.K),
        )

    def rotate_pair(self, p: SpherePoint, q: SpherePoint) -> "HypercomplexStructure":
        """New anticommuting pair (p.(I,J,K), q.(I,J,K)); p and q must be orthogonal."""
        if not p.dot(q).is_zero():
            raise StructureError("sphere points must be orthogonal")
        return HypercomplexStructure(self.combo(p), self.combo(q))


def _apply_matrix(mat, vec: dict) -> dict:
    out: dict = {}
    for j, c in vec.items():
        if c.is_zero():
            continue
        for i in range(len(mat)):
            m = mat[i][j]
            if m.is_zero():
                continue
            acc = out.get(i, ZERO) + m * c
            if acc.is_zero():
                out.pop(i, None)
            else:
                out[i] = acc
    return out


def _nijenhuis(d: LieAlgebraData, mat, i: int, j: int) -> dict:
    """N_L(e_i, e_j) = [Le_i, Le_j] - L[Le_i, e_j] - L[e_i, Le_j] - [e_i, e_j]."""
    ei, ej = {i: ONE}, {j: ONE}
    Lei = {r: mat[r][i] for r in range(len(mat)) if not mat[r][i].is_zero()}
    Lej = {r: mat[r][j] for r in range(len(mat)) if not mat[r][j].is_zero()}
    out: dict = {}

    def acc(vec, sign=1):
        for k, c in vec.items():
            v = out.get(k, ZERO) + (c if sign > 0 else -c)
            if v.is_zero():
                out.pop(k, None)
            else:
                out[k] = v

    acc(d.bracket(Lei, Lej))
    acc(_apply_matrix(mat, d.bracket(Lei, ej)), -1)
    acc(_apply_matrix(mat, d.bracket(ei, Lej)), -1)
    acc(d.bracket(ei, ej), -1)
    return out


def validate_hypercomplex(d: LieAlgebraData, H: HypercomplexStructure) -> dict:
    """Check the algebraic relations and integrability of I, J (and K).

    Vanishing of the Nijenhuis tensor for two anticommuting structures
    suffices for the whole sphere; K is checked anyway as a third sample.
    Returns a small certificate dict.
    """
    if H.dim != d.dim:
        raise StructureError("structure dimension does not match the algebra")
    checked = {}
    for label, mat in (("I", H.I), ("J", H.J), ("K", H.K)):
        for i in range(d.dim):
            for j in range(i + 1, d.dim):
                res = _nijenhuis(d, mat, i, j)
                if res:
                    raise IntegrabilityError(label, i, j, res)
        checked[label] = "integrable"
    return {"relations": "ok", "nijenhuis": checked}


def is_abelian(d: LieAlgebraData, H: HypercomplexStructure) -> bool:
    """True iff [LX, LY] = [X, Y] for L in {I, J} on all basis pairs."""
    for mat in (H.I, H.J):
        for i in range(d.dim):
            Lei = {r: mat[r][i] for r in range(d.dim) if not mat[r][i].is_zero()}
            for j in range(i + 1, d.dim):
                Lej = {r: mat[r][j] for r in range(d.dim) if not mat[r][j].is_zero()}
                lhs = d.bracket(Lei, Lej)
                rhs = d.bracket_basis(i, j)
                if lhs != rhs:
                    return False
    return True


class ComplexFrame:
    """Adapted frame for a hypercomplex structure over a fixed algebra.

    Frame covector indices: 0..N-1 are holomorphic (z^1..z^N), N..2N-1 their
    conjugates, with N = dim/2; pairs (z^{2i-1}, z^{2i}) span a quaternionic
    block, J z^{2i-1} = -conj(z^{2i}).

    Each differential is one ``leibniz_differential`` call on a generator
    table built once per frame.  Sign convention: J^{-1} = (-1)^k J on
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
        self.basis = self._build_adapted_basis()  # columns: u_a over e-basis
        P = [[self.basis[a][i] for a in range(self.dim)] for i in range(self.dim)]
        self._P = P
        Pc = [[ComplexScalar(x) for x in row] for row in P]
        self._P_inv = linalg.inverse(Pc)
        self._real_images = self._build_real_to_complex_images()
        self._complex_images = self._build_complex_to_real_images()

    # -- frame construction ---------------------------------------------------

    def _build_adapted_basis(self):
        dim = self.dim
        H = self.structure
        rows: list = []  # row-echelon accumulator over ComplexScalar
        chosen: list = []

        def try_add(vec_dense):
            row = [ComplexScalar(x) for x in vec_dense]
            for piv, r in rows:
                if not row[piv].is_zero():
                    f = row[piv]
                    row = [row[c] - f * r[c] for c in range(dim)]
            for c in range(dim):
                if not row[c].is_zero():
                    inv = row[c].inverse()
                    rows.append((c, [x * inv for x in row]))
                    return True
            return False

        for i in range(dim):
            cand = [ZERO] * dim
            cand[i] = ONE
            if not try_add(cand):
                continue
            block = [cand]
            for mat in (H.I, H.J, H.K):
                img = [mat[r][i] for r in range(dim)]
                block.append(img)
                if not try_add(img):
                    raise StructureError("quaternionic block failed to extend the span")
            chosen.extend(block)
            if len(chosen) == dim:
                break
        if len(chosen) != dim:
            raise StructureError("could not build an adapted basis")
        return chosen

    def _build_real_to_complex_images(self):
        """e^i expressed in the complex frame covectors."""
        dim, N = self.dim, self.N
        images = []
        half = ComplexScalar(HALF)
        half_i = ComplexScalar(ZERO, HALF)
        for i in range(dim):
            terms: dict = {}
            for a in range(dim):
                coeff = self._P[i][a]
                if coeff.is_zero():
                    continue
                r = a // 2
                hol, bar = (r,), (N + r,)
                if a % 2 == 0:
                    # u^{2r} = (z^{r+1} + conj)/2
                    for key, base in ((hol, half), (bar, half)):
                        c = base * coeff
                        acc = terms.get(key, C_ZERO) + c
                        terms[key] = acc
                else:
                    # u^{2r+1} = -i (z^{r+1} - conj)/2
                    for key, base in ((hol, -half_i), (bar, half_i)):
                        c = base * coeff
                        acc = terms.get(key, C_ZERO) + c
                        terms[key] = acc
            terms = {k: v for k, v in terms.items() if not v.is_zero()}
            images.append(Form(dim, 1, terms))
        return images

    def _build_complex_to_real_images(self):
        """z^r and conj(z^r) expressed in the real coframe."""
        dim, N = self.dim, self.N
        out = []
        for r in range(N):
            terms: dict = {}
            for i in range(dim):
                c = self._P_inv[2 * r][i] + self._P_inv[2 * r + 1][i].times_i()
                if not c.is_zero():
                    terms[(i,)] = c
            out.append(Form(dim, 1, terms))
        for r in range(N):
            conj_terms = {
                k: v.conjugate() for k, v in out[r].terms.items()
            }
            out.append(Form(dim, 1, conj_terms))
        return out

    # -- conversions ------------------------------------------------------------

    def to_complex(self, form: Form) -> Form:
        return form.substitute(self._real_images)

    def to_real(self, form: Form) -> Form:
        return form.substitute(self._complex_images)

    # -- index maps ---------------------------------------------------------------

    def conj_index(self, k: int) -> int:
        return k + self.N if k < self.N else k - self.N

    def conjugate(self, form: Form) -> Form:
        mapping = {k: (self.conj_index(k), 1) for k in range(self.dim)}
        return form.map_coefficients(lambda c: c.conjugate()).map_indices(mapping)

    def _j_form_map(self):
        N = self.N
        mapping = {}
        for h in range(N):
            if h % 2 == 0:
                mapping[h] = (N + h + 1, -1)      # J z^{2i-1} = -conj(z^{2i})
                mapping[N + h] = (h + 1, -1)      # J conj(z^{2i-1}) = -z^{2i}
            else:
                mapping[h] = (N + h - 1, 1)       # J z^{2i} = conj(z^{2i-1})
                mapping[N + h] = (h - 1, 1)
        return mapping

    def j_action(self, form: Form) -> Form:
        """Pullback action of J on a complex-frame form."""
        return form.map_indices(self._j_form_map())

    def i_action(self, form: Form) -> Form:
        """Pullback action of I: multiplies a (p, q) term by i^p (-i)^q."""
        N = self.N
        out: dict = {}
        for key, c in form.terms.items():
            p = sum(1 for k in key if k < N)
            q = len(key) - p
            e = (p - q) % 4
            if e == 1:
                c = c.times_i()
            elif e == 2:
                c = -c
            elif e == 3:
                c = -c.times_i()
            out[key] = c
        return Form(form.nsym, form.degree, out)

    def j_vector(self, vec: dict) -> dict:
        """J acting on a tangent vector in dual-frame coordinates."""
        N = self.N
        out: dict = {}
        for k, c in vec.items():
            if k < N:
                h = k
                tgt, sgn = (N + h + 1, 1) if h % 2 == 0 else (N + h - 1, -1)
            else:
                h = k - N
                tgt, sgn = (h + 1, 1) if h % 2 == 0 else (h - 1, -1)
            out[tgt] = c if sgn > 0 else -c
        return out

    def conj_vector(self, vec: dict) -> dict:
        return {self.conj_index(k): c.conjugate() for k, c in vec.items()}

    def frame_vector(self, r: int, bar: bool = False) -> dict:
        """Dual frame vector Z_r (1-based), or its conjugate."""
        return {(r - 1 + self.N if bar else r - 1): C_ONE}

    # -- differentials ---------------------------------------------------------------

    @cached_property
    def _d_table(self) -> list:
        """d of each frame generator: the CE differential of its real image."""
        return [self.to_complex(self.algebra.ce_differential(real))
                for real in self._complex_images]

    @cached_property
    def _tables(self) -> dict:
        """Generator tables of del, delbar, del_J and delbar_J."""
        N = self.N
        tables: dict = {"del": [], "delbar": []}
        for k, dg in enumerate(self._d_table):
            p = 1 if k < N else 0
            tables["del"].append(bidegree_project(dg, N, p + 1, 1 - p))
            tables["delbar"].append(bidegree_project(dg, N, p, 2 - p))
            if tables["del"][k] + tables["delbar"][k] != dg:
                raise StructureError(f"I is not integrable: d z^{k % N + 1} has a (0,2) part")
        jmap = sorted(self._j_form_map().items())
        for name, inner in (("del_j", "delbar"), ("delbar_j", "del")):
            tables[name] = [self.j_action(tables[inner][j]) * s for _, (j, s) in jmap]
        return tables

    def d(self, form: Form) -> Form:
        """Exterior differential in the complex frame."""
        return leibniz_differential(form, self._d_table)

    def del_(self, form: Form) -> Form:
        """(p, q) -> (p+1, q) component of d."""
        return leibniz_differential(form, self._tables["del"])

    def delbar(self, form: Form) -> Form:
        """(p, q) -> (p, q+1) component of d."""
        return leibniz_differential(form, self._tables["delbar"])

    def del_j(self, form: Form) -> Form:
        """Twisted differential J^{-1} delbar J, of type (p, q) -> (p+1, q)."""
        return leibniz_differential(form, self._tables["del_j"])

    def delbar_j(self, form: Form) -> Form:
        """Twisted differential J^{-1} del J, of type (p, q) -> (p, q+1)."""
        return leibniz_differential(form, self._tables["delbar_j"])

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
        algebra.validate()
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

    def rotated(self, p: SpherePoint, q: SpherePoint,
                check_integrability: bool = False) -> "Geometry":
        """Geometry for the rotated pair; integrability holds automatically."""
        return Geometry(
            self.algebra,
            self.structure.rotate_pair(p, q),
            check_integrability=check_integrability,
        )

    def is_abelian(self) -> bool:
        return is_abelian(self.algebra, self.structure)

    def zeta(self, r: int) -> Form:
        """Holomorphic frame covector z^r (1-based)."""
        return Form.monomial(self.algebra.dim, (r - 1,))

    def zeta_bar(self, r: int) -> Form:
        return Form.monomial(self.algebra.dim, (self.N + r - 1,))

    def monomial(self, hol=(), bar=(), coeff=C_ONE) -> Form:
        """Monomial from 1-based holomorphic and conjugate indices."""
        idx = sorted([h - 1 for h in hol] + [self.N + b - 1 for b in bar])
        return Form.monomial(self.algebra.dim, idx, coeff)

