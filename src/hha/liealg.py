"""Lie algebra data model, validation, structure theory, invariant differential.

Brackets are stored sparsely as ``[e_i, e_j] = sum_k c[k] e_k`` for ``i < j``
(0-based).  Structure equations follow the dual convention
``d e^k = -sum_{i<j} c^k_{ij} e^i ^ e^j``, matching ``dxi(X, Y) = -xi([X, Y])``
under the determinant evaluation convention for wedges.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .forms import Form, leibniz_differential
from .scalars import (
    ComplexScalar,
    Scalar,
    ScalarField,
    ZERO,
    ONE,
)


class JacobiError(ValueError):
    """Raised when the Jacobi identity fails; carries the violating triple."""

    def __init__(self, i: int, j: int, k: int, residual):
        self.triple = (i + 1, j + 1, k + 1)
        super().__init__(
            f"Jacobi identity fails on (e{i + 1}, e{j + 1}, e{k + 1}): "
            f"residual {residual}"
        )


class AlgebraError(ValueError):
    pass


@dataclass(frozen=True)
class AlgebraProfile:
    nilpotent: bool
    nilpotency_step: int | None
    solvable: bool
    unimodular: bool
    center_dim: int
    derived_dim: int
    semisimple: bool


class LieAlgebraData:
    """Finite model of an invariant geometry: basis, brackets, ground field."""

    def __init__(self, dim: int, brackets: dict, field: ScalarField | None = None,
                 validate: bool = True):
        if dim <= 0:
            raise AlgebraError("dimension must be positive")
        self.dim = dim
        self.field = field or ScalarField("rational")
        table: dict = {}
        for (i, j), comps in brackets.items():
            if i == j:
                continue
            if not (0 <= i < dim and 0 <= j < dim):
                raise AlgebraError(f"bracket indices ({i}, {j}) out of range")
            sign = 1
            if i > j:
                i, j = j, i
                sign = -1
            for k, c in comps.items():
                if not (0 <= k < dim):
                    raise AlgebraError(f"bracket target index {k} out of range")
                c = self.field.coerce(Scalar._coerce(c))
                if sign < 0:
                    c = -c
                if c.is_zero():
                    continue
                dest = table.setdefault((i, j), {})
                acc = dest.get(k, ZERO) + c
                if acc.is_zero():
                    dest.pop(k, None)
                else:
                    dest[k] = acc
        self.brackets = {ij: comps for ij, comps in table.items() if comps}
        self._profile: AlgebraProfile | None = None
        if validate:
            self.validate()

    # -- constructors ------------------------------------------------------

    @classmethod
    def abelian(cls, dim: int, field: ScalarField | None = None) -> "LieAlgebraData":
        return cls(dim, {}, field)

    @classmethod
    def from_structure_equations(cls, dim: int, equations: dict,
                                 field: ScalarField | None = None,
                                 validate: bool = True) -> "LieAlgebraData":
        """Build from ``d e^k = sum_{i<j} m^k_{ij} e^i ^ e^j`` data.

        ``equations`` maps k to a list of (i, j, coefficient) with i < j,
        all 0-based.  The bracket convention gives c^k_{ij} = -m^k_{ij}.
        """
        brackets: dict = {}
        for k, terms in equations.items():
            for (i, j, m) in terms:
                if i >= j:
                    raise AlgebraError("structure equation indices must be i < j")
                m = Scalar._coerce(m)
                if m.is_zero():
                    continue
                brackets.setdefault((i, j), {}).setdefault(k, ZERO)
                brackets[(i, j)][k] = brackets[(i, j)][k] - m
        return cls(dim, brackets, field, validate=validate)

    def structure_equations(self) -> dict:
        """Inverse of :meth:`from_structure_equations`."""
        eqs: dict = {}
        for (i, j), comps in self.brackets.items():
            for k, c in comps.items():
                eqs.setdefault(k, []).append((i, j, -c))
        for k in eqs:
            eqs[k].sort(key=lambda t: (t[0], t[1]))
        return eqs

    # -- bracket computations ------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> dict:
        """[e_i, e_j] as a sparse coefficient dict."""
        if i == j:
            return {}
        if i < j:
            return dict(self.brackets.get((i, j), {}))
        return {k: -c for k, c in self.brackets.get((j, i), {}).items()}

    def bracket(self, u: dict, v: dict) -> dict:
        """Bracket of two sparse vectors (index -> Scalar)."""
        out: dict = {}
        for i, ui in u.items():
            for j, vj in v.items():
                comps = self.brackets.get((i, j) if i < j else (j, i))
                if comps is None:
                    continue
                coeff = ui * vj if i < j else -(ui * vj)
                if coeff.is_zero():
                    continue
                for k, c in comps.items():
                    acc = out.get(k, ZERO) + coeff * c
                    if acc.is_zero():
                        out.pop(k, None)
                    else:
                        out[k] = acc
        return out

    def ad_matrix(self, vec: dict):
        """Matrix of ad(v) acting on the algebra, columns = images of e_j."""
        n = self.dim
        cols = []
        for j in range(n):
            img = self.bracket(vec, {j: ONE})
            cols.append(img)
        return [[cols[j].get(i, ZERO) for j in range(n)] for i in range(n)]

    # -- validation and structure theory --------------------------------------

    def validate(self) -> AlgebraProfile:
        """Check Jacobi exactly and compute the structure profile."""
        if self._profile is not None:
            return self._profile
        n = self.dim
        pairs = sorted(self.brackets)
        seen = set()
        for a in range(n):
            for (i, j) in pairs:
                if a == i or a == j:
                    continue
                triple = tuple(sorted((a, i, j)))
                if triple in seen:
                    continue
                seen.add(triple)
                res = self._jacobiator(*triple)
                if res:
                    raise JacobiError(*triple, res)
        self._profile = self._compute_profile()
        return self._profile

    def _jacobiator(self, i: int, j: int, k: int) -> dict:
        ei, ej, ek = ({i: ONE}, {j: ONE}, {k: ONE})
        total: dict = {}
        for u, v, w in ((ei, ej, ek), (ej, ek, ei), (ek, ei, ej)):
            term = self.bracket(self.bracket(u, v), w)
            for idx, c in term.items():
                acc = total.get(idx, ZERO) + c
                if acc.is_zero():
                    total.pop(idx, None)
                else:
                    total[idx] = acc
        return total

    def _compute_profile(self) -> AlgebraProfile:
        n = self.dim
        basis = [{i: ONE} for i in range(n)]
        derived = self._span_of_brackets(basis, basis)
        # lower central series
        lcs = derived
        step = 1
        nilpotent = False
        while True:
            if not lcs:
                nilpotent = True
                break
            nxt = self._span_of_brackets(basis, lcs)
            if len(nxt) == len(lcs):
                break
            lcs = nxt
            step += 1
        # derived series
        ds = derived
        solvable = False
        while True:
            if not ds:
                solvable = True
                break
            nxt = self._span_of_brackets(ds, ds)
            if len(nxt) == len(ds):
                break
            ds = nxt
        unimodular = all(
            self._trace_ad(i).is_zero() for i in range(n)
        )
        killing = self.killing_form()
        kmat = [[ComplexScalar(x) for x in row] for row in killing]
        semisimple = not linalg.det(kmat).is_zero()
        return AlgebraProfile(
            nilpotent=nilpotent,
            nilpotency_step=step if nilpotent else None,
            solvable=solvable,
            unimodular=unimodular,
            center_dim=len(self.center_basis()),
            derived_dim=len(derived),
            semisimple=semisimple,
        )

    def _trace_ad(self, i: int) -> Scalar:
        total = ZERO
        for j in range(self.dim):
            total = total + self.bracket_basis(i, j).get(j, ZERO)
        return total

    def _span_of_brackets(self, us, vs):
        vectors = []
        for u in us:
            for v in vs:
                w = self.bracket(u, v)
                if w:
                    vectors.append(w)
        return _reduce_span(vectors, self.dim)

    def derived_basis(self):
        basis = [{i: ONE} for i in range(self.dim)]
        return self._span_of_brackets(basis, basis)

    def center_basis(self):
        """Basis of the center as sparse vectors."""
        n = self.dim
        rows = []
        for j in range(n):
            adj = self.ad_matrix({j: ONE})
            for r in range(n):
                rows.append([ComplexScalar(adj[r][c]) for c in range(n)])
        if not rows:
            return [{i: ONE} for i in range(n)]
        kernel = linalg.nullspace(rows)
        out = []
        for v in kernel:
            vec = {i: v[i].re for i in range(n) if not v[i].is_zero()}
            out.append(vec)
        return out

    def killing_form(self):
        """B(e_i, e_j) = trace(ad e_i . ad e_j)."""
        n = self.dim
        ads = [self.ad_matrix({i: ONE}) for i in range(n)]
        out = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                tr = ZERO
                for r in range(n):
                    for s in range(n):
                        a = ads[i][r][s]
                        if a.is_zero():
                            continue
                        b = ads[j][s][r]
                        if not b.is_zero():
                            tr = tr + a * b
                out[i][j] = tr
                out[j][i] = tr
        return out

    def in_derived_subalgebra(self, vec: dict) -> bool:
        derived = self.derived_basis()
        rows = [[ComplexScalar(b.get(i, ZERO)) for i in range(self.dim)] for b in derived]
        target = [ComplexScalar(vec.get(i, ZERO)) for i in range(self.dim)]
        if not rows:
            return all(x.is_zero() for x in target)
        sol = linalg.solve(linalg.transpose(rows), target)
        return sol is not None

    def has_rational_structure_constants(self) -> bool:
        return all(
            c.is_rational
            for comps in self.brackets.values()
            for c in comps.values()
        )

    # -- invariant differential -----------------------------------------------

    def differential_of_generator(self, k: int) -> Form:
        """d e^k as a real-frame 2-form."""
        terms = {}
        for (i, j), comps in self.brackets.items():
            c = comps.get(k)
            if c is not None:
                terms[(i, j)] = ComplexScalar(-c)
        return Form(self.dim, 2, terms)

    def ce_differential(self, form: Form) -> Form:
        """Chevalley-Eilenberg differential of a real-frame invariant form."""
        if form.nsym != self.dim:
            raise AlgebraError("form does not live over this algebra's coframe")
        if form.degree >= self.dim:
            return Form.zero(self.dim, form.degree) if form.degree == self.dim \
                else Form.zero(self.dim, 0)
        dgen = [self.differential_of_generator(k) for k in range(self.dim)]
        return leibniz_differential(form, dgen)


def _reduce_span(vectors, dim: int):
    """Row-reduce sparse Scalar vectors; returns an independent subset (dense rows)."""
    if not vectors:
        return []
    rows = [[ComplexScalar(v.get(i, ZERO)) for i in range(dim)] for v in vectors]
    red = [row[:] for row in rows]
    pivots = linalg._row_echelon(red)
    out = []
    for r, _ in enumerate(pivots):
        vec = {i: red[r][i].re for i in range(dim) if not red[r][i].is_zero()}
        out.append(vec)
    return out


def validate_algebra(d: LieAlgebraData) -> AlgebraProfile:
    return d.validate()


def killing_form(d: LieAlgebraData):
    return d.killing_form()


def ce_differential(d: LieAlgebraData, form: Form) -> Form:
    return d.ce_differential(form)


def algebra_invariants(d: LieAlgebraData) -> dict:
    """Center and derived bases plus a lattice-admissibility hint."""
    d.validate()
    return {
        "center": d.center_basis(),
        "derived": d.derived_basis(),
        "rational_structure_constants": d.has_rational_structure_constants(),
    }
