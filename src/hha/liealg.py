"""Lie algebra data model, validation, structure theory, invariant differential.

Brackets are stored sparsely as ``[e_i, e_j] = sum_k c[k] e_k`` for ``i < j``
(0-based).  Structure equations follow the dual convention
``d e^k = -sum_{i<j} c^k_{ij} e^i ^ e^j``, matching ``dxi(X, Y) = -xi([X, Y])``
under the determinant evaluation convention for wedges.

Loading an algebra checks the Jacobi identity once, exactly, as d^2 = 0 on
the generators: with dxi(X, Y) = -xi([X, Y]), the Leibniz kernel gives
d^2 xi(X, Y, Z) = xi([[X, Y], Z] + [[Y, Z], X] + [[Z, X], Y]), so the
coefficient of e^i ^ e^j ^ e^l in d^2 e^m is the m-th component of the
Jacobiator of (e_i, e_j, e_l).

Every other structure fact is a cached property of the algebra, computed
from the nonzero brackets on first read; no dense ad(e_i) matrix is built.
Classification reads ``nilpotent`` (no invariant HKT metric on a nilpotent
algebra with a non-abelian structure; the gluing construction) and
``unimodular`` (the q-balanced pairing certificate); ``hha check`` also
reads ``nilpotency_step`` and ``solvable``, and the catalog's "semisimple"
expectation ``semisimple``:

* ``nilpotent``, ``nilpotency_step``: the lower central series
  g > [g, g] > [g, [g, g]] > ... reaches 0, after that many steps;
* ``solvable``: the derived series reaches 0;
* ``unimodular``: tr ad(e_i) = sum_j c_{ij}^j vanishes for every i;
* ``center_dim``, ``derived_dim``: the dimensions of the centre and of
  [g, g];
* ``semisimple``: the Killing form is nondegenerate (Cartan's criterion),
  which is full echelon rank.

The reads touch only nonzeros:

* the Killing form is B_ij = sum_{k,l} c_{ik}^l c_{jl}^k, summed over the
  nonzero columns [e_i, e_k] only;
* v is central iff sum_j v_j c_{ij}^k = 0 for all i, k, a system with one
  row per nonzero (i, k), so at most twice as many rows as nonzero
  structure constants instead of dim^2;
* spans (the derived algebra, the lower central and derived series, the
  centre's equations) are reduced by ``linalg.echelon`` to the reduced row
  echelon basis of sparse rows, which is unique, so no basis depends on the
  order in which its vectors were found.
"""
from __future__ import annotations

from functools import cached_property

from . import linalg
from .forms import DerivationTable, Form, indices, leibniz_differential, mask
from .scalars import (
    ComplexScalar,
    Scalar,
    ScalarField,
    ZERO,
    ONE,
    real_ints,
)


def wire_vector(vec: dict) -> str:
    """A sparse vector with its 1-based wire labels, in increasing order: ``{e3: -2}``."""
    return "{" + ", ".join(f"e{k + 1}: {c}" for k, c in sorted(vec.items())) + "}"


class JacobiError(ValueError):
    """Raised when the Jacobi identity fails; carries the violating triple."""

    def __init__(self, i: int, j: int, k: int, residual):
        self.triple = (i + 1, j + 1, k + 1)
        super().__init__(
            f"Jacobi identity fails on (e{i + 1}, e{j + 1}, e{k + 1}): "
            f"residual {wire_vector(residual)}"
        )


class AlgebraError(ValueError):
    pass


class LieAlgebraData:
    """Finite model of an invariant geometry: basis, brackets, ground field."""

    def __init__(self, dim: int, brackets: dict, field: ScalarField | None = None):
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
                linalg.add_term(table.setdefault((i, j), {}), k, c)
        self.brackets = {ij: comps for ij, comps in table.items() if comps}
        self.validate()

    # -- constructors ------------------------------------------------------

    @classmethod
    def abelian(cls, dim: int, field: ScalarField | None = None) -> "LieAlgebraData":
        return cls(dim, {}, field)

    @classmethod
    def from_structure_equations(cls, dim: int, equations: dict,
                                 field: ScalarField | None = None) -> "LieAlgebraData":
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
                linalg.add_term(brackets.setdefault((i, j), {}), k, -m)
        return cls(dim, brackets, field)

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
                if not coeff.is_zero():
                    linalg.add_scaled(out, coeff, comps)
        return out

    @cached_property
    def _ad_columns(self) -> list:
        """``_ad_columns[i][k]`` is [e_i, e_k] as a sparse dict; nonzero columns only."""
        cols: list = [{} for _ in range(self.dim)]
        for (i, j), comps in self.brackets.items():
            cols[i][j] = comps
            cols[j][i] = {k: -c for k, c in comps.items()}
        return cols

    # -- validation and structure theory --------------------------------------

    def validate(self) -> "LieAlgebraData":
        """Check Jacobi exactly as d^2 e^k = 0 for every k; returns self.

        The constructor calls it, so every algebra is checked once, on load,
        on the numerators of its d table when it has them.

        A key (i, j, l) of d^2 e^m is a failing triple, and its coefficient is
        the m-th component of the Jacobiator; the smallest one is reported.
        """
        failing: dict = {}
        # an abelian algebra has nothing to check (and in dimension 1 no 2-forms)
        for m, dek in enumerate(self._d_table if self.brackets else ()):
            for key, c in leibniz_differential(dek, self._d_table).terms.items():
                failing.setdefault(key, {})[m] = c.re
        if failing:
            key = min(failing, key=indices)
            raise JacobiError(*indices(key), failing[key])
        return self

    def _span_of_brackets(self, us, vs) -> list:
        """The reduced row echelon basis of the span of the brackets [u, v],
        of which only the nonzero ones are eliminated."""
        brackets = (self.bracket(u, v) for u in us for v in vs)
        return list(linalg.echelon(b for b in brackets if b).values())

    @cached_property
    def _derived(self) -> list:
        """Reduced row echelon basis of [g, g], in pivot order; brackets never change after init."""
        return list(linalg.echelon(self.brackets.values()).values())

    def derived_basis(self):
        """Basis of [g, g] in reduced row echelon form, as sparse vectors."""
        return [dict(v) for v in self._derived]

    def center_basis(self):
        """Basis of the centre as sparse vectors.

        v is central iff sum_j v_j c_{ij}^k = 0 for all i, k: one equation per
        nonzero (i, k).  The basis is the kernel read off the reduced row
        echelon form of those equations, one vector per free column.
        """
        rows = []
        for cols in self._ad_columns:
            by_target: dict = {}
            for j, col in cols.items():
                for k, c in col.items():
                    by_target.setdefault(k, {})[j] = c
            rows.extend(by_target.values())
        echelon = linalg.echelon(rows)
        out = []
        for free in range(self.dim):
            if free in echelon:
                continue
            vec = {free: ONE}
            for p, row in echelon.items():
                if free in row:
                    vec[p] = -row[free]
            out.append(dict(sorted(vec.items())))
        return out

    def killing_form(self):
        """B(e_i, e_j) = tr(ad e_i ad e_j) = sum_{k,l} c_{ik}^l c_{jl}^k."""
        n, ad = self.dim, self._ad_columns
        out = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                adj = ad[j]
                tr = ZERO
                for k, col in ad[i].items():
                    for l, c in col.items():
                        x = adj.get(l, {}).get(k)
                        if x is not None:
                            tr = tr + c * x
                out[i][j] = out[j][i] = tr
        return out

    @cached_property
    def nilpotency_step(self) -> int | None:
        basis = [{i: ONE} for i in range(self.dim)]
        lcs, step = self._derived, 1
        while lcs:
            nxt = self._span_of_brackets(basis, lcs)
            if len(nxt) == len(lcs):
                return None
            lcs, step = nxt, step + 1
        return step

    @property
    def nilpotent(self) -> bool:
        return self.nilpotency_step is not None

    @cached_property
    def solvable(self) -> bool:
        ds = self._derived
        while ds:
            nxt = self._span_of_brackets(ds, ds)
            if len(nxt) == len(ds):
                return False
            ds = nxt
        return True

    @cached_property
    def unimodular(self) -> bool:
        trace: dict = {}
        for (i, j), comps in self.brackets.items():
            # c_{ij}^j enters tr ad(e_i), and c_{ji}^i = -c_{ij}^i enters tr ad(e_j)
            if j in comps:
                trace[i] = trace.get(i, ZERO) + comps[j]
            if i in comps:
                trace[j] = trace.get(j, ZERO) - comps[i]
        return all(t.is_zero() for t in trace.values())

    @cached_property
    def center_dim(self) -> int:
        return len(self.center_basis())

    @cached_property
    def derived_dim(self) -> int:
        return len(self._derived)

    @cached_property
    def semisimple(self) -> bool:
        return len(linalg.echelon(dict(enumerate(row)) for row in self.killing_form())) == self.dim

    def in_derived_subalgebra(self, vec: dict) -> bool:
        rows = linalg.echelon(self._derived)  # a copy: a new vector updates its rows
        return linalg.echelon_add(rows, vec) is None

    def has_rational_structure_constants(self) -> bool:
        return all(
            c.is_rational
            for comps in self.brackets.values()
            for c in comps.values()
        )

    # -- invariant differential -----------------------------------------------

    @cached_property
    def _d_table(self) -> DerivationTable:
        """d e^k = -sum_{i<j} c^k_{ij} e^i ^ e^j; brackets never change after init.

        Made from its numerators (``DerivationTable.from_ints``) when the
        structure constants are exact over one field, so its forms, which
        :meth:`validate` differentiates, keep them; else from scalar objects."""
        terms: list = [{} for _ in range(self.dim)]
        for (i, j), comps in self.brackets.items():
            for k, c in comps.items():
                terms[k][mask((i, j))] = -c
        own = real_ints([c for t in terms for c in t.values()])
        if own is None:
            return DerivationTable(Form(self.dim, 2, {key: ComplexScalar(c) for key, c in t.items()})
                                   for t in terms)
        d, den, ints = own
        ints = iter(ints)
        return DerivationTable.from_ints(self.dim, d, den, [{key: next(ints) for key in t}
                                                            for t in terms])

    def ce_differential(self, form: Form) -> Form:
        """Chevalley-Eilenberg differential of a real-frame invariant form."""
        if form.nsym != self.dim:
            raise AlgebraError("form does not live over this algebra's coframe")
        return leibniz_differential(form, self._d_table)


def algebra_invariants(d: LieAlgebraData) -> dict:
    """Center and derived bases plus a lattice-admissibility hint."""
    return {
        "center": d.center_basis(),
        "derived": d.derived_basis(),
        "rational_structure_constants": d.has_rational_structure_constants(),
    }
