"""Exact linear algebra over complex scalars, with one elimination kernel.

Every row reduction of ``hha`` apart from ``det`` and
``hermitian_pivots`` is :func:`echelon_add`: it adds one sparse row (a
dict from column to scalar) to a reduced row echelon basis and touches
only nonzeros.  Callers that hold forms pass ``form.terms`` as rows
directly.  ``solve``, ``inverse`` and ``rank`` read :func:`echelon` on
the nonzeros of their dense input.  ``det`` is forward elimination with a
pivot product; :func:`hermitian_pivots` is the one symmetric elimination
of a Hermitian matrix, whose pivots give its definiteness here and the
Pfaffian, determinant and positivity of a metric in ``hermitian``.  The
small dense matrix helpers stay dense.

:func:`add_term` is the one cancellation rule of the package: every sparse
sum (rows here, form coefficients in ``forms``, brackets in ``liealg``,
Nijenhuis values in ``hypercomplex``) adds a term through it and so stores
no key whose coefficient is an exact zero.
"""
from __future__ import annotations

from .scalars import C_ONE, C_ZERO, ONE, ZERO, ComplexScalar


class SingularMatrixError(ArithmeticError):
    pass


def _c(x) -> ComplexScalar:
    return ComplexScalar._coerce(x)


def identity(n: int):
    return [[C_ONE if i == j else C_ZERO for j in range(n)] for i in range(n)]


def _zero_like(m):
    """The zero of m's entry type, so that Scalar matrices stay Scalar."""
    for row in m:
        for x in row:
            return type(x)._coerce(0)
    return C_ZERO


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    zero = _zero_like(a)
    out = [[zero] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            aik = a[i][k]
            if aik.is_zero():
                continue
            for j in range(cols):
                if not b[k][j].is_zero():
                    out[i][j] = out[i][j] + aik * b[k][j]
    return out


def mat_add(*mats):
    zero = _zero_like(mats[0])
    out = [[zero] * len(row) for row in mats[0]]
    for m in mats:
        for i, row in enumerate(m):
            for j, x in enumerate(row):
                if not x.is_zero():
                    out[i][j] = out[i][j] + x
    return out


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, m):
    return [[c * x for x in row] for row in m]


def transpose(a):
    return [list(col) for col in zip(*a)]


def add_term(acc: dict, key, c) -> None:
    """acc[key] += c on a sparse dict, storing no key whose sum is an exact zero.

    A new key goes after the keys already present, and a key that stays
    nonzero keeps its place, so sums keep insertion order.
    """
    x = acc.get(key)
    if x is not None:
        c = x + c
    if c.is_zero():
        if x is not None:
            del acc[key]
    else:
        acc[key] = c


def add_scaled(acc: dict, f, vec: dict) -> None:
    """acc += f * vec on sparse vectors."""
    for k, c in vec.items():
        add_term(acc, k, f * c)


def echelon_add(rows: dict, vec: dict):
    """Add ``vec`` to the reduced row echelon basis ``rows``, in place.

    ``rows`` maps each pivot to its row, which is 1 at the pivot, 0 at every
    other pivot and has no key below the pivot.  Returns the new pivot, or
    None when ``vec`` is already in the span.
    """
    v = {k: c for k, c in vec.items() if not c.is_zero()}
    for p, row in rows.items():
        f = v.get(p)
        if f is not None:
            add_scaled(v, -f, row)
    if not v:
        return None
    p = min(v)
    inv = v[p].inverse()
    v = {k: c * inv for k, c in v.items()}
    for row in rows.values():
        f = row.get(p)
        if f is not None:
            add_scaled(row, -f, v)
    rows[p] = v
    return p


def echelon(vectors) -> dict:
    """Reduced row echelon basis of the span of sparse vectors, by pivot.

    The reduced row echelon basis of a span is unique, so it depends neither
    on the order of ``vectors`` nor on their number; keys only need an order
    (column indices or monomial keys).  Pivots and row keys come sorted.
    """
    rows: dict = {}
    for vec in vectors:
        echelon_add(rows, vec)
    return {p: dict(sorted(rows[p].items())) for p in sorted(rows)}


def _nonzeros(row) -> dict:
    """The nonzero entries of a dense row as a sparse row."""
    return {j: y for j, x in enumerate(row) if not (y := _c(x)).is_zero()}


def solve(a, b):
    """Solve A x = b exactly; returns None when inconsistent.

    A is m x n (m equations), b length m.  With multiple solutions an
    arbitrary member (free variables zero) is returned.  Column n of the
    augmented rows is b, so the system is inconsistent exactly when n is a
    pivot.
    """
    n = len(a[0]) if a else 0
    rows = echelon(_nonzeros([*row, rhs]) for row, rhs in zip(a, b))
    if n in rows:
        return None
    x = [C_ZERO] * n
    for p, row in rows.items():
        x[p] = row.get(n, C_ZERO)
    return x


def inverse(a):
    """A^-1 from the reduced rows of [A | 1], columns n...2n-1 holding 1."""
    n = len(a)
    rows = echelon({**_nonzeros(row), n + i: C_ONE} for i, row in enumerate(a))
    if list(rows) != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [[row.get(n + j, C_ZERO) for j in range(n)] for row in rows.values()]


def det(a) -> ComplexScalar:
    n = len(a)
    m = [[_c(x) for x in row] for row in a]
    out = C_ONE
    for c in range(n):
        piv = None
        for i in range(c, n):
            if not m[i][c].is_zero():
                piv = i
                break
        if piv is None:
            return C_ZERO
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        prow = m[c]
        out = out * prow[c]
        inv = prow[c].inverse()
        # columns up to c are never read again; the rest change only where
        # the pivot row is nonzero
        support = [j for j in range(c + 1, n) if not prow[j].is_zero()]
        for i in range(c + 1, n):
            row = m[i]
            if row[c].is_zero():
                continue
            f = row[c] * inv
            for j in support:
                row[j] = row[j] - f * prow[j]
    return out


def rank(a) -> int:
    return len(echelon(_nonzeros(row) for row in a))


def hermitian_pivots(g) -> list:
    """The real pivots of a symmetric Schur elimination of a Hermitian matrix.

    Each step takes the first remaining nonzero diagonal entry as a pivot, so
    a positive definite matrix (Sylvester's criterion) is eliminated in
    natural order.  When every remaining diagonal entry vanishes, a nonzero
    entry x makes a hyperbolic 2x2 block [[0, x], [conj x, 0]], recorded as
    the pair (1, -|x|^2); when the rest vanishes too it contributes zeros.
    Each pivot block is congruent to its pivots, so their signs are the
    inertia (Sylvester's law), and a symmetric permutation keeps the
    determinant, so their product is det g.  The input is not modified.
    """
    n = len(g)
    m = [[_c(g[i][j]) for j in range(n)] for i in range(n)]
    active = list(range(n))
    pivots = []
    while active:
        piv = next((i for i in active if not m[i][i].is_zero()), None)
        if piv is not None:
            p = m[piv][piv]
            if not p.is_real():
                raise ValueError("matrix is not Hermitian")
            pivots.append(p.re)
            active.remove(piv)
            inv = p.inverse()
            prow = m[piv]
            # entry (r, s) changes only where the pivot row and column meet it
            support = [s for s in active if not prow[s].is_zero()]
            for r in active:
                mrp = m[r][piv]
                if mrp.is_zero():
                    continue
                f, row = mrp * inv, m[r]
                for s in support:
                    row[s] = row[s] - f * prow[s]
            continue
        pair = next(((i, j) for i in active for j in active
                     if i < j and not m[i][j].is_zero()), None)
        if pair is None:
            pivots.extend([ZERO] * len(active))
            break
        i, j = pair
        x = m[i][j]
        pivots.extend((ONE, -x.abs2()))
        active.remove(i)
        active.remove(j)
        xinv = x.inverse()
        xbinv = x.conjugate().inverse()
        for r in active:
            ri, rj = m[r][i], m[r][j]
            if ri.is_zero() and rj.is_zero():
                continue
            fi, fj = ri * xbinv, rj * xinv
            for s in active:
                m[r][s] = m[r][s] - (fi * m[j][s] + fj * m[i][s])
    return pivots


def hermitian_definiteness(g) -> str:
    """One of: positive, semipositive, negative, seminegative, indefinite,
    zero; read off the signs of :func:`hermitian_pivots`."""
    signs = [p.sign() for p in hermitian_pivots(g)]
    pos, neg, zero = signs.count(1), signs.count(-1), signs.count(0)
    if pos and neg:
        return "indefinite"
    if pos:
        return "positive" if zero == 0 else "semipositive"
    if neg:
        return "negative" if zero == 0 else "seminegative"
    return "zero"
