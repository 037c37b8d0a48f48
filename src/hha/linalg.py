"""Exact linear algebra over complex scalars, with one elimination kernel.

Every row reduction of scalar objects in ``hha`` apart from ``det`` and
``hermitian_pivots`` is :func:`echelon_add`: it adds one sparse row (a
dict from column to scalar) to a reduced row echelon basis and touches
only nonzeros.  Callers that hold forms pass ``form.terms`` as rows
directly.  ``solve``, ``inverse`` and ``rank`` read :func:`echelon` on
the nonzeros of their dense input.  ``det`` is forward elimination with a
pivot product; :func:`hermitian_pivots` is the symmetric elimination of a
Hermitian matrix, whose pivots give its definiteness here and the Pfaffian,
determinant and positivity of a float metric in ``hermitian``.

A real linear map (a structure I, J, K, a sphere point aI + bJ + cK, the
image of a quaternionic representation) is held as its sparse columns only:
:func:`_columns` reads them off a dense matrix, the input format, and
:func:`_apply` applies them to a sparse vector.

The exact Gram matrix of a metric is eliminated once, on integers.
:func:`matrix_ints` writes a matrix exact over one field as numerators
(a, b, c, e) over one denominator, standing for
((a + b sqrt(d)) + i (c + e sqrt(d))) / den (``scalars.complex_ints``).
:func:`inverse_ints` is Gauss-Jordan on such rows with one denominator per
row; ``hermitian.Metric`` reads positivity (Sylvester's criterion), Pf and
det G off its natural-order pivots.  The scalar-object ``inverse`` and
``hermitian_pivots`` stay for a float entry, whose sums must keep their
rounding, and for every other caller.

:func:`add_term` is the one cancellation rule of the package: every sparse
sum (rows here, form coefficients in ``forms``, brackets in ``liealg``,
Nijenhuis values in ``hypercomplex``) adds a term through it and so stores
no key whose coefficient is an exact zero.
"""
from __future__ import annotations

import math

from .scalars import (
    C_ONE,
    C_ZERO,
    ONE,
    ZERO,
    ComplexScalar,
    Scalar,
    complex_from_ints,
    complex_ints,
    mul_ints,
    neg_ints,
)


class SingularMatrixError(ArithmeticError):
    pass


def _c(x) -> ComplexScalar:
    return ComplexScalar._coerce(x)


def _columns(mat) -> list:
    """Sparse columns of a real square matrix: ``_columns(L)[j]`` is L e_j as a
    dict of ``Scalar`` entries, sorted by row, with no exact (or, for a float,
    tolerated) zero."""
    return [{r: x for r, row in enumerate(mat) if not (x := Scalar._coerce(row[j])).is_zero()}
            for j in range(len(mat))]


def _apply(cols: list, vec: dict) -> dict:
    """L v for L given by its sparse columns."""
    out: dict = {}
    for j, c in vec.items():
        add_scaled(out, c, cols[j])
    return out


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


def add_ints(acc: dict, key, x: tuple) -> None:
    """:func:`add_term` on numerators (a, b, c, e) over a common denominator."""
    old = acc.get(key)
    if old is not None:
        x = (old[0] + x[0], old[1] + x[1], old[2] + x[2], old[3] + x[3])
    if any(x):
        acc[key] = x
    elif old is not None:
        del acc[key]


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


def matrix_ints(a):
    """``(d, den, rows)``: the matrix ``a`` as numerators over one denominator
    (``scalars.complex_ints``), ``rows[i]`` a dict from column to the nonzero
    numerators of row i; None when an entry is a float or two radicands occur."""
    rows = [_nonzeros(row) for row in a]
    lane = complex_ints([x for row in rows for x in row.values()])
    if lane is None:
        return None
    d, den, ints = lane
    ints = iter(ints)
    return d, den, [{j: next(ints) for j in row} for row in rows]


def inverse(a):
    """A^-1 from the reduced rows of [A | 1], columns n...2n-1 holding 1."""
    n = len(a)
    rows = echelon({**_nonzeros(row), n + i: C_ONE} for i, row in enumerate(a))
    if list(rows) != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [[row.get(n + j, C_ZERO) for j in range(n)] for row in rows.values()]


def inverse_ints(d: int, den: int, rows) -> tuple:
    """The inverse of A = rows / den, for rows of numerators (a, b, c, e) over
    the one denominator ``den`` (``scalars.complex_ints``), in Z[sqrt(d)][i].

    Each row, and each row of the result, is a dict from column to nonzero
    numerators.  Returns ``(den', inv, pivots)`` with A^-1 = inv / den' and
    ``pivots[i]`` the entry of row i at column i once the earlier pivot rows
    have reduced it: D_{i+1} / D_i for the leading principal minors D_k of A
    up to the first that vanishes, where it is 0.

    This is Gauss-Jordan on the rows of [rows | den 1] = den [A | 1], whose
    reduced form is [1 | A^-1], added one at a time as :func:`echelon_add`
    adds them.  Each row is numerators over its own denominator, made
    primitive by one gcd per update.  A new row is reduced by every pivot row
    at once, as the pivot rows vanish at each other's pivots, and divided by
    its pivot x through the conjugates of x, whose product with x is the norm
    of x, a nonzero integer.  The reduced form is unique, so this is the
    value :func:`inverse` computes.
    """
    n = len(rows)
    one = (den, 0, 0, 0)
    pivots: dict = {}     # pivot -> (numerators, denominator), 1 at the pivot
    diagonal = []
    for i, row in enumerate(rows):
        vec = {**row, n + i: one}
        vec, r = _subtract(vec, 1, [(vec[q], *pivots[q]) for q in vec if q in pivots], d)
        diagonal.append(complex_from_ints(*vec.get(i, (0, 0, 0, 0)), r * den, d))
        p = min(vec)
        if p >= n:
            raise SingularMatrixError("matrix is singular")
        w, norm = _pivot_inverse(vec[p], d)
        vec, r = _primitive({j: mul_ints(y, w, d) for j, y in vec.items()}, norm)
        for q, (other, s) in pivots.items():
            f = other.get(p)
            if f is not None:
                pivots[q] = _subtract(other, s, [(f, vec, r)], d)
        pivots[p] = (vec, r)
    common = math.lcm(*(r for _, r in pivots.values()))
    inv = []
    for p in range(n):
        vec, r = pivots[p]
        m = common // r
        inv.append({j - n: (a * m, b * m, c * m, e * m)
                    for j, (a, b, c, e) in vec.items() if j >= n})
    return common, inv, diagonal


def _subtract(vec: dict, r: int, hits, d: int) -> tuple:
    """vec / r minus (f / r) (row / s) for each (f, row, s) in ``hits``, as
    numerators over r times the lcm of the s, made primitive."""
    if not hits:
        return vec, r
    big = math.lcm(*(s for _, _, s in hits))
    out = {j: (a * big, b * big, c * big, e * big) for j, (a, b, c, e) in vec.items()}
    for f, row, s in hits:
        m = big // s
        f = (f[0] * m, f[1] * m, f[2] * m, f[3] * m)
        for j, y in row.items():
            add_ints(out, j, neg_ints(mul_ints(f, y, d)))
    return _primitive(out, r * big)


def _primitive(vec: dict, r: int) -> tuple:
    """vec / r with the gcd of every numerator and r divided out."""
    g = math.gcd(r, *(v for x in vec.values() for v in x))
    if g == 1:
        return vec, r
    return {j: (a // g, b // g, c // g, e // g) for j, (a, b, c, e) in vec.items()}, r // g


def _pivot_inverse(x: tuple, d: int) -> tuple:
    """(w, norm) with x w = norm, a positive integer, for nonzero x in
    Z[sqrt(d)][i]: w is the product of the conjugates of x under
    i -> -i and sqrt(d) -> -sqrt(d), or of those that move x."""
    a, b, c, e = x
    if not (b or c or e):
        w, norm = (1, 0, 0, 0), a
    elif not (c or e):          # a + b sqrt(d)
        w, norm = (a, -b, 0, 0), a * a - d * b * b
    elif not (b or e):          # a + i c
        w, norm = (a, 0, -c, 0), a * a + c * c
    else:                       # |x|^2 = u + v sqrt(d), of positive norm
        u, v = a * a + d * (b * b + e * e) + c * c, 2 * (a * b + c * e)
        w, norm = mul_ints((a, b, -c, -e), (u, -v, 0, 0), d), u * u - d * v * v
    if norm < 0:
        w, norm = neg_ints(w), -norm
    return w, norm


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
