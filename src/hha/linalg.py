"""Exact linear algebra over complex scalars, with one elimination kernel.

Every row reduction of scalar objects in ``hha`` apart from ``det`` and
``hermitian_pivots`` is :func:`echelon_add`: it adds one sparse row (a
dict from column to scalar) to a reduced row echelon basis and touches
only nonzeros.  Callers that hold forms pass ``form.terms`` as rows
directly.  ``solve``, ``inverse`` and ``rank`` read :func:`echelon` on
the nonzeros of their dense input.  ``det``, which nothing in the package
calls (the tests read it as an oracle), is forward elimination with a
pivot product; :func:`hermitian_pivots` is the symmetric elimination of a
Hermitian matrix, whose pivots give its definiteness here and the Pfaffian,
determinant and positivity of a float metric in ``hermitian``.

A real linear map (a structure I, J, K, a sphere point aI + bJ + cK, the
image of a quaternionic representation) is held as its sparse columns only:
:func:`_columns` reads them off a dense matrix, the input format, and
:func:`_apply` applies them to a sparse vector.

The exact Gram matrix G of a metric is eliminated once, on integers and
over H.  ``hermitian.Metric`` reads G as numerators (a, b, c, e) over one
denominator, standing for ((a + b sqrt(d)) + i (c + e sqrt(d))) / den
(``scalars.complex_ints``), off those of Omega.  G is the complex form of an
n x n quaternionic Hermitian matrix: :func:`quaternionic_inverse_ints` reads
that matrix off it, checking each 2x2 block on the way in, and runs
Gauss-Jordan on its n rows, one quaternion product per update; positivity
(Sylvester's criterion), Pf and det G are read off its n natural-order
pivots.  The scalar-object ``inverse`` and ``hermitian_pivots`` stay for a
float entry, whose sums must keep their rounding, and for every other
caller.

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
)


class SingularMatrixError(ArithmeticError):
    pass


class ConsistencyError(RuntimeError):
    """Two paper-equivalent computations disagreed; indicates a convention bug."""


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
    return {j: y for j, x in enumerate(row) if not (y := ComplexScalar._coerce(x)).is_zero()}


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


def quaternionic_inverse_ints(d: int, den: int, rows):
    """G^-1 and the pivots of a Hermitian matrix G that is the complex form of
    an n x n quaternionic matrix Q, eliminated once over H; None when Q is
    not positive definite.

    ``rows`` are the 2n rows of G = rows / den as numerators (a, b, c, e) in
    Z[sqrt(d)][i] (``scalars.complex_ints``), each a dict from column to
    nonzero numerators.  Q is read off them by :func:`_quaternion_row`:
    q_pq = G[2p][2q] + G[2p][2q+1] j, whose block of G must be
    [[a, b], [-conj b, conj a]].  As (a_1 + b_1 j)(a_2 + b_2 j) =
    (a_1 a_2 - b_1 conj b_2) + (a_1 b_2 + b_1 conj a_2) j, a + b j -> that
    block is a ring map, so G^-1 is the complex form of Q^-1.

    This is Gauss-Jordan over H (Zhang, Linear Algebra Appl. 251, 1997) on
    the rows of den [Q | 1], added in natural order as :func:`echelon_add`
    adds them: a new row is reduced by every pivot row at once, as the pivot
    rows vanish at each other's pivots, each update the left product of one
    quaternion with a row (:func:`_q_subtract`), made primitive by one gcd.
    Row p then holds its pivot at column p: the (p, p) entry of the Schur
    complement of the leading p x p block of Q.  Q is Hermitian, so each
    pivot is real, and one that is not is a ``ConsistencyError``; Q is
    positive definite exactly when every pivot is positive (Sylvester's
    criterion), and the elimination stops at the first that is not.
    A pivot u + v sqrt(d) divides as (u - v sqrt(d)) / (u^2 - d v^2).

    Returns ``(den', inv, pivots)``: G^-1 = inv / den', ``inv`` in the shape
    of ``rows``, and the n positive pivots as ``Scalar``s.  G has each of
    them twice among its own natural-order pivots, so det G is the square of
    their product.
    """
    n = len(rows) // 2
    one = (den, 0, 0, 0, 0, 0, 0, 0)
    pivots: dict = {}     # pivot -> (numerators, denominator), 1 at the pivot
    diagonal = []
    for p in range(n):
        vec = _quaternion_row(rows, p)
        vec[n + p] = one
        vec, r = _q_subtract(vec, 1, [(vec[q], *pivots[q]) for q in vec if q in pivots], d)
        u, v, *rest = vec.get(p, _ZERO8)
        if any(rest):
            raise ConsistencyError("a pivot of the Hermitian matrix G is not real")
        pivot = complex_from_ints(u, v, 0, 0, r * den, d).re
        if pivot.sign() <= 0:
            return None
        diagonal.append(pivot)
        norm = u
        if v:
            norm = u * u - d * v * v
            vec = {j: _q_real_mul(y, u, -v, d) for j, y in vec.items()}
        if norm < 0:
            norm, vec = -norm, {j: tuple(-x for x in y) for j, y in vec.items()}
        vec, r = _q_primitive(vec, norm)
        for q, (other, s) in pivots.items():
            f = other.get(p)
            if f is not None:
                pivots[q] = _q_subtract(other, s, [(f, vec, r)], d)
        pivots[p] = (vec, r)
    common = math.lcm(*(r for _, r in pivots.values()))
    inv = []
    for p in range(n):
        vec, r = pivots[p]
        m = common // r
        top, bottom = {}, {}
        for j in sorted(vec):
            if j >= n:   # q_pq = a + b j fills [[a, b], [-conj b, conj a]]
                a, b = (tuple(x * m for x in part) for part in (vec[j][:4], vec[j][4:]))
                col = 2 * (j - n)
                for row, k, x in ((top, col, a), (top, col + 1, b),
                                  (bottom, col, (-b[0], -b[1], b[2], b[3])),
                                  (bottom, col + 1, (a[0], a[1], -a[2], -a[3]))):
                    if any(x):
                        row[k] = x
        inv += [top, bottom]
    return common, inv, diagonal


_ZERO4 = (0,) * 4
_ZERO8 = (0,) * 8


def _quaternion_row(rows, p: int) -> dict:
    """Row p of Q, read off rows 2p and 2p + 1 of G: q_pq = (G[2p][2q],
    G[2p][2q+1]) as one 8-tuple of numerators, for each q where the block is
    not zero.  The lower row must hold -conj G[2p][2q+1] and conj G[2p][2q];
    a block that does not is a ``ConsistencyError``."""
    top, bottom = rows[2 * p], rows[2 * p + 1]
    out = {}
    for q in sorted({c >> 1 for c in top} | {c >> 1 for c in bottom}):
        a = top.get(2 * q, _ZERO4)
        b = top.get(2 * q + 1, _ZERO4)
        if (bottom.get(2 * q, _ZERO4) != (-b[0], -b[1], b[2], b[3])
                or bottom.get(2 * q + 1, _ZERO4) != (a[0], a[1], -a[2], -a[3])):
            raise ConsistencyError(f"the block of G at ({2 * p}, {2 * q}) is not the "
                                   "complex form of a quaternion")
        out[q] = a + b
    return out


def _q_subtract(vec: dict, r: int, hits, d: int) -> tuple:
    """vec / r minus (f / r) (row / s) for each (f, row, s) in ``hits``, each
    product taken with f on the left, as numerators over r times the lcm of
    the s, made primitive."""
    if not hits:
        return vec, r
    big = math.lcm(*(s for _, _, s in hits))
    out = {j: (a * big, b * big, c * big, e * big, f * big, g * big, h * big, k * big)
           for j, (a, b, c, e, f, g, h, k) in vec.items()}
    for f, row, s in hits:
        m = big // s
        f = tuple(-x * m for x in f)
        for j, y in row.items():
            x = _q_mul(f, y, d)
            old = out.get(j)
            if old is not None:
                x = (old[0] + x[0], old[1] + x[1], old[2] + x[2], old[3] + x[3],
                     old[4] + x[4], old[5] + x[5], old[6] + x[6], old[7] + x[7])
                if not any(x):
                    del out[j]
                    continue
            out[j] = x
    return _q_primitive(out, r * big)


def _q_primitive(vec: dict, r: int) -> tuple:
    """vec / r with the gcd of every numerator and r divided out."""
    g = math.gcd(r, *(x for y in vec.values() for x in y))
    return {j: (a // g, b // g, c // g, e // g, f // g, h // g, k // g, m // g)
            for j, (a, b, c, e, f, h, k, m) in vec.items()}, r // g


def _q_mul(x: tuple, y: tuple, d: int) -> tuple:
    """(a_1 + b_1 j)(a_2 + b_2 j) = (a_1 a_2 - b_1 conj b_2) + (a_1 b_2 + b_1 conj a_2) j
    on 8-tuples of numerators, each complex part (p + q sqrt(d)) + i (s + u sqrt(d))
    as in ``scalars.mul_ints``: sixty-four int products, over Q (d = 0) too."""
    a0, a1, a2, a3, b0, b1, b2, b3 = x
    c0, c1, c2, c3, e0, e1, e2, e3 = y
    return (a0 * c0 - a2 * c2 - b0 * e0 - b2 * e2 + d * (a1 * c1 - a3 * c3 - b1 * e1 - b3 * e3),
            a0 * c1 + a1 * c0 - a2 * c3 - a3 * c2 - b0 * e1 - b1 * e0 - b2 * e3 - b3 * e2,
            a0 * c2 + a2 * c0 - b2 * e0 + b0 * e2 + d * (a1 * c3 + a3 * c1 - b3 * e1 + b1 * e3),
            a0 * c3 + a1 * c2 + a2 * c1 + a3 * c0 - b2 * e1 - b3 * e0 + b0 * e3 + b1 * e2,
            a0 * e0 - a2 * e2 + b0 * c0 + b2 * c2 + d * (a1 * e1 - a3 * e3 + b1 * c1 + b3 * c3),
            a0 * e1 + a1 * e0 - a2 * e3 - a3 * e2 + b0 * c1 + b1 * c0 + b2 * c3 + b3 * c2,
            a0 * e2 + a2 * e0 + b2 * c0 - b0 * c2 + d * (a1 * e3 + a3 * e1 + b3 * c1 - b1 * c3),
            a0 * e3 + a1 * e2 + a2 * e1 + a3 * e0 + b2 * c1 + b3 * c0 - b0 * c3 - b1 * c2)


def _q_real_mul(y: tuple, u: int, v: int, d: int) -> tuple:
    """The quaternion y times the real u + v sqrt(d), part by part."""
    return tuple(x for k in range(0, 8, 2)
                 for x in (y[k] * u + y[k + 1] * v * d, y[k] * v + y[k + 1] * u))


def det(a) -> ComplexScalar:
    n = len(a)
    m = [[ComplexScalar._coerce(x) for x in row] for row in a]
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
    m = [[ComplexScalar._coerce(g[i][j]) for j in range(n)] for i in range(n)]
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
