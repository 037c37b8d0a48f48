"""The complex Gauss-Jordan elimination of G, an oracle for the quaternionic one.

``hha.linalg.quaternionic_inverse_ints`` eliminates the Gram matrix G of an
exact metric once, as the n x n quaternionic matrix whose complex form it
is.  Before that, ``hha`` eliminated G as a generic 2n x 2n complex matrix
on the same numerators: :func:`matrix_ints` wrote G as numerators over one
denominator, and :func:`inverse_ints` ran Gauss-Jordan on its rows.  Both
are kept here, unchanged, so that the tests can check the quaternionic
elimination against them: the same G^-1, and each quaternionic pivot twice
among the complex ones.
"""
import math

from hha.linalg import SingularMatrixError, _nonzeros, add_ints
from hha.scalars import complex_from_ints, complex_ints, mul_ints, neg_ints


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


def inverse_ints(d: int, den: int, rows) -> tuple:
    """The inverse of A = rows / den, for rows of numerators (a, b, c, e) over
    the one denominator ``den`` (``scalars.complex_ints``), in Z[sqrt(d)][i].

    Each row, and each row of the result, is a dict from column to nonzero
    numerators.  Returns ``(den', inv, pivots)`` with A^-1 = inv / den' and
    ``pivots[i]`` the entry of row i at column i once the earlier pivot rows
    have reduced it: D_{i+1} / D_i for the leading principal minors D_k of A
    up to the first that vanishes, where it is 0.

    This is Gauss-Jordan on the rows of [rows | den 1] = den [A | 1], whose
    reduced form is [1 | A^-1], added one at a time as ``linalg.echelon_add``
    adds them.  Each row is numerators over its own denominator, made
    primitive by one gcd per update.  A new row is reduced by every pivot row
    at once, as the pivot rows vanish at each other's pivots, and divided by
    its pivot x through the conjugates of x, whose product with x is the norm
    of x, a nonzero integer.  The reduced form is unique, so this is the
    value ``hha.linalg.inverse`` computes.
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
