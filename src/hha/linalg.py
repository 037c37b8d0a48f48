"""Exact dense linear algebra over complex scalars (small matrices only)."""
from __future__ import annotations

from .scalars import C_ONE, C_ZERO, ComplexScalar


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


def mat_vec(a, v):
    return [
        sum((a[i][j] * v[j] for j in range(len(v)) if not a[i][j].is_zero()), C_ZERO)
        for i in range(len(a))
    ]


def transpose(a):
    return [list(col) for col in zip(*a)]


def conj_transpose(a):
    return [[a[j][i].conjugate() for j in range(len(a))] for i in range(len(a[0]))]


def _row_echelon(m):
    """In-place reduced row echelon; returns pivot column list."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if not m[i][c].is_zero():
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        inv = prow[c].inverse()
        # the pivot row is often sparse: scale and subtract only its nonzeros
        support = [j for j in range(cols) if not prow[j].is_zero()]
        for j in support:
            prow[j] = prow[j] * inv
        for i in range(rows):
            row = m[i]
            if i != r and not row[c].is_zero():
                f = row[c]
                for j in support:
                    row[j] = row[j] - f * prow[j]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def solve(a, b):
    """Solve A x = b exactly; returns None when inconsistent.

    A is m x n (m equations), b length m.  With multiple solutions an
    arbitrary member (free variables zero) is returned.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    aug = [[_c(a[i][j]) for j in range(n)] + [_c(b[i])] for i in range(m)]
    pivots = _row_echelon(aug)
    if n in pivots:
        return None
    x = [C_ZERO] * n
    for r, c in enumerate(pivots):
        x[c] = aug[r][n]
    return x


def inverse(a):
    n = len(a)
    aug = [[_c(a[i][j]) for j in range(n)] + identity(n)[i] for i in range(n)]
    pivots = _row_echelon(aug)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in aug]


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
    m = [[_c(x) for x in row] for row in a]
    return len(_row_echelon(m)) if m else 0


def nullspace(a):
    """Basis of the right kernel of A."""
    m = len(a)
    n = len(a[0]) if m else 0
    red = [[_c(x) for x in row] for row in a]
    pivots = _row_echelon(red)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [C_ZERO] * n
        v[fc] = C_ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def hermitian_inertia(g):
    """Exact inertia (n_pos, n_neg, n_zero) of a Hermitian matrix.

    Uses Schur-complement pivoting; 2x2 hyperbolic blocks handle the case of
    a vanishing diagonal.  The input is not modified.
    """
    n = len(g)
    m = [[_c(g[i][j]) for j in range(n)] for i in range(n)]
    active = list(range(n))
    pos = neg = zero = 0
    while active:
        piv = None
        for i in active:
            if not m[i][i].is_zero():
                piv = i
                break
        if piv is not None:
            p = m[piv][piv]
            if not p.is_real():
                raise ValueError("matrix is not Hermitian")
            if p.re.sign() > 0:
                pos += 1
            else:
                neg += 1
            active.remove(piv)
            inv = p.inverse()
            for r in active:
                mrp = m[r][piv]
                if mrp.is_zero():
                    continue
                for s in active:
                    m[r][s] = m[r][s] - mrp * inv * m[piv][s]
            continue
        # all active diagonal entries vanish
        pair = None
        for i in active:
            for j in active:
                if i < j and not m[i][j].is_zero():
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            zero += len(active)
            break
        i, j = pair
        # 2x2 block [[0, x], [conj(x), 0]] contributes one of each sign
        pos += 1
        neg += 1
        active.remove(i)
        active.remove(j)
        x = m[i][j]
        xinv = x.inverse()
        xbinv = x.conjugate().inverse()
        for r in active:
            ri, rj = m[r][i], m[r][j]
            if ri.is_zero() and rj.is_zero():
                continue
            for s in active:
                upd = ri * xbinv * m[j][s] + rj * xinv * m[i][s]
                m[r][s] = m[r][s] - upd
    return pos, neg, zero


def hermitian_definiteness(g) -> str:
    """One of: positive, semipositive, negative, seminegative, indefinite, zero."""
    pos, neg, zero = hermitian_inertia(g)
    if pos and neg:
        return "indefinite"
    if pos:
        return "positive" if zero == 0 else "semipositive"
    if neg:
        return "negative" if zero == 0 else "seminegative"
    return "zero"
