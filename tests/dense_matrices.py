"""Dense matrix arithmetic, an oracle for the sparse columns of ``hha``.

``hha`` holds every real linear map as its sparse columns
(``linalg._columns``); these helpers multiply, add and transpose plain
lists of rows, so that tests can check the column routes against the
textbook products.  Entries keep their type: Scalar matrices stay Scalar.
"""
from hha.scalars import C_ONE, C_ZERO, ZERO


def _zero_like(m):
    """The zero of m's entry type."""
    for row in m:
        for x in row:
            return type(x)._coerce(0)
    return C_ZERO


def identity(n: int):
    return [[C_ONE if i == j else C_ZERO for j in range(n)] for i in range(n)]


def dense(cols: list):
    """The real square matrix with the sparse columns ``cols``."""
    return [[col.get(r, ZERO) for col in cols] for r in range(len(cols))]


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
