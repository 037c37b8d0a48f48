"""The skew Pfaffian and its matrix type, kept as oracles for the pivot read.

``Metric`` reads Pf(A) of its (2,0)-form as the product of one pivot of each
equal pair of the Hermitian elimination of G.  The skew Schur elimination it
replaced, with the strictly-upper-triangular matrix type it ran on, checks
that read here and the closed forms of ``forms.cofactor_power``.
"""
from hha.forms import Form, indices
from hha.scalars import C_ONE, C_ZERO, ComplexScalar


class SkewMatrix:
    """Strictly-upper-triangular storage of a skew 2k x 2k complex matrix.

    Encodes a (2,0)-form as ``sum_{i<j} A[i][j] z^i ^ z^j`` (0-based indices).
    """

    __slots__ = ("size", "entries")

    def __init__(self, size: int, entries: dict | None = None):
        self.size = size
        self.entries = {}
        if entries:
            for (i, j), c in entries.items():
                if not (0 <= i < j < size):
                    raise ValueError(f"entry ({i},{j}) not strictly upper triangular")
                c = ComplexScalar._coerce(c)
                if not c.is_zero():
                    self.entries[(i, j)] = c

    def __getitem__(self, ij):
        i, j = ij
        if i == j:
            return C_ZERO
        if i < j:
            return self.entries.get((i, j), C_ZERO)
        c = self.entries.get((j, i))
        return C_ZERO if c is None else -c

    def full(self):
        return [[self[i, j] for j in range(self.size)] for i in range(self.size)]

    @classmethod
    def from_form(cls, form: Form, half: int | None = None) -> "SkewMatrix":
        """Read a (2,0)-form over the holomorphic half of a complex frame."""
        size = half if half is not None else form.nsym
        if form.degree != 2:
            raise ValueError("skew matrix needs a 2-form")
        entries = {}
        for key, c in form.terms.items():
            i, j = indices(key)
            if j >= size:
                raise ValueError("form has components outside the holomorphic block")
            entries[(i, j)] = c
        return cls(size, entries)

    def pfaffian(self) -> ComplexScalar:
        return pfaffian(self.full())

    def __eq__(self, other):
        return (
            isinstance(other, SkewMatrix)
            and self.size == other.size
            and self.entries == other.entries
        )


def pfaffian(matrix) -> ComplexScalar:
    """Pfaffian of a full skew-symmetric matrix of complex scalars.

    Normalised so the direct sum of [[0, a_i], [-a_i, 0]] blocks gives
    ``prod a_i``.  Odd sizes raise.
    """
    m = len(matrix)
    if m % 2 != 0:
        raise ValueError("Pfaffian needs an even-dimensional matrix")
    if m == 0:
        return C_ONE
    work = [[ComplexScalar._coerce(matrix[i][j]) for j in range(m)] for i in range(m)]
    sign = 1
    result = C_ONE
    while len(work) > 2:
        k = len(work)
        piv = None
        for j in range(1, k):
            if not work[0][j].is_zero():
                piv = j
                break
        if piv is None:
            return C_ZERO
        if piv != 1:
            for row in work:
                row[1], row[piv] = row[piv], row[1]
            work[1], work[piv] = work[piv], work[1]
            sign = -sign
        a = work[0][1]
        result = result * a
        v = work[0][2:]
        w = work[1][2:]
        ainv = a.inverse()
        # the Schur update of entry (r, s) vanishes unless row r and column s
        # meet the pivot pair: skip the indices where v and w are both zero
        live = [s for s in range(k - 2) if not (v[s].is_zero() and w[s].is_zero())]
        nxt = [row[2:] for row in work[2:]]
        for r in live:
            vr, wr, row = v[r], w[r], nxt[r]
            for s in live:
                row[s] = row[s] - (vr * w[s] - wr * v[s]) * ainv
        work = nxt
    result = result * work[0][1]
    return result if sign > 0 else -result
