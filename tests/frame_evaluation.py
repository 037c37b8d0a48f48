"""Forms evaluated on frame vectors, the convention of :mod:`hha.forms`.

``hha`` reads every value it needs off the coefficients of a form; these
helpers evaluate instead, for the tests of that convention and for the
oracles that recompute the reads.  A tangent vector is a dict from dual-frame
indices to complex coefficients: 0..N-1 are Z_1..Z_N and N..2N-1 their
conjugates.
"""
from hha.hypercomplex import j_index
from hha.scalars import C_ONE


def evaluate(form, vectors):
    """form(X_1, ..., X_k), multilinear and alternating:
    (a^1 ^ ... ^ a^k)(X_1, ..., X_k) = det(a^i(X_j))."""
    if len(vectors) != form.degree:
        raise ValueError("number of vectors must equal the degree")
    for v in vectors:
        form = form.contract(v)
    return form.coefficient(())


def frame_vector(frame, r: int, bar: bool = False) -> dict:
    """Dual frame vector Z_r (1-based), or its conjugate."""
    return {(r - 1 + frame.N if bar else r - 1): C_ONE}


def conj_vector(frame, vec: dict) -> dict:
    return {frame.conj_index(k): c.conjugate() for k, c in vec.items()}


def j_vector(frame, vec: dict) -> dict:
    """J on a vector: J Z_h = -s(h) conj(Z_{P(h)}), J conj(Z_h) = -s(h) Z_{P(h)}."""
    N = frame.N
    out = {}
    for k, c in vec.items():
        p, s = j_index(k % N)
        out[p if k >= N else N + p] = -c if s > 0 else c
    return out


def i_vector(frame, vec: dict) -> dict:
    """I on a vector: i on the holomorphic and -i on the antiholomorphic block."""
    return {k: (c.times_i() if k < frame.N else -c.times_i()) for k, c in vec.items()}


def k_vector(frame, vec: dict) -> dict:
    """K = IJ on a vector."""
    return i_vector(frame, j_vector(frame, vec))
