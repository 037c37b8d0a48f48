import random

import pytest

from hha import linalg
from hha.scalars import C_ONE, C_ZERO, ComplexScalar, rational


def c(re, im=0):
    return ComplexScalar(rational(re), rational(im))


def rand_matrix(rng, rows, cols):
    return [[c(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)]


def test_solve_exact():
    a = [[c(2), c(1)], [c(1), c(3)]]
    b = [c(5), c(10)]
    x = linalg.solve(a, b)
    assert linalg.mat_vec(a, x) == b


def test_solve_inconsistent_returns_none():
    a = [[c(1), c(1)], [c(1), c(1)]]
    b = [c(0), c(1)]
    assert linalg.solve(a, b) is None


def test_solve_underdetermined_is_consistent():
    a = [[c(1), c(1)]]
    b = [c(3)]
    x = linalg.solve(a, b)
    assert linalg.mat_vec(a, x) == b


def test_inverse_round_trip():
    rng = random.Random(2)
    for _ in range(10):
        m = rand_matrix(rng, 3, 3)
        if linalg.det(m).is_zero():
            continue
        inv = linalg.inverse(m)
        assert linalg.mat_mul(m, inv) == linalg.identity(3)


def test_inverse_singular_raises():
    with pytest.raises(linalg.SingularMatrixError):
        linalg.inverse([[c(1), c(2)], [c(2), c(4)]])


def test_det_multiplicative():
    rng = random.Random(3)
    for _ in range(10):
        a = rand_matrix(rng, 3, 3)
        b = rand_matrix(rng, 3, 3)
        assert linalg.det(linalg.mat_mul(a, b)) == linalg.det(a) * linalg.det(b)


def test_nullspace():
    a = [[c(1), c(2), c(3)]]
    basis = linalg.nullspace(a)
    assert len(basis) == 2
    for v in basis:
        assert all(x.is_zero() for x in linalg.mat_vec(a, v))


def test_rank():
    assert linalg.rank([[c(1), c(2)], [c(2), c(4)]]) == 1
    assert linalg.rank([[c(1), c(0)], [c(0), c(1)]]) == 2


def test_hermitian_inertia_diagonal():
    g = [[c(2), c(0)], [c(0), c(-3)]]
    assert linalg.hermitian_inertia(g) == (1, 1, 0)


def test_hermitian_inertia_psd_rank_deficient():
    g = [[c(1), c(0), c(0)], [c(0), c(1), c(0)], [c(0), c(0), c(0)]]
    assert linalg.hermitian_definiteness(g) == "semipositive"


def test_hermitian_inertia_hyperbolic_block():
    g = [[c(0), c(1)], [c(1), c(0)]]
    assert linalg.hermitian_inertia(g) == (1, 1, 0)
    assert linalg.hermitian_definiteness(g) == "indefinite"


def test_hermitian_inertia_random_congruence_invariant():
    # inertia of B^H D B matches the inertia of the diagonal D when B invertible
    rng = random.Random(5)
    for _ in range(10):
        d_entries = [rng.choice([-2, -1, 1, 2, 0]) for _ in range(4)]
        d = [[c(d_entries[i]) if i == j else C_ZERO for j in range(4)] for i in range(4)]
        b = rand_matrix(rng, 4, 4)
        if linalg.det(b).is_zero():
            continue
        g = linalg.mat_mul(linalg.conj_transpose(b), linalg.mat_mul(d, b))
        pos = sum(1 for x in d_entries if x > 0)
        neg = sum(1 for x in d_entries if x < 0)
        zero = sum(1 for x in d_entries if x == 0)
        assert linalg.hermitian_inertia(g) == (pos, neg, zero)


def test_hermitian_definiteness_positive():
    g = [[c(2), c(0, 1)], [c(0, -1), c(2)]]
    assert linalg.hermitian_definiteness(g) == "positive"


def test_matrix_helpers_keep_the_entry_type():
    # structure matrices hold Scalar entries, which exported files print as such
    from hha.scalars import ONE, ZERO, Scalar
    a = [[ONE, ZERO], [rational(1, 2), ZERO]]
    products = (linalg.mat_mul(a, a), linalg.mat_add(a, a), linalg.mat_sub(a, a),
                linalg.mat_scale(ONE, a))
    for m in products:
        assert all(type(x) is Scalar for row in m for x in row)
    assert linalg.mat_mul(a, a) == [[ONE, ZERO], [rational(1, 2), ZERO]]
    z = [[c(1, 1), C_ZERO], [C_ZERO, C_ONE]]
    assert all(type(x) is ComplexScalar for row in linalg.mat_mul(z, z) for x in row)
