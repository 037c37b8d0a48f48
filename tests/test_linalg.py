import random
from fractions import Fraction

import pytest

from dense_matrices import identity, mat_add, mat_mul, mat_sub, transpose
from hha import linalg
from hha.scalars import C_ONE, C_ZERO, ComplexScalar, Scalar, ZERO, rational
from pfaffian_oracle import pfaffian


def c(re, im=0):
    return ComplexScalar(rational(re), rational(im))


def apply(a, x):
    """The matrix-vector product A x."""
    return [row[0] for row in mat_mul(a, [[v] for v in x])]


def conj_transpose(a):
    return [[x.conjugate() for x in col] for col in zip(*a)]


def rand_matrix(rng, rows, cols):
    return [[c(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)]


def test_solve_exact():
    a = [[c(2), c(1)], [c(1), c(3)]]
    b = [c(5), c(10)]
    x = linalg.solve(a, b)
    assert apply(a, x) == b


def test_solve_inconsistent_returns_none():
    a = [[c(1), c(1)], [c(1), c(1)]]
    b = [c(0), c(1)]
    assert linalg.solve(a, b) is None


def test_solve_underdetermined_is_consistent():
    a = [[c(1), c(1)]]
    b = [c(3)]
    x = linalg.solve(a, b)
    assert apply(a, x) == b


def test_inverse_round_trip():
    rng = random.Random(2)
    for _ in range(10):
        m = rand_matrix(rng, 3, 3)
        if linalg.det(m).is_zero():
            continue
        inv = linalg.inverse(m)
        assert mat_mul(m, inv) == identity(3)


def test_inverse_singular_raises():
    with pytest.raises(linalg.SingularMatrixError):
        linalg.inverse([[c(1), c(2)], [c(2), c(4)]])


def test_det_multiplicative():
    rng = random.Random(3)
    for _ in range(10):
        a = rand_matrix(rng, 3, 3)
        b = rand_matrix(rng, 3, 3)
        assert linalg.det(mat_mul(a, b)) == linalg.det(a) * linalg.det(b)


def nullspace(a):
    """Basis of the right kernel of A, one vector per free column."""
    n = len(a[0]) if a else 0
    rows = linalg.echelon({j: x for j, x in enumerate(row) if not x.is_zero()} for row in a)
    basis = []
    for fc in range(n):
        if fc in rows:
            continue
        v = [C_ZERO] * n
        v[fc] = C_ONE
        for p, row in rows.items():
            if fc in row:
                v[p] = -row[fc]
        basis.append(v)
    return basis


def test_nullspace():
    a = [[c(1), c(2), c(3)]]
    basis = nullspace(a)
    assert len(basis) == 2
    for v in basis:
        assert all(x.is_zero() for x in apply(a, v))


def test_rank():
    assert linalg.rank([[c(1), c(2)], [c(2), c(4)]]) == 1
    assert linalg.rank([[c(1), c(0)], [c(0), c(1)]]) == 2


def inertia(g):
    """(n_pos, n_neg, n_zero) counted from the signs of the pivots."""
    signs = [p.sign() for p in linalg.hermitian_pivots(g)]
    assert len(signs) == len(g)
    return signs.count(1), signs.count(-1), signs.count(0)


def pivot_product(g):
    out = ComplexScalar(rational(1))
    for p in linalg.hermitian_pivots(g):
        out = out * p
    return out


def test_hermitian_inertia_diagonal():
    g = [[c(2), c(0)], [c(0), c(-3)]]
    assert linalg.hermitian_pivots(g) == [rational(2), rational(-3)]
    assert inertia(g) == (1, 1, 0)


def test_hermitian_inertia_psd_rank_deficient():
    g = [[c(1), c(0), c(0)], [c(0), c(1), c(0)], [c(0), c(0), c(0)]]
    assert inertia(g) == (2, 0, 1)
    assert linalg.hermitian_definiteness(g) == "semipositive"


def test_hermitian_inertia_hyperbolic_block():
    g = [[c(0), c(1)], [c(1), c(0)]]
    assert inertia(g) == (1, 1, 0)
    assert linalg.hermitian_definiteness(g) == "indefinite"
    # the block [[0, x], [conj x, 0]] gives the pair (1, -|x|^2)
    x = c(1, 2)
    block = [[c(0), x], [x.conjugate(), c(0)]]
    assert linalg.hermitian_pivots(block) == [rational(1), rational(-5)]


def test_hermitian_inertia_random_congruence_invariant():
    # inertia of B^H D B matches the inertia of the diagonal D when B invertible
    rng = random.Random(5)
    for _ in range(10):
        d_entries = [rng.choice([-2, -1, 1, 2, 0]) for _ in range(4)]
        d = [[c(d_entries[i]) if i == j else C_ZERO for j in range(4)] for i in range(4)]
        b = rand_matrix(rng, 4, 4)
        if linalg.det(b).is_zero():
            continue
        g = mat_mul(conj_transpose(b), mat_mul(d, b))
        pos = sum(1 for x in d_entries if x > 0)
        neg = sum(1 for x in d_entries if x < 0)
        zero = sum(1 for x in d_entries if x == 0)
        assert inertia(g) == (pos, neg, zero)
        assert pivot_product(g) == linalg.det(g)


def test_hermitian_definiteness_positive():
    g = [[c(2), c(0, 1)], [c(0, -1), c(2)]]
    assert linalg.hermitian_definiteness(g) == "positive"


def test_matrix_helpers_keep_the_entry_type():
    # structure columns hold Scalar entries, which exported files print as
    # such; the linear-map helpers keep the entry type and drop zeros
    from hha.hypercomplex import HypercomplexStructure, SpherePoint
    from hha.scalars import ONE, Scalar
    a = [[ONE, ZERO], [rational(1, 2), ZERO]]
    cols = linalg._columns(a)
    assert cols == [{0: ONE, 1: rational(1, 2)}, {}]
    assert linalg._columns([[1, 0], [Fraction(1, 2), 0]]) == cols   # entries are coerced
    assert linalg._apply(cols, {0: ONE, 1: ONE}) == {0: ONE, 1: rational(1, 2)}
    H = HypercomplexStructure.standard(1)
    rotated = H.rotate_pair(SpherePoint(rational(3, 5), rational(4, 5), 0), SpherePoint(0, 0, 1))
    maps = [cols, H.combo(SpherePoint(0, rational(3, 5), rational(-4, 5))),
            *rotated.columns.values()]
    assert all(type(x) is Scalar for m in maps for col in m for x in col.values())
    z = [{0: c(1, 1)}, {1: C_ONE}]
    assert all(type(x) is ComplexScalar for col in z for x in linalg._apply(z, col).values())


# -- an independent oracle: sympy's exact domain matrices over Q(i) and
# Q(sqrt 2, i), on random sparse and dense matrices, singular ones included.
# The inertia of a Hermitian matrix is read from its characteristic
# polynomial, whose roots are all real: Descartes' rule of signs then counts
# them exactly, and the signs of the pivots must agree; their product must be
# the determinant.  The oracle Pfaffian is checked by Pf^2 = det, which fixes
# it up to sign; test_forms checks the sign against the top wedge power.


def _random_entry(rng, d, density):
    if rng.random() >= density:
        return C_ZERO

    def part():
        a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 2)) if d else 0
        return Scalar(a, b, d)

    return ComplexScalar(part(), part() if rng.random() < 0.5 else ZERO)


def _random_exact_matrix(rng, rows, cols, d, density, singular):
    a = [[_random_entry(rng, d, density) for _ in range(cols)] for _ in range(rows)]
    if singular:
        # one row a combination of two others (a multiple of one when rows == 2)
        i, j, k = rng.sample(range(rows), 3) if rows > 2 else (0, 0, 1)
        f = _random_entry(rng, d, 1.0)
        a[k] = [f * x + (y if i != j else C_ZERO) for x, y in zip(a[i], a[j])]
    return a


def _congruent(m, a, skew):
    """M^T A M for a skew A, M^* A M otherwise: symmetric type is kept, and a
    singular M makes the result singular."""
    left = transpose(m) if skew else conj_transpose(m)
    return mat_mul(left, mat_mul(a, m))


def _sign_changes(signs):
    signs = [x for x in signs if x]
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def _descartes_inertia(sympy, field, coeffs):
    """(n_pos, n_neg, n_zero) from the characteristic polynomial det(x - H),
    leading coefficient first."""
    n = len(coeffs) - 1
    signs = []
    for c in coeffs:
        e = field.to_sympy(c)
        assert sympy.im(e) == 0
        signs.append(int(sympy.sign(e)))
    zero = next(k for k, x in enumerate(reversed(signs)) if x)
    pos = _sign_changes(signs)
    neg = _sign_changes([x if (n - k) % 2 == 0 else -x for k, x in enumerate(signs)])
    assert pos + neg + zero == n
    return pos, neg, zero


@pytest.mark.parametrize("d", [0, 2])
@pytest.mark.parametrize("density", [0.3, 1.0])
def test_linalg_matches_sympy(d, density):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    field = sympy.QQ.algebraic_field(*([sympy.sqrt(d)] if d else []), sympy.I)
    # convert the generators once; entries are built by field arithmetic
    root_d = field.from_sympy(sympy.sqrt(d)) if d else field.zero
    unit_i = field.from_sympy(sympy.I)

    def to_field(z):
        def part(s):
            return field.convert(s.a) + field.convert(s.b) * root_d
        return part(z.re) + unit_i * part(z.im)

    def domain_matrix(m):
        return DomainMatrix([[to_field(x) for x in row] for row in m],
                            (len(m), len(m[0])), field)

    rng = random.Random(10 * d + int(10 * density))
    seen_singular = seen_regular = 0
    for n in range(2, 9):
        for singular in (False, True):
            a = _random_exact_matrix(rng, n, n, d, density, singular)
            ref = domain_matrix(a)
            det = ref.det()
            assert to_field(linalg.det(a)) == det
            assert linalg.rank(a) == ref.rank()
            b = [_random_entry(rng, d, 1.0) for _ in range(n)]
            ref_b = domain_matrix([[x] for x in b])
            x = linalg.solve(a, b)
            if det == field.zero:
                seen_singular += 1
                with pytest.raises(linalg.SingularMatrixError):
                    linalg.inverse(a)
                consistent = ref.hstack(ref_b).rank() == ref.rank()
                assert (x is not None) == consistent
                if consistent:
                    assert ref.matmul(domain_matrix([[v] for v in x])) == ref_b
            else:
                seen_regular += 1
                assert domain_matrix(linalg.inverse(a)) == ref.inv()
                assert domain_matrix([[v] for v in x]) == ref.lu_solve(ref_b)
            wide = _random_exact_matrix(rng, n, n + 2, d, density, singular)
            assert linalg.rank(wide) == domain_matrix(wide).rank()
    assert seen_singular >= 7 and seen_regular >= 1
    # Hermitian and skew parts of random matrices, made singular by a
    # singular congruence
    rng = random.Random(10 * d + int(10 * density) + 1)
    seen_zero = seen_indefinite = seen_pf_zero = 0
    for n in range(2, 9):
        for singular in (False, True):
            a = _random_exact_matrix(rng, n, n, d, density, False)
            h = mat_add(a, conj_transpose(a))
            skew = mat_sub(a, transpose(a))
            if singular:
                m = _random_exact_matrix(rng, n, n, d, density, True)
                h, skew = _congruent(m, h, skew=False), _congruent(m, skew, skew=True)
            signs = inertia(h)
            coeffs = domain_matrix(h).charpoly()
            assert signs == _descartes_inertia(sympy, field, coeffs)
            # det(x - H) at x = 0 is (-1)^n det H
            assert to_field(pivot_product(h)) == (-1) ** n * coeffs[-1]
            seen_zero += signs[2] > 0
            seen_indefinite += signs[0] > 0 and signs[1] > 0
            if n % 2 == 0:
                pf = to_field(pfaffian(skew))
                assert pf * pf == domain_matrix(skew).det()
                seen_pf_zero += pf == field.zero
    assert seen_zero >= 7 and seen_indefinite >= 7 and seen_pf_zero >= 4
