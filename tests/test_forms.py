import itertools
import random

import pytest

from hha.forms import (
    DegreeOverflowError,
    Form,
    bidegree_split,
    mask,
    pure_bidegree,
)
from hha.scalars import C_I, C_ONE, C_ZERO, ComplexScalar, rational, root
from frame_evaluation import evaluate
from pfaffian_oracle import SkewMatrix, pfaffian


def mono(nsym, idx, c=C_ONE):
    return Form.monomial(nsym, idx, c)


def rand_coeff(rng):
    return ComplexScalar(rational(rng.randint(-5, 5), rng.randint(1, 4)),
                         rational(rng.randint(-5, 5), rng.randint(1, 4)))


def rand_form(rng, nsym, degree, nterms=4):
    f = Form.zero(nsym, degree)
    keys = list(itertools.combinations(range(nsym), degree))
    for _ in range(nterms):
        f = f + Form.monomial(nsym, rng.choice(keys), rand_coeff(rng))
    return f


def test_wedge_alternation():
    z1 = mono(4, (0,))
    assert z1.wedge(z1).is_zero()


def test_wedge_graded_sign():
    z1, z2 = mono(4, (0,)), mono(4, (1,))
    assert z1.wedge(z2) == -(z2.wedge(z1))


def test_wedge_binomial_square():
    # (z1^z2 + z3^z4)^2 = 2 z1^z2^z3^z4, by independent binomial expansion
    omega = mono(4, (0, 1)) + mono(4, (2, 3))
    sq = omega.wedge(omega)
    expect = mono(4, (0, 1, 2, 3), ComplexScalar(rational(2)))
    assert sq == expect
    # oracle: expand (a+b)^2 = a^2 + ab + ba + b^2 by hand
    a, b = mono(4, (0, 1)), mono(4, (2, 3))
    oracle = a.wedge(a) + a.wedge(b) + b.wedge(a) + b.wedge(b)
    assert sq == oracle


def test_wedge_degree_overflow_raises():
    a = mono(4, (0, 1, 2))
    b = mono(4, (1, 2, 3))
    with pytest.raises(DegreeOverflowError):
        a.wedge(b)


def test_wedge_associative_and_graded_commutative():
    rng = random.Random(11)
    for _ in range(25):
        n = 6
        da, db, dc = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
        a, b, c = (rand_form(rng, n, d) for d in (da, db, dc))
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))
        sign = (-1) ** (da * db)
        ab = a.wedge(b)
        ba = b.wedge(a)
        assert ab == (ba if sign > 0 else -ba)


def test_contract_basics():
    z12 = mono(4, (0, 1))
    e0 = {0: C_ONE}
    e2 = {2: C_ONE}
    assert z12.contract(e0) == mono(4, (1,))
    assert z12.contract(e2).is_zero()


def test_contract_squares_to_zero():
    rng = random.Random(5)
    for _ in range(20):
        f = rand_form(rng, 6, 3)
        v = {i: rand_coeff(rng) for i in range(6)}
        assert f.contract(v).contract(v).is_zero()


def test_contract_antiderivation():
    rng = random.Random(6)
    for _ in range(20):
        da, db = rng.randint(1, 2), rng.randint(1, 2)
        a, b = rand_form(rng, 6, da), rand_form(rng, 6, db)
        v = {i: rand_coeff(rng) for i in range(6)}
        lhs = a.wedge(b).contract(v)
        rhs = a.contract(v).wedge(b)
        second = a.wedge(b.contract(v))
        rhs = rhs + (second if da % 2 == 0 else -second)
        assert lhs == rhs


def test_contract_power_consistency():
    # For n=2, contracting Z_1 into Omega_std^2 / 1! gives z2 ^ Omega_std
    omega = mono(4, (0, 1)) + mono(4, (2, 3))
    sq = omega.wedge(omega)  # = 2 z1z2z3z4
    got = sq.contract({0: C_ONE})
    expect = mono(4, (1,)).wedge(omega).scale(rational(2)) - mono(4, (1,)).wedge(mono(4, (2, 3)))
    # direct expansion: iota_{Z1}(2 z1z2z3z4) = 2 z2z3z4 and z2 ^ Omega = z2z3z4
    assert got == mono(4, (1, 2, 3), ComplexScalar(rational(2)))
    assert mono(4, (1,)).wedge(omega) == mono(4, (1, 2, 3))


def test_substitute_is_multiplicative():
    rng = random.Random(9)
    n = 4
    images = [rand_form(rng, n, 1, nterms=2) for _ in range(n)]
    for _ in range(10):
        a, b = rand_form(rng, n, 1, 2), rand_form(rng, n, 2, 2)
        lhs = a.wedge(b).substitute(images)
        rhs = a.substitute(images).wedge(b.substitute(images))
        assert lhs == rhs


def test_map_indices_permutation_sign():
    f = mono(4, (0, 1))
    swap = {0: (1, 1), 1: (0, 1), 2: (2, 1), 3: (3, 1)}
    assert f.map_indices(swap) == -f
    collapse = {0: (1, 1), 1: (1, 1), 2: (2, 1), 3: (3, 1)}
    assert f.map_indices(collapse).is_zero()


def test_evaluate_determinant_convention():
    f = mono(4, (0, 1))
    z0 = {0: C_ONE}
    z1 = {1: C_ONE}
    assert evaluate(f, [z0, z1]) == C_ONE
    assert evaluate(f, [z1, z0]) == -C_ONE
    mixed = {0: C_ONE, 1: C_I}
    assert evaluate(f, [mixed, z1]) == C_ONE


def test_equal_forms_hash_alike():
    """Zero forms of any degree are equal, so they hash alike; a form built
    from numerators hashes like its object-built twin, over Q and Q(sqrt 2)."""
    assert Form.zero(8, 1) == Form.zero(8, 2)
    assert hash(Form.zero(8, 1)) == hash(Form.zero(8, 2))
    assert hash(Form.zero(8, 0)) == hash(Form.from_numerators(8, 3, 0, 1, {}))
    half_root = ComplexScalar(rational(1, 2) + root(2) * rational(1, 2), rational(-1, 3))
    for d, coeff, ints in ((0, ComplexScalar(rational(1, 2), rational(-1, 3)), (3, 0, -2, 0)),
                           (2, half_root, (3, 3, -2, 0))):
        built = Form.from_numerators(4, 2, d, 6, {mask((0, 3)): ints, mask((1, 2)): (0, 0, 12, 0)})
        twin = Form(4, 2, {mask((0, 3)): coeff, mask((1, 2)): ComplexScalar(0, 2)})
        assert built == twin and twin == built and hash(built) == hash(twin)
        assert len({built, twin, Form.zero(4, 1), Form.zero(4, 3)}) == 2


def test_bidegree_split_exhaustive_idempotent():
    rng = random.Random(13)
    for _ in range(10):
        f = rand_form(rng, 8, 3, nterms=6)
        parts = bidegree_split(f, 4)
        total = Form.zero(8, 3)
        for pq, part in parts.items():
            assert pure_bidegree(part, 4) == pq or part.is_zero()
            again = bidegree_split(part, 4)
            assert set(again) <= {pq}
            total = total + part
        assert total == f


# -- Pfaffian ---------------------------------------------------------------


def matching_pfaffian(matrix):
    """Independent oracle: signed sum over perfect matchings."""
    m = len(matrix)
    if m == 0:
        return C_ONE
    if m % 2:
        raise ValueError

    def rec(items):
        if not items:
            return ComplexScalar(rational(1))
        first, rest = items[0], items[1:]
        total = ComplexScalar(rational(0))
        for pos, second in enumerate(rest):
            sign = (-1) ** pos
            sub = rest[:pos] + rest[pos + 1:]
            term = matrix[first][second] * rec(sub)
            total = total + (term if sign > 0 else -term)
        return total

    return rec(list(range(m)))


def cofactor_det(matrix):
    """Independent oracle: Laplace-expansion determinant."""
    m = len(matrix)
    if m == 0:
        return C_ONE
    if m == 1:
        return matrix[0][0]
    total = ComplexScalar(rational(0))
    rest = list(range(1, m))
    for j in range(m):
        if matrix[0][j].is_zero():
            continue
        cols = [c for c in range(m) if c != j]
        minor = [[matrix[r][c] for c in cols] for r in rest]
        term = matrix[0][j] * cofactor_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def rand_skew(rng, size):
    sm = SkewMatrix(size)
    for i in range(size):
        for j in range(i + 1, size):
            c = rand_coeff(rng)
            if not c.is_zero():
                sm.entries[(i, j)] = c
    return sm


def test_pfaffian_2x2():
    a = ComplexScalar(rational(5, 3))
    sm = SkewMatrix(2, {(0, 1): a})
    assert sm.pfaffian() == a


def test_pfaffian_4x4_matches_matching_oracle():
    rng = random.Random(17)
    for _ in range(10):
        sm = rand_skew(rng, 4)
        full = sm.full()
        assert pfaffian(full) == matching_pfaffian(full)


def test_pfaffian_standard_block_normalization():
    for n in (1, 2, 3):
        sm = SkewMatrix(2 * n, {(2 * i, 2 * i + 1): C_ONE for i in range(n)})
        assert sm.pfaffian() == C_ONE


def test_pfaffian_squared_is_determinant():
    rng = random.Random(23)
    for size in (2, 4, 6, 8):
        sm = rand_skew(rng, size)
        full = sm.full()
        pf = pfaffian(full)
        assert pf * pf == cofactor_det(full)


def sparse_skew(rng, size, extra):
    """2x2 skew blocks on the diagonal plus ``extra`` random off-block entries."""
    sm = SkewMatrix(size)
    for i in range(0, size, 2):
        sm.entries[(i, i + 1)] = ComplexScalar(rational(rng.randint(1, 5), rng.randint(1, 3)))
    for _ in range(extra):
        i, j = sorted(rng.sample(range(size), 2))
        c = rand_coeff(rng)
        if not c.is_zero():
            sm.entries[(i, j)] = c
    return sm


def test_pfaffian_of_sparse_matrices_matches_oracles():
    rng = random.Random(37)
    matrices = [sparse_skew(rng, size, extra).full()
                for size in (4, 6, 8) for extra in (0, 1, 2, 3) for _ in range(2)]
    # the first pivot (0, 1) is zero, so the elimination swaps in column 2
    a, b, c = (ComplexScalar(rational(x)) for x in (2, 3, 5))
    matrices.append(SkewMatrix(4, {(0, 2): a, (1, 3): b, (0, 3): c}).full())
    for full in matrices:
        pf = pfaffian(full)
        assert pf == matching_pfaffian(full)
        assert pf * pf == cofactor_det(full)
    assert pfaffian(matrices[-1]) == -(a * b)


def test_pfaffian_zero_row():
    sm = SkewMatrix(4, {(2, 3): C_ONE})
    assert sm.pfaffian().is_zero()


def test_pfaffian_odd_dimension_errors():
    with pytest.raises(ValueError):
        pfaffian([[C_ZERO] * 3 for _ in range(3)])


def test_pfaffian_matches_form_power():
    # Omega^n / n! = pf(A) z^1...z^2n for the form attached to the matrix
    rng = random.Random(29)
    for n in (2, 3):
        sm = rand_skew(rng, 2 * n)
        form = Form(2 * n, 2, {mask(ij): c for ij, c in sm.entries.items()})
        power = form.wedge_power(n)
        coeff = power.coefficient(tuple(range(2 * n)))
        factorial = 1
        for k in range(2, n + 1):
            factorial *= k
        assert coeff == sm.pfaffian() * ComplexScalar(rational(factorial))


def test_skew_matrix_form_round_trip():
    rng = random.Random(31)
    sm = rand_skew(rng, 6)
    form = Form(12, 2, {mask(ij): c for ij, c in sm.entries.items()})
    assert SkewMatrix.from_form(form, 6) == sm


def endo_action(matrix, form: Form) -> Form:
    """Pullback of a frame-coordinate form by an endomorphism.

    ``matrix`` acts on vectors (columns are images of the frame vectors);
    the induced action on a k-form evaluates the form on transformed
    arguments, i.e. each covector g^i maps to sum_j matrix[i][j] g^j.
    """
    images = []
    for i in range(form.nsym):
        image = Form.zero(form.nsym, 1)
        for j in range(form.nsym):
            c = ComplexScalar._coerce(matrix[i][j])
            if not c.is_zero():
                image = image + Form.monomial(form.nsym, (j,), c)
        images.append(image)
    return form.substitute(images)


def test_endo_action_on_real_frame():
    from dense_matrices import dense
    from hha.hypercomplex import HypercomplexStructure
    H = HypercomplexStructure.standard(1)
    I, J = dense(H.columns["I"]), dense(H.columns["J"])
    # I acts on the complexified coframe with the expected eigenvalue
    z1_real = mono(4, (0,)) + mono(4, (1,), C_I)
    assert endo_action(I, z1_real) == z1_real * C_I
    # J twice on a 2-form is the identity
    f = mono(4, (0, 2)) + mono(4, (1, 3), C_I)
    assert endo_action(J, endo_action(J, f)) == f
