"""Exact matrices, minimal polynomials, and structural predicates."""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import corpus
import finefrob.matrix
import oracles
from finefrob import (
    Matrix,
    Polynomial,
    PrimeField,
    QQ,
    eval_poly_at_matrix,
    eval_polys_at_matrix,
    is_k_regular_matrix,
    is_nilpotent,
    is_semisimple,
    minimal_polynomial,
    quad_element,
    splitting_bound_of_matrix,
)
from finefrob.errors import (
    DimensionMismatch,
    FieldMismatch,
    NotInvertible,
    NotKRegular,
)
from finefrob.scalar import QuadElement


def q(*coeffs):
    return Polynomial(QQ, [Fraction(c) for c in coeffs])


def qmat(rows):
    return Matrix(QQ, [[Fraction(e) for e in row] for row in rows])


# ---------------------------------------------------------------------------
# construction and ring operations
# ---------------------------------------------------------------------------

def test_shape_validation():
    with pytest.raises(DimensionMismatch):
        Matrix(QQ, [[Fraction(1), Fraction(2)]])
    with pytest.raises(DimensionMismatch):
        Matrix(QQ, [[Fraction(1)], [Fraction(2), Fraction(3)]])


def test_identity_zero_diagonal():
    eye = Matrix.identity(QQ, 3)
    assert eye.entry(0, 0) == 1 and eye.entry(0, 1) == 0
    assert Matrix.zeros(QQ, 2).is_zero
    d = Matrix.diagonal(QQ, [Fraction(2), Fraction(5)])
    assert d.entry(0, 0) == 2 and d.entry(1, 1) == 5 and d.entry(0, 1) == 0


def test_arithmetic_against_oracle():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 4)
        a = corpus.random_matrix(rng, QQ, n)
        b = corpus.random_matrix(rng, QQ, n)
        ta = tuple(tuple(a.entry(i, j) for j in range(n)) for i in range(n))
        tb = tuple(tuple(b.entry(i, j) for j in range(n)) for i in range(n))
        prod = a * b
        oracle_prod = oracles.mat_mul(QQ, ta, tb)
        for i in range(n):
            for j in range(n):
                assert prod.entry(i, j) == oracle_prod[i][j]
        sums = a + b
        oracle_sum = oracles.mat_add(ta, tb)
        for i in range(n):
            for j in range(n):
                assert sums.entry(i, j) == oracle_sum[i][j]


def test_scalar_multiplication_and_power():
    m = qmat([[1, 2], [3, 4]])
    assert Fraction(2) * m == m.scale(Fraction(2))
    assert m**0 == Matrix.identity(QQ, 2)
    assert m**3 == m * m * m


def test_field_mismatch():
    a = qmat([[1]])
    field = PrimeField(5)
    b = Matrix(field, [[field.from_int(1)]])
    with pytest.raises(FieldMismatch):
        a + b
    with pytest.raises(FieldMismatch):
        b.scale(PrimeField(7).one)
    with pytest.raises(TypeError):
        b.scale(Fraction(1, 2))
    with pytest.raises(TypeError):
        a.scale(field.one)


def test_trace_transpose():
    m = qmat([[1, 2], [3, 4]])
    assert m.trace() == 5
    assert m.transpose() == qmat([[1, 3], [2, 4]])


# ---------------------------------------------------------------------------
# rank and inverse
# ---------------------------------------------------------------------------

def test_rank_matches_oracle():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = corpus.random_matrix(rng, QQ, n)
        rows = tuple(tuple(m.entry(i, j) for j in range(n)) for i in range(n))
        assert m.rank() == oracles.gauss_rank(QQ, rows)


def test_inverse_round_trip_and_failure():
    rng = random.Random(19)
    p, p_inv = corpus.random_invertible(rng, QQ, 3)
    assert p * p_inv == Matrix.identity(QQ, 3)
    singular = qmat([[1, 2], [2, 4]])
    with pytest.raises(NotInvertible):
        singular.inverse()


@pytest.mark.parametrize("radical", [None, 3], ids=["ground", "sqrt3"])
@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_inverse_is_two_sided_and_agrees_with_rank(field, radical):
    """Entries a + b sqrt3 with small a, b; 3 is a non-residue mod 7."""
    rng = random.Random(23)

    def entry():
        a = field.from_int(rng.randint(-2, 2))
        return quad_element(field, a, rng.randint(-1, 1), radical) if radical else a

    for _ in range(30):
        n = rng.randint(1, 4)
        m = Matrix(field, [[entry() for _ in range(n)] for _ in range(n)])
        try:
            inv = m.inverse()
        except NotInvertible:
            assert m.rank() < n
            continue
        assert m * inv == Matrix.identity(field, n) == inv * m and m.rank() == n
    row = [entry(), entry(), entry()]
    singular = Matrix(field, [row, [e + e for e in row], [entry(), entry(), entry()]])
    assert singular.rank() < 3
    with pytest.raises(NotInvertible):
        singular.inverse()


# ---------------------------------------------------------------------------
# minimal polynomial
# ---------------------------------------------------------------------------

def test_minpoly_of_companion_is_the_polynomial():
    f = q(-2, 0, -2, 1)  # X^3 - 2X - 2
    assert minimal_polynomial(Matrix.companion(f)) == f
    g = q(5, -2, 1)
    assert minimal_polynomial(Matrix.companion(g)) == g


def test_minpoly_diagonal_collapses_repeats():
    m = Matrix.diagonal(QQ, [Fraction(1), Fraction(1), Fraction(3)])
    assert minimal_polynomial(m) == q(-1, 1) * q(-3, 1)


def test_minpoly_identity_and_zero():
    assert minimal_polynomial(Matrix.identity(QQ, 4)) == q(-1, 1)
    assert minimal_polynomial(Matrix.zeros(QQ, 3)) == q(0, 1)


def test_minpoly_rotation_plus_kernel():
    m = qmat([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    assert minimal_polynomial(m) == q(0, 1, 0, 1)  # X^3 + X = X (X^2 + 1)


def test_minpoly_matches_oracle_rational():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = corpus.random_matrix(rng, QQ, n)
        rows = tuple(tuple(m.entry(i, j) for j in range(n)) for i in range(n))
        oracle = oracles.oracle_minimal_polynomial(QQ, rows)
        mine = minimal_polynomial(m)
        assert list(mine.coeffs) == oracle
        assert oracles.annihilates(QQ, oracle, rows)
        assert oracles.no_lower_degree_annihilator(QQ, rows, len(oracle) - 1)


def test_minpoly_matches_oracle_prime_field():
    for p in (3, 5, 7):
        field = PrimeField(p)
        rng = random.Random(200 + p)
        for _ in range(25):
            n = rng.randint(1, 4)
            m = corpus.random_matrix(rng, field, n, lo=0, hi=p - 1)
            rows = tuple(tuple(m.entry(i, j) for j in range(n)) for i in range(n))
            oracle = oracles.oracle_minimal_polynomial(field, rows)
            assert list(minimal_polynomial(m).coeffs) == oracle


def test_eval_poly_at_matrix():
    m = qmat([[2, 5], [-1, 0]])
    f = minimal_polynomial(m)
    assert f == q(5, -2, 1)
    assert eval_poly_at_matrix(f, m).is_zero
    assert eval_poly_at_matrix(q(3), m) == Matrix.identity(QQ, 2).scale(Fraction(3))


# ---------------------------------------------------------------------------
# structural predicates
# ---------------------------------------------------------------------------

def test_is_nilpotent():
    jordan = qmat([[0, 1], [0, 0]])
    assert is_nilpotent(jordan)
    assert is_nilpotent(Matrix.zeros(QQ, 2))
    assert not is_nilpotent(qmat([[1, 0], [0, 0]]))


def test_is_semisimple():
    rot = qmat([[0, -1], [1, 0]])
    assert is_semisimple(rot)
    assert not is_semisimple(qmat([[1, 1], [0, 1]]))
    assert is_semisimple(Matrix.diagonal(QQ, [Fraction(2), Fraction(2)]))
    f7 = PrimeField(7)
    assert is_semisimple(Matrix(f7, [[0, 6], [1, 0]]))  # X^2 + 1, irreducible mod 7
    assert not is_semisimple(Matrix(f7, [[3, 1], [0, 3]]))


def test_is_semisimple_char_p_requires_k_regularity():
    field = PrimeField(7)
    f = Polynomial(field, [field.from_int(c) for c in (-1, -1, 0, 0, 0, 0, 0, 1)])
    m = Matrix.companion(f)  # minpoly X^7 - X - 1 has degree divisible by 7
    with pytest.raises(NotKRegular):
        is_semisimple(m)


def test_is_k_regular_matrix():
    assert is_k_regular_matrix(qmat([[2, 5], [-1, 0]]))
    field = PrimeField(3)
    f = Polynomial(field, [field.from_int(c) for c in (1, 2, 0, 1)])
    assert not is_k_regular_matrix(Matrix.companion(f))  # degree 3 over F_3


def test_splitting_bound_of_matrix():
    assert splitting_bound_of_matrix(qmat([[0, -1], [1, 0]])) == 2
    assert splitting_bound_of_matrix(Matrix.identity(QQ, 5)) == 1
    cubic = Matrix.companion(q(-2, 0, 0, 1))  # X^3 - 2 irreducible
    assert splitting_bound_of_matrix(cubic) == 3


def test_semisimple_generator_matches_predicates():
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randint(2, 5)
        m = corpus.random_semisimple_sb2(rng, n)
        assert is_semisimple(m)
        assert splitting_bound_of_matrix(m) <= 2


# ---------------------------------------------------------------------------
# kernels over F_p (int residues) and with quadratic entries (elements)
# ---------------------------------------------------------------------------

@st.composite
def fp_matrices(draw, count=1, max_n=8):
    """(field, matrices) over F_3, F_7, F_1009, F_(2^31 - 1) or F_(2^61 - 1),
    n <= max_n: the two large primes make the widest slots of the packed
    kernels.

    Entries lean to 0, 1 and -1, a matrix may be zero, and it may repeat one
    diagonal block (then be conjugated by a unit triangular matrix), so
    minimal polynomials of degree below n, and their lcm over the Krylov
    vectors, are drawn too.  The entries come from a drawn seed: one draw
    per entry would overrun hypothesis's buffer at n = 16.
    """
    p = draw(st.sampled_from((3, 7, 1009, 2**31 - 1, 2**61 - 1)))
    field = PrimeField(p)
    n = draw(st.integers(1, max_n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def square(k):
        return [[rng.choice((0, 1, p - 1)) if rng.random() < 0.5 else rng.randrange(p)
                 for _ in range(k)] for _ in range(k)]

    out = []
    for _ in range(count):
        rows, k = square(n), draw(st.integers(1, n))
        if rng.random() < 0.125:
            rows, k = [[0] * n for _ in range(n)], n
        if k < n:
            block = square(k)
            rows = [[block[i % k][j % k] if i // k == j // k else 0 for j in range(n)]
                    for i in range(n)]
        m = Matrix(field, rows)
        if k < n and draw(st.booleans()):
            shear = square(n)
            upper = Matrix(field, [[int(i == j) or shear[i][j] * (i < j) for j in range(n)]
                                   for i in range(n)])
            m = upper * m * upper.inverse()
        out.append(m)
    return field, out


# every entry p - 1 at n = 16: each slot of a packed product holds n (p - 1)^2
F61 = PrimeField(2**61 - 1)
F61_FULL, F61_ZERO = Matrix(F61, [[-1] * 16] * 16), Matrix.zeros(F61, 16)


@given(fp_matrices(count=2, max_n=16))
@example((F61, [F61_FULL, F61_FULL]))
@example((F61, [F61_FULL, F61_ZERO]))
def test_fp_product_and_apply_match_oracle(drawn):
    field, (a, b) = drawn
    oracle = oracles.mat_mul(field, a.rows, b.rows)
    assert (a * b).rows == oracle
    for j in range(a.n):
        column = tuple(row[j] for row in b.rows)
        assert a.apply(column) == tuple(row[j] for row in oracle)


@given(fp_matrices(max_n=16))
@example((F61, [F61_FULL]))
@example((F61, [F61_ZERO]))
def test_fp_minimal_polynomial_matches_oracle(drawn):
    field, (m,) = drawn
    oracle = oracles.oracle_minimal_polynomial(field, m.rows)
    assert list(minimal_polynomial(m).coeffs) == oracle


@given(fp_matrices(),
       st.lists(st.lists(st.integers(0, 1008), max_size=10), min_size=1, max_size=3))
def test_fp_polynomials_at_matrix_match_oracle(drawn, coeff_lists):
    field, (m,) = drawn
    polys = [Polynomial(field, cs) for cs in coeff_lists]
    for f, value in zip(polys, eval_polys_at_matrix(polys, m)):
        assert value.rows == oracles.poly_eval_matrix(field, list(f.coeffs), m.rows)


@given(st.data())
def test_quadratic_entries_take_the_element_path(data):
    """Over F_7 with entries a + b sqrt(3), 3 being a non-residue mod 7."""
    field = PrimeField(7)
    n = data.draw(st.integers(1, 4))
    digit = st.integers(0, 6)
    entry = st.builds(lambda a, b: quad_element(field, a, b, 3), digit, digit)
    square = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    a, b = (Matrix(field, [[quad_element(field, 0, 1, 3)] + rows[0][1:]] + rows[1:])
            for rows in (data.draw(square), data.draw(square)))
    oracle = oracles.mat_mul(field, a.rows, b.rows)
    assert (a * b).rows == oracle
    for j in range(n):
        column = tuple(row[j] for row in b.rows)
        assert a.apply(column) == tuple(row[j] for row in oracle)
        assert Matrix.identity(field, n).apply(column) == column
    f = Polynomial(field, data.draw(st.lists(digit, max_size=6)))
    oracle = oracles.poly_eval_matrix(field, list(f.coeffs), a.rows)
    assert eval_poly_at_matrix(f, a).rows == oracle


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
@pytest.mark.parametrize(
    "rows, expected",
    [
        ([[0, "r"], ["r", 0]], [-3, 0, 1]),
        ([[0, 0], ["r", 0]], [0, 0, 1]),
        ([[0, "r"], ["r", Fraction(1, 3)]], [-3, Fraction(-1, 3), 1]),
        ([[Fraction(1, 2), "r"], ["r", Fraction(1, 2)]], [Fraction(-11, 4), -1, 1]),
        ([[Fraction(1, 2), "r", 0], ["r", Fraction(1, 2), 0], [0, 0, Fraction(1, 2)]],
         [Fraction(11, 8), Fraction(-9, 4), Fraction(-3, 2), 1]),
    ],
)
def test_quadratic_entries_minimal_polynomial(field, rows, expected):
    """Minimal polynomials over the ground of matrices with sqrt(3) entries,
    3 a non-residue mod 7: the Krylov elimination runs on the elements."""
    def ground(x):
        x = Fraction(x)
        return field.from_int(x.numerator) / field.from_int(x.denominator)

    r = quad_element(field, 0, 1, 3)
    m = Matrix(field, [[r if e == "r" else ground(e) for e in row] for row in rows])
    got = list(minimal_polynomial(m).coeffs)
    assert got == [ground(c) for c in expected]
    assert got == oracles.oracle_minimal_polynomial(field, m.rows)


@pytest.mark.parametrize(
    "field, radicand, expected",
    [(QQ, 2, [-2, 0, 1]), (PrimeField(7), 3, [4, 0, 1])],
    ids=["Q-sqrt2", "F7-sqrt3"],
)
def test_minimal_polynomial_of_conjugate_diagonal_is_over_the_ground(
        field, radicand, expected):
    """diag(r, -r), r = sqrt(radicand) outside the field: the relations of
    e_0 and e_1, X - r and X + r, are off the ground field, their product
    X^2 - radicand is not.  diag(1, r) has (X - 1)(X - r), off it."""
    r = quad_element(field, 0, 1, radicand)
    got = minimal_polynomial(Matrix.diagonal(field, [r, -r]))
    assert got == Polynomial(field, [field.from_int(c) for c in expected])
    with pytest.raises(FieldMismatch) as refused:
        minimal_polynomial(Matrix.diagonal(field, [field.one, r]))
    assert str(refused.value) == "a Krylov relation has coefficients outside the ground field"


@st.composite
def structured_matrices(draw):
    """(field, m) over Q or F_7: P diag(B, B, C) P^-1, never cyclic, a
    scalar, the zero or a nilpotent Jordan matrix, P unit upper triangular.
    With sqrt3 entries (3 a non-residue mod 7) they sit in P, and in the
    scalar, whose minimal polynomial X - c is then off the ground field."""
    field = draw(st.sampled_from((QQ, PrimeField(7))))
    radical = draw(st.booleans())
    small = st.integers(-3, 3).map(field.from_int)

    def square(k):
        return draw(st.lists(st.lists(small, min_size=k, max_size=k), min_size=k, max_size=k))

    def value():
        a = draw(small)
        return quad_element(field, a, draw(st.integers(-1, 1)), 3) if radical else a

    shape = draw(st.sampled_from(("blocks", "scalar", "zero", "jordan")))
    if shape == "blocks":
        blocks = 2 * [square(draw(st.integers(1, 3)))] + [square(draw(st.integers(0, 2)))]
    elif shape == "jordan":
        blocks = [[[int(j == i + 1) for j in range(k)] for i in range(k)]
                  for k in draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))]
    else:
        blocks = [[[0]]] * draw(st.integers(1, 6))
    n = sum(len(b) for b in blocks)
    rows, at = [[field.zero] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[at + i][at : at + len(b)] = row
        at += len(b)
    m = Matrix(field, rows)
    if shape == "scalar":
        return field, Matrix.identity(field, n).scale(value())
    upper = Matrix(field, [[field.one if i == j else value() if i < j else field.zero
                            for j in range(n)] for i in range(n)])
    return field, upper * m * upper.inverse()


@given(structured_matrices())
def test_minimal_polynomial_of_structured_matrices_matches_oracle(drawn):
    """Against the vectorization oracle; with quadratic entries it raises
    FieldMismatch exactly when the oracle's polynomial is off the ground
    field."""
    field, m = drawn
    oracle = oracles.oracle_minimal_polynomial(field, m.rows)
    if not all(map(field.is_ground, oracle)):
        with pytest.raises(FieldMismatch):
            minimal_polynomial(m)
        return
    assert list(minimal_polynomial(m).coeffs) == oracle


# ---------------------------------------------------------------------------
# kernels over Q (integer numerators over a common denominator)
# ---------------------------------------------------------------------------

NEAR_1E30 = st.integers(10**30 - 10**3, 10**30 + 10**3)


@st.composite
def q_matrices(draw, count=1):
    """(QQ, matrices) over Q, n <= 6.

    Entries lean to 0, 1 and -1 with negative numerators, over mixed
    denominators, some near 10^30; a matrix may be zero, scalar, or repeat
    one diagonal block (then be conjugated by a unit triangular matrix), so
    minimal polynomials of degree below n are drawn too.
    """
    n = draw(st.integers(1, 6))
    den = st.sampled_from((1, 1, 2, 3, 12, 35)) | NEAR_1E30
    num = st.sampled_from((0, 1, -1)) | st.integers(-50, 50)
    entry = st.builds(Fraction, num, den)

    def square(k):
        row = st.lists(entry, min_size=k, max_size=k)
        return draw(st.lists(row, min_size=k, max_size=k))

    out = []
    for _ in range(count):
        shape = draw(st.sampled_from(("dense", "blocks", "zero", "scalar")))
        if shape == "zero":
            out.append(Matrix.zeros(QQ, n))
            continue
        if shape == "scalar":
            out.append(Matrix.identity(QQ, n).scale(draw(entry)))
            continue
        rows = square(n)
        k = draw(st.integers(1, n)) if shape == "blocks" else n
        if k < n:
            block = square(k)
            rows = [[block[i % k][j % k] if i // k == j // k else 0 for j in range(n)]
                    for i in range(n)]
        m = Matrix(QQ, rows)
        if k < n and draw(st.booleans()):
            shear = square(n)
            upper = Matrix(QQ, [[int(i == j) or shear[i][j] * (i < j) for j in range(n)]
                                for i in range(n)])
            m = upper * m * upper.inverse()
        out.append(m)
    return out


@given(q_matrices(count=2))
def test_q_product_matches_oracle(drawn):
    a, b = drawn
    assert (a * b).rows == oracles.mat_mul(QQ, a.rows, b.rows)


@given(q_matrices())
def test_q_minimal_polynomial_matches_oracle(drawn):
    (m,) = drawn
    oracle = oracles.oracle_minimal_polynomial(QQ, m.rows)
    assert list(minimal_polynomial(m).coeffs) == oracle


@given(q_matrices(),
       st.lists(st.lists(st.builds(Fraction, st.integers(-9, 9),
                                   st.sampled_from((1, 2, 3, 10)) | NEAR_1E30),
                         max_size=8),
                min_size=1, max_size=3))
def test_q_polynomials_at_matrix_match_oracle(drawn, coeff_lists):
    (m,) = drawn
    polys = [Polynomial(QQ, cs) for cs in coeff_lists]
    for f, value in zip(polys, eval_polys_at_matrix(polys, m)):
        assert value.rows == oracles.poly_eval_matrix(QQ, list(f.coeffs), m.rows)


@given(q_matrices())
def test_krylov_relations_are_bounded_minors(drawn):
    """Each Krylov relation ``minimal_polynomial`` takes on the integer matrix
    a of m kills its start vector w = mu(a) e_j, and each of its coefficients
    is a minor of the matrix with rows (a^t w, e_t), so Hadamard's inequality
    bounds it: the elimination divides exactly."""
    (m,) = drawn
    _, (a, _) = finefrob.matrix._values(m)
    with mock.patch.object(finefrob.matrix, "_local_annihilator",
                           wraps=finefrob.matrix._local_annihilator) as spy:
        minimal_polynomial(m)
    for (rows, start, p, _), _ in spy.call_args_list:
        assert rows == a and p == 0 and any(start)
        relation = finefrob.matrix._local_annihilator(a, start, 0)
        vec, acc, bound = start, [0] * m.n, 1
        for g in relation:
            acc = [x + g * v for x, v in zip(acc, vec)]
            bound *= sum(v * v for v in vec) + 1
            vec = [sum(x * v for x, v in zip(row, vec)) for row in a]
        assert not any(acc)
        assert max(g * g for g in relation) <= bound


# ---------------------------------------------------------------------------
# the stored state (p, rows, d)
# ---------------------------------------------------------------------------

@st.composite
def state_operands(draw):
    """(field, a, b, c, f): two n x n matrices over Q with denominators,
    F_7, F_1009, or Q with some sqrt3 entries, a nonzero ground scalar and a
    polynomial of degree up to 6."""
    kind = draw(st.sampled_from(("Q", "F7", "F1009", "Q-sqrt3")))
    field = QQ if kind[0] == "Q" else PrimeField(int(kind[1:]))
    if field is QQ:
        ground = st.builds(Fraction, st.sampled_from((0, 1, -1)) | st.integers(-50, 50),
                           st.sampled_from((1, 1, 2, 3, 12, 35)) | NEAR_1E30)
    else:
        ground = (st.sampled_from((0, 1, -1)) | st.integers(0, field.p - 1)).map(field.from_int)
    n = draw(st.integers(1, 5))

    def entry():
        a = draw(ground)
        if kind == "Q-sqrt3" and draw(st.integers(0, 3)) == 0:
            return quad_element(field, a, draw(ground.filter(bool)), 3)
        return a

    a, b = (Matrix(field, [[entry() for _ in range(n)] for _ in range(n)]) for _ in range(2))
    c = draw(ground.filter(bool))
    f = Polynomial(field, draw(st.lists(ground, max_size=7)))
    return field, a, b, c, f


def _assert_canonical(m):
    """Residues in [0, p) with d = 1; over Q, ints over d > 0 prime to them
    all, d = 1 for zero; elements (p None) only with a quadratic entry."""
    p, (rows, d) = finefrob.matrix._values(m)
    if p is None:
        assert d == 1 and m.radical == 3
        assert any(isinstance(e, QuadElement) for row in rows for e in row)
        return
    values = [x for row in rows for x in row]
    assert p == m.field.characteristic and all(type(x) is int for x in values)
    if p:
        assert d == 1 and all(0 <= x < p for x in values)
    else:
        assert d > 0 and math.gcd(d, *values) == 1 and (d == 1 or any(values))


@settings(max_examples=150)
@given(state_operands())
def test_operations_on_the_state_match_the_oracles(drawn):
    field, a, b, c, f = drawn
    results = {
        "+": (a + b, oracles.mat_add(a.rows, b.rows)),
        "-": (a - b, oracles.mat_sub(a.rows, b.rows)),
        "neg": (-a, oracles.mat_scale(-field.one, a.rows)),
        "scale": (a.scale(c), oracles.mat_scale(c, a.rows)),
        "*": (a * b, oracles.mat_mul(field, a.rows, b.rows)),
        "transpose": (a.transpose(), tuple(zip(*a.rows))),
        "f(a)": (eval_poly_at_matrix(f, a), oracles.poly_eval_matrix(field, list(f.coeffs), a.rows)),
    }
    for name, (got, oracle) in results.items():
        assert got.rows == oracle, name
        assert all(got.entry(i, j) == oracle[i][j] for i in range(a.n) for j in range(a.n)), name
        _assert_canonical(got)
    _assert_canonical(a)


@settings(max_examples=150)
@given(state_operands())
def test_equal_matrices_have_equal_states(drawn):
    """Matrices equal by different routes have one state and one hash."""
    field, a, b, c, f = drawn
    routes = [(a + b) - b, a.scale(c).scale(field.one / c), -(-a), a.transpose().transpose(),
              a * Matrix.identity(field, a.n), Matrix(field, a.rows)]
    if a.radical is None:
        routes.append(Matrix.parse(field, a.strings()))
        assert a.strings() == [[field.to_str(e) for e in row] for row in a.rows]
    for m in routes:
        assert m == a and finefrob.matrix._values(m) == finefrob.matrix._values(a)
        assert hash(m) == hash(a)
    assert (a - a).is_zero and finefrob.matrix._values(a - a)[1][1] == 1
