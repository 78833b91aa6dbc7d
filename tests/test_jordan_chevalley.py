"""Additive and complete Jordan-Chevalley decompositions."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

import corpus
import oracles
from finefrob import (
    Matrix,
    Polynomial,
    PrimeField,
    QQ,
    complete_jc,
    crt_projectors,
    eval_poly_at_matrix,
    factor,
    is_nilpotent,
    is_semisimple,
    jc_decompose_newton,
    minimal_polynomial,
    verify_complete_jc,
)
from finefrob.errors import NotKRegular


def q(*coeffs):
    return Polynomial(QQ, [Fraction(c) for c in coeffs])


def qmat(rows):
    return Matrix(QQ, [[Fraction(e) for e in row] for row in rows])


# ---------------------------------------------------------------------------
# additive decomposition (Newton iteration)
# ---------------------------------------------------------------------------

def test_newton_on_jordan_block():
    m = qmat([[1, 1], [0, 1]])
    dec = jc_decompose_newton(m)
    assert dec.semisimple == Matrix.identity(QQ, 2)
    assert dec.nilpotent == qmat([[0, 1], [0, 0]])


def test_newton_on_semisimple_input_gives_zero_nilpotent():
    m = qmat([[2, 5], [-1, 0]])
    dec = jc_decompose_newton(m)
    assert dec.semisimple == m
    assert dec.nilpotent.is_zero


def test_newton_on_nilpotent_input():
    m = qmat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    dec = jc_decompose_newton(m)
    assert dec.semisimple.is_zero
    assert dec.nilpotent == m


def test_newton_semisimple_poly_witness():
    m = qmat([[1, 1], [0, 1]])
    dec = jc_decompose_newton(m)
    assert eval_poly_at_matrix(dec.semisimple_poly, m) == dec.semisimple


def test_newton_invariants_random():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(2, 5)
        m = corpus.random_matrix(rng, QQ, n)
        dec = jc_decompose_newton(m)
        assert dec.semisimple + dec.nilpotent == m
        assert dec.semisimple * dec.nilpotent == dec.nilpotent * dec.semisimple
        assert is_semisimple(dec.semisimple)
        assert is_nilpotent(dec.nilpotent)


# ---------------------------------------------------------------------------
# CRT projectors
# ---------------------------------------------------------------------------

def test_projectors_partition_of_identity():
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randint(2, 5)
        m = corpus.random_matrix(rng, QQ, n)
        fact = factor(minimal_polynomial(m))
        projs = crt_projectors(fact, m)
        total = Matrix.zeros(QQ, n)
        for i, e_i in enumerate(projs):
            assert e_i * e_i == e_i
            total = total + e_i
            for j, e_j in enumerate(projs):
                if i != j:
                    assert (e_i * e_j).is_zero
        assert total == Matrix.identity(QQ, n)


def test_projector_for_single_factor_is_identity():
    m = qmat([[1, 1], [0, 1]])  # minpoly (X-1)^2, one factor
    fact = factor(minimal_polynomial(m))
    projs = crt_projectors(fact, m)
    assert len(projs) == 1 and projs[0] == Matrix.identity(QQ, 2)


# ---------------------------------------------------------------------------
# complete decomposition over Q
# ---------------------------------------------------------------------------

def test_complete_jc_worked_example():
    # minpoly X^2 - 2X + 5: alpha = 1, V = M - I with V^2 = -4 I
    m = qmat([[2, 5], [-1, 0]])
    dec = complete_jc(m)
    assert dec.horizontal == Matrix.identity(QQ, 2)
    assert dec.vertical == qmat([[1, 5], [-1, -1]])
    assert dec.nilpotent.is_zero
    assert dec.vertical * dec.vertical == Matrix.identity(QQ, 2).scale(Fraction(-4))
    report = verify_complete_jc(m, dec)
    assert report.passed


def test_complete_jc_rotation():
    m = qmat([[0, -1], [1, 0]])
    dec = complete_jc(m)
    assert dec.horizontal.is_zero
    assert dec.vertical == m
    assert dec.nilpotent.is_zero


def test_complete_jc_jordan_block():
    m = qmat([[1, 1], [0, 1]])
    dec = complete_jc(m)
    assert dec.horizontal == Matrix.identity(QQ, 2)
    assert dec.vertical.is_zero
    assert dec.nilpotent == qmat([[0, 1], [0, 0]])


def test_complete_jc_diagonalizable():
    m = Matrix.diagonal(QQ, [Fraction(2), Fraction(-1), Fraction(2)])
    dec = complete_jc(m)
    assert dec.horizontal == m
    assert dec.vertical.is_zero and dec.nilpotent.is_zero


def test_complete_jc_nilpotent():
    m = qmat([[0, 1], [0, 0]])
    dec = complete_jc(m)
    assert dec.horizontal.is_zero and dec.vertical.is_zero
    assert dec.nilpotent == m


def test_complete_jc_factor_data_alpha():
    m = qmat([[2, 5], [-1, 0]])
    dec = complete_jc(m)
    assert len(dec.factor_data) == 1
    fd = dec.factor_data[0]
    assert fd.poly == q(5, -2, 1)
    assert fd.multiplicity == 1
    assert fd.alpha == Fraction(1)
    assert fd.projector == Matrix.identity(QQ, 2)


def test_verify_clause_order_and_detection():
    m = qmat([[2, 5], [-1, 0]])
    dec = complete_jc(m)
    report = verify_complete_jc(m, dec)
    assert [name for name, _ in report.checks] == [
        "sum_reconstructs",
        "pairwise_commute",
        "ground_field_entries",
        "horizontal_diagonalizable",
        "vertical_semisimple_reduced",
        "nilpotent",
    ]
    assert all(ok for _, ok in report.checks)
    # corrupt H: the sum clause must fail
    import dataclasses

    bad = dataclasses.replace(dec, horizontal=dec.horizontal + Matrix.identity(QQ, 2))
    bad_report = verify_complete_jc(m, bad)
    assert not bad_report.passed
    assert dict(bad_report.checks)["sum_reconstructs"] is False


def test_complete_jc_random_rational():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(2, 5)
        m = corpus.random_matrix(rng, QQ, n)
        dec = complete_jc(m)
        assert verify_complete_jc(m, dec).passed
        newton = jc_decompose_newton(m)
        assert dec.horizontal + dec.vertical == newton.semisimple
        assert dec.nilpotent == newton.nilpotent


def test_complete_jc_conjugation_equivariance():
    rng = random.Random(43)
    for _ in range(10):
        n = rng.randint(2, 4)
        m = corpus.random_matrix(rng, QQ, n)
        p, p_inv = corpus.random_invertible(rng, QQ, n)
        dec = complete_jc(m)
        conj = complete_jc(p * m * p_inv)
        assert conj.horizontal == p * dec.horizontal * p_inv
        assert conj.vertical == p * dec.vertical * p_inv
        assert conj.nilpotent == p * dec.nilpotent * p_inv


@st.composite
def repeated_factor_matrices(draw):
    """(field, f, M) over Q or F_7: M = P diag(C(f^2), C(g)) P^-1, f = (X -
    a)^2 - t irreducible (t not a square), g monic of degree 0..3 prime to f
    (no block at degree 0), P unit upper triangular.  The Hensel root of f
    modulo f^2 is not X."""
    field = draw(st.sampled_from((QQ, PrimeField(7))))
    small = st.integers(-2, 2).map(field.from_int)
    a = draw(small)
    t = field.from_int(draw(st.sampled_from((-1, 2, 3, 5) if field is QQ else (3, 5, 6))))
    f = Polynomial(field, [a * a - t, -2 * a, field.one])
    g = Polynomial(field, draw(st.lists(small, max_size=3)) + [field.one])
    assume(not (g % f).is_zero)
    blocks = [Matrix.companion(f * f).rows] + ([Matrix.companion(g).rows] if g.degree else [])
    n = sum(len(b) for b in blocks)
    rows, at = [[field.zero] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[at + i][at : at + len(b)] = row
        at += len(b)
    upper = Matrix(field, [[field.one if i == j else draw(small) if i < j else field.zero
                            for j in range(n)] for i in range(n)])
    return field, f, upper * Matrix(field, rows) * upper.inverse()


@given(repeated_factor_matrices())
def test_complete_jc_with_a_repeated_quadratic_factor(drawn):
    """The clauses hold, f keeps multiplicity 2, and by the oracles' own
    arithmetic S has a squarefree minimal polynomial and N^n = 0."""
    field, f, m = drawn
    dec = complete_jc(m)
    assert verify_complete_jc(m, dec).passed
    assert (f, 2) in [(d.poly, d.multiplicity) for d in dec.factor_data]
    s_minpoly = oracles.oracle_minimal_polynomial(field, dec.semisimple.rows)
    assert oracles.is_squarefree(field, s_minpoly)
    n = m.n
    assert oracles.mat_powers(field, dec.nilpotent.rows, n)[n] == oracles.mat_zero(field, n)
    assert not dec.nilpotent.is_zero


@pytest.mark.parametrize(
    "field, coeffs, nu",
    [
        (QQ, [-2, 1], 16),
        (PrimeField(7), [-2, 1], 16),
        (QQ, [1, 0, 1], 6),
        (PrimeField(7), [1, 0, 1], 6),
        (PrimeField(3), [2, 1, 1], 4),
    ],
    ids=["Q-J16", "F7-J16", "Q-(X2+1)^6", "F7-(X2+1)^6", "F3-(X2+X+2)^4"],
)
def test_decompositions_at_high_multiplicity(field, coeffs, nu):
    """One irreducible f of multiplicity nu up to 16, where the Newton root
    takes up to nu - 1 steps: a Jordan block of size nu for a linear f, else
    the companion matrix of f^nu.  The clauses hold, both routes give the
    same S, and by the oracles' own arithmetic S has a squarefree minimal
    polynomial and N^n = 0."""
    f = Polynomial(field, coeffs)
    if f.degree == 1:
        m = Matrix(field, [[-f.coeff(0) if i == j else int(j == i + 1) for j in range(nu)]
                           for i in range(nu)])
    else:
        m = Matrix.companion(f**nu)
    dec = complete_jc(m)
    assert verify_complete_jc(m, dec).passed
    assert [(d.poly, d.multiplicity) for d in dec.factor_data] == [(f, nu)]
    assert jc_decompose_newton(m).semisimple == dec.semisimple
    s_minpoly = oracles.oracle_minimal_polynomial(field, dec.semisimple.rows)
    assert oracles.is_squarefree(field, s_minpoly)
    n = m.n
    assert oracles.mat_powers(field, dec.nilpotent.rows, n)[n] == oracles.mat_zero(field, n)
    assert not dec.nilpotent.is_zero


# ---------------------------------------------------------------------------
# complete decomposition over F_p
# ---------------------------------------------------------------------------

def test_complete_jc_prime_fields_random():
    for p in (3, 5, 7):
        field = PrimeField(p)
        rng = random.Random(300 + p)
        for _ in range(15):
            n = rng.randint(2, 4)
            m = corpus.random_k_regular_fp(rng, field, n)
            dec = complete_jc(m)
            report = verify_complete_jc(m, dec)
            assert report.passed, (p, report.checks)


def test_complete_jc_not_k_regular():
    field = PrimeField(3)
    f = Polynomial(field, [field.from_int(c) for c in (1, 2, 0, 1)])  # X^3 - X + 1
    m = Matrix.companion(f)
    with pytest.raises(NotKRegular):
        complete_jc(m)


def test_newton_not_k_regular_in_char_p():
    field = PrimeField(5)
    coeffs = [field.from_int(c) for c in (-1, -1, 0, 0, 0, 1)]  # X^5 - X - 1
    m = Matrix.companion(Polynomial(field, coeffs))
    with pytest.raises(NotKRegular):
        jc_decompose_newton(m)
