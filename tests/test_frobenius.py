"""Fine Frobenius covariants and their normalized form."""

import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import corpus
import oracles
from finefrob import (
    Matrix,
    Polynomial,
    PrimeField,
    QQ,
    QuadElement,
    fine_frobenius,
    normalize,
    quad_element,
    reconstruct,
    reconstruct_normalized,
    spectrum,
    verify_fine,
)
from finefrob.errors import (
    NegativeNormComponent,
    NotSemisimple,
    SplittingBoundExceeded,
    UnorderedGroundField,
    ZeroMatrix,
)
from finefrob.frobenius import spectral_components
from finefrob.jsonio import matrix_from_json


def qmat(rows):
    return Matrix(QQ, [[Fraction(e) for e in row] for row in rows])


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------

def test_single_quadratic_block():
    # minpoly X^2 - 2X + 5: one quadratic covariant (alpha=1, n=4, B=M-I, P=I)
    m = qmat([[2, 5], [-1, 0]])
    dec = fine_frobenius(m)
    assert dec.kernel_projector.is_zero
    assert dec.linear == ()
    assert len(dec.quadratic) == 1
    cov = dec.quadratic[0]
    assert cov.alpha == Fraction(1)
    assert cov.n == Fraction(4)
    assert cov.vertical == m - Matrix.identity(QQ, 2)
    assert cov.projector == Matrix.identity(QQ, 2)
    assert verify_fine(dec).passed
    assert reconstruct(dec) == m


def test_rotation_block():
    m = qmat([[0, -1], [1, 0]])
    dec = fine_frobenius(m)
    cov = dec.quadratic[0]
    assert cov.alpha == Fraction(0) and cov.n == Fraction(1)
    assert cov.vertical == m
    assert cov.projector == Matrix.identity(QQ, 2)


def test_rotation_plus_kernel():
    m = qmat([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    dec = fine_frobenius(m)
    assert dec.kernel_projector == Matrix.diagonal(
        QQ, [Fraction(0), Fraction(0), Fraction(1)]
    )
    assert len(dec.quadratic) == 1 and dec.linear == ()
    assert reconstruct(dec) == m


def test_two_linear_covariants():
    m = Matrix.diagonal(QQ, [Fraction(2), Fraction(-3), Fraction(0)])
    dec = fine_frobenius(m)
    assert len(dec.linear) == 2
    eigs = {cov.eigenvalue for cov in dec.linear}
    assert eigs == {Fraction(2), Fraction(-3)}
    for cov in dec.linear:
        assert cov.matrix * cov.matrix == cov.matrix
    assert dec.kernel_projector == Matrix.diagonal(
        QQ, [Fraction(0), Fraction(0), Fraction(1)]
    )
    assert reconstruct(dec) == m


def test_cube_identities():
    rng = random.Random(47)
    for _ in range(15):
        n = rng.randint(2, 5)
        m = corpus.random_semisimple_sb2(rng, n)
        dec = fine_frobenius(m)
        assert verify_fine(dec).passed
        assert reconstruct(dec) == m
        for cov in dec.quadratic:
            b, p = cov.vertical, cov.projector
            assert b * b == p.scale(-cov.n)
            assert b * b * b == b.scale(-cov.n)


def _f7_semisimple(rng, n):
    """A conjugated block diagonal over F_7 of distinct eigenvalues and
    companions of X^2 - d, d a non-residue; semisimple with splitting bound 2."""
    field = PrimeField(7)
    rows = [[field.zero] * n for _ in range(n)]
    gammas, nonresidues = rng.sample(range(7), 7), [3, 5, 6]
    pos = 0
    while pos < n:
        if pos + 1 < n and nonresidues and rng.random() < 0.5:
            rows[pos][pos + 1] = field.from_int(nonresidues.pop())
            rows[pos + 1][pos] = field.one
            pos += 2
        else:
            rows[pos][pos] = field.from_int(gammas.pop())
            pos += 1
    p, p_inv = corpus.random_invertible(rng, field, n, 0, 6)
    return p * Matrix(field, rows) * p_inv


@pytest.mark.parametrize("field_name", ["Q", "F7"])
def test_spectral_components_n_zero_exactly_on_linear_factors(field_name):
    """(gamma, 0) for X - gamma; an irreducible quadratic has -n a non-square."""
    rng = random.Random(f"components:{field_name}")
    for _ in range(15):
        n = rng.randint(1, 5)
        if field_name == "Q":
            m = corpus.random_semisimple_sb2(rng, n)
        else:
            m = _f7_semisimple(rng, n)
        spectral = spectrum(m)
        components = spectral_components(spectral)
        factors = [h for h, _ in spectral.factorization.factors]
        assert len(components) == len(factors)
        for h, (alpha, n_val) in zip(factors, components):
            assert (n_val == m.field.zero) == (h.degree == 1)
            if h.degree == 1:
                assert alpha == -h.coeff(0)


@pytest.mark.parametrize("field_name", ["Q", "F7"])
def test_kernel_projector_zero_without_zero_eigenvalue(field_name):
    rng = random.Random(f"no-kernel:{field_name}")
    seen = 0
    for _ in range(20):
        n = rng.randint(1, 5)
        if field_name == "Q":
            m = corpus.random_semisimple_sb2(rng, n)
        else:
            m = _f7_semisimple(rng, n)
        if any(h.degree == 1 and h.coeff(0) == m.field.zero
               for h, _ in spectrum(m).factorization.factors):
            continue
        seen += 1
        dec = fine_frobenius(m)
        assert dec.kernel_projector == Matrix.zeros(m.field, n)
        assert verify_fine(dec).passed
    assert seen >= 5


# ---------------------------------------------------------------------------
# preconditions
# ---------------------------------------------------------------------------

def test_zero_matrix_rejected():
    with pytest.raises(ZeroMatrix):
        fine_frobenius(Matrix.zeros(QQ, 2))


def test_not_semisimple_rejected():
    with pytest.raises(NotSemisimple):
        fine_frobenius(qmat([[1, 1], [0, 1]]))


def test_splitting_bound_exceeded():
    cubic = Matrix.companion(
        Polynomial(QQ, [Fraction(-2), Fraction(0), Fraction(0), Fraction(1)])
    )
    with pytest.raises(SplittingBoundExceeded):
        fine_frobenius(cubic)


def test_zero_checked_before_semisimplicity():
    # ZeroMatrix takes precedence: 0 is semisimple but still rejected first
    with pytest.raises(ZeroMatrix):
        fine_frobenius(Matrix.zeros(QQ, 1))


# ---------------------------------------------------------------------------
# equivariance and verification
# ---------------------------------------------------------------------------

def test_covariants_are_conjugation_equivariant():
    rng = random.Random(53)
    for _ in range(10):
        n = rng.randint(2, 5)
        m = corpus.random_semisimple_sb2(rng, n)
        p, p_inv = corpus.random_invertible(rng, QQ, n)
        dec = fine_frobenius(m)
        conj = fine_frobenius(p * m * p_inv)
        assert conj.kernel_projector == p * dec.kernel_projector * p_inv
        lin = {cov.eigenvalue: cov.matrix for cov in dec.linear}
        for cov in conj.linear:
            assert cov.matrix == p * lin[cov.eigenvalue] * p_inv
        quad = {(cov.alpha, cov.n): cov for cov in dec.quadratic}
        for cov in conj.quadratic:
            base = quad[(cov.alpha, cov.n)]
            assert cov.vertical == p * base.vertical * p_inv
            assert cov.projector == p * base.projector * p_inv


def test_verify_detects_corruption():
    m = qmat([[2, 5], [-1, 0]])
    dec = fine_frobenius(m)
    cov = dec.quadratic[0]
    bad_cov = dataclasses.replace(cov, vertical=cov.vertical + Matrix.identity(QQ, 2))
    bad = dataclasses.replace(dec, quadratic=(bad_cov,))
    report = verify_fine(bad)
    assert not report.passed
    assert dict(report.checks)["cube_identity"] is False


def test_verify_detects_wrong_kernel_projector():
    m = qmat([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    dec = fine_frobenius(m)
    bad = dataclasses.replace(dec, kernel_projector=Matrix.zeros(QQ, 3))
    report = verify_fine(bad)
    assert not report.passed
    assert dict(report.checks)["kernel_complement"] is False


def _with(items, h, item):
    return items[:h] + (item,) + items[h + 1 :]


def _single_corruptions(dec):
    """dec, then each record that differs from it in one place: an entry +1,
    a scalar +1, n = 0, B and P swapped, a covariant dropped or doubled."""
    field = dec.field
    replace = dataclasses.replace
    lin, quad = dec.linear, dec.quadratic

    def bump(mat, i, j):
        rows = [list(row) for row in mat.rows]
        rows[i][j] = rows[i][j] + field.one
        return Matrix(field, rows)

    yield dec
    for i in range(dec.dim):
        for j in range(dec.dim):
            yield replace(dec, kernel_projector=bump(dec.kernel_projector, i, j))
            for h, cov in enumerate(lin):
                bumped = replace(cov, matrix=bump(cov.matrix, i, j))
                yield replace(dec, linear=_with(lin, h, bumped))
            for h, cov in enumerate(quad):
                for name in ("vertical", "projector"):
                    bumped = replace(cov, **{name: bump(getattr(cov, name), i, j)})
                    yield replace(dec, quadratic=_with(quad, h, bumped))
    for h, cov in enumerate(lin):
        for gamma in (cov.eigenvalue + field.one, field.zero):
            yield replace(dec, linear=_with(lin, h, replace(cov, eigenvalue=gamma)))
        yield replace(dec, linear=lin[:h] + lin[h + 1 :])
        yield replace(dec, linear=lin + (cov,))
    for h, cov in enumerate(quad):
        for changed in (
            replace(cov, alpha=cov.alpha + field.one),
            replace(cov, n=cov.n + field.one),
            replace(cov, n=field.zero),
            replace(cov, vertical=cov.projector, projector=cov.vertical),
        ):
            yield replace(dec, quadratic=_with(quad, h, changed))
        yield replace(dec, quadratic=quad[:h] + quad[h + 1 :])
        yield replace(dec, quadratic=quad + (cov,))
    for kernel in (Matrix.zeros(field, dec.dim), Matrix.identity(field, dec.dim)):
        if kernel != dec.kernel_projector:
            yield replace(dec, kernel_projector=kernel)


# a rotation and the companion of X^2 - 2X + 5 on the diagonal: two quadratic
# covariants in blocks of their own, so a bumped entry can make B_1 B_2 zero
# and B_2 B_1 not
TWO_QUADRATIC = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 5], [0, 0, -1, 0]]


@pytest.mark.parametrize("name", ["q_semisimple", "f7_semisimple", "two_quadratic"])
def test_verify_fine_matches_pairwise_reference(name):
    if name == "two_quadratic":
        m = qmat(TWO_QUADRATIC)
    else:
        path = Path(__file__).resolve().parent / "golden" / "inputs" / f"{name}.json"
        m = matrix_from_json(json.loads(path.read_text()))
    dec = fine_frobenius(m)
    k, q = len(dec.linear), len(dec.quadratic)
    assert (k, q) == ((0, 2) if name == "two_quadratic" else (1, 1))
    records = list(_single_corruptions(dec))
    assert len(records) > (1 + k + 2 * q) * dec.dim**2
    assert all(bad != dec for bad in records[1:])
    failing = 0
    for bad in records:
        expected = oracles.fine_clauses(
            dec.field,
            bad.kernel_projector.rows,
            [(cov.eigenvalue, cov.matrix.rows) for cov in bad.linear],
            [
                (cov.alpha, cov.n, cov.vertical.rows, cov.projector.rows)
                for cov in bad.quadratic
            ],
        )
        report = verify_fine(bad)
        assert list(report.checks) == expected
        failing += not report.passed
    # only the record itself and each gamma + 1, alpha + 1 pass: no clause
    # ties the eigenvalue data to the matrices (check's reconstructs_input does)
    assert failing == len(records) - 1 - k - q


# ---------------------------------------------------------------------------
# prime-field decompositions
# ---------------------------------------------------------------------------

def test_fine_frobenius_over_f7():
    field = PrimeField(7)
    # companion of X^2 - 3; 3 is a non-residue mod 7, so this is irreducible
    coeffs = [field.from_int(-3), field.from_int(0), field.from_int(1)]
    m = Matrix.companion(Polynomial(field, coeffs))
    dec = fine_frobenius(m)
    assert len(dec.quadratic) == 1
    assert verify_fine(dec).passed
    assert reconstruct(dec) == m


def test_normalize_unordered_ground_field():
    field = PrimeField(7)
    coeffs = [field.from_int(-3), field.from_int(0), field.from_int(1)]
    m = Matrix.companion(Polynomial(field, coeffs))
    with pytest.raises(UnorderedGroundField):
        normalize(fine_frobenius(m))


# ---------------------------------------------------------------------------
# normalized form
# ---------------------------------------------------------------------------

def test_normalize_worked_example():
    m = qmat([[2, 5], [-1, 0]])
    norm = normalize(fine_frobenius(m))
    cov = norm.quadratic[0]
    assert cov.imaginary == Fraction(2)  # sqrt(4)
    assert cov.vertical_unit == (m - Matrix.identity(QQ, 2)).scale(Fraction(1, 2))
    b_unit = cov.vertical_unit
    assert b_unit * b_unit * b_unit == -b_unit
    assert reconstruct_normalized(norm) == m


def test_normalize_irrational_imaginary():
    # companion of X^2 + 2: alpha = 0, n = 2, sqrt(2) enters the entries
    m = qmat([[0, -2], [1, 0]])
    norm = normalize(fine_frobenius(m))
    cov = norm.quadratic[0]
    assert cov.imaginary == quad_element(QQ, 0, 1, 2)
    assert cov.imaginary * cov.imaginary == Fraction(2)
    assert any(
        isinstance(cov.vertical_unit.entry(i, j), QuadElement)
        for i in range(2)
        for j in range(2)
    )
    assert cov.vertical_unit * cov.vertical_unit * cov.vertical_unit == -cov.vertical_unit
    assert reconstruct_normalized(norm) == m


def test_normalize_negative_norm_rejected():
    # [[0,1],[1,1]] has minpoly X^2 - X - 1: alpha = 1/2, n = -5/4 < 0
    m = qmat([[0, 1], [1, 1]])
    with pytest.raises(NegativeNormComponent):
        normalize(fine_frobenius(m))


def test_normalize_random_positive_norms():
    rng = random.Random(59)
    for _ in range(15):
        n = rng.randint(2, 5)
        m = corpus.random_semisimple_sb2(rng, n, positive_norms=True)
        norm = normalize(fine_frobenius(m))
        for cov in norm.quadratic:
            assert cov.imaginary * cov.imaginary == cov.n
            u = cov.vertical_unit
            assert u * u * u == -u
        assert reconstruct_normalized(norm) == m
