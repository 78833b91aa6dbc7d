"""Fine decomposition of semisimple matrices into Frobenius covariants.

A nonzero semisimple matrix whose minimal polynomial factors into degrees at
most 2 splits uniquely (char != 2) as

    M = sum_i gamma_i A_i  +  sum_j [ alpha_j P_j + B_j ],

where the A_i are the projectors onto the nonzero ground eigenvalues, each
quadratic factor X^2 - 2 alpha_j X + (alpha_j^2 + n_j) contributes its
projector P_j and the vertical covariant B_j = (M - alpha_j I) P_j with
B_j^2 = -n_j P_j and B_j^3 = -n_j B_j, and A0 projects onto the kernel.
All covariants are polynomial expressions of M with ground-field entries.

``normalize`` rescales each B_j by the exact square root of n_j (requires
n_j > 0, hence an ordered ground field): the normalized covariant satisfies
the clean cube identity Bn^3 = -Bn, at the price of entries in a quadratic
extension when n_j is not a square.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CharTwo,
    FieldMismatch,
    InvalidDecomposition,
    NegativeNormComponent,
    NotSemisimple,
    SplittingBoundExceeded,
    UnorderedGroundField,
    ZeroMatrix,
)
from .jordan_chevalley import _idempotents
from .matrix import Matrix, Spectrum, eval_polys_at_matrix, spectrum
from .poly import quad_factor_data
from .report import VerificationReport

__all__ = [
    "LinearCovariant",
    "QuadCovariant",
    "FineFrobenius",
    "NormalizedQuadCovariant",
    "NormalizedFineFrobenius",
    "spectral_components",
    "fine_frobenius",
    "fine_from_spectrum",
    "reconstruct",
    "verify_fine",
    "normalize",
    "reconstruct_normalized",
]


@dataclass(frozen=True)
class LinearCovariant:
    """Projector onto the eigenspace of one nonzero ground eigenvalue."""

    eigenvalue: object
    matrix: Matrix


@dataclass(frozen=True)
class QuadCovariant:
    """Covariant pair of one irreducible quadratic factor.

    The factor is X^2 - 2*alpha*X + (alpha^2 + n), with conjugate roots
    alpha +- sqrt(-n); projector is the factor's spectral projector and
    vertical = (M - alpha*I)*projector satisfies vertical^2 = -n*projector.
    """

    alpha: object
    n: object
    vertical: Matrix
    projector: Matrix


@dataclass(frozen=True)
class FineFrobenius:
    """The full covariant system of a semisimple splitting-bound-<=2 matrix."""

    dim: int
    field: object
    kernel_projector: Matrix  # possibly zero
    linear: tuple[LinearCovariant, ...]
    quadratic: tuple[QuadCovariant, ...]


@dataclass(frozen=True)
class NormalizedQuadCovariant:
    """Quadratic covariant rescaled by the exact square root of n."""

    alpha: object
    n: object
    imaginary: object  # exact sqrt(n): Fraction, or QuadElement with b > 0
    vertical_unit: Matrix  # vertical / sqrt(n); cubes to its own negative
    projector: Matrix


@dataclass(frozen=True)
class NormalizedFineFrobenius:
    dim: int
    field: object
    kernel_projector: Matrix
    linear: tuple[LinearCovariant, ...]
    quadratic: tuple[NormalizedQuadCovariant, ...]


def spectral_components(spectral: Spectrum) -> list[tuple]:
    """Eigenvalue data (alpha, n) of each irreducible factor, in factor order.

    The roots of the factor are alpha +- sqrt(-n): (gamma, 0) for X - gamma
    and ``quad_factor_data`` for a quadratic.  n is 0 exactly on the degree-1
    factors, since an irreducible quadratic has -n a non-square.  Raises
    NotSemisimple or SplittingBoundExceeded unless the factorization is
    squarefree with degrees at most 2.
    """
    fact = spectral.factorization
    if not fact.is_squarefree:
        raise NotSemisimple("minimal polynomial is not squarefree")
    if fact.max_degree > 2:
        raise SplittingBoundExceeded(
            f"an irreducible factor has degree {fact.max_degree} > 2"
        )
    return [
        (-h.coeff(0), h.field.zero) if h.degree == 1 else quad_factor_data(h)
        for h, _ in fact.factors
    ]


def fine_frobenius(m: Matrix) -> FineFrobenius:
    """Compute all Frobenius covariants of M (see module docstring)."""
    field = m.field
    if field.characteristic == 2:  # pragma: no cover - no such field exists here
        raise CharTwo("fine decomposition needs characteristic != 2")
    if m.radical is not None:
        raise FieldMismatch("fine decomposition input must have ground-field entries")
    if m.is_zero:
        raise ZeroMatrix("the zero matrix has no fine decomposition")
    return fine_from_spectrum(m, spectrum(m))


def fine_from_spectrum(m: Matrix, spectral: Spectrum) -> FineFrobenius:
    """``fine_frobenius`` of a nonzero ground-field M from M's spectrum.

    Each projector is e_i(M), e_i the CRT idempotent, and each vertical
    covariant (M - alpha I) P is ((X - alpha) e_i mod mu)(M): all of them are
    read off one table of the powers of M.
    """
    field = m.field
    components = spectral_components(spectral)
    idempotents = _idempotents(spectral.factorization, field)
    # X - alpha = X + a_1 / 2 is h' made monic for a quadratic factor h
    verticals = [h.derivative().monic() * e % spectral.minpoly
                 for (h, _), e in zip(spectral.factorization.factors, idempotents) if h.degree == 2]
    projectors = eval_polys_at_matrix(idempotents + verticals, m)
    verticals = iter(projectors[len(idempotents) :])
    kernel = Matrix.zeros(field, m.n)
    linear = []
    quadratic = []
    for (alpha, n), proj in zip(components, projectors):
        if n != field.zero:
            quadratic.append(QuadCovariant(alpha, n, next(verticals), proj))
        elif alpha != field.zero:
            linear.append(LinearCovariant(alpha, proj))
        else:
            kernel = proj
    return FineFrobenius(m.n, field, kernel, tuple(linear), tuple(quadratic))


def verify_fine(dec: FineFrobenius) -> VerificationReport:
    """Exact per-identity re-check of the covariant system.

    Every product X*Y of two members of [A0, A_1..A_k, B_1..B_q] is taken
    once, in one table, and each clause reads its products there: B_j^2 on
    the diagonal, B_j^3 = B_j^2 * B_j.  A record that passes costs
    (k + q + 1)^2 + q products.  The clauses, in report order: the gamma_i
    are nonzero and distinct; the (alpha_j, n_j) are distinct; no -n_j is a
    square; A_i A_h = A_i if i = h, else 0; A_i B_j = B_j A_i = 0;
    B_j B_l = 0 for j != l; B_j^3 = -n_j B_j; B_j^2 = -n_j P_j; every
    n_j != 0 and A0 = I - sum A_i - sum B_j^2 / -n_j; A0^2 = A0 and
    A0 X = X A0 = 0 for every other member X; no A_i or B_j is zero.  Every
    covariant must be a dim x dim matrix over ``dec.field``.
    """
    field = dec.field
    zero = Matrix.zeros(field, dec.dim)
    a0 = dec.kernel_projector
    a_list = [cov.matrix for cov in dec.linear]
    members = [a0, *a_list, *(cov.vertical for cov in dec.quadratic)]
    table = [[x * y for y in members] for x in members]
    lin = range(1, 1 + len(a_list))
    quad = range(1 + len(a_list), len(members))
    squares = [table[j][j] for j in quad]
    norms = [cov.n for cov in dec.quadratic]
    gammas = [cov.eigenvalue for cov in dec.linear]
    pairs = [(cov.alpha, cov.n) for cov in dec.quadratic]
    complement = None  # I - sum A_i - sum B_j^2 / -n_j, when every n_j != 0
    if field.zero not in norms:
        complement = Matrix.identity(field, dec.dim) - sum(a_list, zero)
        for sq, n in zip(squares, norms):
            complement = complement + sq.scale(field.one / n)
    others = range(1, len(members))
    checks = (
        ("eigenvalues_nonzero_distinct", field.zero not in gammas and _distinct(gammas)),
        ("conjugate_pairs_distinct", _distinct(pairs)),
        ("nonsquare_norms", not any(field.is_square(-n)[0] for n in norms)),
        ("linear_idempotent_orthogonal",
         all(table[i][h] == (members[i] if i == h else zero) for i in lin for h in lin)),
        ("linear_quad_orthogonal",
         all(table[i][j] == zero == table[j][i] for i in lin for j in quad)),
        ("quad_cross_orthogonal",
         all(table[j][l] == zero for j in quad for l in quad if j != l)),
        ("cube_identity",
         all(sq * members[j] == members[j].scale(-n) for sq, j, n in zip(squares, quad, norms))),
        ("projector_consistency",
         all(sq == cov.projector.scale(-cov.n) for sq, cov in zip(squares, dec.quadratic))),
        ("kernel_complement", complement is not None and a0 == complement),
        ("kernel_idempotent_orthogonal",
         table[0][0] == a0 and all(table[0][i] == zero == table[i][0] for i in others)),
        ("nonzero_covariants", all(not members[i].is_zero for i in others)),
    )
    return VerificationReport(checks)


def _distinct(items) -> bool:
    return all(x != y for i, x in enumerate(items) for y in items[i + 1 :])


def reconstruct(dec: FineFrobenius) -> Matrix:
    """Rebuild M = sum gamma_i A_i + sum (alpha_j P_j + B_j) from a record.

    The record is validated first (InvalidDecomposition lists the failing
    clauses), and this takes no matrix product.
    """
    rep = verify_fine(dec)
    if not rep.passed:
        raise InvalidDecomposition("decomposition record fails: " + ", ".join(rep.failing()))
    return _covariant_sum(dec)


def _covariant_sum(dec: FineFrobenius) -> Matrix:
    """sum gamma_i A_i + sum (alpha_j P_j + B_j) of a record, unchecked."""
    terms = [cov.matrix.scale(cov.eigenvalue) for cov in dec.linear]
    terms += [cov.projector.scale(cov.alpha) + cov.vertical for cov in dec.quadratic]
    return sum(terms, Matrix.zeros(dec.field, dec.dim))


def normalize(dec: FineFrobenius) -> NormalizedFineFrobenius:
    """Rescale each quadratic covariant by the exact square root of its n.

    Only meaningful over an ordered ground field (n_j > 0 is an order
    statement); each n_j < 0 means the associated eigenvalue pair is real
    over the real closure and normalization does not apply.
    """
    field = dec.field
    if field.characteristic != 0:
        raise UnorderedGroundField("normalization requires the ordered field Q")
    quads = []
    for cov in dec.quadratic:
        n = Fraction(cov.n)
        if n < 0:
            raise NegativeNormComponent(
                f"component with n = {n} < 0 has real eigenvalues over the closure"
            )
        imaginary = field.sqrt(n)
        quads.append(NormalizedQuadCovariant(cov.alpha, cov.n, imaginary,
                                             cov.vertical.scale(1 / imaginary), cov.projector))
    return NormalizedFineFrobenius(dec.dim, field, dec.kernel_projector, dec.linear, tuple(quads))


def reconstruct_normalized(dec: NormalizedFineFrobenius) -> Matrix:
    """Rebuild M as sum gamma_i A_i - sum alpha_j Bn_j^2 + sum im_j Bn_j.

    Every addend has ground-field entries (the radicals cancel), so the
    result is exactly comparable with the original matrix.
    """
    return _normalized_sum(dec, [cov.vertical_unit ** 2 for cov in dec.quadratic])


def _normalized_sum(dec: NormalizedFineFrobenius, squares) -> Matrix:
    """``reconstruct_normalized`` from the squares Bn_j^2, given in order."""
    acc = Matrix.zeros(dec.field, dec.dim)
    for cov in dec.linear:
        acc = acc + cov.matrix.scale(cov.eigenvalue)
    for cov, bn2 in zip(dec.quadratic, squares):
        acc = acc - bn2.scale(cov.alpha) + cov.vertical_unit.scale(cov.imaginary)
    return acc
