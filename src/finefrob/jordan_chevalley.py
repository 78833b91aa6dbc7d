"""Additive and complete additive Jordan-Chevalley decompositions.

``jc_decompose_newton`` splits a K-regular matrix as M = S + N (S semisimple,
N nilpotent, both polynomial expressions of M) by a Newton iteration on the
squarefree part of the minimal polynomial, with exact annihilation as the
termination certificate.

``complete_jc`` refines this to M = H + V + N: H is diagonalizable over the
ground field (the sum of per-factor root projections times CRT projectors),
V = S - H is vertical semisimple, and N = M - S.  The semisimple part is
computed twice — by the factorization-free Newton route and by per-factor
Hensel lifts recombined through the projectors — and the two must agree
exactly; a mismatch is an internal error, not a report entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DegreeTooLarge,
    FactorizationFailed,
    FieldMismatch,
    NoModularInverse,
    NotKRegular,
)
from .matrix import (
    Matrix,
    Spectrum,
    eval_poly_at_matrix,
    eval_polys_at_matrix,
    is_nilpotent,
    minimal_polynomial,
    spectrum,
)
from .poly import (
    Factorization,
    Polynomial,
    factor,  # unused here; perfbench's tracer test patches jordan_chevalley.factor
    poly_xgcd,
    reduced_form,
    squarefree_part,
    k_projection_of_factor,
)
from .report import VerificationReport

__all__ = [
    "AdditiveJC",
    "CompleteJC",
    "FactorData",
    "jc_decompose_newton",
    "complete_jc",
    "verify_complete_jc",
    "crt_projectors",
]

_NEWTON_CAP = 64


@dataclass(frozen=True)
class AdditiveJC:
    """M = semisimple + nilpotent, with the certifying polynomial for S."""

    semisimple: Matrix
    nilpotent: Matrix
    semisimple_poly: Polynomial  # S = semisimple_poly(M)


@dataclass(frozen=True)
class FactorData:
    """One irreducible factor of the minimal polynomial with its projector."""

    poly: Polynomial
    multiplicity: int
    projector: Matrix
    alpha: object  # common root projection -a_{d-1}/d of the factor


@dataclass(frozen=True)
class CompleteJC:
    """M = horizontal + vertical + nilpotent over the ground field."""

    horizontal: Matrix
    vertical: Matrix
    nilpotent: Matrix
    factor_data: tuple[FactorData, ...]

    @property
    def semisimple(self) -> Matrix:
        return self.horizontal + self.vertical


def _eval_mod(f: Polynomial, x: Polynomial, modulus: Polynomial) -> Polynomial:
    """f(x) mod modulus by Horner with reduction at each step."""
    field = f.field
    acc = Polynomial.zero(field)
    for c in reversed(f.coeffs):
        acc = (acc * x + Polynomial.constant(field, c)) % modulus
    return acc


def _check_k_regular(spectral: Spectrum):
    degree = spectral.irregular_degree
    if degree is not None:
        raise NotKRegular(
            f"irreducible factor of degree {degree} over characteristic "
            f"{spectral.minpoly.field.characteristic}"
        )


def jc_decompose_newton(m: Matrix) -> AdditiveJC:
    """Additive Jordan-Chevalley decomposition via Newton iteration.

    Iterates x <- x - q(x) * q'(x)^{-1} in K[X]/(minimal polynomial), where q
    is the squarefree part; each step squares the defect, so exact
    annihilation q(x) = 0 is reached in at most log2(max multiplicity) + 1
    steps.  S = x(M) and N = M - S.  Over Q, q comes from a gcd and no
    factorization is made; over F_p it is the product of the factors.
    """
    if m.field.characteristic == 0:
        mpoly = minimal_polynomial(m)
        return _newton(m, mpoly, squarefree_part(mpoly))
    spectral = spectrum(m)
    _check_k_regular(spectral)
    return _newton(m, spectral.minpoly, spectral.factorization.radical(m.field))


def _newton(m: Matrix, mpoly: Polynomial, q: Polynomial) -> AdditiveJC:
    """Newton's S = x(M) for the minimal polynomial mpoly and its squarefree part q."""
    qprime = q.derivative()
    x = Polynomial.x(m.field) % mpoly
    for _ in range(_NEWTON_CAP):
        qx = _eval_mod(q, x, mpoly)
        if qx.is_zero:
            break
        w = _eval_mod(qprime, x, mpoly)
        g, u, _ = poly_xgcd(w, mpoly)
        if g.degree != 0:
            raise NoModularInverse(
                "q'(x) is not invertible modulo the minimal polynomial"
            )
        x = (x - qx * u) % mpoly
    else:  # pragma: no cover - termination is certified by the defect squaring
        raise ArithmeticError("Newton iteration failed to terminate")
    semisimple = eval_poly_at_matrix(x, m)
    return AdditiveJC(semisimple, m - semisimple, x)


def crt_projectors(fact: Factorization, m: Matrix) -> list[Matrix]:
    """Per-factor projectors P_i = e_i(M) from CRT idempotents in K[X]/(m).

    e_i = u_i * (m / m_i^mu_i) mod m, where u_i inverts the complementary
    product modulo m_i^mu_i; the e_i sum to 1 and are pairwise orthogonal
    idempotents, so the P_i form a resolution of the identity.  Every e_i has
    degree below D = deg m, so all of them are combinations of one table
    I, M, ..., M^(D-1), built with at most D - 2 matrix products.
    """
    field = m.field
    if len(fact.factors) == 1:
        return [Matrix.identity(field, m.n)]
    modulus = Polynomial.one(field)
    for h, mult in fact.factors:
        modulus = modulus * h**mult
    idempotents = []
    for h, mult in fact.factors:
        primary = h**mult
        complement = modulus // primary
        g, u, _ = poly_xgcd(complement, primary)
        if g.degree != 0:  # pragma: no cover - factors are coprime
            raise NoModularInverse("CRT moduli are not coprime")
        idempotents.append((u * complement) % modulus)
    return eval_polys_at_matrix(idempotents, m)


def _hensel_root(factor_poly: Polynomial, mult: int) -> Polynomial:
    """The root of factor_poly in K[X]/(factor_poly^mult) lifting X."""
    field = factor_poly.field
    modulus = factor_poly**mult
    x = Polynomial.x(field) % modulus
    deriv = factor_poly.derivative()
    for _ in range(_NEWTON_CAP):
        fx = _eval_mod(factor_poly, x, modulus)
        if fx.is_zero:
            return x
        w = _eval_mod(deriv, x, modulus)
        g, u, _ = poly_xgcd(w, modulus)
        if g.degree != 0:  # pragma: no cover - separable factor
            raise NoModularInverse("derivative not invertible in the lift")
        x = (x - fx * u) % modulus
    raise ArithmeticError("Hensel lift failed to terminate")  # pragma: no cover


def _semisimple_from_projectors(
    fact: Factorization, projectors: list[Matrix], m: Matrix
) -> Matrix:
    """Independent construction of S: per-factor Hensel roots glued by CRT."""
    roots = [
        Polynomial.x(m.field) if mult == 1 else _hensel_root(h, mult)
        for h, mult in fact.factors
    ]
    acc = Matrix.zeros(m.field, m.n)
    for root, proj in zip(eval_polys_at_matrix(roots, m), projectors):
        acc = acc + root * proj
    return acc


def complete_jc(m: Matrix) -> CompleteJC:
    """Complete additive decomposition M = H + V + N over the ground field."""
    field = m.field
    if m.radical is not None:
        raise FieldMismatch("complete decomposition input must have ground-field entries")
    try:
        spectral = spectrum(m)
    except DegreeTooLarge as exc:
        raise FactorizationFailed(str(exc)) from exc
    _check_k_regular(spectral)
    fact = spectral.factorization
    projectors = crt_projectors(fact, m)
    horizontal = Matrix.zeros(field, m.n)
    data = []
    for (h, mult), proj in zip(fact.factors, projectors):
        alpha = k_projection_of_factor(h)
        horizontal = horizontal + proj.scale(alpha)
        data.append(FactorData(h, mult, proj, alpha))
    # over Q, Newton's q comes from squarefree_part, so the two routes to S
    # share no factorization and their agreement stays a check
    mpoly = spectral.minpoly
    q = squarefree_part(mpoly) if field.characteristic == 0 else fact.radical(field)
    newton = _newton(m, mpoly, q)
    via_projectors = _semisimple_from_projectors(fact, projectors, m)
    if newton.semisimple != via_projectors:  # pragma: no cover - equal by uniqueness
        raise ArithmeticError(
            "Newton and projector constructions of the semisimple part disagree"
        )
    semisimple = newton.semisimple
    return CompleteJC(
        horizontal=horizontal,
        vertical=semisimple - horizontal,
        nilpotent=m - semisimple,
        factor_data=tuple(data),
    )


def verify_complete_jc(m: Matrix, dec: CompleteJC) -> VerificationReport:
    """Exact re-check of every defining clause; failures are report entries, as is
    a part whose minimal polynomial is past the degree cap or off the ground field."""
    h, v, n = dec.horizontal, dec.vertical, dec.nilpotent
    checks = []
    checks.append(("sum_reconstructs", h + v + n == m))
    checks.append(
        ("pairwise_commute", h * v == v * h and h * n == n * h and v * n == n * v)
    )
    checks.append(
        (
            "ground_field_entries",
            h.radical is None and v.radical is None and n.radical is None,
        )
    )
    checks.append(("horizontal_diagonalizable", _splits_linear_squarefree(h)))
    checks.append(("vertical_semisimple_reduced", _vertical_semisimple(v)))
    checks.append(("nilpotent", is_nilpotent(n)))
    return VerificationReport(tuple(checks))


def _splits_linear_squarefree(h: Matrix) -> bool:
    """Minimal polynomial is a product of distinct linear factors."""
    try:
        fact = spectrum(h).factorization
    except (DegreeTooLarge, FieldMismatch):
        return False
    return all(p.degree == 1 and mult == 1 for p, mult in fact.factors)


def _vertical_semisimple(v: Matrix) -> bool:
    """Minimal polynomial squarefree with every factor equal to its reduced form."""
    try:
        fact = spectrum(v).factorization
        return fact.is_squarefree and all(reduced_form(p) == p for p, _ in fact.factors)
    except (DegreeTooLarge, FieldMismatch, NotKRegular):
        return False
