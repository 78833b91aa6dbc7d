"""Additive and complete additive Jordan-Chevalley decompositions.

The semisimple part S of M is x(M) for a polynomial x that is unique modulo
the minimal polynomial mu.  ``jc_decompose_newton`` finds x by Newton's
iteration on the squarefree part q of mu in K[X]/(mu), with the inverse of q'
modulo q taken once: each step adds one power of the nilpotent ideal (q) to
q(x), so exact annihilation q(x) = 0, the termination certificate, comes
within nu - 1 steps, nu the largest multiplicity in mu.  It splits M = S + N
(S semisimple, N nilpotent, both polynomial expressions of M).

``complete_jc`` refines this to M = H + V + N: H is diagonalizable over the
ground field (the sum of per-factor root projections times CRT projectors),
V = S - H is vertical semisimple, and N = M - S.  x is computed twice: by
the factorization-free Newton route, and as sum r_i e_i, r_i the Newton root
of the irreducible factor h_i in K[X]/(h_i^mult) and e_i its CRT idempotent
(von zur Gathen & Gerhard, Modern Computer Algebra, ch. 5 and 9).  The two
must agree as polynomials mod mu, which is as strong as comparing x(M) with
the matrix of the other, since p(M) = 0 iff mu divides p; a mismatch is an
internal error, not a report entry.  S and the projectors are then read off
one table of the powers of M.
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
    _add,
    _compose,
    _degree,
    _derivative,
    _divmod,
    _lift,
    _reduced,
    _times,
    _values,
    _xgcd,
    factor,  # unused here; perfbench's tracer test patches jordan_chevalley.factor
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


def _check_k_regular(spectral: Spectrum):
    degree = spectral.irregular_degree
    if degree is not None:
        raise NotKRegular(
            f"irreducible factor of degree {degree} over characteristic "
            f"{spectral.minpoly.field.characteristic}"
        )


def jc_decompose_newton(m: Matrix) -> AdditiveJC:
    """Additive Jordan-Chevalley decomposition via Newton iteration.

    S = x(M) for x the root of q in K[X]/(minimal polynomial) that lifts X,
    q the squarefree part, and N = M - S.  Over Q, q comes from a gcd and no
    factorization is made; over F_p it is the product of the factors.
    """
    if m.field.characteristic == 0:
        mpoly = minimal_polynomial(m)
        q = squarefree_part(mpoly)
    else:
        spectral = spectrum(m)
        _check_k_regular(spectral)
        mpoly, q = spectral.minpoly, spectral.factorization.radical(m.field)
    x = _newton_root(q, mpoly)
    semisimple = eval_poly_at_matrix(x, m)
    return AdditiveJC(semisimple, m - semisimple, x)


def _newton_root(f: Polynomial, modulus: Polynomial) -> Polynomial:
    """The root of a separable f in K[X]/(modulus) that lifts X, modulus
    dividing f^nu.

    Iterates x <- x - f(x) u with u = f'^{-1} mod f, taken once and only when
    X is not already the root.  Every x stays X modulo the nilpotent ideal
    (f), so f'(x) u = 1 mod (f) and each step adds one power of f to f(x):
    exact annihilation f(x) = 0, the certificate, comes within nu - 1 <=
    deg modulus steps.
    """
    p, f_values, m = _values(f, modulus)
    x, u = _divmod(_lift([0, 1], p), m, p)[1], None
    for _ in range(_degree(m, p) + 1):
        fx = _compose(f_values, x, p, m)
        if _degree(fx, p) < 0:
            return Polynomial._of(f.field, p, x)
        if u is None:
            u = _xgcd(_derivative(f_values, p), f_values, p)[1]
        x = _divmod(_add(x, _times(fx, u, p), p, -1), m, p)[1]
    raise ArithmeticError("Newton iteration failed to terminate")  # pragma: no cover


def _idempotents(fact: Factorization, field) -> list[Polynomial]:
    """CRT idempotents e_i = u_i * (m / m_i^mu_i) mod m of K[X]/(m), m the
    product of the primaries m_i^mu_i and u_i the inverse of the
    complementary product modulo m_i^mu_i: they sum to 1, are pairwise
    orthogonal and have degree below deg m.  They are computed on the kernels'
    values, and each becomes a Polynomial once."""
    p, *factors = _values(*(h for h, _ in fact.factors))
    primaries, modulus = [], _lift([1], p)
    for h, (_, mult) in zip(factors, fact.factors):
        primary = _lift([1], p)
        for _ in range(mult):
            primary = _reduced(_times(primary, h, p), p)
        primaries.append(primary)
        modulus = _reduced(_times(modulus, primary, p), p)
    idempotents = []
    for primary in primaries:
        complement = _divmod(modulus, primary, p)[0]
        g, u = _xgcd(complement, primary, p)
        if _degree(g, p):  # pragma: no cover - factors are coprime
            raise NoModularInverse("CRT moduli are not coprime")
        e = _divmod(_times(u, complement, p), modulus, p)[1]
        idempotents.append(Polynomial._of(field, p, e))
    return idempotents


def crt_projectors(fact: Factorization, m: Matrix) -> list[Matrix]:
    """Per-factor projectors P_i = e_i(M) from the CRT idempotents of K[X]/(m).

    The P_i form a resolution of the identity.  Every e_i has degree below
    D = deg m, so all of them are combinations of one table I, M, ...,
    M^(D-1), built with at most D - 2 matrix products.
    """
    return eval_polys_at_matrix(_idempotents(fact, m.field), m)


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
    fact, mpoly = spectral.factorization, spectral.minpoly
    # over Q, Newton's q comes from squarefree_part, so the two routes to x
    # share no factorization and their agreement stays a check
    q = squarefree_part(mpoly) if field.characteristic == 0 else fact.radical(field)
    x = _newton_root(q, mpoly)
    idempotents = _idempotents(fact, field)
    glued = Polynomial.zero(field)
    for (h, mult), e in zip(fact.factors, idempotents):
        glued = glued + _newton_root(h, h**mult) * e
    if x != glued % mpoly:  # pragma: no cover - equal by uniqueness
        raise ArithmeticError(
            "Newton and Hensel-CRT constructions of the semisimple part disagree"
        )
    semisimple, *projectors = eval_polys_at_matrix([x, *idempotents], m)
    horizontal = Matrix.zeros(field, m.n)
    data = []
    for (h, mult), proj in zip(fact.factors, projectors):
        alpha = k_projection_of_factor(h)
        horizontal = horizontal + proj.scale(alpha)
        data.append(FactorData(h, mult, proj, alpha))
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
