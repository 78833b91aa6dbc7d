"""Exact Jordan-Chevalley and fine Frobenius decompositions of matrices.

The library works over the rationals and over prime fields F_p (p odd),
always in exact arithmetic:

- scalars: Fraction / prime-field residues, plus one quadratic extension
  K(sqrt(d)) per value with a canonical radical d; matrices and polynomials
  store integer numerators over one denominator (residues over F_p);
- complete additive decomposition M = H + V + N (horizontal diagonalizable,
  vertical semisimple with reduced-form factors, nilpotent);
- fine Frobenius decomposition of nonzero semisimple matrices whose minimal
  polynomial splits into factors of degree at most 2, and its normalized
  variant with unit verticals;
- convergent power series f(M) through the covariants, with certified error
  bounds: exact rationals with per-entry tail bounds archimedean, exact
  rationals plus a valuation bound p-adically.
"""

from .errors import (
    BothZero,
    CapExceeded,
    CharTwo,
    ConstantPolynomial,
    DegreeTooLarge,
    DimensionMismatch,
    DivisionByZeroPoly,
    DomainError,
    FactorizationFailed,
    FieldMismatch,
    FinefrobError,
    InputError,
    InvalidDecomposition,
    MixedExtension,
    NegativeNormComponent,
    NoModularInverse,
    NotConvergent,
    NotImaginary,
    NotInOmegaHat,
    NotInvertible,
    NotKRegular,
    NotPrime,
    NotQuadratic,
    NotSemisimple,
    Reducible,
    SchemaMismatch,
    SplittingBoundExceeded,
    TrivialKindUnsupported,
    UnknownRadius,
    UnorderedGroundField,
    ZeroMatrix,
    ZeroPolynomial,
)
from .scalar import (
    QQ,
    AbsValue,
    FpElement,
    PrimeField,
    QuadElement,
    RationalField,
    field_from_tag,
    involution,
    is_k_regular_degree,
    k_decompose,
    k_norm,
    padic_valuation,
    quad_element,
    re_im,
)
from .poly import (
    FACTOR_DEGREE_CAP,
    Factorization,
    Polynomial,
    factor,
    k_projection_of_factor,
    poly_gcd,
    poly_lcm,
    poly_xgcd,
    quad_factor_data,
    reduced_form,
    splitting_bound,
    squarefree_part,
)
from .matrix import (
    Matrix,
    Spectrum,
    eval_poly_at_matrix,
    eval_polys_at_matrix,
    is_k_regular_matrix,
    is_nilpotent,
    is_semisimple,
    minimal_polynomial,
    spectrum,
    splitting_bound_of_matrix,
)
from .report import VerificationReport
from .jordan_chevalley import (
    AdditiveJC,
    CompleteJC,
    FactorData,
    complete_jc,
    crt_projectors,
    jc_decompose_newton,
    verify_complete_jc,
)
from .frobenius import (
    FineFrobenius,
    LinearCovariant,
    NormalizedFineFrobenius,
    NormalizedQuadCovariant,
    QuadCovariant,
    fine_frobenius,
    normalize,
    reconstruct,
    reconstruct_normalized,
    verify_fine,
)
from .series import (
    NAMED_SERIES,
    ArchSeriesMatrix,
    EigenAbs,
    EvenOdd,
    PadicSeriesMatrix,
    SeriesSpec,
    apply_named_closed_form,
    apply_series,
    complete_jc_of_image,
    domain_data,
    eigen_abs_data,
    in_omega_hat,
    radius_of_convergence,
    series_even_odd,
    taylor_partial_exact,
)

__version__ = "0.1.0"
