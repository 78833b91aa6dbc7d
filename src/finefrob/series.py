"""Convergent power series applied to matrices over valued fields.

The scalar theory: for an eigenvalue lam = alpha + beta (beta^2 = -n in the
ground field), any series f = sum a_m X^m with lam inside the convergence
domain splits into even/odd parts

    f(lam) = even + odd * beta,

where even and odd are ground-field sums in powers of alpha and (-n) — no
root of -n is ever taken.  The matrix theory (via the fine covariants):

    f(M) = sum_i f(gamma_i) A_i  +  sum_j [ even_j P_j + odd_j B_j ],

which this module evaluates with exact rational partial sums plus certified
tail bounds.  Archimedean results stay exact: a Q matrix of partial sums and
one of per-entry tail bounds, rounded to decimals only where they are printed
(``jsonio``); p-adic results carry a certified valuation bound on the
truncation error instead.  Floating point (mpmath) serves only the closed
forms.

A ground eigenvalue gamma is the case alpha = gamma, n = 0, with no
vertical part: every covariant is (alpha, n, projector, vertical or none),
A0 being (0, 0) and each A_i (gamma_i, 0), and one even/odd partial-sum loop
serves them all.  The exact sums run on ints, each value on one accumulator
over a common denominator, with one Fraction per value at the end (Haible &
Papanikolaou, ANTS 1998, without binary splitting).  The archimedean cutoff
search skips, unsummed, each cutoff whose first tail term alone is above the
target.

Membership in the convergence domain (the strict eigenvalue-data condition
|alpha| + |beta| < R archimedean, max(|alpha|, |beta|) < R non-archimedean)
is always decided by exact rational inequalities, never by floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import (
    FieldMismatch,
    NotConvergent,
    NotInOmegaHat,
    SchemaMismatch,
    TrivialKindUnsupported,
    UnknownRadius,
)
from .frobenius import (
    FineFrobenius,
    fine_frobenius,
    fine_from_spectrum,
    normalize,
    spectral_components,
)
from .matrix import Matrix, _identity, _product, _values, spectrum
from .scalar import QQ, AbsValue, QuadElement, padic_valuation

__all__ = [
    "SeriesSpec",
    "NAMED_SERIES",
    "EvenOdd",
    "ArchSeriesMatrix",
    "PadicSeriesMatrix",
    "radius_of_convergence",
    "EigenAbs",
    "eigen_abs_data",
    "in_omega_hat",
    "domain_data",
    "series_even_odd",
    "apply_series",
    "padic_truncation_bound",
    "apply_named_closed_form",
    "complete_jc_of_image",
    "taylor_partial_exact",
]

NAMED_SERIES = ("EXP", "SIN", "COS", "SINH", "COSH")
# a_m of a named series is _SIGNS[name][m % 4] / m!
_SIGNS = {
    "EXP": (1, 1, 1, 1),
    "SIN": (0, 1, 0, -1),
    "COS": (1, 0, -1, 0),
    "SINH": (0, 1, 0, 1),
    "COSH": (1, 0, 1, 0),
}

_TERMS_CAP = 100_000


# ---------------------------------------------------------------------------
# series specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesSpec:
    """A power series sum a_m X^m with rational coefficients.

    Named series carry their standard radii; CUSTOM series are finite
    coefficient lists (constant first, zero beyond the list) with an optional
    user-declared radius, required whenever a convergence statement is needed.
    """

    name: str
    custom_coeffs: tuple[Fraction, ...] | None = None
    declared_radius: object = None  # Fraction, math.inf, or None

    def __post_init__(self):
        if self.name not in NAMED_SERIES + ("CUSTOM",):
            raise SchemaMismatch(f"unknown series name {self.name!r}")
        if self.name == "CUSTOM" and not self.custom_coeffs:
            raise SchemaMismatch("CUSTOM series needs coefficients")

    # named constructors ----------------------------------------------------

    @classmethod
    def exp(cls) -> "SeriesSpec":
        return cls("EXP")

    @classmethod
    def sin(cls) -> "SeriesSpec":
        return cls("SIN")

    @classmethod
    def cos(cls) -> "SeriesSpec":
        return cls("COS")

    @classmethod
    def sinh(cls) -> "SeriesSpec":
        return cls("SINH")

    @classmethod
    def cosh(cls) -> "SeriesSpec":
        return cls("COSH")

    @classmethod
    def custom(cls, coeffs, radius=None) -> "SeriesSpec":
        cs = tuple(Fraction(c) for c in coeffs)
        if radius is not None and radius != math.inf:
            radius = Fraction(radius)
            if radius <= 0:
                raise SchemaMismatch("declared radius must be positive")
        return cls("CUSTOM", cs, radius)

    @classmethod
    def named(cls, name: str) -> "SeriesSpec":
        return cls(name.upper())

    # coefficients ----------------------------------------------------------

    def coefficient(self, m: int) -> Fraction:
        if self.name == "CUSTOM":
            if 0 <= m < len(self.custom_coeffs):
                return self.custom_coeffs[m]
            return Fraction(0)
        return Fraction(_SIGNS[self.name][m % 4], math.factorial(m))

    @property
    def max_index(self) -> int | None:
        """Largest index with a possibly-nonzero coefficient (None: infinite)."""
        if self.name == "CUSTOM":
            return len(self.custom_coeffs) - 1
        return None


def radius_of_convergence(spec: SeriesSpec, av: AbsValue) -> float:
    """Convergence radius as a float report value (exact logic never uses it)."""
    if spec.name == "CUSTOM":
        return float(_declared_radius(spec))
    if av.kind == "arch":
        return math.inf
    if av.kind == "trivial":
        return 1.0
    return float(av.p) ** (-1.0 / (av.p - 1))


def _declared_radius(spec: SeriesSpec):
    """A CUSTOM series' radius: a positive Fraction or math.inf."""
    if spec.declared_radius is None:
        raise UnknownRadius("CUSTOM series has no declared radius")
    return spec.declared_radius


def _arch_radius(spec: SeriesSpec):
    """Archimedean radius R as a Fraction, or math.inf."""
    return _declared_radius(spec) if spec.name == "CUSTOM" else math.inf


# ---------------------------------------------------------------------------
# eigenvalue data and membership
# ---------------------------------------------------------------------------

def _components(m: Matrix):
    """``spectral_components`` of M, which must be over Q with ground-field
    entries, as ``apply_series`` asks."""
    if m.field.characteristic != 0:
        raise FieldMismatch("valued-field analysis is defined over Q")
    _require_rational_matrix(m)
    return spectral_components(spectrum(m))


@dataclass(frozen=True)
class EigenAbs:
    """Float report of (|lambda|, |alpha|, |beta|) for one factor."""

    kind: str  # "linear" | "quadratic"
    gamma: Fraction | None
    alpha: Fraction | None
    n: Fraction | None
    abs_lambda: float
    abs_alpha: float
    abs_beta: float


def eigen_abs_data(m: Matrix, av: AbsValue) -> list[EigenAbs]:
    """Per-factor absolute-value triples under the archimedean or p-adic value."""
    _require_valued(av)
    return _eigen_abs(_components(m), av)


def _require_valued(av: AbsValue):
    if av.kind == "trivial":
        raise TrivialKindUnsupported(
            "the trivial absolute value maps every nonzero value to 1"
        )


def _eigen_abs(components, av: AbsValue) -> list[EigenAbs]:
    out = []
    for alpha, n in components:
        if av.kind == "arch":
            absa = abs(float(alpha))
            absb = math.sqrt(abs(float(n)))
            absl = math.sqrt(float(alpha * alpha + n)) if n > 0 else absa + absb
        else:
            absa = _padic_abs(alpha, av.p)
            absb = _padic_half_abs(n, av.p)
            absl = _padic_half_abs(alpha * alpha + n, av.p)
        data = ("linear", alpha, None, None) if n == 0 else ("quadratic", None, alpha, n)
        out.append(EigenAbs(*data, absl, absa, absb))
    return out


def _padic_abs(x: Fraction, p: int) -> float:
    v = padic_valuation(x, p)
    if v == math.inf:
        return 0.0
    return float(p) ** (-v)


def _padic_half_abs(x: Fraction, p: int) -> float:
    """|x|_p^(1/2) (the unique extension's value on sqrt-type quantities)."""
    v = padic_valuation(x, p)
    if v == math.inf:
        return 0.0
    return float(p) ** (-v / 2.0)


def _sqrt_bounds(f: Fraction) -> tuple[Fraction, Fraction]:
    """(lower, upper) rational bounds on sqrt(f) for f >= 0."""
    if f < 0:
        raise ValueError("negative argument")
    if f == 0:
        return Fraction(0), Fraction(0)
    uv = f.numerator * f.denominator
    r = math.isqrt(uv)
    return Fraction(r, f.denominator), Fraction(r + 1, f.denominator)


def _arch_member(alpha: Fraction, n: Fraction, radius) -> bool:
    """Exact |alpha| + |beta| < R test for one eigenvalue, beta^2 = -n."""
    if radius == math.inf:
        return True
    margin = radius - abs(alpha)
    return margin > 0 and abs(n) < margin * margin


def _padic_member(alpha: Fraction, n: Fraction, spec: SeriesSpec, p: int) -> bool:
    """Exact max(|alpha|, |beta|) < R test for one eigenvalue, beta^2 = -n.

    With v = min(v(alpha), v(beta)), in (1/2)Z: for named series R =
    p^(-1/(p-1)) the condition is v (p - 1) > 1, and for a declared rational
    R it is R^2 p^(2v) > 1.
    """
    radius = _declared_radius(spec) if spec.name == "CUSTOM" else None
    v = _padic_eigen_valuation(alpha, n, p)
    if v == math.inf or radius == math.inf:
        return True
    if radius is None:
        return v * (p - 1) > 1
    return radius * radius * Fraction(p) ** (2 * v) > 1


def _member(components, spec: SeriesSpec, av: AbsValue) -> bool:
    if av.kind == "trivial":
        # every nonzero value has trivial absolute value 1, so only the zero
        # eigenvalue sits strictly inside the radius-1 domain
        return all(alpha == n == 0 for alpha, n in components)
    if av.kind == "arch":
        radius = _arch_radius(spec)
        return all(_arch_member(alpha, n, radius) for alpha, n in components)
    return all(_padic_member(alpha, n, spec, av.p) for alpha, n in components)


def in_omega_hat(m: Matrix, spec: SeriesSpec, av: AbsValue) -> bool:
    """Exact membership of M's eigenvalue data in the convergence domain."""
    return _member(_components(m), spec, av)


def domain_data(m: Matrix, spec: SeriesSpec, av: AbsValue) -> tuple[bool, list[EigenAbs]]:
    """(in_omega_hat, eigen_abs_data) of M from one spectrum of M."""
    components = _components(m)
    member = _member(components, spec, av)
    _require_valued(av)
    return member, _eigen_abs(components, av)


# ---------------------------------------------------------------------------
# scalar partial sums with certified tails
# ---------------------------------------------------------------------------

def _walk(spec: SeriesSpec, terms: int, v: int):
    """Int pairs (s_m, c_m), m <= terms, with a_m x^m = c_m (vx)^m / (s_0 ... s_m).

    a_m = c_m / (r_0 r_1 ... r_m), s_0 = r_0 and s_m = r_m v.  Named series:
    r_0 = 1, r_m = m, c_m in {0, 1, -1}.  CUSTOM: r_0 is the common
    denominator of the coefficients and r_m = 1 after it.
    """
    if spec.name == "CUSTOM":
        den = math.lcm(*(c.denominator for c in spec.custom_coeffs))
        nums = [c.numerator * (den // c.denominator) for c in spec.custom_coeffs]
        for m in range(terms + 1):
            yield (v if m else den), (nums[m] if m < len(nums) else 0)
        return
    signs = _SIGNS[spec.name]
    for m in range(terms + 1):
        yield (m * v if m else 1), signs[m % 4]


def _even_odd_partial(
    spec: SeriesSpec, alpha: Fraction, n: Fraction, terms: int
) -> tuple[Fraction, Fraction]:
    """Exact even/odd sums: lam^m = e_m + o_m * beta with beta^2 = -n.

    Recurrence: e_{m+1} = alpha*e_m - n*o_m, o_{m+1} = e_m + alpha*o_m, run on
    the integers D^m e_m and D^m o_m, D the lcm of the denominators of alpha
    and n.  Each sum is one integer accumulator over the walk's denominator,
    made a Fraction once at the end.
    """
    d = math.lcm(alpha.denominator, n.denominator)
    a, b = (x.numerator * (d // x.denominator) for x in (alpha, n))
    e, o, even, odd, den = 1, 0, 0, 0, 1
    for step, c in _walk(spec, terms, d):
        even, odd, den = even * step + c * e, odd * step + c * o, den * step
        e, o = a * e - b * o, d * e + a * o
    return Fraction(even, den), Fraction(odd, den)


def _named_tail_bound(terms: int, r: Fraction) -> Fraction:
    """Bound on sum_{m>terms} r^m / m! (valid for all five named series).

    The terms are summed exactly through m = split + 1, split being the least
    index >= terms with split + 2 > 2r; past it each term is under half the
    one before, so the term at split + 1 times r / (split + 2 - r) closes the
    tail.  With r = p/q the sum is one integer accumulator over q^m m!, the
    update of the EXP walk, made a Fraction once at the end.
    """
    if r <= 0:
        return Fraction(0)
    p, q = r.numerator, r.denominator
    split = max(terms, 2 * p // q - 1)
    acc, den, power = 0, math.factorial(terms) * q**terms, p**terms
    for m in range(terms + 1, split + 2):
        power *= p
        acc, den = acc * m * q + power, den * m * q
    gap = (split + 2) * q - p
    return Fraction(acc * gap + power * p, den * gap)


def _tail_bound(spec: SeriesSpec, terms: int, r: Fraction) -> Fraction:
    """Bound on sum_{m>terms} |a_m| r^m."""
    if spec.name != "CUSTOM":
        return _named_tail_bound(terms, r)
    coeffs = spec.custom_coeffs
    return sum((abs(coeffs[m]) * r**m for m in range(terms + 1, len(coeffs))), Fraction(0))


def _radius(alpha: Fraction, n: Fraction) -> Fraction:
    """Rational upper bound on |lambda| = |alpha| + |beta| with beta^2 = -n."""
    return abs(alpha) + _sqrt_bounds(abs(n))[1]


def _even_odd_tails(
    spec: SeriesSpec, terms: int, alpha: Fraction, n: Fraction
) -> tuple[Fraction, Fraction]:
    """Tail bounds past ``terms`` on the even and on the odd sum of one eigenvalue."""
    tail = _tail_bound(spec, terms, _radius(alpha, n))
    beta_lb = _sqrt_bounds(abs(n))[0]
    return tail, (tail / beta_lb if beta_lb > 0 else tail)


def _auto_terms_arch(spec: SeriesSpec, radii, precision: int) -> int:
    """Least cutoff on the schedule whose tails are below 2^-(precision + 8).

    A point t is skipped unsummed when the first tail term at the largest
    radius r = p/q is above the target, p^(t+1) 2^(precision+8) > q^(t+1) (t+1)!:
    every tail bound is at least its first term, so the least passing point
    is the same.
    """
    if spec.max_index is not None:
        return spec.max_index
    target = Fraction(1, 2 ** (precision + 8))
    top = max(radii, default=0)
    terms = 1
    while terms <= _TERMS_CAP:
        k = terms + 1
        hopeless = top.numerator**k << (precision + 8) > top.denominator**k * math.factorial(k)
        if not hopeless and all(_tail_bound(spec, terms, r) <= target for r in radii):
            return terms
        terms = terms + 1 + terms // 4
    raise NotConvergent("no cutoff reached the requested tail bound")


# ---------------------------------------------------------------------------
# even/odd scalar interface
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvenOdd:
    """Exact even/odd scalar sums with their tail bounds; iterable as (even, odd)."""

    even: Fraction
    odd: Fraction
    even_error: Fraction
    odd_error: Fraction
    terms_used: int

    def __iter__(self):
        yield self.even
        yield self.odd


def series_even_odd(
    alpha,
    n,
    spec: SeriesSpec,
    precision: int = 128,
    terms: int | None = None,
) -> EvenOdd:
    """Archimedean even/odd sums for one eigenvalue alpha + beta, beta^2 = -n."""
    alpha = Fraction(alpha)
    n = Fraction(n)
    if not _arch_member(alpha, n, _arch_radius(spec)):
        raise NotConvergent("eigenvalue data leaves the convergence domain")
    if terms is None:
        terms = _auto_terms_arch(spec, [_radius(alpha, n)], precision)
    even, odd = _even_odd_partial(spec, alpha, n, terms)
    return EvenOdd(even, odd, *_even_odd_tails(spec, terms, alpha, n), terms)


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArchSeriesMatrix:
    """Q matrices of values and of per-entry certified error bounds; the
    precision sets the digits the values are printed to."""

    values: Matrix
    error_bounds: Matrix
    precision: int
    terms_used: int

    @property
    def n(self) -> int:
        return self.values.n


@dataclass(frozen=True)
class PadicSeriesMatrix:
    """Exact rational partial sums with a certified truncation valuation bound."""

    values: Matrix
    p: int
    valuation_bound: object  # int, or math.inf when the result is exact
    terms_used: int

    @property
    def n(self) -> int:
        return self.values.n


# ---------------------------------------------------------------------------
# applying a series to a matrix
# ---------------------------------------------------------------------------

def _require_rational_matrix(m: Matrix):
    if m.field.characteristic != 0:
        raise FieldMismatch("series application is defined over Q")
    if m.radical is not None:
        raise FieldMismatch("series application needs ground-field entries")


def _ground_covariants(dec) -> list[tuple]:
    """(gamma, 0, projector, None) for A0, when nonzero, and for each A_i."""
    zero = Fraction(0)
    a0 = dec.kernel_projector
    kernel = [] if a0.is_zero else [(zero, zero, a0, None)]
    return kernel + [(Fraction(c.eigenvalue), zero, c.matrix, None) for c in dec.linear]


def _covariants(dec: FineFrobenius) -> list[tuple]:
    """(alpha, n, projector, vertical or None) of every covariant of ``dec``."""
    return _ground_covariants(dec) + [
        (Fraction(cov.alpha), Fraction(cov.n), cov.projector, cov.vertical)
        for cov in dec.quadratic
    ]


def _partial_sums(dec: FineFrobenius, spec: SeriesSpec, terms: int):
    """Exact rational (horizontal, vertical) partial sums of f(M) up to ``terms``."""
    h_acc = Matrix.zeros(dec.field, dec.dim)
    v_acc = Matrix.zeros(dec.field, dec.dim)
    for alpha, n, projector, vertical in _covariants(dec):
        even, odd = _even_odd_partial(spec, alpha, n, terms)
        h_acc = h_acc + projector.scale(even)
        if vertical is not None:
            v_acc = v_acc + vertical.scale(odd)
    return h_acc, v_acc


def _arch_tails(dec: FineFrobenius, spec: SeriesSpec, terms: int):
    """(h_tails, v_tails): (tail bound, matrix) pairs whose products bound the
    archimedean truncation error entrywise for the respective part."""
    h_tails: list[tuple[Fraction, Matrix]] = []
    v_tails: list[tuple[Fraction, Matrix]] = []
    for alpha, n, projector, vertical in _covariants(dec):
        tail, odd_tail = _even_odd_tails(spec, terms, alpha, n)
        h_tails.append((tail, projector))
        if vertical is not None:
            v_tails.append((odd_tail, vertical))
    return h_tails, v_tails


def _with_bounds(exact: Matrix, tail_items, precision: int, terms: int) -> ArchSeriesMatrix:
    """``exact`` with the bound sum tail |M[i][j]| over the tail items (tail,
    M), one Q matrix: the tails run on the integer numerators of each M, over
    the lcm ``den`` of the tails' denominators."""
    dim = exact.n
    states = [(tail, *_values(mat)[1]) for tail, mat in tail_items]
    den = math.lcm(*(tail.denominator * k for tail, _, k in states))
    tails = [(tail.numerator * (den // (tail.denominator * k)), rows) for tail, rows, k in states]
    bounds = [[sum(t * abs(rows[i][j]) for t, rows in tails) for j in range(dim)] for i in range(dim)]
    return ArchSeriesMatrix(exact, Matrix._of(QQ, 0, bounds, den), precision, terms)


def _image_parts(m: Matrix, spec: SeriesSpec, av: AbsValue, precision, terms):
    """The exact parts of f(M) that apply_series and complete_jc_of_image report.

    Returns (h, v, h_tails, v_tails, valuation_bound, terms): the horizontal
    and vertical partial sums, the archimedean tail items of each (empty
    p-adically), the certified p-adic valuation bound (unused archimedean) and
    the cutoff.  The zero matrix is handled directly as a_0 * identity.
    """
    _require_rational_matrix(m)
    if av.kind == "trivial":
        raise TrivialKindUnsupported("no evaluation under the trivial absolute value")
    if m.is_zero:
        a0 = spec.coefficient(0)
        zero = Matrix.zeros(QQ, m.n)
        return Matrix.identity(QQ, m.n).scale(a0), zero, [], [], math.inf, 0
    spectral = spectrum(m)
    components = spectral_components(spectral)
    if not _member(components, spec, av):
        raise NotInOmegaHat("eigenvalue data leaves the convergence domain")
    dec = fine_from_spectrum(m, spectral)
    if av.kind == "arch":
        if terms is None:
            radii = [_radius(alpha, n) for alpha, n in components]
            terms = _auto_terms_arch(spec, radii, precision)
        h_tails, v_tails = _arch_tails(dec, spec, terms)
        bound = None
    else:
        terms, bound = _padic_cutoff(dec, spec, av.p, precision, terms)
        h_tails = v_tails = []
    h_exact, v_exact = _partial_sums(dec, spec, terms)
    return h_exact, v_exact, h_tails, v_tails, bound, terms


def _image_result(exact: Matrix, tails, av: AbsValue, precision: int, bound, terms):
    if av.kind == "arch":
        return _with_bounds(exact, tails, precision, terms)
    return PadicSeriesMatrix(exact, av.p, bound, terms)


def apply_series(
    m: Matrix,
    spec: SeriesSpec,
    av: AbsValue,
    precision: int = 128,
    terms: int | None = None,
):
    """f(M) through the fine covariants; backend chosen by the absolute value.

    Archimedean: returns ArchSeriesMatrix (exact partial sums + per-entry
    tail bounds).  p-adic: returns PadicSeriesMatrix (exact rationals + certified
    valuation bound; ``precision`` is the requested bound).  The zero matrix
    is handled directly as a_0 * identity.
    """
    h, v, h_tails, v_tails, bound, used = _image_parts(m, spec, av, precision, terms)
    return _image_result(h + v, h_tails + v_tails, av, precision, bound, used)


# -- p-adic backend ----------------------------------------------------------

def _padic_eigen_valuation(alpha: Fraction, n: Fraction, p: int):
    """min(v(alpha), v(beta)) for beta^2 = -n, exact (inf for alpha = n = 0)."""
    vn = padic_valuation(n, p)
    return min(padic_valuation(alpha, p), vn if vn == math.inf else Fraction(vn, 2))


def _matrix_min_valuation(mat: Matrix, p: int):
    """min v_p(a_ij) - v_p(d) off the state (a, d) of a Q matrix; inf for 0."""
    _, (a, d) = _values(mat)
    least = min((padic_valuation(x, p) for row in a for x in row if x), default=math.inf)
    return least - padic_valuation(d, p)


def _padic_scalar_tail_valuation(
    spec: SeriesSpec, terms: int, v: Fraction, p: int, shifted: bool
):
    """Certified lower bound on the valuation of the scalar tail past ``terms``.

    ``shifted`` marks the odd sums, whose monomials carry total weight m - 1
    instead of m.  Named coefficients satisfy v_p(a_m) >= -(m-1)/(p-1); CUSTOM
    series are finite, so their tail is an explicit minimum (inf when empty).
    """
    if v == math.inf:
        return math.inf
    s = Fraction(1, p - 1)
    if spec.name != "CUSTOM":
        m0 = terms + 1
        weight = (m0 - 1) if shifted else m0
        return weight * v - (m0 - 1) * s
    coeffs = spec.custom_coeffs
    return min(
        (padic_valuation(coeffs[m], p) + (m - 1 if shifted else m) * v
         for m in range(terms + 1, len(coeffs)) if coeffs[m]),
        default=math.inf,
    )


def _least_padic_cutoff(spec: SeriesSpec, sources, p: int, target) -> int:
    """The least t whose bound, min over the sources (v, shift, shifted) of
    the scalar tail valuation past t plus shift, reaches ``target``.

    Named series: a source's bound t (v - s) + (v unless shifted) + shift,
    s = 1/(p - 1), grows with t, as membership gives v > s.  CUSTOM: the tail
    past t is a minimum over the coefficients m > t, so t is the last m whose
    term at some source is below ``target`` (0 if none), at most ``max_index``.
    """
    finite = [(v, shift, shifted) for v, shift, shifted in sources
              if v != math.inf and shift != math.inf]
    if spec.name != "CUSTOM":
        s = Fraction(1, p - 1)
        return max((max(0, math.ceil((target - shift - (0 if shifted else v)) / (v - s)))
                    for v, shift, shifted in finite), default=0)
    coeffs = spec.custom_coeffs
    return max((m for m in range(1, len(coeffs)) if coeffs[m] and any(
        padic_valuation(coeffs[m], p) + (m - 1 if shifted else m) * v + shift < target
        for v, shift, shifted in finite)), default=0)


def _padic_cutoff(dec: FineFrobenius, spec: SeriesSpec, p: int, target, terms):
    """(terms, certified valuation bound of the truncation at terms).

    Without a given cutoff, the least one whose bound reaches ``target``.
    """
    # (eigenvalue-data valuation, matrix valuation, shifted) per tail source;
    # neither valuation depends on the cutoff
    sources = []
    for alpha, n, projector, vertical in _covariants(dec):
        v = _padic_eigen_valuation(alpha, n, p)
        sources.append((v, _matrix_min_valuation(projector, p), False))
        if vertical is not None:
            sources.append((v, _matrix_min_valuation(vertical, p), True))
    if terms is None:
        terms = _least_padic_cutoff(spec, sources, p, target)
        if terms > _TERMS_CAP:
            raise NotConvergent("no cutoff certified the requested valuation")
    bound = min((_padic_scalar_tail_valuation(spec, terms, v, p, shifted) + shift
                 for v, shift, shifted in sources), default=math.inf)
    return terms, bound if bound == math.inf else math.floor(bound)


def padic_truncation_bound(m: Matrix, spec: SeriesSpec, p: int, terms: int):
    """The valuation bound apply_series certifies for f(M) cut off after ``terms``."""
    _require_rational_matrix(m)
    return _padic_cutoff(fine_from_spectrum(m, spectrum(m)), spec, p, None, terms)[1]


# -- closed forms ------------------------------------------------------------

def apply_named_closed_form(m: Matrix, name: str, precision: int = 128) -> ArchSeriesMatrix:
    """exp or cos through the normalized covariants and scalar closed forms.

    exp(lam) has real/imaginary parts e^Re cos(Im), e^Re sin(Im); cos(lam)
    has cos(Re)cosh(Im), -sin(Re)sinh(Im).  Requires every n_j > 0 (the
    normalized decomposition); otherwise NegativeNormComponent propagates and
    the caller must use apply_series instead.  The values are mpf sums at
    precision + 16 bits, each read as the exact rational it is, and each
    bound is 2^(8 - precision) (1 + |value|).
    """
    name = name.upper()
    if name not in ("EXP", "COS"):
        raise SchemaMismatch("closed forms exist for EXP and COS only")
    _require_rational_matrix(m)
    dim = m.n
    with mpmath.workprec(precision + 16):
        if m.is_zero:
            values = mpmath.eye(dim)  # exp(0) = cos(0) = 1
        else:
            norm_dec = normalize(fine_frobenius(m))
            values = mpmath.matrix(dim, dim)
            # (Re, Im, P, unit vertical); P = -Bn^2, and Im = 0 on A0 and each A_i
            parts = _ground_covariants(norm_dec) + [
                (cov.alpha, cov.imaginary, cov.projector, cov.vertical_unit)
                for cov in norm_dec.quadratic
            ]
            for alpha, imaginary, projector, unit in parts:
                re, im = _to_mpf(alpha), _to_mpf(imaginary)
                if name == "EXP":
                    f_re = mpmath.exp(re) * mpmath.cos(im)
                    f_im = mpmath.exp(re) * mpmath.sin(im)
                else:
                    f_re = mpmath.cos(re) * mpmath.cosh(im)
                    f_im = -mpmath.sin(re) * mpmath.sinh(im)
                values = values + f_re * _embed_matrix(projector)
                if unit is not None:
                    values = values + f_im * _embed_matrix(unit)
    exact = Matrix(QQ, [[Fraction(*mpmath.libmp.to_rational(x._mpf_)) for x in row]
                        for row in values.tolist()])
    _, (a, d) = _values(exact)
    bounds = Matrix._of(QQ, 0, [[d + abs(x) for x in row] for row in a], d)
    return ArchSeriesMatrix(exact, bounds.scale(Fraction(2) ** (8 - precision)), precision, 0)


def _embed_matrix(mat: Matrix) -> mpmath.matrix:
    return mpmath.matrix([[_to_mpf(x) for x in row] for row in mat.rows])


def _to_mpf(x):
    """Exact scalar -> mpf at the ambient working precision."""
    if isinstance(x, QuadElement):
        if x.d < 0:
            raise ValueError("cannot embed a non-real quadratic element")
        return _to_mpf(x.a) + _to_mpf(x.b) * mpmath.sqrt(x.d)
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)


# -- complete JC of the image ------------------------------------------------

def complete_jc_of_image(
    m: Matrix,
    spec: SeriesSpec,
    av: AbsValue,
    precision: int = 128,
    terms: int | None = None,
):
    """(Hf, Vf): the horizontal/vertical split of f(M) in the completion.

    Hf collects f(gamma_i) A_i and the even sums on P_j; Vf collects the odd
    sums on B_j.  Hf + Vf equals the apply_series result.
    """
    h, v, h_tails, v_tails, bound, used = _image_parts(m, spec, av, precision, terms)
    return (
        _image_result(h, h_tails, av, precision, bound, used),
        _image_result(v, v_tails, av, precision, bound, used),
    )


# -- the Taylor oracle -------------------------------------------------------

def taylor_partial_exact(m: Matrix, spec: SeriesSpec, terms: int) -> Matrix:
    """sum_{k<=terms} a_k M^k by exact integer matrix powers.

    The powers are those of the integer matrix vM of the matrix kernels, v
    the lcm of the entry denominators; each entry is one integer accumulator
    over the walk's denominator, made a Fraction once at the end.
    """
    _require_rational_matrix(m)
    _, (a, v) = _values(m)
    power = _identity(m.n)
    acc = [[0] * m.n for _ in range(m.n)]
    den = 1
    for k, (step, c) in enumerate(_walk(spec, terms, v)):
        acc = [[x * step + c * y for x, y in zip(ra, rp)] for ra, rp in zip(acc, power)]
        den *= step
        if k < terms:
            power = _product(power, a, 0)
    return Matrix._of(m.field, 0, acc, den)
