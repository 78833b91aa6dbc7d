"""Power-series images of matrices under archimedean and p-adic absolute values."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

import corpus
import oracles
from finefrob import series
from finefrob import (
    AbsValue,
    ArchSeriesMatrix,
    Matrix,
    PadicSeriesMatrix,
    PrimeField,
    QQ,
    SeriesSpec,
    apply_named_closed_form,
    apply_series,
    complete_jc_of_image,
    eigen_abs_data,
    in_omega_hat,
    padic_valuation,
    radius_of_convergence,
    series_even_odd,
    taylor_oracle,
    taylor_partial_exact,
)
from finefrob.errors import (
    FieldMismatch,
    NotConvergent,
    NotInOmegaHat,
    SchemaMismatch,
    TrivialKindUnsupported,
    UnknownRadius,
)

ARCH = AbsValue.archimedean()


def qmat(rows):
    return Matrix(QQ, [[Fraction(e) for e in row] for row in rows])


def mp_close(x, y, tol="1e-30"):
    with mpmath.workprec(250):
        return abs(x - y) <= mpmath.mpf(tol)


def hp(fn, *args):
    """Evaluate an mpmath quantity at 200 bits (reference values for asserts)."""
    with mpmath.workprec(200):
        return fn(*args)


# ---------------------------------------------------------------------------
# series specifications and radii
# ---------------------------------------------------------------------------

def test_named_coefficients():
    exp = SeriesSpec.exp()
    assert exp.coefficient(0) == 1 and exp.coefficient(3) == Fraction(1, 6)
    sin = SeriesSpec.sin()
    assert sin.coefficient(2) == 0 and sin.coefficient(3) == Fraction(-1, 6)
    cos = SeriesSpec.cos()
    assert cos.coefficient(0) == 1 and cos.coefficient(2) == Fraction(-1, 2)
    for m in range(12):
        assert SeriesSpec.exp().coefficient(m) == oracles.exp_coeff(m)
        assert SeriesSpec.sin().coefficient(m) == oracles.sin_coeff(m)
        assert SeriesSpec.cos().coefficient(m) == oracles.cos_coeff(m)
        assert SeriesSpec.sinh().coefficient(m) == oracles.sinh_coeff(m)
        assert SeriesSpec.cosh().coefficient(m) == oracles.cosh_coeff(m)


def test_custom_spec():
    spec = SeriesSpec.custom([Fraction(1), Fraction(0), Fraction(-1)], math.inf)
    assert spec.coefficient(2) == -1
    assert spec.coefficient(5) == 0
    assert spec.max_index == 2


def test_radius_of_convergence():
    assert radius_of_convergence(SeriesSpec.exp(), ARCH) == math.inf
    assert radius_of_convergence(SeriesSpec.cos(), ARCH) == math.inf
    p3 = AbsValue.padic(3)
    r = radius_of_convergence(SeriesSpec.exp(), p3)
    assert math.isclose(r, 3 ** (-0.5))  # |p|^(1/(p-1))
    geom = SeriesSpec.custom([Fraction(1)] * 8, Fraction(1))
    assert radius_of_convergence(geom, ARCH) == 1.0


def test_custom_radius_required():
    spec = SeriesSpec.custom([Fraction(1), Fraction(2)], None)
    with pytest.raises(UnknownRadius):
        radius_of_convergence(spec, ARCH)
    with pytest.raises(UnknownRadius):
        in_omega_hat(qmat([[1]]), spec, ARCH)
    with pytest.raises(UnknownRadius):
        in_omega_hat(qmat([[0]]), spec, AbsValue.padic(3))


# ---------------------------------------------------------------------------
# scalar even/odd sums
# ---------------------------------------------------------------------------

def test_even_odd_exp_at_i():
    # alpha=0, n=1: K-pair is +-i, so EXP gives (cos 1, sin 1)
    res = series_even_odd(Fraction(0), Fraction(1), SeriesSpec.exp())
    assert mp_close(res.even, hp(mpmath.cos, 1))
    assert mp_close(res.odd, hp(mpmath.sin, 1))
    assert res.even_error < mpmath.mpf("1e-30")
    assert res.odd_error < mpmath.mpf("1e-30")


def test_even_odd_exp_hyperbolic():
    # alpha=0, n=-1: pair is +-1 on the real axis, EXP gives (cosh 1, sinh 1)
    res = series_even_odd(Fraction(0), Fraction(-1), SeriesSpec.exp())
    assert mp_close(res.even, hp(mpmath.cosh, 1))
    assert mp_close(res.odd, hp(mpmath.sinh, 1))


def test_even_odd_shifted_exp():
    # alpha=1, n=1: exp(1 +- i) has even part e cos 1, odd part e sin 1
    res = series_even_odd(Fraction(1), Fraction(1), SeriesSpec.exp())
    assert mp_close(res.even, hp(lambda: mpmath.e * mpmath.cos(1)))
    assert mp_close(res.odd, hp(lambda: mpmath.e * mpmath.sin(1)))


def test_even_odd_identity_series():
    # f = X: even part alpha, odd part 1, with zero tail
    spec = SeriesSpec.custom([Fraction(0), Fraction(1)], math.inf)
    res = series_even_odd(Fraction(3, 2), Fraction(7), spec)
    assert mp_close(res.even, mpmath.mpf(3) / 2, "1e-35")
    assert mp_close(res.odd, mpmath.mpf(1), "1e-35")


def test_even_odd_matches_binomial_oracle():
    rng = random.Random(61)
    spec = SeriesSpec.exp()
    for _ in range(10):
        alpha = Fraction(rng.randint(-3, 3), 2)
        n = Fraction(rng.choice([1, 2, 3, -1, -2]))
        cutoff = 25
        e_sum, o_sum = oracles.even_odd_sum(
            oracles.exp_coeff, alpha, n, cutoff
        )
        res = series_even_odd(alpha, n, spec, terms=cutoff)
        with mpmath.workprec(128):
            assert mp_close(res.even, oracles.embed_scalar(e_sum), "1e-25")
            assert mp_close(res.odd, oracles.embed_scalar(o_sum), "1e-25")


def test_even_odd_rejects_divergent():
    geom = SeriesSpec.custom([Fraction(1)] * 40, Fraction(1))
    with pytest.raises(NotConvergent):
        series_even_odd(Fraction(2), Fraction(1), geom)


# ---------------------------------------------------------------------------
# membership in the convergence domain
# ---------------------------------------------------------------------------

def test_in_omega_hat_archimedean():
    assert in_omega_hat(qmat([[0, -1], [1, 0]]), SeriesSpec.exp(), ARCH)
    geom = SeriesSpec.custom([Fraction(1)] * 8, Fraction(1))
    half = qmat([[0, Fraction(-1, 4)], [1, 0]])  # eigenvalues +-i/2
    assert in_omega_hat(half, geom, ARCH)
    assert not in_omega_hat(qmat([[0, -1], [1, 0]]), geom, ARCH)  # |i| = radius


def test_in_omega_hat_padic():
    p3 = AbsValue.padic(3)
    three_i = Matrix.identity(QQ, 2).scale(Fraction(3))
    assert in_omega_hat(three_i, SeriesSpec.exp(), p3)
    assert not in_omega_hat(Matrix.identity(QQ, 2), SeriesSpec.exp(), p3)
    five_i = Matrix.identity(QQ, 2).scale(Fraction(5))
    assert in_omega_hat(five_i, SeriesSpec.exp(), AbsValue.padic(5))


def _p_scaled(p, numerators, denominators, exponents):
    """Fractions (a / b) p^k: a, b, k drawn from the given ranges."""
    return st.builds(lambda a, b, k: Fraction(a, b) * Fraction(p) ** k,
                     numerators, denominators, exponents)


@settings(max_examples=200)
@given(st.sampled_from((3, 5, 7)), st.data())
def test_in_omega_hat_padic_matches_the_definition(p, data):
    """``in_omega_hat`` under padic:p agrees with the oracle built from
    max(|alpha|_p, |beta|_p) < R, beta^2 = -n: on [[alpha, -n], [1, alpha]]
    with n > 0 (eigen data (alpha, n)) and on 1 x 1 [alpha], alpha and n
    carrying positive, zero and negative powers of p, for the named series
    and for CUSTOM radii on both sides of, and equal to, p^(-v)."""
    alpha = data.draw(_p_scaled(p, st.integers(-6, 6), st.integers(1, 6), st.integers(-3, 3)))
    n = data.draw(st.just(0) | _p_scaled(p, st.integers(1, 6), st.integers(1, 6),
                                          st.integers(-3, 3)))
    m = qmat([[alpha, -n], [1, alpha]]) if n else qmat([[alpha]])
    if data.draw(st.booleans()):
        spec, radius = SeriesSpec.named(data.draw(st.sampled_from(series.NAMED_SERIES))), None
    else:
        radius = data.draw(st.just(math.inf) | _p_scaled(p, st.integers(1, 3), st.integers(1, 3),
                                                         st.integers(-4, 4)))
        spec = SeriesSpec.custom([1, 1, 1], radius)
    expected = oracles.padic_in_domain(alpha, n, p, radius)
    assert in_omega_hat(m, spec, AbsValue.padic(p)) is expected


def test_in_omega_hat_trivial_absolute_value():
    # only the zero spectrum lies inside: |x| = 1 for every nonzero x
    assert in_omega_hat(Matrix.zeros(QQ, 2), SeriesSpec.exp(), AbsValue.trivial())
    assert not in_omega_hat(Matrix.identity(QQ, 2), SeriesSpec.exp(), AbsValue.trivial())
    assert not in_omega_hat(qmat([[0, -1], [1, 0]]), SeriesSpec.exp(), AbsValue.trivial())


def test_in_omega_hat_scaling_monotone():
    # shrinking a matrix keeps it inside any domain that contained it
    geom = SeriesSpec.custom([Fraction(1)] * 8, Fraction(1))
    rng = random.Random(67)
    for _ in range(10):
        m = corpus.random_semisimple_sb2(rng, rng.randint(2, 4), small=True)
        scaled = m.scale(Fraction(1, 20))
        assert in_omega_hat(scaled, geom, ARCH)
        tiny = scaled.scale(Fraction(1, 3))
        assert in_omega_hat(tiny, geom, ARCH)


def test_char_p_matrices_rejected():
    field = PrimeField(5)
    m = Matrix.identity(field, 2)
    with pytest.raises(FieldMismatch):
        in_omega_hat(m, SeriesSpec.exp(), ARCH)
    with pytest.raises(FieldMismatch):
        apply_series(m, SeriesSpec.exp(), ARCH)


# ---------------------------------------------------------------------------
# eigenvalue absolute-value data
# ---------------------------------------------------------------------------

def test_eigen_abs_quadratic_arch():
    data = eigen_abs_data(qmat([[2, 5], [-1, 0]]), ARCH)
    assert len(data) == 1
    d = data[0]
    assert d.kind == "quadratic"
    assert math.isclose(d.abs_lambda, math.sqrt(5))  # |1 + 2i|
    assert math.isclose(d.abs_alpha, 1.0)
    assert math.isclose(d.abs_beta, 2.0)


def test_eigen_abs_padic():
    data = eigen_abs_data(Matrix.identity(QQ, 2).scale(Fraction(3)), AbsValue.padic(3))
    assert len(data) == 1
    d = data[0]
    assert d.kind == "linear"
    assert math.isclose(d.abs_lambda, Fraction(1, 3))


def test_eigen_abs_trivial_unsupported():
    with pytest.raises(TrivialKindUnsupported):
        eigen_abs_data(qmat([[1]]), AbsValue.trivial())


# ---------------------------------------------------------------------------
# archimedean evaluation
# ---------------------------------------------------------------------------

def test_apply_exp_rotation():
    m = qmat([[0, -1], [1, 0]])
    res = apply_series(m, SeriesSpec.exp(), ARCH)
    assert isinstance(res, ArchSeriesMatrix)
    assert mp_close(res.values[0, 0], hp(mpmath.cos, 1))
    assert mp_close(res.values[0, 1], hp(lambda: -mpmath.sin(1)))
    assert mp_close(res.values[1, 0], hp(mpmath.sin, 1))
    for i in range(2):
        for j in range(2):
            assert res.error_bounds[i, j] < mpmath.mpf("1e-30")


def test_apply_matches_taylor_oracle():
    rng = random.Random(71)
    for _ in range(8):
        m = corpus.random_semisimple_sb2(rng, rng.randint(2, 4), small=True)
        for spec in (SeriesSpec.exp(), SeriesSpec.sin(), SeriesSpec.cos()):
            res = apply_series(m, spec, ARCH)
            oracle = taylor_oracle(m, spec, 60)
            assert oracles.max_abs_diff(res.values, oracle) < mpmath.mpf("1e-12")


def test_apply_error_bounds_are_honest():
    # against the closed form exp(diag) computed independently
    m = Matrix.diagonal(QQ, [Fraction(1), Fraction(-2)])
    res = apply_series(m, SeriesSpec.exp(), ARCH)
    truth = [hp(mpmath.exp, 1), hp(mpmath.exp, -2)]
    with mpmath.workprec(250):
        for i in range(2):
            assert abs(res.values[i, i] - truth[i]) <= res.error_bounds[i, i]


def test_apply_polynomial_series_is_exact():
    # f = 1 + X^2 summed as a series must match the exact matrix polynomial
    spec = SeriesSpec.custom([Fraction(1), Fraction(0), Fraction(1)], math.inf)
    m = qmat([[2, 5], [-1, 0]])
    res = apply_series(m, spec, ARCH)
    exact = taylor_partial_exact(m, spec, 2)
    with mpmath.workprec(200):
        for i in range(2):
            for j in range(2):
                assert mp_close(
                    res.values[i, j], mpmath.mpf(str(exact.entry(i, j))), "1e-35"
                )


def test_exp_group_law():
    m = qmat([[0, -2], [1, 1]])  # minpoly X^2 - X + 2, inside Omega for EXP
    plus = apply_series(m, SeriesSpec.exp(), ARCH)
    minus = apply_series(m.scale(Fraction(-1)), SeriesSpec.exp(), ARCH)
    prod = plus.values * minus.values
    eye = mpmath.eye(2)
    assert oracles.max_abs_diff(prod, eye) < mpmath.mpf("1e-30")


def test_cos_sin_pythagorean_identity():
    m = qmat([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    c = apply_series(m, SeriesSpec.cos(), ARCH).values
    s = apply_series(m, SeriesSpec.sin(), ARCH).values
    total = c * c + s * s
    assert oracles.max_abs_diff(total, mpmath.eye(3)) < mpmath.mpf("1e-30")


def test_terms_override_controls_cutoff():
    m = qmat([[0, -1], [1, 0]])
    res = apply_series(m, SeriesSpec.exp(), ARCH, terms=5)
    assert res.terms_used == 5
    with mpmath.workprec(250):
        # partial sum through degree 5 visibly differs from cos 1 ...
        deviation = abs(res.values[0, 0] - hp(mpmath.cos, 1))
        assert deviation > mpmath.mpf("1e-5")
        # ... and the certified bound still covers the true value
        assert deviation <= res.error_bounds[0, 0]


def test_apply_zero_matrix():
    res = apply_series(Matrix.zeros(QQ, 3), SeriesSpec.exp(), ARCH)
    assert mp_close(res.values[0, 0], mpmath.mpf(1), "1e-35")
    assert mp_close(res.values[0, 1], mpmath.mpf(0), "1e-35")


def test_apply_outside_domain_raises():
    geom = SeriesSpec.custom([Fraction(1)] * 8, Fraction(1))
    with pytest.raises(NotInOmegaHat):
        apply_series(qmat([[0, -1], [1, 0]]), geom, ARCH)


def test_trivial_absolute_value_unsupported_for_apply():
    with pytest.raises(TrivialKindUnsupported):
        apply_series(qmat([[1]]), SeriesSpec.exp(), AbsValue.trivial())


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_closed_form_exp_rotation():
    m = qmat([[0, -1], [1, 0]])
    res = apply_named_closed_form(m, "EXP")
    assert mp_close(res.values[0, 0], hp(mpmath.cos, 1))
    assert mp_close(res.values[1, 0], hp(mpmath.sin, 1))


def test_closed_form_matches_series():
    rng = random.Random(73)
    for _ in range(6):
        m = corpus.random_semisimple_sb2(
            rng, rng.randint(2, 4), small=True, positive_norms=True
        )
        for name in ("EXP", "COS"):
            series_res = apply_series(m, SeriesSpec.named(name), ARCH)
            closed = apply_named_closed_form(m, name)
            assert oracles.max_abs_diff(series_res.values, closed.values) < mpmath.mpf(
                "1e-25"
            )


def test_closed_form_rejects_other_names():
    with pytest.raises(SchemaMismatch):
        apply_named_closed_form(qmat([[1]]), "SIN")


# ---------------------------------------------------------------------------
# p-adic evaluation
# ---------------------------------------------------------------------------

def test_padic_exp_3i():
    m = Matrix.identity(QQ, 2).scale(Fraction(3))
    res = apply_series(m, SeriesSpec.exp(), AbsValue.padic(3), precision=10)
    assert isinstance(res, PadicSeriesMatrix)
    assert res.valuation_bound >= 10
    # certify: recompute at doubled cutoff and compare valuations
    doubled = apply_series(
        m, SeriesSpec.exp(), AbsValue.padic(3), precision=10, terms=2 * res.terms_used
    )
    for i in range(2):
        for j in range(2):
            diff = res.values.entry(i, j) - doubled.values.entry(i, j)
            assert padic_valuation(diff, 3) >= res.valuation_bound


def test_padic_exp_5i():
    m = Matrix.identity(QQ, 3).scale(Fraction(5))
    res = apply_series(m, SeriesSpec.exp(), AbsValue.padic(5), precision=10)
    assert res.valuation_bound >= 10
    assert res.values.entry(0, 1) == 0


def test_padic_identity_not_in_domain():
    with pytest.raises(NotInOmegaHat):
        apply_series(Matrix.identity(QQ, 2), SeriesSpec.exp(), AbsValue.padic(3))


def test_padic_polynomial_series_exact():
    spec = SeriesSpec.custom([Fraction(2), Fraction(1), Fraction(1)], math.inf)
    m = Matrix.identity(QQ, 2).scale(Fraction(3))
    res = apply_series(m, spec, AbsValue.padic(3), precision=5)
    expected = taylor_partial_exact(m, spec, 2)
    assert res.values == expected
    assert res.valuation_bound == math.inf


def test_padic_zero_matrix():
    res = apply_series(Matrix.zeros(QQ, 2), SeriesSpec.exp(), AbsValue.padic(3))
    assert res.values == Matrix.identity(QQ, 2)
    assert res.valuation_bound == math.inf


# ---------------------------------------------------------------------------
# horizontal/vertical split of the image
# ---------------------------------------------------------------------------

def test_image_decomposition_sums_to_apply():
    m = qmat([[2, 5], [-1, 0]])
    h, v = complete_jc_of_image(m, SeriesSpec.exp(), ARCH)
    total = apply_series(m, SeriesSpec.exp(), ARCH)
    with mpmath.workprec(250):
        recombined = h.values + v.values
        assert oracles.max_abs_diff(recombined, total.values) < mpmath.mpf("1e-35")
    # Hf = e cos 2 I, Vf = (e sin 2 / 2)(M - I)
    assert mp_close(h.values[0, 0], hp(lambda: mpmath.e * mpmath.cos(2)))
    assert mp_close(h.values[0, 1], mpmath.mpf(0), "1e-35")
    assert mp_close(v.values[0, 1], hp(lambda: mpmath.e * mpmath.sin(2) / 2 * 5))


def test_image_decomposition_vertical_trace_vanishes():
    rng = random.Random(79)
    for _ in range(6):
        m = corpus.random_semisimple_sb2(rng, rng.randint(2, 4), small=True)
        h, v = complete_jc_of_image(m, SeriesSpec.exp(), ARCH)
        trace = mpmath.fsum(v.values[i, i] for i in range(m.n))
        assert abs(trace) < mpmath.mpf("1e-25")


def test_image_decomposition_padic():
    m = Matrix.identity(QQ, 2).scale(Fraction(3))
    h, v = complete_jc_of_image(m, SeriesSpec.exp(), AbsValue.padic(3), precision=8)
    assert v.values.is_zero  # 3I has no vertical part
    total = apply_series(m, SeriesSpec.exp(), AbsValue.padic(3), precision=8)
    assert h.values + v.values == total.values


# ---------------------------------------------------------------------------
# exact partial sums and tails against the oracles
# ---------------------------------------------------------------------------

RATIONALS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
ORACLE_COEFFS = {
    "EXP": oracles.exp_coeff,
    "SIN": oracles.sin_coeff,
    "COS": oracles.cos_coeff,
    "SINH": oracles.sinh_coeff,
    "COSH": oracles.cosh_coeff,
}


@st.composite
def specs_with_oracle(draw):
    """A named or CUSTOM spec, with the oracle's coefficient function for it."""
    name = draw(st.sampled_from(sorted(ORACLE_COEFFS) + ["CUSTOM"]))
    if name != "CUSTOM":
        return SeriesSpec.named(name), ORACLE_COEFFS[name]
    coeffs = tuple(draw(st.lists(RATIONALS, min_size=1, max_size=12)))
    return SeriesSpec.custom(coeffs), lambda m: coeffs[m] if m < len(coeffs) else 0


RATIONAL_MATRICES = st.integers(1, 3).flatmap(
    lambda k: st.lists(st.lists(RATIONALS, min_size=k, max_size=k), min_size=k, max_size=k)
)


@given(specs_with_oracle(), RATIONALS, st.integers(0, 80))
def test_scalar_partial_matches_oracle(spec_coeff, x, terms):
    """A ground eigenvalue is the case n = 0: the even sum is sum a_m x^m."""
    spec, coeff = spec_coeff
    even, _ = series._even_odd_partial(spec, x, 0, terms)
    assert even == oracles.scalar_series_sum(coeff, x, terms)


@given(specs_with_oracle(), RATIONALS, RATIONALS, st.integers(0, 80))
def test_even_odd_partial_matches_oracle(spec_coeff, alpha, n, terms):
    spec, coeff = spec_coeff
    assert series._even_odd_partial(spec, alpha, n, terms) == oracles.even_odd_sum(
        coeff, alpha, n, terms
    )


@given(specs_with_oracle(), RATIONAL_MATRICES, st.integers(0, 80))
def test_taylor_partial_exact_matches_oracle(spec_coeff, rows, terms):
    spec, coeff = spec_coeff
    a = tuple(tuple(row) for row in rows)
    expected = oracles.matrix_series_sum(QQ, coeff, a, terms)
    assert taylor_partial_exact(Matrix(QQ, rows), spec, terms).rows == expected


@given(st.integers(0, 80), st.fractions(0, 1, max_denominator=50))
def test_named_tail_bound_below_one(terms, r):
    assert series._named_tail_bound(terms, r) == oracles.named_tail_bound(terms, r)


@given(st.integers(0, 80), st.fractions(-3, 3, max_denominator=9))
def test_named_tail_bound_near_twice_terms(terms, offset):
    r = 2 * terms + offset
    assert series._named_tail_bound(terms, r) == oracles.named_tail_bound(terms, r)


@given(st.integers(0, 10), st.fractions(20, 300, max_denominator=9))
def test_named_tail_bound_far_above_terms(terms, r):
    assert series._named_tail_bound(terms, r) == oracles.named_tail_bound(terms, r)


def reference_cutoff(radii, precision):
    """The least schedule point whose every exact tail is below the target."""
    target = Fraction(1, 2 ** (precision + 8))
    terms = 1
    while not all(oracles.named_tail_bound(terms, r) <= target for r in radii):
        terms += 1 + terms // 4
    return terms


@given(
    st.sampled_from(sorted(ORACLE_COEFFS)),
    st.lists(st.fractions(0, 40, max_denominator=9), min_size=1, max_size=3),
    st.sampled_from((1, 16, 53, 128, 300)),
)
def test_auto_cutoff_matches_reference_scan(name, radii, precision):
    found = series._auto_terms_arch(SeriesSpec.named(name), radii, precision)
    assert found == reference_cutoff(radii, precision)


@st.composite
def padic_cutoff_cases(draw):
    """(spec, sources, p, target) as the p-adic cutoff search sees them: a
    named series has every eigenvalue valuation v > 1/(p - 1), as membership
    asks; a CUSTOM one any v."""
    p = draw(st.sampled_from((3, 5, 7, 11, 1009)))
    custom = draw(st.booleans())
    halves = st.integers(-6, 12) if custom else st.integers(1, 12)
    v = halves.map(lambda k: Fraction(k, 2)).filter(lambda v: custom or v > Fraction(1, p - 1))
    shift = st.integers(-6, 6)
    sources = draw(st.lists(st.tuples(v | st.just(math.inf), shift | st.just(math.inf),
                                      st.booleans()), max_size=6))
    if custom:
        coeffs = draw(st.lists(st.fractions(-30, 30, max_denominator=90), min_size=1, max_size=12))
        spec = SeriesSpec.custom(coeffs, math.inf)
    else:
        spec = SeriesSpec.named(draw(st.sampled_from(sorted(ORACLE_COEFFS))))
    return spec, sources, p, draw(st.integers(-10, 60))


@settings(max_examples=150)
@given(padic_cutoff_cases())
# every source already reaches a target at or below its bound at t = 0
@example((SeriesSpec.named("EXP"), [(Fraction(1), 0, False), (Fraction(3, 2), 2, True)], 3, -4))
# (target - c) / (v - s) = (9 - 1) / (1 - 1/2) is an integer: t = 16 exactly
@example((SeriesSpec.named("SIN"), [(Fraction(1), 0, False)], 3, 9))
# the terms at m = 1 and m = 2 equal the target, so none is below it: t = 0
@example((SeriesSpec.custom([1, 3, 1, 0], math.inf), [(Fraction(1), 0, False)], 3, 2))
# only the term at m = 1 is below the target: t = 1
@example((SeriesSpec.custom([1, 1, 9, 0], math.inf), [(Fraction(1), 0, False)], 3, 2))
def test_padic_cutoff_matches_reference_scan(case):
    spec, sources, p, target = case
    coeffs = spec.custom_coeffs if spec.name == "CUSTOM" else None
    expected = oracles.padic_cutoff_scan(coeffs, sources, p, target, 2000)
    assert series._least_padic_cutoff(spec, sources, p, target) == expected


# ---------------------------------------------------------------------------
# the oracle itself
# ---------------------------------------------------------------------------

def test_taylor_oracle_identity_exp():
    res = taylor_oracle(Matrix.identity(QQ, 2), SeriesSpec.exp(), 60)
    assert mp_close(res[0, 0], hp(mpmath.exp, 1))
    assert mp_close(res[0, 1], mpmath.mpf(0), "1e-35")
