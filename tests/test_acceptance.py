"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Every criterion prints ``[criterion N] PASS/FAIL - detail`` directly to the
terminal (bypassing capture) and then asserts, so a plain ``pytest -v`` run
shows the full scoreboard.
"""

import time
from fractions import Fraction

import mpmath
import pytest

import corpus
import oracles
from finefrob import (
    AbsValue,
    Matrix,
    Polynomial,
    PrimeField,
    QQ,
    SeriesSpec,
    apply_named_closed_form,
    apply_series,
    complete_jc,
    fine_frobenius,
    in_omega_hat,
    involution,
    jc_decompose_newton,
    k_norm,
    normalize,
    padic_valuation,
    quad_element,
    reconstruct,
    reconstruct_normalized,
    verify_complete_jc,
    verify_fine,
)
from finefrob.errors import NegativeNormComponent, NotKRegular

ARCH = AbsValue.archimedean()

EXPECTED_CLAUSES = [
    "sum_reconstructs",
    "pairwise_commute",
    "ground_field_entries",
    "horizontal_diagonalizable",
    "vertical_semisimple_reduced",
    "nilpotent",
]


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# shared corpus for criteria 1 and 2 -----------------------------------------

_JC_MATRICES = []
_JC_RESULTS = {}


def _jc_corpus():
    if not _JC_MATRICES:
        rng = corpus.rng_for("acceptance-complete-jc", 0)
        for _ in range(200):
            n = rng.randint(2, 6)
            _JC_MATRICES.append(corpus.random_matrix(rng, QQ, n))
    return _JC_MATRICES


def test_criterion_01_newton_equals_projector_route(capsys):
    """Two independent semisimple-part constructions agree exactly, in budget."""
    start = time.monotonic()
    matrices = _jc_corpus()
    agree = 0
    for idx, m in enumerate(matrices):
        newton = jc_decompose_newton(m)
        dec = complete_jc(m)
        _JC_RESULTS[idx] = dec
        if (
            dec.horizontal + dec.vertical == newton.semisimple
            and dec.nilpotent == newton.nilpotent
        ):
            agree += 1
    elapsed = time.monotonic() - start
    ok = agree == len(matrices) and elapsed < 60.0
    _report(
        capsys,
        1,
        ok,
        f"Newton vs projector semisimple part: {agree}/{len(matrices)} exact "
        f"agreements over Q (sizes 2-6, entries in [-5,5]) in {elapsed:.1f}s "
        f"(budget 60s)",
    )


def test_criterion_02_complete_jc_verifies(capsys):
    """All six verification clauses hold on the same 200-matrix corpus."""
    matrices = _jc_corpus()
    good = 0
    for idx, m in enumerate(matrices):
        dec = _JC_RESULTS.get(idx)
        if dec is None:
            dec = complete_jc(m)
        report = verify_complete_jc(m, dec)
        names = [name for name, _ in report.checks]
        if names == EXPECTED_CLAUSES and report.passed:
            good += 1
    ok = good == len(matrices)
    _report(
        capsys,
        2,
        ok,
        f"complete decomposition verification: {good}/{len(matrices)} matrices "
        f"pass all clauses {EXPECTED_CLAUSES}",
    )


def test_criterion_03_fine_decomposition_round_trip(capsys):
    """Fine covariants verify and reconstruct 200 semisimple matrices exactly."""
    start = time.monotonic()
    rng = corpus.rng_for("acceptance-fine", 0)
    good = 0
    total = 200
    for _ in range(total):
        n = rng.randint(2, 6)
        m = corpus.random_semisimple_sb2(rng, n)
        dec = fine_frobenius(m)
        if verify_fine(dec).passed and reconstruct(dec) == m:
            good += 1
    elapsed = time.monotonic() - start
    ok = good == total
    _report(
        capsys,
        3,
        ok,
        f"fine decomposition verify + exact reconstruction: {good}/{total} "
        f"semisimple splitting-bound-2 matrices in {elapsed:.1f}s",
    )


def test_criterion_04_covariants_equivariant(capsys):
    """Conjugating M conjugates every covariant, exactly."""
    rng = corpus.rng_for("acceptance-equivariance", 0)
    good = 0
    total = 50
    for _ in range(total):
        n = rng.randint(2, 5)
        m = corpus.random_semisimple_sb2(rng, n)
        p, p_inv = corpus.random_invertible(rng, QQ, n)
        dec = fine_frobenius(m)
        conj = fine_frobenius(p * m * p_inv)
        match = conj.kernel_projector == p * dec.kernel_projector * p_inv
        lin = {cov.eigenvalue: cov.matrix for cov in dec.linear}
        if len(conj.linear) != len(lin):
            match = False
        for cov in conj.linear:
            if not match:
                break
            match = cov.eigenvalue in lin and cov.matrix == p * lin[cov.eigenvalue] * p_inv
        quad = {(cov.alpha, cov.n): cov for cov in dec.quadratic}
        if len(conj.quadratic) != len(quad):
            match = False
        for cov in conj.quadratic:
            if not match:
                break
            base = quad.get((cov.alpha, cov.n))
            match = (
                base is not None
                and cov.vertical == p * base.vertical * p_inv
                and cov.projector == p * base.projector * p_inv
            )
        if match:
            good += 1
    ok = good == total
    _report(
        capsys,
        4,
        ok,
        f"conjugation equivariance of all covariants: {good}/{total} samples exact",
    )


def test_criterion_05_series_match_taylor_oracle(capsys):
    """EXP/SIN/COS images agree with 60-term exact Taylor sums to 1e-12."""
    start = time.monotonic()
    rng = corpus.rng_for("acceptance-series", 0)
    tol = mpmath.mpf("1e-12")
    specs = [
        ("EXP", SeriesSpec.exp(), oracles.exp_coeff),
        ("SIN", SeriesSpec.sin(), oracles.sin_coeff),
        ("COS", SeriesSpec.cos(), oracles.cos_coeff),
    ]
    good = 0
    total = 100
    worst = mpmath.mpf(0)
    for _ in range(total):
        n = rng.randint(2, 5)
        m = corpus.random_semisimple_sb2(rng, n, small=True)
        rows = tuple(tuple(m.entry(i, j) for j in range(n)) for i in range(n))
        powers = oracles.mat_powers(QQ, rows, 60)
        sample_ok = True
        for _, spec, coeff_fn in specs:
            res = apply_series(m, spec, ARCH)
            exact = oracles.matrix_series_sum(QQ, coeff_fn, rows, 60, powers)
            oracle = oracles.embed(exact, 128)
            diff = oracles.max_abs_diff(oracles.embed(res.values.rows, 128), oracle)
            worst = max(worst, diff)
            if diff > tol:
                sample_ok = False
        if sample_ok:
            good += 1
    elapsed = time.monotonic() - start
    ok = good == total and elapsed < 120.0
    _report(
        capsys,
        5,
        ok,
        f"series evaluation vs independent 60-term Taylor oracle: {good}/{total} "
        f"matrices within 1e-12 for EXP/SIN/COS (worst deviation "
        f"{mpmath.nstr(worst, 3)}) in {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_06_rotation_closed_form(capsys):
    """exp of rational skew matrices matches the rotation formula to 1e-12."""
    rng = corpus.rng_for("acceptance-rodrigues", 0)
    tol = mpmath.mpf("1e-12")
    axes = []
    seen = set()
    while len(axes) < 20:
        mm, nn, pp, qq = (rng.randint(1, 9) for _ in range(4))
        total = Fraction(mm**2 + nn**2 + pp**2 + qq**2)
        axis = (
            Fraction(mm**2 + nn**2 - pp**2 - qq**2) / total,
            Fraction(2 * (mm * qq + nn * pp)) / total,
            Fraction(2 * (nn * qq - mm * pp)) / total,
        )
        if axis in seen:
            continue
        seen.add(axis)
        axes.append(axis)
    good = 0
    for axis in axes:
        a, b, c = axis
        assert a * a + b * b + c * c == 1  # rational point on the unit sphere
        k = Matrix(
            QQ,
            [
                [Fraction(0), -c, b],
                [c, Fraction(0), -a],
                [-b, a, Fraction(0)],
            ],
        )
        closed = apply_named_closed_form(k, "EXP")
        oracle = oracles.rodrigues_exp(axis, 128)
        if oracles.max_abs_diff(oracles.embed(closed.values.rows, 128), oracle) <= tol:
            good += 1
    ok = good == len(axes)
    _report(
        capsys,
        6,
        ok,
        f"closed-form exp of skew matrices vs independent rotation formula: "
        f"{good}/{len(axes)} rational unit axes within 1e-12",
    )


def test_criterion_07_padic_exponentials_certified(capsys):
    """exp(pI) over Q_p: membership, valuation bound 10, doubled-cutoff check."""
    cases = [(3, Fraction(3)), (5, Fraction(5))]
    ok = True
    details = []
    for p, scalar in cases:
        av = AbsValue.padic(p)
        m = Matrix.identity(QQ, 2).scale(scalar)
        if not in_omega_hat(m, SeriesSpec.exp(), av):
            ok = False
            details.append(f"{p}I not in domain")
            continue
        res = apply_series(m, SeriesSpec.exp(), av, precision=10)
        if res.valuation_bound < 10:
            ok = False
            details.append(f"bound {res.valuation_bound} < 10 for p={p}")
            continue
        doubled = apply_series(
            m, SeriesSpec.exp(), av, precision=10, terms=2 * res.terms_used
        )
        min_val = min(
            padic_valuation(
                res.values.entry(i, j) - doubled.values.entry(i, j), p
            )
            for i in range(2)
            for j in range(2)
        )
        if min_val < res.valuation_bound:
            ok = False
            details.append(f"doubled-cutoff drift {min_val} for p={p}")
        else:
            details.append(f"p={p}: bound {res.valuation_bound} holds at 2x cutoff")
    if in_omega_hat(Matrix.identity(QQ, 2), SeriesSpec.exp(), AbsValue.padic(3)):
        ok = False
        details.append("identity wrongly inside the 3-adic exp domain")
    _report(capsys, 7, ok, "p-adic exponentials: " + "; ".join(details))


def test_criterion_08_involution_laws(capsys):
    """Conjugation laws on 1000 random quadratic elements per identity."""
    rng = corpus.rng_for("acceptance-involution", 0)
    radicals = [2, 3, 5, 6, 7, -1, -2, -5]

    def rand_quad(require_a=None, require_b=True):
        d = rng.choice(radicals)
        while True:
            a = Fraction(rng.randint(-9, 9), rng.choice([1, 2]))
            b = Fraction(rng.randint(-9, 9), rng.choice([1, 2]))
            if require_a is not None and bool(a) != require_a:
                continue
            if require_b and not b:
                continue
            return quad_element(QQ, a, b, d), d

    trials = 1000
    additive = multiplicative = norm_law = vertical_law = 0
    for _ in range(trials):
        x, d = rand_quad()
        y = quad_element(
            QQ,
            Fraction(rng.randint(-9, 9)),
            Fraction(rng.randint(-9, 9)),
            d,
        )
        if involution(x + y) == involution(x) + involution(y):
            additive += 1
        if involution(x * y) == involution(x) * involution(y):
            multiplicative += 1
        if x * involution(x) == k_norm(x):
            norm_law += 1
        # vertical-square characterization: x^2 is a ground element
        # exactly when x is ground or purely vertical
        mixed, _ = rand_quad(require_a=True)
        vert, _ = rand_quad(require_a=False)
        mixed_sq = mixed * mixed
        vert_sq = vert * vert
        if isinstance(vert_sq, Fraction) and not isinstance(mixed_sq, Fraction):
            if involution(vert) == -vert:
                vertical_law += 1
    ok = trials == additive == multiplicative == norm_law == vertical_law
    _report(
        capsys,
        8,
        ok,
        f"involution laws on {trials} random quadratic elements per identity: "
        f"additive {additive}, multiplicative {multiplicative}, "
        f"norm {norm_law}, vertical-square {vertical_law}",
    )


def test_criterion_09_prime_field_decompositions(capsys):
    """Complete decomposition over F_3, F_5, F_7; K-regularity is enforced."""
    ok = True
    details = []
    for p in (3, 5, 7):
        field = PrimeField(p)
        rng = corpus.rng_for(f"acceptance-fp-{p}", 0)
        good = 0
        total = 50
        for _ in range(total):
            n = rng.randint(2, 4)
            m = corpus.random_k_regular_fp(rng, field, n)
            dec = complete_jc(m)
            report = verify_complete_jc(m, dec)
            if [name for name, _ in report.checks] == EXPECTED_CLAUSES and report.passed:
                good += 1
        if good != total:
            ok = False
        details.append(f"F_{p}: {good}/{total}")
        # Artin-Schreier X^p - X - 1 is irreducible of degree p: not K-regular
        coeffs = [field.from_int(-1), field.from_int(-1)]
        coeffs += [field.zero] * (p - 2)
        coeffs.append(field.one)
        artin = Matrix.companion(Polynomial(field, coeffs))
        try:
            complete_jc(artin)
        except NotKRegular:
            details.append(f"F_{p} rejects degree-{p} factor")
        else:
            ok = False
            details.append(f"F_{p} missed the K-regularity violation")
    _report(capsys, 9, ok, "prime-field decompositions: " + "; ".join(details))


def test_criterion_10_normalized_form(capsys):
    """Unit verticals cube to their negative; reconstruction (with the exact
    square roots) returns the input; negative norms are rejected."""
    rng = corpus.rng_for("acceptance-normalize", 0)
    good = 0
    total = 50
    for _ in range(total):
        n = rng.randint(2, 5)
        m = corpus.random_semisimple_sb2(rng, n, positive_norms=True)
        norm = normalize(fine_frobenius(m))
        sample_ok = reconstruct_normalized(norm) == m
        for cov in norm.quadratic:
            u = cov.vertical_unit
            if u * u * u != -u or cov.imaginary * cov.imaginary != cov.n:
                sample_ok = False
        if sample_ok:
            good += 1
    # golden-ratio companion: alpha = 1/2, n = -5/4 < 0 must be rejected
    neg = Matrix(QQ, [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(1)]])
    try:
        normalize(fine_frobenius(neg))
        rejected = False
    except NegativeNormComponent:
        rejected = True
    ok = good == total and rejected
    _report(
        capsys,
        10,
        ok,
        f"normalized covariants: {good}/{total} positive-norm samples with "
        f"B^3 = -B and exact reconstruction; negative norm rejected: {rejected}",
    )
