"""Polynomial arithmetic, gcd, factorization, and reduced forms."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from finefrob import (
    FACTOR_DEGREE_CAP,
    Polynomial,
    PrimeField,
    QQ,
    factor,
    k_projection_of_factor,
    poly_gcd,
    poly_lcm,
    poly_xgcd,
    quad_factor_data,
    quad_element,
    reduced_form,
    splitting_bound,
    squarefree_part,
)
from finefrob.errors import (
    BothZero,
    ConstantPolynomial,
    DegreeTooLarge,
    DivisionByZeroPoly,
    NotKRegular,
    NotQuadratic,
    Reducible,
    ZeroPolynomial,
)
from finefrob.poly import (
    SQUAREFREE_PRIME,
    _Modulus,
    _clear_denominators,
    _factor_fp,
    _gcd,
    _pack,
    _rational_roots,
    _values,
    _xgcd,
    poly_powmod,
)
from finefrob.scalar import is_probable_prime

# a 126-bit semiprime: listing the divisors of a constant term like it means factoring it
N_FACTORS = (2**62 + 135, 2**63 + 29)
N = N_FACTORS[0] * N_FACTORS[1]
PRIMORIAL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def q(*coeffs):
    return Polynomial(QQ, [Fraction(c) for c in coeffs])


def fp(p, *coeffs):
    field = PrimeField(p)
    return Polynomial(field, [field.from_int(c) for c in coeffs])


# ---------------------------------------------------------------------------
# ring arithmetic
# ---------------------------------------------------------------------------

def test_derivative():
    assert q(5, -2, 1).derivative() == q(-2, 2)  # d/dX (X^2 - 2X + 5)


def test_divmod_exact():
    quotient, remainder = divmod(q(0, 1, 0, 1), q(1, 0, 1))  # X^3 + X by X^2 + 1
    assert quotient == q(0, 1)
    assert remainder.is_zero


def test_divmod_general_division_law():
    rng = random.Random(7)
    for _ in range(50):
        f = q(*[rng.randint(-9, 9) for _ in range(rng.randint(1, 7))])
        g = q(*[rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])
        if g.is_zero:
            continue
        quotient, remainder = divmod(f, g)
        assert quotient * g + remainder == f
        assert remainder.is_zero or remainder.degree < g.degree


def test_division_by_zero_poly():
    with pytest.raises(DivisionByZeroPoly):
        divmod(q(1, 1), Polynomial.zero(QQ))


def test_eval_scalar_at_quad():
    # X^2 + 1 vanishes at i
    i = quad_element(QQ, 0, 1, -1)
    assert q(1, 0, 1)(i) == 0


def test_compose_and_powers():
    f = q(0, 0, 1)  # X^2
    g = q(1, 1)  # X + 1
    assert f.compose(g) == q(1, 2, 1)
    assert g**3 == q(1, 3, 3, 1)


# ---------------------------------------------------------------------------
# gcd family
# ---------------------------------------------------------------------------

def test_gcd_examples():
    f = q(-1, 1) ** 2 * q(2, 1)  # (X-1)^2 (X+2)
    g = q(-1, 1) * q(-3, 1)  # (X-1)(X-3)
    assert poly_gcd(f, g) == q(-1, 1)
    assert poly_gcd(f, Polynomial.zero(QQ)) == f.monic()
    assert poly_gcd(q(1, 0, 1), q(2, 0, 1)) == Polynomial.one(QQ)


def test_gcd_both_zero():
    with pytest.raises(BothZero):
        poly_gcd(Polynomial.zero(QQ), Polynomial.zero(QQ))


def test_xgcd_bezout_identity():
    rng = random.Random(11)
    for _ in range(40):
        f = q(*[rng.randint(-5, 5) for _ in range(rng.randint(1, 6))])
        g = q(*[rng.randint(-5, 5) for _ in range(rng.randint(1, 6))])
        if f.is_zero and g.is_zero:
            continue
        d, u, v = poly_xgcd(f, g)
        assert u * f + v * g == d
        assert d == poly_gcd(f, g)


def test_lcm():
    f = q(-1, 1) * q(1, 1)
    g = q(1, 1) * q(1, 0, 1)
    assert poly_lcm(f, g) == (q(-1, 1) * q(1, 1) * q(1, 0, 1)).monic()


# ---------------------------------------------------------------------------
# squarefree part
# ---------------------------------------------------------------------------

def test_squarefree_part_examples():
    f = q(-1, 1) ** 2 * q(1, 0, 1)
    assert squarefree_part(f) == (q(-1, 1) * q(1, 0, 1)).monic()
    assert squarefree_part(q(1, 0, 1)) == q(1, 0, 1)
    # X^4 + 2X^2 + 1 = (X^2+1)^2
    assert squarefree_part(q(1, 0, 2, 0, 1)) == q(1, 0, 1)
    with pytest.raises(ZeroPolynomial):
        squarefree_part(Polynomial.zero(QQ))


def test_squarefree_part_char_p_inseparable_power():
    # X^3 over F_3 has zero derivative; the factorization route still works
    assert squarefree_part(fp(3, 0, 0, 0, 1)) == fp(3, 0, 1)


# the prime squarefree_part certifies modulo, and small ones
CERTIFY_PRIMES = (3, 5, 7, SQUAREFREE_PRIME)


def _sympy_squarefree_part(sympy, f):
    part = _to_sympy(sympy, f).sqf_part().monic()
    return Polynomial(QQ, [Fraction(str(c)) for c in reversed(part.all_coeffs())])


@given(
    st.lists(st.tuples(st.lists(st.integers(-6, 6), min_size=1, max_size=3),
                       st.integers(1, 6), st.integers(1, 3)),
             min_size=1, max_size=4),
    st.sampled_from(CERTIFY_PRIMES),
    st.sampled_from(("none", "lead", "lead squared", "discriminant")),
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)),
)
def test_squarefree_part_matches_sympy(factors, prime, twist, root, scale):
    """Products with repeated factors, optionally times (pX + r) or its square,
    whose leading coefficient p divides, or times (X - r)(X - r - p), whose
    discriminant p divides."""
    sympy = pytest.importorskip("sympy")
    f = Polynomial.constant(QQ, scale)
    for low, lead, mult in factors:
        f = f * q(*low, lead) ** mult
    if twist.startswith("lead"):
        f = f * q(root, prime) ** (2 if twist.endswith("squared") else 1)
    elif twist == "discriminant":
        f = f * q(-root, 1) * q(-root - prime, 1)
    assert squarefree_part(f) == _sympy_squarefree_part(sympy, f), f


@pytest.mark.parametrize("prime", CERTIFY_PRIMES)
def test_squarefree_part_modular_corner_cases(prime):
    """f mod p is squarefree for the first two, yet f is not; the last is
    squarefree, yet f mod p is not."""
    assert squarefree_part(q(1, prime) ** 2 * q(-1, 1)) == (q(1, prime) * q(-1, 1)).monic()
    assert squarefree_part(q(1, prime) ** 3) == q(1, prime).monic()
    f = q(-3, 1) * q(-3 - prime, 1)
    assert squarefree_part(f) == f
    assert squarefree_part(f * q(-3, 1)) == f


# ---------------------------------------------------------------------------
# factorization over Q
# ---------------------------------------------------------------------------

def test_factor_quadratics():
    fact = factor(q(-1, 0, 1))
    assert [(f.coeffs, m) for f, m in fact.factors] == [
        (q(-1, 1).coeffs, 1),
        (q(1, 1).coeffs, 1),
    ]
    fact = factor(q(1, 0, 1))
    assert fact.factors == ((q(1, 0, 1), 1),)


def test_factor_with_unit_and_multiplicities():
    f = q(-1, 1) ** 2 * q(2, 1) ** 3 * Fraction(6)
    fact = factor(f)
    assert fact.unit == Fraction(6)
    assert fact.factors == ((q(-1, 1), 2), (q(2, 1), 3))
    assert fact.expand(QQ) == f


def test_factor_cyclotomic_sextic():
    # X^6 - 1 = (X-1)(X+1)(X^2-X+1)(X^2+X+1)
    fact = factor(q(-1, 0, 0, 0, 0, 0, 1))
    expected = {
        (q(-1, 1), 1),
        (q(1, 1), 1),
        (q(1, -1, 1), 1),
        (q(1, 1, 1), 1),
    }
    assert set(fact.factors) == expected


def test_factor_quartic_product_of_quadratics():
    # (X^2+2)(X^2+X+1) has no rational roots, so lifting and recombination find it
    f = q(2, 0, 1) * q(1, 1, 1)
    fact = factor(f)
    assert set(fact.factors) == {(q(2, 0, 1), 1), (q(1, 1, 1), 1)}


def test_factor_irreducible_quartic():
    # X^4 + X + 1 is irreducible over Q (it is irreducible mod 2)
    f = q(1, 1, 0, 0, 1)
    fact = factor(f)
    assert fact.factors == ((f, 1),)


def test_factor_sextic_product_of_cubics():
    f = q(-2, 0, -2, 1) * q(3, 1, 0, 1)  # both cubics irreducible (no roots)
    fact = factor(f)
    assert set(fact.factors) == {(q(-2, 0, -2, 1), 1), (q(3, 1, 0, 1), 1)}


def test_factor_nonmonic_rational_coefficients():
    f = q(Fraction(1, 2), 0, 1) * q(-3, 1)  # (X^2 + 1/2)(X - 3)
    fact = factor(f)
    assert set(fact.factors) == {(q(Fraction(1, 2), 0, 1), 1), (q(-3, 1), 1)}


def test_factor_strips_power_of_x():
    fact = factor(q(0, 0, 0, -1, 1))  # X^3 (X - 1)
    assert set(fact.factors) == {(q(0, 1), 3), (q(-1, 1), 1)}


def test_factor_random_products_round_trip():
    rng = random.Random(13)
    pool = [
        q(-1, 1),
        q(2, 1),
        q(1, 1),
        q(1, 0, 1),
        q(2, 0, 1),
        q(1, 1, 1),
        q(-2, 0, 0, 1),
        q(1, -1, 0, 1),
    ]
    for _ in range(25):
        chosen = rng.sample(pool, rng.randint(1, 3))
        mults = [rng.randint(1, 2) for _ in chosen]
        unit = Fraction(rng.choice([1, 2, -3, 5]))
        f = Polynomial.constant(QQ, unit)
        for g, m in zip(chosen, mults):
            f = f * g**m
        fact = factor(f)
        assert fact.expand(QQ) == f
        expanded = oracles.expand_factorization(
            QQ,
            fact.unit,
            [(p.coeffs, m) for p, m in fact.factors],
        )
        assert list(f.coeffs) == expanded
        assert dict(fact.factors) == {g.monic(): m for g, m in zip(chosen, mults)}


def _to_sympy(sympy, f):
    coeffs = [sympy.Rational(str(c)) for c in reversed(f.coeffs)]
    return sympy.Poly(coeffs, sympy.Symbol("x"), domain="QQ")


def _sympy_factors(sympy, f):
    """{monic irreducible factor: multiplicity} of f over Q, by sympy."""
    return {
        Polynomial(QQ, [Fraction(str(c)) for c in reversed(g.monic().all_coeffs())]): m
        for g, m in _to_sympy(sympy, f).factor_list()[1]
    }


def _random_irreducibles(sympy, rng, count, rational):
    out = []
    while len(out) < count:
        degree = rng.randint(1, 6)
        if rational:
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(degree)]
            coeffs.append(Fraction(rng.randint(2, 7), rng.randint(1, 5)))
        else:
            coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(degree)] + [Fraction(1)]
        g = Polynomial(QQ, coeffs)
        if _to_sympy(sympy, g).is_irreducible:
            out.append(g)
    return out


def test_factor_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2024)
    cases = [q(-1, *[0] * (n - 1), 1) for n in range(1, FACTOR_DEGREE_CAP + 1)]  # X^n - 1
    # the root 0 of the rational roots beside an irreducible quartic: X^3 (X^4 + X + 1)
    cases.append(q(0, 0, 0, 1, 1, 0, 0, 1))
    # Swinnerton-Dyer polynomials for sqrt2 + sqrt3 and sqrt2 + sqrt3 + sqrt5:
    # irreducible, yet split into factors of degree <= 2 modulo every prime
    cases += [q(1, 0, -10, 0, 1), q(576, 0, -960, 0, 352, 0, -40, 0, 1)]
    # minimal polynomials of cbrt2 + sqrt-3 and cbrt3 + sqrt-3 (Galois group S3):
    # each splits modulo every prime, so their product needs subsets of size >= 2
    cases.append(q(31, 36, 27, -4, 9, 0, 1) * q(36, 54, 27, -6, 9, 0, 1))
    # a 126-bit semiprime constant term
    cases += [q(N, 1, 0, 1), q(N, 1, 0, 0, 1)]
    for rational in (False, True):
        pool = _random_irreducibles(sympy, rng, 12, rational)
        for _ in range(6):
            f = Polynomial.constant(QQ, Fraction(rng.choice([1, -2, 3]), rng.choice([1, 5])))
            for g in rng.sample(pool, len(pool)):
                mult = rng.choice([1, 1, 2])
                if f.degree + mult * g.degree <= FACTOR_DEGREE_CAP:
                    f = f * g**mult
            cases.append(f)
    for f in cases:
        assert dict(factor(f).factors) == _sympy_factors(sympy, f), f


def _next_prime(k: int) -> int:
    while not is_probable_prime(k):
        k += 1
    return k


def _hard_primes():
    """The primes of a constant term: N, two 20- to 40-bit primes, or the
    first k primes (a primorial, with 2^k divisors)."""
    return st.one_of(
        st.just(list(N_FACTORS)),
        st.lists(st.integers(2**19, 2**40), min_size=2, max_size=2).map(
            lambda ks: [_next_prime(k) for k in ks]
        ),
        st.integers(2, len(PRIMORIAL)).map(lambda k: list(PRIMORIAL[:k])),
    )


@given(
    _hard_primes(),
    st.lists(st.tuples(st.integers(1, 30), st.booleans()), max_size=5),
    st.lists(st.integers(0, 5), min_size=len(PRIMORIAL), max_size=len(PRIMORIAL)),
    st.sampled_from(((1,), (0, 1), (1, 0, 1), (-3, 0, 5), (3, -1, 0, 2))),
)
def test_factor_with_hard_constant_term_matches_sympy(primes, roots, slots, tail):
    """Products of up to five den X - num and a cofactor whose constant term
    is a semiprime or a primorial: each prime goes to one num or to the
    cofactor's constant term, so the product's constant term is +-their
    product."""
    sympy = pytest.importorskip("sympy")
    nums = [1] * (len(roots) + 1)  # nums[0] is the cofactor's constant term
    for prime, slot in zip(primes, slots):
        nums[slot if slot <= len(roots) else 0] *= prime
    f = q(nums[0], *tail)
    for num, (den, negative) in zip(nums[1:], roots):
        f = f * q(num if negative else -num, den)
    assert dict(factor(f).factors) == _sympy_factors(sympy, f), f


def test_factor_degree_cap():
    too_big = Polynomial(QQ, [Fraction(1)] + [Fraction(0)] * (FACTOR_DEGREE_CAP) + [Fraction(1)])
    assert too_big.degree == FACTOR_DEGREE_CAP + 1
    with pytest.raises(DegreeTooLarge):
        factor(too_big)


def test_factor_zero_and_constant():
    with pytest.raises(ZeroPolynomial):
        factor(Polynomial.zero(QQ))
    fact = factor(Polynomial.constant(QQ, Fraction(5)))
    assert fact.unit == Fraction(5) and fact.factors == ()


# ---------------------------------------------------------------------------
# factorization over F_p
# ---------------------------------------------------------------------------

def test_factor_fp_splits_x_p_minus_x():
    # X^5 - X = prod_{c in F_5} (X - c)
    f = fp(5, 0, 4, 0, 0, 0, 1)
    fact = factor(f)
    assert len(fact.factors) == 5
    assert all(g.degree == 1 and m == 1 for g, m in fact.factors)
    assert fact.expand(PrimeField(5)) == f


def test_factor_fp_pth_power_descent():
    # X^3 + 2 = (X + 2)^3 over F_3 (derivative vanishes identically)
    fact = factor(fp(3, 2, 0, 0, 1))
    assert fact.factors == ((fp(3, 2, 1), 3),)


def test_factor_fp_irreducible_quadratic():
    # squares in F_7 are {1, 2, 4}, so X^2 - 3 has no root and is irreducible
    g = fp(7, -3, 0, 1)
    fact = factor(g)
    assert fact.factors == ((g.monic(), 1),)


def test_factor_fp_random_round_trip():
    for p in (3, 5, 7):
        field = PrimeField(p)
        rng = random.Random(100 + p)
        for _ in range(20):
            coeffs = [rng.randrange(p) for _ in range(rng.randint(2, 9))]
            coeffs.append(rng.randrange(1, p))
            f = Polynomial(field, [field.from_int(c) for c in coeffs])
            fact = factor(f)
            assert fact.expand(field) == f
            for g, _ in fact.factors:
                assert g.is_monic
                refact = factor(g)
                assert refact.factors == ((g, 1),)


def test_factor_fp_answer_is_independent_of_the_generator():
    """Equal-degree splitting is Las Vegas: whatever generator ``_factor_fp``
    draws its splits from, it returns the factors ``factor`` returns.  Each
    polynomial is g1 g2^2 g3^3 with random monic g_i, so factors repeat, and
    over F_3 the cube takes the p-th root descent."""
    for p in (3, 5, 7, 1009):
        rng = random.Random(p)
        for _ in range(6):
            f = fp(p, 1)
            for e in (1, 2, 3):
                g = fp(p, *(rng.randrange(p) for _ in range(rng.randint(1, 3))), 1)
                f = f * g**e
            expected = dict(factor(f).factors)
            for k in range(5):
                assert _factor_fp(f, random.Random(k)) == expected


def _sympy_factors_mod(sympy, f):
    """{monic irreducible factor: multiplicity} of f over F_p, by sympy, its
    symmetric residues reduced mod p."""
    field = f.field
    poly = sympy.Poly([c.residue for c in reversed(f.coeffs)], sympy.Symbol("x"), modulus=field.p)
    return {
        Polynomial(field, [int(c) for c in reversed(g.all_coeffs())]).monic(): m
        for g, m in poly.factor_list()[1]
    }


@given(
    st.sampled_from((3, 5, 7, 1009)),
    st.lists(
        st.tuples(st.lists(st.integers(0, 1008), min_size=1, max_size=3),
                  st.sampled_from((1, 2, 3, 5, 6, 7, 10))),
        min_size=1,
        max_size=4,
    ),
    st.booleans(),
    st.integers(1, 1008),
)
def test_factor_fp_matches_sympy(p, parts, compose_x_p, lead):
    """lead times products of random monic g_i, to multiplicities among them
    multiples of p, and optionally composed with X^p, so that the p-th root
    descent runs; parts that would pass the degree cap are left out."""
    sympy = pytest.importorskip("sympy")
    field = PrimeField(p)
    f = fp(p, lead % p or 1)
    for low, mult in parts:
        g = fp(p, *low, 1) ** mult
        if f.degree + g.degree <= FACTOR_DEGREE_CAP:
            f = f * g
    if compose_x_p and f.degree * p <= FACTOR_DEGREE_CAP:
        f = f.compose(Polynomial(field, [0] * p + [1]))
    fact = factor(f)
    assert fact.unit == f.leading
    assert dict(fact.factors) == _sympy_factors_mod(sympy, f)


@st.composite
def gcd_inputs(draw):
    """(field, f, g) sharing a random factor, over Q or F_p; either may be zero."""
    field = draw(st.sampled_from((QQ, PrimeField(3), PrimeField(7), PrimeField(1009))))
    if field.characteristic:
        values = st.integers(0, field.p - 1).map(field.from_int)
    else:
        values = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    f, g, common = (Polynomial(field, draw(st.lists(values, max_size=size)))
                    for size in (6, 6, 4))
    return field, f * common, g * common


def _value(f):
    """f's state as a kernel returns it: the residue list over F_p, the pair
    (numerator list, d) over Q."""
    return list(f._coeffs) if f.field.characteristic else (list(f._coeffs), f._d)


@given(gcd_inputs())
def test_gcd_kernels_give_a_bezout_identity(drawn):
    """d = u f + v g (products by the oracle) with d monic, and d divides f and
    g; so d is their gcd.  The kernels return exactly the canonical state of
    the wrappers' d and u."""
    field, f, g = drawn
    if f.is_zero and g.is_zero:
        with pytest.raises(BothZero):
            poly_xgcd(f, g)
        return
    d, u, v = poly_xgcd(f, g)
    p, a, b = _values(f, g)
    assert _gcd(a, b, p) == _value(d)
    assert _xgcd(a, b, p) == (_value(d), _value(u))
    assert d.is_monic and poly_gcd(f, g) == d
    bezout = _oracle_add(field, oracles.poly_mul(field, list(u.coeffs), list(f.coeffs)),
                         oracles.poly_mul(field, list(v.coeffs), list(g.coeffs)))
    assert bezout == list(d.coeffs)
    for h in (f, g):
        assert oracles.poly_mul(field, list((h // d).coeffs), list(d.coeffs)) == list(h.coeffs)


# ---------------------------------------------------------------------------
# reduced form, splitting bound, quadratic data
# ---------------------------------------------------------------------------

def test_reduced_form_cubic():
    # X^3 - 3X^2 + X - 1 shifted by +1 kills the square term:
    # (X+1)^3 - 3(X+1)^2 + (X+1) - 1 = X^3 - 2X - 2  (hand expansion)
    assert reduced_form(q(-1, 1, -3, 1)) == q(-2, -2, 0, 1)


def test_reduced_form_is_idempotent_on_reduced_input():
    f = q(-2, -2, 0, 1)
    assert reduced_form(f) == f


def test_reduced_form_monicizes():
    # 2X^2 - 4X + 10 -> monic X^2 - 2X + 5 -> shift by 1 -> X^2 + 4
    assert reduced_form(q(10, -4, 2)) == q(4, 0, 1)
    assert reduced_form(q(5, -2, 1)) == q(4, 0, 1)


def test_reduced_form_rejects_constant_and_char_p_bad_degree():
    with pytest.raises(ConstantPolynomial):
        reduced_form(Polynomial.one(QQ))
    with pytest.raises(NotKRegular):
        reduced_form(fp(3, 1, 0, 0, 1))  # degree divisible by char


def test_splitting_bound():
    assert splitting_bound(q(5, -2, 1)) == 2
    assert splitting_bound(q(-2, 0, 0, 1)) == 3  # X^3 - 2 irreducible
    assert splitting_bound(q(-1, 1) * q(1, 0, 1)) == 2


def test_k_projection_of_factor():
    assert k_projection_of_factor(q(5, -2, 1)) == Fraction(1)
    assert k_projection_of_factor(q(-1, 1, -3, 1)) == Fraction(1)
    assert k_projection_of_factor(q(-7, 1)) == Fraction(7)


def test_quad_factor_data():
    assert quad_factor_data(q(5, -2, 1)) == (Fraction(1), Fraction(4))
    assert quad_factor_data(q(1, 0, 1)) == (Fraction(0), Fraction(1))
    with pytest.raises(NotQuadratic):
        quad_factor_data(q(-7, 1))
    with pytest.raises(Reducible):
        quad_factor_data(q(2, -3, 1))  # (X-1)(X-2)


def test_quad_factor_data_negative_norm():
    # X^2 - X - 1: alpha = 1/2, n = -5/4 (golden-ratio pair, real roots)
    alpha, n = quad_factor_data(q(-1, -1, 1))
    assert alpha == Fraction(1, 2)
    assert n == Fraction(-5, 4)


def test_sort_order_is_canonical():
    fact = factor(q(-1, 0, 0, 0, 0, 0, 1))
    degrees = [g.degree for g, _ in fact.factors]
    assert degrees == sorted(degrees)


# ---------------------------------------------------------------------------
# kernels over F_p (int residues), and the rational-root pre-pass
# ---------------------------------------------------------------------------

BIG = 10**30


@st.composite
def fp_polynomials(draw, count):
    """(field, polys) over F_3, F_7, F_1009, F_(2^31 - 1), F_(2^61 - 1), or Q
    with numerators and denominators up to about 1e30 (degree at most 6
    there, at most 19 over F_p)."""
    field = draw(st.sampled_from((PrimeField(3), PrimeField(7), PrimeField(1009),
                                  PrimeField(2**31 - 1), PrimeField(2**61 - 1), QQ)))
    if field.characteristic:
        p = field.p
        coeffs = st.lists(st.sampled_from((0, 1, p - 1)) | st.integers(0, p - 1), max_size=20)
    else:
        small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
        large = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
        coeffs = st.lists(st.sampled_from((0, 1, -1)).map(Fraction) | small | large, max_size=7)
    return field, [Polynomial(field, draw(coeffs)) for _ in range(count)]


def _is_canonical(f):
    """The state is trimmed, residues in [0, p) with d = 1 over F_p, and over
    Q d > 0 prime to every numerator."""
    p, cs, d = f.field.characteristic, f._coeffs, f._d
    trimmed = not cs or cs[-1] != 0
    if p:
        return trimmed and d == 1 and all(0 <= c < p for c in cs)
    return trimmed and d > 0 and math.gcd(d, *cs) == 1


def _oracle_add(field, f, g):
    size = max(len(f), len(g))
    f, g = list(f) + [field.zero] * (size - len(f)), list(g) + [field.zero] * (size - len(g))
    return oracles.poly_trim(field, [a + b for a, b in zip(f, g)])


def _element_key(f):
    """The old sort key: the degree, then the coefficients as rationals (Q)
    or residues (F_p)."""
    return f.degree, tuple(c if f.field.characteristic == 0 else c.residue for c in f.coeffs)


@given(fp_polynomials(count=2))
@example((QQ, [q(Fraction(1, 2), 1), q(1, 1)]))  # numerators (1, 2) over 2 and (1, 1) over 1
@example((QQ, [q(Fraction(-5, 3), Fraction(7, 2), 1), q(-1, Fraction(7, 2), 1)]))
def test_fp_product_matches_oracle(drawn):
    """The product agrees with the oracle; equal polynomials built by
    different routes have equal state and hash; every result is canonical;
    and ``sort_key`` orders as the tuples of element coefficients do."""
    field, (f, g) = drawn
    expected = oracles.poly_trim(field, oracles.poly_mul(field, list(f.coeffs), list(g.coeffs)))
    assert list((f * g).coeffs) == expected
    two = field.from_int(2)
    routes = [(f + g) - g, -(-f), f * two * (field.one / two), Polynomial(field, f.coeffs),
              Polynomial.parse(field, f.strings()), f.compose(Polynomial.x(field))]
    if not g.is_zero:
        routes.append(g * f // g)
    for h in routes:
        assert (h._coeffs, h._d, hash(h)) == (f._coeffs, f._d, hash(f))
    divisor = Polynomial.one(field) if g.is_zero else g
    assert all(map(_is_canonical, [f, g, f * g, f + g, f - g, -f, *divmod(f, divisor)]))
    for a, b in ((f, g), (g, f), (f, f)):
        assert (a.sort_key() < b.sort_key()) == (_element_key(a) < _element_key(b))
        assert (a.sort_key() == b.sort_key()) == (a == b)


@given(fp_polynomials(count=2))
@example((QQ, [Polynomial(QQ, [Fraction(3, 7), Fraction(-BIG, 11), 0, Fraction(1, BIG), 5]),
               Polynomial(QQ, [Fraction(-2, 3), 1, Fraction(BIG + 7, 13)])]))
@example((QQ, [Polynomial(QQ, [Fraction(k, k + 1) for k in range(7)]),
               Polynomial(QQ, [Fraction(1, 3), -1, 0, Fraction(-(BIG + 1), 2)])]))
def test_fp_divmod_reconstructs(drawn):
    """Over F_p and over Q (pseudo-division on the numerators), including
    non-monic divisors with a large leading numerator."""
    field, (f, g) = drawn
    if g.is_zero:
        with pytest.raises(DivisionByZeroPoly):
            divmod(f, g)
        return
    quotient, rem = divmod(f, g)
    assert rem.degree < g.degree
    product = oracles.poly_mul(field, list(quotient.coeffs), list(g.coeffs))
    assert _oracle_add(field, product, rem.coeffs) == list(f.coeffs)


F61 = PrimeField(2**61 - 1)  # every coefficient p - 1 fills the packed slots most


def _power_reduced(f, e, g):
    """f^e mod g, e > 0, by square and multiply with ``*`` and ``%``."""
    result, base = Polynomial.one(f.field), f % g
    while e:
        if e & 1:
            result = result * base % g
        base, e = base * base % g, e >> 1
    return result


@settings(max_examples=100)
@given(fp_polynomials(count=2), st.sampled_from((None, 1, 2)),
       st.sampled_from(("p", "p^3", "(p^3-1)/2")) | st.integers(0, 40))
@example((F61, [Polynomial(F61, [-1] * 20), Polynomial(F61, [-1] * 17)]), None, "(p^3-1)/2")
def test_fp_powmod_is_the_power_reduced(drawn, modulus_degree, e):
    """Also modulo degree 1 and 2, and to the exponents p and p^3 of
    distinct-degree factoring and (p^3 - 1)/2 of equal-degree splitting
    (with p = 3 over Q), checked by square and multiply with ``*`` and
    ``%`` where f**e is too large."""
    field, (f, g) = drawn
    if modulus_degree:
        g = Polynomial(field, [*g.coeffs[:modulus_degree], field.from_int(2)])
    if isinstance(e, str):
        p = field.characteristic or 3
        e = {"p": p, "p^3": p**3, "(p^3-1)/2": (p**3 - 1) // 2}[e]
    if g.is_zero:
        with pytest.raises(DivisionByZeroPoly):
            poly_powmod(f, e, g)
        return
    if not e:
        expected = Polynomial.one(field)  # 1 even modulo a constant
    else:
        expected = f**e % g if e <= 40 else _power_reduced(f, e, g)
    assert poly_powmod(f, e, g) == expected


def _remainder(a, m, p):
    """a mod m over F_p by long division, on int lists, constant first."""
    a, d, inv = list(a), len(m) - 1, pow(m[-1], -1, p)
    for k in range(len(a) - 1, d - 1, -1):
        c = a[k] * inv % p
        for j, e in enumerate(m):
            a[k - d + j] -= c * e
    return [x % p for x in a[:d]]


@settings(max_examples=120)
@given(st.sampled_from((3, 1009, 2**31 - 1)), st.integers(1, 16), st.booleans(), st.data())
def test_modulus_slots_hold_the_unreduced_sums(p, n, full, data):
    """A slot of ``_Modulus`` for a modulus of degree n has room for a sum of
    2n - 1 products of residues: (2n - 1)(p - 1)^2 < 2^bits.  ``_reduce``
    forms, in each of the n low slots, the coefficient of the product (a sum
    of at most n products) plus the table rows X^(n+k) mod m times the n - 1
    high residues.  Recomputed here on plain ints, those sums stay within the
    bound, and reduced mod p they are what ``_reduce`` returns and the
    product modulo m.  ``full`` sets every residue to p - 1."""
    residues = st.just(p - 1) if full else st.integers(0, p - 1) | st.just(p - 1)
    m = data.draw(st.lists(residues, min_size=n, max_size=n)) + [p - 1 if full else 1]
    a, b = (data.draw(st.lists(residues, min_size=n, max_size=n)) for _ in range(2))
    modulus = _Modulus(m, p)
    bound = (2 * n - 1) * (p - 1) ** 2
    assert bound < 2**modulus.bits
    product = [sum(a[i] * b[k - i] for i in range(max(0, k - n + 1), min(k, n - 1) + 1))
               for k in range(2 * n - 1)]
    rows = [_remainder([0] * (n + k) + [1], m, p) for k in range(n - 1)]
    sums = [product[i] + sum(product[n + k] % p * row[i] for k, row in enumerate(rows))
            for i in range(n)]
    assert max(sums) <= bound
    reduced = [s % p for s in sums]
    assert reduced == _remainder(product, m, p)
    assert modulus._reduce(_pack(a, modulus.bits) * _pack(b, modulus.bits)) == reduced


@given(
    st.lists(
        st.tuples(st.integers(1, 400), st.integers(1, 30), st.booleans()),
        min_size=1,
        max_size=5,
    ),
    st.sampled_from(((1,), (1, 0, 1), (-2, 0, 3), (5, -1, 0, 7))),
)
def test_rational_roots_found_by_lifting(roots, cofactor):
    """Every root of a product of (den X - num) and a cofactor without
    rational roots is found by lifting its image modulo a prime."""
    expected = {Fraction(-num if neg else num, den) for num, den, neg in roots}
    f = Polynomial(QQ, [Fraction(c) for c in cofactor])
    for r in expected:
        f = f * Polynomial(QQ, [-r, Fraction(1)])
    found = {Fraction(num, den) for num, den in _rational_roots(_clear_denominators(f))}
    assert found == expected
