"""Ground-field scalars, quadratic extensions, and the K-decomposition maps."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from finefrob import (
    QQ,
    AbsValue,
    FpElement,
    Matrix,
    PrimeField,
    QuadElement,
    involution,
    is_k_regular_degree,
    k_decompose,
    k_norm,
    padic_valuation,
    quad_element,
    re_im,
)
from finefrob.errors import (
    CapExceeded,
    CharTwo,
    FieldMismatch,
    MixedExtension,
    NotImaginary,
    NotPrime,
    SchemaMismatch,
)
from finefrob.scalar import squarefree_decompose, tonelli_shanks


# ---------------------------------------------------------------------------
# construction and canonicalization
# ---------------------------------------------------------------------------

def test_quad_canonicalizes_square_factors():
    # sqrt(8) = 2*sqrt(2)
    assert quad_element(QQ, 0, 1, 8) == quad_element(QQ, 0, 2, 2)


def test_quad_canonicalizes_rational_radicand():
    # sqrt(1/2) = (1/2)*sqrt(2)
    assert quad_element(QQ, 0, 1, Fraction(1, 2)) == quad_element(
        QQ, 0, Fraction(1, 2), 2
    )


def test_quad_square_radicand_collapses_to_ground():
    assert quad_element(QQ, 1, 1, 4) == Fraction(3)
    assert quad_element(QQ, 0, 1, Fraction(9, 4)) == Fraction(3, 2)


def test_quad_zero_vertical_part_collapses():
    assert quad_element(QQ, Fraction(7, 2), 0, 5) == Fraction(7, 2)


def test_quad_direct_constructor_is_guarded():
    with pytest.raises(TypeError):
        QuadElement(QQ, Fraction(0), Fraction(1), 2)


def test_quad_negative_radicand_canonicalization():
    # sqrt(-4) = 2*sqrt(-1)
    assert quad_element(QQ, 0, 1, -4) == quad_element(QQ, 0, 2, -1)


def test_quad_equality_never_matches_ground():
    x = quad_element(QQ, 1, 1, 2)
    assert x != Fraction(1)
    assert not (x == 1)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_gaussian_product():
    i = quad_element(QQ, 0, 1, -1)
    x = 1 + 2 * i
    y = 3 + i
    product = x * y
    # (1+2i)(3+i) = 1 + 7i
    assert product == quad_element(QQ, 1, 7, -1)


def test_involution_is_multiplicative_on_example():
    i = quad_element(QQ, 0, 1, -1)
    x = 1 + 2 * i
    y = 3 + i
    assert involution(x * y) == involution(x) * involution(y)


def test_quad_inverse_and_division():
    x = quad_element(QQ, 1, 1, 2)
    assert x * x.inverse() == Fraction(1)
    assert (1 / x) == x.inverse()
    y = quad_element(QQ, 3, -2, 2)
    assert (y / x) * x == y


def test_quad_powers():
    x = quad_element(QQ, 1, 1, 2)
    assert x**0 == Fraction(1)
    assert x**3 == x * x * x
    # (1 + sqrt(2))^2 = 3 + 2*sqrt(2)
    assert x**2 == quad_element(QQ, 3, 2, 2)


def test_vertical_product_lands_in_ground_field():
    a = quad_element(QQ, 0, 2, 3)
    b = quad_element(QQ, 0, 5, 3)
    assert a * b == Fraction(30)


def test_distinct_radicals_are_rejected():
    with pytest.raises(MixedExtension):
        quad_element(QQ, 0, 1, 2) * quad_element(QQ, 0, 1, 3)
    with pytest.raises(MixedExtension):
        quad_element(QQ, 0, 1, 2) + quad_element(QQ, 0, 1, 3)


def test_product_of_radicals_constructed_canonically_is_vertical():
    # sqrt(2)*sqrt(3) is representable as the canonical sqrt(6), horizontal part 0
    x = quad_element(QQ, 0, 1, 6)
    assert isinstance(x, QuadElement)
    assert x.a == 0 and x.d == 6


def test_mixed_ground_fields_rejected():
    f7 = PrimeField(7)
    with pytest.raises(FieldMismatch):
        quad_element(QQ, 0, 1, 2) + quad_element(f7, 0, 1, f7.nonresidue)


# ---------------------------------------------------------------------------
# K-decomposition, involution, norm
# ---------------------------------------------------------------------------

def test_k_decompose_quadratic():
    x = quad_element(QQ, 5, 3, 2)
    h, v = k_decompose(x)
    assert h == Fraction(5)
    assert v == quad_element(QQ, 0, 3, 2)
    assert h + v == x


def test_k_decompose_ground():
    h, v = k_decompose(Fraction(4, 3))
    assert h == Fraction(4, 3)
    assert v == 0


def test_k_norm_examples():
    assert k_norm(quad_element(QQ, 1, 2, -1)) == Fraction(5)
    assert k_norm(quad_element(QQ, 0, 1, 2)) == Fraction(-2)
    assert k_norm(Fraction(3)) == Fraction(9)


def test_vertical_square_characterization():
    # x is vertical iff x is not ground but x^2 is
    v = quad_element(QQ, 0, 3, 5)
    assert v.is_vertical
    assert not isinstance(v * v, QuadElement)
    x = quad_element(QQ, 1, 1, 2)
    assert not x.is_vertical
    assert isinstance(x * x, QuadElement)


def test_re_im():
    assert re_im(quad_element(QQ, 1, 2, -1)) == (Fraction(1), Fraction(2))
    a, b = re_im(quad_element(QQ, Fraction(1, 2), 3, -2))
    assert a == Fraction(1, 2)
    assert b == quad_element(QQ, 0, 3, 2)
    with pytest.raises(NotImaginary):
        re_im(Fraction(5))
    with pytest.raises(NotImaginary):
        re_im(quad_element(QQ, 0, 1, 2))


def test_involution_fixes_ground():
    assert involution(Fraction(5, 3)) == Fraction(5, 3)


# ---------------------------------------------------------------------------
# property loops (seeded)
# ---------------------------------------------------------------------------

def _random_quad(rng, d):
    a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    b = Fraction(rng.choice([k for k in range(-9, 10) if k]), rng.randint(1, 5))
    return quad_element(QQ, a, b, d)


def test_involution_laws_random():
    rng = random.Random(20260823)
    for _ in range(300):
        d = rng.choice([-1, -2, -5, 2, 3, 7])
        x = _random_quad(rng, d)
        y = _random_quad(rng, d)
        assert involution(x + y) == involution(x) + involution(y)
        assert involution(x * y) == involution(x) * involution(y)
        assert x * involution(x) == k_norm(x)
        trace = x + involution(x)
        assert not isinstance(trace, QuadElement)
        assert trace == 2 * x.a


# ---------------------------------------------------------------------------
# prime fields
# ---------------------------------------------------------------------------

def test_prime_field_rejects_char_two_and_composites():
    with pytest.raises(CharTwo):
        PrimeField(2)
    with pytest.raises(NotPrime):
        PrimeField(9)


def test_fp_element_arithmetic():
    f7 = PrimeField(7)
    x = f7.from_int(3)
    assert x + 5 == f7.from_int(1)
    assert 2 * x == f7.from_int(6)
    assert x - 4 == f7.from_int(6)
    assert x / f7.from_int(2) == f7.from_int(5)  # 3 * 4 = 12 = 5 (mod 7)
    assert x ** 6 == f7.one


def test_fp_element_equality_only_with_fp():
    f7 = PrimeField(7)
    assert f7.from_int(3) != 3
    assert f7.from_int(3) == f7.from_int(10)


def test_fp_parse_accepts_fractions():
    f7 = PrimeField(7)
    assert f7.parse("1/2") == f7.from_int(4)
    with pytest.raises(SchemaMismatch):
        f7.parse("1/7")
    with pytest.raises(SchemaMismatch):
        f7.parse("x")


@pytest.mark.parametrize("literal", ["0", "6", "7", "-1", "123456789012345678901", "14/2", "-21/3"])
def test_fp_parse_of_an_integer_literal_is_its_residue(literal):
    """Integral literals, "14/2" among them, take no inverse; the value is
    the one a division by 1 gives."""
    f7 = PrimeField(7)
    value = Fraction(literal)
    parsed = f7.parse(literal)
    assert parsed == f7.from_int(value.numerator) / f7.one
    assert parsed.residue == value.numerator % 7 and 0 <= parsed.residue < 7
    for bad in ("3/14", "1/0", "", "1.5e", "0x7"):
        with pytest.raises(SchemaMismatch):
            f7.parse(bad)


def _fraction_parse(field, s):
    """What ``parse`` gives when every literal goes through ``Fraction``, or
    SchemaMismatch for a literal it rejects."""
    try:
        fr = Fraction(s)
    except (ValueError, ZeroDivisionError):
        return SchemaMismatch
    if field.characteristic == 0:
        return fr
    if fr.denominator % field.p == 0:
        return SchemaMismatch
    return field.from_int(fr.numerator) / field.from_int(fr.denominator)


LITERAL_PIECES = (
    "", " ", "\t", "\n", "\x1c", "\u3000", "+", "-", "_", "0", "7", "14", "1009",
    "\u0663", "\u0e53", "\uff15", "5.0", ".5", "1e3", "1E-2", "/", "1/2", "7/7",
    "1009/1009", "14/7", "e", "x", "0x1",
)


@pytest.mark.parametrize("field", (QQ, PrimeField(7), PrimeField(1009)), ids=repr)
@settings(max_examples=200)
@given(
    st.lists(st.sampled_from(LITERAL_PIECES), max_size=6).map("".join)
    | st.text(alphabet="0123456789+-_ ./e\u0663", max_size=12)
    | st.integers(4290, 4310).map(lambda n: "9" * n)
    | st.integers(4290, 4310).map(lambda n: "-" + "1" * n + "/3"),
)
@example("_1")
@example("1_")
@example("1__0")
@example(" -1_0\n")
@example("\x1c7")
@example("+\u0663")
@example("7/7")
@example("1009/1009")
@example("1 /2")
@example("1/ 2")
@example("1/+2")
@example("1/-2")
@example("1/2_0")
@example(" -14/7\n")
@example("9" * 4300)
@example("9" * 4301)
def test_parse_agrees_with_the_fraction_path(field, literal):
    """A literal n or n/d whose parts ``int`` reads skips ``Fraction``; every
    literal gives the element, or the SchemaMismatch, that ``Fraction``
    gives, in ``parse`` and as the entry of ``Matrix.parse``: signs,
    whitespace, underscores, Unicode digits, decimals, exponents, fractions,
    p/p over F_p and literals past Python's 4,300-digit limit."""
    expected = _fraction_parse(field, literal)
    if expected is SchemaMismatch:
        with pytest.raises(SchemaMismatch):
            field.parse(literal)
        with pytest.raises(SchemaMismatch):
            Matrix.parse(field, [[literal]])
    else:
        parsed = field.parse(literal)
        assert parsed == expected and type(parsed) is type(expected)
        assert Matrix.parse(field, [[literal]]) == Matrix(field, [[expected]])


def test_fp_nonresidue_and_sqrt():
    f7 = PrimeField(7)
    assert f7.nonresidue == 3
    ok, root = f7.is_square(f7.from_int(2))
    assert ok and root == f7.from_int(3)  # roots are 3 and 4; the smaller wins
    assert f7.sqrt(f7.from_int(2)) == f7.from_int(3)
    v = f7.sqrt(f7.from_int(3))
    assert isinstance(v, QuadElement) and v.d == 3
    assert v * v == f7.from_int(3)


def test_fp_quad_rescales_to_canonical_nonresidue():
    f7 = PrimeField(7)
    # sqrt(5) = 2*sqrt(3) over F_7 since (2*sqrt(3))^2 = 12 = 5
    assert quad_element(f7, 0, 1, 5) == quad_element(f7, 0, 2, 3)
    # residues collapse to the ground field: sqrt(2) = 3
    assert quad_element(f7, 0, 1, 2) == f7.from_int(3)


def test_fp_involution_laws_random():
    f13 = PrimeField(13)
    rng = random.Random(5)
    d = f13.nonresidue
    for _ in range(200):
        x = quad_element(f13, rng.randrange(13), rng.randrange(1, 13), d)
        y = quad_element(f13, rng.randrange(13), rng.randrange(1, 13), d)
        assert involution(x * y) == involution(x) * involution(y)
        assert x * involution(x) == k_norm(x)


def test_tonelli_shanks_small_primes():
    for p in (3, 5, 7, 11, 13, 17, 101):
        for a in range(1, p):
            if pow(a, (p - 1) // 2, p) == 1:
                r = tonelli_shanks(a, p)
                assert r * r % p == a
                assert r <= p - r  # canonical minimal root


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def test_squarefree_decompose():
    assert squarefree_decompose(18) == (2, 3)
    assert squarefree_decompose(-50) == (-2, 5)
    assert squarefree_decompose(1) == (1, 1)
    for n in [12, 360, -99, 7, 1024]:
        s, c = squarefree_decompose(n)
        assert s * c * c == n
    # a square cofactor is settled by isqrt, however large
    assert squarefree_decompose(3 * (2**61 - 1) ** 2) == (3, 2**61 - 1)
    # below 2^60 the cofactor left past the cube root is a prime
    assert squarefree_decompose(2**59 - 55) == (2**59 - 55, 1)
    # two 40-bit primes: neither found by trial division up to 2^20
    with pytest.raises(CapExceeded):
        squarefree_decompose((2**39 + 23) * (2**39 + 39))


def test_padic_valuation():
    assert padic_valuation(Fraction(12), 2) == 2
    assert padic_valuation(Fraction(5, 9), 3) == -2
    assert padic_valuation(Fraction(0), 7) == math.inf


def test_is_k_regular_degree():
    assert is_k_regular_degree(2, QQ)
    assert is_k_regular_degree(4, QQ)
    assert not is_k_regular_degree(0, QQ)
    f3 = PrimeField(3)
    assert is_k_regular_degree(2, f3)
    assert not is_k_regular_degree(3, f3)
    assert not is_k_regular_degree(6, f3)


def test_abs_value_validation():
    assert AbsValue.archimedean().kind == "arch"
    assert AbsValue.trivial().p is None
    assert AbsValue.padic(3).p == 3
    with pytest.raises(NotPrime):
        AbsValue.padic(4)
    with pytest.raises(SchemaMismatch):
        AbsValue("nonsense")


def test_rational_parse_round_trip():
    assert QQ.parse("5/3") == Fraction(5, 3)
    assert QQ.to_str(Fraction(-7, 2)) == "-7/2"
    with pytest.raises(SchemaMismatch):
        QQ.parse("five")


def test_rational_sqrt():
    assert QQ.sqrt(Fraction(9, 4)) == Fraction(3, 2)
    root = QQ.sqrt(Fraction(8))
    assert root == quad_element(QQ, 0, 2, 2)
    assert root * root == Fraction(8)
