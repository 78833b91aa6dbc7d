"""The decimal printer of archimedean results, against mpmath.nstr."""

from fractions import Fraction

import mpmath
from hypothesis import example, given, settings, strategies as st

from finefrob.jsonio import _decimal, _dps

RATIONALS = st.builds(
    lambda n, d, k: Fraction(n, d) * Fraction(10) ** k,
    st.integers(-(10**40), 10**40),
    st.integers(1, 10**40),
    st.integers(-80, 80),
)


def _leading_exponent(text: str) -> int:
    """The decimal exponent of the leading digit of a nonzero printed value,
    read off its layout."""
    body = text.lstrip("-")
    if "e" in body:
        return int(body.split("e")[1])
    if body.startswith("0."):
        return -(len(body[2:]) - len(body[2:].lstrip("0"))) - 1
    return len(body.split(".")[0]) - 1


@settings(max_examples=150, deadline=None)
@given(RATIONALS, st.integers(1, 512))
@example(Fraction(0), 128)
@example(Fraction(999999, 1000000), 1)
@example(Fraction(-1, 3), 128)
@example(Fraction(99995, 10**10), 14)
@example(Fraction(15, 10**5), 14)
@example(Fraction(10**37 - 1, 10**37) * 10**5, 128)
def test_decimal_is_nstr_of_the_rounded_value(x, precision):
    """The text is what mpmath.nstr(..., strip_zeros=False) prints for the
    value it stands for; that value is x to within half a unit in its last
    digit, and rounded up it is never below |x| and under one unit above."""
    dps = _dps(precision)
    assert dps == mpmath.libmp.prec_to_dps(precision)
    text, value = _decimal(x, dps)
    assert Fraction(text) == value
    with mpmath.workprec(4 * dps + 64):
        assert mpmath.nstr(mpmath.mpf(text), dps, strip_zeros=False) == text
    if not x:
        assert text == "0.0" and _decimal(x, dps, up=True) == ("0.0", 0)
        return
    unit = Fraction(10) ** (_leading_exponent(text) + 1 - dps)
    assert abs(value - x) <= unit / 2
    up_text, up = _decimal(abs(x), dps, up=True)
    assert Fraction(up_text) == up and abs(x) <= up < abs(x) + unit


def test_decimal_of_a_rational_past_the_digit_limit():
    """Rationals of over 4,300 digits, and 4,931 digits (precision 16,384),
    print: no integer longer than the digits asked for becomes a string."""
    third = Fraction(10**5000 + 7, 3)
    for x in (third, 1 / third):
        text, value = _decimal(x, 38)
        unit = Fraction(10) ** (_leading_exponent(text) + 1 - 38)
        assert Fraction(text) == value and abs(value - x) <= unit / 2
    assert _decimal(third, 38)[0] == "3." + "3" * 37 + "e+4999"
    assert _decimal(third, _dps(16384))[0] == "3." + "3" * 4930 + "e+4999"
