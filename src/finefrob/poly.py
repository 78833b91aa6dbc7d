"""Exact univariate polynomial arithmetic and factorization.

Polynomials are immutable, store their coefficients constant-first over an
explicit ground field, and support the ring operations, evaluation (at ground
or quadratic-extension scalars), derivative, composition, and exact division.

Factorization is complete for both supported ground fields:

* over Q: take the squarefree part, which is f itself, with no gcd over Q,
  when p = SQUAREFREE_PRIME does not divide the leading coefficient of f's
  primitive integer form and gcd(f mod p, f' mod p) = 1 (von zur Gathen &
  Gerhard, Modern Computer Algebra, ch. 14); clear denominators, pull the
  rational roots, 0 among them, by lifting the roots modulo a small prime
  p-adically (no integer is factored; ibid., ch. 15), then Zassenhaus'
  modular algorithm: factor modulo up to three small primes, keeping the
  degrees a rational factor can have as one bit mask (every prime's factor
  degrees must sum to it), and stop as soon as the mask leaves no proper
  degree, which proves irreducibility; else Hensel-lift the factors modulo
  the prime with the fewest of them past a Landau-Mignotte coefficient bound,
  and recombine subsets of the lifted factors by increasing size, pruned by
  the mask and by the trailing coefficient.  Only recombination is
  exponential: in the number r of modular factors, not in the degree, and
  it tries subsets of at most r/2 factors.  Under the degree cap r <= 24,
  and in practice r is far smaller.  The search grows only when every prime
  splits the polynomial into many small factors, as for products of
  Swinnerton-Dyer polynomials;
* over F_p: distinct-degree splitting via modular Frobenius powers followed by
  equal-degree splitting, one gcd per random draw, with p-th-root descent
  when the derivative vanishes.

A hard degree cap keeps the recombination bounded; factors are returned in a
canonical order so downstream results are deterministic.

A polynomial stores the form its kernels compute on, (coeffs, d) for
coeffs / d, as FLINT's fmpq_poly keeps integer numerators over one
denominator: residues in [0, p) over F_p with d = 1, and over Q integer
numerators over d > 0 prime to them all; ``coeffs`` and ``coeff`` build
elements only when asked.  There is one kernel per job for both fields,
``_times`` (the int product ``_mul`` with the denominators), ``_add``,
``_divmod``, ``_gcd``, ``_xgcd`` (which gives the inverse modulo m),
``_powmod`` and ``_compose``; over Q ``_divmod`` is pseudo-division on the
numerators, so a monic integral divisor costs no scaling.  The operators of
``Polynomial``, ``poly_gcd``, ``poly_xgcd`` and ``poly_powmod`` wrap them and
build one ``Polynomial`` per result, made canonical by ``Polynomial._of``.
Factoring over F_p, the squarefree certificate modulo a prime, and the
modular factors and Hensel lifts of Zassenhaus' algorithm stay on residue
lists from start to end: ``factor`` builds a ``Polynomial`` only for each
factor it returns.  The Newton and CRT routines of ``jordan_chevalley`` use
the same kernels.

Over F_p a residue vector a is also packed into one int, the sum of
a_i 2^(b i) (Kronecker substitution; von zur Gathen & Gerhard, section 8.4),
so one big-int product computes a whole convolution or a whole row of dot
products, as FLINT's nmod_poly and nmod_mat do.  The slot width
b = ``_slot(p, t)`` is the bit length of t (p - 1)^2: a slot holding a sum of
at most t products of residues in [0, p) never carries into the next.
``_pack`` and ``_unpack`` (which reduces each slot mod p) are the one pair
that converts; ``matrix`` packs its rows and columns with them.  ``_powmod``
over F_p squares and multiplies packed ints and reduces each product by
``_Modulus``, a packed table of X^(n+k) mod m built once per modulus (slots
for t = 2n), which distinct-degree factoring keeps across degrees until a
split.  Over Q the values are signed and unbounded, and stay on lists.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .errors import (
    BothZero,
    ConstantPolynomial,
    DegreeTooLarge,
    DivisionByZeroPoly,
    FactorizationFailed,
    FieldMismatch,
    NotKRegular,
    NotQuadratic,
    Reducible,
    ZeroPolynomial,
)
from .scalar import (
    QQ,
    FpElement,
    _scalar_value,
    is_k_regular_degree,
    is_probable_prime,
    parse_values,
)

__all__ = [
    "Polynomial",
    "Factorization",
    "poly_gcd",
    "poly_xgcd",
    "poly_lcm",
    "poly_powmod",
    "squarefree_part",
    "factor",
    "reduced_form",
    "splitting_bound",
    "quad_factor_data",
    "k_projection_of_factor",
    "FACTOR_DEGREE_CAP",
]

FACTOR_DEGREE_CAP = 24
SQUAREFREE_PRIME = 2**31 - 1  # squarefree_part certifies over Q modulo it


class Polynomial:
    """Univariate polynomial over a fixed ground field, constant term first.

    Its state is the kernel form (coeffs, d) of ``_values``, the polynomial
    being coeffs / d with coeffs trimmed: over F_p int residues in [0, p)
    with d = 1; over Q integer numerators over d > 0 with gcd(d, every
    numerator) = 1, so d = 1 for zero.  Equal polynomials have equal states.
    ``coeffs`` and ``coeff`` are views that build elements on each call.
    """

    __slots__ = ("field", "_coeffs", "_d")

    def __init__(self, field, coeffs):
        """From elements of ``field`` or ints, each coerced once."""
        cs, p = [field.coerce(c) for c in coeffs], field.characteristic
        if p:
            value = [c.residue for c in cs]
        else:
            d = math.lcm(*(c.denominator for c in cs))
            value = [c.numerator * (d // c.denominator) for c in cs], d
        self.field = field
        self._coeffs, self._d = _state(value, p)

    # -- constructors --------------------------------------------------------

    @classmethod
    def _of(cls, field, p, value) -> "Polynomial":
        """From a kernel's value, p as ``_values`` gave it, in canonical form:
        residues reduced mod p, numerators and d divided by their gcd, d > 0,
        trailing zeros dropped."""
        f = object.__new__(cls)
        f.field = field
        f._coeffs, f._d = _state(value, p)
        return f

    @classmethod
    def parse(cls, field, literals) -> "Polynomial":
        """From coefficient literals, each read as ``field.parse`` reads it,
        with no element built."""
        p = field.characteristic
        coeffs, d = parse_values(field, literals)
        return cls._of(field, p, coeffs if p else (coeffs, d))

    @classmethod
    def zero(cls, field) -> "Polynomial":
        return cls._of(field, field.characteristic, _lift([], field.characteristic))

    @classmethod
    def one(cls, field) -> "Polynomial":
        return cls._of(field, field.characteristic, _lift([1], field.characteristic))

    @classmethod
    def constant(cls, field, c) -> "Polynomial":
        return cls(field, (c,))

    @classmethod
    def x(cls, field) -> "Polynomial":
        return cls._of(field, field.characteristic, _lift([0, 1], field.characteristic))

    # -- basic queries -------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def coeffs(self) -> tuple:
        """The coefficients as elements, constant first, built on this call."""
        p, d = self.field.characteristic, self._d
        return tuple(FpElement(c, p) if p else Fraction(c, d) for c in self._coeffs)

    def coeff(self, i: int):
        if not 0 <= i < len(self._coeffs):
            return self.field.zero
        p, c = self.field.characteristic, self._coeffs[i]
        return FpElement(c, p) if p else Fraction(c, self._d)

    def strings(self) -> list:
        """Each coefficient as ``field.to_str`` prints it, in lowest terms."""
        to_str, d = self.field.value_str, self._d
        return [to_str(c, d) for c in self._coeffs]

    @property
    def leading(self):
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeff(self.degree)

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self._coeffs[-1] == self._d

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        if self._coeffs[-1] == self._d:
            return self
        p, a = _values(self)
        return Polynomial._of(self.field, p, _monic(a, p))

    # -- ring operations -----------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.field != other.field:
            raise FieldMismatch("polynomials over different fields")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        p, a, b = _values(self, other)
        return Polynomial._of(self.field, p, _add(a, b, p))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        p, a, b = _values(self, other)
        return Polynomial._of(self.field, p, _add(a, b, p, -1))

    def __neg__(self):
        p, a = _values(self)
        return Polynomial._of(self.field, p, _scale(a, -1, p))

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check(other)
            p, a, b = _values(self, other)
            return Polynomial._of(self.field, p, _times(a, b, p))
        try:
            k, den = _scalar_value(self.field, other)
        except (TypeError, FieldMismatch):
            return NotImplemented
        p, a = _values(self)
        return Polynomial._of(self.field, p, _scale(a, k, p, den))

    __rmul__ = __mul__

    def __divmod__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        if other.is_zero:
            raise DivisionByZeroPoly("polynomial division by zero")
        p, a, b = _values(self, other)
        return tuple(Polynomial._of(self.field, p, v) for v in _divmod(a, b, p))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        if k == 0:
            return Polynomial.one(self.field)
        result = self
        for bit in bin(k)[3:]:  # left to right, after the leading 1
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def derivative(self) -> "Polynomial":
        p, a = _values(self)
        return Polynomial._of(self.field, p, _derivative(a, p))

    def __call__(self, x):
        """Evaluate at a ground or quadratic-extension scalar (Horner)."""
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, other: "Polynomial") -> "Polynomial":
        """self(other(X)) by Horner over the polynomial ring."""
        self._check(other)
        p, a, b = _values(self, other)
        return Polynomial._of(self.field, p, _compose(a, b, p))

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.field == other.field and self._d == other._d
                and self._coeffs == other._coeffs)

    def __hash__(self):
        return hash((self.field, self._coeffs, self._d))

    def sort_key(self):
        """Orders by degree, then by the coefficients from the constant term
        as rationals (residues over F_p), as tuples of elements compare."""
        return self.degree, (self._coeffs if self.field.characteristic else self.coeffs)

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == self.field.zero:
                continue
            cs = self.field.to_str(c)
            if i == 0:
                terms.append(cs)
            elif i == 1:
                terms.append(f"{cs}*X" if cs != "1" else "X")
            else:
                terms.append(f"{cs}*X^{i}" if cs != "1" else f"X^{i}")
        return "Poly(" + " + ".join(terms) + ")"


def _state(value, p) -> tuple:
    """The state (coeffs, d) of a kernel's value."""
    if p:
        return tuple(_reduced(value, p)), 1
    coeffs, d = _reduced(value, 0)
    return tuple(coeffs), d


def _values(*polys):
    """(p, the value of each poly) for the kernels: p and the residues in
    [0, p) over F_p, else 0 and the pair (numerators, d).  A kernel result
    becomes a ``Polynomial`` through ``Polynomial._of``."""
    p = polys[0].field.characteristic
    if p:
        return (p, *(f._coeffs for f in polys))
    return (0, *((f._coeffs, f._d) for f in polys))


# ---------------------------------------------------------------------------
# kernels on values, constant first: lists of int residues over F_p (p > 0),
# pairs (integer numerators, d > 0) over Q (p = 0), the polynomial being
# numerators / d; results are canonical unless a kernel says otherwise
# ---------------------------------------------------------------------------

def _lift(ints, p):
    """The value of a polynomial with int coefficients (reduced over F_p)."""
    return ints if p else (ints, 1)


def _degree(a, p) -> int:
    """The degree of a trimmed value; -1 for zero."""
    return len(a if p else a[0]) - 1


def _reduced(a, p):
    """a as a new canonical value: reduced mod p and trimmed over F_p;
    trimmed, with d > 0 and the gcd of d and the numerators divided out, over Q."""
    if p:
        a = [c % p for c in a]
    else:
        a, d = a
        a = list(a)
    while a and not a[-1]:
        a.pop()
    if p:
        return a
    g = math.gcd(d, *a)
    if d < 0:
        g = -g
    return (a, d) if g == 1 else ([c // g for c in a], d // g)


def _inv(a, p) -> tuple[int, int]:
    """(k, den) with k / den the inverse of a's leading coefficient (den 1
    over F_p)."""
    if p:
        return pow(a[-1], -1, p), 1
    return a[1], a[0][-1]


def _scale(a, k, p, den=1):
    """(k / den) a, den nonzero (1 over F_p); over F_p trimmed only for k != 0."""
    if p:
        return [k * x % p for x in a]
    return _reduced(([k * x for x in a[0]], a[1] * den), 0)


def _monic(a, p):
    k, den = _inv(a, p)
    return _scale(a, k, p, den)


def _add(a, b, p, sign=1):
    """a + sign b."""
    if p:
        return _reduced([x + sign * y for x, y in zip_longest(a, b, fillvalue=0)], p)
    (a, da), (b, db) = a, b
    d = math.lcm(da, db)
    sa, sb = d // da, sign * (d // db)
    return _reduced(([sa * x + sb * y for x, y in zip_longest(a, b, fillvalue=0)], d), 0)


def _derivative(a, p):
    if p:
        return _reduced([i * c for i, c in enumerate(a)][1:], p)
    return _reduced(([i * c for i, c in enumerate(a[0])][1:], a[1]), 0)


def _mul(a, b) -> list:
    """The coefficients of a b for int lists a and b, unreduced, skipping the
    zero ones of a."""
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            out[i : i + len(b)] = [o + c * e for o, e in zip(out[i:], b)]
    return out


def _times(a, b, p):
    """a b, not canonical: unreduced residues over F_p."""
    if p:
        return _mul(a, b)
    return _mul(a[0], b[0]), a[1] * b[1]


def _divmod(a, b, p) -> tuple:
    """(quotient, remainder) of a by a nonzero b; a need not be canonical.

    Over F_p each quotient coefficient is the leading residue times the
    inverse of b's.  Over Q it is pseudo-division on the numerators,
    c A = Q B + R: a leading numerator that b's, L, does not divide scales
    the remainder and the quotient so far by L / gcd(lead, L), so a monic
    integral b costs no scaling; then a = (Q db / (c da)) b + R / (c da).
    """
    if p:
        rem, lc = list(a), pow(b[-1], -1, p)
    else:
        (rem, da), (b, db) = (list(a[0]), a[1]), b
        lc, c = b[-1], 1
    dd = len(b) - 1
    quo = [0] * max(len(rem) - dd, 0)
    # over F_p the top coefficient is reduced when it is read, the rest once at the end
    for k in range(len(rem) - 1 - dd, -1, -1):
        lead = rem.pop()
        if p:
            lead = lead % p * lc % p
        else:
            if lead % lc:
                s = abs(lc) // math.gcd(lead, lc)
                rem, quo, c, lead = [s * x for x in rem], [s * x for x in quo], c * s, lead * s
            lead //= lc
        if lead:
            quo[k] = lead
            rem[k : k + dd] = [r - lead * e for r, e in zip(rem[k:], b)]
    if p:
        return _reduced(quo, p), _reduced(rem, p)
    return _reduced(([x * db for x in quo], c * da), 0), _reduced((rem, c * da), 0)


def _gcd(a, b, p):
    """The monic gcd (Euclid); BothZero on gcd(0, 0).  Over Q each remainder
    is replaced by its primitive numerators, which the gcd does not see."""
    if _degree(a, p) < 0 and _degree(b, p) < 0:
        raise BothZero("gcd(0, 0) is undefined")
    while (b if p else b[0]):  # b != 0, tested inline: no call per step on F_p
        a, b = b, _divmod(a, b, p)[1]
        if not p and b[0]:
            b = _primitive(b[0]), 1
    return _monic(a, p)


def _xgcd(a, b, p) -> tuple:
    """(d, u): d the monic gcd and u a = d modulo b, so u is the inverse of a
    modulo b when d = 1; BothZero on gcd(0, 0)."""
    if _degree(a, p) < 0 and _degree(b, p) < 0:
        raise BothZero("gcd(0, 0) is undefined")
    u0, u1 = _lift([1], p), _lift([], p)
    while (b if p else b[0]):
        q, r = _divmod(a, b, p)
        a, b = b, r
        u0, u1 = u1, _add(u0, _times(q, u1, p), p, -1)
    k, den = _inv(a, p)
    return _scale(a, k, p, den), _scale(u0, k, p, den)


def _slot(p: int, terms: int) -> int:
    """The bits of one slot of a packed residue vector: enough for a sum of
    ``terms`` products of residues in [0, p), so no slot overflows into the
    next."""
    return max(terms * (p - 1) ** 2, 1).bit_length()


def _pack(a, bits: int) -> int:
    """The int sum of a_i 2^(bits i) for residues a, constant first
    (Kronecker substitution X = 2^bits)."""
    x = 0
    for c in reversed(a):
        x = x << bits | c
    return x


def _unpack(x: int, length: int, bits: int, p: int) -> list:
    """The first ``length`` slots of a packed x, each reduced mod p."""
    mask = (1 << bits) - 1
    return [(x >> s & mask) % p for s in range(0, length * bits, bits)]


class _Modulus:
    """Residues m != 0 of degree n over F_p and the packed table of
    X^(n+k) mod m, k < n - 1, built once per modulus.

    A product of two packed residue vectors of length n is one int product
    with 2n - 1 slots; its low n slots plus the table rows times the high
    slots, each reduced mod p, is the product modulo m, a sum of at most
    2n - 1 products of residues per slot: slots of ``_slot(p, 2n)`` bits.
    """

    __slots__ = ("m", "p", "n", "bits", "low", "table")

    def __init__(self, m, p: int):
        self.m, self.p, self.n = m, p, len(m) - 1
        self.bits = _slot(p, 2 * self.n)
        self.low = (1 << self.n * self.bits) - 1  # the mask of the low n slots
        inv = pow(m[-1], -1, p)
        row = [-c * inv % p for c in m[:-1]]  # X^n mod m
        low, self.table = row, []
        for _ in range(self.n - 1):
            self.table.append(_pack(row, self.bits))
            top = row[-1]
            row = [(prev + top * c) % p for prev, c in zip([0, *row[:-1]], low)]

    def _reduce(self, x: int) -> list:
        """The residues of a packed product of two reduced packed vectors, modulo m."""
        n, bits, p = self.n, self.bits, self.p
        high = _unpack(x >> n * bits, n - 1, bits, p)
        return _unpack((x & self.low) + sum(map(operator.mul, high, self.table)), n, bits, p)

    def power(self, a, e: int) -> list:
        """a^e modulo m, trimmed, by left-to-right square and multiply; 1 when e = 0."""
        if not e:
            return [1]
        bits = self.bits
        base = acc = _pack(_divmod(a, self.m, self.p)[1], bits)
        for bit in bin(e)[3:]:  # after the leading 1
            acc = _pack(self._reduce(acc * acc), bits)
            if bit == "1":
                acc = _pack(self._reduce(acc * base), bits)
        return _reduced(_unpack(acc, self.n, bits, self.p), self.p)


def _powmod(a, e: int, m, p):
    """a^e modulo a nonzero m (square and multiply); 1 when e = 0.  Over F_p
    each step is one product of packed ints (see ``_Modulus``)."""
    if p:
        return _Modulus(m, p).power(a, e)
    result = _lift([1], p)
    acc = _divmod(a, m, p)[1]
    while e:
        if e & 1:
            result = _divmod(_times(result, acc, p), m, p)[1]
        e >>= 1
        if e:
            acc = _divmod(_times(acc, acc, p), m, p)[1]
    return result


def _compose(f, g, p, m=None):
    """f(g) by Horner, reduced modulo a nonzero m at each step when m is
    given; over Q on f's numerators, divided by its d at the end."""
    coeffs, den = (f, 1) if p else f
    acc = _lift([], p)
    for c in reversed(coeffs):
        acc = _add(_times(acc, g, p), _lift([c], p), p)
        if m is not None:
            acc = _divmod(acc, m, p)[1]
    return acc if den == 1 else _reduced((acc[0], acc[1] * den), 0)


# ---------------------------------------------------------------------------
# gcd family
# ---------------------------------------------------------------------------

def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd; raises BothZero on gcd(0, 0)."""
    f._check(g)
    p, a, b = _values(f, g)
    return Polynomial._of(f.field, p, _gcd(a, b, p))


def poly_xgcd(f: Polynomial, g: Polynomial):
    """Extended gcd: returns (d, u, v) with u*f + v*g = d, d monic."""
    f._check(g)
    p, a, b = _values(f, g)
    d, u = _xgcd(a, b, p)
    v = _lift([], p)
    if _degree(b, p) >= 0:
        v = _divmod(_add(d, _times(u, a, p), p, -1), b, p)[0]
    return tuple(Polynomial._of(f.field, p, w) for w in (d, u, v))


def poly_lcm(f: Polynomial, g: Polynomial) -> Polynomial:
    if f.is_zero or g.is_zero:
        return Polynomial.zero(f.field)
    return ((f * g) // poly_gcd(f, g)).monic()


def poly_powmod(base: Polynomial, e: int, mod: Polynomial) -> Polynomial:
    """base**e reduced modulo mod (square and multiply)."""
    base._check(mod)
    if mod.is_zero:
        raise DivisionByZeroPoly("polynomial division by zero")
    p, a, m = _values(base, mod)
    return Polynomial._of(base.field, p, _powmod(a, e, m, p))


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Factorization:
    """unit * product(poly**multiplicity) with monic irreducible factors."""

    unit: object
    factors: tuple[tuple[Polynomial, int], ...]

    def expand(self, field) -> Polynomial:
        acc = Polynomial.constant(field, self.unit)
        for poly, mult in self.factors:
            acc = acc * poly**mult
        return acc

    def radical(self, field) -> Polynomial:
        """Monic product of the distinct irreducible factors."""
        acc = Polynomial.one(field)
        for poly, _ in self.factors:
            acc = acc * poly
        return acc

    @property
    def is_squarefree(self) -> bool:
        return all(m == 1 for _, m in self.factors)

    @property
    def max_degree(self) -> int:
        return max((poly.degree for poly, _ in self.factors), default=0)


def factor(f: Polynomial) -> Factorization:
    """Complete factorization into monic irreducibles, canonically ordered.

    Equal-degree splitting over F_p is Las Vegas (von zur Gathen & Gerhard,
    ch. 14): its draws, from ``random.Random(0)``, set the time, not the factors.
    """
    if f.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if f.degree > FACTOR_DEGREE_CAP:
        raise DegreeTooLarge(
            f"degree {f.degree} exceeds the factorization cap {FACTOR_DEGREE_CAP}"
        )
    unit = f.leading
    if f.degree == 0:
        return Factorization(unit, ())
    monic_f = f.monic()
    if f.field.characteristic == 0:
        pairs = _factor_q(monic_f)
    else:
        pairs = _factor_fp(monic_f, random.Random(0))
    ordered = tuple(sorted(pairs.items(), key=lambda kv: kv[0].sort_key()))
    return Factorization(unit, ordered)


# -- over Q ------------------------------------------------------------------

def _factor_q(f: Polynomial) -> dict[Polynomial, int]:
    """Factor a monic polynomial over Q (degree >= 1)."""
    irreducibles = _factor_squarefree_q(squarefree_part(f))
    # primitive numerators divide exactly (Gauss's lemma): no pseudo-division scales
    p, a, *hs = _values(f, *irreducibles)
    mults, rem = _multiplicities(a, hs, p)
    if _degree(rem, p) != 0:
        raise FactorizationFailed("incomplete factor set")  # pragma: no cover
    return dict(zip(irreducibles, mults))


def _multiplicities(f, irreducibles, p):
    """(the multiplicity in f of each irreducible, the cofactor of f they leave)."""
    mults = []
    for h in irreducibles:
        e = 0
        while True:
            q, r = _divmod(f, h, p)
            if (r if p else r[0]):
                break
            f, e = q, e + 1
        mults.append(e)
    return mults, f


def _factor_squarefree_q(f: Polynomial) -> list[Polynomial]:
    """Monic irreducible factors of a monic squarefree polynomial over Q."""
    out: list[Polynomial] = []
    for num, den in _rational_roots(_clear_denominators(f)):
        out.append(Polynomial._of(QQ, 0, ([-num, den], den)))
        f = f // out[-1]
    if f.degree == 0:
        return out
    if f.degree <= 3:
        out.append(f)  # no rational roots, so degrees 1..3 are settled
        return out
    out.extend(Polynomial._of(QQ, 0, (h, h[-1])) for h in _zassenhaus(_clear_denominators(f)))
    return out


def _clear_denominators(f: Polynomial) -> list[int]:
    """Primitive integer coefficient list with positive leading coefficient."""
    return _primitive(list(f._coeffs))


def _primitive(ints: list[int]) -> list[int]:
    """ints divided by their content, signed so the leading coefficient is positive."""
    content = math.gcd(*ints)
    if ints[-1] < 0:
        content = -content
    return [c // content for c in ints]


def _rational_roots(coeffs: list[int]):
    """All rational roots (num, den) of a primitive squarefree integer polynomial, den > 0.

    Modulo the least odd prime p dividing neither lc nor f' at a root of f mod p,
    a rational root num/den (den | lc) is a simple root with a unique Newton lift.
    Past twice Cauchy's bound |lc num/den| < |lc| + max |a_i|, the symmetric
    residue of lc x is lc num/den; an exact evaluation keeps the true roots.
    """
    lc = coeffs[-1]
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    p = 3
    while True:
        if lc % p and is_probable_prime(p):
            residues = [r for r in range(p) if _eval(coeffs, r, p) == 0]
            if all(_eval(deriv, r, p) for r in residues):
                break
        p += 2
    bound = 2 * (abs(lc) + max(map(abs, coeffs)))
    modulus = p
    while modulus <= bound:
        modulus *= modulus
        residues = [
            (r - _eval(coeffs, r, modulus) * pow(_eval(deriv, r, modulus), -1, modulus)) % modulus
            for r in residues
        ]
    deg = len(coeffs) - 1
    roots = []
    for r in residues:
        y = (lc * r + modulus // 2) % modulus - modulus // 2
        g = math.gcd(y, lc)
        num, den = y // g, lc // g
        # den^deg * f(num/den), evaluated in integers
        if sum(c * num**i * den ** (deg - i) for i, c in enumerate(coeffs)) == 0:
            roots.append((num, den))
    return roots


def _eval(coeffs: list[int], x: int, m: int) -> int:
    """The value at x modulo m of the integer polynomial coeffs."""
    value = 0
    for c in reversed(coeffs):
        value = (value * x + c) % m
    return value


def _zassenhaus(coeffs: list[int]) -> list[list[int]]:
    """Irreducible primitive integer factors of a primitive squarefree
    polynomial of degree >= 4 with no rational root: factor modulo small
    primes, Hensel-lift the factors of the one with the fewest, recombine.

    A rational factor reduces mod a good prime to a product of some of the
    modular factors, so its degree is a subset sum of every good prime's
    factor degrees: bit d of the mask ``allowed``.  Once no bit in 2..deg-2
    survives (1 and deg-1 would give a rational root), the polynomial is
    irreducible and no further prime is tried.  Each image is certified
    squarefree, so it is split directly.
    """
    deg = len(coeffs) - 1
    allowed, proper = (1 << deg + 1) - 1, (1 << deg - 1) - 4  # bits 0..deg, 2..deg-2
    factors, p, good, q = None, 0, 0, 1
    # the primes 3..47 with a budget of 3 good ones; past 47 only until one is
    # good, which always happens since the polynomial is squarefree
    while good < 3 and (q < 47 or not good):
        q += 2
        fq = _squarefree_mod(coeffs, q) if is_probable_prime(q) else None
        if fq is None:
            continue
        image = _distinct_degree_split(_monic(fq, q), q, random.Random(q))
        mask = 1
        for h in image:
            mask |= mask << len(h) - 1
        allowed &= mask
        if not allowed & proper:
            return [coeffs]
        if factors is None or len(image) < len(factors):
            factors, p = image, q
        good += 1
    # a factor g of degree < deg has coefficients at most 2^(deg-1) ||coeffs||_2
    # (Landau-Mignotte); a subset of lifted factors gives (lc / lc(g)) g, which
    # its residues in [-modulus/2, modulus/2] recover once modulus > 2 lc times that
    norm = math.isqrt(sum(c * c for c in coeffs)) + 1
    bound = 2 * coeffs[-1] * (norm << (len(coeffs) - 2))
    modulus = p
    while modulus <= bound:
        modulus *= p
    return _recombine(coeffs, _hensel_lift(coeffs, factors, p, modulus), modulus, allowed)


def _squarefree_mod(coeffs: list[int], q: int) -> list[int] | None:
    """The residues of f mod the prime q, for the primitive integer
    coefficients of f, when q does not divide the leading coefficient and f
    mod q is squarefree, which certifies that f is squarefree over Q; else None."""
    if coeffs[-1] % q == 0:
        return None
    fq = [c % q for c in coeffs]
    return fq if len(_gcd(fq, _derivative(fq, q), q)) == 1 else None


def _hensel_lift(coeffs: list[int], factors: list, p: int, modulus: int) -> list[list[int]]:
    """Monic lifts modulo `modulus`, a power of p, of the monic factors of
    coeffs modulo p, one p-adic digit per step (linear multifactor lifting)."""
    fp = [c % p for c in coeffs]
    # with s_u the inverse of f/u modulo u, the corrections s_u e mod u of
    # the factors u sum (times f/u) to any e of degree < deg f
    inverses = [_xgcd(_divmod(fp, u, p)[0], u, p)[1] for u in factors]
    lifted = [list(u) for u in factors]
    m = p
    while m < modulus:
        prod = [coeffs[-1]]
        for u in lifted:
            prod = _mul(prod, u)
        e = [(c - d) % (m * p) // m for c, d in zip(coeffs, prod)]
        for u, s, lift in zip(factors, inverses, lifted):
            for j, d in enumerate(_divmod(_mul(s, e), u, p)[1]):
                lift[j] += m * d
        m *= p
    return lifted


def _recombine(f: list[int], lifted: list[list[int]], m: int, allowed: int) -> list[list[int]]:
    """Primitive irreducible factors of f, from its monic factors lifted mod m.

    Subsets are tried by increasing size, up to half of what is left (a larger
    one is the complement of a smaller); a subset survives only if its degree
    d is allowed (bit d of the mask) and its trailing coefficient divides
    that of lc * f.
    """
    out = []
    half = m // 2  # m is odd: residues are taken in [-half, half]
    size = 1
    while 2 * size <= len(lifted):
        lc = f[-1]
        for subset in itertools.combinations(range(len(lifted)), size):
            if not allowed >> sum(len(lifted[i]) - 1 for i in subset) & 1:
                continue
            trailing = lc
            for i in subset:
                trailing = trailing * lifted[i][0] % m
            trailing = (trailing + half) % m - half
            if not trailing or (lc * f[0]) % trailing:
                continue
            g, h = [lc], [lc]
            for i, u in enumerate(lifted):
                if i in subset:
                    g = _mul(g, u)
                else:
                    h = _mul(h, u)
            g, h = ([(c + half) % m - half for c in v] for v in (g, h))
            if _mul(g, h) == [lc * c for c in f]:
                out.append(_primitive(g))
                f = _primitive(h)
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    out.append(f)
    return out


# -- over F_p ----------------------------------------------------------------

def _factor_fp(f: Polynomial, rng: random.Random) -> dict[Polynomial, int]:
    """Factor a monic polynomial over F_p (degree >= 1): one Polynomial per factor."""
    p, a = _values(f)
    return {Polynomial._of(f.field, p, h): e for h, e in _factor_residues(a, p, rng).items()}


def _factor_residues(f, p: int, rng: random.Random) -> dict[tuple, int]:
    """{monic irreducible factor: multiplicity} of monic residues f of degree >= 1."""
    deriv = _derivative(f, p)
    if not deriv:
        # f(X) = g(X)^p with g picking every p-th coefficient (c^(1/p) = c in F_p)
        return {h: e * p for h, e in _factor_residues(f[::p], p, rng).items()}
    irreducibles = _distinct_degree_split(_divmod(f, _gcd(f, deriv, p), p)[0], p, rng)
    mults, rem = _multiplicities(f, irreducibles, p)
    out = {tuple(h): e for h, e in zip(irreducibles, mults)}
    if len(rem) > 1:
        for h, e in _factor_residues(rem, p, rng).items():
            out[h] = out.get(h, 0) + e
    return out


def _distinct_degree_split(f: list, p: int, rng: random.Random) -> list[list]:
    """Irreducible factors of monic squarefree residues f."""
    out = []
    x = [0, 1]
    h = _divmod(x, f, p)[1]
    modulus = _Modulus(f, p)  # kept until a split changes f
    d = 0
    while len(f) > 1:
        d += 1
        if 2 * d > len(f) - 1:
            out.append(f)
            break
        h = modulus.power(h, p)
        g = _gcd(_add(h, x, p, -1), f, p)
        if len(g) > 1:
            out.extend(_equal_degree_split(g, d, p, rng))
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1]
            modulus = _Modulus(f, p)
    return out


def _equal_degree_split(g: list, d: int, p: int, rng: random.Random) -> list[list]:
    """Split monic residues g, a product of distinct degree-d irreducibles
    (Cantor-Zassenhaus): a draw w splits off gcd(w^((p^d - 1)/2) - 1, g),
    one power and one gcd per draw."""
    if len(g) - 1 == d:
        return [g]
    exp, modulus = (p**d - 1) // 2, _Modulus(g, p)
    while True:
        w = _reduced([rng.randrange(p) for _ in range(len(g) - 1)], p)
        if len(w) < 2:
            continue
        left = _gcd(_add(modulus.power(w, exp), [1], p, -1), g, p)
        if 1 < len(left) < len(g):
            right = _divmod(g, left, p)[0]
            return _equal_degree_split(left, d, p, rng) + _equal_degree_split(right, d, p, rng)


# ---------------------------------------------------------------------------
# squarefree part and factor-level operations
# ---------------------------------------------------------------------------

def squarefree_part(f: Polynomial) -> Polynomial:
    """Monic product of the distinct irreducible factors of f.

    In characteristic 0 this is f when f mod SQUAREFREE_PRIME certifies it
    squarefree, else f / gcd(f, f'): no factorization.  In characteristic p
    the gcd route breaks when a factor multiplicity is divisible by p (the
    derivative can vanish), so the result is assembled from the full
    factorization instead.
    """
    if f.is_zero:
        raise ZeroPolynomial("zero polynomial has no squarefree part")
    if f.degree == 0:
        return Polynomial.one(f.field)
    if f.field.characteristic == 0:
        if _squarefree_mod(_clear_denominators(f), SQUAREFREE_PRIME) is not None:
            return f.monic()
        p, a = _values(f)
        quotient = _divmod(a, _gcd(a, _derivative(a, p), p), p)[0]
        return Polynomial._of(f.field, p, _monic(quotient, p))
    return factor(f).radical(f.field)


def reduced_form(f: Polynomial) -> Polynomial:
    """The Tschirnhaus shift f(X - a_{d-1}/d) killing the subleading term.

    f must be monic of K-regular degree (char does not divide deg f); the
    shift is by the K-projection of f's roots, so the result has trace zero.
    """
    if f.degree < 1:
        raise ConstantPolynomial("reduced form needs degree >= 1")
    shift = k_projection_of_factor(f)
    return f.monic().compose(Polynomial(f.field, [shift, f.field.one]))


def splitting_bound(f: Polynomial) -> int:
    """Largest degree among the irreducible factors of f."""
    if f.is_zero:
        raise ZeroPolynomial("zero polynomial has no splitting bound")
    if f.degree < 1:
        raise ConstantPolynomial("constants have no splitting bound")
    return factor(f).max_degree


def k_projection_of_factor(f: Polynomial):
    """-a_{d-1}/d: the common K-projection of the roots of a monic irreducible f."""
    if f.degree < 1:
        raise ConstantPolynomial("K-projection needs degree >= 1")
    d = f.degree
    if not is_k_regular_degree(d, f.field):
        raise NotKRegular(f"degree {d} is divisible by the characteristic")
    f = f.monic()
    return -f.coeff(d - 1) / f.field.from_int(d)


def quad_factor_data(f: Polynomial):
    """(alpha, n) with roots alpha +- sqrt(-n) for a monic irreducible quadratic.

    alpha = -a_1/2 is the K-projection of the roots and n = a_0 - alpha^2 is
    minus the square of the vertical part; irreducibility over K is exactly
    -n being a non-square, which is verified.
    """
    if f.degree != 2:
        raise NotQuadratic(f"degree {f.degree} polynomial is not quadratic")
    alpha = k_projection_of_factor(f)
    n = f.monic().coeff(0) - alpha * alpha
    ok, _ = f.field.is_square(-n)
    if ok:
        raise Reducible("the quadratic splits over the ground field")
    return alpha, n
