"""Exact univariate polynomial arithmetic and factorization.

Polynomials are immutable, store their coefficients constant-first over an
explicit ground field, and support the ring operations, evaluation (at ground
or quadratic-extension scalars), derivative, composition, and exact division.

Factorization is complete for both supported ground fields:

* over Q: take the squarefree part, which is f itself, with no gcd over Q,
  when p = SQUAREFREE_PRIME does not divide the leading coefficient of f's
  primitive integer form and gcd(f mod p, f' mod p) = 1 (von zur Gathen &
  Gerhard, Modern Computer Algebra, ch. 14); clear denominators, pull the
  rational roots by lifting the roots modulo a small prime p-adically (no
  integer is factored; ibid., ch. 15), then Zassenhaus' modular
  algorithm: factor modulo small primes (their factor-degree patterns bound
  the degrees of rational factors and often certify irreducibility),
  Hensel-lift the factors modulo the prime with the fewest of them past a
  Landau-Mignotte coefficient bound, and recombine subsets of the lifted
  factors by increasing size, pruned by degree and by the trailing
  coefficient.  Only recombination is exponential: in the number r of
  modular factors, not in the degree, and it tries subsets of at most r/2
  factors.  Under the degree cap r <= 24, and in practice r is far smaller:
  the prime is the one of three with the fewest factors, each rational
  factor found removes its subset, and only subsets of a degree that every
  prime's pattern admits are multiplied out.  The search grows only when
  every prime splits the polynomial into many small factors, as for
  products of Swinnerton-Dyer polynomials;
* over F_p: distinct-degree splitting via modular Frobenius powers followed by
  equal-degree splitting, with p-th-root descent when the derivative vanishes.

A hard degree cap keeps the recombination bounded; factors are returned in a
canonical order so downstream results are deterministic.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

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
from .scalar import QQ, PrimeField, is_k_regular_degree, is_probable_prime

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
    """Univariate polynomial over a fixed ground field, constant term first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = [field.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field) -> "Polynomial":
        return cls(field, ())

    @classmethod
    def one(cls, field) -> "Polynomial":
        return cls(field, (field.one,))

    @classmethod
    def constant(cls, field, c) -> "Polynomial":
        return cls(field, (c,))

    @classmethod
    def x(cls, field) -> "Polynomial":
        return cls(field, (field.zero, field.one))

    # -- basic queries -------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    @property
    def leading(self):
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.leading == self.field.one

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        lc = self.leading
        if lc == self.field.one:
            return self
        inv = self.field.one / lc
        return Polynomial(self.field, [c * inv for c in self.coeffs])

    # -- ring operations -----------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.field != other.field:
            raise FieldMismatch("polynomials over different fields")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            self.field, [self.coeff(i) + other.coeff(i) for i in range(n)]
        )

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            self.field, [self.coeff(i) - other.coeff(i) for i in range(n)]
        )

    def __neg__(self):
        return Polynomial(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check(other)
            _, a, b = _values(self, other)
            return Polynomial(self.field, _mul(a, b))
        try:
            c = self.field.coerce(other)
        except (TypeError, FieldMismatch):
            return NotImplemented
        return Polynomial(self.field, [c * a for a in self.coeffs])

    __rmul__ = __mul__

    def __divmod__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        if other.is_zero:
            raise DivisionByZeroPoly("polynomial division by zero")
        p, rem, b = _values(self, other)
        rem = list(rem)
        dd = other.degree
        inv = pow(b[-1], -1, p) if p else 1 / b[-1]
        q = [0] * max(len(rem) - dd, 1)
        # the top coefficient is reduced when it is read; the rest once, by Polynomial()
        for k in range(len(rem) - 1 - dd, -1, -1):
            lead = rem.pop()
            if p:
                lead %= p
            if lead:
                q[k] = lead * inv % p if p else lead * inv
                rem[k : k + dd] = [r - q[k] * e for r, e in zip(rem[k:], b)]
        return Polynomial(self.field, q), Polynomial(self.field, rem)

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
        return Polynomial(
            self.field,
            [self.field.from_int(i) * c for i, c in enumerate(self.coeffs)][1:],
        )

    def __call__(self, x):
        """Evaluate at a ground or quadratic-extension scalar (Horner)."""
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, other: "Polynomial") -> "Polynomial":
        """self(other(X)) by Horner over the polynomial ring."""
        self._check(other)
        acc = Polynomial.zero(self.field)
        for c in reversed(self.coeffs):
            acc = acc * other + Polynomial.constant(self.field, c)
        return acc

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def sort_key(self):
        return (self.degree, tuple(self.field.sort_key(c) for c in self.coeffs))

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


def _values(*polys):
    """(p, the coefficients of each poly) to compute on: p and int residues
    over F_p, else 0 and the elements themselves.  Results go back through
    ``Polynomial()``, which reduces residues mod p once each."""
    p = polys[0].field.characteristic
    if p:
        return (p, *([c.residue for c in f.coeffs] for f in polys))
    return (0, *(f.coeffs for f in polys))


def _mul(a, b) -> list:
    """The coefficients of a b, unreduced, skipping the zero ones of a."""
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            out[i : i + len(b)] = [o + c * e for o, e in zip(out[i:], b)]
    return out


# ---------------------------------------------------------------------------
# gcd family
# ---------------------------------------------------------------------------

def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd; raises BothZero on gcd(0, 0)."""
    if f.is_zero and g.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    a, b = f, g
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def poly_xgcd(f: Polynomial, g: Polynomial):
    """Extended gcd: returns (d, u, v) with u*f + v*g = d, d monic."""
    if f.is_zero and g.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    field = f.field
    r0, r1 = f, g
    u0, u1 = Polynomial.one(field), Polynomial.zero(field)
    v0, v1 = Polynomial.zero(field), Polynomial.one(field)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    lc = r0.leading
    inv = field.one / lc
    return inv * r0, inv * u0, inv * v0


def poly_lcm(f: Polynomial, g: Polynomial) -> Polynomial:
    if f.is_zero or g.is_zero:
        return Polynomial.zero(f.field)
    return ((f * g) // poly_gcd(f, g)).monic()


def poly_powmod(base: Polynomial, e: int, mod: Polynomial) -> Polynomial:
    """base**e reduced modulo mod (square and multiply)."""
    result = Polynomial.one(base.field)
    acc = base % mod
    while e:
        if e & 1:
            result = result * acc % mod
        acc = acc * acc % mod
        e >>= 1
    return result


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
    out, rem = _multiplicities(f, _factor_squarefree_q(squarefree_part(f)))
    if rem.degree != 0:
        raise FactorizationFailed("incomplete factor set")  # pragma: no cover
    return out


def _multiplicities(f: Polynomial, irreducibles):
    """({h: multiplicity of h in f}, the cofactor of f left by the irreducibles)."""
    out: dict[Polynomial, int] = {}
    rem = f
    for h in irreducibles:
        e = 0
        while True:
            q, r = divmod(rem, h)
            if not r.is_zero:
                break
            rem = q
            e += 1
        out[h] = e
    return out, rem


def _factor_squarefree_q(f: Polynomial) -> list[Polynomial]:
    """Monic irreducible factors of a monic squarefree polynomial over Q."""
    out: list[Polynomial] = []
    # strip a power of X
    if f.coeff(0) == QQ.zero:
        out.append(Polynomial.x(QQ))
        f = f // Polynomial.x(QQ)
    if f.degree == 0:
        return out
    coeffs = _clear_denominators(f)
    for root_num, root_den in _rational_roots(coeffs):
        out.append(Polynomial(QQ, [Fraction(-root_num, root_den), Fraction(1)]))
        f = f // out[-1]
    if f.degree == 0:
        return out
    if f.degree <= 3:
        out.append(f)  # no rational roots, so degrees 1..3 are settled
        return out
    out.extend(_monic(h) for h in _zassenhaus(_clear_denominators(f)))
    return out


def _clear_denominators(f: Polynomial) -> list[int]:
    """Primitive integer coefficient list with positive leading coefficient."""
    den = math.lcm(*(c.denominator for c in f.coeffs))
    return _primitive([int(c * den) for c in f.coeffs])


def _primitive(ints: list[int]) -> list[int]:
    """ints divided by their content, signed so the leading coefficient is positive."""
    content = math.gcd(*ints)
    if ints[-1] < 0:
        content = -content
    return [c // content for c in ints]


def _monic(int_coeffs: list[int]) -> Polynomial:
    lc = int_coeffs[-1]
    return Polynomial(QQ, [Fraction(c, lc) for c in int_coeffs])


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
    polynomial of degree >= 4: factor modulo a prime, Hensel-lift, recombine."""
    modular = _modular_factors(coeffs)
    if modular is None:
        return [coeffs]
    allowed, factors = modular
    p = factors[0].field.characteristic
    # a factor g of degree < deg has coefficients at most 2^(deg-1) ||coeffs||_2
    # (Landau-Mignotte); a subset of lifted factors gives (lc / lc(g)) g, which
    # its residues in [-modulus/2, modulus/2] recover once modulus > 2 lc times that
    norm = math.isqrt(sum(c * c for c in coeffs)) + 1
    bound = 2 * coeffs[-1] * (norm << (len(coeffs) - 2))
    modulus = p
    while modulus <= bound:
        modulus *= p
    return _recombine(coeffs, _hensel_lift(coeffs, factors, modulus), modulus, allowed)


def _modular_factors(coeffs: list[int]) -> tuple[set[int], list[Polynomial]] | None:
    """Degrees a rational factor can have, and the factors modulo one prime.

    Returns None when the polynomial is certified irreducible: by some
    modular image, or because no proper degree survives.  Every rational
    factor reduces mod a good prime to a product of a sub-multiset of the
    modular irreducible factors, so its degree must be a subset sum of every
    good prime's degree multiset.  The factors returned are those of the good
    prime with the fewest, which keeps recombination smallest.
    """
    deg = len(coeffs) - 1
    allowed = set(range(deg + 1))
    fewest = None
    good = 0
    q = 1
    # the primes 3..47 with a budget of 3 good ones; past 47 only until one is
    # good, which always happens since the polynomial is squarefree
    while good < 3 and (q < 47 or not good):
        q += 2
        fq = _squarefree_mod(coeffs, q) if is_probable_prime(q) else None
        if fq is None:
            continue
        factors = list(_factor_fp(fq.monic(), random.Random(q)))
        degs = [h.degree for h in factors]
        if degs == [deg]:
            return None
        mask = 1
        for d in degs:
            mask |= mask << d
        allowed &= {d for d in range(deg + 1) if (mask >> d) & 1}
        if fewest is None or len(factors) < len(fewest):
            fewest = factors
        good += 1
    if not any(2 <= d <= deg - 2 for d in allowed):
        return None
    return allowed, fewest


def _squarefree_mod(coeffs: list[int], q: int) -> Polynomial | None:
    """f mod the prime q, for the primitive integer coefficients of f, when q
    does not divide the leading coefficient and f mod q is squarefree, which
    certifies that f is squarefree over Q; else None."""
    if coeffs[-1] % q == 0:
        return None
    fq = Polynomial(PrimeField(q), coeffs)
    return fq if poly_gcd(fq, fq.derivative()).degree == 0 else None


def _hensel_lift(coeffs: list[int], factors: list[Polynomial], modulus: int) -> list[list[int]]:
    """Monic lifts modulo `modulus`, a power of p, of the monic factors of
    coeffs modulo p, one p-adic digit per step (linear multifactor lifting)."""
    field = factors[0].field
    p = field.characteristic
    fp = Polynomial(field, [field.from_int(c) for c in coeffs])
    # with s_u the inverse of f/u modulo u, the corrections s_u e mod u of
    # the factors u sum (times f/u) to any e of degree < deg f
    inverses = [poly_xgcd(fp // u, u)[1] for u in factors]
    lifted = [[c.residue for c in u.coeffs] for u in factors]
    m = p
    while m < modulus:
        prod = [coeffs[-1]]
        for u in lifted:
            prod = _mul(prod, u)
        e = Polynomial(field, [(c - d) % (m * p) // m for c, d in zip(coeffs, prod)])
        for u, s, lift in zip(factors, inverses, lifted):
            for j, d in enumerate((s * e % u).coeffs):
                lift[j] += m * d.residue
        m *= p
    return lifted


def _recombine(f: list[int], lifted: list[list[int]], m: int, allowed: set[int]) -> list[list[int]]:
    """Primitive irreducible factors of f, from its monic factors lifted mod m.

    Subsets are tried by increasing size, up to half of what is left (a larger
    one is the complement of a smaller); a subset survives only if its degree
    is allowed and its trailing coefficient divides that of lc * f.
    """
    out = []
    half = m // 2  # m is odd: residues are taken in [-half, half]
    size = 1
    while 2 * size <= len(lifted):
        lc = f[-1]
        for subset in itertools.combinations(range(len(lifted)), size):
            if sum(len(lifted[i]) - 1 for i in subset) not in allowed:
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
    """Factor a monic polynomial over F_p (degree >= 1)."""
    field = f.field
    p = field.characteristic
    if f.degree == 0:
        return {}
    deriv = f.derivative()
    if deriv.is_zero:
        # f(X) = g(X)^p with g picking every p-th coefficient (c^(1/p) = c in F_p)
        g = Polynomial(field, f.coeffs[::p])
        return {h: e * p for h, e in _factor_fp(g, rng).items()}
    sep = (f // poly_gcd(f, deriv)).monic()
    out, rem = _multiplicities(f, _distinct_degree_split(sep, rng))
    if rem.degree > 0:
        for h, e in _factor_fp(rem.monic(), rng).items():
            out[h] = out.get(h, 0) + e
    return out


def _distinct_degree_split(f: Polynomial, rng: random.Random) -> list[Polynomial]:
    """Irreducible factors of a monic squarefree polynomial over F_p."""
    field = f.field
    p = field.characteristic
    out: list[Polynomial] = []
    x = Polynomial.x(field)
    h = x % f
    d = 0
    while f.degree >= 1:
        d += 1
        if 2 * d > f.degree:
            out.append(f)
            break
        h = poly_powmod(h, p, f)
        g = poly_gcd(h - x, f)
        if g.degree > 0:
            out.extend(_equal_degree_split(g, d, rng))
            f = (f // g).monic()
            h = h % f
    return out


def _equal_degree_split(g: Polynomial, d: int, rng: random.Random) -> list[Polynomial]:
    """Split a product of distinct degree-d irreducibles (Cantor-Zassenhaus)."""
    field = g.field
    p = field.characteristic
    if g.degree == d:
        return [g.monic()]
    exp = (p**d - 1) // 2
    one = Polynomial.one(field)
    while True:
        w = Polynomial(field, [field.from_int(rng.randrange(p)) for _ in range(g.degree)])
        if w.degree < 1:
            continue
        shared = poly_gcd(w, g)
        if 0 < shared.degree < g.degree:
            left = shared
        else:
            c = poly_powmod(w, exp, g)
            left = poly_gcd(c - one, g)
            if not 0 < left.degree < g.degree:
                continue
        right = (g // left).monic()
        return _equal_degree_split(left.monic(), d, rng) + _equal_degree_split(
            right, d, rng
        )


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
        return (f // poly_gcd(f, f.derivative())).monic()
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
