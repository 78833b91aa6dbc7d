"""Ground fields, quadratic extension scalars, and their K-decomposition.

A scalar is either a *ground* element (``fractions.Fraction`` over Q, an
``FpElement`` over F_p) or a ``QuadElement`` ``a + b*sqrt(d)`` lying in a
quadratic extension of the ground field.  Every element of such an extension
splits uniquely as horizontal part (in K) plus vertical part (trace-zero over
K), and the extension carries the conjugation involution and the relative norm
``a^2 - b^2 d``.

Radicals are kept canonical so equality is syntactic:

* over Q, ``d`` is a squarefree integer different from 0 and 1 (square factors
  and denominators are absorbed into ``b``; ``sqrt(s*c^2) = c*sqrt(s)`` by
  convention, with ``c > 0``);
* over F_p, ``d`` is the smallest positive quadratic non-residue (any other
  non-residue differs from it by a square factor, which moves into ``b``;
  square roots of residues use the smaller of the two roots).

Over Q, ``d`` is squarefree whenever a value is built, and no integer is
factored: a radicand from outside (the parser, ``sqrt``) is reduced once, by
trial division up to the cube root of its cofactor and one ``isqrt`` square
test (Cohen, GTM 138, section 1.7); arithmetic keeps the ``d`` of its
operands.  A cofactor that is no square and stays at least LIMIT^3 after
division up to LIMIT = 2^20 raises ``CapExceeded``: 2^20 decides every
radicand up to 2^60 within about 0.1 s.

Fields of characteristic 2 are rejected outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CapExceeded,
    CharTwo,
    FieldMismatch,
    MixedExtension,
    NotImaginary,
    NotPrime,
    SchemaMismatch,
)

__all__ = [
    "QQ",
    "RationalField",
    "PrimeField",
    "FpElement",
    "QuadElement",
    "quad_element",
    "AbsValue",
    "field_from_tag",
    "is_probable_prime",
    "squarefree_decompose",
    "tonelli_shanks",
    "padic_valuation",
    "k_decompose",
    "involution",
    "k_norm",
    "re_im",
    "is_k_regular_degree",
]


# ---------------------------------------------------------------------------
# integer helpers
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

LIMIT = 1 << 20  # trial division bound of squarefree_decompose (module docstring)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the fixed 12-base set (exact below 3.3e24)."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write nonzero n as s * c**2 with s squarefree and c > 0; return (s, c).

    After trial division by every q with q^3 <= the cofactor m, m is 1, a
    prime, a prime's square or a product of two primes: one isqrt decides.
    """
    if n == 0:
        raise ValueError("zero has no squarefree decomposition")
    m, s, c = abs(n), 1, 1
    q = 2
    while q <= LIMIT and q * q * q <= m:
        if m % q == 0:
            e = 0
            while m % q == 0:
                m //= q
                e += 1
            c *= q ** (e // 2)
            if e % 2:
                s *= q
        q += 1 if q == 2 else 2
    root = math.isqrt(m)
    if root * root == m:
        c *= root
    elif q * q * q <= m:
        raise CapExceeded(f"radicand {n} keeps a cofactor past {LIMIT}^3 after trial division")
    else:
        s *= m
    return (s if n > 0 else -s), c


def tonelli_shanks(a: int, p: int) -> int:
    """The smaller square root of the residue a modulo the odd prime p."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError(f"{a} is not a quadratic residue mod {p}")
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # write p - 1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)


def padic_valuation(x, p: int):
    """v_p(x) for a Fraction or int; math.inf for zero."""
    if x == 0:
        return math.inf

    def vint(m: int) -> int:
        v = 0
        while m % p == 0:
            m //= p
            v += 1
        return v

    return vint(x.numerator) - vint(x.denominator)


# ---------------------------------------------------------------------------
# ground fields
# ---------------------------------------------------------------------------

def _literal_value(s) -> tuple[int, int]:
    """(n, d), d > 0, with n / d the value Fraction reads in the string s,
    or Fraction's ValueError or ZeroDivisionError; a ValueError when s is
    not a string.  A string n or n/d whose parts int reads, n ending and d
    made of digits, skips Fraction, which reads it as n / d about twenty
    times slower; every literal finefrob prints is one."""
    if not isinstance(s, str):
        raise ValueError("a literal must be a string")
    num, slash, den = s.partition("/")
    if not slash or num[-1:].isdigit() and den.isdigit():
        try:
            n, d = int(num), int(den) if slash else 1
            if d:
                return n, d
        except ValueError:
            pass
    x = Fraction(s)
    return x.numerator, x.denominator


class RationalField:
    """The rational numbers, with Fraction as the element type."""

    characteristic = 0
    tag = "Q"

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def from_int(self, k: int) -> Fraction:
        return Fraction(k)

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def is_ground(self, x) -> bool:
        return isinstance(x, (Fraction, int))

    def parse(self, s: str) -> Fraction:
        return Fraction(*self.parse_value(s))

    def parse_value(self, s: str) -> tuple[int, int]:
        """(n, d), d > 0, with n / d the value of the literal s; SchemaMismatch
        unless s is a string that reads as a rational."""
        try:
            return _literal_value(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaMismatch(f"bad rational literal {s!r}") from exc

    def to_str(self, x) -> str:
        x = self.coerce(x)
        return self.value_str(x.numerator, x.denominator)

    def value_str(self, n: int, d: int) -> str:
        """The literal of n / d, d > 0, in lowest terms."""
        g = math.gcd(n, d)
        n, d = n // g, d // g
        try:
            return str(n) if d == 1 else f"{n}/{d}"
        except ValueError as exc:  # past Python's int-to-str digit limit
            bits = max(n.bit_length(), d.bit_length())
            raise CapExceeded(f"a {bits}-bit rational is too long to print") from exc

    def is_square(self, x) -> tuple[bool, Fraction | None]:
        """Whether x is a square in Q; if so, also its nonnegative root."""
        x = self.coerce(x)
        if x < 0:
            return False, None
        if x == 0:
            return True, Fraction(0)
        rn = math.isqrt(x.numerator)
        rd = math.isqrt(x.denominator)
        if rn * rn == x.numerator and rd * rd == x.denominator:
            return True, Fraction(rn, rd)
        return False, None

    def sqrt(self, x):
        """Exact square root of x: a Fraction when x is a square, else a QuadElement."""
        x = self.coerce(x)
        return quad_element(self, 0, 1, x) if x else x

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class FpElement:
    """An element of F_p; arithmetic stays within one fixed p."""

    __slots__ = ("residue", "p")

    def __init__(self, residue: int, p: int):
        self.residue = residue % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise FieldMismatch(f"mixed moduli {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FpElement(self.residue + o.residue, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FpElement(self.residue - o.residue, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FpElement(o.residue - self.residue, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FpElement(self.residue * o.residue, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.residue == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpElement(self.residue * pow(o.residue, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return FpElement(-self.residue, self.p)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            if self.residue == 0:
                raise ZeroDivisionError("inverse of zero in F_p")
            return FpElement(pow(self.residue, -k * (self.p - 2), self.p), self.p)
        return FpElement(pow(self.residue, k, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.residue == other.residue
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.residue))

    def __bool__(self):
        return self.residue != 0

    def __repr__(self):
        return f"FpElement({self.residue}, p={self.p})"


class PrimeField:
    """F_p for an odd prime p."""

    characteristic: int

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_probable_prime(p):
            raise NotPrime(f"{p!r} is not prime")
        if p == 2:
            raise CharTwo("characteristic 2 is not supported")
        self.p = p
        self.characteristic = p
        self.tag = f"Fp:{p}"
        self._nonresidue: int | None = None

    @property
    def zero(self) -> FpElement:
        return FpElement(0, self.p)

    @property
    def one(self) -> FpElement:
        return FpElement(1, self.p)

    def from_int(self, k: int) -> FpElement:
        return FpElement(k, self.p)

    def coerce(self, x) -> FpElement:
        if isinstance(x, FpElement):
            if x.p != self.p:
                raise FieldMismatch(f"element of F_{x.p} used in F_{self.p}")
            return x
        if isinstance(x, int):
            return FpElement(x, self.p)
        raise TypeError(f"cannot coerce {x!r} into F_{self.p}")

    def is_ground(self, x) -> bool:
        return isinstance(x, int) or (isinstance(x, FpElement) and x.p == self.p)

    def parse(self, s: str) -> FpElement:
        return FpElement(self.parse_value(s)[0], self.p)

    def parse_value(self, s: str) -> tuple[int, int]:
        """(the residue of the literal s, 1)."""
        try:
            n, d = _literal_value(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaMismatch(f"bad F_{self.p} literal {s!r}") from exc
        if d == 1:
            return n % self.p, 1
        g = math.gcd(n, d)
        if d // g % self.p == 0:
            raise SchemaMismatch(f"literal {s!r} has denominator divisible by {self.p}")
        return n // g * pow(d // g, -1, self.p) % self.p, 1

    def to_str(self, x) -> str:
        return str(self.coerce(x).residue)

    def value_str(self, n: int, d: int) -> str:
        """The literal of a residue n (d is 1)."""
        return str(n)

    @property
    def nonresidue(self) -> int:
        """Smallest positive quadratic non-residue modulo p."""
        if self._nonresidue is None:
            c = 2
            while pow(c, (self.p - 1) // 2, self.p) != self.p - 1:
                c += 1
            self._nonresidue = c
        return self._nonresidue

    def is_square(self, x) -> tuple[bool, FpElement | None]:
        x = self.coerce(x)
        if x.residue == 0:
            return True, self.zero
        if pow(x.residue, (self.p - 1) // 2, self.p) == 1:
            return True, FpElement(tonelli_shanks(x.residue, self.p), self.p)
        return False, None

    def sqrt(self, x):
        """Exact square root: an FpElement for residues, else b*sqrt(nonresidue)."""
        x = self.coerce(x)
        return quad_element(self, 0, 1, x) if x.residue else x

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


def field_from_tag(tag: str):
    """Parse a field tag: "Q" or "Fp:<p>"."""
    if tag == "Q":
        return QQ
    if isinstance(tag, str) and tag.startswith("Fp:"):
        try:
            p = int(tag[3:])
        except ValueError as exc:
            raise SchemaMismatch(f"bad field tag {tag!r}") from exc
        return PrimeField(p)
    raise SchemaMismatch(f"bad field tag {tag!r}")


# ---------------------------------------------------------------------------
# quadratic extension elements
# ---------------------------------------------------------------------------

class QuadElement:
    """a + b*sqrt(d) with a, b ground elements, d canonical, and b != 0.

    Values from outside are built through :func:`quad_element`, which
    canonicalizes d; arithmetic builds its results on the canonical d it
    already holds, through :func:`_quad`.  Both collapse b == 0 back to the
    ground field.
    """

    __slots__ = ("field", "a", "b", "d")

    def __init__(self, field, a, b, d: int, _token=None):
        if _token is not _QUAD_TOKEN:
            raise TypeError("use quad_element() to construct QuadElement")
        self.field = field
        self.a = a
        self.b = b
        self.d = d

    # -- helpers ------------------------------------------------------------

    def _lift(self, other):
        """Return (a, b) of other viewed in this extension, or None."""
        if isinstance(other, QuadElement):
            if other.field != self.field:
                raise FieldMismatch("elements over different ground fields")
            if other.d != self.d:
                raise MixedExtension(
                    f"cannot mix sqrt({self.d}) with sqrt({other.d})"
                )
            return other.a, other.b
        if self.field.is_ground(other):
            return self.field.coerce(other), self.field.zero
        return None

    @property
    def is_vertical(self) -> bool:
        return self.a == self.field.zero

    def conjugate(self) -> "QuadElement":
        return _quad(self.field, self.a, -self.b, self.d)

    def norm(self):
        """Relative norm a^2 - b^2 d (a ground element)."""
        return self.a * self.a - self.b * self.b * self.field.from_int(self.d)

    def inverse(self):
        nrm = self.norm()
        if nrm == self.field.zero:
            raise ZeroDivisionError("inverse of zero")
        return _quad(self.field, self.a / nrm, -self.b / nrm, self.d)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        lifted = self._lift(other)
        if lifted is None:
            return NotImplemented
        oa, ob = lifted
        return _quad(self.field, self.a + oa, self.b + ob, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        lifted = self._lift(other)
        if lifted is None:
            return NotImplemented
        oa, ob = lifted
        return _quad(self.field, self.a - oa, self.b - ob, self.d)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        lifted = self._lift(other)
        if lifted is None:
            return NotImplemented
        oa, ob = lifted
        dg = self.field.from_int(self.d)
        return _quad(
            self.field,
            self.a * oa + self.b * ob * dg,
            self.a * ob + self.b * oa,
            self.d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        lifted = self._lift(other)
        if lifted is None:
            return NotImplemented
        oa, ob = lifted
        if ob == self.field.zero:
            if oa == self.field.zero:
                raise ZeroDivisionError("division by zero")
            return _quad(self.field, self.a / oa, self.b / oa, self.d)
        return self * _quad(self.field, oa, ob, self.d).inverse()

    def __rtruediv__(self, other):
        return self.inverse().__mul__(other)

    def __neg__(self):
        return _quad(self.field, -self.a, -self.b, self.d)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = self.field.one
        base = self
        while k:
            if k & 1:
                result = base * result
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, QuadElement):
            return (
                self.field == other.field
                and self.d == other.d
                and self.a == other.a
                and self.b == other.b
            )
        if self.field.is_ground(other):
            return False  # b != 0 by construction
        return NotImplemented

    def __hash__(self):
        return hash((self.d, self.a, self.b))

    def __repr__(self):
        return f"({self.field.to_str(self.a)} + {self.field.to_str(self.b)}*sqrt({self.d}))"


_QUAD_TOKEN = object()


def parse_values(field, literals) -> tuple[list, int]:
    """(numerators, d) with numerators / d the literals read as ``field.parse``
    reads them, no element built: all at once by ``int`` when it reads them
    all, else one by one by ``field.parse_value`` over the lcm of their
    denominators (d = 1 over F_p)."""
    try:
        return [int(s, 10) for s in literals], 1
    except (TypeError, ValueError):
        values = [field.parse_value(s) for s in literals]
    d = math.lcm(*(k for _, k in values))
    return [x * (d // k) for x, k in values], d


def _scalar_value(field, c) -> tuple[int, int]:
    """(k, den) with c = k / den, for c an int or a ground element of field."""
    p = field.characteristic
    if isinstance(c, FpElement) and p:
        if c.p != p:
            raise FieldMismatch(f"mixed moduli {p} and {c.p}")
        return c.residue, 1
    if isinstance(c, int) or isinstance(c, Fraction) and not p:
        return c.numerator, c.denominator
    raise TypeError(f"cannot scale by {c!r} over {field!r}")


def _quad(field, a, b, d: int):
    """a + b*sqrt(d) for ground elements a, b and a canonical d; a when b == 0."""
    if not b:
        return a
    return QuadElement(field, a, b, d, _token=_QUAD_TOKEN)


def quad_element(field, a, b, d):
    """Build a + b*sqrt(d), canonicalizing d and reducing to the ground field.

    Over Q, d may be any nonzero int or Fraction; the result uses the
    squarefree part of d.  Over F_p, d may be any nonzero residue; the result
    uses the canonical non-residue (or reduces to the ground field when d is a
    residue).  b == 0 always yields the plain ground element a.
    """
    a = field.coerce(a)
    b = field.coerce(b)
    if field.characteristic == 0:
        d = QQ.coerce(d)
        if d == 0:
            raise ValueError("d must be nonzero")
        s, c = squarefree_decompose(d.numerator * d.denominator)
        b = b * Fraction(c, d.denominator)
        if s == 1:
            return a + b
        return _quad(field, a, b, s)
    # prime field
    dg = field.coerce(d)
    if dg.residue == 0:
        raise ValueError("d must be nonzero")
    ok, root = field.is_square(dg)
    if ok:
        return a + b * root
    # dg = nonresidue * square
    nr = field.nonresidue
    ratio = dg / field.from_int(nr)
    c = tonelli_shanks(ratio.residue, field.p)
    return _quad(field, a, b * field.from_int(c), nr)


# ---------------------------------------------------------------------------
# K-decomposition operations
# ---------------------------------------------------------------------------

def k_decompose(x):
    """Split x into (horizontal, vertical): x = h + v with h in K, v trace-zero."""
    if isinstance(x, QuadElement):
        field = x.field
        if x.a == field.zero:
            return field.zero, x
        return x.a, _quad(field, field.zero, x.b, x.d)
    return x, _ground_zero_like(x)


def _ground_zero_like(x):
    if isinstance(x, FpElement):
        return FpElement(0, x.p)
    return Fraction(0)


def involution(x):
    """The K-involution: fixes K, negates the vertical part."""
    if isinstance(x, QuadElement):
        return x.conjugate()
    return x


def k_norm(x):
    """x * involution(x): a^2 - b^2 d for quadratic x, x^2 for ground x."""
    if isinstance(x, QuadElement):
        return x.norm()
    return x * x


def re_im(x):
    """Real and imaginary parts of a non-real x = a + b*sqrt(d), d < 0, over Q.

    Returns (a, b*sqrt(|d|)) with the imaginary magnitude as exact data
    (a Fraction when |d| = 1, else a vertical QuadElement over sqrt(|d|)).
    """
    if not isinstance(x, QuadElement):
        raise NotImaginary("ground elements are not non-real")
    if x.field.characteristic != 0:
        raise NotImaginary("real/imaginary split needs an ordered ground field")
    if x.d > 0:
        raise NotImaginary(f"sqrt({x.d}) is real")
    return x.a, x.b if x.d == -1 else _quad(x.field, x.field.zero, x.b, -x.d)


def is_k_regular_degree(d: int, field) -> bool:
    """Whether an irreducible factor of degree d keeps K-regularity over field."""
    if d < 1:
        return False
    char = field.characteristic
    return char == 0 or d % char != 0


# ---------------------------------------------------------------------------
# absolute values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbsValue:
    """An absolute-value kind on Q: archimedean, trivial, or p-adic."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in ("arch", "trivial", "padic"):
            raise SchemaMismatch(f"unknown absolute value kind {self.kind!r}")
        if self.kind == "padic":
            if not isinstance(self.p, int) or not is_probable_prime(self.p):
                raise NotPrime(f"p-adic absolute value needs a prime, got {self.p!r}")
        elif self.p is not None:
            raise SchemaMismatch(f"{self.kind} absolute value takes no prime")

    @classmethod
    def archimedean(cls) -> "AbsValue":
        return cls("arch")

    @classmethod
    def trivial(cls) -> "AbsValue":
        return cls("trivial")

    @classmethod
    def padic(cls, p: int) -> "AbsValue":
        return cls("padic", p)

    def __repr__(self):
        if self.kind == "padic":
            return f"AbsValue(padic, p={self.p})"
        return f"AbsValue({self.kind})"
