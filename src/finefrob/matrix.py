"""Exact square matrices and minimal polynomials.

Matrices are immutable, square, and live over an explicit ground field;
entries may be ground elements or elements of one fixed quadratic extension
(mixing distinct radicals in one matrix is rejected).  The minimal polynomial
is computed deterministically as a product of Krylov relations: each basis
vector e_j that the product mu so far does not annihilate multiplies mu by
the relation of mu(M) e_j, which makes mu lcm(mu, ann(e_j)) with no gcd and
no factorization; with quadratic entries a product off the ground field
raises FieldMismatch.

A matrix stores the form its kernels compute on, (p, rows, d) for rows / d,
as FLINT's fmpq_mat keeps integer numerators over one denominator: int
residues in [0, p) over F_p with d = 1, and over Q the integer matrix
a = d M, d > 0 prime to every numerator.  Sums, scalings, products, equality,
hashing, parsing and printing run on that state with plain ints, one loop for
both fields (a product is (a b, da db)); ``Matrix._of`` makes each result
canonical, so equal matrices have equal states, and ``rows`` and ``entry``
build elements only when asked.  Over F_p products and matrix-vector steps
run on packed ints (``poly._pack``): ``_matvec`` packs the columns of A once,
in slots of ``poly._slot(p, n)`` bits, wide enough for a sum of n products
of residues in [0, p), and A v is one sum of the products of those ints with
the residues of v, unpacked to reduced residues; a product a b applies b's
``_matvec`` to each row of a.  Over Q and with quadratic entries they are
dot products of lists.  Polynomials are evaluated at a matrix on
one path, ``eval_polys_at_matrix``: the powers I, M, ..., M^e are computed
once, reduced mod p over F_p, and every polynomial is a linear combination
of them, with the integer numerators of its state (coeffs, d) as
multipliers.  Over Q the Krylov relations come from fraction-free elimination
with exact division (Bareiss, Math. Comp. 22, 1968), and X -> dX turns the
minimal polynomial of a into M's on the integers, as the state
(mu_k d^k, lead d^deg).  Only with quadratic entries (p None) are
the elements stored and the loops run on them.  ``rank`` and ``inverse``
always do, in one Gauss-Jordan loop (``inverse`` reduces [M | I]).

``Spectrum`` is the spectral data every decomposition reads: the minimal
polynomial together with its factorization into monic irreducibles, built
once per matrix by ``spectrum(m)`` and passed on instead of being
recomputed.  It also answers K-regularity (``irregular_degree``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, zip_longest

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    MixedExtension,
    NotInvertible,
    NotKRegular,
)
from .poly import Factorization, Polynomial, _mul, _pack, _slot, _unpack, factor, squarefree_part
from .scalar import FpElement, QuadElement, _scalar_value, is_k_regular_degree, parse_values

__all__ = [
    "Matrix",
    "eval_poly_at_matrix",
    "eval_polys_at_matrix",
    "minimal_polynomial",
    "Spectrum",
    "spectrum",
    "is_k_regular_matrix",
    "is_semisimple",
    "is_nilpotent",
    "splitting_bound_of_matrix",
]


class Matrix:
    """An immutable n x n matrix over a ground field (or one quadratic extension).

    Its state is the kernel form (p, rows, d) of ``_values``, the matrix
    being rows / d: over F_p, p and int residues in [0, p) with d = 1; over
    Q, 0 and integer numerators over d > 0 with gcd(d, every numerator) = 1,
    so d = 1 for the zero matrix; with quadratic entries, None and the
    elements, d = 1.  Equal matrices have equal states.  ``rows`` and
    ``entry`` are views that build elements on each call.
    """

    __slots__ = ("field", "n", "_p", "_rows", "_d")

    def __init__(self, field, rows):
        """From rows of elements of ``field`` or ints, each coerced once."""
        rows = _square([[e if isinstance(e, QuadElement) else field.coerce(e) for e in row]
                        for row in rows])
        quads = [e for row in rows for e in row if isinstance(e, QuadElement)]
        if any(e.field != field for e in quads):
            raise FieldMismatch("entry over a different ground field")
        if len({e.d for e in quads}) > 1:
            raise MixedExtension("matrix entries mix distinct quadratic extensions")
        self.field, self.n = field, len(rows)
        self._p, self._rows, self._d = _canonical(field, None, rows, 1)

    # -- constructors --------------------------------------------------------

    @classmethod
    def _of(cls, field, p, rows, d=1) -> "Matrix":
        """rows / d from a kernel, p as ``_values`` gave it, in canonical form:
        residues reduced mod p, numerators and d divided by their gcd, and
        elements (p None) turned into ints when no quadratic entry is left."""
        m = object.__new__(cls)
        m.field, m.n = field, len(rows)
        m._p, m._rows, m._d = _canonical(field, p, rows, d)
        return m

    @classmethod
    def parse(cls, field, rows) -> "Matrix":
        """From rows of literals, each read as ``field.parse`` reads it, with
        no element built: all at once by ``int`` when it reads them all."""
        rows = _square(rows)
        n = len(rows)
        values, d = parse_values(field, [s for row in rows for s in row])
        rows = [values[i : i + n] for i in range(0, n * n, n)]
        return cls._of(field, field.characteristic, rows, d)

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        return cls._of(field, field.characteristic, _identity(n))

    @classmethod
    def zeros(cls, field, n: int) -> "Matrix":
        return cls._of(field, field.characteristic, [[0] * n for _ in range(n)])

    @classmethod
    def diagonal(cls, field, entries) -> "Matrix":
        entries = list(entries)
        return cls(field, [[e if i == j else 0 for j in range(len(entries))]
                           for i, e in enumerate(entries)])

    @classmethod
    def companion(cls, poly: Polynomial) -> "Matrix":
        """Companion matrix of a monic polynomial of degree >= 1."""
        field = poly.field
        poly = poly.monic()
        d = poly.degree
        if d < 1:
            raise DimensionMismatch("companion matrix needs degree >= 1")
        rows = [[field.zero] * d for _ in range(d)]
        for i in range(1, d):
            rows[i][i - 1] = field.one
        for i in range(d):
            rows[i][d - 1] = -poly.coeff(i)
        return cls(field, rows)

    # -- structure -----------------------------------------------------------

    @property
    def rows(self) -> tuple:
        """The entries as elements, built on this call."""
        p, rows = self._p, self._rows
        if p is None:
            return rows
        make, k = (FpElement, p) if p else (Fraction, self._d)
        return tuple(tuple(make(x, k) for x in row) for row in rows)

    def entry(self, i: int, j: int):
        """Entry (i, j), the one element built."""
        p, x = self._p, self._rows[i][j]
        return x if p is None else FpElement(x, p) if p else Fraction(x, self._d)

    @property
    def radical(self):
        """The radicand of the quadratic entries; None without them."""
        if self._p is None:
            return next(e.d for row in self._rows for e in row if isinstance(e, QuadElement))
        return None

    def strings(self) -> list:
        """Each entry of a ground matrix as ``field.to_str`` prints it."""
        to_str, d = self.field.value_str, self._d
        return [[to_str(x, d) for x in row] for row in self._rows]

    def _check(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")
        if self.n != other.n:
            raise DimensionMismatch(f"sizes {self.n} and {other.n} differ")

    @property
    def is_zero(self) -> bool:
        return self._p is not None and not any(map(any, self._rows))

    def trace(self):
        acc = self.field.zero
        for i in range(self.n):
            acc = acc + self.entry(i, i)
        return acc

    def transpose(self) -> "Matrix":
        return Matrix._of(self.field, self._p, list(zip(*self._rows)), self._d)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._plus(other, 1)

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._plus(other, -1)

    def _plus(self, other: "Matrix", sign: int) -> "Matrix":
        """self + sign other, over the lcm of the two denominators."""
        self._check(other)
        p, (a, da), (b, db) = _values(self, other)
        d = math.lcm(da, db)
        sa, sb = d // da, sign * (d // db)
        rows = [[sa * x + sb * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
        return Matrix._of(self.field, p, rows, d)

    def __neg__(self):
        return Matrix._of(self.field, self._p, [[-x for x in row] for row in self._rows], self._d)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            self._check(other)
            p, (a, da), (b, db) = _values(self, other)
            return Matrix._of(self.field, p, _product(a, b, p), da * db)
        return self.scale(other)

    def __rmul__(self, other):
        if isinstance(other, Matrix):
            return NotImplemented
        return self.scale(other)

    def scale(self, c) -> "Matrix":
        p, (a, d) = _values(self)
        if p is None or isinstance(c, QuadElement):
            return Matrix._of(self.field, None, [[c * e for e in row] for row in self.rows])
        k, den = _scalar_value(self.field, c)
        return Matrix._of(self.field, p, [[k * x for x in row] for row in a], d * den)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        if k == 0:
            return Matrix.identity(self.field, self.n)
        result = self
        for bit in bin(k)[3:]:  # left to right, after the leading 1
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def apply(self, vec):
        """Matrix-vector product on a tuple."""
        return tuple(_dot(row, vec) for row in self.rows)

    # -- elimination ---------------------------------------------------------

    def rank(self) -> int:
        return _gauss_jordan([list(r) for r in self.rows], self.field)

    def inverse(self) -> "Matrix":
        rows = [list(r) + list(ident) for r, ident in
                zip(self.rows, Matrix.identity(self.field, self.n).rows)]
        if _gauss_jordan(rows, self.field) < self.n:
            raise NotInvertible("matrix is singular")
        return Matrix._of(self.field, None, [row[self.n :] for row in rows])

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self._p == other._p
                and self._d == other._d and self._rows == other._rows)

    def __hash__(self):
        return hash((self._d, self._rows))

    def __repr__(self):
        body = "; ".join(
            ", ".join(str(e) for e in row) for row in self.rows
        )
        return f"Matrix[{body}]"


def _square(rows) -> list:
    rows = list(rows)
    if not rows or any(len(r) != len(rows) for r in rows):
        raise DimensionMismatch("matrix must be square and nonempty")
    return rows


def _canonical(field, p, rows, d) -> tuple:
    """The state (p, rows, d) of rows / d, p as ``_values`` gives it."""
    if p is None:
        if any(isinstance(e, QuadElement) for row in rows for e in row):
            return None, tuple(map(tuple, rows)), 1
        p = field.characteristic  # elements of the ground field, or ints
        if p:
            rows = [[getattr(e, "residue", e) for e in row] for row in rows]
        else:
            d = math.lcm(*(e.denominator for row in rows for e in row))
            rows = [[e.numerator * (d // e.denominator) for e in row] for row in rows]
    if p:
        return p, tuple(tuple([x % p for x in row]) for row in rows), 1
    g = math.gcd(d, *chain.from_iterable(rows))  # d > 0 from every kernel
    if g == 1:
        return 0, tuple(map(tuple, rows)), d
    return 0, tuple(tuple([x // g for x in row]) for row in rows), d // g


def _values(*ms):
    """(p, (rows, d) for each m): the state of each m, m being rows / d.

    With quadratic entries in any of them, None and the elements of each,
    d = 1.  Results go back through ``Matrix._of``, which makes them
    canonical.
    """
    if any(m._p is None for m in ms):
        return (None, *((m.rows, 1) for m in ms))
    return (ms[0]._p, *((m._rows, m._d) for m in ms))


def _gauss_jordan(rows: list, field) -> int:
    """Reduce n rows in place to reduced echelon form in their first n columns; the rank."""
    n, z = len(rows), field.zero
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col] != z), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.one / rows[rank][col]
        rows[rank] = [inv * e for e in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col] != z:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _identity(n: int) -> list:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _product(a, b, p) -> list:
    """The rows of a b, p as ``_values`` gave it: reduced residues over F_p,
    each row one sum of products with the packed rows of b (``_matvec``)."""
    times = _matvec(list(zip(*b)), p)
    return [times(row) for row in a]


def _matvec(a, p):
    """v -> A v for the rows a of A, p as ``_values`` gave it: over F_p the
    reduced residues, from the columns of A packed once; else the unreduced
    dot products of the rows with v."""
    if not p:
        return lambda v: [_dot(row, v) for row in a]
    n, bits = len(a), _slot(p, len(a[0]))
    cols = [_pack(col, bits) for col in zip(*a)]
    return lambda v: _unpack(sum(map(operator.mul, v, cols)), n, bits, p)


def _dot(u, v):
    return sum(map(operator.mul, u, v))


# ---------------------------------------------------------------------------
# polynomial evaluation and minimal polynomials
# ---------------------------------------------------------------------------

def eval_poly_at_matrix(f: Polynomial, m: Matrix) -> Matrix:
    """f(m); the constant term contributes a multiple of identity."""
    return eval_polys_at_matrix([f], m)[0]


def eval_polys_at_matrix(polys, m: Matrix) -> list[Matrix]:
    """[f(m) for f in polys], each a linear combination of one table of powers.

    The table I, a, ..., a^e (e the largest degree, m = a / d) takes e - 1
    products on ``_values``, however many polynomials share it, and over F_p
    each power is reduced mod p by ``_product`` itself; over Q,
    f(m) = sum c_k d^(e-k) a^k / (L d^e) for f = (c_0, ..., c_e) / L of
    degree e, its state.
    """
    field, n = m.field, m.n
    if any(f.field != field for f in polys):
        raise FieldMismatch("polynomial and matrix over different fields")
    p, (a, d) = _values(m)
    powers = [_identity(n), a]
    while len(powers) <= max((f.degree for f in polys), default=0):
        powers.append(_product(powers[-1], a, p))
    flat = [[e for row in power for e in row] for power in powers]
    out = []
    for f in polys:
        cs, den = _coefficients(f, p, d)
        acc = [0] * (n * n)
        for c, power in zip(cs, flat):
            if c:
                acc = [x + c * e for x, e in zip(acc, power)]
        out.append(Matrix._of(field, p, [acc[i : i + n] for i in range(0, n * n, n)], den))
    return out


def _coefficients(f: Polynomial, p, d: int):
    """(the multipliers of a^0, a^1, ... in f(a / d), their denominator),
    from f's state: its numerators and d over Q, its residues over F_p."""
    if p is None:
        return f.coeffs, 1
    if d == 1:  # always over F_p
        return f._coeffs, f._d
    e = max(f.degree, 0)
    return [c * d ** (e - k) for k, c in enumerate(f._coeffs)], f._d * d**e


def minimal_polynomial(m: Matrix) -> Polynomial:
    """Monic minimal polynomial as a product of Krylov relations, one per
    basis vector that the product so far does not annihilate.

    mu starts at 1; for each standard basis vector e_j, w = mu(A) e_j (A = d M,
    the integer matrix of ``_values``) is computed by Horner, and unless it is
    0, mu becomes mu g, g the first linear dependence among w, Aw, A^2 w, ...
    found by exact elimination (deterministic first-nonzero pivoting).  As
    ann(w) = ann(e_j) / gcd(ann(e_j), mu), mu g is lcm(mu, ann(e_j)) with no
    gcd taken; at the end mu annihilates every basis vector, hence A, and no
    proper divisor does.  Over Q mu is a primitive integer list, and the
    roots of M's are those of A's over d.  With quadratic entries a
    relation may leave the ground field while the product returns to it (X -
    sqrt2 and X + sqrt2 for diag(sqrt2, -sqrt2)); a product off the ground
    field ((X - 1)(X - sqrt2) for diag(1, sqrt2)) raises FieldMismatch.
    """
    field, n = m.field, m.n
    p, (a, d) = _values(m)
    one = field.one if p is None else 1
    times = _matvec(a, p)
    mu = [one]
    for j in range(n):
        if len(mu) > n:
            break
        w = [0] * n
        w[j] = mu[-1]
        for c in reversed(mu[:-1]):
            w = times(w)
            w[j] = (w[j] + c) % p if p else w[j] + c
        if not any(w):
            continue
        mu = _mul(mu, _local_annihilator(a, w, p, one))
        if p:
            mu = [c % p for c in mu]
        elif p == 0:
            content = math.gcd(*mu)
            mu = [c // content for c in mu]
    if p is None and not all(map(field.is_ground, mu)):
        raise FieldMismatch("a Krylov relation has coefficients outside the ground field")
    if p == 0:  # monic, and X -> dX: mu(dX) / (lead d^deg)
        mu = [c * d**k for k, c in enumerate(mu)], mu[-1] * d ** (len(mu) - 1)
    return Polynomial(field, mu) if p is None else Polynomial._of(field, p, mu)


def _local_annihilator(a, start: list, p, one=1) -> list:
    """Coefficients, constant first, of a least-degree g with g(A) start = 0,
    A with rows a, start a nonzero vector of its values, one their unit.  On
    residues (p > 0) each value is read reduced mod p; on elements (p None)
    each stored row is scaled to pivot 1 by field division, so g is monic;
    over Q (p = 0) the ints stay fraction-free by Bareiss's exact division:
    every value is a minor of rows (A^t start, e_t)."""
    # each stored row: (pivot index, pivot value, reduced vector, combination over Krylov powers)
    basis: list[tuple[int, int, list, list]] = []
    times = _matvec(a, p)
    current = start
    while True:
        red, red_combo, prev = current, [0] * len(basis) + [1], 1
        for pivot, s, bvec, bcombo in basis:  # s is 1 unless over Q
            c = red[pivot] % p if p else red[pivot]
            if c or s != prev:
                red = [s * x - c * y for x, y in zip(red, bvec)]
                red_combo = [s * x - c * y for x, y in zip_longest(red_combo, bcombo, fillvalue=0)]
                if prev != 1:
                    red, red_combo = [x // prev for x in red], [x // prev for x in red_combo]
            prev = s
        if p:  # reduced, with the first nonzero residue scaled to 1
            inv = pow(next((x % p for x in red if x % p), 1), -1, p)
            red, red_combo = [inv * x % p for x in red], [inv * x % p for x in red_combo]
        pivot = next((i for i, x in enumerate(red) if x), None)
        if pivot is None:
            return red_combo
        if p is None:
            inv = one / red[pivot]
            red, red_combo = [inv * x for x in red], [inv * x for x in red_combo]
        basis.append((pivot, red[pivot] if p == 0 else 1, red, red_combo))
        current = times(current)


# ---------------------------------------------------------------------------
# spectral data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Spectrum:
    """The minimal polynomial of a matrix and its factorization."""

    minpoly: Polynomial
    factorization: Factorization

    @property
    def irregular_degree(self) -> int | None:
        """Degree of the first factor the characteristic divides; None if K-regular."""
        field = self.minpoly.field
        for h, _ in self.factorization.factors:
            if not is_k_regular_degree(h.degree, field):
                return h.degree
        return None


def spectrum(m: Matrix) -> Spectrum:
    """M's minimal polynomial and its factorization, each computed once."""
    mpoly = minimal_polynomial(m)
    return Spectrum(mpoly, factor(mpoly))


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def is_k_regular_matrix(m: Matrix) -> bool:
    """No irreducible factor degree of the minimal polynomial divisible by char."""
    if m.field.characteristic == 0:
        return True
    return spectrum(m).irregular_degree is None


def is_semisimple(m: Matrix) -> bool:
    """Whether the minimal polynomial is squarefree.

    Over Q this is ``squarefree_part``'s test.  Positive characteristic
    requires a K-regular matrix, which is verified from the factorization
    that also answers, because squarefreeness and semisimplicity are only
    equivalent for separable factors.
    """
    mp = minimal_polynomial(m)
    if m.field.characteristic == 0:
        return squarefree_part(mp) == mp
    fact = factor(mp)
    if Spectrum(mp, fact).irregular_degree is not None:
        raise NotKRegular("matrix is not K-regular")
    return fact.is_squarefree


def is_nilpotent(m: Matrix) -> bool:
    """Whether N^(2^k) = 0 for 2^k >= n, squaring N until a power is zero:
    no product for N = 0, at most ceil(log2 n) in all."""
    power, exponent = m, 1
    while not power.is_zero:
        if exponent >= m.n:
            return False
        power, exponent = power * power, 2 * exponent
    return True


def splitting_bound_of_matrix(m: Matrix) -> int:
    return spectrum(m).factorization.max_degree
