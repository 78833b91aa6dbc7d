"""Exact square matrices and minimal polynomials.

Matrices are immutable, square, and live over an explicit ground field;
entries may be ground elements or elements of one fixed quadratic extension
(mixing distinct radicals in one matrix is rejected).  The minimal polynomial
is computed deterministically as a product of Krylov relations: each basis
vector e_j that the product mu so far does not annihilate multiplies mu by
the relation of mu(M) e_j, which makes mu lcm(mu, ann(e_j)) with no gcd and
no factorization; with quadratic entries a product off the ground field
raises FieldMismatch.

Polynomials are evaluated at a matrix on one path, ``eval_polys_at_matrix``:
the powers I, M, ..., M^e are computed once and every polynomial is a linear
combination of them.  Over a ground field the product, that combination
and the Krylov iteration run on plain ints, one loop for both fields: on
residues over F_p, and over Q on the integer matrix a = d M, d the lcm of
the entry denominators, so that a product is (a b, da db).  Each result
entry becomes an element once, when the result is built.  Over Q the
Krylov relations come from fraction-free elimination with exact division
(Bareiss, Math. Comp. 22, 1968), and X -> dX turns the minimal polynomial
of a into M's.  Only with quadratic entries do the loops run on the
elements.  ``rank`` and ``inverse`` always do, in one Gauss-Jordan loop
(``inverse`` reduces [M | I]).

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
from itertools import zip_longest

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    MixedExtension,
    NotInvertible,
    NotKRegular,
)
from .poly import Factorization, Polynomial, _mul, factor, squarefree_part
from .scalar import FpElement, QuadElement, is_k_regular_degree

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
    """An immutable n x n matrix over a ground field (or one quadratic extension)."""

    __slots__ = ("field", "n", "rows", "radical")

    def __init__(self, field, rows):
        rows = tuple(tuple(_coerce_entry(field, e) for e in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise DimensionMismatch("matrix must be square and nonempty")
        radical = None
        for row in rows:
            for e in row:
                if isinstance(e, QuadElement):
                    if radical is None:
                        radical = e.d
                    elif radical != e.d:
                        raise MixedExtension(
                            "matrix entries mix distinct quadratic extensions"
                        )
        self.field = field
        self.n = n
        self.rows = rows
        self.radical = radical

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        return cls(
            field,
            [[field.one if i == j else field.zero for j in range(n)] for i in range(n)],
        )

    @classmethod
    def zeros(cls, field, n: int) -> "Matrix":
        return cls(field, [[field.zero] * n for _ in range(n)])

    @classmethod
    def diagonal(cls, field, entries) -> "Matrix":
        entries = list(entries)
        n = len(entries)
        return cls(
            field,
            [
                [entries[i] if i == j else field.zero for j in range(n)]
                for i in range(n)
            ],
        )

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

    @classmethod
    def _of(cls, field, p, rows, d=1) -> "Matrix":
        """rows / d from a kernel, p as ``_values`` gave it: each int made an
        ``FpElement`` or a ``Fraction`` once, and not coerced again."""
        if p is None:  # elements, checked as any others
            return cls(field, rows)
        m = object.__new__(cls)
        make, k = (FpElement, p) if p else (Fraction, d)
        m.field, m.n, m.radical = field, len(rows), None
        m.rows = tuple(tuple(map(make, row, [k] * len(row))) for row in rows)
        return m

    # -- structure -----------------------------------------------------------

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def _check(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")
        if self.n != other.n:
            raise DimensionMismatch(f"sizes {self.n} and {other.n} differ")

    @property
    def is_zero(self) -> bool:
        z = self.field.zero
        return all(e == z for row in self.rows for e in row)

    def trace(self):
        acc = self.field.zero
        for i in range(self.n):
            acc = acc + self.rows[i][i]
        return acc

    def transpose(self) -> "Matrix":
        return Matrix(
            self.field,
            [[self.rows[j][i] for j in range(self.n)] for i in range(self.n)],
        )

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check(other)
        return Matrix(
            self.field,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check(other)
        return Matrix(
            self.field,
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

    def __neg__(self):
        return Matrix(self.field, [[-e for e in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            self._check(other)
            p, (a, da), (b, db) = _values(self, other)
            return Matrix._of(self.field, p, _product(a, b), da * db)
        return self.scale(other)

    def __rmul__(self, other):
        if isinstance(other, Matrix):
            return NotImplemented
        return self.scale(other)

    def scale(self, c) -> "Matrix":
        return Matrix(self.field, [[c * e for e in row] for row in self.rows])

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
        return Matrix(self.field, [row[self.n :] for row in rows])

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        body = "; ".join(
            ", ".join(str(e) for e in row) for row in self.rows
        )
        return f"Matrix[{body}]"


def _coerce_entry(field, e):
    if isinstance(e, QuadElement):
        if e.field != field:
            raise FieldMismatch("entry over a different ground field")
        return e
    return field.coerce(e)


def _values(*ms):
    """(p, (rows, d) for each m) to compute on, m being rows / d.

    Over a ground F_p, p and the int residues, d = 1; over a ground Q, 0 and
    the integer numerators over d, the lcm of the entry denominators; with
    quadratic entries, None and the elements, d = 1.  Results go back
    through ``Matrix._of``, which reduces each residue mod p once.
    """
    field = ms[0].field
    if any(m.radical is not None for m in ms):
        return (None, *((m.rows, 1) for m in ms))
    if field.characteristic:
        return (field.characteristic,
                *(([[e.residue for e in row] for row in m.rows], 1) for m in ms))
    out = []
    for m in ms:
        d = math.lcm(*(e.denominator for row in m.rows for e in row))
        out.append(([[e.numerator * (d // e.denominator) for e in row] for row in m.rows], d))
    return (0, *out)


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


def _product(a, b) -> list:
    """The rows of a b, unreduced."""
    cols = list(zip(*b))
    return [[_dot(row, col) for col in cols] for row in a]


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
    products on ``_values``, however many polynomials share it; over Q,
    f(m) = sum c_k L d^(e-k) a^k / (L d^e) for f of degree e, L the lcm of
    the denominators of its coefficients c_k.
    """
    field, n = m.field, m.n
    if any(f.field != field for f in polys):
        raise FieldMismatch("polynomial and matrix over different fields")
    p, (a, d) = _values(m)
    powers = [_identity(n), a]
    while len(powers) <= max((f.degree for f in polys), default=0):
        powers.append(_product(powers[-1], a))
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
    """(the multipliers of a^0, a^1, ... in f(a / d), their denominator)."""
    if p:
        return [c.residue for c in f.coeffs], 1
    if p is None:
        return f.coeffs, 1
    e = max(f.degree, 0)
    lcm = math.lcm(*(c.denominator for c in f.coeffs))
    scaled = [c.numerator * (lcm // c.denominator) * d ** (e - k) for k, c in enumerate(f.coeffs)]
    return scaled, lcm * d**e


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
    mu = [one]
    for j in range(n):
        if len(mu) > n:
            break
        w = [0] * n
        for c in reversed(mu):
            w = [_dot(row, w) for row in a]
            w[j] += c
            if p:
                w = [x % p for x in w]
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
    if p == 0:  # monic, and X -> dX
        mu = [Fraction(c, mu[-1] * d ** (len(mu) - 1 - k)) for k, c in enumerate(mu)]
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
        current = [_dot(row, current) for row in a]
        if p:
            current = [x % p for x in current]


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
    return (m ** m.n).is_zero


def splitting_bound_of_matrix(m: Matrix) -> int:
    return spectrum(m).factorization.max_degree
