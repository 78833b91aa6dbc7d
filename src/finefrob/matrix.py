"""Exact square matrices and minimal polynomials.

Matrices are immutable, square, and live over an explicit ground field;
entries may be ground elements or elements of one fixed quadratic extension
(mixing distinct radicals in one matrix is rejected).  The minimal polynomial
is computed deterministically from per-basis-vector Krylov relations combined
by lcm, which certifies minimality without any factorization.

Polynomials are evaluated at a matrix on one path, ``eval_polys_at_matrix``:
the powers I, M, ..., M^e are computed once and every polynomial is a linear
combination of them.  Over a ground F_p (no quadratic entries) the product,
that combination and the Krylov iteration (its matrix-vector products and
its elimination) run on plain int residues: each result entry is reduced
mod p once, and becomes an ``FpElement`` again only when the result matrix
or polynomial is built.  Over Q, and with quadratic entries, the same loops
run on the elements.

``Spectrum`` is the spectral data every decomposition reads: the minimal
polynomial together with its factorization into monic irreducibles, built
once per matrix by ``spectrum(m, seed)`` and passed on instead of being
recomputed.  It also answers K-regularity (``irregular_degree``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    MixedExtension,
    NotInvertible,
    NotKRegular,
)
from .poly import Factorization, Polynomial, factor, poly_gcd, poly_lcm
from .scalar import QuadElement, is_k_regular_degree

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
            _, a, b = _values(self, other)
            cols = list(zip(*b))
            return Matrix(self.field, [[_dot(row, col) for col in cols] for row in a])
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
        rows = [list(r) for r in self.rows]
        z = self.field.zero
        rank = 0
        col = 0
        while col < self.n and rank < self.n:
            pivot = next((r for r in range(rank, self.n) if rows[r][col] != z), None)
            if pivot is None:
                col += 1
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            inv = self.field.one / rows[rank][col]
            rows[rank] = [inv * e for e in rows[rank]]
            for r in range(self.n):
                if r != rank and rows[r][col] != z:
                    f = rows[r][col]
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
            rank += 1
            col += 1
        return rank

    def inverse(self) -> "Matrix":
        z = self.field.zero
        rows = [list(r) + list(ident) for r, ident in
                zip(self.rows, Matrix.identity(self.field, self.n).rows)]
        for col in range(self.n):
            pivot = next((r for r in range(col, self.n) if rows[r][col] != z), None)
            if pivot is None:
                raise NotInvertible("matrix is singular")
            rows[col], rows[pivot] = rows[pivot], rows[col]
            inv = self.field.one / rows[col][col]
            rows[col] = [inv * e for e in rows[col]]
            for r in range(self.n):
                if r != col and rows[r][col] != z:
                    f = rows[r][col]
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
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
    """(p, the entry rows of each m) to compute on: p and int residues when
    every m is over ground F_p, else 0 and the elements themselves.  Results
    go back through ``Matrix()``, which reduces each residue mod p once."""
    p = ms[0].field.characteristic
    if p and all(m.radical is None for m in ms):
        return (p, *([[e.residue for e in row] for row in m.rows] for m in ms))
    return (0, *(m.rows for m in ms))


def _reduce(vec: list, p: int) -> list:
    """vec with its int residues reduced mod p; vec itself when p is 0."""
    return [a % p for a in vec] if p else vec


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

    The table I, m, ..., m^e (e the largest degree) takes e - 1 matrix
    products, however many polynomials share it.
    """
    field, n = m.field, m.n
    if any(f.field != field for f in polys):
        raise FieldMismatch("polynomial and matrix over different fields")
    powers = [Matrix.identity(field, n), m]
    while len(powers) <= max((f.degree for f in polys), default=0):
        powers.append(powers[-1] * m)
    p, *tables = _values(*powers)
    flat = [[e for row in table for e in row] for table in tables]
    out = []
    for f in polys:
        acc = [0] * (n * n)
        for c, power in zip([c.residue for c in f.coeffs] if p else f.coeffs, flat):
            if c:
                acc = [a + c * e for a, e in zip(acc, power)]
        out.append(Matrix(field, [acc[i : i + n] for i in range(0, n * n, n)]))
    return out


def minimal_polynomial(m: Matrix) -> Polynomial:
    """Monic minimal polynomial via Krylov relations, lcm-combined per basis vector.

    For each standard basis vector the first linear dependence among
    v, Mv, M^2 v, ... is found by exact elimination (deterministic
    first-nonzero pivoting); the relation is the local annihilator, and the
    lcm over all basis vectors annihilates every vector, hence the matrix.
    """
    field = m.field
    p, rows = _values(m)
    zero, one = (0, 1) if p else (field.zero, field.one)
    acc = Polynomial.one(field)
    for j in range(m.n):
        if acc.degree == m.n:
            break
        vec = [one if i == j else zero for i in range(m.n)]
        local = Polynomial(field, _local_annihilator(rows, vec, p, zero, one))
        acc = poly_lcm(acc, local.monic())
    return acc


def _local_annihilator(rows, vec: list, p: int, zero, one) -> list:
    """Coefficients of a least-degree f with f(M) vec = 0, for M with these
    rows: on int residues, each value read reduced mod p, when p is nonzero,
    else on the elements themselves."""
    # each stored row: (pivot index, reduced vector, combination over Krylov powers)
    basis: list[tuple[int, list, list]] = []
    current = vec
    combo = [one]
    while True:
        red, red_combo = current, list(combo)
        for pivot, bvec, bcombo in basis:
            c = red[pivot] % p if p else red[pivot]
            if c:
                red = [a - c * b for a, b in zip(red, bvec)]
                red_combo[: len(bcombo)] = [a - c * b for a, b in zip(red_combo, bcombo)]
        red = _reduce(red, p)
        pivot = next((i for i, a in enumerate(red) if a), None)
        if pivot is None:
            return red_combo
        inv = pow(red[pivot], -1, p) if p else one / red[pivot]
        scaled = (_reduce([inv * a for a in v], p) for v in (red, red_combo))
        basis.append((pivot, *scaled))
        current = _reduce([_dot(row, current) for row in rows], p)
        combo = [zero] + combo  # multiply the tracked polynomial by X


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


def spectrum(m: Matrix, seed: int = 0) -> Spectrum:
    """M's minimal polynomial and its factorization, each computed once."""
    mpoly = minimal_polynomial(m)
    return Spectrum(mpoly, factor(mpoly, seed))


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def is_k_regular_matrix(m: Matrix, seed: int = 0) -> bool:
    """No irreducible factor degree of the minimal polynomial divisible by char."""
    if m.field.characteristic == 0:
        return True
    return spectrum(m, seed).irregular_degree is None


def is_semisimple(m: Matrix) -> bool:
    """Whether the minimal polynomial is squarefree (gcd with derivative is 1).

    Requires a K-regular matrix; in positive characteristic this is verified
    (and costs a factorization) because squarefreeness and semisimplicity are
    only equivalent for separable factors.
    """
    mp = minimal_polynomial(m)
    if m.field.characteristic != 0:
        if Spectrum(mp, factor(mp)).irregular_degree is not None:
            raise NotKRegular("matrix is not K-regular")
    deriv = mp.derivative()
    if deriv.is_zero:
        return False  # some multiplicity is divisible by the characteristic
    return poly_gcd(mp, deriv).degree == 0


def is_nilpotent(m: Matrix) -> bool:
    return (m ** m.n).is_zero


def splitting_bound_of_matrix(m: Matrix, seed: int = 0) -> int:
    return spectrum(m, seed).factorization.max_degree
