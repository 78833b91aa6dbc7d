"""Exact matrices and polynomials over Q or F_p, written apart from finefrob.

The generators build their inputs with these helpers and the verdicts check
the program's answers with them, so no verdict depends on the code being
timed.  A field is named by its characteristic ``p``: 0 means Q (entries are ints
or ``Fraction``), an odd prime means F_p (entries are ints in [0, p)).
Polynomials are coefficient lists, constant first.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def scalar(x, p: int):
    return x % p if p else x


def inv(x, p: int):
    return pow(x, -1, p) if p else 1 / Fraction(x)


def parse_scalar(text: str, p: int):
    value = Fraction(text)
    if not p:  # ints where possible: integer arithmetic is much faster
        return value.numerator if value.denominator == 1 else value
    return value.numerator * pow(value.denominator, -1, p) % p


def to_str(x, p: int) -> str:
    return str(x % p if p else x)


# -- matrices ----------------------------------------------------------------

def identity(n: int, p: int):
    return [[scalar(int(i == j), p) for j in range(n)] for i in range(n)]


def zeros(n: int, p: int):
    return [[scalar(0, p)] * n for _ in range(n)]


def add(a, b, p: int):
    return [[scalar(x + y, p) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def sub(a, b, p: int):
    return [[scalar(x - y, p) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(c, a, p: int):
    return [[scalar(c * x, p) for x in row] for row in a]


def mul(a, b, p: int):
    cols = list(zip(*b))
    return [[scalar(sum(x * y for x, y in zip(row, col)), p) for col in cols] for row in a]


def is_zero(a) -> bool:
    return all(x == 0 for row in a for x in row)


def power(a, k: int, p: int):
    """a^k by repeated squaring."""
    out = identity(len(a), p)
    while k and not is_zero(a):
        if k & 1:
            out = mul(out, a, p)
        a = mul(a, a, p)
        k >>= 1
    return out if not k else zeros(len(a), p)


def inverse(a, p: int):
    """Gauss-Jordan inverse, or None when ``a`` is singular."""
    n = len(a)
    rows = [list(row) + unit for row, unit in zip(a, identity(n, p))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = inv(rows[col][col], p)
        rows[col] = [scalar(x * lead, p) for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [scalar(x - f * y, p) for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def block_diag(blocks, p: int):
    n = sum(len(b) for b in blocks)
    out = zeros(n, p)
    pos = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[pos + i][pos:pos + len(b)] = row
        pos += len(b)
    return out


def conjugate(pm, d, pm_inv, p: int):
    return mul(mul(pm, d, p), pm_inv, p)


# -- polynomials -------------------------------------------------------------

def poly_trim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_mul(f, g, p: int):
    if not f or not g:
        return []
    out = [scalar(0, p)] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = scalar(out[i + j] + x * y, p)
    return poly_trim(out)


def poly_eval_matrix(f, a, p: int):
    """f(A) by Horner's rule."""
    n = len(a)
    acc = zeros(n, p)
    for c in reversed(f):
        acc = add(mul(acc, a, p), scale(c, identity(n, p), p), p)
    return acc


def companion(f, p: int):
    """Companion matrix of a monic polynomial (subdiagonal ones, last column -f)."""
    d = len(f) - 1
    out = zeros(d, p)
    for i in range(1, d):
        out[i][i - 1] = scalar(1, p)
    for i in range(d):
        out[i][d - 1] = scalar(-f[i], p)
    return out


def jordan_block(c, mult: int, p: int):
    """Block Jordan form of a companion block: C on the diagonal, I above it."""
    d = len(c)
    out = zeros(d * mult, p)
    for k in range(mult):
        for i in range(d):
            out[k * d + i][k * d:k * d + d] = c[i]
            if k + 1 < mult:
                out[k * d + i][(k + 1) * d + i] = scalar(1, p)
    return out


def spectral_blocks(d):
    """[(start, "linear", gamma) | (start, "quad", alpha, c)] read off D."""
    out, i = [], 0
    while i < len(d):
        if i + 1 < len(d) and d[i + 1][i] == 1:
            out.append((i, "quad", d[i][i], -d[i][i + 1]))
            i += 2
        else:
            out.append((i, "linear", d[i][i]))
            i += 1
    return out


# -- modular degree patterns, to sort dense matrices into strata ---------------

def charpoly(m):
    """Characteristic polynomial of an integer matrix, by Faddeev-LeVerrier
    (every division by k is exact over Z)."""
    n = len(m)
    m = [[int(x) for x in row] for row in m]
    coeffs = [0] * n + [1]
    acc = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            acc[i][i] += coeffs[n - k + 1]
        acc = [[sum(x * y for x, y in zip(row, col)) for col in zip(*acc)] for row in m]
        coeffs[n - k] = -sum(acc[i][i] for i in range(n)) // k
    return coeffs


def _pmod(a, b, q: int):
    a = [x % q for x in a]
    lead = pow(b[-1], -1, q)
    while len(a) >= len(b):
        c = a[-1] * lead % q
        shift = len(a) - len(b)
        for i, y in enumerate(b):
            a[shift + i] = (a[shift + i] - c * y) % q
        a = poly_trim(a)
    return a


def _pdiv(a, b, q: int):
    out = [0] * (len(a) - len(b) + 1)
    a, lead = list(a), pow(b[-1], -1, q)
    while len(a) >= len(b):
        c, shift = a[-1] * lead % q, len(a) - len(b)
        out[shift] = c
        for i, y in enumerate(b):
            a[shift + i] = (a[shift + i] - c * y) % q
        a = poly_trim(a)
    return out


def _pgcd(a, b, q: int):
    a, b = poly_trim([x % q for x in a]), poly_trim([x % q for x in b])
    while b:
        a, b = b, _pmod(a, b, q)
    return a


def _ppowmod(base, e: int, f, q: int):
    out, base = [1], _pmod(base, f, q)
    while e:
        if e & 1:
            out = _pmod(poly_mul(out, base, q), f, q)
        base = _pmod(poly_mul(base, base, q), f, q)
        e >>= 1
    return out


def degree_pattern(f, q: int):
    """Degrees of the irreducible factors of a squarefree monic f mod q."""
    degs, h, g, i = [], [0, 1], [x % q for x in f], 0
    while len(g) - 1 >= 2 * (i + 1):
        i += 1
        h = _ppowmod(h, q, g, q)
        d = _pgcd(g, poly_trim([(x - y) % q for x, y in itertools.zip_longest(h, [0, 1], fillvalue=0)]), q)
        if len(d) > 1:
            degs += [i] * ((len(d) - 1) // i)
            g = _pdiv(g, d, q)
            h = _pmod(h, g, q)
    if len(g) > 1:
        degs.append(len(g) - 1)
    return degs


def open_factor_degrees(m, skip: int = 1) -> set:
    """Degrees 2..deg/2 that a proper factor of the characteristic polynomial
    of an integer matrix, with its integer roots removed, could have,
    judging by its factor-degree patterns modulo the first three primes
    where it stays squarefree.  Empty when the polynomial has degree < 4 or
    some prime shows it irreducible.  A degree-by-degree factor search has to
    try each of these degrees.  Primes dividing ``skip`` are passed over:
    they divide the denominators of f(X + t) for t = a/skip, whose patterns
    modulo every other prime are those of f.
    """
    f = charpoly(m)
    while f[0] == 0:
        f = f[1:]
    bound = max(sum(abs(x) for x in row) for row in m)  # |eigenvalue| <= max row sum
    for root in range(1, int(bound) + 1):
        for r in (root, -root):
            while len(f) > 1 and sum(c * r ** i for i, c in enumerate(f)) == 0:
                f = _pdiv_exact(f, r)
    d = len(f) - 1
    if d < 4:
        return set()
    allowed, good = set(range(2, d // 2 + 1)), 0
    for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        if skip % q == 0:
            continue
        deriv = [i * c for i, c in enumerate(f)][1:]
        if len(_pgcd(f, deriv, q)) != 1:
            continue
        degs = degree_pattern(f, q)
        if degs == [d]:
            return set()
        sums = {0}
        for k in degs:
            sums |= {s + k for s in sums}
        allowed &= sums
        good += 1
        if good == 3:
            break
    return allowed


def _pdiv_exact(f, root: int):
    """f / (X - root) for an integer root, by synthetic division."""
    out, carry = [], 0
    for c in reversed(f[1:]):
        carry = c + carry * root
        out.append(carry)
    return list(reversed(out))

