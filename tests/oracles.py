"""Independent brute-force oracles used to derive expected test values.

Everything here is deliberately written apart from the library: matrix
products, polynomial products, series sums, and the linear algebra all work
directly on nested tuples/lists, so agreement between the library and these
oracles is meaningful evidence rather than the same code run twice.  The
oracles are generic over the scalar type: they only use +, -, *, /, == on
whatever elements are passed in.
"""

from fractions import Fraction
import math

import mpmath


# ---------------------------------------------------------------------------
# matrices as nested tuples
# ---------------------------------------------------------------------------

def mat_identity(field, n):
    return tuple(
        tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)
    )


def mat_zero(field, n):
    return tuple(tuple(field.zero for _ in range(n)) for _ in range(n))


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(field, a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = field.zero
            for k in range(n):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_powers(field, a, count):
    """[I, A, A^2, ..., A^count]."""
    out = [mat_identity(field, len(a))]
    for _ in range(count):
        out.append(mat_mul(field, out[-1], a))
    return out


# ---------------------------------------------------------------------------
# polynomials as coefficient lists (constant term first)
# ---------------------------------------------------------------------------

def poly_trim(field, coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == field.zero:
        coeffs.pop()
    return coeffs


def poly_mul(field, f, g):
    if not f or not g:
        return []
    out = [field.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return poly_trim(field, out)


def poly_pow(field, f, k):
    out = [field.one]
    for _ in range(k):
        out = poly_mul(field, out, f)
    return out


def poly_scale(field, c, f):
    return poly_trim(field, [c * a for a in f])


def expand_factorization(field, unit, factors):
    """unit * prod(poly^mult) as a coefficient list."""
    acc = [field.coerce(unit)]
    for coeffs, mult in factors:
        acc = poly_mul(field, acc, poly_pow(field, list(coeffs), mult))
    return acc


def poly_eval_matrix(field, coeffs, a):
    n = len(a)
    acc = mat_zero(field, n)
    powers = mat_powers(field, a, max(len(coeffs) - 1, 0))
    for c, power in zip(coeffs, powers):
        acc = mat_add(acc, mat_scale(c, power))
    return acc


# ---------------------------------------------------------------------------
# exact linear algebra on row lists
# ---------------------------------------------------------------------------

def gauss_rank(field, rows):
    """Rank of a list of row vectors, by destructive elimination on a copy."""
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    pivot_col = 0
    while rank < len(rows) and pivot_col < cols:
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][pivot_col] != field.zero:
                pivot = r
                break
        if pivot is None:
            pivot_col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.one / rows[rank][pivot_col]
        rows[rank] = [inv * x for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][pivot_col] != field.zero:
                c = rows[r][pivot_col]
                rows[r] = [x - c * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        pivot_col += 1
    return rank


def solve_exact(field, columns, rhs):
    """Solve sum_j x_j * columns[j] = rhs exactly; None when inconsistent."""
    rows = len(rhs)
    width = len(columns)
    aug = [[columns[j][i] for j in range(width)] + [rhs[i]] for i in range(rows)]
    pivots = []
    rank = 0
    for col in range(width):
        pivot = None
        for r in range(rank, rows):
            if aug[r][col] != field.zero:
                pivot = r
                break
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = field.one / aug[rank][col]
        aug[rank] = [inv * x for x in aug[rank]]
        for r in range(rows):
            if r != rank and aug[r][col] != field.zero:
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[rank])]
        pivots.append(col)
        rank += 1
    for r in range(rank, rows):
        if aug[r][width] != field.zero:
            return None
    solution = [field.zero] * width
    for r, col in enumerate(pivots):
        solution[col] = aug[r][width]
    return solution


def oracle_minimal_polynomial(field, a):
    """Monic minimal-polynomial coefficients (constant first) by vectorization.

    For k = 1, 2, ... solve vec(A^k) as a combination of vec(A^j), j < k; the
    first consistent system gives the monic relation.
    """
    n = len(a)
    powers = mat_powers(field, a, n)
    vecs = [[p[i][j] for i in range(n) for j in range(n)] for p in powers]
    for k in range(1, n + 1):
        combo = solve_exact(field, vecs[:k], vecs[k])
        if combo is not None:
            return [-c for c in combo] + [field.one]
    raise AssertionError("no annihilating relation up to the dimension")


def is_squarefree(field, f):
    """Whether f (degree >= 1, constant first) is prime to f': the rows
    X^i f, i < deg f', and X^j f', j < deg f, of their Sylvester matrix are
    independent exactly when the resultant is nonzero."""
    f = poly_trim(field, f)
    df = poly_trim(field, [c * k for k, c in enumerate(f)][1:])
    if not df:
        return False
    m, k = len(f) - 1, len(df) - 1
    zero = field.zero
    rows = [[zero] * i + f + [zero] * (k - 1 - i) for i in range(k)]
    rows += [[zero] * j + df + [zero] * (m - 1 - j) for j in range(m)]
    return gauss_rank(field, rows) == m + k


def annihilates(field, coeffs, a):
    return poly_eval_matrix(field, coeffs, a) == mat_zero(field, len(a))


def no_lower_degree_annihilator(field, a, degree):
    """True when vec(I), ..., vec(A^(degree-1)) are linearly independent."""
    n = len(a)
    powers = mat_powers(field, a, degree - 1)
    vecs = [[p[i][j] for i in range(n) for j in range(n)] for p in powers]
    return gauss_rank(field, vecs) == degree


# ---------------------------------------------------------------------------
# series oracles (exact rational)
# ---------------------------------------------------------------------------

def exp_coeff(m):
    return Fraction(1, math.factorial(m))


def sin_coeff(m):
    if m % 2 == 0:
        return Fraction(0)
    return Fraction((-1) ** ((m - 1) // 2), math.factorial(m))


def cos_coeff(m):
    if m % 2 == 1:
        return Fraction(0)
    return Fraction((-1) ** (m // 2), math.factorial(m))


def sinh_coeff(m):
    return Fraction(0) if m % 2 == 0 else Fraction(1, math.factorial(m))


def cosh_coeff(m):
    return Fraction(0) if m % 2 == 1 else Fraction(1, math.factorial(m))


def scalar_series_sum(coeff_fn, x, terms):
    """sum_{m<=terms} a_m x^m by direct powering."""
    x = Fraction(x)
    return sum((coeff_fn(m) * x**m for m in range(terms + 1)), start=Fraction(0))


def even_odd_sum(coeff_fn, alpha, n, terms):
    """Even/odd sums via the binomial expansion of (alpha + beta)^m.

    With beta^2 = -n: lam^m = sum_h C(m,h) alpha^(m-h) beta^h, and beta^h is
    (-n)^(h/2) for even h, (-n)^((h-1)/2) * beta for odd h.
    """
    alpha = Fraction(alpha)
    n = Fraction(n)
    even = Fraction(0)
    odd = Fraction(0)
    for m in range(terms + 1):
        a = coeff_fn(m)
        if not a:
            continue
        e_m = Fraction(0)
        o_m = Fraction(0)
        for h in range(m + 1):
            term = math.comb(m, h) * alpha ** (m - h)
            if h % 2 == 0:
                e_m += term * (-n) ** (h // 2)
            else:
                o_m += term * (-n) ** ((h - 1) // 2)
        even += a * e_m
        odd += a * o_m
    return even, odd


def matrix_series_sum(field, coeff_fn, a, terms, powers=None):
    """sum_{k<=terms} a_k A^k on nested tuples; powers may be shared."""
    if powers is None:
        powers = mat_powers(field, a, terms)
    acc = mat_zero(field, len(a))
    for k in range(terms + 1):
        c = coeff_fn(k)
        if c:
            acc = mat_add(acc, mat_scale(c, powers[k]))
    return acc


def named_tail_bound(terms, r):
    """The stated bound on sum_{m>terms} r^m / m!, one Fraction term at a time.

    The terms r^m / m! are summed exactly for terms < m <= s, where s is the
    least index >= terms with s + 2 > 2r; from m = s + 1 on each term is at
    most r / (s + 2) < 1/2 times the one before, so the rest is at most
    r^(s+1) / (s+1)! times (s + 2) / (s + 2 - r).
    """
    r = Fraction(r)
    if r <= 0:
        return Fraction(0)
    s = terms
    while s + 2 <= 2 * r:
        s += 1
    exact = sum(
        (r**m / math.factorial(m) for m in range(terms + 1, s + 1)), start=Fraction(0)
    )
    return exact + r ** (s + 1) / math.factorial(s + 1) * (s + 2) / (s + 2 - r)


def _vp(x, p):
    """v_p of a nonzero Fraction, by repeated division."""
    x, v = Fraction(x), 0
    while x.numerator % p == 0:
        x, v = x / p, v + 1
    while x.denominator % p == 0:
        x, v = x * p, v - 1
    return v


def padic_abs(x, p):
    """|x|_p = p^(-v_p(x)) as a Fraction, 0 for x = 0."""
    return Fraction(0) if x == 0 else Fraction(1, p) ** _vp(x, p)


def padic_in_domain(alpha, n, p, radius=None):
    """Whether the eigenvalues alpha +- beta, beta^2 = -n, have
    max(|alpha|_p, |beta|_p) < R, from the definition.  Both sides are
    squared, with |beta|_p^2 = |n|_p, so every side is an exact rational;
    radius None is R = p^(-1/(p-1)) of the named series, where both sides are
    further raised to the power p - 1: max(|alpha|_p^2, |n|_p)^(p-1) < p^-2."""
    largest = max(padic_abs(alpha, p) ** 2, padic_abs(n, p))
    if radius is None:
        return largest ** (p - 1) < Fraction(1, p * p)
    return radius == math.inf or largest < Fraction(radius) ** 2


def padic_cutoff_scan(coeffs, sources, p, target, cap):
    """The least t = 0, 1, 2, ... up to cap (else None) whose certified
    p-adic bound reaches target, by trying each t in turn.

    The bound at t is the least, over the sources (v, shift, shifted) with v
    and shift finite, of shift plus the valuation of the tail past t: a tail
    monomial a_m lam^m (lam^(m-1) for a shifted source) has valuation at least
    v_p(a_m) + m v (or (m - 1) v).  ``coeffs`` None is a named series, with
    v_p(a_m) >= -(m - 1)/(p - 1), whose tail is least at m = t + 1; else the
    finite coefficient list of a CUSTOM series.
    """
    def bound(t):
        best = math.inf
        for v, shift, shifted in sources:
            if v == math.inf or shift == math.inf:
                continue
            if coeffs is None:
                m = t + 1
                tail = (m - 1 if shifted else m) * v - Fraction(m - 1, p - 1)
            else:
                tail = min((_vp(coeffs[m], p) + (m - 1 if shifted else m) * v
                            for m in range(t + 1, len(coeffs)) if coeffs[m]), default=math.inf)
            best = min(best, tail + shift)
        return best

    return next((t for t in range(cap + 1) if bound(t) >= target), None)


# ---------------------------------------------------------------------------
# fine decomposition clauses, pair by pair
# ---------------------------------------------------------------------------

def is_ground_square(x):
    """Whether a Fraction or a prime-field element is a square in its field."""
    if isinstance(x, Fraction):
        num, den = x.numerator, x.denominator
        return num >= 0 and math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den
    return x.residue == 0 or pow(x.residue, (x.p - 1) // 2, x.p) == 1


def _distinct(items):
    return all(x != y for i, x in enumerate(items) for y in items[i + 1 :])


def fine_clauses(field, a0, linear, quadratic):
    """The eleven clauses of a fine record, each product taken where it is read.

    ``linear`` holds (gamma, A) and ``quadratic`` (alpha, n, B, P), with the
    matrices as nested tuples.  The kernel clause reads each P_j as
    B_j^2 / -n_j, so it is false whenever some n_j is 0.
    """
    n = len(a0)
    zero = mat_zero(field, n)

    def mul(x, y):
        return mat_mul(field, x, y)

    gammas = [g for g, _ in linear]
    pairs = [(alpha, nj) for alpha, nj, _, _ in quadratic]
    a_list = [a for _, a in linear]
    b_list = [b for _, _, b, _ in quadratic]
    complement = None
    if all(nj != field.zero for _, nj, _, _ in quadratic):
        complement = mat_identity(field, n)
        for a in a_list:
            complement = mat_sub(complement, a)
        for _, nj, b, _ in quadratic:
            complement = mat_add(complement, mat_scale(field.one / nj, mul(b, b)))
    return [
        (
            "eigenvalues_nonzero_distinct",
            field.zero not in gammas and _distinct(gammas),
        ),
        ("conjugate_pairs_distinct", _distinct(pairs)),
        ("nonsquare_norms", not any(is_ground_square(-nj) for _, nj in pairs)),
        (
            "linear_idempotent_orthogonal",
            all(
                mul(x, y) == (x if i == h else zero)
                for i, x in enumerate(a_list)
                for h, y in enumerate(a_list)
            ),
        ),
        (
            "linear_quad_orthogonal",
            all(mul(a, b) == zero == mul(b, a) for a in a_list for b in b_list),
        ),
        (
            "quad_cross_orthogonal",
            all(
                mul(x, y) == zero
                for j, x in enumerate(b_list)
                for l, y in enumerate(b_list)
                if j != l
            ),
        ),
        (
            "cube_identity",
            all(mul(b, mul(b, b)) == mat_scale(-nj, b) for _, nj, b, _ in quadratic),
        ),
        (
            "projector_consistency",
            all(mul(b, b) == mat_scale(-nj, p) for _, nj, b, p in quadratic),
        ),
        ("kernel_complement", complement is not None and a0 == complement),
        (
            "kernel_idempotent_orthogonal",
            mul(a0, a0) == a0
            and all(mul(a0, x) == zero == mul(x, a0) for x in a_list + b_list),
        ),
        ("nonzero_covariants", all(x != zero for x in a_list + b_list)),
    ]


# ---------------------------------------------------------------------------
# mpmath-side oracles
# ---------------------------------------------------------------------------

def embed_scalar(x, precision=128):
    """Fraction -> mpmath float at the given precision."""
    x = Fraction(x)
    with mpmath.workprec(precision):
        return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)


def embed(a, precision=128):
    """Nested Fraction tuples -> mpmath matrix at the given precision."""
    n = len(a)
    with mpmath.workprec(precision):
        out = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                x = Fraction(a[i][j])
                out[i, j] = mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
    return out


def max_abs_diff(x, y):
    n = x.rows
    return max(abs(x[i, j] - y[i, j]) for i in range(n) for j in range(n))


def rodrigues_exp(axis, precision=128):
    """I + sin(1) K + (1 - cos(1)) K^2 for the skew matrix K of a unit axis."""
    a, b, c = (Fraction(v) for v in axis)
    k_rows = (
        (Fraction(0), -c, b),
        (c, Fraction(0), -a),
        (-b, a, Fraction(0)),
    )
    with mpmath.workprec(precision):
        k = embed(k_rows, precision)
        return mpmath.eye(3) + mpmath.sin(1) * k + (1 - mpmath.cos(1)) * (k * k)
