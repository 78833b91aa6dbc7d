"""Seeded request streams for the three workloads.

A stream is a list of groups; a group is the requests made about one
generated matrix, in the order a user would issue them (``check`` and
``factor`` read the document an earlier request of the group printed).
Groups follow a fixed schedule of input classes, repeated in cycles of
``CYCLES[workload]`` groups, so every cycle holds the same mix whatever the
seed; the seed only chooses the entries.  The program sees only the
documents built here.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import exact

SERIES_FNS = ("exp", "sin", "cos", "sinh", "cosh")


@dataclass(frozen=True)
class Request:
    """One CLI invocation: ``finefrob <command> <input> [<result>] <args>``.

    ``doc`` is the input document, or None when the input is the ``result``
    printed by request ``source`` (``factor`` of a minimal polynomial).  For
    ``check``, ``doc`` is the source's input and the result file is the
    source's whole output.  ``truth`` carries what the generator knows about
    the input, for the verdicts.
    """

    rid: str
    command: str
    doc: dict | None
    args: tuple = ()
    source: str | None = None
    truth: dict = field(default_factory=dict, compare=False, repr=False)


def matrix_doc(m, p: int) -> dict:
    return {
        "field": f"Fp:{p}" if p else "Q",
        "n": len(m),
        "entries": [[exact.to_str(x, p) for x in row] for row in m],
    }


def _unimodular(rng: random.Random, n: int):
    """Random integer matrix of determinant 1 (unit lower times unit upper)."""
    low = exact.identity(n, 0)
    up = exact.identity(n, 0)
    for i in range(n):
        for j in range(i):
            low[i][j] = Fraction(rng.randint(-1, 1))
            up[j][i] = Fraction(rng.randint(-1, 1))
    return exact.mul(low, up, 0)


def _random_invertible(rng: random.Random, n: int, p: int):
    if not p:
        pm = _unimodular(rng, n)
        return pm, exact.inverse(pm, 0)
    while True:
        pm = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        pm_inv = exact.inverse(pm, p)
        if pm_inv is not None:
            return pm, pm_inv


def _decomposition_group(gid: str, m, p: int, truth: dict):
    """minpoly, factor (of the printed minimal polynomial), jc, cjc, checks."""
    doc = matrix_doc(m, p)
    truth = dict(truth, p=p, m=m)
    return [
        Request(f"{gid}.minpoly", "minpoly", doc, truth=truth),
        Request(f"{gid}.factor", "factor", None, source=f"{gid}.minpoly", truth=truth),
        Request(f"{gid}.jc", "jc", doc, truth=truth),
        Request(f"{gid}.cjc", "cjc", doc, truth=truth),
        Request(f"{gid}.check-jc", "check", doc, source=f"{gid}.jc", truth=truth),
        Request(f"{gid}.check-cjc", "check", doc, source=f"{gid}.cjc", truth=truth),
    ]


# -- structured matrices: P * (block Jordan form) * P^-1 ----------------------

def _structured(rng, pm, pm_inv, factors, p: int) -> dict:
    """Truth for M = P J P^-1, J built from (monic factor, alpha, [block mults]).

    Every factor is irreducible and K-regular, alpha is its K-projection
    -a_{d-1}/d, so S = P diag(C) P^-1 and H = P diag(alpha I) P^-1.
    """
    jordan, semi, horiz = [], [], []
    minpoly = [exact.scalar(1, p)]
    expected = []
    for f, alpha, mults in factors:
        c = exact.companion(f, p)
        for k in mults:
            jordan.append(exact.jordan_block(c, k, p))
            semi.append(exact.block_diag([c] * k, p))
            horiz.append(exact.scale(alpha, exact.identity(len(c) * k, p), p))
        top = max(mults)
        for _ in range(top):
            minpoly = exact.poly_mul(minpoly, f, p)
        expected.append((tuple(f), top))
    order = list(range(len(jordan)))
    rng.shuffle(order)

    def conj(blocks):
        return exact.conjugate(pm, exact.block_diag([blocks[i] for i in order], p), pm_inv, p)

    return {
        "m": conj(jordan),
        "S": conj(semi),
        "H": conj(horiz),
        "minpoly": minpoly,
        "factors": sorted(expected),
    }


def _q_factor(rng, used) -> tuple:
    """A monic irreducible factor over Q of degree 1, 2 or 3, and its alpha."""
    while True:
        kind = rng.choice((1, 1, 2, 2, 3))
        alpha = Fraction(rng.randint(-3, 3))
        if kind == 1:
            f = [-alpha, Fraction(1)]
        elif kind == 2:
            c = Fraction(rng.choice((1, 2, 3, 5, -2, -3, -5)))  # roots alpha +- sqrt(-c)
            f = [alpha * alpha + c, -2 * alpha, Fraction(1)]
        else:
            a = Fraction(rng.choice((2, 3, 5, 6, 7)))  # (X - alpha)^3 - a, a not a cube
            f = [-(alpha ** 3) - a, 3 * alpha * alpha, -3 * alpha, Fraction(1)]
        if tuple(f) not in used:
            used.add(tuple(f))
            return f, alpha


def jordan_q(rng: random.Random, n: int) -> dict:
    """Repeated small factors with multiplicity 2-3 over Q, total size n.

    At most one factor is quadratic or cubic: the squarefree part then keeps
    degree <= 3 once its rational roots are gone, so factoring stays cheap
    and the time goes to Newton, Hensel and the projectors.
    """
    factors, used, left = [], set(), n
    while left:
        f, alpha = _q_factor(rng, used)
        d = len(f) - 1
        if d > left or (d > 1 and any(len(g) > 2 for g, _, _ in factors)):
            continue
        mults = []
        while left >= d and (not mults or rng.random() < 0.3):
            k = min(rng.choice((2, 2, 3)) if not mults else 1, left // d)
            mults.append(k)
            left -= d * k
        factors.append((f, alpha, mults))
    pm, pm_inv = _random_invertible(rng, n, 0)
    return _structured(rng, pm, pm_inv, factors, 0)


def _fp_irreducible(rng, p: int, degree: int):
    """Random monic irreducible of degree <= 3 over F_p (no roots suffices)."""
    while True:
        f = [rng.randrange(p) for _ in range(degree)] + [1]
        if degree == 1 or all(
            sum(c * pow(x, i, p) for i, c in enumerate(f)) % p for x in range(p)
        ):
            return f


def k_regular_fp(rng: random.Random, p: int, n: int, squarefree: bool) -> dict:
    """Matrix over F_p built from irreducible factors of degree prime to p.

    The block degrees follow a fixed pattern (1, 2, 3, 1, 2, 3, ...; no 3
    over F_3) and the seed picks the factors, so the cost of a size varies
    little with the seed.  Unless ``squarefree``, the first factor is linear
    with multiplicity 2, so the minimal polynomial is not squarefree and
    Newton and Hensel iterate.  A factor drawn twice gets a second block.
    """
    pattern = itertools.cycle((1, 2) if p == 3 else (1, 2, 3))
    factors, left = {}, n
    while left:
        d = min(next(pattern), left)
        f = _fp_irreducible(rng, p, d)
        k = 1 if squarefree or factors else min(2, left // d)
        left -= d * k
        alpha = (-f[d - 1]) * pow(d, -1, p) % p
        factors.setdefault(tuple(f), (f, alpha, []))[2].append(k)
    pm, pm_inv = _random_invertible(rng, n, p)
    return _structured(rng, pm, pm_inv, list(factors.values()), p)


def dense_q(rng: random.Random, n: int, stratum: str = "settled"):
    """Random integer matrix, entries in [-5, 5], drawn until it is in
    ``stratum`` by ``exact.open_factor_degrees``: "settled" when neither M
    nor the vertical part V = M - (tr M / n) I, which ``check`` of a ``cjc``
    result factors again, leaves a degree to search; "open" when M leaves two
    or more, "vopen" when only V does.  A search over two or more degrees
    runs from seconds to minutes, past the timeout; one over a single degree
    ends anywhere from 0.05 s to minutes, so those matrices, which would
    straddle any timeout, are never drawn."""
    while True:
        m = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        if exact.is_zero(m):
            continue
        own = len(exact.open_factor_degrees(m))
        if own == 1:
            continue
        if own >= 2:
            found = "open"
        else:
            shift = Fraction(sum(m[i][i] for i in range(n)), n)
            vertical = len(exact.open_factor_degrees(m, skip=shift.denominator))
            found = {0: "settled", 1: None}.get(vertical, "vopen")
        if found == stratum:
            return m


# -- semisimple matrices of splitting bound <= 2 for the series path ----------

def semisimple_sb2(rng: random.Random, n: int, radius: int, sign: int, p: int = 0,
                   low: float = 0.5, step: int = 2) -> dict:
    """P D P^-1, D = one 2x2 block [[alpha, -c], [1, alpha]] then 1x1 blocks gamma.

    The 2x2 block has roots alpha +- sqrt(-c): a complex pair for ``sign``
    +1 (c > 0, so ``normalize`` applies), a real irrational pair for -1
    (c = -s with s not a square).  finefrob reports c as the factor's n.
    Only one such block: with two, poly.factor must split a product of
    quadratics by its Kronecker search, which takes seconds and would hand
    this workload to the factor layer that q_decompose already loads.  The
    pair has |alpha| + sqrt|c| (the radius finefrob sizes its cutoff by) in
    [low * radius, radius), alpha is a multiple of 1/step and c of
    1/step^2, and every gamma is a distinct multiple of 1/2 below
    ``radius`` (and below 4), so the class fixes the
    order of the spectral radius.  With ``p`` set, the data are multiplied
    through (gamma and alpha by p, c by p^2): every eigenvalue is divisible by
    p, so the p-adic series converge, without scaling M.
    """
    while True:
        alpha = Fraction(rng.randint(-step * radius + 1, step * radius - 1), step)
        if sign > 0:
            c = Fraction(rng.randint(1, step * step * radius * radius), step * step)
        else:
            c = -Fraction(rng.choice((2, 3, 5, 6, 7, 10, 11)) * rng.randint(1, radius) ** 2)
        if low * radius <= abs(float(alpha)) + abs(float(c)) ** 0.5 < radius:
            break
    top = min(radius, 4)
    gammas = rng.sample(range(-2 * top + 1, 2 * top), n - 2)
    q = p or 1
    d = exact.block_diag(
        [[[alpha * q, -c * q * q], [Fraction(1), alpha * q]]]
        + [[[Fraction(g, 2) * q]] for g in gammas],
        0,
    )
    pm, pm_inv = _random_invertible(rng, n, 0)
    return {"m": exact.conjugate(pm, d, pm_inv, 0), "D": d, "P": pm, "Pinv": pm_inv}


# -- the streams -------------------------------------------------------------

# Why each workload exists is in README.md; the schedules fix the mix.
_Q_SCHEDULE = ("dense2", "jordan", "dense3", "top-open", "dense4", "jordan", "dense5",
               "dense6", "jordan", "top", "dense7", "vopen", "dense8", "jordan")
_FP_PRIMES = (3, 5, 7, 1009)
_FP_SIZES = (4, 5, 6, 8, 10, 12, 14, 16)
_RADIUS = {"small": 2, "medium": 8, "large": 290}
PADIC_PREC = 24


def q_decompose(seed: int, groups: int) -> list[list[Request]]:
    """Dense integer matrices on the n = 2..8 ladder with a thin top of
    n = 9..12, interleaved with P J P^-1 matrices of repeated factors.

    A cycle holds one settled matrix of each n = 2..8, one open and one
    settled of n = 9..12, and one V-open of n = 7 (see ``dense_q``): sizes
    where open searches outlast the timeout, so the count of timeouts per
    cycle stays fixed.  Open searches at n = 6..8 also end within a second
    now and then, and would flip between runs.
    """
    rng = random.Random(f"q_decompose:{seed}")
    out = []
    for g in range(groups):
        cls, cycle = _Q_SCHEDULE[g % len(_Q_SCHEDULE)], g // len(_Q_SCHEDULE)
        if cls == "jordan":
            truth = jordan_q(rng, 3 + (4 * cycle + _Q_SCHEDULE[:g % len(_Q_SCHEDULE)].count("jordan")) % 6)
            m = truth.pop("m")
        elif cls in ("top", "top-open"):
            m, truth = dense_q(rng, 9 + cycle % 4, "open" if cls == "top-open" else "settled"), {}
        elif cls == "vopen":
            m, truth = dense_q(rng, 7, cls), {}
        else:
            m, truth = dense_q(rng, int(cls[5:])), {}
            cls = "dense"
        out.append(_decomposition_group(f"q{g:04d}-{cls}{len(m)}", m, 0, truth))
    return out


def fp_decompose(seed: int, groups: int) -> list[list[Request]]:
    """K-regular matrices over F_3, F_5, F_7 and F_1009, half of them with a
    minimal polynomial that is not squarefree, n = 4..16.  A cycle of eight
    holds every size once and every (prime, squarefree) pair once; the
    pairing rotates from cycle to cycle."""
    rng = random.Random(f"fp_decompose:{seed}")
    out = []
    for g in range(groups):
        p = _FP_PRIMES[g % len(_FP_PRIMES)]
        squarefree = (g // len(_FP_PRIMES)) % 2 == 1
        n = _FP_SIZES[(g + g // len(_FP_SIZES)) % len(_FP_SIZES)]
        truth = k_regular_fp(rng, p, n, squarefree)
        m = truth.pop("m")
        tag = "sf" if squarefree else "rep"
        out.append(_decomposition_group(f"f{g:04d}-p{p}-{tag}{n}", m, p, truth))
    return out


def _series_schedule():
    """One cycle: (class, n, sign of the 2x2 block, p, series applied).

    Small and medium radius at every n = 2..8, with opposite signs at each n;
    p-adic at n = 2..6 over p = 3, 5, 7; the large-radius pair twice.  Every
    cycle is the same list, so a run serves the same mix whatever number of
    cycles fits in it.
    """
    fns = itertools.cycle(SERIES_FNS)
    slots = []
    for i in range(7):
        n, sign = 2 + i, 1 if i % 2 == 0 else -1
        slots.append(("small", n, sign, 0, (next(fns), next(fns))))
        slots.append(("medium", n, -sign, 0, (next(fns), next(fns))))
        if i < 5:
            slots.append(("padic", n, sign, (3, 5, 7)[i % 3], (SERIES_FNS[i],)))
        if i in (2, 5):
            slots.append(("large", 2, 1, 0, ("exp",)))
    return tuple(slots)


_SERIES_SCHEDULE = _series_schedule()


def q_series(seed: int, groups: int) -> list[list[Request]]:
    """Semisimple matrices of splitting bound <= 2 whose spectral radius is
    below 2, below 8 or a few hundred, and p-adic ones with eigenvalues
    divisible by p; series requests on each.  Sizes, the sign of the 2x2
    block and the series follow the schedule."""
    rng = random.Random(f"q_series:{seed}")
    out = []
    for g in range(groups):
        cls, n, sign, p, fns = _SERIES_SCHEDULE[g % len(_SERIES_SCHEDULE)]
        if cls == "padic":
            truth = dict(semisimple_sb2(rng, n, 2, sign, p), p=0, padic=p)
            absval, extra = f"padic:{p}", ("--prec", str(PADIC_PREC))
        else:
            if cls == "large":
                # exp of a rotation-like pair with integer data, in a band
                # where the cutoff is always 887 terms: the slowest requests
                # then cost alike, which keeps throughput and tail steady
                truth = dict(semisimple_sb2(rng, 2, _RADIUS[cls], sign, low=0.9, step=1), p=0)
            else:
                truth = dict(semisimple_sb2(rng, n, _RADIUS[cls], sign), p=0)
            absval, extra = "arch", ()
        doc = matrix_doc(truth["m"], 0)
        gid = f"s{g:04d}-{cls}{n}"
        group = [Request(f"{gid}.fine", "fine", doc, truth=truth),
                 Request(f"{gid}.check-fine", "check", doc, source=f"{gid}.fine", truth=truth)]
        if sign > 0 and cls != "padic":
            group.append(Request(f"{gid}.normalize", "normalize", doc, truth=truth))
        group.append(Request(f"{gid}.domain", "domain", doc,
                             ("--fn", "exp", "--abs", absval), truth=truth))
        for fn in fns:
            rid = f"{gid}.apply-{fn}"
            group.append(Request(rid, "apply", doc, ("--fn", fn, "--abs", absval) + extra,
                                 truth=truth))
            group.append(Request(f"{gid}.check-{fn}", "check", doc, source=rid, truth=truth))
        out.append(group)
    return out


CYCLES = {"q_decompose": len(_Q_SCHEDULE), "fp_decompose": len(_FP_SIZES),
          "q_series": len(_SERIES_SCHEDULE)}
STREAMS = {"q_decompose": q_decompose, "fp_decompose": fp_decompose, "q_series": q_series}
