"""The benchmark's own verdict on every response, computed after its timer.

Nothing here calls finefrob: matrices and polynomials are re-read from the
printed JSON and checked with ``exact`` (and mpmath for archimedean series),
against what the generator knows about each input.  ``verdict`` returns None
for a correct answer, or the reason it is wrong.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from . import exact


class Wrong(Exception):
    """An answer failed a check; the message says which."""


def _require(cond: bool, reason: str):
    if not cond:
        raise Wrong(reason)


def _matrix(doc, p: int, n: int):
    _require(isinstance(doc, dict) and doc.get("n") == n, "matrix has the wrong shape")
    return [[exact.parse_scalar(x, p) for x in row] for row in doc["entries"]]


def _poly(coeffs, p: int):
    return exact.poly_trim([exact.parse_scalar(c, p) for c in coeffs])


# -- decompositions ----------------------------------------------------------

def _check_minpoly(req, result):
    p, m = req.truth["p"], req.truth["m"]
    f = _poly(result["coeffs"], p)
    _require(bool(f) and f[-1] == 1, "minimal polynomial is not monic")
    _require(exact.is_zero(exact.poly_eval_matrix(f, m, p)), "polynomial does not annihilate M")
    if "minpoly" in req.truth:
        _require(f == req.truth["minpoly"], "minimal polynomial differs from the construction")


def _check_factor(req, result, given):
    p = req.truth["p"]
    target = _poly(given["coeffs"], p)
    product = [exact.parse_scalar(result["unit"], p)]
    found = []
    for item in result["factors"]:
        f = _poly(item["coeffs"], p)
        k = item["multiplicity"]
        _require(len(f) >= 2 and f[-1] == 1, "factor is not monic of positive degree")
        _require(isinstance(k, int) and k >= 1, "bad multiplicity")
        for _ in range(k):
            product = exact.poly_mul(product, f, p)
        found.append((tuple(f), k))
    _require(product == target, "product of the factors does not reconstruct the input")
    if "factors" in req.truth and target == req.truth["minpoly"]:
        _require(sorted(found) == req.truth["factors"], "factors differ from the construction")


def _check_nilpotent_commuting(parts, m, p: int):
    total = parts[0]
    for part in parts[1:]:
        total = exact.add(total, part, p)
    _require(total == m, "parts do not sum to M")
    for i, a in enumerate(parts):
        for b in parts[i + 1:]:
            _require(exact.mul(a, b, p) == exact.mul(b, a, p), "parts do not commute")
    _require(exact.is_zero(exact.power(parts[-1], len(m), p)), "N^n is not zero")


def _check_jc(req, result):
    p, m = req.truth["p"], req.truth["m"]
    s, n = (_matrix(result[k], p, len(m)) for k in ("S", "N"))
    _check_nilpotent_commuting([s, n], m, p)
    if "S" in req.truth:
        _require(s == req.truth["S"], "S differs from the construction")


def _check_cjc(req, result):
    p, m = req.truth["p"], req.truth["m"]
    h, v, n = (_matrix(result[k], p, len(m)) for k in ("H", "V", "N"))
    _check_nilpotent_commuting([h, v, n], m, p)
    if "S" in req.truth:
        _require(h == req.truth["H"], "H differs from the construction")
        _require(exact.add(h, v, p) == req.truth["S"], "H + V differs from S")
        found = sorted((tuple(_poly(f["coeffs"], p)), f["multiplicity"]) for f in result["factors"])
        _require(found == req.truth["factors"], "factor data differ from the construction")


# -- fine decomposition --------------------------------------------------------

def expected_covariants(truth):
    """(kernel projector, {gamma: A}, {(alpha, c): (P_j, B_j)}) from P D P^-1."""
    d, pm, pm_inv = truth["D"], truth["P"], truth["Pinv"]
    n = len(d)

    def lift(cells):
        e = exact.zeros(n, 0)
        for i, j, x in cells:
            e[i][j] = Fraction(x)
        return exact.conjugate(pm, e, pm_inv, 0)

    kernel, linear, quad = exact.zeros(n, 0), {}, {}
    for blk in exact.spectral_blocks(d):
        i = blk[0]
        if blk[1] == "linear":
            proj = lift([(i, i, 1)])
            if blk[2] == 0:
                kernel = proj
            else:
                linear[blk[2]] = proj
        else:
            quad[(blk[2], blk[3])] = (
                lift([(i, i, 1), (i + 1, i + 1, 1)]),
                lift([(i, i + 1, -blk[3]), (i + 1, i, 1)]),
            )
    return kernel, linear, quad


def _check_covariants(req, result, normalized: bool):
    n = len(req.truth["m"])
    kernel, linear, quad = expected_covariants(req.truth)
    _require(_matrix(result["A0"], 0, n) == kernel, "kernel projector differs")
    got = {Fraction(item["gamma"]): _matrix(item["A"], 0, n) for item in result["linear"]}
    _require(got == linear, "linear covariants differ")
    _require(len(result["quadratic"]) == len(quad), "wrong number of quadratic covariants")
    for item in result["quadratic"]:
        key = (Fraction(item["alpha"]), Fraction(item["n"]))
        _require(key in quad, "quadratic covariant with unknown (alpha, n)")
        proj, vertical = quad[key]
        _require(_matrix(item["P"], 0, n) == proj, "quadratic projector differs")
        if not normalized:
            _require(_matrix(item["B"], 0, n) == vertical, "vertical covariant differs")
            continue
        im = _quad_scalar(item["imaginary"])
        _require(_quad_mul(im, im) == (key[1], Fraction(0), im[2]), "imaginary^2 != n")
        unit = item["B_unit"]
        _require(unit.get("n") == n, "B_unit has the wrong shape")
        for i, row in enumerate(unit["entries"]):
            for j, x in enumerate(row):
                prod = _quad_mul(im, _quad_scalar(x))
                _require(prod[1] == 0 and prod[0] == vertical[i][j], "imaginary * B_unit != B")


def _quad_scalar(obj):
    """(a, b, d) for a + b sqrt(d); a plain rational has b = 0."""
    if isinstance(obj, str):
        return Fraction(obj), Fraction(0), None
    return Fraction(obj["a"]), Fraction(obj["b"]), Fraction(obj["d"])


def _quad_mul(x, y):
    d = x[2] if x[2] is not None else y[2]
    _require(not (x[1] and y[1]) or x[2] == y[2], "entries in different quadratic fields")
    root = d if d is not None else 0
    return x[0] * y[0] + x[1] * y[1] * root, x[0] * y[1] + x[1] * y[0], d


# -- series --------------------------------------------------------------------

def series_coeff(name: str, k: int) -> Fraction:
    base = Fraction(1, math.factorial(k))
    if name == "EXP":
        return base
    if name in ("SINH", "SIN") and k % 2 == 1:
        return base if name == "SINH" or k % 4 == 1 else -base
    if name in ("COSH", "COS") and k % 2 == 0:
        return base if name == "COSH" or k % 4 == 0 else -base
    return Fraction(0)


def _mp_fn(name: str):
    return {"EXP": mpmath.exp, "SIN": mpmath.sin, "COS": mpmath.cos,
            "SINH": mpmath.sinh, "COSH": mpmath.cosh}[name]


def arch_oracle(truth, name: str, prec: int):
    """f(M) = P f(D) P^-1, each 2x2 block by its closed form, at ``prec`` bits."""
    d, pm, pm_inv = truth["D"], truth["P"], truth["Pinv"]
    n, fn = len(d), _mp_fn(name)
    with mpmath.workprec(prec):
        fd = mpmath.zeros(n, n)
        for blk in exact.spectral_blocks(d):
            i = blk[0]
            if blk[1] == "linear":
                fd[i, i] = fn(mpmath.mpf(blk[2].numerator) / blk[2].denominator)
                continue
            alpha = mpmath.mpf(blk[2].numerator) / blk[2].denominator
            c = mpmath.mpf(blk[3].numerator) / blk[3].denominator
            beta = mpmath.sqrt(mpmath.mpc(-c))
            up, down = fn(alpha + beta), fn(alpha - beta)
            even, odd = mpmath.re((up + down) / 2), mpmath.re((up - down) / (2 * beta))
            fd[i, i] = fd[i + 1, i + 1] = even
            fd[i, i + 1], fd[i + 1, i] = -c * odd, odd

        def mp(a):
            return mpmath.matrix([[mpmath.mpf(x.numerator) / x.denominator for x in row] for row in a])

        left, right = mp(pm), mp(pm_inv)
        value = left * fd * right
        size = mpmath.matrix([[abs(x) for x in row] for row in left.tolist()])
        size = size * mpmath.matrix([[abs(x) for x in row] for row in fd.tolist()])
        size = size * mpmath.matrix([[abs(x) for x in row] for row in right.tolist()])
        return value, size


def _check_arch(req, result):
    truth, n = req.truth, len(req.truth["m"])
    name = result["series"]["name"]
    radius = max(
        abs(b[2]) if b[1] == "linear" else abs(b[2]) + abs(b[3]) ** 0.5
        for b in exact.spectral_blocks(truth["D"])
    )
    prec = result["precision"] + 64 + int(2 * radius)  # e^radius costs 1.45 radius bits
    value, size = arch_oracle(truth, name, prec)
    # decimals are printed to the digits of the working precision
    digits = mpmath.mpf(10) ** (1 - mpmath.libmp.prec_to_dps(result["precision"]))
    with mpmath.workprec(prec):
        for i in range(n):
            for j in range(n):
                claim = mpmath.mpf(result["entries"][i][j])
                bound = mpmath.mpf(result["error_bounds"][i][j])
                slack = (abs(claim) + bound) * digits + size[i, j] * mpmath.mpf(2) ** (16 - prec)
                gap = abs(claim - value[i, j])
                _require(gap <= bound + slack,
                         f"entry ({i},{j}) is {mpmath.nstr(gap, 5)} from the oracle, "
                         f"claimed bound {mpmath.nstr(bound, 5)}")


def padic_valuation(x: Fraction, p: int):
    if x == 0:
        return math.inf
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def taylor_sum(m, name: str, terms: int):
    """sum_{k <= terms} a_k M^k exactly, by Horner's rule."""
    return exact.poly_eval_matrix([series_coeff(name, k) for k in range(terms + 1)], m, 0)


def _check_padic(req, result):
    m, p = req.truth["m"], result["p"]
    name, terms = result["series"]["name"], result["terms"]
    claim = _matrix({"n": len(m), "entries": result["entries"]}, 0, len(m))
    _require(claim == taylor_sum(m, name, terms), f"entries differ from the {terms}-term Taylor sum")
    bound = result["valuation_bound"]
    if bound == "inf":
        return
    doubled = taylor_sum(m, name, 2 * terms)
    low = min(padic_valuation(x, p) for row in exact.sub(doubled, claim, 0) for x in row)
    _require(low >= bound, f"doubled cutoff moves a digit of valuation {low} < {bound}")


def _check_domain(req, result):
    truth = req.truth
    p = truth.get("padic", 0)
    _require(result["in_omega_hat"] is True, "domain verdict is not true")
    if p:
        _require(math.isclose(float(result["radius"]), p ** (-1 / (p - 1)), rel_tol=1e-12),
                 "wrong p-adic radius")
    else:
        _require(result["radius"] == "inf", "wrong archimedean radius")

    def size(x: Fraction, half: bool = False):
        if not p:
            return abs(float(x)) ** (0.5 if half else 1)
        v = padic_valuation(x, p)
        return 0.0 if v == math.inf else float(p) ** (-v / (2 if half else 1))

    want = []
    for blk in exact.spectral_blocks(truth["D"]):
        if blk[1] == "linear":
            want.append(("linear", size(blk[2]), size(blk[2]), 0.0))
            continue
        alpha, c = blk[2], blk[3]
        if p:
            lam = size(alpha * alpha + c, True)
        elif c > 0:
            lam = math.sqrt(float(alpha * alpha + c))
        else:
            lam = abs(float(alpha)) + math.sqrt(float(-c))
        want.append(("quadratic", lam, size(alpha), size(c, True)))
    got = [(e["kind"], float(e["abs_lambda"]), float(e["abs_alpha"]), float(e["abs_beta"]))
           for e in result["eigen_data"]]
    _require(len(got) == len(want), "wrong number of eigenvalue entries")
    for a, b in zip(sorted(got), sorted(want)):
        _require(a[0] == b[0] and all(math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12)
                                      for x, y in zip(a[1:], b[1:])),
                 "eigenvalue absolute values differ")


_CHECKERS = {
    "minpoly": _check_minpoly,
    "jc": _check_jc,
    "cjc": _check_cjc,
    "fine": lambda req, result: _check_covariants(req, result, False),
    "normalize": lambda req, result: _check_covariants(req, result, True),
    "domain": _check_domain,
    "apply": lambda req, result: (_check_arch if result["kind"] == "arch" else _check_padic)(req, result),
}


def verdict(req, envelope: dict, given: dict | None = None):
    """None if ``envelope`` (a parsed stdout document) is a right answer to ``req``.

    ``given`` is the result document ``req`` read from its source (the
    polynomial a ``factor`` request factored).  ``check`` requests are judged
    by ``check_verdict``.
    """
    try:
        _require(envelope.get("command") == req.command, "wrong command in the envelope")
        result = envelope["result"]
        if req.command == "factor":
            _check_factor(req, result, given)
        else:
            _CHECKERS[req.command](req, result)
    except Wrong as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, ArithmeticError, IndexError) as exc:
        return f"malformed answer: {exc!r}"
    return None


def check_verdict(envelope: dict, source_right: bool):
    """Compare a ``check`` answer with the benchmark's verdict on its source.

    Returns (None, None) when they agree, ("rejected", reason) when ``check``
    refused a result the benchmark found right, and ("wrong", reason) when it
    passed a wrong one or printed something malformed.
    """
    try:
        passed = envelope["result"]["passed"]
    except (KeyError, TypeError) as exc:
        return "wrong", f"malformed check answer: {exc!r}"
    if passed is source_right:
        return None, None
    if source_right:
        return "rejected", "check rejected a result the benchmark verified: " + _failing(envelope)
    return "wrong", "check passed a result the benchmark found wrong"


def _failing(envelope) -> str:
    report = envelope.get("report", {})
    return ",".join(sorted(k for k, v in report.items() if v is False)) or "?"
