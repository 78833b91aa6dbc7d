"""How often each command computes a minimal polynomial and factors it.

``minimal_polynomial`` and ``factor`` are wrapped in every ``finefrob.*``
namespace that names them, the way ``perfbench/tracing.py`` installs its
wrappers, and each CLI command is run once on a golden input.  A
decomposition computes its matrix's spectral data once; the Newton route over
Q factors nothing; ``check`` recomputes on its own and keeps its counts.
The CRT projectors of a matrix share one table of its powers, and
``complete_jc`` reads S and the projectors off one such table, as
``fine_frobenius`` reads its projectors and vertical covariants, counted by
wrapping the int product kernel ``matrix._product``; wrapping
``Matrix.__mul__`` counts the products each ``check`` takes and those of
``M**k``; ``check fine`` calls ``verify_fine`` once.
Arithmetic in a quadratic extension keeps the canonical radicand of its
operands: only ``sqrt`` and ``quad_element`` reduce one, counted by wrapping
``squarefree_decompose``.  The archimedean cutoff search sums an exact tail
only at a cutoff whose first tail term is below the target, counted by
wrapping ``series._tail_bound``.  ``main`` parses with the parser built at
import and constructs no ``argparse.ArgumentParser`` of its own.
``squarefree_part`` over Q runs Euclid's algorithm only when its modular
certificate fails, counted by wrapping the gcd kernel ``poly._gcd`` by modulus.
``minimal_polynomial`` multiplies Krylov relations and takes no gcd or lcm,
counted by wrapping ``poly_gcd``, ``poly_lcm`` and ``matrix._local_annihilator``.
The Newton root inverts f' modulo f once, by one extended gcd at the degree
of f, and not at all when X is the root, counted by wrapping
``jordan_chevalley._xgcd``; the modular stage of factoring over Q splits each
image it has certified squarefree with no multiplicity count, counted by
wrapping ``poly._multiplicities``; it splits no image past the prime whose
degree mask proves the polynomial irreducible, recorded by wrapping
``poly._distinct_degree_split`` and ``poly._hensel_lift``; and equal-degree
splitting takes one gcd per random draw, counted by wrapping ``poly._gcd``
and ``poly._Modulus.power``.
Factoring over F_p runs on residue lists and builds a ``Polynomial`` only for
each factor it returns, counted by wrapping ``Polynomial.__init__`` and
``Polynomial._of``.  The F_p table of powers hands the product kernel only
reduced residues; ``is_nilpotent`` squares until a power is zero; and the
matrix and polynomial operations, the Newton root, the CRT idempotents and
the JSON round trips, on the stored (p, rows, d) and (coeffs, d) states,
coerce nothing and build no element, counted by wrapping ``coerce``,
``FpElement.__init__`` and ``Fraction.__new__``.
"""

import argparse
import collections
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import finefrob.frobenius
import finefrob.jordan_chevalley
import finefrob.jsonio
import finefrob.matrix
import finefrob.poly
import finefrob.scalar
import finefrob.series
from finefrob import (
    QQ,
    Matrix,
    Polynomial,
    PrimeField,
    complete_jc,
    crt_projectors,
    eval_poly_at_matrix,
    eval_polys_at_matrix,
    is_nilpotent,
    poly_gcd,
    poly_xgcd,
    quad_element,
    spectrum,
    verify_complete_jc,
)
from finefrob.cli import main

import oracles

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def counts(monkeypatch):
    tally = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            tally[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    wrappers = {
        id(finefrob.matrix.minimal_polynomial): counting(
            "minpoly", finefrob.matrix.minimal_polynomial
        ),
        id(finefrob.poly.factor): counting("factor", finefrob.poly.factor),
        id(finefrob.frobenius.verify_fine): counting(
            "verify_fine", finefrob.frobenius.verify_fine
        ),
    }
    for name, module in list(sys.modules.items()):
        if name == "finefrob" or name.startswith("finefrob."):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    monkeypatch.setattr(module, attr, wrappers[id(value)])
    return tally


def _input(name: str) -> str:
    return str(GOLDEN / "inputs" / f"{name}.json")


@pytest.mark.parametrize(
    "argv, minpoly, factor",
    [
        (["cjc", "q_jordan"], 1, 1),
        (["cjc", "q_semisimple"], 1, 1),
        (["cjc", "f3_repeated"], 1, 1),
        (["cjc", "f7_semisimple"], 1, 1),
        (["jc", "f3_repeated"], 1, 1),
        (["jc", "f7_semisimple"], 1, 1),
        (["jc", "q_jordan"], 1, 0),
        (["jc", "q_semisimple"], 1, 0),
        (["domain", "q_semisimple", "--fn", "exp", "--abs", "arch"], 1, 1),
        (["domain", "q_worked", "--fn", "cos", "--abs", "padic:3"], 1, 1),
        (["fine", "q_semisimple"], 1, 1),
        (["apply", "q_semisimple", "--fn", "exp", "--abs", "arch"], 1, 1),
        (["apply", "q_semisimple", "--fn", "sin", "--abs", "padic:3"], 1, 1),
    ],
    ids=lambda value: "-".join(value) if isinstance(value, list) else str(value),
)
def test_command_computes_spectral_data_once(argv, minpoly, factor, counts, capsys):
    assert main([argv[0], _input(argv[1])] + argv[2:]) == 0
    capsys.readouterr()
    assert (counts["minpoly"], counts["factor"]) == (minpoly, factor)


@pytest.mark.parametrize(
    "result, source, minpoly, factor",
    [
        ("minpoly-q_jordan", "q_jordan", 1, 0),
        ("jc-q_jordan", "q_jordan", 1, 0),
        ("jc-f3_repeated", "f3_repeated", 1, 1),
        ("cjc-q_jordan", "q_jordan", 2, 2),
        ("cjc-f3_repeated", "f3_repeated", 2, 2),
        ("fine-q_semisimple", "q_semisimple", 0, 0),
        ("normalize-q_semisimple", "q_semisimple", 0, 0),
        ("domain-exp-arch-q_semisimple", "q_semisimple", 0, 0),
        ("apply-exp-arch-q_semisimple", "q_semisimple", 0, 0),
        ("apply-sin-padic3-q_semisimple", "q_semisimple", 1, 1),
        ("factor-f3", "f3_poly", 0, 2),  # factors_irreducible factors each of the two
    ],
)
def test_check_counts(result, source, minpoly, factor, counts, capsys, tmp_path):
    path = tmp_path / "result.json"
    expected = (GOLDEN / "expected" / f"{result}.txt").read_text()
    path.write_text(expected.split("\n", 1)[1])
    assert main(["check", _input(source), str(path)]) == 0
    capsys.readouterr()
    assert (counts["minpoly"], counts["factor"]) == (minpoly, factor)


@pytest.fixture
def products(monkeypatch):
    """Counter of Matrix * Matrix products, and of Polynomial * Polynomial."""
    tally = collections.Counter()
    for cls in (Matrix, Polynomial):
        original = cls.__mul__

        def counting(self, other, cls=cls, original=original):
            if isinstance(other, cls):
                tally[cls.__name__] += 1
            return original(self, other)

        monkeypatch.setattr(cls, "__mul__", counting)
    return tally


@pytest.mark.parametrize(
    "result, source, matrix_products, verify_fine",
    [
        # (k + q + 1)^2 + q: every product of two of A0, A_i, B_j once, and
        # B_j^3 from the square
        ("fine-q_semisimple", "q_semisimple", 10, 1),
        ("fine-f7_semisimple", "f7_semisimple", 10, 1),
        ("fine-q_worked", "q_worked", 5, 1),
        ("normalize-q_semisimple", "q_semisimple", 2, 0),
        # is_nilpotent squares N until a power is zero: N^2 = 0 here, so one
        # product where N^5 by square and multiply took three
        ("jc-q_jordan", "q_jordan", 3, 0),
        ("cjc-q_jordan", "q_jordan", 7, 0),
    ],
)
def test_check_products(
    result, source, matrix_products, verify_fine, counts, products, capsys, tmp_path
):
    path = tmp_path / "result.json"
    expected = (GOLDEN / "expected" / f"{result}.txt").read_text()
    path.write_text(expected.split("\n", 1)[1])
    assert main(["check", _input(source), str(path)]) == 0
    assert '"passed":true' in capsys.readouterr().out
    assert (products["Matrix"], counts["verify_fine"]) == (matrix_products, verify_fine)


# the blocks 1, 2, a Jordan block of 3 and the companion of X^2 + 1 over F_7,
# conjugated: minimal polynomial of degree 6 with four irreducible factors
F7_DENSE = [
    [3, 2, 0, 4, 1, 4],
    [3, 4, 0, 6, 5, 4],
    [1, 3, 2, 5, 1, 1],
    [0, 0, 3, 3, 0, 4],
    [4, 5, 1, 2, 5, 4],
    [2, 2, 4, 3, 1, 6],
]


def test_crt_projectors_share_one_power_table(monkeypatch):
    """I, M, ..., M^(D-1) are built once: D - 2 matrix products for all four
    projectors, where one Horner evaluation per projector took about 4 D.
    The table is built by the int product kernel, which every matrix
    product runs on, so that kernel is what is counted."""
    m = Matrix(PrimeField(7), F7_DENSE)
    spectral = spectrum(m)
    assert spectral.minpoly.degree == 6 and len(spectral.factorization.factors) == 4
    products = collections.Counter()
    original = finefrob.matrix._product

    def counting(*args):
        products["mul"] += 1
        return original(*args)

    monkeypatch.setattr(finefrob.matrix, "_product", counting)
    projectors = crt_projectors(spectral.factorization, m)
    assert products["mul"] == spectral.minpoly.degree - 2
    monkeypatch.undo()
    assert sum(projectors[1:], projectors[0]) == Matrix.identity(m.field, m.n)


def _conjugated(field, blocks) -> Matrix:
    """P diag(blocks) P^-1, P unit upper triangular with entries in {0, 1, 2}."""
    n = sum(len(b) for b in blocks)
    rows, at = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[at + i][at : at + len(b)] = row
        at += len(b)
    upper = Matrix(field, [[int(i == j) or (i < j) * (i + 2 * j) % 3 for j in range(n)]
                           for i in range(n)])
    return upper * Matrix(field, rows) * upper.inverse()


@pytest.mark.parametrize(
    "m, degree, wanted",
    [
        (Matrix(PrimeField(7), F7_DENSE), 6, 4),
        # C((X^2 + 1)^2) + J_2(2): (X^2 + 1)^2 (X - 2)^2
        (_conjugated(QQ, [Matrix.companion(Polynomial(QQ, [1, 0, 2, 0, 1])).rows,
                          [[2, 1], [0, 2]]]), 6, 4),
        # C(X^3 - 2): x = X and e_1 = 1, so no power past M
        (Matrix.companion(Polynomial(QQ, [-2, 0, 0, 1])), 3, 0),
    ],
    ids=["F7-dense", "Q-repeated-quadratic", "Q-irreducible"],
)
def test_complete_jc_evaluates_at_m_once(m, degree, wanted, monkeypatch):
    """S and every projector are read off one table I, M, ..., M^(D-1):
    D - 2 int products, and none when the minimal polynomial is
    irreducible, as x = X and the one idempotent is 1."""
    assert spectrum(m).minpoly.degree == degree
    products = collections.Counter()
    original = finefrob.matrix._product

    def counting(*args):
        products["mul"] += 1
        return original(*args)

    monkeypatch.setattr(finefrob.matrix, "_product", counting)
    dec = complete_jc(m)
    assert products["mul"] == wanted
    monkeypatch.undo()
    assert verify_complete_jc(m, dec).passed


def test_fine_frobenius_reads_verticals_off_the_power_table(monkeypatch):
    """Projectors and vertical covariants come from one table I, M, ...,
    M^(D-1): on diag(C(X^2 + 1), C(X^2 + 2), 3), D = 5, that is D - 2 int
    products and none for the verticals (M - alpha I) P."""
    blocks = [Matrix.companion(Polynomial(QQ, c)).rows for c in ([1, 0, 1], [2, 0, 1])]
    m = _conjugated(QQ, blocks + [[[3]]])
    products = collections.Counter()
    original = finefrob.matrix._product

    def counting(*args):
        products["mul"] += 1
        return original(*args)

    monkeypatch.setattr(finefrob.matrix, "_product", counting)
    dec = finefrob.frobenius.fine_frobenius(m)
    assert products["mul"] == 3
    monkeypatch.undo()
    assert len(dec.quadratic) == 2 and finefrob.frobenius.verify_fine(dec).passed
    for cov in dec.quadratic:
        shifted = m - Matrix.identity(QQ, m.n).scale(cov.alpha)
        assert cov.vertical == shifted * cov.projector


def test_factor_over_fp_builds_only_its_factors(monkeypatch):
    """Over F_p every step of factoring runs on residue lists: ``factor`` of
    g1 g2^2 g3^3 over F_7, with g1, g2, g3 monic irreducible, constructs one
    Polynomial per factor it returns and no other."""
    field = PrimeField(7)
    g1, g2, g3 = (Polynomial(field, c) for c in ([1, 1], [1, 0, 1], [-2, 0, 0, 1]))
    f = g1 * g2**2 * g3**3
    built = collections.Counter()
    init, of = Polynomial.__init__, Polynomial._of

    def counting_init(self, *args):
        built["init"] += 1
        init(self, *args)

    def counting_of(cls, *args):
        built["of"] += 1
        return of(*args)

    monkeypatch.setattr(Polynomial, "__init__", counting_init)
    monkeypatch.setattr(Polynomial, "_of", classmethod(counting_of))
    fact = finefrob.poly.factor(f)
    monkeypatch.undo()
    assert fact.factors == ((g1, 1), (g2, 2), (g3, 3))
    assert (built["init"], built["of"]) == (0, 3)


def test_quadratic_arithmetic_reduces_no_radicand(monkeypatch):
    x = quad_element(QQ, 1, 2, 6)
    y = quad_element(QQ, Fraction(-3, 4), 5, 6)
    calls = collections.Counter()
    original = finefrob.scalar.squarefree_decompose

    def counting(n):
        calls["squarefree"] += 1
        return original(n)

    monkeypatch.setattr(finefrob.scalar, "squarefree_decompose", counting)
    results = [x + y, x - y, x * y, x / y, -x, x**3, x**-2, x.inverse(), x.conjugate()]
    results += [x + 1, 2 - x, x * Fraction(1, 3), 7 / x, (x + y) * (x - y)]
    assert calls["squarefree"] == 0
    assert all(r.d == 6 for r in results if isinstance(r, finefrob.scalar.QuadElement))
    root = QQ.sqrt(Fraction(8, 3))
    assert calls["squarefree"] == 1
    assert root == quad_element(QQ, 0, Fraction(2, 3), 6)


@pytest.mark.parametrize("k", range(14))
def test_powers_take_no_wasted_product(k, products):
    """floor(log2 k) + popcount(k) - 1 products for k >= 1, none for k = 0."""
    field = PrimeField(7)
    m = Matrix(field, F7_DENSE)
    f = Polynomial(field, [field.from_int(c) for c in (3, 0, 5, 1)])
    power = m**k
    poly_power = f**k
    wanted = k.bit_length() + bin(k).count("1") - 2 if k else 0
    assert (products["Matrix"], products["Polynomial"]) == (wanted, wanted)
    expected, poly_expected = Matrix.identity(field, m.n), Polynomial.one(field)
    for _ in range(k):
        expected, poly_expected = expected * m, poly_expected * f
    assert (power, poly_power) == (expected, poly_expected)


def test_cutoff_search_sums_no_hopeless_tail(monkeypatch, tmp_path, capsys):
    """exp of a rotation by 1000 takes 3389 terms: one tail summed by the
    search at the cutoff it returns, one for the error bounds."""
    calls = collections.Counter()
    original = finefrob.series._tail_bound

    def counting(*args):
        calls["tail"] += 1
        return original(*args)

    monkeypatch.setattr(finefrob.series, "_tail_bound", counting)
    path = tmp_path / "rotation.json"
    path.write_text('{"field": "Q", "n": 2, "entries": [["0", "-1000"], ["1000", "0"]]}')
    assert main(["apply", str(path), "--fn", "exp", "--abs", "arch"]) == 0
    assert '"terms":3389' in capsys.readouterr().out
    assert calls["tail"] == 2


def test_main_builds_no_parser(monkeypatch, capsys):
    built = collections.Counter()
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built["parser"] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["minpoly", _input("q_semisimple")]) == 0
    assert main(["fine", _input("q_semisimple")]) == 0
    assert main(["apply", _input("q_worked"), "--fn", "exp", "--abs", "arch"]) == 0
    assert main(["minpoly", _input("q_semisimple"), "--no-such-flag"]) == 1
    capsys.readouterr()
    assert built["parser"] == 0


def test_squarefree_part_of_squarefree_minpoly_takes_no_gcd_over_q(monkeypatch):
    """The minimal polynomial of a dense rational 6x6, squarefree, is
    certified modulo a prime; its square falls back to one gcd over Q.  Every
    gcd runs on the list kernel, counted by its modulus (0 over Q)."""
    m = Matrix(QQ, [[Fraction(3 * i - 2 * j + 1, (i * j) % 7 + 2) for j in range(6)]
                    for i in range(6)])
    mpoly = finefrob.matrix.minimal_polynomial(m)
    assert mpoly.degree == 6
    calls = collections.Counter()
    original = finefrob.poly._gcd

    def counting(a, b, p):
        calls[p] += 1
        return original(a, b, p)

    monkeypatch.setattr(finefrob.poly, "_gcd", counting)
    assert finefrob.poly.squarefree_part(mpoly) == mpoly
    assert calls[0] == 0 and calls[finefrob.poly.SQUAREFREE_PRIME] == 1
    assert finefrob.poly.squarefree_part(mpoly * mpoly) == mpoly
    assert calls[0] == 1


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_newton_inverts_f_prime_modulo_f_once(field, monkeypatch):
    """``_newton_root`` takes one extended gcd, on (f', f), of degrees (1, 2)
    for f = X^2 + 1 and mu = f^3, and none when mu is squarefree, as X is
    then the root; the root is certified by f(x) = 0 and x = X modulo f."""
    f = Polynomial(field, [1, 0, 1])
    calls = []
    original = finefrob.jordan_chevalley._xgcd

    def recording(a, b, p):
        calls.append((finefrob.poly._degree(a, p), finefrob.poly._degree(b, p)))
        return original(a, b, p)

    monkeypatch.setattr(finefrob.jordan_chevalley, "_xgcd", recording)
    mu = f**3
    root = finefrob.jordan_chevalley._newton_root(f, mu)
    assert calls == [(1, 2)]
    squarefree = f * Polynomial(field, [-2, 1])
    assert finefrob.jordan_chevalley._newton_root(squarefree, squarefree) == Polynomial.x(field)
    assert calls == [(1, 2)]
    monkeypatch.undo()
    zero = Polynomial.zero(field)
    assert f.compose(root) % mu == zero and (root - Polynomial.x(field)) % f == zero


def test_modular_stage_splits_its_squarefree_images(monkeypatch):
    """Factoring X^6 + X + 1 over Q takes multiplicities once, for the
    rational factors: each modular image is certified squarefree, so it is
    split into distinct degrees with no multiplicity count."""
    calls = collections.Counter()
    original = finefrob.poly._multiplicities

    def counting(*args):
        calls["multiplicities"] += 1
        return original(*args)

    monkeypatch.setattr(finefrob.poly, "_multiplicities", counting)
    f = Polynomial(QQ, [1, 1, 0, 0, 0, 0, 1])
    fact = finefrob.poly.factor(f)
    assert calls["multiplicities"] == 1
    monkeypatch.undo()
    assert fact.expand(QQ) == f


@pytest.mark.parametrize(
    "coeffs, primes, lifted",
    [
        ([1, 1, 0, 0, 1], [3], []),  # X^4 + X + 1: irreducible mod 3
        # X^4 + 1 splits into quadratics or linears mod every prime; two
        # quadratics mod 3 are the fewest factors, lifted
        ([1, 0, 0, 0, 1], [3, 5, 7], [3]),
    ],
    ids=["x4+x+1", "x4+1"],
)
def test_modular_stage_stops_at_its_answer(coeffs, primes, lifted, monkeypatch):
    """Factoring over Q splits images modulo the primes 3, 5, 7, ... only
    until the degree mask leaves no degree in 2..deg-2, which proves the
    polynomial irreducible; X^4 + 1 keeps degree 2 through all three primes,
    so it is lifted and recombination returns it whole."""
    seen, lifts = [], []
    split, lift = finefrob.poly._distinct_degree_split, finefrob.poly._hensel_lift

    def recording(f, p, rng):
        seen.append(p)
        return split(f, p, rng)

    def lifting(*args):
        lifts.append(args[2])
        return lift(*args)

    monkeypatch.setattr(finefrob.poly, "_distinct_degree_split", recording)
    monkeypatch.setattr(finefrob.poly, "_hensel_lift", lifting)
    f = Polynomial(QQ, coeffs)
    fact = finefrob.poly.factor(f)
    assert (seen, lifts) == (primes, lifted)
    assert fact.factors == ((f, 1),)


def test_equal_degree_split_takes_one_gcd_per_draw(monkeypatch):
    """Splitting (X - 1)(X - 2)...(X - 6) over F_7 into its linear factors
    takes one gcd per modular power: one per random draw."""
    g = [1]
    for root in range(1, 7):
        g = finefrob.poly._mul(g, [-root % 7, 1])
    g = [c % 7 for c in g]
    calls = collections.Counter()
    gcd, power = finefrob.poly._gcd, finefrob.poly._Modulus.power

    def counting_gcd(*args):
        calls["gcd"] += 1
        return gcd(*args)

    def counting_power(self, *args):
        calls["power"] += 1
        return power(self, *args)

    monkeypatch.setattr(finefrob.poly, "_gcd", counting_gcd)
    monkeypatch.setattr(finefrob.poly._Modulus, "power", counting_power)
    factors = finefrob.poly._equal_degree_split(g, 1, 7, random.Random(0))
    monkeypatch.undo()
    assert sorted(factors) == sorted([-root % 7, 1] for root in range(1, 7))
    assert calls["power"] >= 5 and calls["gcd"] == calls["power"]


@pytest.mark.parametrize(
    "field, blocks, relations",
    [
        (QQ, [[[Fraction(3, 2)]]] * 8, 1),  # scalar 8x8: one relation, the rest skipped
        (QQ, [[[0, 1], [-2, Fraction(1, 3)]]] * 2 + [[[5]]], 2),
        (QQ, [[[Fraction(3 * i - 2 * j + 1, (i * j) % 7 + 2) for j in range(6)]
               for i in range(6)]], 1),
        (PrimeField(7), [[[0, 1], [3, 0]]] * 2 + [[[1, 1], [0, 1]]], 3),
        # (X - 2) X^3: each vector of the nilpotent chain adds one factor X
        (PrimeField(7), [[[2]]] * 3 + [[[0, 1, 0], [0, 0, 1], [0, 0, 0]]], 4),
    ],
    ids=["scalar8-Q", "BBC-Q", "dense6-Q", "BBC-F7", "jordan-F7"],
)
def test_minimal_polynomial_multiplies_relations_without_gcd(
        field, blocks, relations, monkeypatch):
    """``minimal_polynomial`` of P diag(blocks) P^-1 takes no ``poly_gcd`` or
    ``poly_lcm``: the degrees of the Krylov relations it builds sum to the
    degree of the result, and a basis vector the product so far annihilates
    builds none."""
    calls = collections.Counter()
    for name in ("poly_gcd", "poly_lcm"):
        original = getattr(finefrob.poly, name)

        def counting(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(finefrob.poly, name, counting)
    degrees = []
    relation = finefrob.matrix._local_annihilator

    def recording(*args):
        g = relation(*args)
        degrees.append(len(g) - 1)
        return g

    monkeypatch.setattr(finefrob.matrix, "_local_annihilator", recording)
    m = _conjugated(field, blocks)
    mpoly = finefrob.matrix.minimal_polynomial(m)
    assert eval_poly_at_matrix(mpoly, m).is_zero
    assert (len(degrees), sum(degrees)) == (relations, mpoly.degree)
    assert calls == {}
    assert not hasattr(finefrob.matrix, "poly_lcm")


@pytest.mark.parametrize("p", [7, 1009])
def test_fp_power_table_is_reduced(p, monkeypatch):
    """Over F_p each power in the table of ``eval_polys_at_matrix`` is reduced
    mod p before the next product, so the int product kernel never sees an
    entry outside [0, p): unreduced, the entries of a^k grow to about
    k log2(n p) bits.  ``complete_jc`` builds its table the same way."""
    field = PrimeField(p)
    m = Matrix(field, F7_DENSE) if p == 7 else _conjugated(field, [F7_DENSE, [[5, 1], [0, 5]]])
    f = Polynomial(field, [field.from_int(k * k + 1) for k in range(12)])
    reduced = []
    original = finefrob.matrix._product

    def checking(a, b, *args):
        reduced.append(all(0 <= x < p for rows in (a, b) for row in rows for x in row))
        return original(a, b, *args)

    monkeypatch.setattr(finefrob.matrix, "_product", checking)
    value = eval_poly_at_matrix(f, m)
    dec = complete_jc(m)
    monkeypatch.undo()
    assert len(reduced) >= 10 and all(reduced)
    assert value.rows == oracles.poly_eval_matrix(field, list(f.coeffs), m.rows)
    assert verify_complete_jc(m, dec).passed


@pytest.mark.parametrize("p", [7, 1009])
def test_fp_matrix_kernels_take_no_dot_product(p, monkeypatch):
    """Over F_p the matrix products and the Horner and Krylov steps run on
    packed ints: ``minimal_polynomial``, ``eval_polys_at_matrix``,
    ``Matrix.__mul__``, ``complete_jc`` and ``factor`` call the list kernel
    ``matrix._dot`` zero times, while a product over Q calls it n^2 times."""
    field = PrimeField(p)
    m = _conjugated(field, [F7_DENSE, [[5, 1], [0, 5]]])
    q = Matrix(QQ, F7_DENSE)
    calls = collections.Counter()
    original = finefrob.matrix._dot

    def counting(*args):
        calls["dot"] += 1
        return original(*args)

    monkeypatch.setattr(finefrob.matrix, "_dot", counting)
    mpoly = finefrob.matrix.minimal_polynomial(m)
    f = Polynomial(field, list(range(1, 12)))
    values = eval_polys_at_matrix([mpoly, f], m)
    square = m * m
    dec = complete_jc(m)
    fact = finefrob.poly.factor(mpoly)
    assert calls == {}
    q * q
    assert calls["dot"] == q.n**2
    monkeypatch.undo()
    assert values[0].is_zero and fact.expand(field) == mpoly
    assert values[1].rows == oracles.poly_eval_matrix(field, list(f.coeffs), m.rows)
    assert square.rows == oracles.mat_mul(field, m.rows, m.rows)
    assert verify_complete_jc(m, dec).passed


def _shift(n, block):
    """The nilpotent matrix with ones above the diagonal inside blocks of ``block``."""
    return Matrix(QQ, [[int(j == i + 1 and j % block) for j in range(n)] for i in range(n)])


@pytest.mark.parametrize(
    "m, nilpotent, wanted",
    [
        (Matrix.zeros(QQ, 6), True, 0),
        (_shift(6, 2), True, 1),  # N^2 = 0
        (_shift(6, 6), True, 3),  # N^4 != 0, N^8 = 0
        (_shift(5, 5) + Matrix.identity(QQ, 5).scale(Fraction(1, 2)), False, 3),
        (Matrix.identity(QQ, 1), False, 0),
    ],
    ids=["zero", "N2", "N6", "not-nilpotent", "one"],
)
def test_is_nilpotent_squares_until_a_power_is_zero(m, nilpotent, wanted, products):
    """N, N^2, N^4, ... until a power is zero or the exponent reaches n: no
    product for N = 0 and at most ceil(log2 n) for any N."""
    assert is_nilpotent(m) is nilpotent
    assert products["Matrix"] == wanted


DOCUMENTS = {
    "Q": [["1/2", "-3", "5/6"], ["0", "7/4", "-1/3"], ["2", "1", "-1/10"]],
    "Fp:7": [["3", "2", "0"], ["6", "4", "5"], ["1", "0", "2"]],
}


POLY_DOCUMENTS = {
    "Q": ["1/2", "0", "3", "-1", "5/3"],
    "Fp:7": ["3", "0", "6", "1"],
}


@pytest.mark.parametrize("tag", DOCUMENTS)
def test_kernel_operations_build_no_element(tag, monkeypatch):
    """Matrices store (p, rows, d) and polynomials (coeffs, d), so over Q
    with denominators and over F_7 a matrix product, sum, difference, scale,
    table of powers and JSON round trip, a polynomial product, sum, divmod,
    gcd, extended gcd, composition and JSON round trip, the Newton root and
    the CRT idempotents coerce nothing and build no ``Fraction`` or
    ``FpElement``, counted by wrapping ``coerce`` of both fields,
    ``FpElement.__init__`` and ``Fraction.__new__``."""
    doc = {"field": tag, "n": 3, "entries": DOCUMENTS[tag]}
    poly_doc = {"field": tag, "coeffs": POLY_DOCUMENTS[tag]}
    field = finefrob.scalar.field_from_tag(tag)
    other = Matrix(field, [[field.from_int(i - 2 * j) for j in range(3)] for i in range(3)])
    c = field.parse("-2/3")
    polys = [Polynomial(field, [field.parse(s) for s in ("1/2", "0", "3", "-1", "5/3")]),
             Polynomial.x(field)]
    f, g = polys[0], Polynomial(field, [field.parse(s) for s in ("-1/4", "2/5", "3")])
    # q = (X - 1/2)(X^2 + 1/4) is squarefree over Q and F_7; mu = (X - 1/2) q
    linear, quadratic = (Polynomial(field, [field.parse(s) for s in cs])
                         for cs in (("-1/2", "1"), ("1/4", "0", "1")))
    q, mu = linear * quadratic, linear**2 * quadratic
    fact = finefrob.poly.factor(mu)
    built = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            built[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for cls in (finefrob.scalar.RationalField, finefrob.scalar.PrimeField):
        monkeypatch.setattr(cls, "coerce", counting("coerce", cls.coerce))
    monkeypatch.setattr(finefrob.scalar.FpElement, "__init__",
                        counting("FpElement", finefrob.scalar.FpElement.__init__))
    fraction_new = vars(Fraction)["__new__"]
    Fraction.__new__ = staticmethod(counting("Fraction", fraction_new.__func__))
    try:
        m = finefrob.jsonio.matrix_from_json(doc)
        printed = finefrob.jsonio.matrix_to_json(m)
        results = [m * other, m + other, m - other, m.scale(c), *eval_polys_at_matrix(polys, m)]
        read = finefrob.jsonio.poly_from_json(poly_doc)
        poly_printed = finefrob.jsonio.poly_to_json(read)
        poly_results = [f * g, f + g, *divmod(f, g), poly_gcd(f * g, g * g),
                        *poly_xgcd(f, g), f.compose(g)]
        root = finefrob.jordan_chevalley._newton_root(q, mu)
        idempotents = finefrob.jordan_chevalley._idempotents(fact, field)
    finally:
        Fraction.__new__ = fraction_new
        monkeypatch.undo()
    assert built == {}
    assert printed == doc and poly_printed == poly_doc
    a, b = m.rows, other.rows
    assert [r.rows for r in results] == [
        oracles.mat_mul(field, a, b), oracles.mat_add(a, b), oracles.mat_sub(a, b),
        oracles.mat_scale(c, a), *(oracles.poly_eval_matrix(field, list(f.coeffs), a) for f in polys)]
    product, total, quotient, rem, gcd, d, u, v, composed = poly_results
    assert list(product.coeffs) == oracles.poly_mul(field, list(f.coeffs), list(g.coeffs))
    assert total - g == f and quotient * g + rem == f and rem.degree < g.degree
    assert gcd == g.monic() and d == Polynomial.one(field) and u * f + v * g == d
    assert composed == sum((g**k * f.coeff(k) for k in range(f.degree + 1)), Polynomial.zero(field))
    zero = Polynomial.zero(field)
    assert q.compose(root) % mu == zero and (root - Polynomial.x(field)) ** 2 % mu == zero
    assert sum(idempotents, Polynomial.zero(field)) == Polynomial.one(field)
    assert all(e * e % mu == e for e in idempotents)
