"""Command-line front end.

Subcommands: minpoly, factor, jc, cjc, fine, normalize, apply, domain, check.
Each reads JSON input files, computes with the library modules, and prints a
single canonical JSON document {"command", "input_hash", "result"(, "report")}
to standard output.  Exit codes: 0 success, 1 malformed input, 2 precondition
violation; failures print {"error": {"code", "message"}} where ``code`` is the
library error class name; ``check`` exits 0 whenever it reaches a verdict,
``"passed": false`` included.  Identical inputs give byte-identical output:
the random draws of ``poly.factor`` never change an answer.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

import mpmath

from . import jsonio
from .errors import CapExceeded, DomainError, FieldMismatch, InputError, SchemaMismatch
from .frobenius import _covariant_sum, fine_frobenius, normalize, verify_fine
from .jordan_chevalley import (
    CompleteJC,
    complete_jc,
    jc_decompose_newton,
    verify_complete_jc,
)
from .matrix import (
    Matrix,
    eval_poly_at_matrix,
    is_nilpotent,
    is_semisimple,
    minimal_polynomial,
)
from .poly import Polynomial, factor
from .scalar import QQ, AbsValue
from .series import (
    NAMED_SERIES,
    SeriesSpec,
    _matrix_min_valuation,
    apply_series,
    domain_data,
    padic_truncation_bound,
    radius_of_convergence,
    taylor_oracle,
)

_CHECK_TOLERANCE = Fraction(1, 10**12)
_ORACLE_TERMS = 60
# caps on apply's overrides, and on the precision check reads from an apply
# document: past them one request takes over half a minute; automatic cutoffs
# stay below (exp of [[0,-1000],[1000,0]] takes 3389 terms)
TERMS_CAP = 4096
PRECISION_CAP = 16384


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to the schema error (exit 1)."""

    def error(self, message):
        raise SchemaMismatch(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="finefrob",
        description=(
            "Exact Jordan-Chevalley and fine Frobenius decompositions, and "
            "convergent power series of matrices over valued fields."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *, series: bool = False, prec: bool = False):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("input", help="input JSON file")
        if series:
            cmd.add_argument(
                "--fn",
                required=True,
                help="series: exp|sin|cos|sinh|cosh|custom:<file>",
            )
            cmd.add_argument(
                "--abs", required=True, help="absolute value: arch|padic:<p>"
            )
        if prec:
            cmd.add_argument(
                "--prec",
                type=int,
                default=128,
                help="working precision in bits (p-adic: target valuation bound)",
            )
            cmd.add_argument(
                "--terms", type=int, default=None, help="series cutoff override"
            )

    add("minpoly", "minimal polynomial of a matrix")
    add("factor", "irreducible factorization of a polynomial")
    add("jc", "additive Jordan-Chevalley decomposition M = S + N")
    add("cjc", "complete decomposition M = H + V + N")
    add("fine", "fine Frobenius decomposition of a semisimple matrix")
    add("normalize", "normalized fine decomposition (unit verticals)")
    add("apply", "apply a convergent series to a matrix", series=True, prec=True)
    add("domain", "convergence-domain membership and eigenvalue data", series=True)
    check_cmd = sub.add_parser("check", help="re-verify a result document")
    check_cmd.add_argument("input", help="original input JSON file")
    check_cmd.add_argument("result", help="result document to verify")
    return parser


_PARSER = build_parser()


def _parse_fn(text: str) -> SeriesSpec:
    if text.startswith("custom:"):
        return jsonio.series_spec_from_json(jsonio.load_document(text[len("custom:"):]))
    name = text.upper()
    if name in NAMED_SERIES:
        return SeriesSpec.named(name)
    raise SchemaMismatch(f"unknown series {text!r}")


def _parse_abs(text: str) -> AbsValue:
    if text == "arch":
        return AbsValue.archimedean()
    if text.startswith("padic:"):
        try:
            p = int(text[len("padic:"):])
        except ValueError as exc:
            raise SchemaMismatch(f"bad p-adic tag {text!r}") from exc
        return AbsValue.padic(p)
    raise SchemaMismatch(f"unknown absolute value {text!r}")


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _run(args) -> dict:
    if args.command == "check":
        return _run_check(args)
    doc = jsonio.load_document(args.input)
    digest = jsonio.input_hash(doc)
    if args.command == "minpoly":
        result = jsonio.poly_to_json(minimal_polynomial(jsonio.matrix_from_json(doc)))
    elif args.command == "factor":
        f = jsonio.poly_from_json(doc)
        result = jsonio.factorization_to_json(f.field, factor(f))
    elif args.command == "jc":
        result = jsonio.additive_jc_to_json(jc_decompose_newton(jsonio.matrix_from_json(doc)))
    elif args.command == "cjc":
        result = jsonio.complete_jc_to_json(complete_jc(jsonio.matrix_from_json(doc)))
    elif args.command == "fine":
        result = jsonio.fine_to_json(fine_frobenius(jsonio.matrix_from_json(doc)))
    elif args.command == "normalize":
        result = jsonio.normalized_to_json(normalize(fine_frobenius(jsonio.matrix_from_json(doc))))
    elif args.command == "apply":
        result = _run_apply(doc, args)
    elif args.command == "domain":
        result = _run_domain(doc, args)
    else:  # pragma: no cover - argparse restricts the choices
        raise SchemaMismatch(f"unknown command {args.command!r}")
    return {"command": args.command, "input_hash": digest, "result": result}


def _run_apply(doc, args) -> dict:
    if args.prec < 1:
        raise SchemaMismatch(f"precision must be positive, got {args.prec}")
    if args.terms is not None and args.terms < 0:
        raise SchemaMismatch(f"terms must be nonnegative, got {args.terms}")
    if args.prec > PRECISION_CAP:
        raise CapExceeded(f"precision {args.prec} exceeds the cap {PRECISION_CAP}")
    if args.terms is not None and args.terms > TERMS_CAP:
        raise CapExceeded(f"terms {args.terms} exceed the cap {TERMS_CAP}")
    m = jsonio.matrix_from_json(doc)
    spec = _parse_fn(args.fn)
    av = _parse_abs(args.abs)
    res = apply_series(m, spec, av, precision=args.prec, terms=args.terms)
    if av.kind == "arch":
        return jsonio.arch_result_to_json(res, spec)
    return jsonio.padic_result_to_json(res, spec)


def _run_domain(doc, args) -> dict:
    m = jsonio.matrix_from_json(doc)
    spec = _parse_fn(args.fn)
    av = _parse_abs(args.abs)
    member, data = domain_data(m, spec, av)
    return jsonio.domain_to_json(member, radius_of_convergence(spec, av), data)


# ---------------------------------------------------------------------------
# the check command
# ---------------------------------------------------------------------------

def _run_check(args) -> dict:
    input_doc = jsonio.load_document(args.input)
    result_doc = jsonio.load_document(args.result)
    if not isinstance(result_doc, dict) or "command" not in result_doc or "result" not in result_doc:
        raise SchemaMismatch("result document lacks command/result keys")
    command = result_doc["command"]
    result = result_doc["result"]
    handlers = {
        "minpoly": _check_minpoly,
        "factor": _check_factor,
        "jc": _check_jc,
        "cjc": _check_cjc,
        "fine": _check_fine,
        "normalize": _check_normalize,
        "apply": _check_apply,
        "domain": _check_domain,
    }
    if command not in handlers:
        raise SchemaMismatch(f"cannot verify a {command!r} document")
    report = handlers[command](input_doc, result)
    passed = all(bool(v) for k, v in report.items() if isinstance(v, bool))
    digest = jsonio.input_hash(input_doc, result_doc)
    return {
        "command": "check",
        "input_hash": digest,
        "result": {"checked_command": command, "passed": passed},
        "report": report,
    }


def _need(obj, *keys, what: str) -> dict:
    """Require a JSON object carrying the given keys."""
    if not isinstance(obj, dict):
        raise SchemaMismatch(f"{what} must be a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise SchemaMismatch(f"{what} lacks keys {missing}")
    return obj


def _same_shape(m: Matrix, other: Matrix):
    if m.n != other.n or m.field != other.field:
        raise SchemaMismatch("result document does not match the input dimension")


def _result_entries(result, m: Matrix) -> list:
    """The n x n entries array of an apply document for the input M."""
    entries = result["entries"]
    if (
        not isinstance(entries, list)
        or len(entries) != m.n
        or any(not isinstance(row, list) or len(row) != m.n for row in entries)
    ):
        raise SchemaMismatch("result document does not match the input dimension")
    return entries


def _cli_str(value) -> str:
    if not isinstance(value, str):
        raise SchemaMismatch(f"expected a string entry, got {value!r}")
    return value


def _check_minpoly(input_doc, result) -> dict:
    m = jsonio.matrix_from_json(input_doc)
    f = jsonio.poly_from_json(result)
    recomputed = minimal_polynomial(m)
    return {
        "monic": f.is_monic,
        "annihilates": eval_poly_at_matrix(f, m).is_zero,
        "matches_recomputation": f == recomputed,
    }


def _check_factor(input_doc, result) -> dict:
    f = jsonio.poly_from_json(input_doc)
    field = f.field
    _need(result, "unit", "factors", what="factorization document")
    unit = field.parse(result["unit"])
    product = Polynomial.constant(field, unit)
    monic = True
    seen = set()
    distinct = True
    for item in result["factors"]:
        _need(item, "coeffs", "multiplicity", what="factor item")
        poly = Polynomial(field, [field.parse(c) for c in item["coeffs"]])
        mult = item["multiplicity"]
        if type(mult) is not int or mult < 1:
            raise SchemaMismatch(f"bad multiplicity {mult!r}")
        monic = monic and poly.is_monic
        if poly in seen:
            distinct = False
        seen.add(poly)
        product = product * poly**mult
    return {
        "factors_monic": monic,
        "factors_distinct": distinct,
        "product_reconstructs": product == f,
    }


def _check_jc(input_doc, result) -> dict:
    m = jsonio.matrix_from_json(input_doc)
    _need(result, "S", "N", what="jc document")
    s = jsonio.matrix_from_json(result["S"])
    n = jsonio.matrix_from_json(result["N"])
    _same_shape(m, s)
    _same_shape(m, n)
    try:
        semisimple = is_semisimple(s)
    except FieldMismatch:  # a minimal polynomial off the ground field, as in check cjc
        semisimple = False
    return {
        "sum_reconstructs": s + n == m,
        "commute": s * n == n * s,
        "semisimple": semisimple,
        "nilpotent": is_nilpotent(n),
    }


def _check_cjc(input_doc, result) -> dict:
    m = jsonio.matrix_from_json(input_doc)
    _need(result, "H", "V", "N", what="cjc document")
    h = jsonio.matrix_from_json(result["H"])
    v = jsonio.matrix_from_json(result["V"])
    n = jsonio.matrix_from_json(result["N"])
    for part in (h, v, n):
        _same_shape(m, part)
    dec = CompleteJC(horizontal=h, vertical=v, nilpotent=n, factor_data=())
    return dict(verify_complete_jc(m, dec).checks)


def _check_fine(input_doc, result) -> dict:
    m = jsonio.matrix_from_json(input_doc)
    dec = jsonio.fine_from_json(result)
    _same_shape(m, dec.kernel_projector)
    for cov in dec.linear:
        _same_shape(m, cov.matrix)
    for cov in dec.quadratic:
        _same_shape(m, cov.vertical)
        _same_shape(m, cov.projector)
    report = verify_fine(dec)
    clauses = dict(report.checks)
    clauses["reconstructs_input"] = report.passed and _covariant_sum(dec) == m
    return clauses


def _check_normalize(input_doc, result) -> dict:
    m = jsonio.matrix_from_json(input_doc)
    field = m.field
    _need(result, "A0", "linear", "quadratic", what="normalize document")
    a0 = jsonio.matrix_from_json(result["A0"])
    _same_shape(m, a0)
    acc = Matrix.zeros(field, m.n)
    parts = a0  # A0 + sum A_i + sum P_j
    cube_ok = True
    imaginary_ok = True
    projector_ok = True
    for item in result["linear"]:
        _need(item, "gamma", "A", what="linear covariant")
        gamma = jsonio.scalar_from_json(field, item["gamma"])
        a_mat = jsonio.matrix_from_json(item["A"])
        _same_shape(m, a_mat)
        acc = acc + a_mat.scale(gamma)
        parts = parts + a_mat
    for item in result["quadratic"]:
        _need(item, "alpha", "n", "imaginary", "B_unit", "P", what="quadratic covariant")
        alpha = jsonio.scalar_from_json(field, item["alpha"])
        n_val = jsonio.scalar_from_json(field, item["n"])
        imaginary = jsonio.scalar_from_json(field, item["imaginary"])
        b_unit = jsonio.matrix_from_json(item["B_unit"])
        p_mat = jsonio.matrix_from_json(item["P"])
        _same_shape(m, b_unit)
        _same_shape(m, p_mat)
        square = b_unit * b_unit
        cube_ok = cube_ok and square * b_unit == -b_unit
        imaginary_ok = imaginary_ok and imaginary * imaginary == n_val
        projector_ok = projector_ok and p_mat == -square
        acc = acc + square.scale(-alpha) + b_unit.scale(imaginary)
        parts = parts + p_mat
    return {
        "cube_identity": cube_ok,
        "imaginary_squares_to_n": imaginary_ok,
        "projector_consistency": projector_ok,
        "kernel_complement": parts == Matrix.identity(field, m.n),
        "reconstructs_input": acc == m,
    }


def _check_apply(input_doc, result) -> dict:
    m = jsonio.matrix_from_json(input_doc)
    _need(result, "kind", "series", "entries", what="apply document")
    spec = jsonio.series_from_descriptor(result["series"])
    if result["kind"] == "arch":
        return _check_apply_arch(m, result, spec)
    if result["kind"] == "padic":
        return _check_apply_padic(m, result, spec)
    raise SchemaMismatch(f"unknown apply kind {result['kind']!r}")


def _check_apply_arch(m: Matrix, result, spec: SeriesSpec) -> dict:
    _need(result, "precision", what="archimedean apply document")
    precision = result["precision"]
    if type(precision) is not int or precision < 1:
        raise SchemaMismatch(f"bad precision {precision!r}")
    if precision > PRECISION_CAP:
        raise CapExceeded(f"precision {precision} exceeds the cap {PRECISION_CAP}")
    entries = _result_entries(result, m)
    with mpmath.workprec(precision):
        oracle = taylor_oracle(m, spec, _ORACLE_TERMS, precision)
        deviation = mpmath.mpf(0)
        for i in range(m.n):
            for j in range(m.n):
                value = mpmath.mpf(_cli_str(entries[i][j]))
                deviation = max(deviation, abs(value - oracle[i, j]))
        tolerance = mpmath.mpf(_CHECK_TOLERANCE.numerator) / _CHECK_TOLERANCE.denominator
        return {
            "oracle_within_tolerance": deviation <= tolerance,
            "max_deviation": mpmath.nstr(deviation, 8),
        }


def _check_apply_padic(m: Matrix, result, spec: SeriesSpec) -> dict:
    _need(result, "p", "terms", "valuation_bound", what="p-adic apply document")
    p = result["p"]
    terms = result["terms"]
    if type(p) is not int or type(terms) is not int:
        raise SchemaMismatch("p-adic apply document needs integer p and terms")
    entries = _result_entries(result, m)
    av = AbsValue.padic(p)
    # apply goes past TERMS_CAP only by the automatic cutoff at some --prec up
    # to PRECISION_CAP, the least that certifies it: one term fewer does not
    if terms > TERMS_CAP and padic_truncation_bound(m, spec, p, terms - 1) >= PRECISION_CAP:
        raise CapExceeded(f"terms {terms} exceed the cutoff at precision {PRECISION_CAP}")
    stated = result["valuation_bound"]
    bound = math.inf if stated == "inf" else stated
    if bound != math.inf and type(bound) is not int:
        raise SchemaMismatch(f"bad valuation bound {stated!r}")
    claimed = Matrix(QQ, [[QQ.parse(_cli_str(e)) for e in row] for row in entries])
    # with terms 0 the doubled run searches a cutoff for twice the bound, which
    # apply states as certified at 0 terms: a higher one is forged, and its
    # search could run far past any cap
    if not terms and bound > padic_truncation_bound(m, spec, p, 0):
        return {"doubled_cutoff_within_bound": False}
    doubled = apply_series(m, spec, av, precision=2 * (bound if bound != math.inf else 1),
                           terms=2 * terms if terms else None)
    within = _matrix_min_valuation(doubled.values - claimed, p) >= bound
    return {"doubled_cutoff_within_bound": within}


def _check_domain(input_doc, result) -> dict:
    if not isinstance(result, dict) or "in_omega_hat" not in result:
        raise SchemaMismatch("domain document lacks the verdict")
    return {"verdict_is_boolean": isinstance(result["in_omega_hat"], bool)}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        envelope = _run(args)
    except InputError as exc:
        print(jsonio.canonical_json({"error": {"code": exc.code, "message": str(exc)}}))
        return 1
    except DomainError as exc:
        print(jsonio.canonical_json({"error": {"code": exc.code, "message": str(exc)}}))
        return 2
    print(jsonio.canonical_json(envelope))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
