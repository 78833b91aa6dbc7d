"""Command-line front end.

Subcommands: minpoly, factor, jc, cjc, fine, normalize, apply, domain, check.
Each reads JSON input files, computes with the library modules, and prints a
single canonical JSON document {"command", "input_hash", "result"(, "report")}
to standard output.  Exit codes: 0 success, 1 malformed input, 2 precondition
violation; failures print {"error": {"code", "message"}} where ``code`` is the
library error class name; ``check`` exits 0 whenever it reaches a verdict,
``"passed": false`` included.  Identical inputs give byte-identical output:
the random draws of ``poly.factor`` never change an answer.

``jsonio`` reads every document and ``--prec`` and ``--terms``; this module
dispatches and states the clauses ``check`` verifies.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from . import jsonio
from .errors import (
    CapExceeded,
    DegreeTooLarge,
    DomainError,
    FieldMismatch,
    InputError,
    NotKRegular,
    SchemaMismatch,
)
from .frobenius import (
    _covariant_sum,
    _normalized_sum,
    fine_frobenius,
    normalize,
    verify_fine,
)
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
from .poly import FACTOR_DEGREE_CAP, factor
from .scalar import AbsValue
from .series import (
    SeriesSpec,
    _matrix_min_valuation,
    apply_series,
    domain_data,
    padic_truncation_bound,
    radius_of_convergence,
    taylor_partial_exact,
)

_CHECK_TOLERANCE = Fraction(1, 10**12)
_ORACLE_TERMS = 60


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
    return SeriesSpec.named(text)


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
    else:  # domain: argparse restricts the choices
        result = _run_domain(doc, args)
    return {"command": args.command, "input_hash": digest, "result": result}


def _run_apply(doc, args) -> dict:
    precision = jsonio.valid_precision(args.prec)
    terms = None if args.terms is None else jsonio.valid_terms(args.terms)
    m = jsonio.matrix_from_json(doc)
    spec = _parse_fn(args.fn)
    av = _parse_abs(args.abs)
    res = apply_series(m, spec, av, precision=precision, terms=terms)
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
    command, result = jsonio.envelope_from_json(result_doc)
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
    fact = jsonio.factorization_from_json(f.field, result)
    polys = [poly for poly, _ in fact.factors]
    # a product of nonzero factors has degree sum deg * mult, so a correct
    # factorization meets both bounds, and an expansion past them is not taken
    bounded = (sum(poly.degree * mult for poly, mult in fact.factors) == f.degree
               and all(mult <= f.degree for _, mult in fact.factors))
    return {
        "factors_monic": all(poly.is_monic for poly in polys),
        "factors_distinct": len(set(polys)) == len(polys),
        # a factor past the cap is not factored, and reads as not certified
        "factors_irreducible": bounded and all(
            1 <= poly.degree <= FACTOR_DEGREE_CAP and factor(poly).factors == ((poly, 1),)
            for poly in polys),
        "product_reconstructs": bounded and fact.expand(f.field) == f,
    }


def _check_jc(input_doc, result) -> dict:
    m = jsonio.matrix_from_json(input_doc)
    s, n = jsonio.parts_from_json(result, ("S", "N"), m, "jc document")
    try:
        semisimple = is_semisimple(s)
    except (DegreeTooLarge, FieldMismatch, NotKRegular):  # as check cjc reads them
        semisimple = False
    return {
        "sum_reconstructs": s + n == m,
        "commute": s * n == n * s,
        "semisimple": semisimple,
        "nilpotent": is_nilpotent(n),
    }


def _check_cjc(input_doc, result) -> dict:
    m = jsonio.matrix_from_json(input_doc)
    h, v, n = jsonio.parts_from_json(result, ("H", "V", "N"), m, "cjc document")
    dec = CompleteJC(horizontal=h, vertical=v, nilpotent=n, factor_data=())
    return dict(verify_complete_jc(m, dec).checks)


def _check_fine(input_doc, result) -> dict:
    m = jsonio.matrix_from_json(input_doc)
    dec = jsonio.fine_from_json(result, m)
    report = verify_fine(dec)
    clauses = dict(report.checks)
    clauses["reconstructs_input"] = report.passed and _covariant_sum(dec) == m
    return clauses


def _check_normalize(input_doc, result) -> dict:
    m = jsonio.matrix_from_json(input_doc)
    dec = jsonio.normalized_from_json(result, m)
    squares = [cov.vertical_unit * cov.vertical_unit for cov in dec.quadratic]
    parts = [dec.kernel_projector, *(cov.matrix for cov in dec.linear),
             *(cov.projector for cov in dec.quadratic)]
    identity = Matrix.identity(m.field, m.n)
    return {
        "cube_identity": all(sq * cov.vertical_unit == -cov.vertical_unit
                             for sq, cov in zip(squares, dec.quadratic)),
        "imaginary_squares_to_n": all(cov.imaginary * cov.imaginary == cov.n
                                      for cov in dec.quadratic),
        "projector_consistency": all(cov.projector == -sq
                                     for sq, cov in zip(squares, dec.quadratic)),
        "kernel_complement": sum(parts, Matrix.zeros(m.field, m.n)) == identity,
        "reconstructs_input": _normalized_sum(dec, squares) == m,
    }


def _check_apply(input_doc, result) -> dict:
    m = jsonio.matrix_from_json(input_doc)
    claim = jsonio.apply_result_from_json(result, m.n)
    return (_check_apply_arch if claim["kind"] == "arch" else _check_apply_padic)(m, claim)


def _check_apply_arch(m: Matrix, claim: dict) -> dict:
    oracle = taylor_partial_exact(m, claim["series"], _ORACLE_TERMS)
    deviation = max(abs(x) for row in (claim["entries"] - oracle).rows for x in row)
    return {
        "oracle_within_tolerance": deviation <= _CHECK_TOLERANCE,
        "max_deviation": jsonio._decimal(deviation, 8)[0],
    }


def _check_apply_padic(m: Matrix, claim: dict) -> dict:
    spec, p, terms, bound = claim["series"], claim["p"], claim["terms"], claim["valuation_bound"]
    av = AbsValue.padic(p)
    # apply goes past TERMS_CAP only by the automatic cutoff at some --prec up
    # to PRECISION_CAP, the least that certifies it: one term fewer does not
    cap = jsonio.PRECISION_CAP
    if terms > jsonio.TERMS_CAP and padic_truncation_bound(m, spec, p, terms - 1) >= cap:
        raise CapExceeded(f"terms {terms} exceed the cutoff at precision {cap}")
    # with terms 0 the doubled run searches a cutoff for twice the bound, which
    # apply states as certified at 0 terms: a higher one is forged, and its
    # search could run far past any cap
    if not terms and bound > padic_truncation_bound(m, spec, p, 0):
        return {"doubled_cutoff_within_bound": False}
    doubled = apply_series(m, spec, av, precision=2 * (bound if bound != math.inf else 1),
                           terms=2 * terms if terms else None)
    within = _matrix_min_valuation(doubled.values - claim["entries"], p) >= bound
    return {"doubled_cutoff_within_bound": within}


def _check_domain(input_doc, result) -> dict:
    return {"verdict_is_boolean": isinstance(jsonio.domain_from_json(result), bool)}


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
