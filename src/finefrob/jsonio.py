"""JSON schemas, canonical serialization, and input hashing.

This is the only module that reads a document: a malformed one fails in its
``*_from_json`` readers (``valid_precision``/``valid_terms`` for values) with
SchemaMismatch, every literal read by the field's parser.

Scalars serialize as strings ("n/d" or "n"; residues for prime fields);
quadratic-extension elements as {"a": str, "b": str, "d": str}; field tags as
"Q" or "Fp:<p>".  Matrices: {"field": tag, "n": int, "entries": [[scalar]]}.
Polynomials: coefficient arrays of scalar strings, constant term first.
``canonical_json`` fixes key order and separators so identical values always
produce identical bytes, and ``input_hash`` is the SHA-256 of that canonical
form of the parsed input document(s).
"""

from __future__ import annotations

import hashlib
import json
import math

import mpmath

from .errors import CapExceeded, SchemaMismatch
from .frobenius import (
    FineFrobenius,
    LinearCovariant,
    NormalizedFineFrobenius,
    NormalizedQuadCovariant,
    QuadCovariant,
)
from .jordan_chevalley import AdditiveJC, CompleteJC
from .matrix import Matrix
from .poly import Factorization, Polynomial
from .scalar import QQ, QuadElement, field_from_tag, quad_element
from .series import ArchSeriesMatrix, EigenAbs, PadicSeriesMatrix, SeriesSpec

# caps on apply's overrides, and on the precision check reads from an apply
# document: past them one request takes over half a minute; automatic cutoffs
# stay below (exp of [[0,-1000],[1000,0]] takes 3389 terms)
TERMS_CAP = 4096
PRECISION_CAP = 16384

__all__ = [
    "canonical_json",
    "input_hash",
    "load_document",
    "envelope_from_json",
    "valid_precision",
    "valid_terms",
    "scalar_to_json",
    "scalar_from_json",
    "matrix_to_json",
    "matrix_from_json",
    "poly_to_json",
    "poly_from_json",
    "series_spec_from_json",
    "series_descriptor",
    "series_from_descriptor",
    "factorization_to_json",
    "factorization_from_json",
    "parts_from_json",
    "additive_jc_to_json",
    "complete_jc_to_json",
    "fine_to_json",
    "fine_from_json",
    "normalized_to_json",
    "normalized_from_json",
    "arch_result_to_json",
    "padic_result_to_json",
    "apply_result_from_json",
    "domain_to_json",
    "domain_from_json",
]


# ---------------------------------------------------------------------------
# canonical form and hashing
# ---------------------------------------------------------------------------

def canonical_json(obj) -> str:
    """Deterministic rendering: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def input_hash(*documents) -> str:
    """SHA-256 hex digest of the canonical form of the parsed input(s)."""
    payload = documents[0] if len(documents) == 1 else list(documents)
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def load_document(path: str):
    """Parse a JSON file, mapping I/O and syntax failures to SchemaMismatch."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise SchemaMismatch(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaMismatch(f"{path} is not valid JSON: {exc}") from exc


def envelope_from_json(obj) -> tuple[str, object]:
    """(command, result) of a result document."""
    _need(obj, "command", "result", what="result document")
    return _expect_str(obj["command"], "command"), obj["result"]


def valid_precision(value) -> int:
    """A working precision: a positive integer, at most PRECISION_CAP."""
    if type(value) is not int or value < 1:
        raise SchemaMismatch(f"precision must be a positive integer, got {value!r}")
    if value > PRECISION_CAP:
        raise CapExceeded(f"precision {value} exceeds the cap {PRECISION_CAP}")
    return value


def valid_terms(value, cap: int | None = TERMS_CAP) -> int:
    """A series cutoff: a nonnegative integer, at most ``cap`` unless it is None."""
    if type(value) is not int or value < 0:
        raise SchemaMismatch(f"terms must be a nonnegative integer, got {value!r}")
    if cap is not None and value > cap:
        raise CapExceeded(f"terms {value} exceed the cap {cap}")
    return value


def _need(obj, *keys, what: str) -> dict:
    """Require a JSON object carrying the given keys."""
    if not isinstance(obj, dict):
        raise SchemaMismatch(f"{what} must be a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise SchemaMismatch(f"{what} lacks keys {missing}")
    return obj


def _expect_str(value, name: str) -> str:
    if not isinstance(value, str):
        raise SchemaMismatch(f"field {name!r} must be a string, got {value!r}")
    return value


def _expect_list(value, name: str) -> list:
    if not isinstance(value, list):
        raise SchemaMismatch(f"field {name!r} must be an array")
    return value


def _square(entries, n: int) -> list:
    """``entries``, which must be an n x n array."""
    if (
        not isinstance(entries, list)
        or len(entries) != n
        or any(not isinstance(row, list) or len(row) != n for row in entries)
    ):
        raise SchemaMismatch(f"entries must form an {n}x{n} array")
    return entries


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

def scalar_to_json(field, x):
    if isinstance(x, QuadElement):
        return {
            "a": field.to_str(x.a),
            "b": field.to_str(x.b),
            "d": field.to_str(x.d) if field.characteristic else str(x.d),
        }
    return field.to_str(x)


def scalar_from_json(field, obj):
    if not isinstance(obj, dict):
        return field.parse(obj)
    _need(obj, "a", "b", "d", what="quadratic scalar")
    a, b, d = (field.parse(obj[k]) for k in "abd")
    if not d:
        raise SchemaMismatch("quadratic scalar needs d != 0")
    return quad_element(field, a, b, d)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def matrix_to_json(m: Matrix) -> dict:
    if m.radical is None:
        entries = m.strings()
    else:
        entries = [[scalar_to_json(m.field, e) for e in row] for row in m.rows]
    return {"field": m.field.tag, "n": m.n, "entries": entries}


def matrix_from_json(obj, like: Matrix | None = None) -> Matrix:
    """A matrix document; with ``like``, a matrix of like's size and field."""
    _need(obj, "field", "n", "entries", what="matrix document")
    field = field_from_tag(obj["field"])
    n = obj["n"]
    if type(n) is not int or n < 1:
        raise SchemaMismatch(f"matrix size must be a positive integer, got {n!r}")
    if like is not None and (n, field) != (like.n, like.field):
        raise SchemaMismatch("result document does not match the input dimension")
    entries = _square(obj["entries"], n)
    if all(isinstance(e, str) for row in entries for e in row):
        return Matrix.parse(field, entries)
    return Matrix(
        field, [[scalar_from_json(field, e) for e in row] for row in entries]
    )


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def poly_to_json(f: Polynomial) -> dict:
    return {
        "field": f.field.tag,
        "coeffs": f.strings(),
    }


def poly_from_json(obj) -> Polynomial:
    _need(obj, "field", "coeffs", what="polynomial document")
    return Polynomial.parse(field_from_tag(obj["field"]), _expect_list(obj["coeffs"], "coeffs"))


# ---------------------------------------------------------------------------
# series specifications
# ---------------------------------------------------------------------------

def series_spec_from_json(obj) -> SeriesSpec:
    """Custom series file: rational coefficient strings plus declared radius."""
    _need(obj, "coeffs", "radius", what="custom series document")
    radius = obj["radius"]
    return SeriesSpec.custom([QQ.parse(c) for c in _expect_list(obj["coeffs"], "coeffs")],
                             math.inf if radius == "inf" else QQ.parse(radius))


# ---------------------------------------------------------------------------
# result documents
# ---------------------------------------------------------------------------

def factorization_to_json(field, fact: Factorization) -> dict:
    return {
        "field": field.tag,
        "unit": field.to_str(fact.unit),
        "factors": [
            {
                "coeffs": poly.strings(),
                "multiplicity": mult,
            }
            for poly, mult in fact.factors
        ],
    }


def factorization_from_json(field, obj) -> Factorization:
    """A factorization document over ``field``, its factors read, not checked."""
    _need(obj, "unit", "factors", what="factorization document")
    factors = []
    for item in _expect_list(obj["factors"], "factors"):
        _need(item, "coeffs", "multiplicity", what="factor item")
        mult = item["multiplicity"]
        if type(mult) is not int or mult < 1:
            raise SchemaMismatch(f"bad multiplicity {mult!r}")
        factors.append((Polynomial.parse(field, _expect_list(item["coeffs"], "coeffs")), mult))
    return Factorization(field.parse(obj["unit"]), tuple(factors))


def parts_from_json(obj, keys, like: Matrix, what: str) -> list[Matrix]:
    """The matrices under ``keys`` of a jc or cjc document, each of like's size and field."""
    _need(obj, *keys, what=what)
    return [matrix_from_json(obj[key], like) for key in keys]


def additive_jc_to_json(dec: AdditiveJC) -> dict:
    return {
        "S": matrix_to_json(dec.semisimple),
        "N": matrix_to_json(dec.nilpotent),
    }


def complete_jc_to_json(dec: CompleteJC) -> dict:
    field = dec.horizontal.field
    return {
        "H": matrix_to_json(dec.horizontal),
        "V": matrix_to_json(dec.vertical),
        "N": matrix_to_json(dec.nilpotent),
        "factors": [
            {
                "coeffs": item.poly.strings(),
                "multiplicity": item.multiplicity,
                "alpha": field.to_str(item.alpha),
            }
            for item in dec.factor_data
        ],
    }


def _ground_covariants_to_json(dec: FineFrobenius | NormalizedFineFrobenius) -> dict:
    """The keys a fine and a normalized decomposition share: A0 and linear."""
    return {
        "A0": matrix_to_json(dec.kernel_projector),
        "linear": [
            {"gamma": dec.field.to_str(cov.eigenvalue), "A": matrix_to_json(cov.matrix)}
            for cov in dec.linear
        ],
    }


def fine_to_json(dec: FineFrobenius) -> dict:
    field = dec.field
    return {
        **_ground_covariants_to_json(dec),
        "quadratic": [
            {
                "alpha": field.to_str(cov.alpha),
                "n": field.to_str(cov.n),
                "B": matrix_to_json(cov.vertical),
                "P": matrix_to_json(cov.projector),
            }
            for cov in dec.quadratic
        ],
    }


def _ground_covariants_from_json(obj, like: Matrix | None, what: str) -> tuple:
    """(A0, linear covariants, quadratic items) of a fine or a normalized
    document; A0 of like's size and field, when given, and each A of A0's."""
    _need(obj, "A0", "linear", "quadratic", what=what)
    kernel = matrix_from_json(obj["A0"], like)
    linear = []
    for item in _expect_list(obj["linear"], "linear"):
        _need(item, "gamma", "A", what="linear covariant")
        linear.append(LinearCovariant(kernel.field.parse(item["gamma"]),
                                      matrix_from_json(item["A"], kernel)))
    return kernel, tuple(linear), _expect_list(obj["quadratic"], "quadratic")


def fine_from_json(obj, like: Matrix | None = None) -> FineFrobenius:
    """A fine document, every covariant of like's size and field when given."""
    kernel, linear, items = _ground_covariants_from_json(obj, like, "fine decomposition")
    field = kernel.field
    quadratic = []
    for item in items:
        _need(item, "alpha", "n", "B", "P", what="quadratic covariant")
        quadratic.append(QuadCovariant(field.parse(item["alpha"]), field.parse(item["n"]),
                                       matrix_from_json(item["B"], kernel),
                                       matrix_from_json(item["P"], kernel)))
    return FineFrobenius(kernel.n, field, kernel, linear, tuple(quadratic))


def normalized_to_json(dec: NormalizedFineFrobenius) -> dict:
    field = dec.field
    return {
        **_ground_covariants_to_json(dec),
        "quadratic": [
            {
                "alpha": field.to_str(cov.alpha),
                "n": field.to_str(cov.n),
                "imaginary": scalar_to_json(field, cov.imaginary),
                "B_unit": matrix_to_json(cov.vertical_unit),
                "P": matrix_to_json(cov.projector),
            }
            for cov in dec.quadratic
        ],
    }


def normalized_from_json(obj, like: Matrix | None = None) -> NormalizedFineFrobenius:
    """A normalized document, every covariant of like's size and field when given."""
    kernel, linear, items = _ground_covariants_from_json(obj, like, "normalized decomposition")
    field = kernel.field
    quadratic = []
    for item in items:
        _need(item, "alpha", "n", "imaginary", "B_unit", "P", what="quadratic covariant")
        quadratic.append(NormalizedQuadCovariant(
            field.parse(item["alpha"]), field.parse(item["n"]),
            scalar_from_json(field, item["imaginary"]),
            matrix_from_json(item["B_unit"], kernel), matrix_from_json(item["P"], kernel)))
    return NormalizedFineFrobenius(kernel.n, field, kernel, linear, tuple(quadratic))


def _decimal(x, precision: int) -> str:
    return mpmath.nstr(x, mpmath.libmp.prec_to_dps(precision), strip_zeros=False)


def series_descriptor(spec: SeriesSpec) -> dict:
    """Embeddable description of a series, round-trippable for verification."""
    if spec.name != "CUSTOM":
        return {"name": spec.name}
    radius = spec.declared_radius
    return {
        "name": "CUSTOM",
        "coeffs": [str(c) for c in spec.custom_coeffs],
        "radius": "inf" if radius == math.inf else str(radius),
    }


def series_from_descriptor(obj) -> SeriesSpec:
    _need(obj, "name", what="series descriptor")
    name = _expect_str(obj["name"], "name")
    return series_spec_from_json(obj) if name == "CUSTOM" else SeriesSpec.named(name)


def arch_result_to_json(res: ArchSeriesMatrix, spec: SeriesSpec) -> dict:
    n = res.n
    return {
        "kind": "arch",
        "series": series_descriptor(spec),
        "precision": res.precision,
        "terms": res.terms_used,
        "entries": [
            [_decimal(res.values[i, j], res.precision) for j in range(n)]
            for i in range(n)
        ],
        "error_bounds": [
            [_decimal(res.error_bounds[i, j], res.precision) for j in range(n)]
            for i in range(n)
        ],
    }


def padic_result_to_json(res: PadicSeriesMatrix, spec: SeriesSpec) -> dict:
    bound = res.valuation_bound
    return {
        "kind": "padic",
        "series": series_descriptor(spec),
        "p": res.p,
        "terms": res.terms_used,
        "valuation_bound": "inf" if bound == math.inf else int(bound),
        "entries": res.values.strings(),
    }


def apply_result_from_json(obj, n: int) -> dict:
    """The keys check reads of an apply document for an n x n input, parsed:
    kind; series, a SeriesSpec; for "arch", precision, terms and the entries
    as mpf rows at that precision, each entry read as a literal first, and
    the error bounds read as n x n nonnegative literals; for "padic", p,
    terms, valuation_bound (an int or math.inf) and the entries, a Q matrix."""
    _need(obj, "kind", "series", "entries", what="apply document")
    kind = obj["kind"]
    parsed = {"kind": kind, "series": series_from_descriptor(obj["series"])}
    entries = _square(obj["entries"], n)
    if kind == "arch":
        _need(obj, "precision", "terms", "error_bounds", what="archimedean apply document")
        precision = parsed["precision"] = valid_precision(obj["precision"])
        parsed["terms"] = valid_terms(obj["terms"], cap=None)
        for row in entries:
            for e in row:
                QQ.parse_value(e)
        for row in _square(obj["error_bounds"], n):
            for e in row:
                if QQ.parse_value(e)[0] < 0:
                    raise SchemaMismatch(f"negative error bound {e!r}")
        with mpmath.workprec(precision):
            parsed["entries"] = [[mpmath.mpf(e) for e in row] for row in entries]
    elif kind == "padic":
        _need(obj, "p", "terms", "valuation_bound", what="p-adic apply document")
        p, bound = obj["p"], obj["valuation_bound"]
        if type(p) is not int:
            raise SchemaMismatch(f"p must be an integer, got {p!r}")
        if bound != "inf" and type(bound) is not int:
            raise SchemaMismatch(f"bad valuation bound {bound!r}")
        parsed.update(p=p, terms=valid_terms(obj["terms"], cap=None),
                      valuation_bound=math.inf if bound == "inf" else bound,
                      entries=Matrix.parse(QQ, entries))
    else:
        raise SchemaMismatch(f"unknown apply kind {kind!r}")
    return parsed


def domain_to_json(member: bool, radius: float, data: list[EigenAbs]) -> dict:
    return {
        "in_omega_hat": member,
        "radius": "inf" if radius == math.inf else repr(radius),
        "eigen_data": [
            {
                "kind": item.kind,
                "abs_lambda": repr(item.abs_lambda),
                "abs_alpha": repr(item.abs_alpha),
                "abs_beta": repr(item.abs_beta),
            }
            for item in data
        ],
    }


def domain_from_json(obj):
    """The in_omega_hat value a domain document states, unchecked."""
    return _need(obj, "in_omega_hat", what="domain document")["in_omega_hat"]
