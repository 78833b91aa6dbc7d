"""JSON schemas, canonical serialization, and input hashing.

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
from fractions import Fraction

import mpmath

from .errors import SchemaMismatch
from .frobenius import (
    FineFrobenius,
    LinearCovariant,
    NormalizedFineFrobenius,
    QuadCovariant,
)
from .jordan_chevalley import AdditiveJC, CompleteJC
from .matrix import Matrix
from .poly import Factorization, Polynomial
from .scalar import QuadElement, field_from_tag, quad_element
from .series import ArchSeriesMatrix, EigenAbs, PadicSeriesMatrix, SeriesSpec

__all__ = [
    "canonical_json",
    "input_hash",
    "load_document",
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
    "additive_jc_to_json",
    "complete_jc_to_json",
    "fine_to_json",
    "fine_from_json",
    "normalized_to_json",
    "arch_result_to_json",
    "padic_result_to_json",
    "domain_to_json",
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
    if isinstance(obj, str):
        return field.parse(obj)
    if isinstance(obj, dict):
        missing = {"a", "b", "d"} - set(obj)
        if missing:
            raise SchemaMismatch(f"quadratic scalar lacks keys {sorted(missing)}")
        a = field.parse(_expect_str(obj["a"], "a"))
        b = field.parse(_expect_str(obj["b"], "b"))
        d = field.parse(_expect_str(obj["d"], "d"))
        return quad_element(field, a, b, d)
    raise SchemaMismatch(f"bad scalar value {obj!r}")


def _expect_str(value, name: str) -> str:
    if not isinstance(value, str):
        raise SchemaMismatch(f"field {name!r} must be a string, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def matrix_to_json(m: Matrix) -> dict:
    if m.radical is None:
        entries = m.strings()
    else:
        entries = [[scalar_to_json(m.field, e) for e in row] for row in m.rows]
    return {"field": m.field.tag, "n": m.n, "entries": entries}


def matrix_from_json(obj) -> Matrix:
    if not isinstance(obj, dict):
        raise SchemaMismatch("matrix document must be a JSON object")
    for key in ("field", "n", "entries"):
        if key not in obj:
            raise SchemaMismatch(f"matrix document lacks key {key!r}")
    field = field_from_tag(obj["field"])
    n = obj["n"]
    if type(n) is not int or n < 1:
        raise SchemaMismatch(f"matrix size must be a positive integer, got {n!r}")
    entries = obj["entries"]
    if (
        not isinstance(entries, list)
        or len(entries) != n
        or any(not isinstance(row, list) or len(row) != n for row in entries)
    ):
        raise SchemaMismatch(f"entries must form an {n}x{n} array")
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
    if not isinstance(obj, dict):
        raise SchemaMismatch("polynomial document must be a JSON object")
    for key in ("field", "coeffs"):
        if key not in obj:
            raise SchemaMismatch(f"polynomial document lacks key {key!r}")
    field = field_from_tag(obj["field"])
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list):
        raise SchemaMismatch("coeffs must be an array of scalar strings")
    return Polynomial.parse(field, [_expect_str(c, "coeffs") for c in coeffs])


# ---------------------------------------------------------------------------
# series specifications
# ---------------------------------------------------------------------------

def series_spec_from_json(obj) -> SeriesSpec:
    """Custom series file: rational coefficient strings plus declared radius."""
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise SchemaMismatch("custom series document needs a coeffs array")
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list) or not coeffs:
        raise SchemaMismatch("coeffs must be a nonempty array of rational strings")
    parsed = [Fraction(_expect_str(c, "coeffs")) for c in coeffs]
    if "radius" not in obj:
        raise SchemaMismatch("custom series document needs a declared radius")
    radius_raw = _expect_str(obj["radius"], "radius")
    if radius_raw == "inf":
        radius = math.inf
    else:
        try:
            radius = Fraction(radius_raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaMismatch(f"bad radius {radius_raw!r}") from exc
    return SeriesSpec.custom(parsed, radius)


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


def fine_from_json(obj) -> FineFrobenius:
    if not isinstance(obj, dict):
        raise SchemaMismatch("fine decomposition document must be a JSON object")
    for key in ("A0", "linear", "quadratic"):
        if key not in obj:
            raise SchemaMismatch(f"fine decomposition lacks key {key!r}")
    kernel = matrix_from_json(obj["A0"])
    field = kernel.field
    linear = []
    for item in obj["linear"]:
        if not isinstance(item, dict) or "gamma" not in item or "A" not in item:
            raise SchemaMismatch("linear covariant needs gamma and A")
        linear.append(LinearCovariant(field.parse(_expect_str(item["gamma"], "gamma")),
                                      matrix_from_json(item["A"])))
    quadratic = []
    for item in obj["quadratic"]:
        if not isinstance(item, dict) or any(k not in item for k in ("alpha", "n", "B", "P")):
            raise SchemaMismatch("quadratic covariant needs alpha, n, B, P")
        quadratic.append(QuadCovariant(field.parse(_expect_str(item["alpha"], "alpha")),
                                       field.parse(_expect_str(item["n"], "n")),
                                       matrix_from_json(item["B"]), matrix_from_json(item["P"])))
    return FineFrobenius(kernel.n, field, kernel, tuple(linear), tuple(quadratic))


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
    if not isinstance(obj, dict) or "name" not in obj:
        raise SchemaMismatch("series descriptor needs a name")
    if obj["name"] != "CUSTOM":
        return SeriesSpec.named(_expect_str(obj["name"], "name"))
    return series_spec_from_json(obj)


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
