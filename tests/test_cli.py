"""End-to-end command-line tests driven through main(argv)."""

import inspect
import json
import random
import time
from pathlib import Path

import pytest

import finefrob.cli
from finefrob.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def write_doc(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


def mat_doc(entries, field="Q"):
    return {"field": field, "n": len(entries), "entries": entries}


WORKED = [["2", "5"], ["-1", "0"]]  # minpoly X^2 - 2X + 5
N = (2**62 + 135) * (2**63 + 29)  # a 126-bit semiprime
ROT = [["0", "-1"], ["1", "0"]]
JORDAN = [["1", "1"], ["0", "1"]]


# ---------------------------------------------------------------------------
# basic command behavior
# ---------------------------------------------------------------------------

def test_minpoly_command(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", mat_doc(WORKED))
    code, doc = run_json(capsys, ["minpoly", path])
    assert code == 0
    assert doc["command"] == "minpoly"
    assert doc["result"]["coeffs"] == ["5", "-2", "1"]
    assert isinstance(doc["input_hash"], str) and len(doc["input_hash"]) == 64


def test_factor_command(tmp_path, capsys):
    path = write_doc(tmp_path, "f.json", {"field": "Q", "coeffs": ["-1", "0", "1"]})
    code, doc = run_json(capsys, ["factor", path])
    assert code == 0
    factors = doc["result"]["factors"]
    assert [f["coeffs"] for f in factors] == [["-1", "1"], ["1", "1"]]
    assert all(f["multiplicity"] == 1 for f in factors)


def test_jc_command(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", mat_doc(JORDAN))
    code, doc = run_json(capsys, ["jc", path])
    assert code == 0
    assert doc["result"]["S"]["entries"] == [["1", "0"], ["0", "1"]]
    assert doc["result"]["N"]["entries"] == [["0", "1"], ["0", "0"]]


def test_cjc_command_rotation(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", mat_doc(ROT))
    code, doc = run_json(capsys, ["cjc", path])
    assert code == 0
    res = doc["result"]
    assert res["H"]["entries"] == [["0", "0"], ["0", "0"]]
    assert res["V"]["entries"] == ROT
    assert res["N"]["entries"] == [["0", "0"], ["0", "0"]]
    assert res["factors"] == [{"coeffs": ["1", "0", "1"], "multiplicity": 1, "alpha": "0"}]


def test_cjc_command_worked_example(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", mat_doc(WORKED))
    code, doc = run_json(capsys, ["cjc", path])
    assert code == 0
    res = doc["result"]
    assert res["H"]["entries"] == [["1", "0"], ["0", "1"]]
    assert res["V"]["entries"] == [["1", "5"], ["-1", "-1"]]


def test_fine_command(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", mat_doc(WORKED))
    code, doc = run_json(capsys, ["fine", path])
    assert code == 0
    res = doc["result"]
    assert res["linear"] == []
    quad = res["quadratic"][0]
    assert quad["alpha"] == "1" and quad["n"] == "4"
    assert quad["B"]["entries"] == [["1", "5"], ["-1", "-1"]]
    assert quad["P"]["entries"] == [["1", "0"], ["0", "1"]]
    assert res["A0"]["entries"] == [["0", "0"], ["0", "0"]]


def test_normalize_command(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", mat_doc(WORKED))
    code, doc = run_json(capsys, ["normalize", path])
    assert code == 0
    quad = doc["result"]["quadratic"][0]
    assert quad["imaginary"] == "2"
    assert quad["B_unit"]["entries"] == [["1/2", "5/2"], ["-1/2", "-1/2"]]


def test_domain_command(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", mat_doc(WORKED))
    code, doc = run_json(capsys, ["domain", path, "--fn", "exp", "--abs", "arch"])
    assert code == 0
    res = doc["result"]
    assert res["in_omega_hat"] is True
    assert res["radius"] == "inf"
    assert res["eigen_data"][0]["kind"] == "quadratic"


def test_domain_padic_negative(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", mat_doc([["1", "0"], ["0", "1"]]))
    code, doc = run_json(capsys, ["domain", path, "--fn", "exp", "--abs", "padic:3"])
    assert code == 0
    assert doc["result"]["in_omega_hat"] is False


def test_apply_arch(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", mat_doc(ROT))
    code, doc = run_json(capsys, ["apply", path, "--fn", "exp", "--abs", "arch"])
    assert code == 0
    res = doc["result"]
    assert res["kind"] == "arch"
    assert res["series"] == {"name": "EXP"}
    assert res["precision"] == 128
    # entry (0,0) is cos 1 = 0.5403...
    assert res["entries"][0][0].startswith("0.540302305868")


def test_apply_padic(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", mat_doc([["3", "0"], ["0", "3"]]))
    code, doc = run_json(
        capsys, ["apply", path, "--fn", "exp", "--abs", "padic:3", "--prec", "10"]
    )
    assert code == 0
    res = doc["result"]
    assert res["kind"] == "padic" and res["p"] == 3
    assert res["valuation_bound"] >= 10
    assert res["entries"][0][1] == "0"


def test_apply_custom_series(tmp_path, capsys):
    series = write_doc(
        tmp_path, "s.json", {"coeffs": ["1", "0", "1"], "radius": "inf"}
    )
    path = write_doc(tmp_path, "m.json", mat_doc(WORKED))
    code, doc = run_json(
        capsys, ["apply", path, "--fn", f"custom:{series}", "--abs", "arch"]
    )
    assert code == 0
    res = doc["result"]
    assert res["series"]["coeffs"] == ["1", "0", "1"]
    # I + M^2 = [[0, 10], [-2, -4]]; exact decimals
    assert res["entries"][0][1].startswith("10.0")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def check_round_trip(tmp_path, capsys, command_argv, input_path):
    code, out = run(capsys, command_argv)
    assert code == 0
    result_path = tmp_path / "result.json"
    result_path.write_text(out)
    return run_json(capsys, ["check", input_path, str(result_path)])


def test_check_cjc_passes(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", mat_doc(WORKED))
    code, doc = run_json(capsys, ["cjc", path])
    assert code == 0
    result_path = write_doc(tmp_path, "res.json", doc)
    code, verdict = run_json(capsys, ["check", path, result_path])
    assert code == 0
    assert verdict["result"]["checked_command"] == "cjc"
    assert verdict["result"]["passed"] is True
    assert verdict["report"]["sum_reconstructs"] is True


@pytest.mark.parametrize("n, seed", [(9, 13), (12, 20)])
def test_check_cjc_of_random_integer_matrix(tmp_path, capsys, n, seed):
    # the minimal polynomials of M and of V are irreducible, but their factor
    # degrees modulo small primes leave proper degrees open
    rng = random.Random(seed)
    entries = [[str(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
    path = write_doc(tmp_path, "m.json", mat_doc(entries))
    code, doc = run_json(capsys, ["cjc", path])
    assert code == 0
    result_path = write_doc(tmp_path, "res.json", doc)
    code, verdict = run_json(capsys, ["check", path, result_path])
    assert code == 0
    assert verdict["result"]["passed"] is True


def test_check_detects_corruption(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", mat_doc(WORKED))
    code, doc = run_json(capsys, ["cjc", path])
    doc["result"]["V"]["entries"][0][0] = "7"
    result_path = write_doc(tmp_path, "res.json", doc)
    code, verdict = run_json(capsys, ["check", path, result_path])
    assert code == 0
    assert verdict["result"]["passed"] is False
    assert verdict["report"]["sum_reconstructs"] is False


@pytest.mark.parametrize(
    "where, failing",
    [
        (("A0",), ["kernel_complement"]),
        (("quadratic", 0, "P"), ["kernel_complement", "projector_consistency"]),
    ],
)
def test_check_normalize_reads_a0_and_p(tmp_path, capsys, where, failing):
    doc = json.loads(
        (GOLDEN / "expected" / "normalize-q_semisimple.txt").read_text().split("\n", 1)[1]
    )
    target = doc["result"]
    for key in where:
        target = target[key]
    target["entries"][0][0] = "7"
    result_path = write_doc(tmp_path, "res.json", doc)
    source = str(GOLDEN / "inputs" / "q_semisimple.json")
    code, verdict = run_json(capsys, ["check", source, result_path])
    assert code == 0 and verdict["result"]["passed"] is False
    assert sorted(k for k, v in verdict["report"].items() if v is False) == failing


def test_check_minpoly_and_factor(tmp_path, capsys):
    mpath = write_doc(tmp_path, "m.json", mat_doc(WORKED))
    code, doc = run_json(capsys, ["minpoly", mpath])
    rpath = write_doc(tmp_path, "r1.json", doc)
    code, verdict = run_json(capsys, ["check", mpath, rpath])
    assert code == 0 and verdict["result"]["passed"] is True

    fpath = write_doc(tmp_path, "f.json", {"field": "Q", "coeffs": ["-1", "0", "1"]})
    code, doc = run_json(capsys, ["factor", fpath])
    rpath = write_doc(tmp_path, "r2.json", doc)
    code, verdict = run_json(capsys, ["check", fpath, rpath])
    assert code == 0 and verdict["result"]["passed"] is True


def test_minpoly_of_quadratic_entries_and_its_check(tmp_path, capsys):
    r2 = {"a": "0", "b": "1", "d": "2"}
    for entries, coeffs in (([["0", r2], [r2, "0"]], ["-2", "0", "1"]),
                            ([["0", "0"], [r2, "0"]], ["0", "0", "1"]),
                            ([["1/2", r2], [r2, "1/2"]], ["-7/4", "-1", "1"])):
        mpath = write_doc(tmp_path, "m.json", mat_doc(entries))
        code, doc = run_json(capsys, ["minpoly", mpath])
        assert code == 0 and doc["result"]["coeffs"] == coeffs
        rpath = write_doc(tmp_path, "r.json", doc)
        code, verdict = run_json(capsys, ["check", mpath, rpath])
        assert code == 0 and verdict["result"]["passed"] is True


R2 = {"a": "0", "b": "1", "d": "2"}
MINUS_R2 = {"a": "0", "b": "-1", "d": "2"}
R3 = {"a": "0", "b": "1", "d": "3"}


@pytest.mark.parametrize(
    "command, entries",
    [
        ("minpoly", [[R2, "1"], ["0", R2]]),
        ("jc", [[R2, "1"], ["0", R2]]),
        ("cjc", [[R2, "1"], ["0", R2]]),
        ("minpoly", [["1/2", "0"], ["0", R2]]),
    ],
)
def test_minpoly_outside_the_ground_field_exits_2(tmp_path, capsys, command, entries):
    """Over Q(sqrt2) these minimal polynomials are (X - sqrt2)^2 and
    (X - 1/2)(X - sqrt2), which no polynomial over Q equals."""
    path = write_doc(tmp_path, "m.json", mat_doc(entries))
    code, doc = run_json(capsys, [command, path])
    assert (code, doc["error"]["code"]) == (2, "FieldMismatch")


def test_cjc_refuses_quadratic_entries(tmp_path, capsys):
    """M = [[0, sqrt3], [sqrt3, 0]] has H = 0, V = M over Q(sqrt3), which is
    no split over Q; check of that split still answers false."""
    m = [["0", R3], [R3, "0"]]
    path = write_doc(tmp_path, "m.json", mat_doc(m))
    code, doc = run_json(capsys, ["cjc", path])
    assert (code, doc["error"]["code"]) == (2, "FieldMismatch")
    zero = mat_doc([["0", "0"], ["0", "0"]])
    forged = {"command": "cjc", "result": {"H": zero, "V": mat_doc(m), "N": zero}}
    code, verdict = run_json(capsys, ["check", path, write_doc(tmp_path, "r.json", forged)])
    assert code == 0 and verdict["result"]["passed"] is False
    assert verdict["report"]["ground_field_entries"] is False


def test_check_cjc_of_quadratic_parts_reaches_a_verdict(tmp_path, capsys):
    """H = diag(sqrt2, 0), V = -H, N = 0 sum to the zero matrix; the minimal
    polynomials of H and V are not over Q, so their clauses fail."""
    zero = mat_doc([["0", "0"], ["0", "0"]])
    path = write_doc(tmp_path, "m.json", zero)
    forged = {"command": "cjc", "result": {
        "H": mat_doc([[R2, "0"], ["0", "0"]]),
        "V": mat_doc([[MINUS_R2, "0"], ["0", "0"]]),
        "N": zero,
    }}
    code, verdict = run_json(capsys, ["check", path, write_doc(tmp_path, "r.json", forged)])
    assert code == 0 and verdict["result"]["passed"] is False
    failing = sorted(k for k, v in verdict["report"].items() if v is False)
    assert failing == [
        "ground_field_entries", "horizontal_diagonalizable", "vertical_semisimple_reduced"
    ]


def test_check_jc_of_quadratic_parts_reaches_a_verdict(tmp_path, capsys):
    """S = diag(sqrt2, 0), N = -S sum to the zero matrix; N is not
    nilpotent, and the minimal polynomial of S is not over Q, so S is
    reported not semisimple, as check cjc reports its H and V."""
    zero = mat_doc([["0", "0"], ["0", "0"]])
    path = write_doc(tmp_path, "m.json", zero)
    forged = {"command": "jc", "result": {
        "S": mat_doc([[R2, "0"], ["0", "0"]]),
        "N": mat_doc([[MINUS_R2, "0"], ["0", "0"]]),
    }}
    code, verdict = run_json(capsys, ["check", path, write_doc(tmp_path, "r.json", forged)])
    assert code == 0 and verdict["result"]["passed"] is False
    failing = sorted(k for k, v in verdict["report"].items() if v is False)
    assert failing == ["nilpotent", "semisimple"]


@pytest.mark.parametrize("command", ["apply", "domain"])
def test_series_commands_refuse_quadratic_entries(tmp_path, capsys, command):
    """[[0, sqrt3], [sqrt3, 0]] has minimal polynomial X^2 - 3 over Q, but
    domain refuses its entries as apply does, with the same message; over
    F_7 both keep their own messages."""
    path = write_doc(tmp_path, "m.json", mat_doc([["0", R3], [R3, "0"]]))
    code, doc = run_json(capsys, [command, path, "--fn", "exp", "--abs", "arch"])
    assert (code, doc["error"]["code"]) == (2, "FieldMismatch")
    assert doc["error"]["message"] == "series application needs ground-field entries"
    path = write_doc(tmp_path, "f.json", mat_doc([["0", "1"], ["1", "0"]], field="Fp:7"))
    code, doc = run_json(capsys, [command, path, "--fn", "exp", "--abs", "arch"])
    assert (code, doc["error"]["code"]) == (2, "FieldMismatch")
    assert doc["error"]["message"] == {
        "apply": "series application is defined over Q",
        "domain": "valued-field analysis is defined over Q",
    }[command]


def test_check_fine_and_normalize(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", mat_doc(WORKED))
    for cmd in ("fine", "normalize"):
        code, doc = run_json(capsys, [cmd, path])
        rpath = write_doc(tmp_path, f"r-{cmd}.json", doc)
        code, verdict = run_json(capsys, ["check", path, rpath])
        assert code == 0 and verdict["result"]["passed"] is True


def test_check_apply_arch(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", mat_doc(ROT))
    code, doc = run_json(capsys, ["apply", path, "--fn", "exp", "--abs", "arch"])
    rpath = write_doc(tmp_path, "r.json", doc)
    code, verdict = run_json(capsys, ["check", path, rpath])
    assert code == 0
    assert verdict["result"]["passed"] is True
    assert verdict["report"]["oracle_within_tolerance"] is True


def test_check_apply_padic(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", mat_doc([["3", "0"], ["0", "3"]]))
    code, doc = run_json(
        capsys, ["apply", path, "--fn", "exp", "--abs", "padic:3", "--prec", "10"]
    )
    rpath = write_doc(tmp_path, "r.json", doc)
    code, verdict = run_json(capsys, ["check", path, rpath])
    assert code == 0
    assert verdict["result"]["passed"] is True


@pytest.mark.parametrize("command", ["cjc", "fine"])
def test_check_semiprime_companion(tmp_path, capsys, command):
    # minimal polynomial X^2 + N: no divisor of N is searched for
    path = write_doc(tmp_path, "m.json", mat_doc([["0", str(-N)], ["1", "0"]]))
    code, verdict = check_round_trip(tmp_path, capsys, [command, path], path)
    assert code == 0
    assert verdict["result"]["passed"] is True


def test_check_padic_apply_terms_cap_exits_2(tmp_path, capsys):
    expected = (GOLDEN / "expected" / "apply-sin-padic3-q_semisimple.txt").read_text()
    doc = json.loads(expected.split("\n", 1)[1])
    doc["result"]["terms"] = 1000000
    rpath = write_doc(tmp_path, "r.json", doc)
    code, verdict = run_json(
        capsys, ["check", str(GOLDEN / "inputs" / "q_semisimple.json"), rpath]
    )
    assert code == 2
    assert verdict["error"]["code"] == "CapExceeded"


class _Reached(Exception):
    pass


@pytest.mark.parametrize("terms, capped", [(10922, False), (10923, True)])
def test_check_padic_apply_terms_cap_is_the_cutoff_at_the_precision_cap(
    tmp_path, capsys, monkeypatch, terms, capped
):
    # sin on diag(9, 27) at p = 3: the truncation after t terms certifies
    # valuation 2(t + 1) - t/2, so apply --prec 16384 picks 10922 terms
    path = write_doc(tmp_path, "m.json", mat_doc([["9", "0"], ["0", "27"]]))
    code, doc = run_json(capsys, ["apply", path, "--fn", "sin", "--abs", "padic:3"])
    assert code == 0
    doc["result"]["terms"] = terms
    rpath = write_doc(tmp_path, "r.json", doc)

    def reached(*args, **kwargs):
        raise _Reached

    monkeypatch.setattr(finefrob.cli, "apply_series", reached)
    if capped:
        code, verdict = run_json(capsys, ["check", path, rpath])
        assert code == 2
        assert verdict["error"]["code"] == "CapExceeded"
    else:
        with pytest.raises(_Reached):
            main(["check", path, rpath])


def test_check_padic_apply_forged_bound_fails_without_the_doubled_run(
    tmp_path, capsys, monkeypatch
):
    # the truncation of sin on diag(9, 27) after 0 terms certifies far less
    # than 40000; the doubled run would search a cutoff near 53,000 terms
    path = write_doc(tmp_path, "m.json", mat_doc([["9", "0"], ["0", "27"]]))
    code, doc = run_json(
        capsys, ["apply", path, "--fn", "sin", "--abs", "padic:3", "--prec", "12"]
    )
    assert code == 0
    doc["result"]["terms"] = 0
    doc["result"]["valuation_bound"] = 40000
    rpath = write_doc(tmp_path, "r.json", doc)

    def reached(*args, **kwargs):
        raise _Reached

    monkeypatch.setattr(finefrob.cli, "apply_series", reached)
    code, verdict = run_json(capsys, ["check", path, rpath])
    assert code == 0
    assert verdict["result"]["passed"] is False
    assert verdict["report"] == {"doubled_cutoff_within_bound": False}


def _golden_result(name):
    expected = (GOLDEN / "expected" / f"{name}.txt").read_text()
    return json.loads(expected.split("\n", 1)[1])


@pytest.mark.parametrize("precision, code", [(16384, 0), (16385, 2)])
def test_check_apply_arch_precision_cap(tmp_path, capsys, precision, code):
    doc = _golden_result("apply-exp-arch-q_semisimple")
    doc["result"]["precision"] = precision
    rpath = write_doc(tmp_path, "r.json", doc)
    got, verdict = run_json(
        capsys, ["check", str(GOLDEN / "inputs" / "q_semisimple.json"), rpath]
    )
    assert got == code
    if code:
        assert verdict["error"]["code"] == "CapExceeded"
    else:
        assert verdict["result"]["checked_command"] == "apply"


@pytest.mark.parametrize(
    "result, source, path",
    [
        ("apply-sin-padic3-q_semisimple", "q_semisimple", ("p",)),
        ("apply-sin-padic3-q_semisimple", "q_semisimple", ("terms",)),
        ("apply-sin-padic3-q_semisimple", "q_semisimple", ("valuation_bound",)),
        ("apply-exp-arch-q_semisimple", "q_semisimple", ("precision",)),
        ("factor-f3", "f3_poly", ("factors", 1, "multiplicity")),
        ("minpoly-q_worked", "q_worked", None),
    ],
    ids=lambda value: "-".join(map(str, value)) if isinstance(value, tuple) else None,
)
def test_json_boolean_is_not_an_integer(tmp_path, capsys, result, source, path):
    """true would read as 1 where an integer is expected."""
    doc = _golden_result(result)
    input_doc = json.loads((GOLDEN / "inputs" / f"{source}.json").read_text())
    if path is None:  # the size of the input matrix
        input_doc["entries"] = input_doc["entries"][:1]
        input_doc["entries"][0] = input_doc["entries"][0][:1]
        input_doc["n"] = True
    else:
        target = doc["result"]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = True
    ipath = write_doc(tmp_path, "i.json", input_doc)
    rpath = write_doc(tmp_path, "r.json", doc)
    code, verdict = run_json(capsys, ["check", ipath, rpath])
    assert code == 1
    assert verdict["error"]["code"] == "SchemaMismatch"


def _golden_fine_document():
    expected = (GOLDEN / "expected" / "fine-q_semisimple.txt").read_text()
    return json.loads(expected.split("\n", 1)[1])


def test_check_fine_with_quadratic_scalar_exits_1(tmp_path, capsys):
    doc = _golden_fine_document()
    doc["result"]["quadratic"][0]["n"] = {"a": "1", "b": "1", "d": "2"}
    rpath = write_doc(tmp_path, "r.json", doc)
    code, verdict = run_json(
        capsys, ["check", str(GOLDEN / "inputs" / "q_semisimple.json"), rpath]
    )
    assert code == 1
    assert verdict["error"]["code"] == "SchemaMismatch"


def test_check_fine_with_covariant_of_other_size_exits_1(tmp_path, capsys):
    doc = _golden_fine_document()
    doc["result"]["linear"][0]["A"] = mat_doc([["1"]])
    rpath = write_doc(tmp_path, "r.json", doc)
    code, verdict = run_json(
        capsys, ["check", str(GOLDEN / "inputs" / "q_semisimple.json"), rpath]
    )
    assert code == 1
    assert verdict["error"]["code"] == "SchemaMismatch"


def test_check_factor_past_the_degree_answers_without_expanding(tmp_path, capsys):
    """X + 1 claimed as (X + 1)^(10^6): the product's degree is read off the
    multiplicities, so no power is taken; a factor 1 of multiplicity 2 > deg f
    is refused the same way."""
    fpath = write_doc(tmp_path, "f.json", {"field": "Q", "coeffs": ["1", "1"]})
    for factors in ([{"coeffs": ["1", "1"], "multiplicity": 10**6}],
                    [{"coeffs": ["1", "1"], "multiplicity": 1},
                     {"coeffs": ["1"], "multiplicity": 2}]):
        forged = {"command": "factor", "result": {"field": "Q", "unit": "1", "factors": factors}}
        start = time.perf_counter()
        code, verdict = run_json(capsys, ["check", fpath, write_doc(tmp_path, "r.json", forged)])
        assert time.perf_counter() - start < 1.0
        assert code == 0 and verdict["result"]["passed"] is False
        assert verdict["report"]["product_reconstructs"] is False


X2_MINUS_1 = {"field": "Q", "coeffs": ["-1", "0", "1"]}
X25_F3 = {"field": "Fp:3", "coeffs": ["0"] * 25 + ["1"]}


@pytest.mark.parametrize(
    "poly, factors",
    [
        (X2_MINUS_1, [{"coeffs": ["-1", "0", "1"], "multiplicity": 1}]),
        (X2_MINUS_1, [{"coeffs": ["-1", "1"], "multiplicity": 1},
                      {"coeffs": ["1", "1"], "multiplicity": 1},
                      {"coeffs": ["1"], "multiplicity": 2}]),
        (X25_F3, [{"coeffs": X25_F3["coeffs"], "multiplicity": 1}]),
    ],
    ids=["unsplit", "unit-factor", "past-the-cap"],
)
def test_check_factor_rejects_a_factor_that_is_not_irreducible(tmp_path, capsys, poly, factors):
    """X^2 - 1 claimed as itself, or as (X - 1)(X + 1) 1^2: both are monic,
    distinct and multiply to X^2 - 1, but X^2 - 1 splits and 1 is no
    irreducible.  X^25 over F_3 claimed whole has degree past
    FACTOR_DEGREE_CAP: it is not factored, and reads as not irreducible."""
    fpath = write_doc(tmp_path, "f.json", poly)
    forged = {"command": "factor", "result": {"unit": "1", "factors": factors}}
    code, verdict = run_json(capsys, ["check", fpath, write_doc(tmp_path, "r.json", forged)])
    assert code == 0 and verdict["result"]["passed"] is False
    failing = sorted(k for k, v in verdict["report"].items() if v is False)
    assert failing == ["factors_irreducible"]


def test_check_jc_of_a_split_that_is_not_k_regular_reaches_a_verdict(tmp_path, capsys):
    """M over F_3 with mu = X^3 + 2X + 2, irreducible of degree 3 = p, split
    as S = M, N = 0: M is not K-regular, so S is reported not semisimple, as
    check cjc reports V of the same split."""
    m = [["0", "0", "1"], ["1", "0", "1"], ["0", "1", "0"]]
    zero = mat_doc([["0"] * 3] * 3, "Fp:3")
    path = write_doc(tmp_path, "m.json", mat_doc(m, "Fp:3"))
    for forged, clause in (
        ({"command": "jc", "result": {"S": mat_doc(m, "Fp:3"), "N": zero}}, "semisimple"),
        ({"command": "cjc", "result": {"H": zero, "V": mat_doc(m, "Fp:3"), "N": zero}},
         "vertical_semisimple_reduced"),
    ):
        code, verdict = run_json(capsys, ["check", path, write_doc(tmp_path, "r.json", forged)])
        assert code == 0 and verdict["result"]["passed"] is False
        assert verdict["report"][clause] is False


def test_malformed_command_input_exits_1(tmp_path, capsys):
    """A quadratic entry with d = 0 is no element of an extension, and "abc"
    is no coefficient of a custom series."""
    quadratic = write_doc(tmp_path, "q.json", mat_doc([[{"a": "1", "b": "1", "d": "0"}]]))
    series = write_doc(tmp_path, "s.json", {"coeffs": ["1", "abc"], "radius": "inf"})
    matrix = write_doc(tmp_path, "m.json", mat_doc(WORKED))
    for argv in (["minpoly", quadratic],
                 ["apply", matrix, "--fn", f"custom:{series}", "--abs", "arch"]):
        code, doc = run_json(capsys, argv)
        assert (code, doc["error"]["code"]) == (1, "SchemaMismatch")


@pytest.mark.parametrize(
    "result, path, value",
    [
        ("apply-exp-arch-q_semisimple", ("entries", 0, 0), "1/0"),
        ("apply-sin-padic3-q_semisimple", ("terms",), -3),
        ("factor-q", ("factors", 0, "coeffs", 0), 1),
        ("fine-q_semisimple", ("linear",), -1),
        ("normalize-q_semisimple", ("quadratic", 0, "B_unit", "entries", 1, 0, "d"), "0"),
        ("minpoly-q_semisimple", ("command",), []),
    ],
    ids=lambda value: "-".join(map(str, value)) if isinstance(value, tuple) else None,
)
def test_check_of_a_malformed_document_exits_1(tmp_path, capsys, result, path, value):
    """A literal that is no rational, terms -3 (as apply refuses --terms -3),
    a coefficient that is no string, a linear part that is no array, a
    quadratic entry with d = 0 and a command that is no string."""
    source = "q_poly" if result == "factor-q" else "q_semisimple"
    doc = _golden_result(result)
    target = doc if path == ("command",) else doc["result"]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    rpath = write_doc(tmp_path, "r.json", doc)
    code, verdict = run_json(capsys, ["check", str(GOLDEN / "inputs" / f"{source}.json"), rpath])
    assert (code, verdict["error"]["code"]) == (1, "SchemaMismatch")


@pytest.mark.parametrize(
    "forge",
    [
        lambda r: r.update(terms=-7),
        lambda r: r.update(error_bounds=[["-5"] * len(row) for row in r["error_bounds"]]),
        lambda r: r["error_bounds"][1].__setitem__(2, "abc"),
        lambda r: r.update(error_bounds=r["error_bounds"][:3]),
        lambda r: r.pop("terms"),
        lambda r: r.pop("error_bounds"),
    ],
    ids=["terms-7", "bounds-5", "bound-abc", "bounds-3x4", "no-terms", "no-bounds"],
)
def test_check_reads_terms_and_bounds_of_an_arch_apply_document(tmp_path, capsys, forge):
    """An archimedean apply document is read in full: terms as apply reads
    --terms and every error bound as a nonnegative literal of an n x n array,
    so a forged value or a missing key is SchemaMismatch, not a verdict."""
    doc = _golden_result("apply-exp-arch-q_semisimple")
    forge(doc["result"])
    rpath = write_doc(tmp_path, "r.json", doc)
    code, verdict = run_json(capsys, ["check", str(GOLDEN / "inputs" / "q_semisimple.json"), rpath])
    assert (code, verdict["error"]["code"]) == (1, "SchemaMismatch")


def test_check_rejects_result_without_command(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", mat_doc(WORKED))
    rpath = write_doc(tmp_path, "r.json", {"result": {}})
    code, doc = run_json(capsys, ["check", path, rpath])
    assert code == 1
    assert doc["error"]["code"] == "SchemaMismatch"


# ---------------------------------------------------------------------------
# exit codes and error envelopes
# ---------------------------------------------------------------------------

def test_fine_not_semisimple_exits_2(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", mat_doc(JORDAN))
    code, doc = run_json(capsys, ["fine", path])
    assert code == 2
    assert doc["error"]["code"] == "NotSemisimple"


def test_apply_outside_domain_exits_2(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", mat_doc([["1", "0"], ["0", "1"]]))
    code, doc = run_json(capsys, ["apply", path, "--fn", "exp", "--abs", "padic:3"])
    assert code == 2
    assert doc["error"]["code"] == "NotInOmegaHat"


def test_apply_past_the_terms_cap_exits_2(tmp_path, capsys):
    # exp of a rotation by 10^5 needs some 270,000 terms: every cutoff on the
    # schedule is passed over by its first tail term, without a tail sum
    rotation = [["0", "-100000"], ["100000", "0"]]
    path = write_doc(tmp_path, "m.json", mat_doc(rotation))
    code, doc = run_json(capsys, ["apply", path, "--fn", "exp", "--abs", "arch"])
    assert code == 2
    assert doc["error"]["code"] == "NotConvergent"


@pytest.mark.parametrize(
    "flag, value",
    [("--terms", "4097"), ("--terms", "100000000"), ("--prec", "16385"), ("--prec", "32768")],
)
def test_apply_caps_exit_2(tmp_path, capsys, flag, value):
    path = write_doc(tmp_path, "m.json", mat_doc(WORKED))
    code, doc = run_json(capsys, ["apply", path, "--fn", "exp", "--abs", "arch", flag, value])
    assert code == 2
    assert doc["error"]["code"] == "CapExceeded"


def test_apply_past_the_print_digit_limit_exits_2(tmp_path, capsys):
    # the partial sum of exp(9) over 1800 terms has a denominator of about
    # 5000 decimal digits, past Python's int-to-str limit of 4300
    path = write_doc(tmp_path, "m.json", mat_doc([["9"]]))
    code, doc = run_json(
        capsys, ["apply", path, "--fn", "exp", "--abs", "padic:3", "--terms", "1800"]
    )
    assert code == 2
    assert doc["error"]["code"] == "CapExceeded"


def test_semiprime_radicand_exits_2(tmp_path, capsys):
    entry = {"a": "0", "b": "1", "d": str(N)}
    path = write_doc(tmp_path, "m.json", mat_doc([[entry, "1"], ["0", "1"]]))
    code, doc = run_json(capsys, ["minpoly", path])
    assert code == 2
    assert doc["error"]["code"] == "CapExceeded"


def test_missing_file_exits_1(capsys):
    code, doc = run_json(capsys, ["minpoly", "/nonexistent/nope.json"])
    assert code == 1
    assert doc["error"]["code"] == "SchemaMismatch"


def test_malformed_json_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, doc = run_json(capsys, ["minpoly", str(path)])
    assert code == 1


def test_missing_entries_key_exits_1(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", {"field": "Q", "n": 2})
    code, doc = run_json(capsys, ["minpoly", path])
    assert code == 1
    assert doc["error"]["code"] == "SchemaMismatch"


def test_composite_p_exits_1(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", mat_doc(WORKED))
    code, doc = run_json(capsys, ["apply", path, "--fn", "exp", "--abs", "padic:4"])
    assert code == 1
    assert doc["error"]["code"] == "NotPrime"


def test_unknown_flag_exits_1(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", mat_doc(WORKED))
    code, doc = run_json(capsys, ["minpoly", path, "--bogus"])
    assert code == 1


def test_unknown_series_exits_1(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", mat_doc(WORKED))
    code, doc = run_json(capsys, ["apply", path, "--fn", "tan", "--abs", "arch"])
    assert code == 1


def test_seed_flag_exits_1(tmp_path, capsys):
    """No answer depends on a seed, so neither a command nor check takes one."""
    path = write_doc(tmp_path, "m.json", mat_doc(WORKED))
    code, doc = run_json(capsys, ["minpoly", path])
    result = write_doc(tmp_path, "r.json", doc)
    for argv in (["minpoly", path, "--seed", "0"], ["check", path, result, "--seed", "0"]):
        code, doc = run_json(capsys, argv)
        assert (code, doc["error"]["code"]) == (1, "SchemaMismatch")


def test_no_public_callable_takes_a_seed():
    for module in (finefrob.scalar, finefrob.poly, finefrob.matrix, finefrob.jordan_chevalley,
                   finefrob.frobenius, finefrob.series, finefrob.jsonio):
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj):
                assert "seed" not in inspect.signature(obj).parameters, name


def test_custom_series_without_radius_exits_1(tmp_path, capsys):
    series = write_doc(tmp_path, "s.json", {"coeffs": ["1", "1"]})
    path = write_doc(tmp_path, "m.json", mat_doc(WORKED))
    code, doc = run_json(
        capsys, ["apply", path, "--fn", f"custom:{series}", "--abs", "arch"]
    )
    assert code == 1


# ---------------------------------------------------------------------------
# determinism and prime fields
# ---------------------------------------------------------------------------

def test_output_is_byte_identical(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", mat_doc(WORKED))
    _, first = run(capsys, ["cjc", path])
    _, second = run(capsys, ["cjc", path])
    assert first == second
    _, third = run(capsys, ["apply", path, "--fn", "exp", "--abs", "arch"])
    _, fourth = run(capsys, ["apply", path, "--fn", "exp", "--abs", "arch"])
    assert third == fourth


def test_prime_field_matrix(tmp_path, capsys):
    doc = mat_doc([["0", "3"], ["1", "0"]], field="Fp:7")
    path = write_doc(tmp_path, "m.json", doc)
    code, out = run_json(capsys, ["minpoly", path])
    assert code == 0
    assert out["result"]["field"] == "Fp:7"
    assert out["result"]["coeffs"] == ["4", "0", "1"]  # X^2 - 3 over F_7


def test_cjc_prime_field(tmp_path, capsys):
    doc = mat_doc([["0", "3"], ["1", "0"]], field="Fp:7")
    path = write_doc(tmp_path, "m.json", doc)
    code, out = run_json(capsys, ["cjc", path])
    assert code == 0
    res = out["result"]
    assert res["H"]["field"] == "Fp:7"
    assert res["V"]["entries"] == [["0", "3"], ["1", "0"]]


# ---------------------------------------------------------------------------
# hostile documents: one value changed at a time
# ---------------------------------------------------------------------------

HOSTILE = ([], -1, "0", "abc", "1/0")
_DELETED = object()

# one golden check case per document kind: (checked run, its input document)
LEAF_CHECKS = (
    ("minpoly-q_semisimple", "q_semisimple"),
    ("factor-q", "q_poly"),
    ("jc-q_semisimple", "q_semisimple"),
    ("cjc-q_semisimple", "q_semisimple"),
    ("fine-q_semisimple", "q_semisimple"),
    ("normalize-q_semisimple", "q_semisimple"),
    ("apply-exp-arch-q_semisimple", "q_semisimple"),
    ("apply-sin-padic3-q_semisimple", "q_semisimple"),
    ("domain-exp-arch-q_semisimple", "q_semisimple"),
)


def _mutants(doc, path=()):
    """(path, value) of every one-place change of doc: each value, a leaf or
    an array or object, set to each HOSTILE value, and each key deleted
    (value ``_DELETED``)."""
    for value in HOSTILE:
        yield path, value
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        for key, value in items:
            if isinstance(doc, dict):
                yield path + (key,), _DELETED
            yield from _mutants(value, path + (key,))


def _mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is _DELETED:
        del target[path[-1]]
    elif path:
        target[path[-1]] = value
    else:
        doc = value
    return doc


def _answers_with_a_document(capsys, argv):
    code = main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert code in (0, 1, 2) and len(lines) == 1, argv
    json.loads(lines[0])


def test_one_changed_value_never_escapes_main(tmp_path, capsys):
    """Every malformed document ends in a verdict or an error document, in
    check of each kind of result, in apply of a custom series, and in a
    command on a matrix with a quadratic entry."""
    for checked, source in LEAF_CHECKS:
        ipath = str(GOLDEN / "inputs" / f"{source}.json")
        for path, value in _mutants(_golden_result(checked)):
            rpath = write_doc(tmp_path, "r.json", _mutated(_golden_result(checked), path, value))
            _answers_with_a_document(capsys, ["check", ipath, rpath])
    matrix = str(GOLDEN / "inputs" / "q_worked.json")
    for name in ("custom_entire", "custom_radius2"):
        series = json.loads((GOLDEN / "inputs" / f"{name}.json").read_text())
        for path, value in _mutants(series):
            spath = write_doc(tmp_path, "s.json", _mutated(series, path, value))
            _answers_with_a_document(
                capsys, ["apply", matrix, "--fn", f"custom:{spath}", "--abs", "arch"])
    quadratic = mat_doc([["1", {"a": "1", "b": "1", "d": "2"}], ["0", "1/2"]])
    for path, value in _mutants(quadratic):
        mpath = write_doc(tmp_path, "m.json", _mutated(quadratic, path, value))
        _answers_with_a_document(capsys, ["minpoly", mpath])
