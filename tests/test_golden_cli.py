"""Golden stdout of every CLI command, byte for byte.

Each case runs ``finefrob.cli.main`` on documents under ``golden/inputs`` and
compares its exit code and its stdout with ``golden/expected/<case>.txt``.
The inputs cover Q, F_3 with a repeated factor and F_7, every command, both
absolute values, the error documents of the preconditions, and ``check`` of
every successful result (``check`` reads the committed expected output).

To rewrite the expected files after an intended output change, run
``PYTHONPATH=src python tests/test_golden_cli.py`` from the repository root
and review the diff.
"""

import contextlib
import io
from pathlib import Path

import pytest

from finefrob.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

MATRICES = (
    "q_semisimple",  # eigenvalues 0, 3, 3 +- 3 sqrt(-2): every command succeeds
    "q_worked",  # X^2 - 2X + 5: p-adic apply leaves the domain (NotInOmegaHat)
    "q_jordan",  # (X - 2)(X^2 + 1)^2: fine -> NotSemisimple
    "q_cubic",  # X^3 - 2: fine -> SplittingBoundExceeded
    "q_zero",
    "f3_repeated",  # (X + 2)^2 (X^2 + 1) over F_3
    "f3_cubic",  # X^3 - X - 1 over F_3: cjc -> NotKRegular
    "f7_semisimple",  # X (X + 5)(X^2 + 1) over F_7
)

PER_MATRIX = (
    ("minpoly", []),
    ("jc", []),
    ("cjc", []),
    ("fine", []),
    ("normalize", []),
    ("domain-exp-arch", ["--fn", "exp", "--abs", "arch"]),
    ("domain-cos-padic3", ["--fn", "cos", "--abs", "padic:3"]),
    ("apply-exp-arch", ["--fn", "exp", "--abs", "arch"]),
    ("apply-sin-padic3", ["--fn", "sin", "--abs", "padic:3", "--prec", "12"]),
)

EXTRA = (
    ("factor-q", ["factor", "q_poly"]),
    ("factor-f3", ["factor", "f3_poly"]),
    ("factor-f7", ["factor", "f7_poly"]),
    ("apply-cos-arch-prec80-q_worked", ["apply", "q_worked", "--fn", "cos", "--abs", "arch", "--prec", "80"]),
    ("apply-sinh-arch-terms30-q_worked", ["apply", "q_worked", "--fn", "sinh", "--abs", "arch", "--terms", "30"]),
    ("apply-cosh-padic3-terms9-q_semisimple", ["apply", "q_semisimple", "--fn", "cosh", "--abs", "padic:3", "--terms", "9"]),
    ("apply-custom-arch-q_semisimple", ["apply", "q_semisimple", "--fn", "custom:custom_entire", "--abs", "arch"]),
    ("apply-custom-padic3-q_semisimple", ["apply", "q_semisimple", "--fn", "custom:custom_entire", "--abs", "padic:3"]),
    ("domain-custom-arch-q_worked", ["domain", "q_worked", "--fn", "custom:custom_radius2", "--abs", "arch"]),
    ("domain-custom-padic3-q_semisimple", ["domain", "q_semisimple", "--fn", "custom:custom_radius2", "--abs", "padic:3"]),
)


def _input(name: str) -> str:
    return str(GOLDEN / "inputs" / f"{name}.json")


def _argv(args) -> list:
    out = []
    for arg in args:
        if arg.startswith("custom:"):
            arg = "custom:" + _input(arg[len("custom:"):])
        elif (GOLDEN / "inputs" / f"{arg}.json").exists():
            arg = _input(arg)
        out.append(arg)
    return out


def _runs() -> list:
    """(case name, argv, None) of every command run on the golden inputs."""
    runs = []
    for matrix in MATRICES:
        for label, flags in PER_MATRIX:
            command = label.split("-")[0]
            runs.append((f"{label}-{matrix}", _argv([command, matrix] + flags), None))
    runs.extend((name, _argv(args), None) for name, args in EXTRA)
    return runs


def _checks() -> list:
    """(case name, argv, checked run) of ``check`` on every run expected to exit 0.

    The checked run's expected stdout is the result document; the test
    writes it to a file and appends that path to argv.
    """
    return [
        (f"check-{name}", ["check", argv[1]], name)
        for name, argv, _ in _runs()
        if _expected(name).exists() and _expected(name).read_text().startswith("0\n")
    ]


def _expected(name: str) -> Path:
    return GOLDEN / "expected" / f"{name}.txt"


def _run(argv, checked, tmp_dir: Path) -> str:
    """Exit code on the first line, then stdout."""
    if checked is not None:
        result = tmp_dir / f"{checked}.json"
        result.write_text(_expected(checked).read_text().split("\n", 1)[1])
        argv = argv + [str(result)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"{code}\n{out.getvalue()}"


CASES = _runs() + _checks()


@pytest.mark.parametrize("name, argv, checked", CASES, ids=[case[0] for case in CASES])
def test_golden_stdout(name, argv, checked, tmp_path):
    assert _run(argv, checked, tmp_path) == _expected(name).read_text()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, _ in _runs():
            _expected(name).write_text(_run(argv, None, Path(tmp)))
        for name, argv, checked in _checks():
            _expected(name).write_text(_run(argv, checked, Path(tmp)))
